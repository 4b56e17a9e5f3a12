from fractions import Fraction

import pytest

from designforge import numtheory as nt


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 97, 757, 5419, 2**31 - 1]
    for p in primes:
        assert nt.is_prime(p)
    for c in [0, 1, 4, 91, 5616, 2**31]:
        assert not nt.is_prime(c)


def test_factorize_roundtrip():
    for n in [2, 12, 5616, 11232, 2**4 * 3**2, 124186608, 30023136]:
        fac = nt.factorize(n)
        prod = 1
        for p, e in fac.items():
            assert nt.is_prime(p)
            prod *= p**e
        assert prod == n


def test_factorize_raises_when_effort_runs_out():
    n = 1000003 * 1000033
    with pytest.raises(nt.FactorizationError):
        nt.factorize(n, effort=0)
    assert issubclass(nt.FactorizationError, ArithmeticError)
    assert nt.factorize(n) == {1000003: 1, 1000033: 1}


def test_factorization_string():
    assert nt.factorization_string(144) == "2^4·3^2"
    assert nt.factorization_string(1) == "1"
    assert nt.factorization_string(Fraction(234, 7)) == "2·3^2·13/7"


def test_parse_factorization_inverse():
    for text in ["2^4·3^2", "3^2·5·31", "2·3^2·13/7", "2^15·11·31^2"]:
        value = nt.parse_factorization(text)
        assert nt.factorization_string(value) == text


def test_p_part():
    assert nt.p_part(48, 2) == 16
    assert nt.p_part(5616, 3) == 27
    assert nt.p_part(7, 5) == 1
    assert nt.p_prime_part(5616, 3) == 5616 // 27
    with pytest.raises(ValueError):
        nt.p_part(10, 4)


def test_square_and_prime_powers():
    assert nt.is_perfect_square(144)
    assert not nt.is_perfect_square(145)
    assert nt.prime_power_decomposition(27) == (3, 3)
    with pytest.raises(ValueError):
        nt.prime_power_decomposition(12)
    pps = nt.prime_powers_up_to(32)
    assert pps == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]


def test_divisors():
    assert nt.divisors(12) == [1, 2, 3, 4, 6, 12]
