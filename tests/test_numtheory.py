import hashlib
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import lucas_proof
from designforge import numtheory as nt
from designforge.screen import x_order


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


def test_factorize_raises_when_effort_runs_out(monkeypatch):
    n = 1000003 * 1000033
    with monkeypatch.context() as m:
        m.setattr(nt, "_pollard_brent", lambda n, seed=1, max_r=0: n)
        m.setattr(nt, "_pollard_pm1", lambda n: n)
        with pytest.raises(nt.FactorizationError):
            nt.factorize(n)
    assert issubclass(nt.FactorizationError, ArithmeticError)
    assert nt.factorize(n) == {1000003: 1, 1000033: 1}


def test_pollard_pm1_splits_smooth_factor():
    # v = 881·p·q for the screen case C1(n=11,q=971,i=1), rho's slowest:
    # p - 1 = 2^3·7·11·31·103·179·201359, so p-1 finds p in stage 2,
    # while q - 1 has the prime factor 10051797671
    p, q = 70893057541769, 11941535633149
    assert nt._pollard_pm1(p * q) == p
    assert nt.factorize(p * q) == {p: 1, q: 1}


def test_pollard_pm1_replays_a_block_holding_both_factors():
    # p - 1 = 2·50021 and q - 1 = 2·50051: both stage-2 primes fall in the
    # first block, whose product then is 0 mod pq
    p, q = 100043, 100103
    assert nt._pollard_pm1(p * q) == p


def test_pollard_pm1_chunked_stage1_splits_when_e_holds_both_factors():
    # Phi_7(673)'s cofactor on the default screen: p - 1 = 2·3^2·7·13·31·1747
    # and q - 1 = 2·3^2·7^2·71·2393 both divide E, so one gcd after all of
    # stage 1 is n; the gcd after the chunk of primes in (500, 2000] finds p
    p, q = 88709167, 149854447
    chunks = nt._pm1_tables()[0]
    exponent = math.prod(chunks)
    assert exponent % (p - 1) == exponent % (q - 1) == 0
    assert math.gcd(pow(2, exponent, p * q) - 1, p * q) == p * q
    assert (p - 1) % 1747 == 0 and 500 < 1747 <= 2000 < 2393
    assert nt._pollard_pm1(p * q) == p


def test_pollard_pm1_fails_and_rho_still_splits():
    # p - 1 = 2·500000003 and q - 1 = 2·1000000289, both primes above B2
    p, q = 1000000007, 2000000579
    n = p * q
    assert nt._pollard_brent(n, 1, nt._BRENT_SHORT_R) == n
    assert nt._pollard_pm1(n) in (1, n)
    assert nt.factorize(n) == {p: 1, q: 1}


def test_short_brent_keeps_a_factor_found_in_its_last_round():
    # a cofactor of the default screen that the round of cycle length
    # _BRENT_SHORT_R splits, and no shorter budget does
    n = 1399202805691
    assert n == 982351 * 1424341
    assert nt._pollard_brent(n, 1, nt._BRENT_SHORT_R // 2) == n
    assert nt._pollard_brent(n, 1, nt._BRENT_SHORT_R) == 982351
    assert nt._pollard_brent(n, 1) == 982351


def _random_prime(rng, bits):
    while True:
        m = rng.randrange(1 << (bits - 1), 1 << bits)
        if nt.is_prime(m):
            return m


def test_short_brent_budget_only_moves_work_between_routes(monkeypatch):
    # the short run with seed 1 is a prefix of the full seed-1 run: where it
    # splits n, the full run returns the same factor, so the budget decides
    # which route splits a cofactor and never the factorization
    rng = random.Random(34)
    split = 0
    for bits in (12, 16, 20, 24, 28):
        for _ in range(8):
            n = math.prod(_random_prime(rng, bits) for _ in range(2))
            d = nt._pollard_brent(n, 1, nt._BRENT_SHORT_R)
            if d != n:
                split += 1
                assert d == nt._pollard_brent(n, 1)
    assert 0 < split < 40
    pinned = {
        88709167 * 149854447: {88709167: 1, 149854447: 1},
        70893057541769 * 11941535633149: {70893057541769: 1, 11941535633149: 1},
        1000003 * 1000033: {1000003: 1, 1000033: 1},
    }
    for short_r in (1 << 4, 1 << 7, 1 << 10, 1 << 13):
        monkeypatch.setattr(nt, "_BRENT_SHORT_R", short_r)
        for n, factors in pinned.items():
            assert nt.factorize(n) == factors


def test_factorization_error_names_what_ran(monkeypatch):
    message = r"by 8 Pollard-Brent rounds and a Pollard p-1 run to B1=50000, B2=2000000$"
    pm1 = nt._pollard_pm1
    monkeypatch.setattr(nt, "_pollard_brent", lambda n, seed=1, max_r=0: n)
    monkeypatch.setattr(nt, "_pollard_pm1", lambda n: n)
    with pytest.raises(nt.FactorizationError, match=message):
        nt.factorize(1000003 * 1000033)
    # with rho disabled, the real p-1 run meets a number it cannot split
    monkeypatch.setattr(nt, "_pollard_pm1", pm1)
    with pytest.raises(nt.FactorizationError, match=message):
        nt.factorize(1000000007 * 2000000579)


def test_pm1_tables_not_built_at_import():
    # p-1's tables are built on first use, so importing the CLI stays cheap
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import designforge.cli, designforge.numtheory as nt; "
        "print(nt._pm1_tables.cache_info().currsize)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert proc.stdout.strip() == "0"


def test_primes_up_to_matches_trial_division():
    primes = [p for p in range(2, 2001) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    for n in range(2001):
        assert nt._primes_up_to(n) == [p for p in primes if p <= n]


def test_pm1_tables_match_recorded_values():
    # pins the tables built from the shared odd-only sieve; E, the product of
    # the stage-1 chunks, is hashed in hex because its 21700 decimal digits
    # exceed what str() converts by default
    chunks, p0, k0, babies, plan = nt._pm1_tables()
    exponent = math.prod(chunks)
    assert hashlib.sha256(hex(exponent).encode()).hexdigest() == (
        "e85beac20f5caba16129593defefc91013fd64aded796f72c9b12e44a2e339fd"
    )
    # chunk i holds the largest powers <= B1 of the primes in
    # (_PM1_CHUNKS[i - 1], _PM1_CHUNKS[i]]
    powers = {p: p ** int(math.log(nt._PM1_B1, p) + 1e-9) for p in nt._primes_up_to(nt._PM1_B1)}
    assert all(p <= power <= nt._PM1_B1 < power * p for p, power in powers.items())
    bounds = (1, *nt._PM1_CHUNKS)
    assert list(chunks) == [
        math.prod(power for p, power in powers.items() if low < p <= high)
        for low, high in zip(bounds, bounds[1:])
    ]
    assert (p0, k0, len(babies)) == (49999, 22, 240)
    # giant steps k = 22..866; the stage also computes V_kW at k = 21 to
    # start the recurrence, 846 values in all
    assert (len(plan), sum(map(len, plan))) == (845, 118404)
    w = nt._PM1_W
    stage2 = {r for r in nt._primes_up_to(nt._PM1_B2) if r > p0}
    assert len(stage2) == 143800
    smaller, covered = [], set()
    for k, js in enumerate(plan, k0):
        for j in js:
            primes = stage2.intersection((k * w - babies[j], k * w + babies[j]))
            smaller.append(min(primes))  # raises if a term covers no stage-2 prime
            covered |= primes
    # the terms cover every stage-2 prime, in ascending order of the
    # smaller prime each covers
    assert covered == stage2
    assert smaller == sorted(smaller)


def test_parse_factorization_inverse():
    for text in ["2^4·3^2", "3^2·5·31", "2·3^2·13/7", "2^15·11·31^2"]:
        value = nt.parse_factorization(text)
        num, den = (nt.format_factorization(nt.factorize(x)) for x in value.as_integer_ratio())
        assert (num if den == "1" else f"{num}/{den}") == text


def test_p_part():
    assert nt.p_prime_part(48, 2) == 48 // 16
    assert nt.p_prime_part(5616, 3) == 5616 // 27
    assert nt.p_prime_part(7, 5) == 7
    with pytest.raises(ValueError):
        nt.p_prime_part(10, 4)
    with pytest.raises(ValueError):
        nt.p_prime_part(0, 2)


def test_square_and_prime_powers():
    assert nt.is_perfect_square(144)
    assert not nt.is_perfect_square(145)
    assert nt.prime_power_decomposition(27) == (3, 3)
    with pytest.raises(ValueError):
        nt.prime_power_decomposition(12)
    pps = nt.prime_powers_up_to(32)
    assert pps == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]


def test_prime_powers_up_to_matches_trial_definition():
    # the sieve against the definition it replaced, one factorize per integer
    old = [n for n in range(2, 5001) if len(nt.factorize(n)) == 1]
    for limit in range(5001):
        assert nt.prime_powers_up_to(limit) == [n for n in old if n <= limit]
    assert nt.prime_powers_up_to(0) == nt.prime_powers_up_to(1) == []
    assert nt.prime_powers_up_to(2) == [2]


def test_is_prime_proven_only_below_the_bound():
    # psi_13, the least strong pseudoprime to the bases 2..41, passes
    # is_prime and factorize keeps it whole; Lucas' test finds it composite
    psi13 = nt._MR_PROVEN_BELOW
    assert psi13 == 1287836182261 * 2575672364521
    assert nt.is_prime(psi13)
    assert nt.factorize(psi13) == {psi13: 1}
    assert not lucas_proof(psi13)
    assert lucas_proof(2**89 - 1)
    # r - 1 = 136·(2^89 - 1): the certificate recurses on the Mersenne prime
    assert lucas_proof(136 * (2**89 - 1) + 1)


def test_cyclotomic_values_multiply_to_q_power_minus_one():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 25, 1024):
        phi = nt.cyclotomic_values(12, q)
        for d in range(1, 13):
            assert math.prod(phi[e - 1] for e in range(1, d + 1) if d % e == 0) == q**d - 1
    assert nt.cyclotomic_values(6, 2) == [1, 3, 7, 5, 31, 3]
    assert nt.cyclotomic_values(0, 2) == []
    with pytest.raises(ValueError):
        nt.cyclotomic_values(3, 1)


def _psl_factorization(n, q):
    """{prime: exponent} of |PSL(n, q)| from its pieces, each factored alone."""
    p, f = nt.prime_power_decomposition(q)
    fac = {p: f * n * (n - 1) // 2}
    for i in range(2, n + 1):
        for r, e in nt.factorize(q**i - 1).items():
            fac[r] = fac.get(r, 0) + e
    for r, e in nt.factorize(math.gcd(n, q - 1)).items():
        fac[r] -= e
    return {r: e for r, e in fac.items() if e}


def test_factorize_over_matches_factorize_on_psl_divisors():
    rng = random.Random(20261019)
    for n, q in ((3, 3), (4, 7), (5, 4), (6, 9), (8, 2), (9, 32), (10, 13), (12, 3)):
        p, f = nt.prime_power_decomposition(q)
        # the parts over q, and over p as screen.build_report uses them:
        # q^i - 1 = p^(if) - 1 = prod_{e | if} Phi_e(p)
        for parts in ((p, *nt.cyclotomic_values(n, q)), (p, *nt.cyclotomic_values(n * f, p))):
            full = _psl_factorization(n, q)
            assert math.prod(r**e for r, e in full.items()) == x_order(n, q)
            assert nt.factorize_over(x_order(n, q), parts) == full
            for _ in range(10):
                chosen = {r: rng.randint(0, e) for r, e in full.items()}
                divisor = math.prod(r**e for r, e in chosen.items())
                got = nt.factorize_over(divisor, parts)
                assert got == {r: e for r, e in chosen.items() if e} == nt.factorize(divisor)
    # Phi_11(569): its smallest prime factor is about 10^13
    parts = (569, *nt.cyclotomic_values(11, 569))
    phi11 = parts[11]
    expected = nt.factorize(phi11)
    assert min(expected) > 10**12
    assert nt.factorize_over(phi11, parts) == expected
    assert nt.factorize_over(569**3 * 568 * phi11, parts) == nt.factorize(569**3 * 568 * phi11)


def test_factorize_over_raises_on_a_prime_outside_the_parts():
    assert nt.factorize_over(7 * 9, (2, 3, 7)) == {3: 2, 7: 1}
    assert nt.factorize_over(1, (2, 3)) == {}
    with pytest.raises(nt.FactorizationError, match="cofactor 11 of 77"):
        nt.factorize_over(7 * 11, (2, 3, 7))
    with pytest.raises(ValueError):
        nt.factorize_over(0, (2,))


def test_format_factorization():
    assert nt.format_factorization({3: 2, 2: 4}) == "2^4·3^2"
    assert nt.format_factorization({}) == "1"
    assert nt.format_factorization(nt.factorize(5616)) == "2^4·3^3·13"


def test_divisors():
    assert nt.divisors(12) == [1, 2, 3, 4, 6, 12]
