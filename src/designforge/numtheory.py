"""Exact integer helpers: primality, factorization, p-parts, square tests.

Everything here is exact big-integer arithmetic; no floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress, pairwise
from typing import Iterable

# The first 13 primes as Miller-Rabin bases prove primality for every n below
# _MR_PROVEN_BELOW (Sorenson & Webster, Math. Comp. 86, 2017); above it, a
# number that passes is a strong probable prime to these bases, not proven.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_BELOW = 3_317_044_064_679_887_385_961_981

_SMALL_PRIME_LIMIT = 1000
_small_primes: list[int] = []

# Splitting a composite cofactor: a short Brent run (cycle length up to
# _BRENT_SHORT_R), then one Pollard p-1 run with these bounds, then full Brent
# runs with seeds 1.._BRENT_SEEDS (cycle length up to _BRENT_MAX_R).  A prime
# factor of a cyclotomic value Phi_d(q) that does not divide d is 1 mod d, and
# the screen's hard cofactors have a prime p with p - 1 smooth enough for p-1
# where rho needs ~sqrt(p) steps.
_BRENT_SHORT_R = 1 << 13
_BRENT_SEEDS = 8
_BRENT_MAX_R = 1 << 22
_PM1_B1 = 50_000
_PM1_B2 = 2_000_000
_PM1_BLOCK = 1024
# Built on the first p-1 call: [E, p0, half_gaps, max(half_gaps)], where E is
# the product of the prime powers <= B1, p0 the largest prime <= B1, and
# half_gaps[i] half the gap from the i-th to the (i+1)-th prime in p0,
# next_prime(p0), ..., <= B2.
_pm1_tables: list = []


class FactorizationError(ArithmeticError):
    """A composite cofactor resisted every splitting attempt allowed."""


def _odd_sieve(limit: int) -> bytearray:
    """Sieve of Eratosthenes on the odd numbers: entry i is 1 iff 2i + 1 <= limit
    is prime."""
    half = (limit + 1) // 2
    sieve = bytearray([1]) * half
    sieve[0] = 0  # 1 is not prime
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            sieve[p * p // 2 :: p] = bytes(len(range(p * p // 2, half, p)))
    return sieve


def _primes_up_to(limit: int) -> list[int]:
    """The primes <= limit."""
    if limit < 2:
        return []
    return [2, *compress(range(1, limit + 1, 2), _odd_sieve(limit))]


def _sieve_small() -> list[int]:
    if not _small_primes:
        _small_primes.extend(_primes_up_to(_SMALL_PRIME_LIMIT - 1))
    return _small_primes


def is_prime(n: int) -> bool:
    """Miller-Rabin to the 13 bases in _MR_WITNESSES.

    True is a proof of primality for n < _MR_PROVEN_BELOW (about 3.317e24);
    above that bound it only says n is a strong probable prime to those bases.
    False is always a proof that n is composite.
    """
    if n < 2:
        return False
    for p in _sieve_small():
        if n == p:
            return True
        if n % p == 0:
            return False
        if p * p > n:
            return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int, seed: int = 1, max_r: int = _BRENT_MAX_R) -> int:
    """One Brent-cycle attempt; returns a nontrivial factor or n on failure.

    The attempt gives up once the cycle length r would exceed max_r.
    """
    if n % 2 == 0:
        return 2
    y, c, m = seed % n or 1, seed % n or 1, 128
    g = r = q = 1
    x = ys = y
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += m
        r *= 2
        if r > max_r:
            return n
    if g == n:
        while True:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
            if g > 1:
                break
    return g


def _pm1_setup() -> list:
    """Build the p-1 tables once, from an odd-only sieve up to B2."""
    if not _pm1_tables:
        sieve = _odd_sieve(_PM1_B2)
        exponent = 1 << (_PM1_B1.bit_length() - 1)
        p0 = 2
        for p in compress(range(1, _PM1_B1 + 1, 2), sieve[: (_PM1_B1 + 1) // 2]):
            power = p
            while power * p <= _PM1_B1:
                power *= p
            exponent *= power
            p0 = p
        stage2 = compress(range(p0, _PM1_B2 + 1, 2), memoryview(sieve)[p0 // 2 :])
        half_gaps = bytes((b - a) // 2 for a, b in pairwise(stage2))
        _pm1_tables.extend((exponent, p0, half_gaps, max(half_gaps)))
    return _pm1_tables


def _pollard_pm1(n: int) -> int:
    """One Pollard p-1 run on odd n: a factor of n, or 1 or n on failure.

    Stage 1 finds p | n when every prime power in p - 1 is <= B1; stage 2
    also finds it when p - 1 has one more prime in (B1, B2].
    """
    exponent, p0, half_gaps, max_half_gap = _pm1_setup()
    x = pow(2, exponent, n)
    g = math.gcd(x - 1, n)
    if g != 1:
        return g
    x2 = x * x % n
    steps = [1, x2]  # steps[h] = x^(2h)
    for _ in range(max_half_gap - 1):
        steps.append(steps[-1] * x2 % n)
    y = pow(x, p0, n)
    for start in range(0, len(half_gaps), _PM1_BLOCK):
        block, y_start, acc = half_gaps[start : start + _PM1_BLOCK], y, 1
        for h in block:
            y = y * steps[h] % n
            acc = acc * (y - 1) % n
        g = math.gcd(acc, n)
        if g == n:  # two factors in one block: replay it one gcd at a time
            y = y_start
            for h in block:
                y = y * steps[h] % n
                g = math.gcd(y - 1, n)
                if g != 1:
                    return g
        if g != 1:
            return g
    return 1


def factorize(n: int) -> dict[int, int]:
    """Factor n > 0 into prime powers.

    Every key is a proven prime when it is below _MR_PROVEN_BELOW, and a
    strong probable prime to the 13 bases of `is_prime` above it.  A
    composite cofactor is split by a short Pollard-Brent run, then one
    Pollard p-1 run, then Pollard-Brent with seeds 1.._BRENT_SEEDS; the first
    two belong to the first of those rounds, so _BRENT_SEEDS = 0 tries nothing.
    Raises FactorizationError when a cofactor resists them all, rather than
    returning it as a key.
    """
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    factors: dict[int, int] = {}
    if n == 1:
        return factors
    for p in _sieve_small():
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        if n == 1:
            return factors
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        root = math.isqrt(m)
        if root * root == m:
            stack.extend((root, root))
            continue
        d = m
        if _BRENT_SEEDS > 0:
            d = _pollard_brent(m, 1, _BRENT_SHORT_R)
            if d == m:
                d = _pollard_pm1(m)
        for seed in range(1, _BRENT_SEEDS + 1):
            if d not in (1, m):
                break
            d = _pollard_brent(m, seed)
        if d in (1, m):
            tried = f"{_BRENT_SEEDS} Pollard-Brent rounds"
            if _BRENT_SEEDS > 0:
                tried += f" and a Pollard p-1 run to B1={_PM1_B1}, B2={_PM1_B2}"
            raise FactorizationError(f"composite cofactor {m} of {n} not split by {tried}")
        stack.extend((d, m // d))
    return factors


def cyclotomic_values(n: int, q: int) -> list[int]:
    """[Phi_1(q), ..., Phi_n(q)] for q >= 2, from q^d - 1 = prod_{e | d} Phi_e(q)."""
    if q < 2:
        raise ValueError("cyclotomic_values expects q >= 2")
    values: list[int] = []
    for d in range(1, n + 1):
        value = q**d - 1
        for e in range(1, d):
            if d % e == 0:
                value //= values[e - 1]
        values.append(value)
    return values


def factorize_over(n: int, parts: Iterable[int]) -> dict[int, int]:
    """Factor n > 0 whose every prime divides one of `parts`.

    Each g = gcd(n', part) > 1, with n' what is left of n, is factored by
    `factorize`, and the exponent of each of its primes is read off n' by
    division.  Raises FactorizationError when a cofactor is left, that is
    when n has a prime that divides no part.
    """
    if n < 1:
        raise ValueError("factorize_over expects a positive integer")
    factors: dict[int, int] = {}
    rest = n
    for part in parts:
        g = math.gcd(rest, part)
        if g == 1:
            continue
        for p in factorize(g):
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            factors[p] = e
    if rest != 1:
        raise FactorizationError(f"cofactor {rest} of {n} divides none of the parts")
    return factors


def format_factorization(factors: dict[int, int]) -> str:
    """Render {p: e} like the classical tables: "2^4·3^2", and {} as "1"."""
    if not factors:
        return "1"
    return "·".join(f"{p}^{e}" if e > 1 else str(p) for p, e in sorted(factors.items()))


def factorization_string(n: int | Fraction) -> str:
    """Render n like the classical tables: "2^4·3^2", fractions as num/den."""
    if isinstance(n, Fraction):
        if n.denominator == 1:
            return factorization_string(n.numerator)
        return f"{factorization_string(n.numerator)}/{factorization_string(n.denominator)}"
    if n == 0:
        return "0"
    return format_factorization(factorize(n))


def parse_factorization(text: str) -> Fraction:
    """Parse a "2^4·3^2" or "2·3^2·13/7" style string back to an exact value."""
    text = text.replace(" ", "")
    num_text, _, den_text = text.partition("/")

    def product(s: str) -> int:
        value = 1
        for term in s.split("·"):
            if not term:
                continue
            base, _, exp = term.partition("^")
            value *= int(base) ** (int(exp) if exp else 1)
        return value

    return Fraction(product(num_text), product(den_text) if den_text else 1)


def p_prime_part(m: int, p: int) -> int:
    """The p'-part of m: m with all factors of p removed."""
    if m < 1:
        raise ValueError("p_prime_part expects m >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    while m % p == 0:
        m //= p
    return m


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def prime_power_decomposition(q: int) -> tuple[int, int]:
    """Return (p, f) with q = p**f, or raise if q is not a prime power."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    fac = factorize(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    ((p, f),) = fac.items()
    return p, f


def prime_powers_up_to(limit: int) -> list[int]:
    """All prime powers p**f <= limit, ascending."""
    out = []
    for p in _primes_up_to(limit):
        power = p
        while power <= limit:
            out.append(power)
            power *= p
    return sorted(out)


def divisors(n: int) -> list[int]:
    if n < 1:
        raise ValueError("divisors expects n >= 1")
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)
