"""Exact integer helpers: primality, factorization, p-parts, square tests.

Everything here is exact big-integer arithmetic; no floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Witnesses proving primality deterministically for n < 3.3 * 10**24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_SMALL_PRIME_LIMIT = 1000
_small_primes: list[int] = []


class FactorizationError(ArithmeticError):
    """A composite cofactor resisted every Pollard-Brent attempt allowed."""


def _sieve_small() -> list[int]:
    if not _small_primes:
        sieve = bytearray([1]) * _SMALL_PRIME_LIMIT
        sieve[0:2] = b"\x00\x00"
        for i in range(2, int(math.isqrt(_SMALL_PRIME_LIMIT)) + 1):
            if sieve[i]:
                sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
        _small_primes.extend(i for i in range(_SMALL_PRIME_LIMIT) if sieve[i])
    return _small_primes


def is_prime(n: int) -> bool:
    """Miller-Rabin with a fixed witness set (deterministic below 3.3e24)."""
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


def _pollard_brent(n: int, seed: int = 1) -> int:
    """One Brent-cycle attempt; returns a nontrivial factor or n on failure."""
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
        if r > 1 << 22:
            return n
    if g == n:
        while True:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
            if g > 1:
                break
    return g


def factorize(n: int, effort: int = 8) -> dict[int, int]:
    """Factor n > 0 into prime powers; every key is prime.

    Raises FactorizationError when a composite cofactor resists `effort`
    Pollard-Brent rounds, rather than returning it as a key.
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
        for seed in range(1, effort + 1):
            d = _pollard_brent(m, seed)
            if d not in (1, m):
                break
        if d in (1, m):
            raise FactorizationError(
                f"composite cofactor {m} of {n} not split in {effort} Pollard-Brent rounds"
            )
        stack.extend((d, m // d))
    return factors


def factorization_string(n: int | Fraction) -> str:
    """Render n like the classical tables: "2^4·3^2", fractions as num/den."""
    if isinstance(n, Fraction):
        if n.denominator == 1:
            return factorization_string(n.numerator)
        return f"{factorization_string(n.numerator)}/{factorization_string(n.denominator)}"
    if n == 0:
        return "0"
    if n == 1:
        return "1"
    parts = []
    fac = factorize(n)
    for p in sorted(fac):
        e = fac[p]
        parts.append(f"{p}^{e}" if e > 1 else str(p))
    return "·".join(parts)


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


def p_part(m: int, p: int) -> int:
    """Largest power of p dividing m."""
    if m < 1:
        raise ValueError("p_part expects m >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    out = 1
    while m % p == 0:
        out *= p
        m //= p
    return out


def p_prime_part(m: int, p: int) -> int:
    """The p'-part of m: m with all factors of p removed."""
    return m // p_part(m, p)


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
    return [n for n in range(2, limit + 1) if len(factorize(n)) == 1]


def divisors(n: int) -> list[int]:
    if n < 1:
        raise ValueError("divisors expects n >= 1")
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)
