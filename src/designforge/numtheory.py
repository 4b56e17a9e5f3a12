"""Exact integer helpers: primality, factorization, p-parts, square tests.

Everything here is exact big-integer arithmetic; no floating point.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cache
from itertools import compress
from typing import Iterable

from .errors import FactorizationError

# The first 13 primes as Miller-Rabin bases prove primality for every n below
# _MR_PROVEN_BELOW (Sorenson & Webster, Math. Comp. 86, 2017); above it, a
# number that passes is a strong probable prime to these bases, not proven.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_BELOW = 3_317_044_064_679_887_385_961_981

# Splitting a composite cofactor: a short Brent run (cycle length up to
# _BRENT_SHORT_R), then one Pollard p-1 run with these bounds, then full Brent
# runs with seeds 1.._BRENT_SEEDS (cycle length up to _BRENT_MAX_R).  A prime
# factor of a cyclotomic value Phi_d(q) that does not divide d is 1 mod d, and
# the screen's hard cofactors have a prime p with p - 1 smooth enough for p-1
# where rho needs ~sqrt(p) steps.  p-1's stage 1 takes a gcd after each chunk
# of prime powers (primes up to each bound in _PM1_CHUNKS), so a cofactor
# whose two primes p - 1 and q - 1 both divide E still splits when they fall
# in different chunks; stage 2 pairs the primes kW - j and kW + j, W =
# _PM1_W, in one product term (Montgomery, Math. Comp. 48, 1987).
# The short budget is 2^10: replaying the default screen's 750 cofactors, the
# cofactor stage took 1.14 s at 2^13 and 0.90-0.93 s at every budget from 2^6
# to 2^10, while 2^13 spent 0.45 s on 42 short runs that failed.  The short run
# with seed 1 is a prefix of the seed-1 full run, so the budget only decides
# which route splits a cofactor, never whether it splits.
_BRENT_SHORT_R = 1 << 10
_BRENT_SEEDS = 8
_BRENT_MAX_R = 1 << 22
_PM1_B1 = 50_000
_PM1_B2 = 2_000_000
_PM1_CHUNKS = (500, 2000, 8000, 20_000, _PM1_B1)
_PM1_W = 2310  # 2·3·5·7·11


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


_SMALL_PRIMES = tuple(_primes_up_to(1000))


def is_prime(n: int) -> bool:
    """Miller-Rabin to the 13 bases in _MR_WITNESSES.

    True is a proof of primality for n < _MR_PROVEN_BELOW (about 3.317e24);
    above that bound it only says n is a strong probable prime to those bases.
    False is always a proof that n is composite.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
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

    The attempt runs rounds of cycle length r = 1, 2, 4, ..., max_r and gives
    up before a round longer than max_r; a factor found in the last round is
    kept.
    """
    if n % 2 == 0:
        return 2
    y, c, m = seed % n or 1, seed % n or 1, 128
    g = r = q = 1
    x = ys = y
    while g == 1:
        if r > max_r:
            return n
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
    if g == n:
        while True:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
            if g > 1:
                break
    return g


@cache
def _pm1_tables() -> tuple[tuple[int, ...], int, int, tuple[int, ...], tuple[bytes, ...]]:
    """(chunks, p0, k0, babies, plan), built on the first p-1 run from an
    odd-only sieve up to B2.

    Stage 1: chunks[i] is the product of the largest powers <= B1 of the
    primes in (_PM1_CHUNKS[i - 1], _PM1_CHUNKS[i]], so their product is E, the
    product of the prime powers <= B1; p0 is the largest prime <= B1.
    Stage 2: babies are the j < W/2 prime to W, and plan[i] lists, as indices
    into babies, each j for which kW - j or kW + j, k = k0 + i, is a prime in
    (p0, B2]: first those with kW - j prime by descending j, then the others
    by ascending j, so the terms run in ascending order of the smaller prime
    each covers.  Every prime in (p0, B2] is kW - j or kW + j for one such
    pair (k, j).
    """
    sieve = _odd_sieve(_PM1_B2)
    chunks = [1] * len(_PM1_CHUNKS)
    chunks[0] = 1 << (_PM1_B1.bit_length() - 1)
    chunk, p0 = 0, 2
    for p in compress(range(1, _PM1_B1 + 1, 2), sieve[: (_PM1_B1 + 1) // 2]):
        while p > _PM1_CHUNKS[chunk]:
            chunk += 1
        power = p
        while power * p <= _PM1_B1:
            power *= p
        chunks[chunk] *= power
        p0 = p
    # odd m <= p0 are dropped and m > B2 read as 0; kW -+ (2t + 1) is entry
    # kW/2 - 1 - t or kW/2 + t of the sieve, t < W/4
    half, quarter = _PM1_W // 2, _PM1_W // 4
    sieve[: p0 // 2 + 1] = bytes(p0 // 2 + 1)
    sieve += bytes(quarter)
    babies = tuple(j for j in range(1, half, 2) if math.gcd(j, _PM1_W) == 1)
    index = {j // 2: i for i, j in enumerate(babies)}
    k0 = (p0 + half) // _PM1_W
    plan = []
    for c in range(k0 * half, _PM1_B2 // 2 + half, half):
        below, above = sieve[c - quarter : c][::-1], sieve[c : c + quarter]
        terms = [*compress(range(quarter), below)][::-1]
        terms += compress(range(quarter), map(operator.gt, above, below))
        plan.append(bytes(index[t] for t in terms))
    return tuple(chunks), p0, k0, babies, tuple(plan)


def _pollard_pm1(n: int) -> int:
    """One Pollard p-1 run on odd n: a factor of n, or 1 or n on failure.

    Stage 1 finds p | n when every prime power in p - 1 is <= B1; stage 2
    also finds it when p - 1 has one more prime in (B1, B2].  Stage 2 works
    with V_m = x^m + x^-m mod n, x = 2^E: the term V_kW - V_j is
    x^-kW (x^(kW+j) - 1)(x^(kW-j) - 1), one mulmod for two primes kW -+ j,
    and V_(k+1)W = V_kW V_W - V_(k-1)W.
    """
    chunks, _, k0, babies, plan = _pm1_tables()
    x = 2
    for chunk in chunks:
        x = pow(x, chunk, n)
        g = math.gcd(x - 1, n)
        if g != 1:
            return g
    x_inv = pow(x, -1, n)
    # odd[t] = V_(2t+1) by V_(j+2) = V_j V_2 - V_(j-2), from V_-1 = V_1
    v1 = (x + x_inv) % n
    v2 = (v1 * v1 - 2) % n
    odd, before = [v1], v1
    while len(odd) <= _PM1_W // 4:
        odd.append((odd[-1] * v2 - before) % n)
        before = odd[-2]
    v_w = (odd[-1] * odd[-1] - 2) % n  # V_W = V_(W/2)^2 - 2
    vs = [odd[j // 2] for j in babies]
    m = k0 * _PM1_W
    v_prev = (pow(x, m - _PM1_W, n) + pow(x_inv, m - _PM1_W, n)) % n
    v = (pow(x, m, n) + pow(x_inv, m, n)) % n
    for js in plan:
        acc = 1
        for j in js:
            acc = acc * (v - vs[j]) % n
        g = math.gcd(acc, n)
        if g == n:  # two factors in one giant step: replay it one gcd at a time
            for j in js:
                g = math.gcd(v - vs[j], n)
                if g != 1:
                    return g
        if g != 1:
            return g
        v_prev, v = v, (v * v_w - v_prev) % n
    return 1


def factorize(n: int) -> dict[int, int]:
    """Factor n > 0 into prime powers.

    Every key is a proven prime when it is below _MR_PROVEN_BELOW, and a
    strong probable prime to the 13 bases of `is_prime` above it.  A
    composite cofactor is split by a short Pollard-Brent run (cycle length up
    to _BRENT_SHORT_R = 2^10, the fastest budget on the screen's cofactors;
    see the comment at the constant), then one Pollard p-1 run, then
    Pollard-Brent with seeds 1.._BRENT_SEEDS.  Raises
    FactorizationError when a cofactor resists them all, rather than
    returning it as a key.
    """
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    factors: dict[int, int] = {}
    if n == 1:
        return factors
    for p in _SMALL_PRIMES:
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
        d = _pollard_brent(m, 1, _BRENT_SHORT_R)
        if d == m:
            d = _pollard_pm1(m)
        for seed in range(1, _BRENT_SEEDS + 1):
            if d not in (1, m):
                break
            d = _pollard_brent(m, seed)
        if d in (1, m):
            raise FactorizationError(
                f"composite cofactor {m} of {n} not split by {_BRENT_SEEDS} Pollard-Brent "
                f"rounds and a Pollard p-1 run to B1={_PM1_B1}, B2={_PM1_B2}"
            )
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
