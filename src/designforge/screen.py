"""Exact big-integer screening of (family, n, q) candidates for point-primitive
block-transitive 2-(k^2,k,lambda) designs on the cosets of a maximal subgroup
of a group with simple linear socle.

For each case the screen computes the socle order, the stabilizer order |H0|
(exact where a closed formula exists, an upper bound otherwise), the point
count v, known subdegrees, and three gates:

  * square gate      - v must be a perfect square k^2;
  * divisibility gate - k+1 must divide gcd(v-1, d) for each known subdegree d
                        and gcd(v-1, |Out| * |H0|);
  * bound gate       - for non-parabolic stabilizers, |X| < |Out|^2 |H0| |H0|_p'^2
                        and gcd(p, v-1) = 1.

Candidate (n, q) ranges default to the finite lists forced by the published
case analysis (re-derived here from the underlying inequalities, evaluated
exactly); values listed in the published tables are always included, and any
disagreement between a published value and the exact recomputation is flagged
in the report notes rather than silently adopted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .numtheory import (
    cyclotomic_values,
    divisors,
    factorize,
    factorize_over,
    format_factorization,
    is_perfect_square,
    is_prime,
    p_prime_part,
    parse_factorization,
    prime_power_decomposition,
    prime_powers_up_to,
)

FAMILIES = ("C1", "C1'", "C2", "C3", "C4", "C5", "C6", "C7", "C8s", "C8o", "C8u", "S")

PASS, FAIL, NA = "pass", "fail", "na"

_N_SOFT_CAP = 12
_Q_SOFT_CAP = 1 << 10


class ScreenError(ValueError):
    pass


class NonDivisibleError(ScreenError):
    """|H0| does not divide |X|: the case is structurally vacuous."""


# ---------------------------------------------------------------------------
# classical group orders (exact)


def gl_order(n: int, q: int) -> int:
    return math.prod(q**n - q**j for j in range(n))


def sl_order(n: int, q: int) -> int:
    return gl_order(n, q) // (q - 1)


# |PGL(n,q)| = |GL(n,q)|/(q-1) = |SL(n,q)|
pgl_order = sl_order


def x_order(n: int, q: int) -> int:
    """|PSL(n,q)|."""
    return sl_order(n, q) // math.gcd(n, q - 1)


def sp_order(n: int, q: int) -> int:
    if n % 2:
        raise ValueError("symplectic groups need even dimension")
    m = n // 2
    return q ** (m * m) * math.prod(q ** (2 * j) - 1 for j in range(1, m + 1))


def su_order(n: int, q0: int) -> int:
    return q0 ** (n * (n - 1) // 2) * math.prod(q0**j - (-1) ** j for j in range(2, n + 1))


def so_odd_order(n: int, q: int) -> int:
    """|SO(n,q)| for odd n and odd q."""
    if n % 2 == 0 or q % 2 == 0:
        raise ValueError("odd-dimensional orthogonal groups need odd n and odd q")
    i = (n - 1) // 2
    return q ** (i * i) * math.prod(q ** (2 * j) - 1 for j in range(1, i + 1))


def so_even_order(n: int, q: int, epsilon: int) -> int:
    """|SO^eps(n,q)| for even n, odd q; epsilon is +1 or -1."""
    if n % 2 or epsilon not in (1, -1):
        raise ValueError("even-dimensional orthogonal groups need even n, eps = +-1")
    i = n // 2
    return (
        q ** (i * (i - 1))
        * (q**i - epsilon)
        * math.prod(q ** (2 * j) - 1 for j in range(1, i))
    )


def out_order(n: int, q: int) -> int:
    """|Out(PSL(n,q))| = 2 f gcd(n, q-1) for n >= 3."""
    if n < 3:
        raise ValueError("defined here for n >= 3 only")
    _, f = prime_power_decomposition(q)
    return 2 * f * math.gcd(n, q - 1)


def gaussian_binomial(n: int, i: int, q: int) -> int:
    num = math.prod(q ** (n - j) - 1 for j in range(i))
    den = math.prod(q ** (j + 1) - 1 for j in range(i))
    return num // den


# ---------------------------------------------------------------------------
# case specifications


@dataclass(frozen=True)
class PrimePower:
    p: int
    f: int

    def __post_init__(self) -> None:
        prime_power_decomposition(self.p**self.f)  # validates p prime, f >= 1

    @property
    def q(self) -> int:
        return self.p**self.f

    @classmethod
    def of(cls, q: int) -> PrimePower:
        p, f = prime_power_decomposition(q)
        return cls(p, f)


@dataclass(frozen=True)
class CaseSpec:
    """One candidate maximal-subgroup case for the socle PSL(n, q)."""

    family: str
    n: int
    q: PrimePower
    params: tuple[tuple[str, int | str], ...] = ()

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ScreenError(f"unknown family {self.family!r}")
        if self.n < 3:
            raise ScreenError("n >= 3 required")
        _validate_case(self)

    def get(self, key: str, default=None):
        return dict(self.params).get(key, default)

    def label(self) -> str:
        extra = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.family}(n={self.n},q={self.q.q}" + (f",{extra})" if extra else ")")


def _case(family: str, n: int, q: int, **params) -> CaseSpec:
    return CaseSpec(family, n, PrimePower.of(q), tuple(sorted(params.items())))


def _validate_case(c: CaseSpec) -> None:
    n, q = c.n, c.q.q
    fam = c.family
    if fam == "C1":
        i = c.get("i")
        if not (isinstance(i, int) and 1 <= i <= n - 1):
            raise ScreenError("C1 needs a subspace dimension 1 <= i <= n-1")
    elif fam == "C1'":
        i, kind = c.get("i"), c.get("kind")
        if kind not in ("contained", "complement"):
            raise ScreenError("C1' needs kind in {contained, complement}")
        if not (isinstance(i, int) and 1 <= i < n / 2):
            raise ScreenError("C1' needs 1 <= i < n/2")
    elif fam == "C2":
        a, e = c.get("a"), c.get("e")
        if not (a and e and a * e == n and a >= 2):
            raise ScreenError("C2 needs n = a*e with a >= 2")
    elif fam == "C3":
        i, theta = c.get("i"), c.get("theta")
        if not (i and theta and i * theta == n):
            raise ScreenError("C3 needs n = i*theta")
        if not is_prime(theta):
            raise ScreenError("C3 needs theta prime")
    elif fam == "C4":
        i = c.get("i")
        if not (i and 1 < i and i * i < n and n % i == 0):
            raise ScreenError("C4 needs a proper tensor split 1 < i < n/i")
    elif fam == "C5":
        q0, u = c.get("q0"), c.get("u")
        if not (q0 and u and q0**u == q):
            raise ScreenError("C5 needs q = q0^u")
        if not is_prime(u):
            raise ScreenError("C5 needs prime index u")
    elif fam == "C6":
        i, omega = c.get("i"), c.get("omega")
        if not (i and omega and omega**i == n):
            raise ScreenError("C6 needs n = omega^i")
        if not is_prime(omega):
            raise ScreenError("C6 needs omega prime")
    elif fam == "C7":
        i, ell = c.get("i"), c.get("ell")
        if not (i and ell and ell >= 2 and i >= 3 and i**ell == n):
            raise ScreenError("C7 needs n = i^ell with i >= 3, ell >= 2")
    elif fam == "C8s":
        if n % 2:
            raise ScreenError("symplectic case needs even n")
    elif fam == "C8o":
        if q % 2 == 0:
            raise ScreenError("orthogonal case needs odd q")
        if n % 2 == 0 and c.get("epsilon") not in (1, -1):
            raise ScreenError("even orthogonal case needs epsilon = +-1")
    elif fam == "C8u":
        q0 = c.get("q0")
        if not (q0 and q0 * q0 == q):
            raise ScreenError("unitary case needs q = q0^2")
    elif fam == "S":
        if not c.get("name") or not c.get("h0"):
            raise ScreenError("S-family cases carry a named subgroup and its order")


# ---------------------------------------------------------------------------
# H0 orders


def h0_order(case: CaseSpec) -> tuple[int, bool]:
    """(|H0|, exact): |H0| = |X ∩ G_alpha| where a closed formula exists,
    otherwise an upper bound for it (exact is False)."""
    n, q = case.n, case.q.q
    d = math.gcd(n, q - 1)
    fam = case.family
    value: Fraction
    if fam == "C1":
        value = Fraction(x_order(n, q), gaussian_binomial(n, case.get("i"), q))
    elif fam == "C1'":
        i = case.get("i")
        if case.get("kind") == "contained":
            # coarse: the full stabilizer of the pair of nested subspaces
            bound = gl_order(i, q) ** 2 * gl_order(n - 2 * i, q)
            return bound * q ** (2 * i * (n - 2 * i) + i * i), False
        value = Fraction(sl_order(i, q) * sl_order(n - i, q) * (q - 1), d)
    elif fam == "C2":
        a, e = case.get("a"), case.get("e")
        value = Fraction(
            sl_order(e, q) ** a * math.factorial(a) * (q - 1) ** (a - 1), d
        )
    elif fam == "C3":
        i, theta = case.get("i"), case.get("theta")
        value = Fraction(sl_order(i, q**theta) * (q**theta - 1) * theta, (q - 1) * d)
    elif fam == "C4":
        i = case.get("i")
        return pgl_order(i, q) * pgl_order(n // i, q), False
    elif fam == "C5":
        q0 = case.get("q0")
        value = Fraction(
            pgl_order(n, q0) * math.gcd(n, (q - 1) // (q0 - 1)), math.gcd(n, q - 1)
        )
    elif fam == "C6":
        override = case.get("h0")
        if override:
            value = Fraction(override)
        elif n == 3:
            value = Fraction(72)
        else:
            # the extraspecial normalizer's order is known exactly only for n = 3
            i, omega = case.get("i"), case.get("omega")
            return omega ** (2 * i) * sp_order(2 * i, omega), False
    elif fam == "C7":
        i, ell = case.get("i"), case.get("ell")
        return pgl_order(i, q) ** ell * math.factorial(ell), False
    elif fam == "C8s":
        value = Fraction(sp_order(n, q) * math.gcd(n // 2, q - 1), d)
    elif fam == "C8o":
        if n % 2:
            value = Fraction(so_odd_order(n, q))
        else:
            value = Fraction(so_even_order(n, q, case.get("epsilon")))
    elif fam == "C8u":
        q0 = case.get("q0")
        value = Fraction(su_order(n, q0) * math.gcd(n, q0 - 1), math.gcd(n, q - 1))
    else:  # "S"
        value = Fraction(case.get("h0"))
    if value.denominator != 1:
        raise NonDivisibleError(f"{case.label()}: stabilizer order formula not integral")
    return int(value), True


# ---------------------------------------------------------------------------
# subdegrees


def subdegrees(case: CaseSpec) -> list[tuple[int, str]]:
    """Known exact subdegrees for the case as (value, label) pairs; empty when
    none is on record."""
    n, q = case.n, case.q.q
    fam = case.family
    out: list[tuple[int, str]] = []
    if fam == "C1":
        i = case.get("i")
        if i == 2:
            out.append((q * (q + 1) * (q ** (n - 2) - 1) // (q - 1), "line-meeting"))
            out.append(
                (
                    q**4 * (q ** (n - 2) - 1) * (q ** (n - 3) - 1) // ((q**2 - 1) * (q - 1)),
                    "line-disjoint",
                )
            )
        else:
            out.append(
                (q * (q**i - 1) * (q ** (n - i) - 1) // (q - 1) ** 2, "subspace-graph")
            )
    elif fam == "C1'" and case.get("kind") == "complement":
        i = case.get("i")
        if i == 1:
            out.append((q ** (n - 2) * (q ** (n - 1) - 1) // (q - 1), "pair-moving"))
        else:
            out.append((2 * (q**i - 1) * (q ** (n - i) - 1), "pair-moving"))
    elif fam == "C2":
        a, e = case.get("a"), case.get("e")
        if e == 1:
            out.append((2 * n * (n - 1) * (q - 1), "frame-adjacent"))
        else:
            out.append((a * (a - 1) * (q**e - 1) ** 2 // (q - 1), "summand-swap"))
    elif fam == "C3":
        theta, i = case.get("theta"), case.get("i")
        if theta == 2 and n >= 8:
            out.append(((q ** (2 * i) - 1) * (q ** (2 * i - 2) - 1), "field-pair"))
    elif fam == "C5":
        if case.get("u") == 2:
            q0 = case.get("q0")
            out.append(((q0**n - 1) * (q0 ** (n - 1) - 1), "subfield-pair"))
    elif fam == "C8s":
        out.append(((q**n - 1) * (q ** (n - 2) - 1), "nonsingular-pair"))
    elif fam == "C8u":
        q0 = case.get("q0")
        out.append(
            ((q0**n - (-1) ** n) * (q0 ** (n - 1) - (-1) ** (n - 1)), "nonsingular-pair")
        )
    return out


# ---------------------------------------------------------------------------
# gates


def divisibility_gate(v: int, subs: Sequence[int], out_ord: int, h0: int) -> str:
    """k+1 must divide gcd(v-1, d) for every subdegree d and gcd(v-1, |Out||H0|)."""
    if not is_perfect_square(v):
        return NA
    k = math.isqrt(v)
    for d in subs:
        if math.gcd(v - 1, d) % (k + 1):
            return FAIL
    if math.gcd(v - 1, out_ord * h0) % (k + 1):
        return FAIL
    return PASS


def bound_gate(
    case: CaseSpec, x: int, out: int, h0: int, exact: bool, v: int | None
) -> str:
    """|X| < |Out|^2 |H0| (|H0|_p')^2 and gcd(p, v-1) = 1; parabolic cases exempt.

    When |H0| is only an upper bound it bounds its p'-part too; v is None when
    no integral point count is known, and then only the inequality applies.
    """
    if case.family == "C1":
        return NA
    p = case.q.p
    h0p = p_prime_part(h0, p) if exact else h0
    if x >= out * out * h0 * h0p * h0p:
        return FAIL
    if v is not None and math.gcd(p, v - 1) != 1:
        return FAIL
    return PASS


# ---------------------------------------------------------------------------
# reports


@dataclass
class ScreenReport:
    case: CaseSpec
    x_order: int
    out_order: int
    h0_order: int | None
    h0_bound: int | None
    v: int | None
    v_fraction: str | None
    v_factorization: str | None
    square_ok: str
    candidate_k: int | None
    subdegrees: tuple[tuple[int, str], ...]
    divisibility_ok: str
    bound_ok: str
    survived: bool
    notes: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "family": self.case.family,
            "n": self.case.n,
            "q": self.case.q.q,
            "params": dict(self.case.params),
            "x_order": str(self.x_order),
            "out_order": self.out_order,
            "h0_order": str(self.h0_order) if self.h0_order is not None else None,
            "h0_bound": str(self.h0_bound) if self.h0_bound is not None else None,
            "v": str(self.v) if self.v is not None else None,
            "v_fraction": self.v_fraction,
            "v_factorization": self.v_factorization,
            "square_ok": self.square_ok,
            "candidate_k": self.candidate_k,
            "subdegrees": [[str(d), lbl] for d, lbl in self.subdegrees],
            "divisibility_ok": self.divisibility_ok,
            "bound_ok": self.bound_ok,
            "survived": self.survived,
            "notes": list(self.notes),
        }


# published point-count tables for cross-checking; disagreements between a
# published entry and the exact recomputation are flagged, never adopted.
PUBLISHED_V: dict[str, dict[int, str]] = {
    "C1:i=3,q=2": {
        6: "3^2·5·31",
        7: "7·47·159",
        8: "3^2·5·17·127",
        9: "5·17·73·127",
        10: "3·5·11·17·31·73",
    },
    "C3:n=3,theta=3": {
        2: "2^3",
        3: "2^4·3^2",
        4: "2^6·3·5",
        5: "2^5·3^5",
        7: "2^5·3·7^3",
        8: "2^9·3·7^2",
        9: "2^7·3^5·5",
        11: "2^4·5^2·11^3",
        16: "2^12·3·5^2·17",
        27: "2^2·3^12·7·13^2",
        32: "2^15·11·31^2",
    },
    "C5:n=3,u=2,zeta=1": {
        3: "2^3·3^3·5·7",
        4: "2^6·5·13·17",
        7: "2^4·5^2·7^3·43",
        9: "2^2·3^6·5·41·73",
        13: "2^2·5·7·13^3·17·157",
        16: "2^12·17·241·257",
        25: "2^2·5^6·13·313·601",
        27: "2^3·3^9·5·7·19·37·73",
        64: "2^18·5·13·17·37·109",
    },
    "C5:n=3,u=2,zeta=3": {
        2: "2^3·3·5",
        5: "2^2·3·5^3·7·13",
        8: "2^9·3^2·5·13·19",
        11: "2^3·3·11^3·37·61",
        17: "2^2·3^2·5·7·13·17^3·29",
        23: "2^4·3·5·13^2·23^3·53",
        29: "2^2·3·5·29^3·271·421",
        32: "2^15·3·5^2·11·41·331",
        41: "2^2·3·7·29^2·41^3·547",
        47: "2^5·3·5·7·13·17·47^3·103",
        53: "2^2·3^3·5·53^3·281·919",
        59: "2^3·3·5·7·59^3·163·1741",
        71: "2^4·3^2·71^3·1657·2521",
        83: "2^3·3·5·7·13·53·83^3·2269",
        125: "2^2·3^2·5^9·7·13·601·5167",
        128: "2^21·3·5·29·43·113·5419",
    },
    "C8u:n=3,delta=1": {
        2: "2^3·5·7",
        3: "2^2·3^3·5·7",
        5: "2^3·5^3·13·31",
        8: "2^9·5·7·13·73",
        9: "2^4·3^6·7·13·41",
        11: "2^2·5·7·11^3·19·61",
        27: "2^2·3^9·5·13·73·757",
        32: "2^15·5^2·7·31·41·151",
    },
    "S:n=3,PSL(2,7)": {
        3: "2·3^2·13/7",
        5: "2^2·5^3·31/7",
        7: "2^2·3·7^2·19",
        9: "2^4·3^4·5·13",
        11: "2·5^2·11^3·19",
    },
    "S:n=3,A6": {
        3: "2·3·13/5",
        5: "2^2·5^2·31/3",
        7: "2^2·7^3·19/5",
        11: "2^4·3^4·7·13",
        13: "2·5·7·11^3·19/3",
    },
}


def _published_note(
    table_key: str, q_key: int, value: Fraction, v_factorization: str
) -> list[str]:
    table = PUBLISHED_V[table_key]
    if q_key not in table:
        return [f"not in the published list for {table_key}"]
    if parse_factorization(table[q_key]) != value:
        return [
            f"published value {table[q_key]} disagrees with exact computation {v_factorization}"
        ]
    return []


def build_report(
    case: CaseSpec,
    notes: Iterable[str] = (),
    published_key: tuple[str, int] | None = None,
) -> ScreenReport:
    n, q = case.n, case.q.q
    x = x_order(n, q)
    out = out_order(n, q)
    h0, exact = h0_order(case)
    all_notes = list(notes)
    v: int | None = None
    v_fraction: str | None = None
    v_factorization: str | None = None
    if exact:
        v_value = Fraction(x, h0)
        # the numerator divides |X|, whose every prime is p or divides some
        # Phi_d(q) with d <= n: it is factored over these parts, not as one number
        x_parts = (case.q.p, *cyclotomic_values(n, q))
        num = format_factorization(factorize_over(v_value.numerator, x_parts))
        if v_value.denominator == 1:
            v = int(v_value)
            v_factorization = num
        else:
            # the denominator divides |H0|, whose primes the parts need not hold
            v_fraction = f"{num}/{format_factorization(factorize(v_value.denominator))}"
            v_factorization = v_fraction
            all_notes.append("stabilizer order does not divide the socle order; case vacuous")
        if published_key:
            all_notes.extend(_published_note(*published_key, v_value, v_factorization))
    else:
        all_notes.append("no exact stabilizer order; screened by bounds only")

    square, cand_k = NA, None
    if v is not None:
        k = math.isqrt(v)
        square, cand_k = (PASS, k) if k * k == v else (FAIL, None)
    subs = subdegrees(case)
    div = divisibility_gate(v, [d for d, _ in subs], out, h0) if square == PASS else NA
    bound = bound_gate(case, x, out, h0, exact, v)
    return ScreenReport(
        case=case,
        x_order=x,
        out_order=out,
        h0_order=h0 if exact else None,
        h0_bound=None if exact else h0,
        v=v,
        v_fraction=v_fraction,
        v_factorization=v_factorization,
        square_ok=square,
        candidate_k=cand_k,
        subdegrees=tuple(subs),
        divisibility_ok=div,
        bound_ok=bound,
        survived=square == PASS and div == PASS and bound != FAIL,
        notes=tuple(all_notes),
    )


# ---------------------------------------------------------------------------
# default scan ranges
#
# Each family's default (n, q) list is the finite candidate set forced by the
# published case analysis; where that analysis bounds q through an inequality
# we re-derive the list by evaluating the inequality exactly over prime
# powers.  Published table rows are always unioned in (and any row outside
# the re-derived list is flagged), so the golden cross-checks cover every
# published entry.


def _pp(limit: int) -> list[int]:
    return prime_powers_up_to(min(limit, _Q_SOFT_CAP))


def _derived_c3_field_ext_qs() -> list[int]:
    out = []
    for q in _pp(_Q_SOFT_CAP):
        _, f = prime_power_decomposition(q)
        if q**3 * (q - 1) ** 2 * (q + 1) <= 108 * f * f * (q * q + q + 1) ** 2:
            out.append(q)
    return out


def _derived_c5_n3_qs(zeta: int) -> list[int]:
    out = []
    for q0 in _pp(_Q_SOFT_CAP):
        if math.gcd(3, q0 + 1) != zeta:
            continue
        p, a = prime_power_decomposition(q0)
        if zeta == 1:
            ok = p ** (4 * a) < 256 * a * a * (p**a + 1) ** 2
        else:
            ok = (p ** (2 * a) + 1) * (p ** (3 * a) + 1) < 6912 * a * a * p**a * (
                p**a + 1
            ) ** 2
        if ok:
            out.append(q0)
    return out


def _derived_c5_n4_qs(zeta: int) -> list[int]:
    out = []
    for q0 in _pp(_Q_SOFT_CAP):
        if math.gcd(4, q0 + 1) != zeta:
            continue
        p, a = prime_power_decomposition(q0)
        lhs = (
            p ** (6 * a)
            * (p ** (4 * a) + 1)
            * (p ** (3 * a) + 1)
            * (p ** (2 * a) + 1)
        )
        rhs = {1: 16, 2: 128, 4: 1024}[zeta] * a * a * (p ** (3 * a) - 1) ** 2 * (
            p ** (2 * a) - 1
        ) ** 4
        if lhs < rhs:
            out.append(q0)
    return out


def _derived_c5_high_index(n: int) -> list[tuple[int, int]]:
    """(q0, u) pairs for prime u >= 3 allowed by the order inequality."""
    out = []
    exponent = {3: (7, 18), 4: (14, 33)}[n]
    for u in (3, 5, 7, 11):
        for q0 in _pp(64):
            p, a = prime_power_decomposition(q0)
            if p ** (exponent[0] * a * u) < 108 * (a * u) ** 2 * p ** (exponent[1] * a):
                out.append((q0, u))
    return sorted(out)


def _derived_c8u_n3_qs(delta_one: bool) -> list[int]:
    out = []
    for q0 in _pp(_Q_SOFT_CAP):
        p, a = prime_power_decomposition(q0)
        if delta_one:
            if q0 % 3 == 1:
                continue
            if p ** (3 * a) - 1 < 256 * a * a * p**a:
                out.append(q0)
        else:
            if q0 % 3 != 1:
                continue
            if p ** (3 * a) * (p ** (2 * a) + 1) * (p ** (3 * a) - 1) < 13_230_000 * a * a:
                out.append(q0)
    return out


def _derived_c6_n3_qs() -> list[int]:
    out = []
    for q in _pp(64):
        _, f = prime_power_decomposition(q)
        if q**3 * (q * q - 1) * (q**3 - 1) <= 216 * 432 * 432 * f * f:
            out.append(q)
    return out


def _derived_s_n3_qs(h0: int) -> list[int]:
    """Odd prime powers where v <= (|Out| * |H0| - 1)^2 can still hold."""
    out = []
    for q in _pp(128):
        if q % 2 == 0:
            continue
        _, f = prime_power_decomposition(q)
        v = Fraction(x_order(3, q), h0)
        cap = (2 * f * 3 * h0 - 1) ** 2
        if v <= cap:
            out.append(q)
    return out


# S-family data: (n, subgroup name, |H0|, stated condition, default q list).
# Rows whose condition leaves q unbounded are represented by exemplar values;
# the published classification of large-socle candidates eliminates the rest.
def _s_family_rows() -> list[tuple[int, str, int, str, list[int]]]:
    psl27 = sorted({*_derived_s_n3_qs(168), 3, 5, 7, 9, 11})
    a6 = sorted({*_derived_s_n3_qs(360), 3, 5, 7, 11, 13})
    return [
        (3, "PSL(2,7)", 168, "q = p odd", psl27),
        (3, "A6", 360, "q = p or p^2, odd", a6),
        (4, "PSL(2,7)", 168, "q = p odd", [3, 5, 7, 11, 13]),
        (4, "A7", 2520, "q = p", [2, 3, 5, 7]),
        (4, "PSU(4,2)", 25920, "q = p = 1 mod 6", [7, 13]),
        (5, "PSL(2,11)", 660, "q = p odd", [3, 5]),
        (5, "M11", 7920, "q = 3", [3]),
        (5, "PSU(4,2)", 25920, "q = p = 1 mod 6", [7]),
        (6, "A6", 360, "q = p or p^2, odd", [3, 5]),
        (6, "PSL(2,11)", 660, "q = p odd", [3, 5]),
        (6, "M12", 95040, "q = 3", [3]),
        (6, "PSL(3,4).2", 40320, "q = p odd", [3]),
        (7, "PSU(3,3)", 6048, "q = p odd", [3, 5]),
    ]


def default_cases(family: str) -> list[tuple[CaseSpec, list[str], tuple[str, int] | None]]:
    """(case, notes, published-table key) triples for the family's default scan."""
    out: list[tuple[CaseSpec, list[str], tuple[str, int] | None]] = []

    def add(case: CaseSpec, notes: list[str] | None = None, pub: tuple[str, int] | None = None):
        out.append((case, notes or [], pub))

    if family == "C1":
        for q in _pp(128):
            add(_case("C1", 3, q, i=1))
        for n in range(4, _N_SOFT_CAP + 1):
            for q in _pp(_Q_SOFT_CAP):
                add(_case("C1", n, q, i=1))
        # i = 2: even n dies by the subdegree-gcd bound, odd n has short q lists
        for n, qs in ((4, _pp(32)), (6, _pp(16)), (8, _pp(8)), (10, _pp(8)), (12, _pp(8))):
            for q in qs:
                add(_case("C1", n, q, i=2))
        for n, qs in (
            (5, _pp(64)),
            (7, [2, 3, 4, 5, 7, 8, 9, 11]),
            (9, [2, 3, 4]),
            (11, [2, 3]),
        ):
            for q in qs:
                add(_case("C1", n, q, i=2))
        for n in (6, 7, 8, 9, 10):
            add(_case("C1", n, 2, i=3), pub=("C1:i=3,q=2", n))
        for q in (3, 4, 5, 7, 8, 9, 11, 13, 16):
            add(_case("C1", 6, q, i=3))
        add(_case("C1", 8, 2, i=4))
    elif family == "C1'":
        for n, i in ((4, 1), (5, 1), (5, 2), (6, 1), (6, 2)):
            for q in (2, 3, 4, 5):
                add(
                    _case("C1'", n, q, i=i, kind="contained"),
                    ["prime-power subdegree bound eliminates the nested-pair case"],
                )
        for n in (3, 4, 5, 6):
            for q in (2, 3, 4, 5, 7, 8, 9):
                add(_case("C1'", n, q, i=1, kind="complement"))
        for n, i in ((5, 2), (6, 2), (7, 2), (7, 3)):
            for q in (2, 3, 4):
                add(_case("C1'", n, q, i=i, kind="complement"))
    elif family == "C2":
        for q in (2, 3, 4):
            add(_case("C2", 3, q, a=3, e=1))
        add(_case("C2", 4, 2, a=4, e=1))
        for q in (2, 3):
            add(_case("C2", 4, q, a=2, e=2))
        add(_case("C2", 6, 2, a=2, e=3), ["order bound eliminates every q here"])
    elif family == "C3":
        for q in sorted({*_derived_c3_field_ext_qs(), *PUBLISHED_V["C3:n=3,theta=3"]}):
            add(_case("C3", 3, q, i=1, theta=3), pub=("C3:n=3,theta=3", q))
        for q in (2, 3, 4):
            add(_case("C3", 6, q, i=2, theta=3))
        add(_case("C3", 5, 2, i=1, theta=5))
        for q in (2, 3, 4, 5, 7):
            add(_case("C3", 4, q, i=2, theta=2))
        for q in (2, 3):
            add(_case("C3", 6, q, i=3, theta=2))
    elif family == "C4":
        for n, i in ((6, 2), (8, 2), (10, 2), (12, 2), (12, 3)):
            for q in (2, 3, 4):
                add(_case("C4", n, q, i=i))
    elif family == "C5":
        for q0 in sorted({*_derived_c5_n3_qs(1), *PUBLISHED_V["C5:n=3,u=2,zeta=1"]}):
            add(
                _case("C5", 3, q0 * q0, q0=q0, u=2),
                pub=("C5:n=3,u=2,zeta=1", q0),
            )
        for q0 in sorted({*_derived_c5_n3_qs(3), *PUBLISHED_V["C5:n=3,u=2,zeta=3"]}):
            add(
                _case("C5", 3, q0 * q0, q0=q0, u=2),
                pub=("C5:n=3,u=2,zeta=3", q0),
            )
        for zeta in (1, 2, 4):
            for q0 in _derived_c5_n4_qs(zeta):
                add(_case("C5", 4, q0 * q0, q0=q0, u=2))
        for q0, u in _derived_c5_high_index(3):
            add(_case("C5", 3, q0**u, q0=q0, u=u))
        for q0, u in _derived_c5_high_index(4):
            add(_case("C5", 4, q0**u, q0=q0, u=u))
    elif family == "C6":
        for q in _derived_c6_n3_qs():
            notes = []
            p, f = prime_power_decomposition(q)
            if p == 3:
                notes.append("extraspecial normalizer needs omega != p; listed for the record")
            elif (q - 1) % 3:
                notes.append("3 does not divide q-1; subgroup absent, listed for the record")
            elif f % 2 == 0:
                notes.append("field degree must be odd here; listed for the record")
            add(_case("C6", 3, q, i=1, omega=3), notes)
        for q in (5, 13, 17, 29):
            for h0 in (5760, 360):
                add(
                    _case("C6", 4, q, i=2, omega=2, h0=h0),
                    [f"published order statement is ambiguous; variant |H0|={h0}"],
                )
        for q in (11, 31):
            add(_case("C6", 5, q, i=1, omega=5))
        for q in (5, 13):
            add(_case("C6", 8, q, i=3, omega=2))
    elif family == "C7":
        for q in (2, 3, 4):
            add(_case("C7", 9, q, i=3, ell=2))
    elif family == "C8s":
        for q in [q for q in _pp(128) if q % 2 or q <= 16]:
            add(_case("C8s", 4, q))
        for q in _pp(16):
            add(_case("C8s", 6, q))
    elif family == "C8o":
        for q in [q for q in _pp(81) if q % 2]:
            add(_case("C8o", 3, q))
        for q in [q for q in _pp(_Q_SOFT_CAP) if q % 2]:
            p, f = prime_power_decomposition(q)
            if q < 100 * f * f:
                add(_case("C8o", 5, q))
            if q < 14 * f:
                add(_case("C8o", 7, q))
            if q**3 < 324 * f * f:
                add(_case("C8o", 9, q))
        for q in (3, 5, 9):
            for eps in (1, -1):
                add(_case("C8o", 6, q, epsilon=eps))
    elif family == "C8u":
        for q0 in sorted({*_derived_c8u_n3_qs(True), *PUBLISHED_V["C8u:n=3,delta=1"]}):
            add(_case("C8u", 3, q0 * q0, q0=q0), pub=("C8u:n=3,delta=1", q0))
        for q0 in _derived_c8u_n3_qs(False):
            add(
                _case("C8u", 3, q0 * q0, q0=q0),
                ["corrected candidate list for the gcd(3, q0-1) = 3 branch"],
            )
        for q0 in (2, 3):
            add(_case("C8u", 4, q0 * q0, q0=q0))
    elif family == "S":
        for n, name, h0, cond, qs in _s_family_rows():
            for q in qs:
                if x_order(n, q) <= h0:
                    continue
                notes = [f"named subgroup {name}, stated condition: {cond}"]
                pub = None
                if n == 3 and name == "PSL(2,7)" and q in PUBLISHED_V["S:n=3,PSL(2,7)"]:
                    pub = ("S:n=3,PSL(2,7)", q)
                if n == 3 and name == "A6" and q in PUBLISHED_V["S:n=3,A6"]:
                    pub = ("S:n=3,A6", q)
                if n >= 5 and not (name in ("M11", "M12") and q == 3):
                    notes.append(
                        "large-dimension sporadic candidates are eliminated by the "
                        "cited classification; exemplar values only"
                    )
                add(_case("S", n, q, name=name, h0=h0), notes, pub)
    else:
        raise ScreenError(f"unknown family {family!r}")
    return out


def case_screen(
    families: Sequence[str] | None = None,
    n_filter: int | None = None,
    q_filter: int | None = None,
) -> list[ScreenReport]:
    """Screen the default candidate cases of the requested families.

    Reports are sorted by (family, n, q, params); the survivors are exactly
    the cases passing the square, divisibility, and bound gates.
    """
    fams = list(families) if families else list(FAMILIES)
    for fam in fams:
        if fam not in FAMILIES:
            raise ScreenError(f"unknown family {fam!r}")
    if n_filter is not None and n_filter < 3:
        raise ScreenError("n >= 3 required")
    if q_filter is not None:
        prime_power_decomposition(q_filter)  # raises ValueError unless q is a prime power
    reports = []
    for fam in fams:
        triples = default_cases(fam)
        if n_filter is not None:
            triples = [t for t in triples if t[0].n == n_filter]
        if q_filter is not None:
            triples = [t for t in triples if t[0].q.q == q_filter]
        if not triples and n_filter is not None and q_filter is not None:
            triples = [(c, ["outside the default ranges; exploratory"], None)
                       for c in _adhoc_cases(fam, n_filter, q_filter)]
        for case, notes, pub in triples:
            reports.append(build_report(case, notes, pub))
    reports.sort(key=lambda r: (r.case.family, r.case.n, r.case.q.q, r.case.params))
    return reports


def _adhoc_cases(family: str, n: int, q: int) -> list[CaseSpec]:
    """Construct family cases at an explicit (n, q) outside the defaults."""
    out = []
    if family == "C1":
        out = [_case("C1", n, q, i=i) for i in range(1, n // 2 + 1)]
    elif family == "C1'":
        out = [
            _case("C1'", n, q, i=i, kind=kind)
            for i in range(1, (n - 1) // 2 + 1)
            for kind in ("contained", "complement")
        ]
    elif family == "C2":
        out = [_case("C2", n, q, a=n // e, e=e) for e in divisors(n) if e < n]
    elif family == "C3":
        out = [
            _case("C3", n, q, i=n // t, theta=t)
            for t in divisors(n)
            if is_prime(t)
        ]
    elif family == "C5":
        p, f = prime_power_decomposition(q)
        for u in sorted(factorize(f)):
            out.append(_case("C5", n, q, q0=p ** (f // u), u=u))
    elif family == "C6":
        for omega in (2, 3, 5, 7):
            i = 1
            while omega**i < n:
                i += 1
            if omega**i == n:
                out.append(_case("C6", n, q, i=i, omega=omega))
    elif family == "C8s":
        if n % 2 == 0:
            out = [_case("C8s", n, q)]
    elif family == "C8o":
        if q % 2:
            out = (
                [_case("C8o", n, q)]
                if n % 2
                else [_case("C8o", n, q, epsilon=e) for e in (1, -1)]
            )
    elif family == "C8u":
        p, f = prime_power_decomposition(q)
        if f % 2 == 0:
            out = [_case("C8u", n, q, q0=p ** (f // 2))]
    return out


def survivors(reports: Sequence[ScreenReport]) -> list[ScreenReport]:
    return [r for r in reports if r.survived]
