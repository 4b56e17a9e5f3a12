"""Each checker accepts a good input and rejects a corrupted one.

    python3 perfbench/selftest.py

Runs in about a second and needs only numpy.  The example is the Fano plane,
the 2-(7,3,1) design with blocks {0,1,3}+i mod 7, under the group of order
21 made by x -> x+1 and x -> 2x; its block stabilizer x -> 2x permutes the
points of {1,2,4} transitively.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import checks

GENS = [tuple((x + 1) % 7 for x in range(7)), tuple(2 * x % 7 for x in range(7))]
FANO = {tuple(sorted((p + i) % 7 for p in (0, 1, 3))) for i in range(7)}


def _report(n, q, v, factorization, x_order=None, h0_order=None):
    """The fields of a screen report that check_screen reads."""
    case = SimpleNamespace(n=n, q=SimpleNamespace(q=q), label=lambda: f"n={n} q={q}")
    survived = v is not None and round(v**0.5) ** 2 == v
    return SimpleNamespace(
        case=case, v=v, survived=survived, candidate_k=round(v**0.5) if survived else None,
        v_fraction=None if v is not None else factorization,
        x_order=x_order, h0_order=h0_order, v_factorization=factorization,
    )


def _reports():
    return [
        _report(3, 3, 144, "2^4·3^2"),
        _report(4, 7, 400, "2^4·5^2"),
        _report(5, 3, 121, "11^2"),
        _report(2, 2, None, "2^4·3^3·13/5·7", x_order=5616, h0_order=35),
    ]


def main() -> int:
    rng = random.Random(1)
    cases = []

    cases.append(("design accepted", checks.check_design(FANO, 7, 1, GENS), False))
    dropped = set(FANO) - {min(FANO)}
    cases.append(("design with one block dropped", checks.check_design(dropped, 7, 1, GENS), True))
    # swapping points 0 and 1 gives another Fano plane, not an orbit of x -> x+1
    not_closed = checks.relabel_blocks(FANO, (1, 0, 2, 3, 4, 5, 6))
    cases.append(("block set not closed under the generators",
                  checks.check_design(not_closed, 7, 1, GENS), True))

    elements = checks.closure(GENS)
    stab = checks.block_stabilizer(elements, (1, 2, 4))
    ok = len(elements) == 21 and len(stab) == 3 and checks.is_transitive_on(stab, (1, 2, 4))
    cases.append(("group order 21, stabilizer of order 3, transitive on its block",
                  [] if ok else ["wrong closure or stabilizer"], False))
    cases.append(("identity alone is not transitive on a block",
                  [] if not checks.is_transitive_on(elements[:1], (1, 2, 4)) else ["transitive"],
                  False))

    pi = (3, 6, 2, 5, 1, 0, 4)
    image = checks.relabel_blocks(FANO, pi)
    cases.append(("bijection accepted", checks.check_bijection(FANO, image, pi), False))
    wrong = (6, 3, 2, 5, 1, 0, 4)
    cases.append(("wrong bijection", checks.check_bijection(FANO, image, wrong), True))

    cases.append(("factorization accepted",
                  checks.check_factorization("2^4·3^2", Fraction(144), rng), False))
    cases.append(("composite factor key",
                  checks.check_factorization("2^4·15", Fraction(240), rng), True))
    cases.append(("factorization of another value",
                  checks.check_factorization("2^4·3^2", Fraction(145), rng), True))

    reports = _reports()
    cases.append(("screen accepted", checks.check_screen(reports, rng), False))
    cases.append(("screen missing a survivor", checks.check_screen(reports[1:], rng), True))
    reports[3].v_factorization = "2^4·3^3·13/35"
    cases.append(("screen with a composite key in a fraction",
                  checks.check_screen(reports, rng), True))

    text = checks.format_gens(GENS, "Fano")
    cases.append(("generator file round trip",
                  [] if checks.parse_gens(text) == GENS else ["round trip changed it"], False))

    bad = 0
    for name, problems, should_reject in cases:
        ok = bool(problems) == should_reject
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {problems or 'accepted'}")
    print(f"{len(cases) - bad} of {len(cases)} checker cases behave as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
