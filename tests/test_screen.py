from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from designforge import numtheory as nt
from designforge import screen as sc


# ---------------------------------------------------------------------------
# orders


def test_x_order_reference():
    assert sc.x_order(3, 3) == 5616
    assert sc.x_order(3, 2) == 168
    assert sc.x_order(4, 2) == 20160


def test_out_order_reference():
    assert sc.out_order(3, 3) == 2
    assert sc.out_order(3, 4) == 12
    assert sc.out_order(4, 7) == 4


def test_h0_reference():
    assert sc.h0_order(sc._case("C3", 3, 3, i=1, theta=3)) == (39, True)
    assert sc.h0_order(sc._case("C6", 3, 3, i=1, omega=3)) == (72, True)
    assert sc.h0_order(sc._case("C8u", 3, 4, q0=2)) == (72, True)
    assert sc.h0_order(sc._case("C8s", 4, 2)) == (720, True)


@pytest.mark.parametrize(
    "case, bound, bound_ok",
    [
        (sc._case("C1'", 4, 2, i=1, kind="contained"), 192, sc.PASS),
        (sc._case("C4", 6, 2, i=2), 1008, sc.FAIL),
        (sc._case("C6", 5, 11, i=1, omega=5), 3000, sc.FAIL),
        (sc._case("C7", 9, 2, i=3, ell=2), 56448, sc.FAIL),
    ],
    ids=lambda x: x.label() if isinstance(x, sc.CaseSpec) else None,
)
def test_h0_bound_formulas(case, bound, bound_ok):
    # the families with no exact |H0| formula carry an upper bound instead;
    # the report screens them by the bound gate alone
    assert sc.h0_order(case) == (bound, False)
    r = sc.build_report(case)
    assert (r.h0_order, r.h0_bound, r.v) == (None, bound, None)
    assert r.bound_ok == bound_ok


def test_point_count_reference():
    assert sc.build_report(sc._case("C3", 3, 3, i=1, theta=3)).v == 144
    assert sc.build_report(sc._case("C1", 4, 7, i=1)).v == 400
    assert sc.build_report(sc._case("C1", 5, 3, i=1)).v == 121
    assert sc.build_report(sc._case("C2", 4, 3, a=2, e=2)).v == 5265
    assert sc.build_report(sc._case("C8s", 4, 3)).v == 117
    # |X|/|H0| for a parabolic H0 is the Gaussian binomial
    for n, i, q in ((4, 2, 2), (6, 3, 2), (8, 4, 2)):
        assert sc.build_report(sc._case("C1", n, q, i=i)).v == sc.gaussian_binomial(n, i, q)


def test_point_count_consistency_with_x_order():
    for case in (
        sc._case("C3", 3, 3, i=1, theta=3),
        sc._case("C8u", 3, 9, q0=3),
        sc._case("C5", 3, 9, q0=3, u=2),
    ):
        h0, exact = sc.h0_order(case)
        assert exact
        assert sc.build_report(case).v * h0 == sc.x_order(case.n, case.q.q)


def test_point_count_non_divisible():
    # PSL(2,7) has order 168, which does not divide |PSL(3,3)| = 5616
    r = sc.build_report(sc._case("S", 3, 3, name="PSL(2,7)", h0=168))
    assert r.v is None and r.square_ok == sc.NA
    assert nt.parse_factorization(r.v_fraction) == Fraction(5616, 168)
    assert "stabilizer order does not divide the socle order; case vacuous" in r.notes


# ---------------------------------------------------------------------------
# subdegrees


def test_subdegrees_reference():
    pair = sc.subdegrees(sc._case("C1", 4, 2, i=2))
    assert pair == [(18, "line-meeting"), (16, "line-disjoint")]
    # independent oracle: nontrivial subdegrees sum to v - 1
    v = sc.build_report(sc._case("C1", 4, 2, i=2)).v
    assert 1 + sum(d for d, _ in pair) == v
    assert sc.subdegrees(sc._case("C8s", 4, 2)) == [(45, "nonsingular-pair")]
    assert sc.subdegrees(sc._case("C5", 3, 4, q0=2, u=2)) == [(21, "subfield-pair")]
    assert sc.subdegrees(sc._case("C3", 3, 3, i=1, theta=3)) == []


def test_subdegree_c1_i1_is_point_count_minus_one():
    for n, q in ((4, 7), (5, 3), (6, 2)):
        d = sc.subdegrees(sc._case("C1", n, q, i=1))
        assert [x for x, _ in d] == [sc.build_report(sc._case("C1", n, q, i=1)).v - 1]


# ---------------------------------------------------------------------------
# gates


def test_divisibility_gate_reference():
    assert sc.divisibility_gate(144, [], 2, 39) == sc.PASS
    assert sc.divisibility_gate(145, [], 2, 39) == sc.NA
    h0, _ = sc.h0_order(sc._case("C1", 5, 3, i=1))
    assert sc.divisibility_gate(121, [], 2, h0) == sc.PASS
    # 400: k+1 = 21 divides v-1 = 399 and the parabolic stabilizer order
    case = sc._case("C1", 4, 7, i=1)
    subs = [d for d, _ in sc.subdegrees(case)]
    h0, _ = sc.h0_order(case)
    assert sc.divisibility_gate(400, subs, sc.out_order(4, 7), h0) == sc.PASS
    assert sc.build_report(case).divisibility_ok == sc.PASS


def test_divisibility_gate_monotone_in_subdegrees():
    rng = random.Random(5)
    case = sc._case("C1", 4, 7, i=1)
    base = [d for d, _ in sc.subdegrees(case)]
    extra = [rng.randrange(2, 10**6) for _ in range(20)]
    v, out, (h0, _) = 400, 4, sc.h0_order(case)
    passing = sc.divisibility_gate(v, base, out, h0)
    for i in range(len(extra)):
        wider = sc.divisibility_gate(v, base + extra[: i + 1], out, h0)
        if passing == sc.FAIL:
            assert wider == sc.FAIL
        passing = wider


def test_bound_gate_reference():
    assert sc.build_report(sc._case("C6", 3, 3, i=1, omega=3)).bound_ok == sc.PASS
    assert sc.build_report(sc._case("C3", 3, 3, i=1, theta=3)).bound_ok == sc.PASS
    assert sc.build_report(sc._case("C1", 4, 7, i=1)).bound_ok == sc.NA  # parabolic


def test_bound_gate_m11_exact_vs_weakened():
    # with exact orders the inequality |X| < |Out|^2 |H0| (|H0|_p')^2 fails for
    # the M11 candidate (2.38e11 >= 2.45e10); the published analysis only
    # tested the weakened form with |X| replaced by q^(n^2-4), which passes,
    # and then dropped the case because v is not a square.  Exact evaluation
    # eliminates it at the bound already.
    case = sc._case("S", 5, 3, name="M11", h0=7920)
    assert sc.build_report(case).bound_ok == sc.FAIL
    q, n = 3, 5
    h0 = 7920
    from designforge.numtheory import p_prime_part

    weak_lhs = q ** (n * n - 4)
    rhs = sc.out_order(n, q) ** 2 * h0 * p_prime_part(h0, q) ** 2
    assert weak_lhs < rhs < sc.x_order(n, q)


def test_bound_gate_rejects_p_dividing_v_minus_1():
    # C3(3,3): |X| = 5616 < 2^2 * 39 * 13^2 and v = 144, gcd(3, 143) = 1;
    # a point count with 3 | v-1 fails the gate, an unknown one does not
    case = sc._case("C3", 3, 3, i=1, theta=3)
    assert sc.bound_gate(case, 5616, 2, 39, True, 144) == sc.PASS
    assert sc.bound_gate(case, 5616, 2, 39, True, 145) == sc.FAIL
    assert sc.bound_gate(case, 5616, 2, 39, True, None) == sc.PASS
    # an upper bound stands in for its own p'-part: 2^2 * 39^3 > 5616 still
    assert sc.bound_gate(case, 5616, 2, 39, False, None) == sc.PASS
    assert sc.bound_gate(case, 5616, 2, 12, True, 144) == sc.FAIL


# ---------------------------------------------------------------------------
# golden tables
#
# Published entries are cross-checked against exact recomputation.  The
# published lists contain a handful of misprints; those entries are pinned
# here with both the printed value and the exact value so any change in
# either direction is caught.

ERRATA = {
    ("C1:i=3,q=2", 7): ("7·47·159", "3·31·127"),
    ("C3:n=3,theta=3", 5): ("2^5·3^5", "2^5·5^3"),
    ("C3:n=3,theta=3", 27): ("2^2·3^12·7·13^2", "2^4·3^8·7·13^2"),
    ("C5:n=3,u=2,zeta=1", 64): ("2^18·5·13·17·37·109", "2^18·5·13·17·37·109·241"),
    ("C8u:n=3,delta=1", 3): ("2^2·3^3·5·7", "2^2·3^3·5·13"),
    ("S:n=3,PSL(2,7)", 9): ("2^4·3^4·5·13", "2^4·3^5·5·13"),
    # these two published rows carry the values of the two preceding q's
    ("S:n=3,A6", 11): ("2^4·3^4·7·13", "2·5·7·11^3·19/3"),
    ("S:n=3,A6", 13): ("2·5·7·11^3·19/3", "2^2·7·13^3·61/5"),
}


def _point_count(case: sc.CaseSpec) -> Fraction:
    h0, exact = sc.h0_order(case)
    assert exact, case.label()
    return Fraction(sc.x_order(case.n, case.q.q), h0)


def _computed_value(table: str, key: int) -> Fraction:
    if table == "C1:i=3,q=2":
        return Fraction(sc.gaussian_binomial(key, 3, 2))
    if table == "C3:n=3,theta=3":
        return _point_count(sc._case("C3", 3, key, i=1, theta=3))
    if table == "C5:n=3,u=2,zeta=1" or table == "C5:n=3,u=2,zeta=3":
        return _point_count(sc._case("C5", 3, key * key, q0=key, u=2))
    if table == "C8u:n=3,delta=1":
        return _point_count(sc._case("C8u", 3, key * key, q0=key))
    if table == "S:n=3,PSL(2,7)":
        return _point_count(sc._case("S", 3, key, name="PSL(2,7)", h0=168))
    if table == "S:n=3,A6":
        return _point_count(sc._case("S", 3, key, name="A6", h0=360))
    raise KeyError(table)


@pytest.mark.parametrize("table", sorted(sc.PUBLISHED_V))
def test_published_tables_cross_checked(table):
    entries = sc.PUBLISHED_V[table]
    assert entries, table
    for key, printed in sorted(entries.items()):
        computed = _computed_value(table, key)
        expected_erratum = ERRATA.get((table, key))
        if expected_erratum is None:
            assert computed == nt.parse_factorization(printed), (table, key)
        else:
            printed_pin, computed_pin = expected_erratum
            assert printed == printed_pin, (table, key)
            assert computed == nt.parse_factorization(computed_pin), (table, key)
            assert computed != nt.parse_factorization(printed), (table, key)
        # none of the published candidates is a square point count except
        # the field-extension case at q = 3
        if computed.denominator == 1:
            is_sq = nt.is_perfect_square(int(computed))
            assert is_sq == (table == "C3:n=3,theta=3" and key == 3), (table, key)


def test_c3_field_extension_derived_list_matches_published():
    derived = sc._derived_c3_field_ext_qs()
    assert derived == sorted(sc.PUBLISHED_V["C3:n=3,theta=3"])


def test_c8u_derived_list_matches_published():
    derived = sc._derived_c8u_n3_qs(True)
    assert derived == sorted(sc.PUBLISHED_V["C8u:n=3,delta=1"])
    assert sc._derived_c8u_n3_qs(False) == [4, 7]


def test_c5_derived_lists_cover_published():
    z1 = sc._derived_c5_n3_qs(1)
    assert z1 == sorted(sc.PUBLISHED_V["C5:n=3,u=2,zeta=1"])
    z3 = sc._derived_c5_n3_qs(3)
    published = sorted(sc.PUBLISHED_V["C5:n=3,u=2,zeta=3"])
    assert set(published) <= set(z3)
    # the published list stops at 128; the inequality also admits 512
    assert sorted(set(z3) - set(published)) == [512]
    extra = sc.build_report(sc._case("C5", 3, 512 * 512, q0=512, u=2))
    assert extra.v is not None and extra.square_ok == sc.FAIL


def test_c5_high_index_pairs():
    pairs = sc._derived_c5_high_index(3)
    assert pairs == [(2, 3), (3, 3), (4, 3), (5, 3), (7, 3), (8, 3), (9, 3), (16, 3)]
    assert sc._derived_c5_high_index(4) == [(2, 3)]


def test_c6_derived_list():
    # the pure order inequality also admits the even prime powers 2, 4, 8;
    # the extraspecial normalizer does not exist there (flagged in reports),
    # and every listed case dies at the square or divisibility stage anyway
    assert sc._derived_c6_n3_qs() == [2, 3, 4, 5, 7, 8, 9]


# ---------------------------------------------------------------------------
# end-to-end screen


@pytest.fixture(scope="module")
def all_reports(screen_reports):
    return screen_reports[0]


def test_screen_survivors_exactly_three(all_reports):
    surv = sc.survivors(all_reports)
    got = sorted((r.case.n, r.case.q.q, r.v, r.candidate_k) for r in surv)
    assert got == [(3, 3, 144, 12), (4, 7, 400, 20), (5, 3, 121, 11)]


def test_screen_every_exact_v_consistent(all_reports):
    for r in all_reports:
        if r.v is not None and r.h0_order is not None:
            assert r.v * r.h0_order == r.x_order


def test_screen_factorizations_multiply_back(all_reports):
    for r in all_reports:
        if r.v is not None:
            assert nt.parse_factorization(r.v_factorization) == r.v


def test_screen_factorizations_pinned(all_reports):
    # sha256 of every case's label and factorization strings; any change to
    # how numtheory.factorize splits must leave these strings as they are
    rows = [(r.case.label(), r.v_factorization, r.v_fraction) for r in all_reports]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert len(rows) == 2392
    assert digest == "353bde17261db2a20f91ebc5e94dbae59b3ef329f22a8e4ea1d7d7cccec90499"


def test_screen_reports_pinned(all_reports):
    # sha256 of every report's full JSON form: orders, bounds, gates,
    # subdegrees and notes as well as the point counts
    doc = json.dumps([r.to_dict() for r in all_reports], sort_keys=True)
    digest = hashlib.sha256(doc.encode()).hexdigest()
    assert digest == "3e9bdf794cbe2825e565f4afa34c6b55bf1bee23a3d161af31d4f93451942be8"


def test_screen_survivor_p_coprime(all_reports):
    for r in sc.survivors(all_reports):
        if r.case.family != "C1":
            assert math.gcd(r.case.q.p, r.v - 1) == 1


def test_screen_single_case_filters():
    reports = sc.case_screen(["C3"], n_filter=3, q_filter=3)
    assert len(reports) == 1 and reports[0].survived
    reports = sc.case_screen(["C1"], n_filter=3, q_filter=5)
    assert len(reports) == 1
    assert reports[0].v == 31 and reports[0].square_ok == sc.FAIL


def test_screen_vacuous_cases_flagged(all_reports):
    vac = [
        r
        for r in all_reports
        if r.case.family == "S" and r.case.get("name") == "PSL(2,7)" and r.case.n == 3
        and r.case.q.q == 3
    ]
    assert len(vac) == 1
    assert vac[0].v is None and vac[0].v_fraction == "2·3^2·13/7"
    assert not vac[0].survived


def test_screen_m11_case(all_reports):
    m11 = [r for r in all_reports if r.case.get("name") == "M11"]
    assert len(m11) == 1
    r = m11[0]
    # the published text prints v = 2^6·3^7·11·19 for this case; the exact
    # quotient |X|/|M11| is 2^5·3^8·11·13 (non-square either way)
    assert r.v == 2**5 * 3**8 * 11 * 13
    assert r.square_ok == sc.FAIL and r.bound_ok == sc.FAIL and not r.survived


def test_point_count_cross_module_consistency(psl33):
    # the screen's 144 for the field-extension case must equal the point count
    # of the materialized permutation group
    case = sc._case("C3", 3, 3, i=1, theta=3)
    v = sc.build_report(case).v
    assert v == psl33.degree
    assert sc.x_order(3, 3) == psl33.order
    from designforge.permgroup import orbits

    assert len(orbits(psl33)[0]) == v
