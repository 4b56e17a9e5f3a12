"""Acceptance suite: one test (or test group) per criterion, each printing a
PASS line with its measured wall time.  Run with `pytest tests/test_acceptance.py -v -s`.

Two sub-assertions of criterion 3 are marked strict-xfail because the
published values they pin are not reproducible from the published data
itself (see the notes in the test bodies and the README): the printed
example base block for lambda = 12 is not a block of any block-transitive
2-(144,12,12) design on this point labeling, and the lambda = 12 isomorphism
class count is 91, not 96, with every merge certified by an explicit verified
bijection and the enumeration certified complete by an exact mass audit.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from designforge import data_path
from designforge import design as dz
from designforge import iso
from designforge import numtheory as nt
from designforge import permgroup as pg
from designforge import screen as sc
from designforge import search as sr

from conftest import (
    BASE_BLOCK_LAMBDA3,
    BASE_BLOCK_LAMBDA3_TWIN,
    BASE_BLOCK_LAMBDA6,
    BASE_BLOCK_LAMBDA12_PUBLISHED,
    oracle_bases,
)


@pytest.fixture(scope="module")
def psl_sweep(psl33):
    t0 = time.time()
    results = sr.full_sweep(psl33, 12)
    return results, time.time() - t0


@pytest.fixture(scope="module")
def pgl_sweep(pgl33):
    t0 = time.time()
    results = sr.full_sweep(pgl33, 12)
    return results, time.time() - t0


# ---------------------------------------------------------------------------
# criterion 1: group materialization


def test_criterion_1_group_materialization():
    t0 = time.time()
    g1 = pg.GroupTable.from_file(data_path("psl33.gens"))
    g2 = pg.GroupTable.from_file(data_path("pgl33.gens"))
    elapsed = time.time() - t0
    assert g1.order == 5616 and len(pg.orbits(g1)) == 1 and g1.degree == 144
    assert g2.order == 11232 and len(pg.orbits(g2)) == 1 and g2.degree == 144
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1 PASS: orders 5616/11232, transitive on 144 pts ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# criterion 2: subgroup enumeration


def test_criterion_2_order_18_subgroup_classes():
    t0 = time.time()
    fresh = pg.GroupTable.from_file(data_path("psl33.gens"))
    classes = pg.subgroups_of_order(fresh, 18)
    elapsed = time.time() - t0
    assert len(classes) == 5
    signatures = sorted(
        tuple(sorted(Counter(len(o) for o in pg.orbits(sub)).items())) for sub in classes
    )
    assert signatures.count(((18, 8),)) == 4
    assert signatures.count(((6, 3), (18, 7))) == 1
    assert elapsed < 5.0  # a per-element normalizer test took ~15 s on 2 vCPUs
    print(
        f"\nACCEPTANCE 2 PASS: 5 classes of order-18 subgroups, signatures 18^8 x4 "
        f"and 6^3 18^7 x1 ({elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# criterion 3: search sweep for the 5616-element group


def test_criterion_3_sweep_counts_and_flags(psl33, psl_sweep):
    results, elapsed = psl_sweep
    counts = {lam: res.iso_class_count for lam, res in results.items()}
    assert counts[2] == 0
    assert counts[3] == 1
    assert counts[4] == 0
    assert counts[6] == 0
    lam3 = results[3]
    assert [rec.flag_transitive for rec in lam3.records] == [True]
    reference = dz.from_base_block(psl33, BASE_BLOCK_LAMBDA3)
    cert = iso.are_isomorphic(lam3.designs[0], reference)
    assert cert.isomorphic and lam3.designs[0].relabel(cert.bijection) == reference
    lam12 = results[12]
    assert all(not rec.flag_transitive for rec in lam12.records)
    assert all(rec.stabilizer_order == 3 for rec in lam12.records)
    # dual-count report for the lambda = 12 family
    assert lam12.distinct_block_sets == 182
    assert lam12.iso_class_count == 91
    assert elapsed < 1800.0
    print(
        f"\nACCEPTANCE 3 PASS (computed values): lambda 2/3/4/6 -> 0/1/0/0 classes, "
        f"lambda-3 class flag-transitive and contains the reference orbit; "
        f"lambda 12 -> 182 invariant block sets, 91 certified isomorphism classes, "
        f"none flag-transitive ({elapsed:.0f}s)"
    )
    print(
        "ACCEPTANCE 3 dual-count report: group-invariant block sets = 182; "
        "abstract isomorphism classes (explicit verified bijections) = 91; "
        "published class count = 96 (not reproducible; see xfail tests)"
    )


# sha256 of json.dumps of the lambda = 12 representatives' block arrays in
# class order, recorded when every class was settled by its own pairwise test
LAMBDA12_REPRESENTATIVES_SHA256 = "999b862fd3f422b749607d854f9b21358f9cc03d87bb467b4e8a2a4dc1c0a3e0"


def test_criterion_3_lambda12_representatives_pinned(psl_sweep):
    lam12 = psl_sweep[0][12]
    assert lam12.iso_class_count == 91
    blocks = json.dumps([D.array.tolist() for D in lam12.designs])
    assert hashlib.sha256(blocks.encode()).hexdigest() == LAMBDA12_REPRESENTATIVES_SHA256


def test_iso_orbit_path_matches_the_bxb_path(psl33, pgl33, psl_sweep):
    # a _Precomp that knows the group reads the block histograms off block 0
    # and the pair signatures off one pair per pair orbit, and refines at
    # the root on one block and one point per point orbit; the histograms,
    # the pair signatures, the stable colours and the fingerprint equal the
    # b x b path's bit for bit.  The b x b path takes about 30 ms a
    # lambda = 12 design and its colours 30 ms more, so every third
    # representative is compared, and every fifteenth down to the colours
    lam3 = [
        dz.from_base_block(psl33, base) for base in (BASE_BLOCK_LAMBDA3, BASE_BLOCK_LAMBDA3_TWIN)
    ]
    assert lam3[0] != lam3[1] and [dz.lambda_of(D, 2) for D in lam3] == [3, 3]
    lam12 = psl_sweep[0][12].designs
    cases = [(psl33, D, True) for D in lam3]
    cases.append((pgl33, dz.from_base_block(pgl33, BASE_BLOCK_LAMBDA6), True))
    cases += [(psl33, D, i % 15 == 0) for i, D in enumerate(lam12) if i % 3 == 0]
    for G, D, colours in cases:
        plain, orbit = iso._Precomp(D), iso._Precomp(D, G)
        assert orbit.block_histograms == plain.block_histograms
        assert "meet" not in vars(orbit)  # the histograms needed no b x b meets
        assert orbit.pairs.dtype == plain.pairs.dtype
        assert np.array_equal(orbit.pairs, plain.pairs)
        if colours:
            assert all(np.array_equal(a, b) for a, b in zip(orbit.colors, plain.colors))
            assert orbit.fingerprint == plain.fingerprint


def test_iso_lambda12_pairs_by_the_normalizer(psl33, psl_sweep, monkeypatch):
    # sigma maps each of the 91 representatives onto the other block set of
    # its class, so the 182 block sets are the representatives and their
    # sigma-images.  With the group, the kept tier pairs them and no design
    # reaches backtracking; without it, the partition is the same, since
    # sigma is an isomorphism and the sweep keeps the 91 apart
    (sigma,) = pg.sym_normalizer_gens(psl33)
    reps = psl_sweep[0][12].designs
    designs = reps + [D.relabel(sigma.images) for D in reps]
    assert len(set(designs)) == 182
    searches = []
    real = iso._are_isomorphic
    monkeypatch.setattr(iso, "_are_isomorphic", lambda *a: searches.append(1) or real(*a))
    classes = iso.iso_classes(designs, group=psl33)
    assert sorted(classes) == [[i, i + 91] for i in range(91)]
    assert searches == []


# per class of order-3 subgroups H, in class order: |N_G(H)|, filter
# survivors, canonical survivors (least in their N_G(H)-orbit, as many as the
# base blocks of the orderly search), accepted designs
LAMBDA12_AUDIT = [(18, 1056, 176, 174), (108, 288, 8, 8)]


def _fixed_blocks(K: pg.Subgroup, D: dz.Design) -> np.ndarray:
    """Mask of the blocks of D that K fixes setwise: one gather of K's rows."""
    return (np.sort(K.images_array()[:, D.array], axis=2) == D.array).all(axis=(0, 2))


def test_criterion_3_lambda12_mass_audit(psl33, psl_sweep):
    # completeness of the lambda = 12 enumeration: every filter survivor of
    # the exhaustive oracle is an H-invariant block of an accepted design, or
    # an N_G(H)-image of one of the two canonical survivors whose orbits are
    # the lambda = 3 block sets; the orderly search returns as many base
    # blocks per class as there are canonical survivors
    results, _ = psl_sweep
    job = sr.SearchJob(psl33, 12, 12)
    labels, sizes = pg.pair_orbit_table(psl33)
    rows = psl33.images_array()
    classes = pg.subgroups_of_order(psl33, job.stabilizer_order)
    figures, accepted, rejected = [], [], []
    for H in classes:
        N = pg.normalizer(H)
        n_rows = N.images_array()
        _, survivors, canonical = oracle_bases(H, job.k, job.lam)
        assert len(sr._base_blocks(H, job.k, labels, sizes)[1]) == len(canonical)
        designs, audited = [], set()
        for base in canonical:
            D = dz.Design(psl33.degree, pg.set_orbit(rows, base))
            if D.b == job.b and dz.lambda_of(D, 2) == job.lam:
                designs.append(D)
                invariant = D.array[_fixed_blocks(H, D)]
            else:
                rejected.append((H, base, D))
                invariant = pg.set_orbit(n_rows, base)
            audited.update(map(tuple, invariant.tolist()))
        assert audited == {tuple(b) for b in np.array(survivors).tolist()}
        figures.append((N.order, len(survivors), len(canonical), len(designs)))
        accepted.append(designs)
    assert figures == LAMBDA12_AUDIT
    assert [psl33.order // n for n, *_ in figures] == [312, 52]
    # each design has |N_G(H)|/|H| blocks fixed by its own class
    # representative H, and none fixed by the other
    for own, designs in enumerate(accepted):
        for D in designs:
            fixed = [int(_fixed_blocks(K, D).sum()) for K in classes]
            assert fixed == [[6, 0], [0, 36]][own]
    # the other 12 survivors: 2 canonical survivors with set stabilizer of
    # order 12, whose 468-block orbits are the two lambda = 3 block sets,
    # and their N_G(H)-images
    assert [H for H, _, _ in rejected] == [classes[0], classes[0]]
    assert all(pg.set_stabilizer(psl33, base).order == 12 for _, base, _ in rejected)
    lam3 = [D for _, _, D in rejected]
    assert [D.b for D in lam3] == [468, 468] and lam3[0] != lam3[1]
    assert all(dz.lambda_of(D, 2) == 3 for D in lam3)
    assert results[3].distinct_block_sets == 2 and results[3].designs[0] in lam3
    # the search reaches exactly these 182 designs
    found = {D for designs in accepted for D in designs}
    assert len(found) == results[12].distinct_block_sets == 182
    assert all(D in found for D in results[12].designs)


# per shipped group: the base blocks of `_base_blocks` per order-3 class P
# at k = 12, the designs their orbits give by lambda, and |G:N_G(P)| per class
ORDER3_PASS = {
    "psl33": ([176, 8], {3: 2, 12: 182}, [312, 52]),
    "pgl33": ([88, 4], {6: 1, 24: 91}, [312, 52]),
}


@pytest.mark.parametrize("name", sorted(ORDER3_PASS))
def test_order3_pass_meets_every_design_of_the_sweep(name, request):
    # completeness apart from the subgroup lattice of composite order.  3
    # divides every forced stabilizer order m = |G|/(156 lambda) of both
    # sweeps, so by Cauchy's theorem every block stabilizer G_B holds a
    # conjugate of some order-3 class representative P, and some block B of
    # the design is P-invariant.  B is a union of P-orbits that meets each
    # pair orbit in its lambda-free target, and its N_G(P)-orbit holds one
    # base block of `_base_blocks(P, 12, ...)`.  So the orbits of those base
    # blocks meet every design of every lambda; the class equation at order
    # 3 shows that the order-3 classes are all of them
    G = request.getfixturevalue(name)
    results = request.getfixturevalue(name[:3] + "_sweep")[0]
    labels, sizes = pg.pair_orbit_table(G)
    classes = pg.subgroups_of_order(G, 3)
    leaves, found = [], {}
    for P in classes:
        bases = sr._base_blocks(P, 12, labels, sizes)[1]
        leaves.append(len(bases))
        for base in bases:
            D = dz.from_base_block(G, base, P)
            if D.b % 156 == 0 and dz.lambda_of(D, 2) == D.b // 156:
                found.setdefault(D.b // 156, set()).add(D)
    indices = [G.order // pg.normalizer(P).order for P in classes]
    assert (leaves, {lam: len(ds) for lam, ds in found.items()}, indices) == ORDER3_PASS[name]
    assert int((G.element_orders() == 3).sum()) == sum(indices) * 2 == 728
    for lam, res in results.items():
        assert len(found.get(lam, ())) == res.distinct_block_sets
        assert all(D in found[lam] for D in res.designs)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "published lambda = 12 class count is 96, but the complete enumeration "
        "(182 invariant block sets, mass-audited: 174 designs with 6 invariant "
        "bases each on the 312-subgroup class and 8 with 36 each on the "
        "52-subgroup class) partitions into 91 classes, every merge certified "
        "by an explicitly verified point bijection; no notion of isomorphism "
        "computed here yields 96"
    ),
)
def test_criterion_3_lambda12_published_class_count(psl_sweep):
    results, _ = psl_sweep
    assert results[12].iso_class_count == 96


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the published lambda = 12 example base block is not a block of any "
        "block-transitive 2-(144,12,12) design on this labeling: its setwise "
        "stabilizer is trivial (orbit length 5616, not 1872) and its largest "
        "overlap with any of the 340704 true design blocks is 7 of 12 points"
    ),
)
def test_criterion_3_lambda12_contains_published_example_block(psl33, psl_sweep):
    results, _ = psl_sweep
    orbit = dz.from_base_block(psl33, BASE_BLOCK_LAMBDA12_PUBLISHED)
    assert orbit.b == 1872  # fails: the orbit has 5616 blocks


# ---------------------------------------------------------------------------
# criterion 4: search sweep for the 11232-element group


def test_criterion_4_sweep(pgl33, pgl_sweep):
    results, elapsed = pgl_sweep
    counts = {lam: res.iso_class_count for lam, res in results.items()}
    assert counts == {2: 0, 3: 0, 4: 0, 6: 1, 12: 0}
    lam6 = results[6]
    assert [rec.flag_transitive for rec in lam6.records] == [True]
    reference = dz.from_base_block(pgl33, BASE_BLOCK_LAMBDA6)
    assert lam6.designs[0] == reference
    assert elapsed < 1800.0
    print(
        f"\nACCEPTANCE 4 PASS: lambda 6 -> 1 flag-transitive class equal to the "
        f"reference orbit; lambda 2/3/4/12 -> 0 ({elapsed:.0f}s)"
    )


# ---------------------------------------------------------------------------
# criterion 5: screening end-to-end


def test_criterion_5_screen_survivors(screen_reports):
    reports, elapsed = screen_reports
    surv = [r for r in reports if r.survived]
    got = sorted((r.case.n, r.case.q.q, r.v, r.candidate_k) for r in surv)
    assert got == [(3, 3, 144, 12), (4, 7, 400, 20), (5, 3, 121, 11)]
    # every base printed in a factorization is prime ("0" and "1" have none)
    for r in reports:
        if r.v_factorization is None:
            continue
        for part in r.v_factorization.split("/"):
            for term in part.split("·"):
                base = int(term.partition("^")[0])
                assert base in (0, 1) or nt.is_prime(base), (r.case.label(), term)
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 5 PASS: survivors exactly (3,3,144,12), (4,7,400,20), "
        f"(5,3,121,11) over {len(reports)} cases ({elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# criterion 6: table reproduction

# published entries that disagree with exact recomputation (kept under test in
# test_screen.py::ERRATA); everything else must match exactly
_KNOWN_DIVERGENT = {
    ("C1:i=3,q=2", 7),
    ("C3:n=3,theta=3", 5),
    ("C3:n=3,theta=3", 27),
    ("C5:n=3,u=2,zeta=1", 64),
    ("C8u:n=3,delta=1", 3),
    ("S:n=3,PSL(2,7)", 9),
    ("S:n=3,A6", 11),
    ("S:n=3,A6", 13),
}


def test_criterion_6_golden_tables():
    from test_screen import _computed_value

    t0 = time.time()
    checked = matched = 0
    squares = []
    for table in sorted(sc.PUBLISHED_V):
        for key, printed in sorted(sc.PUBLISHED_V[table].items()):
            computed = _computed_value(table, key)
            checked += 1
            if (table, key) in _KNOWN_DIVERGENT:
                assert computed != nt.parse_factorization(printed), (table, key)
            else:
                matched += 1
                assert computed == nt.parse_factorization(printed), (table, key)
            if computed.denominator == 1 and nt.is_perfect_square(int(computed)):
                squares.append((table, key))
    assert squares == [("C3:n=3,theta=3", 3)]
    elapsed = time.time() - t0
    print(
        f"\nACCEPTANCE 6 PASS: {checked} published entries cross-checked, "
        f"{matched} match exactly, {len(_KNOWN_DIVERGENT)} known misprints "
        f"flagged, square point count only at the field-extension case q=3 "
        f"({elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# criterion 7: t-exclusion


def test_criterion_7_t_exclusion():
    t0 = time.time()
    assert dz.admissible_t(144, 12, 3, 5616) is False
    assert dz.admissible_t(144, 12, 3, 11232) is False
    ratio = Fraction(1)
    for j in range(3):
        ratio *= Fraction(144 - j, 12 - j)
    assert ratio.numerator % 71 == 0
    assert dz.admissible_t(400, 20, 3, 2 * sc.x_order(4, 7)) is False
    assert dz.admissible_t(121, 11, 3, sc.x_order(5, 3)) is False
    assert dz.admissible_t(144, 12, 2, 5616) is True
    elapsed = time.time() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 7 PASS: t = 3 excluded for all three parameter sets ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# criterion 8: property suites


def test_criterion_8a_permutation_round_trip():
    t0 = time.time()
    rng = random.Random(88001)
    for _ in range(1000):
        images = list(range(144))
        rng.shuffle(images)
        p = pg.Permutation(tuple(images))
        assert pg.parse_cycles(pg.print_cycles(p), 144) == p
    print(f"\nACCEPTANCE 8a PASS: 1000 cycle-notation round trips ({time.time()-t0:.1f}s)")


def test_criterion_8b_lagrange_and_orbit_stabilizer(psl33, pgl33, sym4):
    t0 = time.time()
    rng = random.Random(88002)
    groups = [psl33, pgl33, sym4]
    subgroup_pool = []
    for G, orders in ((psl33, (2, 3, 6, 9)), (pgl33, (2, 4, 6)), (sym4, (2, 3, 4, 8))):
        for m in orders:
            subgroup_pool.extend((G, sub) for sub in pg.subgroups_of_order(G, m))
    checks = 0
    while checks < 100:
        mode = rng.randrange(3)
        if mode == 0:
            G, sub = subgroup_pool[rng.randrange(len(subgroup_pool))]
            assert G.order % sub.order == 0  # Lagrange
            for orb in pg.orbits(sub):
                assert sub.order % len(orb) == 0
        elif mode == 1:
            G = groups[rng.randrange(len(groups))]
            alpha = rng.randrange(G.degree)
            stab = pg.set_stabilizer(G, [alpha])
            orbit = next(o for o in pg.orbits(G) if alpha in o)
            assert stab.order * len(orbit) == G.order
        else:
            G = groups[rng.randrange(len(groups))]
            pts = tuple(sorted(rng.sample(range(G.degree), min(4, G.degree - 1))))
            stab = pg.set_stabilizer(G, pts)
            seen = {pts}
            frontier = [pts]
            rows = [g.images for g in G.generators]
            while frontier:
                nxt = []
                for cur in frontier:
                    for row in rows:
                        img = tuple(sorted(row[p] for p in cur))
                        if img not in seen:
                            seen.add(img)
                            nxt.append(img)
                frontier = nxt
            assert stab.order * len(seen) == G.order
        checks += 1
    print(
        f"\nACCEPTANCE 8b PASS: Lagrange + orbit-stabilizer on 100 random samples "
        f"({time.time()-t0:.1f}s)"
    )


def test_criterion_8c_counting_identities(psl33, pgl33, psl_sweep, pgl_sweep):
    t0 = time.time()
    designs = [dz.from_base_block(psl33, BASE_BLOCK_LAMBDA3)]
    for results, G in ((psl_sweep[0], psl33), (pgl_sweep[0], pgl33)):
        for res in results.values():
            designs.extend(res.designs)
    assert len(designs) > 90
    for D in designs:
        lam = dz.lambda_of(D, 2)
        gamma = dz.lambda_of(D, 1)
        assert lam is not None and gamma is not None
        assert D.b * D.k == D.v * gamma
        assert gamma * (D.k - 1) == lam * (D.v - 1)
        for s in range(3):
            assert dz.lambda_s(2, D.v, D.k, lam, s).denominator == 1
        assert dz.lambda_s(2, D.v, D.k, lam, 0) == D.b
    print(
        f"\nACCEPTANCE 8c PASS: replication identities on {len(designs)} constructed "
        f"designs ({time.time()-t0:.1f}s)"
    )


def test_criterion_8d_fingerprint_relabel_invariance(psl33):
    t0 = time.time()
    rng = random.Random(88004)
    D = dz.from_base_block(psl33, BASE_BLOCK_LAMBDA3)
    fp = iso.fingerprint(D)
    for _ in range(50):
        pi = list(range(D.v))
        rng.shuffle(pi)
        assert iso.fingerprint(D.relabel(pi)) == fp
    print(
        f"\nACCEPTANCE 8d PASS: fingerprint invariant under 50 random relabelings "
        f"({time.time()-t0:.1f}s)"
    )


def test_criterion_8e_self_recovery(psl33, pgl33, psl_sweep):
    t0 = time.time()
    rng = random.Random(88005)
    pool = [
        dz.from_base_block(psl33, BASE_BLOCK_LAMBDA3),
        dz.from_base_block(pgl33, BASE_BLOCK_LAMBDA6),
    ]
    pool.extend(psl_sweep[0][12].designs[:18])
    assert len(pool) == 20
    for D in pool:
        pi = list(range(D.v))
        rng.shuffle(pi)
        relabeled = D.relabel(pi)
        cert = iso.are_isomorphic(D, relabeled)
        assert cert.isomorphic
        assert D.relabel(cert.bijection) == relabeled
    print(
        f"\nACCEPTANCE 8e PASS: isomorphism self-recovery on 20 relabeled designs "
        f"({time.time()-t0:.1f}s)"
    )
