from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from designforge import design as dz
from designforge import permgroup as pg
from designforge import search as sr

from conftest import BASE_BLOCK_LAMBDA3


# ---------------------------------------------------------------------------
# jobs


def test_job_requires_square_degree(psl33):
    with pytest.raises(ValueError):
        sr.SearchJob(psl33, 10, 2)


def test_job_derived_counts(psl33):
    job = sr.SearchJob(psl33, 12, 3)
    assert job.b == 468
    assert job.stabilizer_order == 12


def test_job_inadmissible_b(psl33):
    job = sr.SearchJob(psl33, 12, 5)
    assert job.stabilizer_order is None
    result = sr.run(job)
    assert result.note == "inadmissible block count"
    assert result.iso_class_count == 0


# ---------------------------------------------------------------------------
# orbit unions


def _candidates(H, k):
    """The candidate point sets of `_candidate_chunks`, concatenated, as tuples;
    as many as the total it reports."""
    total, chunks = sr._candidate_chunks(H, k)
    cands = [tuple(row) for chunk in chunks for row in chunk.tolist()]
    assert len(cands) == total
    return cands


def test_orbit_union_trivial_subgroup(sym4):
    triv = pg.Subgroup(sym4, (0,))
    cands = _candidates(triv, 2)
    assert len(cands) == 6
    assert cands == sorted(set(cands))


def test_orbit_union_no_combination(psl33):
    # an order-18 class with all orbits of length 18 cannot reach k = 12
    subs = pg.subgroups_of_order(psl33, 18)
    all18 = next(s for s in subs if all(len(o) == 18 for o in pg.orbits(s)))
    assert _candidates(all18, 12) == []


def test_orbit_union_pairs_of_six_orbits(psl33):
    subs = pg.subgroups_of_order(psl33, 18)
    mixed = next(s for s in subs if any(len(o) == 6 for o in pg.orbits(s)))
    cands = _candidates(mixed, 12)
    assert len(cands) == 3  # choose 2 of the 3 orbits of length 6
    for cand in cands:
        assert len(cand) == 12


def test_orbit_union_explosion_guard(sym4, monkeypatch):
    # b = 24 = |S4| forces the trivial stabilizer: C(4, 2) = 6 candidates > 3
    monkeypatch.setattr(sr, "MAX_CANDIDATES", 3)
    with pytest.raises(sr.CandidateExplosionError, match="exceed the 3 guard"):
        sr.run(sr.SearchJob(sym4, 2, 4))


# ---------------------------------------------------------------------------
# pair orbits


@pytest.mark.parametrize("name", ["psl33", "pgl33"])
def test_pair_orbit_table(name, request):
    G = request.getfixturevalue(name)
    labels, sizes = pg.pair_orbit_table(G)
    v = G.degree
    assert (labels == labels.T).all()
    assert (labels[~np.eye(v, dtype=bool)] >= 0).all()
    for g in G.generators:
        row = np.asarray(g.images)
        assert (labels[np.ix_(row, row)] == labels).all()
    upper = labels[np.triu_indices(v, k=1)]
    assert np.bincount(upper, minlength=len(sizes)).tolist() == sizes.tolist()
    assert int(sizes.sum()) == v * (v - 1) // 2
    imgs = G.images_array()
    for lab, size in enumerate(sizes.tolist()):
        p, q = (int(x) for x in np.argwhere(np.triu(labels == lab, k=1))[0])
        orbit = {tuple(sorted(pair)) for pair in zip(imgs[:, p].tolist(), imgs[:, q].tolist())}
        assert len(orbit) == size
        assert all(labels[a, b] == lab for a, b in orbit)


# ---------------------------------------------------------------------------
# toy end-to-end search: S4 on 4 = 2^2 points


def test_s4_sweep(sym4):
    results = sr.full_sweep(sym4, 2)
    assert sorted(results) == [2]  # lambda = 1 is searched only on request
    assert results[2].iso_class_count == 0
    lam1 = sr.run(sr.SearchJob(sym4, 2, 1))
    assert lam1.iso_class_count == 1
    D = lam1.designs[0]
    assert D.b == 6 and dz.lambda_of(D, 2) == 1
    assert lam1.records[0].flag_transitive


def _filter_survivors(job):
    """Every candidate of every stabilizer class that passes the proportionality filter."""
    labels, sizes = pg.pair_orbit_table(job.group)
    for H in pg.subgroups_of_order(job.group, job.stabilizer_order):
        for chunk in sr._candidate_chunks(H, job.k)[1]:
            keep = sr._proportionality_filter(chunk, labels, sizes, job.lam, job.b)
            yield from (tuple(row) for row in chunk[keep].tolist())


@pytest.mark.parametrize("group,k,lam", [("sym4", 2, 1), ("sym4", 2, 2), ("psl33", 12, 3)])
def test_orbit_length_fixes_stabilizer_order(group, k, lam, request):
    # search.run accepts on D.b == b alone: |orbit| * |G_B| = |G|
    # makes that the same as |G_B| = m = |G|/b
    G = request.getfixturevalue(group)
    job = sr.SearchJob(G, k, lam)
    rows = G.images_array()
    survivors = list(_filter_survivors(job))
    assert survivors
    for base in survivors:
        orbit_len = len(pg.set_orbit(rows, base))
        stab_order = pg.set_stabilizer(G, base).order
        assert orbit_len * stab_order == G.order
        assert (orbit_len == job.b) == (stab_order == job.stabilizer_order)


@pytest.mark.parametrize("lam", [2, 3, 4, 6])
def test_transversal_orbit_is_the_full_orbit(psl33, lam):
    # the orbit read from one element per right coset of H is the orbit over
    # all of G: for each canonical filter survivor of every class H, as `run`
    # sees them (two at lambda = 3, none at 2, 4 and 6), and for the first
    # candidate of each chunk, as every candidate is H-invariant
    job = sr.SearchJob(psl33, 12, lam)
    labels, sizes = pg.pair_orbit_table(psl33)
    survivors = 0
    for H in pg.subgroups_of_order(psl33, job.stabilizer_order):
        n_rows = pg.normalizer(H).images_array()
        for chunk in sr._candidate_chunks(H, job.k)[1]:
            keep = sr._proportionality_filter(chunk, labels, sizes, job.lam, job.b)
            canonical = [b for b in chunk[keep] if np.array_equal(pg.set_orbit(n_rows, b)[0], b)]
            survivors += len(canonical)
            for base in [chunk[0], *canonical]:
                assert dz.from_base_block(psl33, base, H) == dz.from_base_block(psl33, base)
    assert survivors == (2 if lam == 3 else 0)


def test_transversal_orbit_of_a_larger_block_stabilizer(psl33):
    # H of order 3 inside G_B of order 12: the orbit read from the |G:H| =
    # 1872 coset representatives still has |G:G_B| = 468 blocks, fewer than
    # the lambda = 12 job's b, so `run` would reject B for H
    G_B = pg.set_stabilizer(psl33, BASE_BLOCK_LAMBDA3)
    y = next(i for i in G_B.indices if psl33.element_orders()[i] == 3)
    H = pg.Subgroup(psl33, tuple(sorted(psl33.power_table()[:3, y].tolist())))
    assert G_B.order == 12 and set(H.indices) < set(G_B.indices)
    D = dz.from_base_block(psl33, BASE_BLOCK_LAMBDA3, H)
    assert D == dz.from_base_block(psl33, BASE_BLOCK_LAMBDA3)
    assert D.b == psl33.order // G_B.order < psl33.order // H.order == sr.SearchJob(psl33, 12, 12).b


def test_s4_lambda_1_excluded_by_default(sym4):
    results = sr.full_sweep(sym4, 2)
    assert sorted(results) == [2]


def test_lambda_1_finds_the_affine_plane_and_nothing_on_the_shipped_groups(psl33, pgl33):
    # a block-transitive 2-(k^2,k,1) design is an affine plane, and affine
    # planes can be flag-transitive: 3^2:SL(2,3) on F_3^2 (point 3x + y)
    # has one block set at lambda = 1, the 12 lines of AG(2,3), three
    # points that sum to 0
    def affine(f):
        images = (f(x, y) for x in range(3) for y in range(3))
        return pg.Permutation(tuple(3 * (a % 3) + b % 3 for a, b in images))

    G = pg.GroupTable.generate(
        [affine(lambda x, y: (x + 1, y)), affine(lambda x, y: (x + y, y)),
         affine(lambda x, y: (y, 2 * x))]
    )
    assert G.order == 216
    res = sr.run(sr.SearchJob(G, 3, 1))
    lines = [blk for blk in combinations(range(9), 3)
             if sum(p // 3 for p in blk) % 3 == sum(p % 3 for p in blk) % 3 == 0]
    assert res.distinct_block_sets == 1 and res.designs[0].blocks == tuple(lines)
    assert res.records[0].flag_transitive
    # full_sweep skips lambda = 1 for scope, not because it is empty: on the
    # shipped groups the forced stabilizer orders 5616/156 = 36 and
    # 11232/156 = 72 have no subgroups, so nothing is tested
    for H in (psl33, pgl33):
        res = sr.run(sr.SearchJob(H, 12, 1))
        assert (res.candidates_tested, res.distinct_block_sets, res.note) == (0, 0, None)


# ---------------------------------------------------------------------------
# the reference group, cheap lambdas only (the full sweep runs in acceptance)


@pytest.fixture(scope="module")
def psl_lambda3(psl33):
    return sr.run(sr.SearchJob(psl33, 12, 3))


def test_psl_lambda3_unique_design(psl33, psl_lambda3):
    from designforge import iso

    res = psl_lambda3
    assert res.iso_class_count == 1
    assert res.distinct_block_sets == 2  # the design and its outer twin
    # the unique class contains the reference orbit: the class representative
    # is isomorphic to it, and re-running the search from the reference base
    # block reproduces one of the found block sets exactly
    reference = dz.from_base_block(psl33, BASE_BLOCK_LAMBDA3)
    cert = iso.are_isomorphic(res.designs[0], reference)
    assert cert.isomorphic
    assert res.designs[0].relabel(cert.bijection) == reference


def test_record_is_the_least_design_of_its_class(psl33, monkeypatch):
    # the designs reach iso_classes sorted, and a class lists its members in
    # input order, so the record taken from each class's first member is its
    # least design
    from designforge import iso

    seen = []
    monkeypatch.setattr(
        sr, "iso_classes", lambda ds, group: seen.append(ds) or iso.iso_classes(ds, group=group)
    )
    res = sr.run(sr.SearchJob(psl33, 12, 3))
    [designs] = seen
    assert len(designs) == 2 and iso.are_isomorphic(*designs).isomorphic
    assert res.designs == [min(designs, key=dz.order_key)]
    assert iso.iso_classes(designs[::-1]) == [[0, 1]]


def test_psl_lambda3_flags(psl_lambda3):
    assert [rec.flag_transitive for rec in psl_lambda3.records] == [True]
    assert all(rec.stabilizer_order == 12 for rec in psl_lambda3.records)


def test_psl_lambda3_verifies(psl33, psl_lambda3):
    for D in psl_lambda3.designs:
        assert dz.lambda_of(D, 2) == 3
        assert pg.block_map(psl33.images_array(), D.array) is not None
        assert D.b == 468


def test_psl_lambda4_empty(psl33):
    res = sr.run(sr.SearchJob(psl33, 12, 4))
    assert res.iso_class_count == 0 and res.distinct_block_sets == 0


def test_candidates_invariant_under_subgroup_conjugation(psl33):
    # enumerating from a conjugate representative yields the g-relabeled
    # candidate set, so accepted designs collapse to the same orbits
    import random

    rng = random.Random(12)
    subs = pg.subgroups_of_order(psl33, 18)
    mixed = next(s for s in subs if any(len(o) == 6 for o in pg.orbits(s)))
    g = rng.randrange(psl33.order)
    T = psl33.mul_table()
    inv = psl33.inverse_indices()
    conj = tuple(sorted(int(T[int(T[inv[g], x]), g]) for x in mixed.indices))
    conj_sub = pg.Subgroup(psl33, conj)
    row = psl33.images_array()[g]
    cands = _candidates(mixed, 12)
    conj_cands = _candidates(conj_sub, 12)
    relabeled = sorted(tuple(sorted(int(row[p]) for p in cand)) for cand in cands)
    assert relabeled == sorted(conj_cands)
