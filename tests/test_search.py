from __future__ import annotations

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
    """The candidate point sets `_candidate_chunks` yields, concatenated, as tuples."""
    return [tuple(row) for chunk in sr._candidate_chunks(H, k) for row in chunk.tolist()]


def test_orbit_union_trivial_subgroup(sym4):
    triv = pg.trivial_subgroup(sym4)
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
        for chunk in sr._candidate_chunks(H, job.k):
            keep = sr._proportionality_filter(chunk, labels, sizes, job.lam, job.b)
            yield from (tuple(row) for row in chunk[keep].tolist())


@pytest.mark.parametrize("group,k,lam", [("sym4", 2, 1), ("sym4", 2, 2), ("psl33", 12, 3)])
def test_orbit_length_fixes_stabilizer_order(group, k, lam, request):
    # search.run accepts on len(orbit) == b alone: |orbit| * |G_B| = |G|
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


def test_s4_lambda_1_excluded_by_default(sym4):
    results = sr.full_sweep(sym4, 2)
    assert sorted(results) == [2]


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


def test_psl_lambda3_flags(psl_lambda3):
    assert [rec.flag_transitive for rec in psl_lambda3.records] == [True]
    assert all(rec.stabilizer_order == 12 for rec in psl_lambda3.records)


def test_psl_lambda3_verifies(psl33, psl_lambda3):
    for D in psl_lambda3.designs:
        assert dz.lambda_of(D, 2) == 3
        assert dz.is_block_transitive(psl33, D)
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
