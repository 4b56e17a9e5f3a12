from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from itertools import combinations, permutations

import numpy as np
import pytest

from designforge import design as dz
from designforge import iso
from designforge import permgroup as pg

from conftest import BASE_BLOCK_LAMBDA3, BASE_BLOCK_LAMBDA3_TWIN, BASE_BLOCK_LAMBDA6

FANO = dz.Design(
    7, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
)

# sha256 of json.dumps(field) for every Fingerprint field, recorded before the
# pair signatures and the refinement were vectorized
FINGERPRINT_FIELD_SHA256 = {
    "fano": {
        "v": "7902699be42c8a8e46fbbb4501726517e86b22c56a189f7625a6da49081b2451",
        "b": "7902699be42c8a8e46fbbb4501726517e86b22c56a189f7625a6da49081b2451",
        "k": "4e07408562bedb8b60ce05c1decfe3ad16b72230967de01f640b7e4729b49fce",
        "intersection_histogram": "0658f1328c37ea317a28fa74b0f8062e2aa4b8df0ff232d31149ffc2dacd8d92",
        "block_profile_histogram": "4cdec38c065acf176847d11a2ea595a416b2e6a741a8614c1a7af428da58254c",
        "stable_color_histogram": "a7ecd8fd9826a394b6a4890f8c64ecddbcf219beb6040c59551f29c695295cf3",
    },
    "lambda3": {
        "v": "5ec1a0c99d428601ce42b407ae9c675e0836a8ba591c8ca6e2a2cf5563d97ff0",
        "b": "1e5ee5e58c8f490ae68e7e91b1575ebefc2bf6c211f302a553ff0c4925e85321",
        "k": "6b51d431df5d7f141cbececcf79edf3dd861c3b4069f0b11661a3eefacbba918",
        "intersection_histogram": "f89bd76878f0e8336286a8445754ee6dddb643c4b8ac530506b09886df71e761",
        "block_profile_histogram": "d7714086f22dd7e8957d116ef6b1ceb20832c82569c8a6a3f161773752c4d91a",
        "stable_color_histogram": "752d7976230a3c157fdf3b892961b0cfb8b4a2eafbad5786d7ac053b2a6c98a3",
    },
}


def _random_relabel(D: dz.Design, rng: random.Random) -> tuple[dz.Design, list[int]]:
    pi = list(range(D.v))
    rng.shuffle(pi)
    return D.relabel(pi), pi


# ---------------------------------------------------------------------------
# fingerprints


def test_fingerprint_relabel_invariant_fano():
    rng = random.Random(1)
    fp = iso.fingerprint(FANO)
    for _ in range(10):
        relabeled, _ = _random_relabel(FANO, rng)
        assert iso.fingerprint(relabeled) == fp


def test_fingerprint_relabel_invariant_reference_design(psl33):
    D = dz.from_base_block(psl33, BASE_BLOCK_LAMBDA3)
    rng = random.Random(2)
    fp = iso.fingerprint(D)
    for _ in range(5):
        relabeled, _ = _random_relabel(D, rng)
        assert iso.fingerprint(relabeled) == fp


def test_fingerprint_separates_different_lambda(psl33, pgl33):
    D1 = dz.from_base_block(psl33, BASE_BLOCK_LAMBDA3)
    D3 = dz.from_base_block(pgl33, BASE_BLOCK_LAMBDA6)
    fp1, fp3 = iso.fingerprint(D1), iso.fingerprint(D3)
    assert fp1 != fp3
    assert fp1.first_mismatch(fp3) is not None


def _no_search(*args):
    raise AssertionError("backtracking ran on a fingerprint mismatch")


def test_fingerprint_mismatch_skips_backtracking(psl33, pgl33, monkeypatch):
    monkeypatch.setattr(iso, "_are_isomorphic", _no_search)
    D1 = dz.from_base_block(psl33, BASE_BLOCK_LAMBDA3)
    D3 = dz.from_base_block(pgl33, BASE_BLOCK_LAMBDA6)
    cert = iso.are_isomorphic(D1, D3)
    assert not cert.isomorphic
    assert cert.mismatch == iso.fingerprint(D1).first_mismatch(iso.fingerprint(D3))


# base blocks (0-based) of two non-isomorphic lambda = 12 designs of psl33
# whose intersection and block-profile histograms agree
BASE_BLOCKS_LAMBDA12_PAIR = (
    (0, 1, 2, 3, 13, 20, 21, 24, 27, 32, 73, 128),
    (0, 1, 2, 20, 28, 32, 34, 50, 64, 90, 91, 134),
)


def test_stable_colors_split_what_the_block_histograms_do_not(psl33, monkeypatch):
    D1, D2 = (dz.from_base_block(psl33, base) for base in BASE_BLOCKS_LAMBDA12_PAIR)
    assert D1.b == D2.b == 1872
    assert dz.lambda_of(D1, 2) == dz.lambda_of(D2, 2) == 12
    assert iso._Precomp(D1).block_histograms == iso._Precomp(D2).block_histograms
    monkeypatch.setattr(iso, "_are_isomorphic", _no_search)
    cert = iso.are_isomorphic(D1, D2)
    assert not cert.isomorphic
    assert cert.mismatch == "stable_color_histogram"


def _random_designs(n: int, seed: int) -> list[dz.Design]:
    """Designs with uncovered pairs and several coverage counts."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        v = rng.randint(6, 20)
        k = rng.randint(2, min(6, v - 1))
        blocks = {tuple(sorted(rng.sample(range(v), k))) for _ in range(rng.randint(2, 30))}
        out.append(dz.Design(v, sorted(blocks)))
    return out


def _pair_signatures_by_point(D: dz.Design) -> np.ndarray:
    """Pair signatures by the per-point loop that defines them."""
    v = D.v
    inc = D.incidence()
    inc_f = inc.astype(np.float64)
    meet = (inc_f @ inc_f.T).astype(np.uint8)
    cov = (inc_f.T @ inc_f).astype(np.int64)
    S = np.zeros((v, v), dtype=np.uint64)
    uniform = len(np.unique(cov[~np.eye(v, dtype=bool)])) == 1
    for p in range(v):
        through_p = np.flatnonzero(inc[:, p])
        sub = meet[np.ix_(through_p, through_p)]
        inc_t = inc[through_p].copy()
        inc_t[:, p] = 0
        covers = cov[p].copy()
        covers[p] = 0
        if uniform and covers.max() > 0:
            lam = int(covers.max())
            qs = np.flatnonzero(covers)
            order = np.nonzero(inc_t.T)  # sorted by q
            per_q = order[1].reshape(len(qs), lam)
            iu, ju = np.triu_indices(lam, k=1)
            S[p, qs] = iso._row_multiset_hash(sub[per_q[:, iu], per_q[:, ju]])
        else:
            for q in range(v):
                if q == p or covers[q] == 0:
                    continue
                idx = np.flatnonzero(inc_t[:, q])
                tri = sub[np.ix_(idx, idx)][np.triu_indices(len(idx), k=1)]
                S[p, q] = iso._row_multiset_hash(tri[None, :])[0] if tri.size else 1
        S[p, p] = iso._mix(np.array([len(through_p)], dtype=np.uint64))[0]
    return S


def test_pair_signatures_match_per_point_definition(psl33):
    # the last two: no point pair at all, and a pair that no block covers
    designs = [
        FANO,
        dz.from_base_block(psl33, BASE_BLOCK_LAMBDA3),
        *_random_designs(30, 7),
        dz.Design(1, [(0,)]),
        dz.Design(2, [(0,), (1,)]),
    ]
    for D in designs:
        assert np.array_equal(iso._Precomp(D).pairs, _pair_signatures_by_point(D))


def test_refine_reaches_a_fixed_point(psl33):
    designs = [FANO, dz.from_base_block(psl33, BASE_BLOCK_LAMBDA3), *_random_designs(30, 7)]
    for D in designs:
        pre = iso._Precomp(D)
        pc, bc = pre.colors
        pc2, bc2 = iso._refine(pre, pc, bc)
        assert len(np.unique(pc2)) == len(np.unique(pc))
        assert len(np.unique(bc2)) == len(np.unique(bc))


def _refine_by_scatter(pre: iso._Precomp, pc: np.ndarray, bc: np.ndarray):
    """The reference `iso._refine` must match bit for bit: the block term
    through a b x b index made each round, the point term by `np.add.at`."""
    U64 = np.uint64
    arr = pre.design.array
    k = pre.design.k
    meet = pre.meet.astype(np.intp)
    sig = pre.pairs
    sizes = np.arange(k + 1, dtype=U64) * U64(0x9DDFEA08EB382D69)
    b_vals, b_ids = np.unique(bc, return_inverse=True)
    n_p, n_b = len(np.unique(pc)), len(b_vals)
    while True:
        table = iso._mix(iso._mix(b_vals)[:, None] ^ sizes[None, :])
        bsig = table.ravel()[meet + b_ids * (k + 1)].sum(axis=1)
        bpoint = iso._mix(pc * U64(3) + U64(1))[arr].sum(axis=1)
        bc = iso._mix(bc) ^ iso._mix(bsig) ^ iso._mix(bpoint)
        pblock = np.zeros(pre.design.v, dtype=U64)
        np.add.at(pblock, arr, iso._mix(bc * U64(5) + U64(2))[:, None])
        ppair = iso._mix(sig ^ iso._mix(pc * U64(7) + U64(3))[None, :]).sum(axis=1)
        pc = iso._mix(pc) ^ iso._mix(pblock) ^ iso._mix(ppair)
        b_vals, b_ids = np.unique(bc, return_inverse=True)
        m_p, m_b = len(np.unique(pc)), len(b_vals)
        if m_p + m_b <= n_p + n_b:
            return pc, bc
        n_p, n_b = m_p, m_b


def _individualized(pc: np.ndarray) -> np.ndarray | None:
    """pc with one point of its smallest non-singleton class given a fresh
    colour, chosen as `iso._search` chooses it at depth 0 (None if discrete)."""
    vals, counts = np.unique(pc, return_counts=True)
    sel = np.flatnonzero(counts > 1)
    if not len(sel):
        return None
    color = vals[sel[np.lexsort((vals[sel], counts[sel]))[0]]]
    out = pc.copy()
    out[np.flatnonzero(pc == color)[0]] = iso._mix(np.array([color ^ np.uint64(0xABCD)]))[0]
    return out


def test_refine_matches_scatter_oracle(psl33, pgl33):
    designs = [
        FANO,
        dz.from_base_block(psl33, BASE_BLOCK_LAMBDA3),
        dz.from_base_block(pgl33, BASE_BLOCK_LAMBDA6),
        *_random_designs(30, 7),
    ]
    # the random designs have uneven replication and points on no block
    assert any(len(np.unique(np.bincount(D.array.ravel(), minlength=D.v))) > 1
               for D in designs)
    assert any(np.bincount(D.array.ravel(), minlength=D.v).min() == 0 for D in designs)
    individualized = 0
    for D in designs:
        pre = iso._Precomp(D)
        pc, bc = pre.colors
        # where `_Precomp.colors` starts, its result, and one point individualized
        first = (iso._row_multiset_hash(pre.pairs.view(np.int64)), np.full(D.b, 2, np.uint64))
        starts = [first, (pc, bc)]
        npc = _individualized(pc)
        if npc is not None:
            starts.append((npc, bc))
            individualized += 1
        for spc, sbc in starts:
            got = iso._refine(pre, spc, sbc)
            want = _refine_by_scatter(pre, spc, sbc)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert individualized >= 3


# sha256 of json.dumps of the bijections are_isomorphic(D, D.relabel(pi))
# returns for three random.Random(seed) relabellings pi, recorded before the
# refinement's gather indices were kept per design
BIJECTION_SHA256 = {
    "fano": (11, "568efd6ec51cca36f7f3cbe3b7b5775e78f059d2177ca6c898039abfcd829798"),
    "lambda3": (12, "f6b4afd625cb2997bce8df0666efe9b637d5fef0da8a2353e257186450a6677d"),
    "lambda6": (13, "349ffee54069325ff9ea20017af7f17d067436696b2bd6c0c56d63b6f6508f84"),
}


@pytest.mark.parametrize("name", sorted(BIJECTION_SHA256))
def test_bijections_pinned(psl33, pgl33, name):
    D = {
        "fano": lambda: FANO,
        "lambda3": lambda: dz.from_base_block(psl33, BASE_BLOCK_LAMBDA3),
        "lambda6": lambda: dz.from_base_block(pgl33, BASE_BLOCK_LAMBDA6),
    }[name]()
    seed, digest = BIJECTION_SHA256[name]
    rng = random.Random(seed)
    bijections = []
    for _ in range(3):
        relabeled, _ = _random_relabel(D, rng)
        cert = iso.are_isomorphic(D, relabeled)
        assert cert.isomorphic
        bijections.append(cert.bijection)
    assert hashlib.sha256(json.dumps(bijections).encode()).hexdigest() == digest


@pytest.mark.parametrize("name", ["fano", "lambda3"])
def test_fingerprint_fields_pinned(psl33, name):
    D = FANO if name == "fano" else dz.from_base_block(psl33, BASE_BLOCK_LAMBDA3)
    fp = iso.fingerprint(D)
    got = {
        f.name: hashlib.sha256(json.dumps(getattr(fp, f.name)).encode()).hexdigest()
        for f in dataclasses.fields(fp)
    }
    assert got == FINGERPRINT_FIELD_SHA256[name]


# ---------------------------------------------------------------------------
# isomorphism decisions


def test_same_object_identity():
    cert = iso.are_isomorphic(FANO, FANO)
    assert cert.isomorphic
    assert cert.bijection is not None
    assert FANO.relabel(cert.bijection) == FANO


def test_relabel_recovery_fano():
    rng = random.Random(3)
    for _ in range(10):
        relabeled, _ = _random_relabel(FANO, rng)
        cert = iso.are_isomorphic(FANO, relabeled)
        assert cert.isomorphic
        assert FANO.relabel(cert.bijection) == relabeled


def test_relabel_recovery_reference_design(psl33):
    D = dz.from_base_block(psl33, BASE_BLOCK_LAMBDA3)
    rng = random.Random(4)
    relabeled, _ = _random_relabel(D, rng)
    cert = iso.are_isomorphic(D, relabeled)
    assert cert.isomorphic
    assert D.relabel(cert.bijection) == relabeled


def test_non_isomorphic_same_parameters():
    # two 2-(7,3,*) structures with different intersection patterns
    near = dz.Design(7, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 6)])
    cert = iso.are_isomorphic(FANO, near)
    assert not cert.isomorphic
    assert cert.mismatch is not None
    assert cert.bijection is None


def test_hash_rows_longer_than_the_weight_table():
    # the pair {0, 1} lies on 98 blocks, so its row of meets holds 98*97/2 = 4753
    # entries, a longer row than any other test design hashes
    D = dz.Design(100, [(0, 1, x) for x in range(2, 100)])
    reversed_D = D.relabel(list(range(99, -1, -1)))
    cert = iso.are_isomorphic(D, reversed_D)
    assert cert.isomorphic
    assert D.relabel(cert.bijection) == reversed_D
    # a longer draw extends a shorter one, so every row hashes the same
    # whatever the other rows' lengths
    assert (pg._weights(5000)[:4096] == pg._weights(4096)).all()


def test_intersections_of_blocks_longer_than_255():
    D = dz.Design(300, [range(0, 256), range(1, 257), range(40, 296)])
    assert iso.fingerprint(D).intersection_histogram == ((216, 1), (217, 1), (255, 1))


def test_mismatched_vk_rejected():
    small = dz.Design(6, [(0, 1, 2)])
    with pytest.raises(ValueError):
        iso.are_isomorphic(FANO, small)


def test_certificate_symmetric(psl33):
    D = dz.from_base_block(psl33, BASE_BLOCK_LAMBDA3)
    rng = random.Random(8)
    relabeled, _ = _random_relabel(D, rng)
    fwd = iso.are_isomorphic(D, relabeled)
    back = iso.are_isomorphic(relabeled, D)
    assert fwd.isomorphic and back.isomorphic
    inv = [0] * len(fwd.bijection)
    for i, j in enumerate(fwd.bijection):
        inv[j] = i
    assert relabeled.relabel(inv) == D
    assert relabeled.relabel(back.bijection) == D


# ---------------------------------------------------------------------------
# class partition


def test_iso_classes_repeated_design():
    classes = iso.iso_classes([FANO, FANO, FANO])
    assert classes == [[0, 1, 2]]


def test_iso_classes_mixed():
    rng = random.Random(5)
    relabeled, _ = _random_relabel(FANO, rng)
    complete = dz.Design(7, list(combinations(range(7), 3)))
    classes = iso.iso_classes([complete, FANO, relabeled])
    assert classes == [[1, 2], [0]] or classes == [[0], [1, 2]]


def test_iso_classes_input_order_invariant(psl33):
    D = dz.from_base_block(psl33, BASE_BLOCK_LAMBDA3)
    rng = random.Random(6)
    r1, _ = _random_relabel(D, rng)
    r2, _ = _random_relabel(D, rng)
    complete = dz.Design(144, [tuple(range(12)), tuple(range(6, 18))])
    a = iso.iso_classes([D, r1, complete, r2])
    partition_a = {frozenset((0, 1, 3)), frozenset((2,))}
    assert {frozenset(c) for c in a} == partition_a
    b = iso.iso_classes([complete, r2, r1, D])
    assert {frozenset(c) for c in b} == {frozenset((1, 2, 3)), frozenset((0,))}
    # each class lists its members in input order
    assert all(cls == sorted(cls) for cls in a + b)


def test_iso_classes_reuses_a_learned_bijection(monkeypatch):
    # D and E have trivial automorphism groups, so the one bijection between
    # D and pi(D) is pi, and it maps E onto pi(E) with no second search
    rng = random.Random(12)
    triples = list(combinations(range(7), 3))
    rigid = []
    while len(rigid) < 2:
        D = dz.Design(7, rng.sample(triples, 6))
        autos = sum(D.relabel(pi) == D for pi in permutations(range(7)))
        if autos == 1 and all(iso.fingerprint(D) != iso.fingerprint(R) for R in rigid):
            rigid.append(D)
    pi = list(range(7))
    rng.shuffle(pi)
    D, E = rigid
    searches = []
    real = iso._are_isomorphic
    monkeypatch.setattr(iso, "_are_isomorphic", lambda *a: searches.append(1) or real(*a))
    classes = iso.iso_classes([D, E, D.relabel(pi), E.relabel(pi)])
    assert {frozenset(c) for c in classes} == {frozenset((0, 2)), frozenset((1, 3))}
    assert len(searches) == 1


def _counting(monkeypatch, name):
    calls = []
    real = getattr(iso, name)
    monkeypatch.setattr(iso, name, lambda *a: calls.append(1) or real(*a))
    return calls


def test_iso_classes_merges_the_lambda3_pair_by_the_normalizer(psl33, monkeypatch):
    # sigma, the element of N_{S_144}(G) outside G, maps one lambda = 3 block
    # set onto the other, so the kept tier merges them with no backtracking
    pair = [dz.from_base_block(psl33, b) for b in (BASE_BLOCK_LAMBDA3, BASE_BLOCK_LAMBDA3_TWIN)]
    group_less = iso.iso_classes(pair)
    searches = _counting(monkeypatch, "_are_isomorphic")
    assert iso.iso_classes(pair, group=psl33) == group_less == [[0, 1]]
    assert searches == []


def test_iso_classes_runs_the_normalizer_search_only_for_two_designs(psl33, monkeypatch):
    calls = _counting(monkeypatch, "sym_normalizer_gens")
    D = dz.from_base_block(psl33, BASE_BLOCK_LAMBDA3)
    fano = dz.Design(
        7, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
    )
    assert iso.iso_classes([D], group=psl33) == [[0]]
    assert iso.iso_classes([D, fano], group=psl33) == [[1], [0]]  # one of degree 144
    assert calls == []
    assert iso.iso_classes([D, D], group=psl33) == [[0, 1]]
    assert calls == [1]


# an invariant 12-set of the lambda = 3 base block's stabilizer (0-based):
# its psl33 orbit has 468 blocks, and next to the lambda = 3 design's blocks
# they meet the union's blocks in another profile
BASE_BLOCK_SECOND_ORBIT = (4, 10, 34, 41, 55, 67, 85, 99, 115, 122, 136, 142)


def test_iso_classes_group_falls_back_off_one_orbit(psl33, pgl33, monkeypatch):
    # only a design that is exactly one G-orbit of blocks takes the group's
    # short path; a G-invariant union of two orbits and a relabelled orbit
    # take the b x b path, so the partition and every fingerprint are those
    # of the group-less call.  The extension group's lambda = 6 design has
    # the union's v, b and k, so the union, which opens a class, is compared
    D = dz.from_base_block(psl33, BASE_BLOCK_LAMBDA3)
    union = dz.Design(
        144, np.vstack([D.array, dz.from_base_block(psl33, BASE_BLOCK_SECOND_ORBIT).array])
    )
    assert union.b == 936 and _block_map(psl33, union) is None
    assert len(iso.fingerprint(union).block_profile_histogram) == 2
    relabelled, _ = _random_relabel(D, random.Random(14))
    lam6 = dz.from_base_block(pgl33, BASE_BLOCK_LAMBDA6)
    assert lam6.b == 936 and _block_map(psl33, lam6) is None
    designs = [union, relabelled, D, lam6]
    plain = iso.iso_classes(designs)
    fingerprints = {E: iso.fingerprint(E) for E in designs}
    made = []

    class Recorded(iso._Precomp):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(iso, "_Precomp", Recorded)
    assert iso.iso_classes(designs, group=psl33) == plain == [[1, 2], [3], [0]]
    assert {pre.design: pre.group for pre in made} == {
        union: None, relabelled: None, D: psl33, lam6: None
    }
    for pre in made:
        assert pre.fingerprint == fingerprints[pre.design]


def _backtrack(monkeypatch, pre1, pre2):
    """`iso._are_isomorphic(pre1, pre2)`, and every colouring `_refine`
    returned on the way: (points individualized, point colours, block colours)."""
    seen = []
    real = iso._refine

    def recorded(pre, pc, bc, fixed=()):
        out = real(pre, pc, bc, fixed)
        seen.append((fixed, *out))
        return out

    with monkeypatch.context() as m:
        m.setattr(iso, "_refine", recorded)
        return iso._are_isomorphic(pre1, pre2), seen


def _block_map(G, D):
    return pg.block_map(G.images_array(), D.array)


def _grouped(D, G):
    return iso._Precomp(D, G, _block_map(G, D))


def _assert_same_refinements(got, want):
    assert [len(fixed) for fixed, _, _ in got] == [len(fixed) for fixed, _, _ in want]
    for (_, pc, bc), (_, want_pc, want_bc) in zip(got, want):
        assert np.array_equal(pc, want_pc) and np.array_equal(bc, want_bc)


def test_group_path_refines_as_the_group_less_path(psl33, monkeypatch):
    # the two lambda = 3 block sets: refining on one representative per
    # stabilizer orbit gives the group-less colourings at every depth, bit
    # for bit, and so the same bijection
    designs = [
        dz.from_base_block(psl33, base) for base in (BASE_BLOCK_LAMBDA3, BASE_BLOCK_LAMBDA3_TWIN)
    ]
    grouped = [_grouped(D, psl33) for D in designs]
    want_cert, want = _backtrack(monkeypatch, *map(iso._Precomp, designs))
    cert, got = _backtrack(monkeypatch, *grouped)
    assert cert == want_cert and cert.isomorphic
    _assert_same_refinements(got, want)
    # representatives per depth on the first design: G, G_p (order 39), G_pq
    # (order 3), then the trivial group, where every point and block is its own
    reps = {
        len(fixed): tuple(n if isinstance(r, slice) else len(r)
                          for n, (r, _) in zip((144, 468), grouped[0].orbits(fixed)))
        for fixed, _, _ in got[::2]  # the first design's
    }
    assert reps == {0: (1, 1), 1: (8, 16), 2: (52, 160), 3: (144, 468)}


def test_group_path_on_a_point_intransitive_group(psl33, monkeypatch):
    # the stabilizer G_0 of point 0 (order 39, 8 point orbits) and a design
    # that is one of its block orbits, against itself and against a
    # relabelled copy that takes the group-less path
    rows = psl33.images_array()
    stab = np.flatnonzero(rows[:, 0] == 0)
    orders = psl33.element_orders()[stab]
    gens = [psl33.element(int(stab[orders == n][0])) for n in (13, 3)]
    H = pg.GroupTable.generate(gens)
    assert H.order == 39 and len(pg.orbits(H)) == 8
    D = dz.from_base_block(H, BASE_BLOCK_LAMBDA3)
    E, _ = _random_relabel(D, random.Random(15))
    assert D.b == 39 and _block_map(H, D) is not None and _block_map(H, E) is None
    assert len(iso._Precomp(D, H).orbits(())[0][0]) == 8
    for other in (_grouped(D, H), iso._Precomp(E)):
        want_cert, want = _backtrack(monkeypatch, iso._Precomp(D), iso._Precomp(other.design))
        cert, got = _backtrack(monkeypatch, _grouped(D, H), other)
        assert cert == want_cert and cert.isomorphic
        _assert_same_refinements(got, want)


def test_block_key_collision_falls_back(psl33, monkeypatch):
    # weights under which two blocks of D share a key: D takes the b x b
    # path, and the partition is the group-less one.  The normalizer merges
    # the twin with no comparison, so a relabelled twin, which no kept
    # bijection maps onto a visited block set, makes D reach the tiers
    D, twin = (
        dz.from_base_block(psl33, base) for base in (BASE_BLOCK_LAMBDA3, BASE_BLOCK_LAMBDA3_TWIN)
    )
    relabelled, _ = _random_relabel(twin, random.Random(16))
    real = pg._weights
    w = real(D.v).copy()
    p = next(p for p in D.array[0] if p not in D.array[1])
    # one-element arrays: uint64 arithmetic wraps without a warning
    w[[p]] += w[D.array[1]].sum(keepdims=True) - w[D.array[0]].sum(keepdims=True)
    monkeypatch.setattr(pg, "_weights", lambda n: w if n == D.v else real(n))
    assert _block_map(psl33, D) is None
    made = []

    class Recorded(iso._Precomp):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    plain = iso.iso_classes([D, twin, relabelled])
    monkeypatch.setattr(iso, "_Precomp", Recorded)
    assert iso.iso_classes([D, twin, relabelled], group=psl33) == plain == [[0, 1, 2]]
    assert {pre.group for pre in made if pre.design == D} == {None}


def test_class_openers_are_lazy(psl33, monkeypatch):
    # the lambda = 3 pair: the normalizer merges the twin, so no design
    # reaches the tiers and none gets a block map, histograms or a _Precomp
    pair = [dz.from_base_block(psl33, b) for b in (BASE_BLOCK_LAMBDA3, BASE_BLOCK_LAMBDA3_TWIN)]
    made = []
    monkeypatch.setattr(iso, "_Precomp", lambda *args: made.append(args))
    monkeypatch.setattr(iso, "block_map", lambda *args: made.append(args))
    assert iso.iso_classes(pair, group=psl33) == [[0, 1]]
    assert made == []


def test_image_key_collision_falls_back(psl33, monkeypatch):
    # D's last block B swapped for X, a 12-set outside the orbit, under
    # weights that give X the key of B: the block keys are those of the
    # orbit, so only the exact incidence check can find that B is missing
    D = dz.from_base_block(psl33, BASE_BLOCK_LAMBDA3)
    B = D.array[-1]
    p, q = B[-1], next(q for q in range(D.v) if q not in B)
    changed = dz.Design(D.v, np.vstack([D.array[:-1], np.append(B[:-1], q)]))
    assert changed.b == D.b and np.array_equal(changed.array[0], D.array[0])
    real = pg._weights
    w = real(D.v).copy()
    w[q] = w[p]
    monkeypatch.setattr(pg, "_weights", lambda n: w if n == D.v else real(n))
    keys = np.sort(w[changed.array].sum(axis=1))
    assert np.array_equal(keys, np.sort(w[D.array].sum(axis=1))) and len(np.unique(keys)) == D.b
    assert _block_map(psl33, changed) is None
    assert iso.iso_classes([changed, D], group=psl33) == iso.iso_classes([changed, D])


def test_fingerprint_on_the_group_path_builds_no_meet_index(psl33):
    D = dz.from_base_block(psl33, BASE_BLOCKS_LAMBDA12_PAIR[0])
    pre = _grouped(D, psl33)
    assert pre.fingerprint == iso.fingerprint(D)
    assert "meet_index" not in vars(pre)


def test_order_key_sorts_as_block_tuples():
    # same v with mixed k and b, including a design whose blocks start
    # another design's blocks
    rng = random.Random(13)
    designs = [
        dz.Design(8, [tuple(sorted(rng.sample(range(8), k))) for _ in range(rng.randint(1, 6))])
        for k in (2, 3, 4)
        for _ in range(15)
    ]
    designs += [dz.Design(8, D.blocks[:1]) for D in designs[::4]]
    order = sorted(range(len(designs)), key=lambda i: (designs[i].v, designs[i].blocks))
    assert sorted(range(len(designs)), key=lambda i: dz.order_key(designs[i])) == order


def test_flag_transitivity_is_class_invariant(psl33):
    # if D1 ~ D2 via pi and both carry the same abstract action, the stabilizer
    # of a block maps to the stabilizer of its image; spot-check via relabeling
    # by a group element, which preserves the G-action on the nose
    D = dz.from_base_block(psl33, BASE_BLOCK_LAMBDA3)
    g = psl33.element(17)
    mapped = D.relabel(g.images)
    assert mapped == D
    assert dz.is_flag_transitive(psl33, mapped) == dz.is_flag_transitive(psl33, D)


def test_fingerprint_mismatch_implies_no_bijection_brute_force():
    # exhaustively confirm on a desk-size pair: mismatched fingerprints really
    # do mean no bijection exists
    from itertools import permutations

    D1 = dz.Design(5, [(0, 1, 2), (0, 3, 4)])
    D2 = dz.Design(5, [(0, 1, 2), (0, 1, 3)])
    assert iso.fingerprint(D1) != iso.fingerprint(D2)
    blocks2 = set(D2.blocks)
    for pi in permutations(range(5)):
        mapped = {tuple(sorted(pi[p] for p in blk)) for blk in D1.blocks}
        assert mapped != blocks2
    cert = iso.are_isomorphic(D1, D2)
    assert not cert.isomorphic
