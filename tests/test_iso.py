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

from conftest import BASE_BLOCK_LAMBDA3, BASE_BLOCK_LAMBDA6

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
        "lam": "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
        "intersection_histogram": "0658f1328c37ea317a28fa74b0f8062e2aa4b8df0ff232d31149ffc2dacd8d92",
        "block_profile_histogram": "4cdec38c065acf176847d11a2ea595a416b2e6a741a8614c1a7af428da58254c",
        "pair_coverage_spectrum": "0658f1328c37ea317a28fa74b0f8062e2aa4b8df0ff232d31149ffc2dacd8d92",
        "pair_signature_histogram": "0279dfe02481b06c787ce318a6db5d49a0ffe9bc4cf55e1511d425c8639ae377",
        "stable_color_histogram": "a7ecd8fd9826a394b6a4890f8c64ecddbcf219beb6040c59551f29c695295cf3",
    },
    "lambda3": {
        "v": "5ec1a0c99d428601ce42b407ae9c675e0836a8ba591c8ca6e2a2cf5563d97ff0",
        "b": "1e5ee5e58c8f490ae68e7e91b1575ebefc2bf6c211f302a553ff0c4925e85321",
        "k": "6b51d431df5d7f141cbececcf79edf3dd861c3b4069f0b11661a3eefacbba918",
        "lam": "4e07408562bedb8b60ce05c1decfe3ad16b72230967de01f640b7e4729b49fce",
        "intersection_histogram": "f89bd76878f0e8336286a8445754ee6dddb643c4b8ac530506b09886df71e761",
        "block_profile_histogram": "d7714086f22dd7e8957d116ef6b1ceb20832c82569c8a6a3f161773752c4d91a",
        "pair_coverage_spectrum": "781a636021a3619caaeda9f287809a4787a8658fb21c1924d21871d6d77d0674",
        "pair_signature_histogram": "0c7abab500ca854131eac75e440db41e29577eeab50ba4a496f2ca6e6d8e609c",
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


def test_fingerprint_mismatch_skips_backtracking(psl33, pgl33, monkeypatch):
    def no_search(*args):
        raise AssertionError("backtracking ran on a fingerprint mismatch")

    monkeypatch.setattr(iso, "_are_isomorphic", no_search)
    D1 = dz.from_base_block(psl33, BASE_BLOCK_LAMBDA3)
    D3 = dz.from_base_block(pgl33, BASE_BLOCK_LAMBDA6)
    cert = iso.are_isomorphic(D1, D3)
    assert not cert.isomorphic
    assert cert.mismatch == iso.fingerprint(D1).first_mismatch(iso.fingerprint(D3))


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


def _pair_signatures_by_point(D: dz.Design) -> tuple[np.ndarray, np.ndarray]:
    """Pair coverage and pair signatures by the per-point loop that defines them."""
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
    return cov, S


def test_pair_signatures_match_per_point_definition(psl33):
    designs = [FANO, dz.from_base_block(psl33, BASE_BLOCK_LAMBDA3), *_random_designs(30, 7)]
    for D in designs:
        lam, cov, S = iso._Precomp(D).pairs
        ref_cov, ref_S = _pair_signatures_by_point(D)
        assert np.array_equal(cov, ref_cov)
        assert np.array_equal(S, ref_S)
        assert lam == dz.lambda_of(D, 2)


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
    sig = pre.pairs[2]
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
        first = (iso._row_multiset_hash(pre.pairs[2].view(np.int64)), np.full(D.b, 2, np.uint64))
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
    # entries, more than the 4096 precomputed weights
    D = dz.Design(100, [(0, 1, x) for x in range(2, 100)])
    reversed_D = D.relabel(list(range(99, -1, -1)))
    cert = iso.are_isomorphic(D, reversed_D)
    assert cert.isomorphic
    assert D.relabel(cert.bijection) == reversed_D
    # a longer draw extends the table, so rows of <= 4096 entries hash as before
    assert (iso._weights(5000)[:4096] == iso._RNG_WEIGHTS).all()


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


def test_class_representatives(psl33):
    D = dz.from_base_block(psl33, BASE_BLOCK_LAMBDA3)
    rng = random.Random(7)
    r1, _ = _random_relabel(D, rng)
    designs = [r1, D]
    classes = iso.iso_classes(designs)
    reps = iso.class_representatives(designs, classes)
    assert len(reps) == 1
    assert designs[reps[0]].blocks == min(D.blocks, r1.blocks)


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
