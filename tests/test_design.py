from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from designforge import cli
from designforge import design as dz
from designforge import permgroup as pg
from designforge.screen import x_order

from conftest import BASE_BLOCK_LAMBDA3, BASE_BLOCK_LAMBDA6


# ---------------------------------------------------------------------------
# replication arithmetic


def test_lambda_s_reference_values():
    assert dz.lambda_s(2, 144, 12, 3, 0) == 468
    assert dz.lambda_s(2, 144, 12, 3, 1) == 39
    assert dz.lambda_s(2, 144, 12, 3, 2) == 3  # s = t


def test_lambda_s_fractional():
    assert dz.lambda_s(3, 144, 12, 1, 0) == Fraction(11076, 5)


def test_design_params_consistency():
    t, v, k, lam = 2, 144, 12, 3
    b, gamma = dz.lambda_s(t, v, k, lam, 0), dz.lambda_s(t, v, k, lam, 1)
    assert b == 468 and gamma == 39
    assert b * k == v * gamma
    assert gamma * (k - 1) == lam * (v - 1)
    assert dz.lambda_s(3, 144, 12, 1, 0).denominator != 1  # 3-(144,12,1): lambda_0 not integral


def test_admissible_t_reference():
    assert dz.admissible_t(144, 12, 3, 5616) is False
    assert dz.admissible_t(144, 12, 2, 5616) is True
    assert dz.admissible_t(400, 20, 3, 2 * x_order(4, 7)) is False
    assert dz.admissible_t(121, 11, 3, x_order(5, 3)) is False


def test_admissible_t_numerator_factor():
    ratio = Fraction(1)
    for j in range(3):
        ratio *= Fraction(144 - j, 12 - j)
    assert ratio.numerator % 71 == 0


@pytest.mark.parametrize(
    "v,k,order",
    [(144, 12, 5616), (144, 12, 11232), (400, 20, 2 * x_order(4, 7)), (121, 11, x_order(5, 3))],
)
def test_admissible_t_monotone(v, k, order):
    failed = False
    for t in range(2, k):
        ok = dz.admissible_t(v, k, t, order)
        if failed:
            assert not ok, f"monotonicity broken at t={t}"
        failed = failed or not ok


# ---------------------------------------------------------------------------
# orbit designs


def test_from_base_block_lambda3(psl33):
    D = dz.from_base_block(psl33, BASE_BLOCK_LAMBDA3)
    assert D.b == 468
    assert dz.lambda_of(D, 2) == 3
    assert dz.lambda_of(D, 1) == 39


def test_from_base_block_trivial_group():
    triv = pg.GroupTable.generate([pg.identity(5)])
    D = dz.from_base_block(triv, (2,))
    assert D.b == 1 and D.blocks == ((2,),)


def test_from_base_block_lambda6(pgl33):
    D = dz.from_base_block(pgl33, BASE_BLOCK_LAMBDA6)
    assert D.b == 936
    assert dz.lambda_of(D, 2) == 6


def test_from_base_block_base_independent(psl33):
    D = dz.from_base_block(psl33, BASE_BLOCK_LAMBDA3)
    rng = random.Random(3)
    for blk in rng.sample(D.blocks, 3):
        assert dz.from_base_block(psl33, blk) == D


def test_complete_design_lambda():
    D = dz.Design(5, list(combinations(range(5), 3)))
    assert dz.lambda_of(D, 2) == 3  # C(v-2, k-2)
    assert dz.lambda_of(D, 3) == 1


def test_lambda_of_non_design():
    D = dz.Design(5, [(0, 1, 2), (0, 1, 3)])
    assert dz.lambda_of(D, 2) is None


def test_lambda_of_matches_definition():
    rng = random.Random(11)
    constant = uncovered = 0
    for _ in range(150):
        v = rng.randint(2, 12)
        k = rng.randint(1, min(v, 6))
        every = list(combinations(range(v), k))
        D = dz.Design(v, rng.sample(every, rng.randint(1, min(len(every), 30))))
        for t in range(1, k + 1):
            counts = Counter(sub for blk in D.blocks for sub in combinations(blk, t))
            values = set(counts.values())
            expected = (
                values.pop()
                if len(counts) == math.comb(v, t) and len(values) == 1
                else None
            )
            assert dz.lambda_of(D, t) == expected, (v, k, t, D.blocks)
            constant += expected is not None
            uncovered += len(counts) < math.comb(v, t)
    # the sample reaches both answers, and t-subsets that no block covers
    assert constant and uncovered
    # complete designs cover every t-subset: lambda_t = C(v-t, k-t) for every t
    D = dz.Design(8, list(combinations(range(8), 5)))
    for t in range(1, 6):
        assert dz.lambda_of(D, t) == math.comb(8 - t, 5 - t)


def test_lambda_of_guards():
    D = dz.Design(41, [tuple(range(5))])
    assert dz.lambda_of(D, 3) is None  # v <= 160: triples allowed, not constant
    with pytest.raises(ValueError, match="v <= 40"):
        dz.lambda_of(D, 4)
    with pytest.raises(ValueError, match="v <= 160"):
        dz.lambda_of(dz.Design(161, [tuple(range(5))]), 3)
    with pytest.raises(ValueError, match="1 <= t <= k"):
        dz.lambda_of(D, 6)


def _one_orbit(G, D):
    return pg.block_map(G.images_array(), D.array) is not None


def test_block_transitivity(psl33):
    D1 = dz.from_base_block(psl33, BASE_BLOCK_LAMBDA3)
    assert _one_orbit(psl33, D1)
    # union of two distinct block orbits is not a single orbit
    other_base = next(
        blk
        for blk in (tuple(sorted(b)) for b in combinations(range(13), 12))
        if blk not in set(D1.blocks)
    )
    D_other = dz.from_base_block(psl33, other_base)
    union = dz.Design(144, D1.blocks + D_other.blocks)
    assert not _one_orbit(psl33, union)
    trivial = pg.GroupTable.generate([pg.identity(144)])
    assert not _one_orbit(trivial, D1)


def test_flag_transitivity(psl33, pgl33):
    D1 = dz.from_base_block(psl33, BASE_BLOCK_LAMBDA3)
    assert dz.is_flag_transitive(psl33, D1)
    D3 = dz.from_base_block(pgl33, BASE_BLOCK_LAMBDA6)
    assert dz.is_flag_transitive(pgl33, D3)


def test_counting_identity_on_certified_design(psl33):
    D = dz.from_base_block(psl33, BASE_BLOCK_LAMBDA3)
    lam = dz.lambda_of(D, 2)
    gamma = dz.lambda_of(D, 1)
    assert D.b * D.k == D.v * gamma
    assert gamma * (D.k - 1) == lam * (D.v - 1)


# ---------------------------------------------------------------------------
# canonical form and files


def test_blocks_canonically_sorted():
    D = dz.Design(6, [(5, 1, 3), (2, 0, 4)])
    assert D.blocks == ((0, 2, 4), (1, 3, 5))


def test_duplicate_blocks_collapse():
    D = dz.Design(6, [(0, 1, 2), (2, 1, 0)])
    assert D.b == 1


def test_block_size_mismatch_rejected():
    with pytest.raises(ValueError):
        dz.Design(6, [(0, 1, 2), (0, 1)])


@pytest.mark.parametrize(
    "v,blocks,message",
    [
        (6, [(0, 1, 1)], "distinct points"),
        (6, [(0, 1, 2), (-1, 3, 4)], "out of range"),
        (6, [(0, 1, 6)], "out of range"),
        (6, [], "at least one block"),
        (6, [(0, 1, 2), (3, 4)], "distinct points"),
    ],
    ids=["repeated-point", "negative-point", "point-equal-to-v", "no-blocks", "ragged"],
)
def test_design_validation(v, blocks, message):
    with pytest.raises(ValueError, match=message):
        dz.Design(v, blocks)


def test_design_array_input(psl33):
    rows = pg.set_orbit(psl33.images_array(), BASE_BLOCK_LAMBDA3)
    assert rows.dtype == np.uint8
    D = dz.Design(144, rows)
    assert D == dz.Design(144, rows.tolist())
    assert D == dz.from_base_block(psl33, BASE_BLOCK_LAMBDA3)
    assert hash(D) == hash(dz.Design(144, [tuple(reversed(blk)) for blk in rows.tolist()]))
    assert D.array.dtype == np.int64 and D.array.shape == (D.b, D.k)
    assert not D.array.flags.writeable
    with pytest.raises(ValueError):
        D.array[0, 0] = 1
    assert isinstance(D.blocks, tuple) and all(isinstance(blk, tuple) for blk in D.blocks)
    assert all(type(p) is int for blk in D.blocks for p in blk)
    assert D.incidence().sum(axis=1).tolist() == [D.k] * D.b
    assert D.incidence()[np.arange(D.b)[:, None], D.array].all()


def test_design_array_dtype_contract(psl33):
    # list input, and a group's uint8 (degree 144) and uint16 (degree 300)
    # image rows, which are sorted in their own dtype: each is stored as one
    # read-only int64 array, equal to the design of the same blocks as lists
    cycle = pg.GroupTable.generate([pg.Permutation(tuple((p + 1) % 300 for p in range(300)))])
    rows8 = psl33.images_array()[:, list(BASE_BLOCK_LAMBDA3)]
    rows16 = cycle.images_array()[:, [0, 1, 299]]
    assert (rows8.dtype, rows16.dtype) == (np.uint8, np.uint16)
    for v, blocks, b in ((7, [[2, 1, 0], [6, 5, 3], [0, 2, 1]], 2), (144, rows8, 468),
                         (300, rows16, 300)):
        D = dz.Design(v, blocks)
        assert D.array.dtype == np.int64 and not D.array.flags.writeable and D.b == b
        assert D == dz.Design(v, [list(map(int, blk)) for blk in blocks])


def test_relabel_matches_definition(psl33):
    D = dz.from_base_block(psl33, BASE_BLOCK_LAMBDA3)
    rng = random.Random(5)
    for _ in range(3):
        pi = list(range(144))
        rng.shuffle(pi)
        expected = sorted(tuple(sorted(pi[p] for p in blk)) for blk in D.blocks)
        assert D.relabel(pi).blocks == tuple(expected)
        assert D.relabel(tuple(pi)) == D.relabel(np.array(pi))


def test_design_file_round_trip(tmp_path, psl33):
    D = dz.from_base_block(psl33, BASE_BLOCK_LAMBDA3)
    path = tmp_path / "d1.json"
    meta = {"lambda": 3, "group_file": "psl33.gens"}
    cli._dump_json(path, dz.design_to_dict(D, meta))
    loaded, loaded_meta = dz.load_design(path)
    assert loaded == D
    assert loaded_meta["lambda"] == 3
    # canonical 1-based content
    first = loaded.blocks[0]
    assert min(p for blk in loaded.blocks for p in blk) >= 0
    assert first == tuple(sorted(first))
