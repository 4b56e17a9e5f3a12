from __future__ import annotations

import ast
import hashlib
import json
import random
import time
from collections import Counter
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest

from designforge import data_path
from designforge import design as dz
from designforge import permgroup as pg

from conftest import BASE_BLOCK_LAMBDA3, BASE_BLOCK_LAMBDA3_TWIN, BASE_BLOCK_LAMBDA6


# ---------------------------------------------------------------------------
# cycle notation


def test_parse_empty_is_identity():
    assert pg.parse_cycles("", 5).is_identity()
    assert pg.parse_cycles("()", 5).is_identity()


def test_parse_two_transpositions():
    p = pg.parse_cycles("(1,2)(3,5)", 5)
    assert p.images == (1, 0, 4, 3, 2)


def test_print_canonical():
    assert pg.print_cycles(pg.identity(4)) == "()"
    p = pg.Permutation((1, 0, 4, 3, 2))
    assert pg.print_cycles(p) == "(1,2)(3,5)"
    # canonical form: cycles sorted by smallest element, starting at it
    q = pg.parse_cycles("(5,3)(2,1)", 5)
    assert pg.print_cycles(q) == "(1,2)(3,5)"


@pytest.mark.parametrize(
    "bad",
    ["(1,2", "(0,1)", "(1,6)", "(1,2)(2,3)", "(1,1)", "(1,x)", "1,2"],
)
def test_parse_errors(bad):
    with pytest.raises((pg.CycleFormatError, ValueError)):
        pg.parse_cycles(bad, 5)


def test_generator_files_round_trip():
    for name in ("psl33.gens", "pgl33.gens"):
        degree, gens = pg.load_generators(data_path(name))
        assert degree == 144
        for g in gens:
            assert pg.parse_cycles(pg.print_cycles(g), degree) == g


def test_random_round_trip_degree_144():
    rng = random.Random(20240801)
    for _ in range(1000):
        images = list(range(144))
        rng.shuffle(images)
        p = pg.Permutation(tuple(images))
        assert pg.parse_cycles(pg.print_cycles(p), 144) == p


def test_bijection_enforced():
    with pytest.raises(ValueError):
        pg.Permutation((0, 0, 1))


def test_compose_inverse_identity():
    rng = random.Random(7)
    for _ in range(20):
        images = list(range(30))
        rng.shuffle(images)
        p = pg.Permutation(tuple(images))
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()


# ---------------------------------------------------------------------------
# group generation


def test_generate_sym3(sym3):
    assert sym3.order == 6
    assert sym3.degree == 3


def test_generate_requires_common_degree():
    with pytest.raises(ValueError):
        pg.GroupTable.generate([pg.parse_cycles("(1,2)", 3), pg.parse_cycles("(1,2)", 4)])


def test_generate_cap():
    gens = [pg.parse_cycles("(1,2)", 5), pg.parse_cycles("(1,2,3,4,5)", 5)]
    with pytest.raises(pg.CapExceededError):
        pg.GroupTable.generate(gens, cap=50)


def test_generate_order_independent(sym4):
    shuffled = pg.GroupTable.generate(list(sym4.generators)[::-1])
    assert shuffled.order == sym4.order
    assert (shuffled.images_array() == sym4.images_array()).all()


def test_psl33_order(psl33):
    assert psl33.order == 5616
    assert len(pg.orbits(psl33)) == 1


def test_pgl33_order(pgl33):
    assert pgl33.order == 11232
    assert len(pg.orbits(pgl33)) == 1


def test_shipped_labellings_differ(psl33, pgl33):
    # the two generator files label the 144 points differently, so their
    # element tables share the identity row only; a relabelling of either
    # file that makes PSL(3,3) a subgroup of the extension must update this
    psl_rows = {row.tobytes() for row in psl33.images_array()}
    shared = [row for row in pgl33.images_array() if row.tobytes() in psl_rows]
    assert len(shared) == 1
    assert (shared[0] == np.arange(144)).all()


def test_index_arithmetic(sym4):
    T = sym4.mul_table()
    inv = sym4.inverse_indices()
    els = [sym4.element(i) for i in range(sym4.order)]
    everything = np.arange(sym4.order)
    # row i, column j: els[i] * els[j], and els[j]^-1 els[i] els[j]
    products = sym4.mul(everything[:, None], everything)
    conjugates = sym4.conj(everything[:, None], everything)
    assert products.dtype == conjugates.dtype == np.uint16
    for i in range(sym4.order):
        for j in range(sym4.order):
            assert sym4.element(int(T[i, j])) == els[i] * els[j]
            assert sym4.element(int(products[i, j])) == els[i] * els[j]
            assert sym4.mul(i, j) == products[i, j]
            assert sym4.element(int(conjugates[i, j])) == els[j].inverse() * els[i] * els[j]
            assert sym4.conj(i, j) == conjugates[i, j]
        assert (els[i] * sym4.element(int(inv[i]))).is_identity()
    # the least element of each right coset H*y, on one subgroup of each class
    ys = everything[::5]
    for m in (1, 2, 3, 4, 6, 8, 12, 24):
        for sub in pg.subgroups_of_order(sym4, m):
            least = [min(sym4.index_of(els[h] * y) for h in sub.indices) for y in els]
            H = np.array(sub.indices)
            assert sym4.coset_least(H).tolist() == least
            assert sym4.coset_least(H, ys).tolist() == least[::5]


def test_coset_least_in_several_row_blocks(monkeypatch, psl33):
    # 3 rows of the table per block, so the point stabilizer (order 39)
    # is read in 13 blocks; the result is the one-block column minimum
    T = psl33.mul_table()
    H = np.array(pg.set_stabilizer(psl33, [0]).indices)
    ys = np.arange(0, psl33.order, 7)
    assert len(H) == 39
    whole, some = T[H].min(axis=0), T[np.ix_(H, ys)].min(axis=0)
    monkeypatch.setattr(pg, "_GATHER_BYTES", 3 * T[0].nbytes)
    assert (psl33.coset_least(H) == whole).all()
    assert (psl33.coset_least(H, ys) == some).all()
    monkeypatch.setattr(pg, "_GATHER_BYTES", 1)  # one row per block
    assert (psl33.coset_least(H, ys) == some).all()


def test_only_the_product_methods_read_the_multiplication_table():
    # the dense table is the one backend of mul, conj and coset_least, so a
    # new backend (products from base images) changes those three bodies only
    def readers(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from readers(child, where + (child.name,))
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")
                if name == "mul_table":
                    yield ".".join(where)
            if isinstance(child, ast.Attribute) and child.attr == "_mul_table":
                assert where[1:] in {("GroupTable", "__init__"), ("GroupTable", "mul_table")}
            yield from readers(child, where)

    found = {}
    for path in sorted(Path(pg.__file__).parent.glob("*.py")):
        for where in readers(ast.parse(path.read_text()), (path.stem,)):
            found[where] = found.get(where, 0) + 1
    assert found == {
        "permgroup.GroupTable.mul": 1,
        "permgroup.GroupTable.conj": 1,
        "permgroup.GroupTable.coset_least": 1,
    }


def test_element_lookup_above_degree_255():
    # the dihedral group of order 600 on 300 points has uint16 rows with
    # images above 255, whose little-endian bytes do not sort as the images do
    n = 300
    rotation = pg.Permutation(tuple((i + 1) % n for i in range(n)))
    reflection = pg.Permutation(tuple(-i % n for i in range(n)))
    G = pg.GroupTable.generate([rotation, reflection])
    rows = G.images_array()
    assert G.order == 600 and rows.dtype == np.uint16
    assert (np.lexsort(rows.T[::-1]) == np.arange(G.order)).all()
    assert all(G.index_of(G.element(i)) == i for i in range(G.order))
    T = G.mul_table()
    rng = random.Random(600)
    a = np.array([rng.randrange(G.order) for _ in range(300)])
    b = np.array([rng.randrange(G.order) for _ in range(300)])
    products, conjugates = G.mul(a, b), G.conj(a, b)
    for x, y, xy, yxy in zip(a.tolist(), b.tolist(), products.tolist(), conjugates.tolist()):
        assert G.element(int(T[x, y])) == G.element(x) * G.element(y)
        assert G.element(xy) == G.element(x) * G.element(y)
        assert G.element(yxy) == G.element(y).inverse() * G.element(x) * G.element(y)
    # coset_least on the cyclic subgroup of the rotation, closed by Permutation products
    H, p = [0], rotation
    while not p.is_identity():
        H.append(G.index_of(p))
        p = p * rotation
    H = np.array(sorted(H))
    ys = np.array(sorted(rng.sample(range(G.order), 50)))
    least = [min(G.index_of(G.element(h) * G.element(y)) for h in H.tolist()) for y in ys.tolist()]
    assert G.coset_least(H, ys).tolist() == least


def test_index_of_rejects_non_members(psl33):
    # the reversal is the lexicographically largest permutation, so it sorts
    # past the last row
    reversal = pg.Permutation(tuple(range(143, -1, -1)))
    assert tuple(psl33.images_array()[-1].tolist()) < reversal.images
    for p in (pg.parse_cycles("(1,2)", 144), reversal, pg.identity(145)):
        with pytest.raises(ValueError, match="not an element"):
            psl33.index_of(p)


@pytest.mark.parametrize("group", ["sym4", "psl33", "pgl33"])
def test_inverse_indices_invert_every_element(request, group):
    # row inv[i] undoes row i, checked on the image rows: the inverses
    # themselves come from products, as powers y^(o(y)-1)
    G = request.getfixturevalue(group)
    rows = G.images_array()
    inv = G.inverse_indices()
    composed = np.take_along_axis(rows[inv], rows.astype(np.int64), axis=1)
    assert (composed == np.arange(G.degree)).all()
    assert (inv[inv] == np.arange(G.order)).all()
    if group == "sym4":
        assert (G.mul_table()[np.arange(G.order), inv] == 0).all()


def test_element_orders(sym4):
    orders = Counter(int(o) for o in sym4.element_orders())
    assert orders == {1: 1, 2: 9, 3: 8, 4: 6}


@pytest.mark.parametrize("group, histogram", [
    # the class sizes of L3(3) in the ATLAS, merged by element order
    ("psl33", {1: 1, 2: 117, 3: 728, 4: 702, 6: 936, 8: 1404, 13: 1728}),
    ("pgl33", {1: 1, 2: 351, 3: 728, 4: 936, 6: 2808, 8: 2808, 12: 1872, 13: 1728}),
])
def test_element_order_histograms_pinned(request, group, histogram):
    G = request.getfixturevalue(group)
    assert Counter(int(o) for o in G.element_orders()) == histogram
    assert G.power_table().shape == (max(histogram), G.order)


def test_power_table_rows_are_products(sym4):
    T = sym4.mul_table()
    powers = sym4.power_table()
    assert powers.dtype == np.uint16 and powers.shape == (4, sym4.order)
    cur = np.arange(sym4.order)
    for row in powers:
        assert (row == cur).all()
        cur = T[cur, np.arange(sym4.order)]


# ---------------------------------------------------------------------------
# orbits and stabilizers


def test_orbits_transitive(psl33):
    orbs = pg.orbits(psl33)
    assert len(orbs) == 1 and len(orbs[0]) == 144


def test_orbits_identity_subgroup(psl33):
    singletons = pg.orbits(pg.Subgroup(psl33, (0,)))
    assert len(singletons) == 144
    assert all(len(o) == 1 for o in singletons)


def _orbits_by_definition(H) -> list[tuple[int, ...]]:
    rows = H.images_array()
    found = {tuple(pg.set_orbit(rows, (p,))[:, 0].tolist()) for p in range(rows.shape[1])}
    return sorted(found, key=lambda orb: (len(orb), orb[0]))


def test_orbits_match_set_orbit_definition(psl33, sym5):
    subs = [sub for m in (1, 2, 3, 4, 5, 6, 8, 10, 12, 20, 24, 60, 120)
            for sub in pg.subgroups_of_order(sym5, m)]
    subs += pg.subgroups_of_order(psl33, 18) + [psl33]
    for H in subs:
        assert pg.orbits(H) == _orbits_by_definition(H), repr(H)


def test_set_orbit_matches_definition(psl33, pgl33):
    # the orbit as a plain set of sorted image tuples over every element
    rng = random.Random(7)
    for G in (psl33, pgl33):
        sub = pg.subgroups_of_order(G, 3)[0]
        for rows in (G.images_array(), sub.images_array()):
            for size in (1, 2, 12):
                pts = rng.sample(range(G.degree), size)
                got = [tuple(img) for img in pg.set_orbit(rows, pts).tolist()]
                want = {tuple(sorted(row[p] for p in pts)) for row in rows.tolist()}
                assert got == sorted(want)


def _point_stabilizer_39(psl33) -> pg.GroupTable:
    """G_0 of psl33 as a group of its own: order 39, 8 point orbits."""
    rows = psl33.images_array()
    stab = np.flatnonzero(rows[:, 0] == 0)
    orders = psl33.element_orders()[stab]
    return pg.GroupTable.generate([psl33.element(int(stab[orders == n][0])) for n in (13, 3)])


@pytest.mark.parametrize("name", ["psl33", "stabilizer39", "s4_and_a_fixed_point",
                                  "trivial1", "trivial3"])
def test_pair_orbit_table_brute_force(psl33, name):
    # every pair labelled by its `set_orbit`, orbits numbered in the row-major
    # order of their least pair: the numbering is pinned, not only the partition
    G = {
        "psl33": lambda: pg.GroupTable.from_file(data_path("psl33.gens")),
        "stabilizer39": lambda: _point_stabilizer_39(psl33),
        "s4_and_a_fixed_point": lambda: pg.GroupTable.generate(
            [pg.parse_cycles("(1,2)", 5), pg.parse_cycles("(1,2,3,4)", 5)]
        ),
        "trivial1": lambda: pg.GroupTable.generate([pg.identity(1)]),
        "trivial3": lambda: pg.GroupTable.generate([pg.identity(3)]),
    }[name]()
    v, rows = G.degree, G.images_array()
    want = np.full((v, v), -1, dtype=np.int32)
    sizes = []
    for p, q in combinations(range(v), 2):
        if want[p, q] < 0:
            orbit = pg.set_orbit(rows, (p, q))
            want[orbit[:, 0], orbit[:, 1]] = want[orbit[:, 1], orbit[:, 0]] = len(sizes)
            sizes.append(len(orbit))
    labels, got_sizes = pg.pair_orbit_table(G)
    assert labels.dtype == np.int32 and np.array_equal(labels, want)
    assert got_sizes.dtype == np.int64 and got_sizes.tolist() == sizes
    if name == "stabilizer39":
        assert G.order == 39 and len(pg.orbits(G)) == 8 and len(sizes) == 274


def test_orbit_lengths_divide_order(psl33):
    for m in (3, 6):
        for sub in pg.subgroups_of_order(psl33, m):
            for orb in pg.orbits(sub):
                assert sub.order % len(orb) == 0


def test_point_stabilizer_orders(psl33, pgl33):
    assert pg.set_stabilizer(psl33, [0]).order == 39
    assert pg.set_stabilizer(pgl33, [5]).order == 78
    triv = pg.GroupTable.generate([pg.identity(6)])
    assert pg.set_stabilizer(triv, [2]).order == triv.order


def test_orbit_stabilizer_random_points(psl33, pgl33):
    rng = random.Random(99)
    for G in (psl33, pgl33):
        for _ in range(10):
            alpha = rng.randrange(G.degree)
            stab = pg.set_stabilizer(G, [alpha])
            orbit = next(o for o in pg.orbits(G) if alpha in o)
            assert stab.order * len(orbit) == G.order


def test_set_stabilizer_whole_set(sym4):
    assert pg.set_stabilizer(sym4, range(4)).order == sym4.order


def test_set_stabilizer_reference_blocks(psl33, pgl33):
    assert pg.set_stabilizer(psl33, BASE_BLOCK_LAMBDA3).order == 12
    assert pg.set_stabilizer(pgl33, BASE_BLOCK_LAMBDA6).order == 12


def test_set_stabilizer_orbit_relation(psl33):
    rng = random.Random(4)
    for _ in range(5):
        pts = tuple(sorted(rng.sample(range(144), 5)))
        stab = pg.set_stabilizer(psl33, pts)
        # orbit of the set, counted directly
        seen = {pts}
        frontier = [pts]
        rows = [g.images for g in psl33.generators]
        while frontier:
            nxt = []
            for cur in frontier:
                for row in rows:
                    img = tuple(sorted(row[p] for p in cur))
                    if img not in seen:
                        seen.add(img)
                        nxt.append(img)
            frontier = nxt
        assert stab.order * len(seen) == psl33.order


# ---------------------------------------------------------------------------
# subgroup enumeration


def _conjugates(G: pg.GroupTable, H) -> np.ndarray:
    """Row g holds the sorted indices of g^-1 H g, for every element g of G."""
    T = G.mul_table()
    g = np.arange(G.order, dtype=np.int64)[:, None]
    conj = T[T[G.inverse_indices()[g], np.asarray(H, dtype=np.int64)], g]
    return np.sort(conj, axis=1)


def _least_conjugate(G: pg.GroupTable, H) -> tuple[int, ...]:
    return min(map(tuple, _conjugates(G, H).tolist()))


def _brute_force_class_counts(G: pg.GroupTable) -> Counter:
    """Exhaustive subset-closure oracle: every subgroup of S4 is 2-generated."""
    seen: set[tuple[int, ...]] = set()
    T = G.mul_table()
    for i in range(G.order):
        for j in range(i, G.order):
            elems = {0, i, j}
            while True:
                new = {int(T[a, b]) for a in elems for b in elems} - elems
                if not new:
                    break
                elems |= new
            seen.add(tuple(sorted(elems)))
    return Counter(len(H) for H in {_least_conjugate(G, sub) for sub in seen})


def test_subgroups_of_order_s4_against_oracle(sym4):
    oracle = _brute_force_class_counts(sym4)
    T = sym4.mul_table()
    for m in (2, 3, 4, 6, 8, 12):
        found = pg.subgroups_of_order(sym4, m)
        assert len(found) == oracle[m], f"m={m}"
        for sub in found:
            idx = np.array(sub.indices)
            assert sub.order == m
            assert np.isin(T[np.ix_(idx, idx)], idx).all()


def test_subgroups_of_order_trivial(sym4):
    subs = pg.subgroups_of_order(sym4, 1)
    assert len(subs) == 1 and subs[0].order == 1


def test_subgroups_of_order_nondivisor_warns(sym4):
    with pytest.warns(UserWarning):
        assert pg.subgroups_of_order(sym4, 5) == []


def test_psl33_order3_classes_against_cyclic_oracle(psl33):
    found = pg.subgroups_of_order(psl33, 3)
    # oracle: the least conjugate of every cyclic order-3 subgroup
    orders = psl33.element_orders()
    T = psl33.mul_table()
    cyclics = {
        tuple(sorted((0, y, int(T[y, y])))) for y in range(psl33.order) if orders[y] == 3
    }
    assert len(found) == len({_least_conjugate(psl33, H) for H in cyclics})


def _small_generating_set(T, H: tuple[int, ...]) -> tuple[int, ...]:
    """Greedy generators of the subgroup H: add an element until they close to H."""
    gens: list[int] = []
    span = {0}
    for x in H:
        if x in span:
            continue
        gens.append(x)
        while True:
            new = {int(T[a, g]) for a in span for g in gens} - span
            if not new:
                break
            span |= new
    assert span == set(H)
    return tuple(gens)


def _normalizer_by_definition(G: pg.GroupTable, H: tuple[int, ...]) -> list[int]:
    return np.flatnonzero((_conjugates(G, H) == H).all(axis=1)).tolist()


@pytest.mark.parametrize(
    "group, orders",
    [("sym4", (1, 2, 3, 4, 6, 8, 12, 24)), ("psl33", (6, 18))],
)
def test_normalizing_matches_definition(request, group, orders):
    G = request.getfixturevalue(group)
    T = G.mul_table()
    everything = np.arange(G.order, dtype=np.int64)
    for m in orders:
        classes = pg.subgroups_of_order(G, m)
        assert classes
        for sub in classes:
            in_H = np.zeros(G.order, dtype=bool)
            in_H[list(sub.indices)] = True
            gens = _small_generating_set(T, sub.indices)
            got = pg._normalizing(G, in_H, gens, everything)
            expected = _normalizer_by_definition(G, sub.indices)
            assert [int(x) for x in got] == expected
            assert list(pg.normalizer(sub).indices) == expected


def test_kept_normalizers_match_definition(psl33):
    rng = random.Random(18)
    pg.subgroups_of_order(psl33, 18)
    for m in (6, 9, 18):
        for sub in pg.subgroups_of_order(psl33, m):
            assert sub.indices in _kept_normalizers(psl33)
            expected = _normalizer_by_definition(psl33, sub.indices)
            assert list(pg.normalizer(sub).indices) == expected
            # a conjugate other than the least member is not kept: the fallback
            conj = rng.choice([H for H in map(tuple, _conjugates(psl33, sub.indices).tolist())
                               if H != sub.indices])
            other = pg.Subgroup(psl33, conj)
            assert conj not in _kept_normalizers(psl33)
            assert list(pg.normalizer(other).indices) == _normalizer_by_definition(psl33, conj)


@pytest.mark.parametrize("group, classes", [("sym5", 7), ("psl33", 12)])
def test_class_labels_are_least_conjugates(request, group, classes):
    G = request.getfixturevalue(group)
    T = G.mul_table()
    inv = G.inverse_indices()
    least = np.arange(G.order)
    for g in range(G.order):
        np.minimum(least, T[T[inv[g]], g], out=least)
    labels = pg._class_labels(G)
    assert (labels == least).all()
    assert len(np.unique(labels)) == classes
    assert pg._class_labels(G) is labels  # computed once per group


@pytest.mark.parametrize("group, m", [("psl33", 6), ("psl33", 18), ("pgl33", 6)])
def test_class_representatives_are_least_conjugates(request, group, m):
    # a class has one least member, so distinct least members are pairwise
    # non-conjugate
    G = request.getfixturevalue(group)
    reps = [sub.indices for sub in pg.subgroups_of_order(G, m)]
    assert reps and len(set(reps)) == len(reps)
    for H in reps:
        assert _least_conjugate(G, H) == H


def _class_digest(subs: list[pg.Subgroup]) -> str:
    return hashlib.sha256(json.dumps([s.indices for s in subs]).encode()).hexdigest()


# (group, m, classes, sha256 of json.dumps of the representative index tuples)
SUBGROUP_CLASS_HASHES = [
    ("psl33", 2, 1, "78538adbd1931183c822025887f44029213564f38b498d7984f344d339d4966c"),
    ("psl33", 3, 2, "15741296679aa4e7135cc293a3c0640527206dfe67996427bbb36a77683c8f4e"),
    ("psl33", 4, 2, "62f2770fea3655a83cf74b422e44a590e68930953ecaab7e279f6d21194df03a"),
    ("psl33", 6, 4, "ab4e714834b76e65b21915eeaeffdb7287f23402e41a85c832934559863ef5ef"),
    ("psl33", 8, 3, "363a82f2865ac91fd02a62cf7a3961b41699a91665667633e08c6bcf52ca62eb"),
    ("psl33", 9, 3, "725cfeb0cc129207f6b013e84627747acc33eb0c5797b7488a4116152b20c2aa"),
    ("psl33", 12, 2, "36f38abc8603b77c875d58417ef9fcf659ffde8ea2c139d5c573908b41290b81"),
    ("psl33", 13, 1, "5381fd6de9ecd8b74a37e2a06693c7137bd4357b6bebb14f9d2a13f7dd5fddda"),
    ("psl33", 16, 1, "a5a60eb5ab94482bfcf1e4667a8807ae534dac5bf7914842219bd13533df9165"),
    ("psl33", 18, 5, "e254014f8d0045f5483268b8724118ff1aed40fb0cd98585dc553dcec3c7c2cd"),
    ("psl33", 24, 2, "e6175aa1986c2aa0b20f3b569727477cc2096fce09b43557bf17ba34850937b0"),
    ("psl33", 26, 0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    ("psl33", 27, 1, "9e9cb607b81cd5464644fce0cf306e3b7418fe11365e36125d35b01199889330"),
    ("psl33", 36, 4, "08f31ef1546e7e0c98586d335f71c6a39b1a9d934bc46c931640bcb016875a64"),
    ("psl33", 39, 1, "f1987897692b846c412a25f6f72af4f7887461586f5c8ca1ee0d57a783fa1f09"),
    ("psl33", 52, 0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    ("psl33", 54, 3, "6be60ce4ac731122e2592e29cddfef1d9751a898a7a2aea0edb392020df382b9"),
    ("pgl33", 6, 6, "c4dd79186bad90711dfba07ef48ff00abc7175cada6c09dded4a58833ffe841d"),
    ("pgl33", 12, 5, "274fa1031dfd65ed1f6b6cac278a203db7574ab3ed25f0acac6a055dd82dbda6"),
    ("pgl33", 18, 5, "072f192d82063c9118ce29d7eebc9e37df5b0089fa99c6ee1137037dc294e852"),
    ("pgl33", 24, 5, "02b14084141ec99176f26aa5cf4e82ef5ef096ed5cdb304abb1ebc71dd798aef"),
    ("pgl33", 36, 3, "e9a114b47cc5ee77894c65c516915ca6948060c0444116ef6c4f7ebb4dbd6b7a"),
]


@pytest.mark.parametrize(
    "group, m, count, digest",
    SUBGROUP_CLASS_HASHES,
    ids=[f"{g}-{m}" for g, m, _, _ in SUBGROUP_CLASS_HASHES],
)
def test_subgroup_class_representatives_pinned(request, group, m, count, digest):
    subs = pg.subgroups_of_order(request.getfixturevalue(group), m)
    assert len(subs) == count
    assert _class_digest(subs) == digest


@pytest.fixture(scope="module")
def sym5() -> pg.GroupTable:
    gens = [pg.parse_cycles("(1,2)", 5), pg.parse_cycles("(1,2,3,4,5)", 5)]
    return pg.GroupTable.generate(gens)


def _two_generated_class_reps(G: pg.GroupTable) -> set[tuple[int, ...]]:
    """Least member of the class of every <a, b>, a running over one element of
    each conjugacy class and b over the whole group: every subgroup of S5
    (so of S4) is 2-generated, and <x, y>^g = <x^g, y^g> lets x be a class representative."""
    T = G.mul_table()
    inv = G.inverse_indices()
    everything = np.arange(G.order, dtype=np.int64)
    class_reps = {int(T[T[inv, x], everything].min()) for x in range(G.order)}
    subs = set()
    for a in class_reps:
        for b in range(G.order):
            elems = {0}
            frontier = [0]
            while frontier:
                new = {int(T[w, g]) for w in frontier for g in (a, b)} - elems
                elems |= new
                frontier = list(new)
            subs.add(tuple(sorted(elems)))
    return {_least_conjugate(G, H) for H in subs}


def test_subgroups_of_order_s5_against_oracle(sym5):
    # m = 60 and 120 take the unrestricted closure (A5 has order 60); m = 30
    # has three primes but only solvable groups divide it
    oracle = _two_generated_class_reps(sym5)
    assert len(oracle) == 19
    for m in (1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 24, 30, 40, 60, 120):
        found = [sub.indices for sub in pg.subgroups_of_order(sym5, m)]
        assert found == sorted(H for H in oracle if len(H) == m), f"m={m}"
    assert pg.subgroups_of_order(sym5, 30) == []
    assert pg.subgroups_of_order(sym5, 40) == []


# The tests below build fresh groups: the session fixtures' stored lattices
# depend on which tests ran before.


def _divisors(m: int) -> list[int]:
    return [d for d in range(2, m + 1) if m % d == 0]


@pytest.mark.parametrize("n, first", [(4, 24), (5, 120), (5, 60), (5, 40)])
def test_first_call_fills_every_divisor(n, first):
    # S_n from (1,2) and (1,2,...,n); S4 and S5 have no subgroup of order 40
    cycle = "(" + ",".join(str(i) for i in range(1, n + 1)) + ")"
    G = pg.GroupTable.generate([pg.parse_cycles("(1,2)", n), pg.parse_cycles(cycle, n)])
    oracle = _two_generated_class_reps(G)
    pg.subgroups_of_order(G, first)
    assert sorted(G._subgroup_classes) == _divisors(first)
    for d in _divisors(first):
        found = [sub.indices for sub in pg.subgroups_of_order(G, d)]
        assert found == sorted(H for H in oracle if len(H) == d), f"d={d}"


@pytest.mark.parametrize("sequence", [(18, 12, 9, 6), (6, 9, 12, 18), (54,), (36,)])
def test_stored_lattice_matches_pins_in_any_call_order(sequence):
    pins = {m: (count, digest) for g, m, count, digest in SUBGROUP_CLASS_HASHES if g == "psl33"}
    G = pg.GroupTable.from_file(data_path("psl33.gens"))
    filled: set[int] = set()
    for m in sequence:
        subs = pg.subgroups_of_order(G, m)
        assert (len(subs), _class_digest(subs)) == pins[m]
        filled.update(_divisors(m))
        assert set(G._subgroup_classes) == filled
    # every order the calls filled in, read back from the stored lattice
    for d in sorted(filled):
        subs = pg.subgroups_of_order(G, d)
        assert (len(subs), _class_digest(subs)) == pins[d], f"d={d}"


def _snapshot(G: pg.GroupTable) -> dict:
    return {d: [(least.tolist(), gens) for least, gens, _ in recs]
            for d, recs in G._subgroup_classes.items()}


def _kept_normalizers(G: pg.GroupTable) -> dict:
    return {tuple(least.tolist()): N.tolist()
            for recs in G._subgroup_classes.values() for least, _, N in recs}


# (group, call sequence, sha256 of json.dumps of the stored lattice records,
# least member and generators of every class, by ascending order)
LATTICE_RECORD_HASHES = [
    ("psl33", (18, 12), "e815c780a53dc0e6341e35a62201609b5cb8c201d13c04f1f033398b6f8451c3"),
    ("pgl33", (36, 24), "9cf6415a26f6c919f63bfcbe056c8a9d92f07205135e4de35d8e544bdf41e1e2"),
]


@pytest.mark.parametrize("group, sequence, digest", LATTICE_RECORD_HASHES,
                         ids=[g for g, _, _ in LATTICE_RECORD_HASHES])
def test_stored_lattice_records_pinned(group, sequence, digest):
    # the generators depend on which representative of each class is stored
    # and extended, so this pins more than the least members do
    G = pg.GroupTable.from_file(data_path(group + ".gens"))
    for m in sequence:
        pg.subgroups_of_order(G, m)
    records = sorted(_snapshot(G).items())
    assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == digest


def _counting(monkeypatch, fail_at: int | None = None) -> list[int]:
    """Count pg._row_keys calls (one per class gathered, to pick its least
    conjugate); raise on call fail_at."""
    calls = [0]
    inner = pg._row_keys

    def counted(a):
        calls[0] += 1
        if calls[0] == fail_at:
            raise RuntimeError("interrupted")
        return inner(a)

    monkeypatch.setattr(pg, "_row_keys", counted)
    return calls


def test_stored_order_needs_no_gather(monkeypatch):
    G = pg.GroupTable.from_file(data_path("psl33.gens"))
    pg.subgroups_of_order(G, 18)
    calls = _counting(monkeypatch)
    assert len(pg.subgroups_of_order(G, 9)) == 3
    assert len(pg.subgroups_of_order(G, 6)) == 4
    assert calls[0] == 0
    # order 12 is new; only its classes of orders 4 and 12 are gathered
    assert len(pg.subgroups_of_order(G, 12)) == 2
    assert calls[0] == 2 + 2


def test_interrupted_run_leaves_lattice_unchanged(monkeypatch):
    pins = {m: digest for g, m, _, digest in SUBGROUP_CLASS_HASHES if g == "psl33"}
    G = pg.GroupTable.from_file(data_path("psl33.gens"))
    pg.subgroups_of_order(G, 6)
    before = _snapshot(G)
    normalizers_before = _kept_normalizers(G)
    assert len(normalizers_before) == sum(len(recs) for recs in before.values())
    # 18 after 6 gathers 3 classes of order 9 and 5 of order 18: fail mid-way
    calls = _counting(monkeypatch, fail_at=5)
    with pytest.raises(RuntimeError, match="interrupted"):
        pg.subgroups_of_order(G, 18)
    assert calls[0] == 5
    assert _snapshot(G) == before
    assert _kept_normalizers(G) == normalizers_before
    monkeypatch.undo()
    for m in (18, 9):
        assert _class_digest(pg.subgroups_of_order(G, m)) == pins[m]


def test_subgroups_of_order_78_is_fast_and_empty(psl33):
    # 78 = 2*3*13 has three primes: the unrestricted closure with a lattice
    # that kept every conjugate took 102 s on 2 vCPUs; only solvable groups
    # divide 78, so it now takes the normalizing route
    t0 = time.perf_counter()
    assert pg.subgroups_of_order(psl33, 78) == []
    assert time.perf_counter() - t0 < 10.0


def test_lagrange_on_enumerated_subgroups(psl33):
    for m in (2, 3, 4, 6, 9, 12):
        for sub in pg.subgroups_of_order(psl33, m):
            assert psl33.order % sub.order == 0


def _brute_normalizer(G: pg.GroupTable) -> set[bytes]:
    """Every permutation s of the points with s^-1 g s in G for each generator g."""
    members = {row.tobytes() for row in G.images_array()}
    gens = [np.array(g.images) for g in G.generators]
    found = set()
    for s in permutations(range(G.degree)):
        s = np.array(s, dtype=G.images_array().dtype)
        s_inv = np.argsort(s).astype(s.dtype)
        if all(s[g[s_inv]].tobytes() in members for g in gens):
            found.add(s.tobytes())
    return found


@pytest.mark.parametrize(
    "degree, cycles, index",
    [
        (4, ("(1,2,3)", "(2,3,4)"), 2),  # A4
        (5, ("(1,2,3,4,5)", "(2,5)(3,4)"), 2),  # D5
        (7, ("(1,2,3,4,5,6,7)",), 6),  # C7
        # S3 acting regularly: Out(S3) = 1, so all of it is the centralizer
        (6, ("(1,2)(3,4)(5,6)", "(1,3,5)(2,6,4)"), 6),
        # PSL(3,2): its outer automorphism swaps points and lines, so it
        # maps the point stabilizer to a subgroup that fixes no point
        (7, ("(1,2,3,4,5,6,7)", "(3,5)(6,7)"), 1),
    ],
    ids=["A4", "D5", "C7", "S3-regular", "PSL(3,2)"],
)
def test_sym_normalizer_gens_brute_force(degree, cycles, index):
    G = pg.GroupTable.generate([pg.parse_cycles(c, degree) for c in cycles])
    N = _brute_normalizer(G)
    assert len(N) == index * G.order
    sigmas = pg.sym_normalizer_gens(G)
    assert not any(s in G for s in sigmas)
    closure = pg.GroupTable.generate(list(G.generators) + list(sigmas))
    assert {row.tobytes() for row in closure.images_array()} == N
    assert pg.sym_normalizer_gens(G) is sigmas  # kept on the group


def test_sym_normalizer_gens_intransitive():
    G = pg.GroupTable.generate([pg.parse_cycles("(1,2)", 5), pg.parse_cycles("(3,4,5)", 5)])
    assert len(_brute_normalizer(G)) == 2 * G.order
    assert pg.sym_normalizer_gens(G) == ()


def test_sym_normalizer_gens_shipped_groups(psl33, pgl33):
    # psl33's normalizer is the extension by the graph automorphism, of
    # order 11232, and sigma swaps the two lambda = 3 block sets; pgl33 is
    # its own normalizer
    (sigma,) = pg.sym_normalizer_gens(psl33)
    assert sigma not in psl33
    assert pg.GroupTable.generate(list(psl33.generators) + [sigma]).order == 11232
    twin = dz.from_base_block(psl33, BASE_BLOCK_LAMBDA3_TWIN)
    assert dz.from_base_block(psl33, BASE_BLOCK_LAMBDA3).relabel(sigma.images) == twin
    assert pg.sym_normalizer_gens(pgl33) == ()


def test_group_contains():
    G = pg.GroupTable.generate([pg.parse_cycles("(1,2,3)", 4)])
    assert pg.parse_cycles("(1,3,2)", 4) in G
    assert pg.parse_cycles("(1,2)", 4) not in G
    assert pg.parse_cycles("(1,2)", 3) not in G
