from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest

from designforge import data_path
from designforge import permgroup as pg

from conftest import BASE_BLOCK_LAMBDA3, BASE_BLOCK_LAMBDA6


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
    assert psl33.is_transitive()


def test_pgl33_order(pgl33):
    assert pgl33.order == 11232
    assert pgl33.is_transitive()


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
    for i in range(sym4.order):
        for j in range(sym4.order):
            assert sym4.element(int(T[i, j])) == sym4.element(i) * sym4.element(j)
        assert (sym4.element(i) * sym4.element(sym4.inv(i))).is_identity()


def test_element_orders(sym4):
    orders = Counter(int(o) for o in sym4.element_orders())
    assert orders == {1: 1, 2: 9, 3: 8, 4: 6}


# ---------------------------------------------------------------------------
# orbits and stabilizers


def test_orbits_transitive(psl33):
    orbs = pg.orbits(psl33)
    assert len(orbs) == 1 and len(orbs[0]) == 144


def test_orbits_identity_subgroup(psl33):
    singletons = pg.orbits(pg.trivial_subgroup(psl33))
    assert len(singletons) == 144
    assert all(len(o) == 1 for o in singletons)


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


def test_orbit_lengths_divide_order(psl33):
    for m in (3, 6):
        for sub in pg.subgroups_of_order(psl33, m):
            for orb in pg.orbits(sub):
                assert sub.order % len(orb) == 0


def test_point_stabilizer_orders(psl33, pgl33):
    assert pg.point_stabilizer(psl33, 0).order == 39
    assert pg.point_stabilizer(pgl33, 5).order == 78
    triv = pg.GroupTable.generate([pg.identity(6)])
    assert pg.point_stabilizer(triv, 2).order == triv.order


def test_orbit_stabilizer_random_points(psl33, pgl33):
    rng = random.Random(99)
    for G in (psl33, pgl33):
        for _ in range(10):
            alpha = rng.randrange(G.degree)
            stab = pg.point_stabilizer(G, alpha)
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
    inv = G.inverse_indices()
    classes: list[set[tuple[int, ...]]] = []
    for sub in sorted(seen):
        if any(sub in cls for cls in classes):
            continue
        cls = set()
        for g in range(G.order):
            conj = tuple(sorted(int(T[int(T[inv[g], x]), g]) for x in sub))
            cls.add(conj)
        classes.append(cls)
    return Counter(len(next(iter(cls))) for cls in classes)


def test_subgroups_of_order_s4_against_oracle(sym4):
    oracle = _brute_force_class_counts(sym4)
    for m in (2, 3, 4, 6, 8, 12):
        found = pg.subgroups_of_order(sym4, m)
        assert len(found) == oracle[m], f"m={m}"
        for sub in found:
            assert sub.order == m
            assert sub.is_closed()


def test_subgroups_of_order_trivial(sym4):
    subs = pg.subgroups_of_order(sym4, 1)
    assert len(subs) == 1 and subs[0].order == 1


def test_subgroups_of_order_nondivisor_warns(sym4):
    with pytest.warns(UserWarning):
        assert pg.subgroups_of_order(sym4, 5) == []


def test_subgroups_of_order_bound(sym4):
    with pytest.raises(ValueError):
        pg.subgroups_of_order(sym4, 12, size_bound=8)


def test_psl33_order3_classes_against_cyclic_oracle(psl33):
    found = pg.subgroups_of_order(psl33, 3)
    # oracle: partition cyclic order-3 subgroups by conjugacy directly
    orders = psl33.element_orders()
    T = psl33.mul_table()
    inv = psl33.inverse_indices()
    cyclics = set()
    for y in range(psl33.order):
        if orders[y] == 3:
            z = int(T[y, y])
            cyclics.add(tuple(sorted((0, y, z))))
    classes = []
    assigned = set()
    for sub in sorted(cyclics):
        if sub in assigned:
            continue
        cls = {
            tuple(sorted(int(T[int(T[inv[g], x]), g]) for x in sub))
            for g in range(psl33.order)
        }
        assigned |= cls
        classes.append(cls)
    assert len(found) == len(classes)


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
    T = G.mul_table()
    inv = G.inverse_indices()
    arr = np.array(H, dtype=np.int64)
    g = np.arange(G.order, dtype=np.int64)[:, None]
    conj = np.sort(T[T[inv[g], arr[None, :]], g], axis=1)  # row g: sorted g^-1 H g
    return [int(x) for x in np.flatnonzero((conj == arr[None, :]).all(axis=1))]


@pytest.mark.parametrize(
    "group, orders",
    [("sym4", (1, 2, 3, 4, 6, 8, 12, 24)), ("psl33", (6, 18))],
)
def test_normalizing_matches_definition(request, group, orders):
    G = request.getfixturevalue(group)
    T = G.mul_table()
    inv = G.inverse_indices()
    everything = np.arange(G.order, dtype=np.int64)
    for m in orders:
        classes = pg.subgroups_of_order(G, m)
        assert classes
        for sub in classes:
            in_H = np.zeros(G.order, dtype=bool)
            in_H[list(sub.indices)] = True
            gens = _small_generating_set(T, sub.indices)
            got = pg._normalizing(T, inv, in_H, gens, everything)
            assert [int(x) for x in got] == _normalizer_by_definition(G, sub.indices)


def test_lagrange_on_enumerated_subgroups(psl33):
    for m in (2, 3, 4, 6, 9, 12):
        for sub in pg.subgroups_of_order(psl33, m):
            assert psl33.order % sub.order == 0


# ---------------------------------------------------------------------------
# conjugacy


def test_are_conjugate_self(sym4):
    subs = pg.subgroups_of_order(sym4, 4)
    for sub in subs:
        witness = pg.are_conjugate(sym4, sub, sub)
        assert witness is not None


def test_are_conjugate_random_conjugates(psl33):
    rng = random.Random(11)
    subs = pg.subgroups_of_order(psl33, 6)
    T = psl33.mul_table()
    inv = psl33.inverse_indices()
    for sub in subs[:2]:
        g = rng.randrange(psl33.order)
        conj = tuple(sorted(int(T[int(T[inv[g], x]), g]) for x in sub.indices))
        other = pg.Subgroup(psl33, conj)
        witness = pg.are_conjugate(psl33, sub, other)
        assert witness is not None
        w = psl33.index_of(witness)
        image = tuple(sorted(int(T[int(T[inv[w], x]), w]) for x in sub.indices))
        assert image == conj


def test_are_conjugate_distinct_signatures(psl33):
    subs = pg.subgroups_of_order(psl33, 18)
    by_sig = {}
    for sub in subs:
        sig = tuple(sorted(len(o) for o in pg.orbits(sub)))
        by_sig.setdefault(sig, []).append(sub)
    sigs = sorted(by_sig)
    assert len(sigs) == 2
    a = by_sig[sigs[0]][0]
    b = by_sig[sigs[1]][0]
    assert pg.are_conjugate(psl33, a, b) is None
