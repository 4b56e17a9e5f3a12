"""Permutation arithmetic, cycle-notation I/O, exhaustive group materialization,
orbits, stabilizers, and subgroup enumeration.

Points are 0-based internally; all text I/O (cycle notation, generator files)
is 1-based.  Composition is left-to-right: (p * q)(x) = q(p(x)).  Groups are
materialized as full sorted element lists; the enumeration cap guards against
accidental use on groups that are too large for that.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .numtheory import factorize

DEFAULT_CAP = 10_000_000
# order**2 table entries at 2 bytes each; 16000**2 is ~0.5 GB
_MUL_TABLE_MAX_ORDER = 16000


class CapExceededError(RuntimeError):
    """Group closure grew past the configured enumeration cap."""


class CycleFormatError(ValueError):
    """Malformed cycle-notation input."""


# ---------------------------------------------------------------------------
# permutations


@dataclass(frozen=True)
class Permutation:
    """A bijection on {0, ..., degree-1}, stored as its image tuple."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError("images do not form a bijection on 0..degree-1")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: Permutation) -> Permutation:
        """self then other."""
        if other.degree != self.degree:
            raise ValueError("degree mismatch")
        return Permutation(tuple(other.images[i] for i in self.images))

    def inverse(self) -> Permutation:
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest point, sorted."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            nxt = self.images[start]
            while nxt != start:
                cyc.append(nxt)
                seen[nxt] = True
                nxt = self.images[nxt]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def __str__(self) -> str:
        return print_cycles(self)

    def __repr__(self) -> str:
        return f"Permutation({print_cycles(self)!r}, degree={self.degree})"


def identity(degree: int) -> Permutation:
    return Permutation(tuple(range(degree)))


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse 1-based disjoint cycle notation, e.g. "(1,2)(3,5)".

    Whitespace is tolerated anywhere; an empty string (or "()") is the
    identity.  Points must be distinct across the whole expression and lie
    in 1..degree.
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    stripped = re.sub(r"\s+", "", text)
    if not stripped:
        return identity(degree)
    consumed = _CYCLE_RE.sub("", stripped)
    if consumed:
        raise CycleFormatError(f"unbalanced or stray characters: {consumed!r}")
    images = list(range(degree))
    seen: set[int] = set()
    for body in _CYCLE_RE.findall(stripped):
        if not body:
            continue
        try:
            points = [int(tok) for tok in body.split(",")]
        except ValueError as exc:
            raise CycleFormatError(f"bad cycle {body!r}") from exc
        for pt in points:
            if not 1 <= pt <= degree:
                raise CycleFormatError(f"point {pt} out of range 1..{degree}")
            if pt in seen:
                raise CycleFormatError(f"point {pt} repeated")
            seen.add(pt)
        for a, b in zip(points, points[1:] + points[:1]):
            images[a - 1] = b - 1
    return Permutation(tuple(images))


def print_cycles(p: Permutation) -> str:
    """Canonical 1-based cycle notation; the identity prints as "()"."""
    cycles = p.cycles()
    if not cycles:
        return "()"
    return "".join("(" + ",".join(str(pt + 1) for pt in cyc) + ")" for cyc in cycles)


# ---------------------------------------------------------------------------
# generator files

GENS_HEADER_RE = re.compile(r"^degree:\s*(\d+)$")


def load_generators(path: str | Path) -> tuple[int, list[Permutation]]:
    """Read a generator file: `degree: N` then one cycle expression per line."""
    degree = None
    gens: list[Permutation] = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if degree is None:
            m = GENS_HEADER_RE.match(line)
            if not m:
                raise CycleFormatError(f"first line must be 'degree: N', got {line!r}")
            degree = int(m.group(1))
            continue
        gens.append(parse_cycles(line, degree))
    if degree is None:
        raise CycleFormatError(f"{path}: missing 'degree:' header")
    return degree, gens


def write_generators(path: str | Path, degree: int, gens: Sequence[Permutation]) -> None:
    lines = [f"degree: {degree}"] + [print_cycles(g) for g in gens]
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# group tables


def _dtype_for(degree: int) -> np.dtype:
    return np.dtype(np.uint8) if degree <= 255 else np.dtype(np.uint16)


class GroupTable:
    """A finite permutation group materialized as its full sorted element list.

    Elements are identified by their index in the lexicographic ordering of
    image arrays; the identity is always index 0.
    """

    def __init__(self, degree: int, generators: Sequence[Permutation], imgs: np.ndarray):
        self.degree = degree
        self.generators = tuple(generators)
        self._imgs = imgs
        self._imgs.setflags(write=False)
        self.order = int(imgs.shape[0])
        self._index = {imgs[i].tobytes(): i for i in range(self.order)}
        self._mul_table: np.ndarray | None = None
        self._inv: np.ndarray | None = None
        self._orders: np.ndarray | None = None
        self._pair_orbits: tuple[np.ndarray, np.ndarray] | None = None
        self._subgroup_classes: dict[int, list[Subgroup]] = {}

    # -- construction

    @classmethod
    def generate(cls, generators: Sequence[Permutation], cap: int = DEFAULT_CAP) -> GroupTable:
        """Breadth-first closure of the generators under composition."""
        if not generators:
            raise ValueError("need at least one generator")
        degree = generators[0].degree
        if any(g.degree != degree for g in generators):
            raise ValueError("generators must share one degree")
        dt = _dtype_for(degree)
        gen_rows = np.array([g.images for g in generators], dtype=dt)
        ident = np.arange(degree, dtype=dt)
        seen: dict[bytes, None] = {ident.tobytes(): None}
        rows = [ident]
        frontier = []
        for row in gen_rows:
            key = row.tobytes()
            if key not in seen:
                seen[key] = None
                rows.append(row)
                frontier.append(row)
        frontier_arr = np.array(frontier, dtype=dt) if frontier else np.empty((0, degree), dt)
        while frontier_arr.shape[0]:
            new_rows = []
            for g in gen_rows:
                prods = g[frontier_arr]  # x then g, for every frontier x
                for row in prods:
                    key = row.tobytes()
                    if key not in seen:
                        seen[key] = None
                        rows.append(row)
                        new_rows.append(row)
            if len(seen) > cap:
                raise CapExceededError(
                    f"closure exceeded cap {cap}; raise the cap only if this is intended"
                )
            frontier_arr = (
                np.array(new_rows, dtype=dt) if new_rows else np.empty((0, degree), dt)
            )
        imgs = np.array(rows, dtype=dt)
        order = np.lexsort(imgs.T[::-1])
        return cls(degree, generators, imgs[order])

    @classmethod
    def from_file(cls, path: str | Path, cap: int = DEFAULT_CAP) -> GroupTable:
        degree, gens = load_generators(path)
        return cls.generate(gens, cap=cap)

    # -- element access

    def element(self, i: int) -> Permutation:
        return Permutation(tuple(int(x) for x in self._imgs[i]))

    def index_of(self, p: Permutation) -> int:
        key = np.asarray(p.images, dtype=self._imgs.dtype).tobytes()
        try:
            return self._index[key]
        except KeyError:
            raise ValueError("permutation is not an element of this group") from None

    @property
    def identity_index(self) -> int:
        return 0

    def images_array(self) -> np.ndarray:
        """(order, degree) read-only array of image rows, lexicographically sorted."""
        return self._imgs

    # -- index arithmetic

    def mul(self, i: int, j: int) -> int:
        """Index of element_i * element_j (left-to-right composition)."""
        return int(self.mul_table()[i, j])

    def inv(self, i: int) -> int:
        return int(self.inverse_indices()[i])

    def inverse_indices(self) -> np.ndarray:
        if self._inv is None:
            inv_rows = np.empty_like(self._imgs)
            points = np.arange(self.degree, dtype=self._imgs.dtype)
            np.put_along_axis(inv_rows, self._imgs, points[None, :], axis=1)
            self._inv = np.fromiter(
                (self._index[inv_rows[i].tobytes()] for i in range(self.order)),
                dtype=np.int64,
                count=self.order,
            )
        return self._inv

    def element_orders(self) -> np.ndarray:
        if self._orders is None:
            T = self.mul_table()
            orders = np.zeros(self.order, dtype=np.int64)
            orders[0] = 1
            cur = np.arange(self.order, dtype=np.int64)
            alive = np.flatnonzero(cur)
            k = 1
            while alive.size:
                k += 1
                cur[alive] = T[cur[alive], alive]
                done = alive[cur[alive] == 0]
                orders[done] = k
                alive = alive[cur[alive] != 0]
            self._orders = orders
        return self._orders

    def mul_table(self) -> np.ndarray:
        """Dense (order, order) multiplication table; rows built by left-BFS."""
        if self._mul_table is None:
            if self.order > _MUL_TABLE_MAX_ORDER:
                raise CapExceededError(
                    f"multiplication table for order {self.order} would be too large"
                )
            n = self.order
            dt = np.uint16 if n <= np.iinfo(np.uint16).max else np.uint32
            # left-multiplication maps for each generator: Lg[i] = index of g*e_i
            lmaps = []
            for g in self.generators:
                g_img = np.asarray(g.images, dtype=self._imgs.dtype)
                prod_rows = self._imgs[:, g_img]  # (g*e_i)(x) = e_i(g(x))
                lmaps.append(
                    np.fromiter(
                        (self._index[prod_rows[i].tobytes()] for i in range(n)),
                        dtype=np.int64,
                        count=n,
                    )
                )
            T = np.zeros((n, n), dtype=dt)
            T[0] = np.arange(n, dtype=dt)
            built = np.zeros(n, dtype=bool)
            built[0] = True
            frontier = [0]
            while frontier:
                nxt = []
                for y in frontier:
                    for lm in lmaps:
                        x = int(lm[y])
                        if not built[x]:
                            # e_x = g*e_y, so e_x*e_j = g*(e_y*e_j)
                            T[x] = lm[T[y]]
                            built[x] = True
                            nxt.append(x)
                frontier = nxt
            if not built.all():
                raise RuntimeError("multiplication table BFS did not cover the group")
            self._mul_table = T
        return self._mul_table

    # -- misc

    def is_transitive(self) -> bool:
        return len(orbits(self)) == 1

    def __repr__(self) -> str:
        return f"GroupTable(degree={self.degree}, order={self.order})"


# ---------------------------------------------------------------------------
# subgroups


@dataclass(frozen=True)
class Subgroup:
    """A subgroup given by the sorted indices of its elements in the parent."""

    parent: GroupTable = field(repr=False)
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if tuple(sorted(set(self.indices))) != self.indices:
            raise ValueError("indices must be sorted and duplicate-free")
        if not self.indices or self.indices[0] != self.parent.identity_index:
            raise ValueError("a subgroup must contain the identity")
        if self.parent.order % len(self.indices):
            raise ValueError("order does not divide the parent order")

    @classmethod
    def from_indices(cls, parent: GroupTable, indices: Iterable[int]) -> Subgroup:
        return cls(parent, tuple(sorted({int(i) for i in indices})))

    @property
    def order(self) -> int:
        return len(self.indices)

    def is_closed(self) -> bool:
        ids = set(self.indices)
        return all(self.parent.mul(a, b) in ids for a in self.indices for b in self.indices)

    def images_array(self) -> np.ndarray:
        """(order, degree) array of the image rows of the elements, in index order."""
        return self.parent.images_array()[np.array(self.indices, dtype=np.int64)]

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent!r})"


def trivial_subgroup(G: GroupTable) -> Subgroup:
    return Subgroup(G, (G.identity_index,))


def sorted_rows(a: np.ndarray) -> np.ndarray:
    """The package's one canonical order for point sets (rows of `a`): each row
    sorted, rows in lexicographic order, repeats dropped.  Returns a new array.
    """
    a = np.sort(a, axis=1)
    a = a[np.lexsort(a.T[::-1])]
    fresh = np.ones(len(a), dtype=bool)
    fresh[1:] = (a[1:] != a[:-1]).any(axis=1)
    return a[fresh]


def set_orbit(rows: np.ndarray, points: Sequence[int]) -> np.ndarray:
    """The distinct images of a point set, as a `sorted_rows` array.

    `rows` must hold every element of the group (a GroupTable's or a
    Subgroup's `images_array()`), not only its generators: the orbit is read
    off in one gather with no closure.
    """
    return sorted_rows(rows[:, np.asarray(points, dtype=np.int64)])


def orbits(H: Subgroup | GroupTable) -> list[tuple[int, ...]]:
    """Point orbits, each sorted, the list sorted by (length, smallest point)."""
    rows = H.images_array()
    seen = np.zeros(rows.shape[1], dtype=bool)
    out = []
    for start in range(rows.shape[1]):
        if seen[start]:
            continue
        orbit = set_orbit(rows, (start,))[:, 0]
        seen[orbit] = True
        out.append(tuple(orbit.tolist()))
    out.sort(key=lambda orb: (len(orb), orb[0]))
    return out


def pair_orbit_table(G: GroupTable) -> tuple[np.ndarray, np.ndarray]:
    """Label matrix for G-orbits on unordered point pairs, plus orbit sizes."""
    if G._pair_orbits is None:
        v = G.degree
        rows = G.images_array()
        labels = np.full((v, v), -1, dtype=np.int32)
        sizes = []
        for p in range(v):
            for q in range(p + 1, v):
                if labels[p, q] >= 0:
                    continue
                orbit = set_orbit(rows, (p, q))
                labels[orbit[:, 0], orbit[:, 1]] = labels[orbit[:, 1], orbit[:, 0]] = len(sizes)
                sizes.append(len(orbit))
        G._pair_orbits = (labels, np.array(sizes, dtype=np.int64))
    return G._pair_orbits


def point_stabilizer(G: GroupTable, alpha: int) -> Subgroup:
    if not 0 <= alpha < G.degree:
        raise ValueError("point out of range")
    fixed = np.flatnonzero(G.images_array()[:, alpha] == alpha)
    return Subgroup.from_indices(G, fixed)


def set_stabilizer(G: GroupTable, points: Iterable[int]) -> Subgroup:
    """Setwise stabilizer {g : g(S) = S}, by exhaustive filter."""
    S = sorted({int(p) for p in points})
    if not S:
        raise ValueError("point set must be nonempty")
    if S[0] < 0 or S[-1] >= G.degree:
        raise ValueError("point out of range")
    mark = np.zeros(G.degree, dtype=bool)
    mark[S] = True
    inside = mark[G.images_array()[:, S]].all(axis=1)
    return Subgroup.from_indices(G, np.flatnonzero(inside))


# ---------------------------------------------------------------------------
# subgroup enumeration up to conjugacy


def _powers_of(T: np.ndarray, y: int) -> np.ndarray:
    """Sorted element indices of the cyclic subgroup generated by y."""
    elems = [0]
    cur = y
    while cur != 0:
        elems.append(cur)
        cur = int(T[cur, y])
    return np.array(sorted(elems), dtype=np.int64)


def _normalizing(
    T: np.ndarray, inv: np.ndarray, in_H: np.ndarray, gens: tuple[int, ...], ys: np.ndarray
) -> np.ndarray:
    """The elements y of ys with y^-1 H y = H, where H = <gens> is marked by in_H.

    One gather per generator: y^-1 <gens> y lies in H iff y^-1 g y does for
    every generator g, and then equals H because conjugation keeps |H|.
    """
    for g in gens:
        ys = ys[in_H[T[T[inv[ys], g], ys]]]
    return ys


def normalizer(H: Subgroup) -> Subgroup:
    """N_G(H) = {y : y^-1 H y = H}, by `_normalizing` with H's elements as generators."""
    G = H.parent
    in_H = np.zeros(G.order, dtype=bool)
    in_H[list(H.indices)] = True
    everything = np.arange(G.order, dtype=np.int64)
    ys = _normalizing(G.mul_table(), G.inverse_indices(), in_H, H.indices, everything)
    return Subgroup(G, tuple(ys.tolist()))


def _closure_capped(
    T: np.ndarray, H: np.ndarray, gens: tuple[int, ...], y: int, cap: int
) -> np.ndarray | None:
    """Elements of <H, y>, or None once the closure grows past cap.

    H must already be a subgroup; the result is built as a union of right
    cosets of H, walking the coset graph under the generators of H plus y.
    """
    n = T.shape[0]
    mask = np.zeros(n, dtype=bool)
    mask[H] = True
    count = len(H)
    step_gens = tuple(gens) + (y,)
    reps = [0]
    head = 0
    while head < len(reps):
        w = reps[head]
        head += 1
        for g in step_gens:
            u = int(T[w, g])
            if not mask[u]:
                coset = T[H, u]
                mask[coset] = True
                count += len(H)
                if count > cap:
                    return None
                reps.append(u)
    return np.flatnonzero(mask)


def subgroups_of_order(G: GroupTable, m: int) -> list[Subgroup]:
    """All subgroups of order m, one representative per conjugacy class.

    Bottom-up lattice closure that stores one subgroup per conjugacy class:
    seed with every cyclic subgroup whose order divides m, then repeatedly
    extend stored subgroups by one element of order dividing m, keeping a
    result iff its order divides m.  When every group of order dividing m
    is solvable, each extension step may be restricted to normalizing
    elements (every such subgroup tops a chain of prime-index normal
    subgroups); otherwise the unrestricted capped closure is used.  Below
    360 the only non-abelian simple groups are A5 (order 60) and PSL(2,7)
    (order 168), so for m < 360 every group of order dividing m is solvable
    unless 60 | m or 168 | m; from 360 on, Burnside's p^a q^b theorem is
    used (at most two distinct primes).  On that solvable route the
    candidates are first cut down to N_G(H) with one vectorized gather per
    stored generator of H (`_normalizing`), and each surviving coset H*y is
    tried once, by its smallest cyclic generator.

    A new subgroup K is keyed once for its whole class: one gather gives
    g^-1 K g for every g, every distinct conjugate goes into `seen`, and the
    lexicographically least one is stored, with its generators conjugated
    by the same g.  Extending only these representatives still reaches every
    class, on both routes: if K = <H, y> then K^g = <H^g, y^g>, y^g is in
    H^g * z for the cyclic generator z tried for that coset, and y normalizes
    H iff y^g normalizes H^g.  The output is the sorted list of the least
    members of the order-m classes, so it does not depend on the order in
    which classes are reached.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if G.order % m:
        warnings.warn(f"m={m} does not divide the group order {G.order}; no subgroups")
        return []
    if m == 1:
        return [trivial_subgroup(G)]
    cache = G._subgroup_classes
    if m in cache:
        return list(cache[m])

    T = G.mul_table()
    inv = G.inverse_indices()
    orders = G.element_orders()
    solvable_route = (
        m % 60 != 0 and m % 168 != 0 if m < 360 else len(factorize(m)) <= 2
    )

    cand = np.flatnonzero((m % orders) == 0)
    cand = cand[cand != 0]

    # one representative generator per cyclic subgroup
    cyc_elements: dict[int, np.ndarray] = {}
    seen_gen = np.zeros(G.order, dtype=bool)
    for y in cand:
        y = int(y)
        if seen_gen[y]:
            continue
        elems = _powers_of(T, y)
        for z in elems:
            if orders[z] == orders[y]:
                seen_gen[z] = True
        cyc_elements[y] = elems
    cyc_reps = np.array(sorted(cyc_elements), dtype=np.int64)

    everything = np.arange(G.order, dtype=np.int64)[:, None]
    seen: set[bytes] = set()
    queue: list[tuple[np.ndarray, tuple[int, ...]]] = []
    full: list[tuple[int, ...]] = []

    def store(K: np.ndarray, gens: tuple[int, ...]) -> None:
        if K.astype(np.int64).tobytes() in seen:
            return
        conj = T[T[inv[everything], K], everything]  # row g: g^-1 K g
        members = sorted_rows(conj).astype(np.int64)
        seen.update(row.tobytes() for row in members)
        least = members[0]
        in_least = np.zeros(G.order, dtype=bool)
        in_least[least] = True
        g = int(np.flatnonzero(in_least[conj].all(axis=1))[0])
        if len(least) == m:
            full.append(tuple(least.tolist()))
        else:
            queue.append((least, tuple(int(T[T[inv[g], x], g]) for x in gens)))

    for rep in cyc_reps:
        store(cyc_elements[int(rep)], (int(rep),))

    head = 0
    while head < len(queue):
        H, gens = queue[head]
        head += 1
        in_H = np.zeros(G.order, dtype=bool)
        in_H[H] = True
        ys = cyc_reps[~in_H[cyc_reps]]
        if solvable_route:
            # N_G(H) is a union of cosets H*y, so this drops whole cosets
            ys = _normalizing(T, inv, in_H, gens, ys)
        if ys.size == 0:
            continue
        # one extension attempt per coset H*y: dedupe candidates by coset
        cosets = T[np.ix_(H, ys)]  # column c is the coset H*ys[c]
        cosets = np.sort(cosets, axis=0)
        _, first = np.unique(cosets.T, axis=0, return_index=True)
        for y in sorted(int(ys[c]) for c in first):
            if solvable_route:
                K = np.unique(T[np.ix_(H, cyc_elements[y])])
            else:
                K = _closure_capped(T, H, gens, y, cap=m)
            if K is not None and m % len(K) == 0:
                store(K, gens + (y,))

    full.sort()
    result = [Subgroup(G, rep) for rep in full]
    cache[m] = list(result)
    return result


def are_conjugate(G: GroupTable, H1: Subgroup, H2: Subgroup) -> Permutation | None:
    """A g with g^-1 * H1 * g = H2, or None.  Full sweep over the group."""
    if H1.parent is not G or H2.parent is not G:
        raise ValueError("subgroups must belong to the given group")
    if H1.order != H2.order:
        return None
    target = np.array(H2.indices, dtype=np.int64)
    arr = np.array(H1.indices, dtype=np.int64)
    T = G.mul_table()
    inv = G.inverse_indices()
    A = T[np.ix_(inv, arr)]  # A[g, j] = e_g^-1 * h_j
    B = T[A, np.arange(G.order, dtype=np.int64)[:, None]]
    B.sort(axis=1)
    hits = np.flatnonzero((B == target[None, :]).all(axis=1))
    if hits.size == 0:
        return None
    return G.element(int(hits[0]))
