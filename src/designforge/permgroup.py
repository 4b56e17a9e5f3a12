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
# bytes of one block of multiplication-table rows gathered at a time
_GATHER_BYTES = 1 << 20
# images are stored as uint16, so points run up to 65535
_MAX_DEGREE = 1 << 16

# a stored subgroup class: least member H, generators of H, N_G(H) as sorted
# uint16 indices
_ClassRecord = tuple[np.ndarray, tuple[int, ...], np.ndarray]


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


# ---------------------------------------------------------------------------
# group tables


def _dtype_for(degree: int) -> np.dtype:
    if degree > _MAX_DEGREE:
        raise ValueError(f"degree {degree} exceeds the limit {_MAX_DEGREE} of uint16 image rows")
    return np.dtype(np.uint8) if degree <= 255 else np.dtype(np.uint16)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One void key per image row, ordered as the rows are lexicographically:
    uint16 rows give their big-endian bytes, as little-endian bytes of images
    above 255 do not sort as the images do; uint8 keys are a view of the rows."""
    rows = np.ascontiguousarray(rows, dtype=rows.dtype.newbyteorder(">"))
    return rows.view(np.dtype((np.void, rows.shape[-1] * rows.itemsize))).ravel()


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
        self._keys = _row_keys(imgs)
        self._mul_table: np.ndarray | None = None
        self._inv: np.ndarray | None = None
        self._orders: np.ndarray | None = None
        self._powers: np.ndarray | None = None
        self._pair_orbits: tuple[np.ndarray, np.ndarray] | None = None
        # the subgroup lattice found so far: order d -> the record of every
        # conjugacy class of order d, sorted by least member; an order is a
        # key only once all its classes are known
        self._subgroup_classes: dict[int, list[_ClassRecord]] = {}

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
        # the first round's products are the generators themselves
        frontier_arr = ident[None, :]
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
        return cls(degree, generators, imgs[np.argsort(_row_keys(imgs))])

    @classmethod
    def from_file(cls, path: str | Path, cap: int = DEFAULT_CAP) -> GroupTable:
        degree, gens = load_generators(path)
        return cls.generate(gens, cap=cap)

    # -- element access

    def element(self, i: int) -> Permutation:
        return Permutation(tuple(int(x) for x in self._imgs[i]))

    def index_of(self, p: Permutation) -> int:
        if p.degree == self.degree:
            row = np.asarray(p.images, dtype=self._imgs.dtype)
            i = int(np.searchsorted(self._keys, _row_keys(row)[0]))
            if i < self.order and np.array_equal(self._imgs[i], row):
                return i
        raise ValueError("permutation is not an element of this group")

    def images_array(self) -> np.ndarray:
        """(order, degree) read-only array of image rows, lexicographically sorted."""
        return self._imgs

    # -- index arithmetic

    def inverse_indices(self) -> np.ndarray:
        if self._inv is None:
            # y^-1 = y^(o(y)-1); the identity (o = 1) reads row 0, which is itself
            orders = self.element_orders()
            self._inv = self.power_table()[
                np.maximum(orders - 2, 0), np.arange(self.order)
            ].astype(np.int64)
        return self._inv

    def element_orders(self) -> np.ndarray:
        if self._orders is None:
            self._orders = (self.power_table() == 0).argmax(axis=0).astype(np.int64) + 1
        return self._orders

    def power_table(self) -> np.ndarray:
        """(e, order) uint16 table whose row k-1 holds y^k for every element y,
        where e is the largest element order, so row o(y)-1 of column y is the
        identity and column y's first o(y) rows are the elements of <y>."""
        if self._powers is None:
            T = self.mul_table()
            everything = np.arange(self.order)
            rows = [everything.astype(np.uint16)]
            done = rows[0] == 0
            while not done.all():
                rows.append(T[rows[-1], everything])
                done |= rows[-1] == 0
            self._powers = np.array(rows)
        return self._powers

    def mul_table(self) -> np.ndarray:
        """Dense (order, order) multiplication table; rows built by left-BFS."""
        if self._mul_table is None:
            if self.order > _MUL_TABLE_MAX_ORDER:
                raise CapExceededError(
                    f"multiplication table for order {self.order} would be too large"
                )
            n = self.order
            # every index fits in uint16, as the order is capped above
            # left-multiplication maps for each generator: Lg[i] = index of
            # g*e_i, whose row (g*e_i)(x) = e_i(g(x)) is in G
            lmaps = [
                np.searchsorted(self._keys, _row_keys(self._imgs[:, list(g.images)]))
                .astype(np.uint16)
                for g in self.generators
            ]
            T = np.zeros((n, n), dtype=np.uint16)
            T[0] = np.arange(n, dtype=np.uint16)
            built = np.zeros(n, dtype=bool)
            built[0] = True
            frontier = [0]
            while frontier:
                nxt = []
                for y in frontier:
                    for lm in lmaps:
                        x = int(lm[y])
                        if not built[x]:
                            # e_x = g*e_y, so e_x*e_j = g*(e_y*e_j); every index
                            # is below n, so "clip" changes none and lets take
                            # write the row in place
                            np.take(lm, T[y], out=T[x], mode="clip")
                            built[x] = True
                            nxt.append(x)
                frontier = nxt
            if not built.all():
                raise RuntimeError("multiplication table BFS did not cover the group")
            self._mul_table = T
        return self._mul_table

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
        if not self.indices or self.indices[0] != 0:
            raise ValueError("a subgroup must contain the identity")
        if self.parent.order % len(self.indices):
            raise ValueError("order does not divide the parent order")

    @property
    def order(self) -> int:
        return len(self.indices)

    def images_array(self) -> np.ndarray:
        """(order, degree) array of the image rows of the elements, in index order."""
        return self.parent.images_array()[np.array(self.indices, dtype=np.int64)]

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent!r})"


def trivial_subgroup(G: GroupTable) -> Subgroup:
    return Subgroup(G, (0,))


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
    # the rows hold every element, so column p's minimum is the least point
    # of p's orbit
    least = H.images_array().min(axis=0)
    by_orbit = np.argsort(least, kind="stable")
    _, sizes = np.unique(least, return_counts=True)
    out = [tuple(orb.tolist()) for orb in np.split(by_orbit, np.cumsum(sizes)[:-1])]
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
            for q in np.flatnonzero(labels[p, p + 1:] < 0) + p + 1:
                # an orbit found earlier in this row may have labelled q
                if labels[p, q] >= 0:
                    continue
                orbit = set_orbit(rows, (p, q))
                labels[orbit[:, 0], orbit[:, 1]] = labels[orbit[:, 1], orbit[:, 0]] = len(sizes)
                sizes.append(len(orbit))
        G._pair_orbits = (labels, np.array(sizes, dtype=np.int64))
    return G._pair_orbits


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
    return Subgroup(G, tuple(np.flatnonzero(inside).tolist()))


# ---------------------------------------------------------------------------
# subgroup enumeration up to conjugacy


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
    """N_G(H) = {y : y^-1 H y = H}: kept in the record of a stored class
    representative, else by `_normalizing` with H's elements as generators."""
    G = H.parent
    for least, _, N in G._subgroup_classes.get(H.order, ()):
        if np.array_equal(least, H.indices):
            return Subgroup(G, tuple(N.tolist()))
    in_H = np.zeros(G.order, dtype=bool)
    in_H[list(H.indices)] = True
    everything = np.arange(G.order, dtype=np.int64)
    ys = _normalizing(G.mul_table(), G.inverse_indices(), in_H, H.indices, everything)
    return Subgroup(G, tuple(ys.tolist()))


def _class_labels(G: GroupTable) -> np.ndarray:
    """The least element of each element's conjugacy class.

    Each label only falls to the label of a conjugate: along the conjugation
    map y -> s^-1 y s of every generator s, and by pointer jumping.  At the
    fixed point the labels are constant along every map's cycles, so on each
    class, and the least member of a class keeps its own index.
    """
    T = G.mul_table()
    inv = G.inverse_indices()
    maps = [T[T[inv[s]], s] for s in map(G.index_of, G.generators)]
    labels = np.arange(G.order)
    while True:
        new = labels
        for conj in maps:
            new = np.minimum(new, new[conj])
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


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
    seed with one cyclic subgroup per class whose order divides m, then
    repeatedly extend stored subgroups by one element of order dividing m,
    keeping a result iff its order divides m.  When every group of order
    dividing m is solvable, each extension step may be restricted to
    normalizing elements (every such subgroup tops a chain of prime-index
    normal subgroups); otherwise the unrestricted capped closure is used.
    Below 360 the only non-abelian simple groups are A5 (order 60) and
    PSL(2,7) (order 168), so for m < 360 every group of order dividing m is
    solvable unless 60 | m or 168 | m; from 360 on, Burnside's p^a q^b
    theorem is used (at most two distinct primes).  On that solvable route
    the candidates are first cut down to N_G(H) with one vectorized gather
    per stored generator of H (`_normalizing`), and each surviving coset H*y
    is tried once, by its smallest cyclic generator.

    The cyclic layer reads G's power table: <y> is the first o(y) powers of
    y, and it is named by its least generator, the least y^k with
    gcd(k, o(y)) = 1.  Two cyclic subgroups are conjugate iff a generator of
    one is conjugate to a generator of the other, so the least conjugacy
    class label (`_class_labels`) over its generators keys the class of
    <y>.  Only the first cyclic subgroup of each key, by least generator, is
    seeded: the one that would be gathered first, as every later one lies
    in its class.

    A new subgroup K is keyed once for its whole class: N = N_G(K) comes from
    `_normalizing`, one gather gives g^-1 K g for one g in each coset N*g,
    so each distinct conjugate once, these go into the run's conjugate set,
    and the lexicographically least one is stored, with its generators
    conjugated by the same g, and its normalizer g^-1 N g is kept for
    `normalizer`.  Extending only these representatives still
    reaches every class, on both routes: if K = <H, y> then
    K^g = <H^g, y^g>, y^g is in H^g * z for the cyclic generator z tried for
    that coset, and y normalizes H iff y^g normalizes H^g.  The output is
    the sorted list of the least members of the order-m classes, so it does
    not depend on the order in which classes are reached.

    The run reaches every class of every order d | m, not only of order m:
    a subgroup K of order d is <H, y> with H a normal subgroup of prime
    index (K solvable) or a maximal subgroup (otherwise), and the orders of
    H and y divide d.  So when the run finishes, the classes of every d | m
    are stored on G, an order with no class as an empty list, and a stored
    order is complete.  A later call for a stored order returns its list; any
    other call seeds its queue with every stored class whose order divides
    m and skips a subgroup of a stored order without a gather, since its
    class is already queued.  The run works on local additions and stores
    them, each class with its normalizer, only at its end, so an interrupted
    run leaves G as it was.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if G.order % m:
        warnings.warn(f"m={m} does not divide the group order {G.order}; no subgroups")
        return []
    if m == 1:
        return [trivial_subgroup(G)]
    known = G._subgroup_classes
    if m not in known:
        known.update(_new_subgroup_classes(G, m))
    return [Subgroup(G, tuple(least.tolist())) for least, _, _ in known[m]]


def _new_subgroup_classes(G: GroupTable, m: int) -> dict[int, list[_ClassRecord]]:
    """The class records of every order d | m (d > 1) not yet stored on G,
    found by the lattice closure that `subgroups_of_order` describes."""
    known = G._subgroup_classes
    T = G.mul_table()
    inv = G.inverse_indices()
    orders = G.element_orders()
    powers = G.power_table()
    solvable_route = (
        m % 60 != 0 and m % 168 != 0 if m < 360 else len(factorize(m)) <= 2
    )

    cand = np.flatnonzero((m % orders) == 0)
    cand = cand[cand != 0]
    # row k-1 of generates: y^k generates <y>; y names <y> iff it is the least
    cand_powers = powers[:, cand]
    k = np.arange(1, len(powers) + 1)[:, None]
    generates = (k <= orders[cand]) & (np.gcd(k, orders[cand]) == 1)
    named = np.where(generates, cand_powers, G.order).min(axis=0) == cand
    cyc_reps = cand[named]
    # one seed per class of cyclic subgroups: the first <y> of each class key
    class_keys = np.where(
        generates[:, named], _class_labels(G)[cand_powers[:, named]], G.order
    ).min(axis=0)
    seeds = cyc_reps[np.sort(np.unique(class_keys, return_index=True)[1])]

    everything = np.arange(G.order, dtype=np.int64)
    found = {d: [] for d in range(2, m + 1) if m % d == 0 and d not in known}
    # uint16 bytes of each conjugate met in this run (T is uint16)
    conjugates: set[bytes] = set()
    queue = [rec for d, recs in known.items() if m % d == 0 for rec in recs]
    step = max(1, _GATHER_BYTES // T[0].nbytes)

    def store(K: np.ndarray, gens: tuple[int, ...]) -> None:
        if len(K) in known or K.astype(np.uint16).tobytes() in conjugates:
            return
        in_K = np.zeros(G.order, dtype=bool)
        in_K[K] = True
        N = _normalizing(T, inv, in_K, gens, everything)
        # g^-1 K g depends only on the coset N*g: one g per coset, its least
        # element, which is the minimum of the column T[N, g]
        reps = np.minimum.reduce(
            [T[N[i : i + step]].min(axis=0) for i in range(0, len(N), step)]
        )
        reps = np.unique(reps).astype(np.int64)[:, None]
        conj = T[T[inv[reps], K], reps]  # row i: reps[i]^-1 K reps[i]
        members = sorted_rows(conj)
        conjugates.update(row.tobytes() for row in members)
        least = members[0].astype(np.int64)
        in_least = np.zeros(G.order, dtype=bool)
        in_least[least] = True
        g = int(reps[np.flatnonzero(in_least[conj].all(axis=1))[0], 0])
        gens_least = tuple(int(T[T[inv[g], x], g]) for x in gens)
        rec = (least, gens_least, np.sort(T[T[inv[g], N], g]))
        found[len(least)].append(rec)
        if len(least) < m:
            queue.append(rec)

    for y in seeds:
        store(np.sort(powers[: orders[y], y]).astype(np.int64), (int(y),))

    head = 0
    while head < len(queue):
        H, gens, _ = queue[head]
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
                cyc = powers[: orders[y], y]
                # y normalizes H, so |<H, y>| = |H| o(y) / |H ∩ <y>|
                d = len(H) * int(orders[y]) // int(in_H[cyc].sum())
                if m % d or d in known:
                    continue
                K = np.unique(T[np.ix_(H, cyc)])
            else:
                K = _closure_capped(T, H, gens, y, cap=m)
            if K is not None and m % len(K) == 0:
                store(K, gens + (y,))

    for recs in found.values():
        recs.sort(key=lambda rec: rec[0].tolist())
    return found

