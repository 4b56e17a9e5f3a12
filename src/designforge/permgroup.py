"""Permutation arithmetic, cycle-notation I/O, exhaustive group materialization,
orbits, the one check that a block set is one orbit (`block_map`),
stabilizers, the normalizer in the symmetric group (`sym_normalizer_gens`),
and subgroup enumeration.

Points are 0-based internally; all text I/O (cycle notation, generator files)
is 1-based.  Composition is left-to-right: (p * q)(x) = q(p(x)).  Groups are
materialized as full sorted element lists; the enumeration cap guards against
accidental use on groups that are too large for that.

Bounded indices (an element below |G|, a point below the degree, a pair rank
below v^2) are deduplicated with index marks (`_distinct`), ranked by a
cumulative sum of the marks and counted by `np.bincount`, each a linear
pass.  A plain `np.unique` sorts or, in numpy 2.x, hashes its input, at many
times that cost; it is kept for unbounded uint64 hashes (`block_map`'s keys,
the iso colours), and `np.unique(..., return_index=True)` where the first
occurrence is wanted.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import CapExceededError
from .numtheory import factorize

DEFAULT_CAP = 10_000_000
# order**2 table entries at 2 bytes each; 16000**2 is ~0.5 GB
_MUL_TABLE_MAX_ORDER = 16000
# bytes of one block of multiplication-table rows that `coset_least` gathers
_GATHER_BYTES = 1 << 20
# images are stored as uint16, so points run up to 65535
_MAX_DEGREE = 1 << 16

# a stored subgroup class: least member H, generators of H, N_G(H) as sorted
# uint16 indices
_ClassRecord = tuple[np.ndarray, tuple[int, ...], np.ndarray]


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


def _distinct(idx: np.ndarray, n: int) -> np.ndarray:
    """The distinct values of idx, all in 0..n-1, ascending, as intp: one
    pass of index marks, with no sort."""
    marks = np.zeros(n, dtype=bool)
    marks[idx] = True
    return np.flatnonzero(marks)


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
        self._class_labels: np.ndarray | None = None
        self._pair_orbits: tuple[np.ndarray, np.ndarray] | None = None
        self._normalizer_gens: tuple[Permutation, ...] | None = None
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

    def __contains__(self, p: Permutation) -> bool:
        try:
            self.index_of(p)
        except ValueError:
            return False
        return True

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
            everything = np.arange(self.order)
            rows = [everything.astype(np.uint16)]
            done = rows[0] == 0
            while not done.all():
                rows.append(self.mul(rows[-1], everything))
                done |= rows[-1] == 0
            self._powers = np.array(rows)
        return self._powers

    # -- products: the only readers of the multiplication table

    def mul(self, a, b) -> np.ndarray:
        """The products a*b (a, then b) as uint16 indices; the index arrays
        a and b broadcast against each other."""
        return self.mul_table()[a, b]

    def conj(self, x, g) -> np.ndarray:
        """The conjugates g^-1 x g (g^-1, then x, then g) as uint16 indices;
        the index arrays x and g broadcast against each other."""
        T = self.mul_table()
        return T[T[self.inverse_indices()[g], x], g]

    def coset_least(self, H: np.ndarray, ys: np.ndarray | None = None) -> np.ndarray:
        """The least element of each right coset H*y, for y in ys (every
        element when ys is None), as uint16 indices: the minimum over h in H
        of h*y, read from blocks of the rows h*G of at most _GATHER_BYTES."""
        T = self.mul_table()
        cols = slice(None) if ys is None else ys
        step = max(1, _GATHER_BYTES // T[0].nbytes)
        return np.minimum.reduce(
            [T[H[i : i + step]][:, cols].min(axis=0) for i in range(0, len(H), step)]
        )

    def mul_table(self) -> np.ndarray:
        """Dense (order, order) multiplication table; rows built by left-BFS.
        It is the one backend of `mul`, `conj` and `coset_least`; other code
        calls it only to build the table ahead of the first product."""
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


@cache
def _weights(n: int) -> np.ndarray:
    """n odd uint64 hash weights from one seeded draw, read-only; a longer draw
    starts with the same values, so a row's hash depends only on the row."""
    w = np.random.default_rng(0x5EED5EED).integers(
        1, np.iinfo(np.int64).max, size=n, dtype=np.int64
    ).astype(np.uint64) | np.uint64(1)
    w.flags.writeable = False
    return w


def block_map(rows: np.ndarray, blocks: np.ndarray) -> np.ndarray | None:
    """The index in `blocks` of g(B0) for each element g, where B0 is
    blocks[0], when the rows of `blocks` are exactly the orbit of B0;
    otherwise None.  So `block_map(...) is not None` is the one-orbit check.

    `rows` must hold every element of the group, as for `set_orbit`, and
    `blocks` is a (b, k) array of points below the degree.  Each block and
    each image g(B0) is keyed by the sum of its points' weights, so no row is
    sorted.  The distinct image keys must be the block keys, each once: then
    every block is hit, and two blocks that share a key give None, never a
    wrong map.  The match is then checked exactly in the incidence matrix:
    each image must lie in, so equal, its block.
    """
    b, v = len(blocks), rows.shape[1]
    w = _weights(v)
    keys = w[blocks].sum(axis=1)
    order = np.argsort(keys)
    images = rows[:, blocks[0]].astype(np.intp)
    image_keys, block_rank = np.unique(w[images].sum(axis=1), return_inverse=True)
    if not np.array_equal(image_keys, keys[order]):
        return None
    block_of = order[block_rank]
    incidence = np.zeros((b, v), dtype=bool)
    incidence[np.arange(b)[:, None], blocks] = True
    inside = incidence.ravel()[(block_of * v)[:, None] + images].all()
    return block_of if inside else None


def orbits(H: Subgroup | GroupTable) -> list[tuple[int, ...]]:
    """Point orbits, each sorted, the list sorted by (length, smallest point)."""
    # the rows hold every element, so column p's minimum is the least point
    # of p's orbit
    least = H.images_array().min(axis=0)
    by_orbit = np.argsort(least, kind="stable").tolist()
    sizes = np.bincount(least)
    ends = np.cumsum(sizes[sizes > 0]).tolist()
    out = [tuple(by_orbit[start:end]) for start, end in zip([0] + ends, ends)]
    out.sort(key=lambda orb: (len(orb), orb[0]))
    return out


def pair_orbit_table(G: GroupTable) -> tuple[np.ndarray, np.ndarray]:
    """Label matrix for G-orbits on unordered point pairs, plus orbit sizes;
    computed once per group and kept on it.  The diagonal is -1, and the
    orbits are numbered in the row-major order of their least pair p < q.

    Built from point-stabilizer suborbits, with no orbit of any pair.  For
    the least point r of each point orbit, key[p, x(q)] = r v + s(q), where
    x is one element with x(r) = p, for each p in r's orbit, and s(q) is the
    least point of q's orbit under G_r.  So key[p, q] names the G-orbit of
    the ordered pair (p, q), and it is the row-major index of that orbit's
    least pair whose first point is r.  min(key, key.T) then names the
    unordered orbit by the index of its least pair p < q: the least point
    on any of its pairs is the least point r of one of the two point
    orbits, and every point paired with r is above r.  The labels rank
    these indices, with index marks and a cumulative sum.
    """
    if G._pair_orbits is None:
        v = G.degree
        rows = G.images_array()
        key = np.empty((v, v), dtype=np.int64)
        for r in np.flatnonzero(rows.min(axis=0) == np.arange(v)).tolist():
            # xs[i]: the first element that maps r to images[i]
            images, xs = np.unique(rows[:, r], return_index=True)
            least = rows[rows[:, r] == r].min(axis=0).astype(np.int64)
            key[images[:, None], rows[xs]] = r * v + least
        key = np.minimum(key, key.T)
        upper = np.triu(np.ones((v, v), dtype=bool), 1)
        marks = np.zeros(v * v, dtype=bool)
        marks[key[upper]] = True
        rank = np.cumsum(marks) - 1
        labels = rank[key].astype(np.int32)
        labels[np.diag_indices(v)] = -1
        G._pair_orbits = (labels, np.bincount(labels[upper]).astype(np.int64))
    return G._pair_orbits


def sym_normalizer_gens(G: GroupTable) -> tuple[Permutation, ...]:
    """Point permutations outside G that, with G, generate N_{S_v}(G), the
    normalizer of G in the symmetric group on its points; computed once per
    group and kept on it.  Empty when G is intransitive or N = G.

    A permutation s normalizes G iff s^-1 g s (left to right: s^-1, then
    g, then s) is in G for every generator g.  Then g -> s^-1 g s is an
    automorphism a of G, and s maps point 0 to a point p with a(G_0) = G_p,
    the point stabilizers.  Conversely, the images h_i = a(g_i) of G's
    generators and the point p = s(0) fix s on G's one point orbit: s(g_i(q))
    = h_i(s(q)).  So the search runs over automorphisms, as the images of
    the generators, and over p:

    * Automorphisms are found one per coset of the inner ones: an inner
      automorphism is conjugation by an element of G, and s is wanted only
      modulo G.  The first image runs over one element (the least)
      of each conjugacy class with g_1's order and class size.  Each later
      image runs over the elements with g_i's order and class size whose
      products h_j x and h_j^-1 x with the images already chosen have the
      orders of g_j g_i and g_j^-1 g_i, one element per orbit of the
      centralizer of the images already chosen.
    * Each choice spreads s from s(0) = p, for every p at once, along a
      breadth-first tree of the point orbit.  A row is kept when s is a
      bijection and s(g_i(q)) = h_i(s(q)) holds on every point and
      generator, which is the check that s normalizes G.  For a choice that
      is no automorphism, or one that maps G_0 to a non-stabilizer (the
      point-line swap of PSL(3,2) on 7 points), no row passes.  For the
      choice in the coset of the inner automorphisms, the rows that pass
      are one element of G times each element of C_{S_v}(G), the
      centralizer, one row per point that G_0 fixes.

    A row is kept when it is not in the subgroup that G and the rows kept
    so far generate, tested on the quotient by G: the coset sG is keyed by
    the least image row of its elements that fix point 0.
    """
    if G._normalizer_gens is None:
        G._normalizer_gens = _normalizer_gens(G)
    return G._normalizer_gens


def _normalizer_gens(G: GroupTable) -> tuple[Permutation, ...]:
    rows = G.images_array()
    v = G.degree
    points = np.arange(v)
    gens = np.array(sorted({G.index_of(g) for g in G.generators} - {0}), dtype=np.intp)
    if not np.bincount(rows[:, 0], minlength=v).all() or not len(gens):
        return ()  # intransitive, or the trivial group on one point
    gen_rows = rows[gens].astype(np.intp)
    # breadth-first tree of point 0: each layer's new points, their parents
    # and the generator that maps parent to point
    tree = []
    seen = np.zeros(v, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.intp)
    while len(frontier):
        kids = gen_rows[:, frontier].ravel()  # generator by generator
        new = ~seen[kids]
        kids, first = np.unique(kids[new], return_index=True)
        seen[kids] = True
        which, at = np.divmod(np.flatnonzero(new)[first], len(frontier))
        tree.append((kids, frontier[at], which))
        frontier = kids

    # column (c, p) of s is spread from s(0) = p for the c-th choice of
    # images; h[col + i v + x] is h_i(x) for that choice
    h = rows[np.array(list(_automorphism_images(G, gens)))].astype(np.intp)
    col = np.repeat(np.arange(len(h)) * h[0].size, v)
    h = h.ravel()
    s = np.empty((v, len(col)), dtype=np.intp)
    s[0] = np.resize(points, len(col))
    for kids, parents, which in tree:
        s[kids] = h[col + (which * v)[:, None] + s[parents]]
    agree = np.ones(len(col), dtype=bool)
    for i, g in enumerate(gen_rows):
        agree &= (s[g] == h[col + i * v + s]).all(axis=0)
    s = s[:, agree]
    candidates = s[:, (np.sort(s, axis=0) == points[:, None]).all(axis=0)].T

    stab = np.flatnonzero(rows[:, 0] == 0)
    xs = np.searchsorted(rows[:, 0], points)  # x_p(0) = p; rows[:, 0] is sorted

    def coset_key(s: np.ndarray) -> bytes:
        # the elements g s of sG = Gs that fix 0: g(0) = s^-1(0) = a, so g
        # runs over G_0 x_a
        a = int(np.flatnonzero(s == 0)[0])
        members = s[rows[G.mul(stab, xs[a])]].astype(rows.dtype)
        return np.sort(_row_keys(members))[0].tobytes()

    kept: list[np.ndarray] = []
    quotient = [points]  # one element of each coset of G in <G, kept>
    seen_keys = {coset_key(points)}
    for s in candidates:
        if coset_key(s) in seen_keys:
            continue
        kept.append(s)
        head = 0
        while head < len(quotient):
            x = quotient[head]
            head += 1
            for t in kept:
                y = t[x]  # x then t
                key = coset_key(y)
                if key not in seen_keys:
                    seen_keys.add(key)
                    quotient.append(y)
    return tuple(Permutation(tuple(s.tolist())) for s in kept)


def _automorphism_images(G: GroupTable, gens: np.ndarray):
    """Yield candidate images (h_1, ..., h_r) of the generators `gens`, as
    element indices, one per coset of the inner automorphisms among those
    that are automorphisms; see `sym_normalizer_gens`."""
    inv = G.inverse_indices()
    orders = G.element_orders()
    labels = _class_labels(G)
    everything = np.arange(G.order)
    sizes = np.bincount(labels, minlength=G.order)[labels]
    r = len(gens)
    like = (orders == orders[gens[:, None]]) & (sizes == sizes[gens[:, None]])

    def extend(chosen: tuple[int, ...], cent: np.ndarray):
        i = len(chosen)
        if i == r:
            yield chosen
            return
        mask = like[i].copy()
        for j, h in enumerate(chosen):
            mask &= orders[G.mul(h, everything)] == orders[G.mul(gens[j], gens[i])]
            mask &= orders[G.mul(inv[h], everything)] == orders[G.mul(inv[gens[j]], gens[i])]
        xs = np.flatnonzero(mask)
        if i == 0:
            xs = xs[labels[xs] == xs]  # the least element of each class
        elif len(xs):
            # the least of each orbit under conjugation by cent
            xs = _distinct(G.conj(xs, cent[:, None]).min(axis=0), G.order)
        for x in xs.tolist():
            yield from extend(chosen + (x,), cent[G.mul(cent, x) == G.mul(x, cent)])

    yield from extend((), everything)


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
    G: GroupTable, in_H: np.ndarray, gens: tuple[int, ...], ys: np.ndarray
) -> np.ndarray:
    """The elements y of ys with y^-1 H y = H, where H = <gens> is marked by in_H.

    One gather per generator: y^-1 <gens> y lies in H iff y^-1 g y does for
    every generator g, and then equals H because conjugation keeps |H|.
    """
    for g in gens:
        ys = ys[in_H[G.conj(g, ys)]]
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
    ys = _normalizing(G, in_H, H.indices, np.arange(G.order))
    return Subgroup(G, tuple(ys.tolist()))


def _class_labels(G: GroupTable) -> np.ndarray:
    """The least element of each element's conjugacy class, computed once
    per group and kept on it.

    Each label only falls to the label of a conjugate: along the conjugation
    map y -> s^-1 y s of every generator s, and by pointer jumping.  At the
    fixed point the labels are constant along every map's cycles, so on each
    class, and the least member of a class keeps its own index.
    """
    if G._class_labels is None:
        labels = np.arange(G.order)
        maps = [G.conj(labels, s) for s in map(G.index_of, G.generators)]
        while True:
            new = labels
            for conj in maps:
                new = np.minimum(new, new[conj])
            new = new[new]
            if np.array_equal(new, labels):
                break
            labels = new
        G._class_labels = labels
    return G._class_labels


def _closure_capped(
    G: GroupTable, H: np.ndarray, gens: tuple[int, ...], y: int, cap: int
) -> np.ndarray | None:
    """Elements of <H, y>, or None once the closure grows past cap.

    H must already be a subgroup; the result is built as a union of right
    cosets of H, walking the coset graph under the generators of H plus y.
    """
    mask = np.zeros(G.order, dtype=bool)
    mask[H] = True
    count = len(H)
    step_gens = tuple(gens) + (y,)
    reps = [0]
    head = 0
    while head < len(reps):
        w = reps[head]
        head += 1
        for g in step_gens:
            u = int(G.mul(w, g))
            if not mask[u]:
                coset = G.mul(H, u)
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
    per stored generator of H (`_normalizing`).  On both routes each coset
    H*y is tried once, by its smallest cyclic generator; a coset is keyed by
    its least element (`GroupTable.coset_least`), with no sort.

    The cyclic layer reads G's power table: <y> is the first o(y) powers of
    y, and it is named by its least generator, the least y^k with
    gcd(k, o(y)) = 1.  Two cyclic subgroups are conjugate iff a generator of
    one is conjugate to a generator of the other, so the least conjugacy
    class label (`_class_labels`) over its generators keys the class of
    <y>.  Only the first cyclic subgroup of each key, by least generator, is
    seeded: the one that would be gathered first, as every later one lies
    in its class.

    A new subgroup K is keyed once for its whole class: N = N_G(K) comes from
    `_normalizing`, one `conj` gives g^-1 K g for the least element g of
    each coset N*g (`coset_least(N)`), so each distinct conjugate once,
    these go into the run's conjugate set, and the lexicographically least
    one, found by one argsort of their row keys, is stored, with its generators
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
        return [Subgroup(G, (0,))]
    known = G._subgroup_classes
    if m not in known:
        known.update(_new_subgroup_classes(G, m))
    return [Subgroup(G, tuple(least.tolist())) for least, _, _ in known[m]]


def _new_subgroup_classes(G: GroupTable, m: int) -> dict[int, list[_ClassRecord]]:
    """The class records of every order d | m (d > 1) not yet stored on G,
    found by the lattice closure that `subgroups_of_order` describes."""
    known = G._subgroup_classes
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
    # uint16 bytes of each conjugate met in this run (products are uint16)
    conjugates: set[bytes] = set()
    queue = [rec for d, recs in known.items() if m % d == 0 for rec in recs]

    def store(K: np.ndarray, gens: tuple[int, ...]) -> None:
        if len(K) in known or K.astype(np.uint16).tobytes() in conjugates:
            return
        in_K = np.zeros(G.order, dtype=bool)
        in_K[K] = True
        N = _normalizing(G, in_K, gens, everything)
        # g^-1 K g depends only on the coset N*g: one g per coset, its least
        # element; the conjugates of distinct cosets are distinct rows
        reps = _distinct(G.coset_least(N), G.order)
        members = np.sort(G.conj(K, reps[:, None]), axis=1)  # row i: reps[i]^-1 K reps[i]
        # one bytes object per row, as `K.astype(np.uint16).tobytes()` gives it
        row_bytes = np.dtype((np.void, members.shape[1] * members.itemsize))
        conjugates.update(members.view(row_bytes).ravel().tolist())
        i = int(np.argsort(_row_keys(members))[0])
        least, g = members[i].astype(np.int64), int(reps[i])
        gens_least = tuple(G.conj(np.array(gens), g).tolist())
        rec = (least, gens_least, np.sort(G.conj(N, g)))
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
            ys = _normalizing(G, in_H, gens, ys)
        if ys.size == 0:
            continue
        # one extension attempt per coset H*y, keyed by its least element;
        # ys is ascending, so the first of each key is the least y of its coset
        _, first = np.unique(G.coset_least(H, ys), return_index=True)
        for y in ys[np.sort(first)].tolist():
            if solvable_route:
                cyc = powers[: orders[y], y]
                # y normalizes H, so |<H, y>| = |H| o(y) / |H ∩ <y>|
                d = len(H) * int(orders[y]) // int(in_H[cyc].sum())
                if m % d or d in known:
                    continue
                K = _distinct(G.mul(H[:, None], cyc), G.order)
            else:
                K = _closure_capped(G, H, gens, y, cap=m)
            if K is not None and m % len(K) == 0:
                store(K, gens + (y,))

    for recs in found.values():
        recs.sort(key=lambda rec: rec[0].tolist())
    return found

