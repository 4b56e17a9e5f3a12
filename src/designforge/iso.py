"""Exact design-isomorphism testing and partition into isomorphism classes.

The decision procedure is iterative refinement coloring on the bipartite
point/block incidence structure, followed by individualization with
backtracking on point classes.  Block colors see the pairwise block-
intersection sizes; point colors additionally see a static "pair signature"
S[p,q] (the intersection pattern among the blocks through both p and q),
which carries second-order structure that plain bipartite refinement cannot
reach in regular designs.  Every bijection returned is verified to map the
first block set exactly onto the second, so hashed color signatures can never
produce a false positive; they only steer and prune the search.

Per design, `_Precomp` owns every invariant: the block-intersection matrix,
the pair signatures, the two block histograms, the stable starting colors
and the fingerprint.  The pair signatures have one path: every pair of every
block is keyed once, one covered pair per label of point pairs is kept, and
the meets among the blocks through it are hashed.  `_Precomp` also owns the
two gather indices that `_refine` reads every round: the b x b `meet_index`
(8 bytes an entry, 28 MB at b = 1872) and the (v, r_max) `point_blocks`.
Each is computed on first use and kept for the life of the `_Precomp`, so
the bucketing, the fingerprint and the backtracking search share one copy,
and a refinement round allocates no b x b index of its own.

A design that `iso_classes` has checked to be exactly one orbit of blocks
under a group G it was given (every design `search.run` emits, with the
search group; the check is `permgroup.block_map`) gets a `_Precomp` that
knows G, and G's symmetry shortens three computations.  Its block
histograms come from block 0's row of meets, which every other row
permutes.  Its pair labels are G's orbits on point pairs, on which the
signatures are constant, so one pair per orbit is hashed, where a design
without G hashes every pair.  And refinement works on orbit
representatives: the colouring at each backtracking depth is constant on
the orbits of the pointwise stabilizer in G of the points individualized so
far, so `_refine` computes each colour for one point and one block per
orbit (one block and G's point-orbit representatives at depth 0) and copies
it to the rest of the orbit.  For the lambda = 3 designs of PSL(3,3) on 144
points that is 1 point and 1 block at depth 0, 8 and 16 at depth 1, and 52
and 160 at depth 2, of 144 and 468.  Such a design builds `meet_index` only
where backtracking reaches a trivial stabilizer.  Every other design, and
every design that `are_isomorphic`, `fingerprint` or the `designforge iso`
command sees, takes the b x b path: the histograms count the whole
intersection matrix, every point pair is its own label, and every point and
block is its own representative.  Sums of the same uint64 terms do not
depend on their order, so both paths give the same values, colours and
bijections bit for bit.

`iso_classes` works in tiers and reuses what it learns:

* Reuse.  The kept bijections start as the elements of N_{S_v}(G) outside
  G that `permgroup.sym_normalizer_gens` returns for the group G given
  (each s, and s^-1 unless s^2 is in G), computed only when two or more
  designs of G's degree arrive.  Every bijection found by backtracking is
  kept with its inverse.  Each later design is relabelled by the kept ones
  and looked up among the block sets already visited.  A hit is a verified
  isomorphism: the exact block-set match is the certificate, so a kept map
  needs no proof that it is one.  s maps a G-invariant design onto a
  G-invariant design, so the search output of a group whose normalizer
  pairs its block sets (the lambda = 3 pair and the 182 lambda = 12 block
  sets of PSL(3,3) on 144 points) merges with no backtracking.
* Tiers.  A design that no kept bijection settles is compared with the
  class representatives of its v, b and k: first the intersection and
  block-profile histograms (from block 0 on the short path, from the
  intersection matrix otherwise), then the histogram of the stable colors,
  then backtracking.
  Pair signatures and colors, and on the short path the intersection
  matrix too, are built only for designs that reach the second tier, and
  each `_Precomp` lives only while its design is being compared.  A design
  that opens a class is checked and gets its histograms only once a later
  design reaches it, so a class whose only other members merge by a kept
  bijection (the lambda = 3 pair) costs nothing in the tiers.
* Negative answers come only from a mismatched invariant or an exhausted
  backtracking search.  A kept bijection that finds no match decides
  nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain

import numpy as np

from .design import Design, order_key
from .permgroup import GroupTable, _weights, block_map, pair_orbit_table, sym_normalizer_gens

_U64 = np.uint64


def _mix(arr: np.ndarray) -> np.ndarray:
    """splitmix64-style avalanche, vectorized over uint64."""
    x = arr.astype(_U64, copy=True)
    x += _U64(0x9E3779B97F4A7C15)
    x ^= x >> _U64(30)
    x *= _U64(0xBF58476D1CE4E5B9)
    x ^= x >> _U64(27)
    x *= _U64(0x94D049BB133111EB)
    x ^= x >> _U64(31)
    return x


def _row_multiset_hash(rows: np.ndarray) -> np.ndarray:
    """Order-insensitive 64-bit hash of each row (sorted dot with fixed weights)."""
    srt = np.sort(rows, axis=1).astype(_U64)
    return _mix((srt * _weights(srt.shape[1])[None, :]).sum(axis=1))


def _pair_hashes(counts: np.ndarray, on_block: np.ndarray, meet: np.ndarray) -> np.ndarray:
    """One signature per pair label, where label i's pair lies on the
    counts[i] blocks that follow its predecessors' in `on_block`.

    A pair on no block gets 0.  The pairs of one coverage count c are hashed
    together as rows of the c(c-1)/2 meets among their blocks, except that
    a pair on one block has no meets, and outside 2-(v,k,1) designs (every
    label covered, all with one count) its signature is the constant 1, not
    the empty-row hash.
    """
    starts = np.cumsum(counts) - counts
    coverages = np.unique(counts[counts > 0])
    lam = int(coverages[0]) if counts.all() and len(coverages) == 1 else None
    hashes = np.zeros(len(counts), dtype=_U64)
    for c in coverages:
        sel = counts == c
        if c == 1 and lam != 1:
            hashes[sel] = 1
            continue
        blks = on_block[starts[sel, None] + np.arange(c)]
        a, b = np.triu_indices(c, k=1)
        hashes[sel] = _row_multiset_hash(meet[blks[:, a], blks[:, b]])
    return hashes


def _meet_index(meet_rows: np.ndarray, k: int) -> np.ndarray:
    """meet_rows[i, j] + j (k+1) as intp (see `_Precomp.meet_index`)."""
    index = meet_rows.astype(np.intp)
    index += np.arange(meet_rows.shape[1], dtype=np.intp) * (k + 1)
    return index


# orbits as (representatives, the position among them of each member's
# representative); in `_OWN` every member is its own representative, and
# indexing by its slices takes views, so the group-less path copies nothing
_Reps = tuple[np.ndarray | slice, np.ndarray | slice]
_OWN: _Reps = (slice(None), slice(None))


def _reps(least: np.ndarray) -> _Reps:
    """The orbits named by `least`, each member's least orbit-mate."""
    reps, of = np.unique(least, return_inverse=True)
    return _OWN if len(reps) == len(least) else (reps, of)


@dataclass(frozen=True)
class Fingerprint:
    """Relabeling-invariant summary of a design, used as an isomorphism prefilter."""

    v: int
    b: int
    k: int
    intersection_histogram: tuple[tuple[int, int], ...]
    block_profile_histogram: tuple[tuple[int, int], ...]
    stable_color_histogram: tuple[tuple[int, int], ...]

    def first_mismatch(self, other: Fingerprint) -> str | None:
        return next(
            (f.name for f in fields(self) if getattr(self, f.name) != getattr(other, f.name)),
            None,
        )


@dataclass(frozen=True)
class IsoCertificate:
    """Either an explicit point bijection, or the name of a mismatched invariant."""

    isomorphic: bool
    bijection: tuple[int, ...] | None = None
    mismatch: str | None = None


class _Precomp:
    """Every per-design invariant and refinement index, each computed on
    first use and kept until the `_Precomp` is dropped."""

    def __init__(
        self, D: Design, group: GroupTable | None = None, block_of: np.ndarray | None = None
    ):
        self.design = D
        # a group of which D is exactly one block orbit, and `block_map` of
        # them, which shows it (`iso_classes` computes it before passing
        # both); or None.  The colours at depth 0 need the group alone
        self.group = group
        self.block_of = block_of

    @cached_property
    def meet(self) -> np.ndarray:
        """The b x b block-intersection sizes."""
        inc = self.design.incidence().astype(np.float32)
        # exact: entries are at most k; uint8 up to k = 255, uint16 above
        return (inc @ inc.T).astype(np.min_scalar_type(self.design.k))

    @cached_property
    def meet_index(self) -> np.ndarray:
        """meet[i, j] + j (k+1) as intp: where `_refine`'s block term for the
        pair (i, j) sits in a (b, k+1) table whose row j belongs to block j.
        b x b, 8 bytes an entry: 1.75 MB at b = 468, 28 MB at b = 1872."""
        return _meet_index(self.meet, self.design.k)

    @cached_property
    def point_blocks(self) -> np.ndarray:
        """The blocks through each point, as a (v, r_max) intp array padded
        with b, for `_refine`'s point term (r_max: the largest replication)."""
        D = self.design
        pts = D.array.ravel()
        order = np.argsort(pts, kind="stable")
        through = np.bincount(pts, minlength=D.v)
        starts = np.cumsum(through) - through
        index = np.full((D.v, int(through.max())), D.b, dtype=np.intp)
        index[pts[order], np.arange(len(pts)) - starts[pts[order]]] = order // D.k
        return index

    def orbits(self, fixed: tuple[int, ...]) -> tuple[_Reps, _Reps]:
        """The orbits on points and on blocks of H, the pointwise stabilizer
        of `fixed` in the group, each as (representatives, the position in
        them of each point's or block's representative).  Every point or
        block is its own representative (`_OWN`) with no group, or where H
        fixes every point or every block.

        H fixes every colouring that `_refine` reaches from colours it fixes,
        so one representative per orbit carries its orbit's colour.  A point
        orbit is named by its least point (the rows of H hold every element,
        so a column's minimum is the least point of its orbit).  Block j is
        g(B0) for the element g = `_carriers[j]`, and h(B_j) is (g then h)(B0)
        = `block_of[g*h]`, so one product per block and element of H
        (`GroupTable.mul`) names each block orbit by its least block.
        """
        if self.group is None:
            return _OWN, _OWN
        if not fixed:  # D is one block orbit of G itself
            return _reps(self._least_points), _reps(np.zeros(self.design.b, dtype=np.intp))
        rows = self.group.images_array()
        fixed_arr = np.array(fixed)
        H = np.flatnonzero((rows[:, fixed_arr] == fixed_arr).all(axis=1))
        least_blocks = self.block_of[self.group.mul(self._carriers[:, None], H)].min(axis=1)
        return _reps(rows[H].min(axis=0)), _reps(least_blocks)

    @cached_property
    def _least_points(self) -> np.ndarray:
        """The least point of each point's G-orbit."""
        return self.group.images_array().min(axis=0)

    @cached_property
    def _carriers(self) -> np.ndarray:
        """For each block B_j, one element g of the group with g(B0) = B_j."""
        carriers = np.empty(self.design.b, dtype=np.intp)
        carriers[self.block_of] = np.arange(self.group.order)
        return carriers

    @cached_property
    def pairs(self) -> np.ndarray:
        """The v x v uint64 pair signatures S[p,q].

        S[p,q] is 0 when no block holds both p and q, 1 when one block does
        (outside 2-(v,k,1) designs), and otherwise hashes the multiset of
        |B ∩ B'| over the blocks B != B' through both; S[p,p] hashes the
        number of blocks through p.  So the pair coverage and lambda are
        functions of S, and the stable colors, which start from S's row
        hashes, see them.

        Every pair of every block is keyed once, block by block, and each
        key maps to a label, on whose pairs S is constant.  One covered pair
        per label is kept, sorting its keys by label groups the blocks
        through it, and S is read off the labels.  Which pair, and which
        order of its blocks, does not matter: the meets are hashed as a
        multiset.  The group only picks the labels.  With no group every
        unordered pair is its own label; with a group G of which the design
        is one block orbit they are `pair_orbit_table(G)`'s G-orbits of
        point pairs (g maps the blocks through {p, q} onto those through
        {gp, gq} and keeps every meet).
        """
        D = self.design
        v = D.v
        if self.group is None:
            labels = np.zeros((v, v), dtype=np.intp)
            labels[np.triu(np.ones((v, v), dtype=bool), 1)] = np.arange(1, v * (v - 1) // 2 + 1)
            labels += labels.T - 1  # the diagonal is -1
        else:
            labels = pair_orbit_table(self.group)[0]
        iu, ju = np.triu_indices(D.k, k=1)
        keys = (D.array[:, iu] * v + D.array[:, ju]).ravel()  # block by block
        of_key = labels.ravel()[keys]
        pick = np.empty(labels.max() + 1, dtype=keys.dtype)
        pick[of_key] = keys  # one covered pair of each label, whichever
        kept = np.flatnonzero(keys == pick[of_key])
        counts = np.bincount(of_key[kept], minlength=len(pick))
        on_block = kept[np.argsort(of_key[kept])] // len(iu)  # label by label
        S = np.append(_pair_hashes(counts, on_block, self.meet), _U64(0))[labels]
        S[np.diag_indices(v)] = _mix(np.bincount(D.array.ravel(), minlength=v))
        return S

    @cached_property
    def block_histograms(self) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
        """The block-intersection and block-profile histograms.

        With no group they come from `meet` alone: meet is symmetric, so
        `meet_index` counts row j's meets at j (k+1).  With a group of which
        the design is one block orbit, every row of `meet` is a permutation
        of block 0's, so block 0's row of counts stands for all b.
        """
        D = self.design
        if self.group is None:
            flat = np.bincount(self.meet_index.ravel(), minlength=D.b * (D.k + 1))
            profile_rows = flat.reshape(D.b, D.k + 1)
        else:
            on_first = np.zeros(D.v, dtype=np.intp)
            on_first[D.array[0]] = 1
            profile_rows = np.bincount(on_first[D.array].sum(axis=1), minlength=D.k + 1)[None, :]
        profile_rows[:, D.k] -= 1  # drop the self-intersection
        copies = D.b // len(profile_rows)
        profile_hashes = _row_multiset_hash(
            profile_rows + np.arange(D.k + 1, dtype=np.int64)[None, :] * 4096
        )
        inter = profile_rows.sum(axis=0) * copies // 2  # each unordered pair of blocks, once
        return (
            tuple((size, int(c)) for size, c in enumerate(inter) if c),
            _histogram(np.repeat(profile_hashes, copies)),
        )

    @cached_property
    def colors(self) -> tuple[np.ndarray, np.ndarray]:
        """The stable point and block colours from which every search starts."""
        pc = _row_multiset_hash(self.pairs.view(np.int64))
        bc = np.full(self.design.b, 2, dtype=_U64)
        return _refine(self, pc, bc)

    @cached_property
    def fingerprint(self) -> Fingerprint:
        D = self.design
        intersections, profiles = self.block_histograms
        return Fingerprint(
            v=D.v,
            b=D.b,
            k=D.k,
            intersection_histogram=intersections,
            block_profile_histogram=profiles,
            stable_color_histogram=_histogram(np.concatenate(self.colors)),
        )


def _histogram(values: np.ndarray) -> tuple[tuple[int, int], ...]:
    vals, counts = np.unique(values, return_counts=True)
    return tuple((int(v), int(c)) for v, c in zip(vals, counts))


def _refine(
    pre: _Precomp, pc: np.ndarray, bc: np.ndarray, fixed: tuple[int, ...] = ()
) -> tuple[np.ndarray, np.ndarray]:
    """Refine point/block colors to a stable partition.

    Colors are raw 64-bit signatures, so colorings computed independently on
    two designs remain comparable.  Each round folds in: for blocks, the
    multiset of (intersection size, color) over all blocks and the multiset
    of point colors on the block; for points, the multiset of colors of the
    blocks through the point and the multiset of (pair signature, color) over
    all other points.  A block's (intersection size, color) term depends
    only on those two values, so it is looked up in a colors x (k+1) table.
    Each round spreads that table to one row per block and gathers it
    through rows of `pre.meet_index`, and gathers the point term through
    rows of `pre.point_blocks`, whose padding slot b holds a zero term.
    uint64 sums wrap, so they are exact modulo 2^64 in any order: any method
    that adds the same terms gives the same colors, bit for bit.

    `fixed` lists the points individualized so far.  Both colorings are
    constant on the orbits of `pre.orbits(fixed)`, and refinement keeps
    that (it commutes with every automorphism of the design that keeps the
    colours), so each term is computed for one representative per orbit and
    copied to the rest of it.  With no group every point and block is its
    own representative, and the index rows are the whole of `meet_index`.
    With a group, the rows are those of the block representatives alone
    (one at depth 0), taken from `pre.meet`, until the stabilizer is
    trivial.

    The loop stops after the first round that does not raise the total number
    of point and block classes.  That total is at most v + b, so the loop ends.
    The rule reads only the class counts, which isomorphic inputs share, so
    their colorings stay comparable; barring a 64-bit hash collision each
    round refines the last, so the stop is the first round that splits nothing.
    """
    D = pre.design
    (p_reps, p_of), (b_reps, b_of) = pre.orbits(fixed)
    index = pre.meet_index if isinstance(b_reps, slice) else _meet_index(pre.meet[b_reps], D.k)
    arr = D.array[b_reps]
    through = pre.point_blocks[p_reps]
    sig = pre.pairs[p_reps]
    sizes = np.arange(D.k + 1, dtype=_U64) * _U64(0x9DDFEA08EB382D69)
    b_vals, ids = np.unique(bc[b_reps], return_inverse=True)
    b_ids = ids[b_of]
    n_p, n_b = len(np.unique(pc[p_reps])), len(b_vals)
    while True:
        table = _mix(_mix(b_vals)[:, None] ^ sizes[None, :])  # row: color, column: size
        # every index is in range by construction, so mode="clip" only drops
        # the bounds check (block gather at b = 468: 0.36 ms, 0.43 ms checked)
        bsig = np.take(table[b_ids].ravel(), index, mode="clip").sum(axis=1)
        bpoint = _mix(pc * _U64(3) + _U64(1))[arr].sum(axis=1)
        b_new = _mix(bc[b_reps]) ^ _mix(bsig) ^ _mix(bpoint)
        bc = b_new[b_of]
        bterm = np.append(_mix(bc * _U64(5) + _U64(2)), _U64(0))  # slot b: the padding
        pblock = np.take(bterm, through, mode="clip").sum(axis=1)
        ppair = _mix(sig ^ _mix(pc * _U64(7) + _U64(3))[None, :]).sum(axis=1)
        p_new = _mix(pc[p_reps]) ^ _mix(pblock) ^ _mix(ppair)
        pc = p_new[p_of]
        b_vals, ids = np.unique(b_new, return_inverse=True)
        b_ids = ids[b_of]
        m_p, m_b = len(np.unique(p_new)), len(b_vals)
        if m_p + m_b <= n_p + n_b:
            return pc, bc
        n_p, n_b = m_p, m_b


def fingerprint(D: Design) -> Fingerprint:
    return _Precomp(D).fingerprint


def _extract_bijection(
    pre1: _Precomp, pre2: _Precomp, pc1: np.ndarray, pc2: np.ndarray
) -> tuple[int, ...] | None:
    """Build and verify the point map implied by two discrete point colorings."""
    order1 = np.argsort(pc1, kind="stable")
    order2 = np.argsort(pc2, kind="stable")
    if not np.array_equal(pc1[order1], pc2[order2]):
        return None
    pi = np.empty(pre1.design.v, dtype=np.int64)
    pi[order1] = order2
    if pre1.design.relabel(pi) != pre2.design:
        return None
    return tuple(int(x) for x in pi)


def _search(
    pre1: _Precomp,
    pre2: _Precomp,
    pc1: np.ndarray,
    bc1: np.ndarray,
    pc2: np.ndarray,
    bc2: np.ndarray,
    fixed1: tuple[int, ...] = (),
    fixed2: tuple[int, ...] = (),
) -> tuple[int, ...] | None:
    """Backtrack from the colorings, where fixed1 and fixed2 list the points
    individualized so far on each side, in order."""
    pc1, bc1 = _refine(pre1, pc1, bc1, fixed1)
    pc2, bc2 = _refine(pre2, pc2, bc2, fixed2)
    if _histogram(pc1) != _histogram(pc2):
        return None
    if _histogram(bc1) != _histogram(bc2):
        return None
    vals, counts = np.unique(pc1, return_counts=True)
    nonsingle = counts > 1
    if not nonsingle.any():
        return _extract_bijection(pre1, pre2, pc1, pc2)
    # individualize inside the smallest non-singleton point class
    sel = np.flatnonzero(nonsingle)
    target = sel[np.lexsort((vals[sel], counts[sel]))[0]]
    color = vals[target]
    fresh = _mix(np.array([color ^ _U64(len(fixed1) + 0xABCD)], dtype=_U64))[0]
    p1 = int(np.flatnonzero(pc1 == color)[0])
    for p2 in np.flatnonzero(pc2 == color).tolist():
        npc1 = pc1.copy()
        npc1[p1] = fresh
        npc2 = pc2.copy()
        npc2[p2] = fresh
        found = _search(pre1, pre2, npc1, bc1, npc2, bc2, fixed1 + (p1,), fixed2 + (p2,))
        if found is not None:
            return found
    return None


def are_isomorphic(D1: Design, D2: Design) -> IsoCertificate:
    """Complete and sound isomorphism decision with an explicit certificate."""
    if (D1.v, D1.k) != (D2.v, D2.k):
        raise ValueError("designs must share (v, k)")
    pre1, pre2 = _Precomp(D1), _Precomp(D2)
    mismatch = pre1.fingerprint.first_mismatch(pre2.fingerprint)
    if mismatch is not None:
        return IsoCertificate(False, mismatch=mismatch)
    return _are_isomorphic(pre1, pre2)


def _are_isomorphic(pre1: _Precomp, pre2: _Precomp) -> IsoCertificate:
    """The backtracking decision, for two designs whose fingerprints match."""
    found = _search(pre1, pre2, *pre1.colors, *pre2.colors)
    if found is None:
        return IsoCertificate(False, mismatch="exhausted-backtracking")
    return IsoCertificate(True, bijection=found)


def iso_classes(designs: list[Design], group: GroupTable | None = None) -> list[list[int]]:
    """Partition input indices into isomorphism classes.

    Designs are visited in input order.  A design joins a class when the
    identity or a kept bijection maps it onto a block set already visited;
    otherwise it goes through the tiers against the class representatives
    (see the module docstring), and starts a new class if none matches.
    Each class lists its members in ascending input order, and classes are
    ordered by the lexicographically least canonical block set they contain;
    the partition is independent of the input order.

    `group`, if given, only speeds the work up.  Its normalizer elements
    seed the kept bijections when two or more designs have its degree.  A
    design that is exactly the G-orbit of its first block
    (`permgroup.block_map`, run here once per design that is compared in
    the tiers) reads its block histograms off block 0 and its pair
    signatures off one pair per G-orbit of pairs, and refines on
    stabilizer-orbit representatives; backtracking on it reads products of
    elements of G (`GroupTable.mul`), whose table `search.run` has built.
    Any other design takes the b x b path, and the partition is the same
    with or without the group.
    """
    known: dict[int, np.ndarray | None] = {}  # each design's `block_map`, checked once

    def precomp(i: int) -> _Precomp:
        D = designs[i]
        if i not in known:
            one_orbit = group is not None and group.degree == D.v
            known[i] = block_map(group.images_array(), D.array) if one_orbit else None
        return _Precomp(D) if known[i] is None else _Precomp(D, group, known[i])

    label: list[int] = []  # label[i]: the first design of design i's class
    visited: dict[Design, int] = {}
    learned: dict[bytes, np.ndarray] = {}
    if group is not None and sum(D.v == group.degree for D in designs) > 1:
        # s maps each G-invariant design onto a G-invariant design, and s^-1
        # maps it as s does when s^2 is in G, since then s^-1 is in sG
        for s in sym_normalizer_gens(group):
            sigma = np.array(s.images, dtype=np.int64)
            maps = (sigma,) if s * s in group else (sigma, np.argsort(sigma))
            for g in maps:
                learned.setdefault(g.tobytes(), g)
    reps: dict[tuple[int, int, int], list[int]] = {}  # (v, b, k) -> class representatives
    # block histograms and fingerprints, made on first need: a class opener
    # gets them only once a later design reaches its bucket
    hists: dict[int, tuple] = {}
    fps: dict[int, Fingerprint] = {}
    for i, D in enumerate(designs):
        images = chain([D], (D.relabel(pi) for pi in learned.values() if len(pi) == D.v))
        hit = next((visited[E] for E in images if E in visited), None)
        visited.setdefault(D, i)
        if hit is not None:
            label.append(label[hit])
            continue
        bucket = reps.setdefault((D.v, D.b, D.k), [])
        if bucket:
            pre = precomp(i)
            hists[i] = pre.block_histograms
        for r in bucket:
            r_pre = None
            if r not in hists:
                r_pre = precomp(r)
                hists[r] = r_pre.block_histograms
            if hists[r] != hists[i]:
                continue
            if r not in fps:
                r_pre = r_pre or precomp(r)
                fps[r] = r_pre.fingerprint
            fps[i] = pre.fingerprint
            if fps[r] != fps[i]:
                continue
            cert = _are_isomorphic(r_pre or precomp(r), pre)
            if cert.isomorphic:
                label.append(label[r])
                pi = np.array(cert.bijection, dtype=np.int64)
                for g in (pi, np.argsort(pi)):
                    learned.setdefault(g.tobytes(), g)
                break
        else:
            bucket.append(i)
            label.append(i)
    classes: dict[int, list[int]] = {}
    for i, first in enumerate(label):
        classes.setdefault(first, []).append(i)
    return sorted(classes.values(), key=lambda cls: min(order_key(designs[i]) for i in cls))
