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
the pair signatures (from one sort of every pair of every block), the two
block histograms, the stable starting colors and the fingerprint.  It also
owns the two gather indices that `_refine` reads every round: the b x b
`meet_index` (8 bytes an entry, 28 MB at b = 1872) and the (v, r_max)
`point_blocks`.  Each is computed on first use and kept for the life of the
`_Precomp`, so the bucketing, the fingerprint and the backtracking search
share one copy, and a refinement round allocates no b x b index of its own.

`iso_classes` works in tiers and reuses what it learns:

* Reuse.  Every bijection found by backtracking is kept with its inverse,
  and each later design is relabelled by the kept ones and looked up among
  the block sets already visited.  A hit is a verified isomorphism: the
  exact block-set match is the certificate.  Designs whose full automorphism
  group is G can only be isomorphic through the normalizer of G, so one
  learned bijection outside G settles every pair it relates.
* Tiers.  A design that no kept bijection settles is compared with the
  class representatives: first the intersection and block-profile
  histograms (from the intersection matrix alone), then the full
  fingerprint, then backtracking.  Pair signatures and colors are built
  only for designs that reach the second tier, and each `_Precomp` lives
  only while its design is being compared.
* Negative answers come only from a mismatched invariant or an exhausted
  backtracking search.  A kept bijection that finds no match decides
  nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain

import numpy as np

from .design import Design, order_key

_U64 = np.uint64


def _weights(n: int) -> np.ndarray:
    """n odd uint64 hash weights from one seeded draw; a longer draw starts
    with the same values, so a row's hash does not depend on the table size."""
    return np.random.default_rng(0x5EED5EED).integers(
        1, np.iinfo(np.int64).max, size=n, dtype=np.int64
    ).astype(_U64) | _U64(1)


_RNG_WEIGHTS = _weights(4096)


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
    n = srt.shape[1]
    w = _RNG_WEIGHTS[:n] if n <= len(_RNG_WEIGHTS) else _weights(n)
    return _mix((srt * w[None, :]).sum(axis=1))


@dataclass(frozen=True)
class Fingerprint:
    """Relabeling-invariant summary of a design, used as an isomorphism prefilter."""

    v: int
    b: int
    k: int
    lam: int | None
    intersection_histogram: tuple[tuple[int, int], ...]
    block_profile_histogram: tuple[tuple[int, int], ...]
    pair_coverage_spectrum: tuple[tuple[int, int], ...]
    pair_signature_histogram: tuple[tuple[int, int], ...]
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

    def __init__(self, D: Design):
        self.design = D

    @cached_property
    def meet(self) -> np.ndarray:
        """The b x b block-intersection sizes."""
        inc = self.design.incidence().astype(np.float32)
        return (inc @ inc.T).astype(np.uint8)  # exact: entries <= k <= 255

    @cached_property
    def meet_index(self) -> np.ndarray:
        """meet[i, j] + j (k+1) as intp: where `_refine`'s block term for the
        pair (i, j) sits in a (b, k+1) table whose row j belongs to block j.
        b x b, 8 bytes an entry: 1.75 MB at b = 468, 28 MB at b = 1872."""
        index = self.meet.astype(np.intp)
        index += np.arange(self.design.b, dtype=np.intp) * (self.design.k + 1)
        return index

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

    @cached_property
    def pairs(self) -> tuple[int | None, np.ndarray, np.ndarray]:
        """(lam, C, S): the constant pair coverage (or None), the pair coverage
        counts C[p,q] and the pair signatures S[p,q].

        S[p,q] hashes the multiset of |B ∩ B'| over the blocks B != B'
        through both p and q, and S[p,p] the number of blocks through p.
        Every pair of every block is keyed once; sorting the keys groups the
        blocks through each pair, and the pairs of one coverage count c are
        hashed together as rows of c(c-1)/2 meets.
        """
        D = self.design
        v = D.v
        iu, ju = np.triu_indices(D.k, k=1)
        keys = (D.array[:, iu] * v + D.array[:, ju]).ravel()
        order = np.argsort(keys)
        on_block = order // len(iu)  # blocks through each pair, pair by pair
        pair_keys, starts, counts = np.unique(keys[order], return_index=True, return_counts=True)
        ps, qs = np.divmod(pair_keys, v)
        coverages = np.unique(counts)
        lam = (
            int(coverages[0])
            if len(pair_keys) == math.comb(v, 2) and len(coverages) == 1
            else None
        )
        through = np.bincount(D.array.ravel(), minlength=v)
        cov = np.diag(through)
        cov[ps, qs] = cov[qs, ps] = counts
        S = np.diag(_mix(through))
        for c in coverages:
            sel = counts == c
            blks = on_block[starts[sel, None] + np.arange(c)]
            a, b = np.triu_indices(c, k=1)
            hashes = _row_multiset_hash(self.meet[blks[:, a], blks[:, b]])
            if c == 1 and lam != 1:
                # a pair on one block has no meets; outside 2-(v,k,1) designs
                # its signature is the constant 1, not the empty-row hash
                hashes[:] = 1
            S[ps[sel], qs[sel]] = S[qs[sel], ps[sel]] = hashes
        return lam, cov, S

    @cached_property
    def block_histograms(self) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
        """The block-intersection and block-profile histograms, from `meet` alone:
        meet is symmetric, so `meet_index` counts row j's meets at j (k+1)."""
        D = self.design
        flat = np.bincount(self.meet_index.ravel(), minlength=D.b * (D.k + 1))
        profile_rows = flat.reshape(D.b, D.k + 1)
        profile_rows[:, D.k] -= 1  # drop the self-intersection
        profile_hashes = _row_multiset_hash(
            profile_rows + np.arange(D.k + 1, dtype=np.int64)[None, :] * 4096
        )
        inter = profile_rows.sum(axis=0) // 2  # each unordered pair of blocks, once
        return (
            tuple((size, int(c)) for size, c in enumerate(inter) if c),
            _histogram(profile_hashes),
        )

    @cached_property
    def colors(self) -> tuple[np.ndarray, np.ndarray]:
        """The stable point and block colours from which every search starts."""
        pc = _row_multiset_hash(self.pairs[2].view(np.int64))
        bc = np.full(self.design.b, 2, dtype=_U64)
        return _refine(self, pc, bc)

    @cached_property
    def fingerprint(self) -> Fingerprint:
        D = self.design
        intersections, profiles = self.block_histograms
        lam, cov, sig = self.pairs
        return Fingerprint(
            v=D.v,
            b=D.b,
            k=D.k,
            lam=lam,
            intersection_histogram=intersections,
            block_profile_histogram=profiles,
            pair_coverage_spectrum=_histogram(cov[np.triu_indices(D.v, k=1)]),
            pair_signature_histogram=_histogram(_row_multiset_hash(sig.view(np.int64))),
            stable_color_histogram=_histogram(np.concatenate(self.colors)),
        )


def _histogram(values: np.ndarray) -> tuple[tuple[int, int], ...]:
    vals, counts = np.unique(values, return_counts=True)
    return tuple((int(v), int(c)) for v, c in zip(vals, counts))


def _refine(pre: _Precomp, pc: np.ndarray, bc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Refine point/block colors to a stable partition.

    Colors are raw 64-bit signatures, so colorings computed independently on
    two designs remain comparable.  Each round folds in: for blocks, the
    multiset of (intersection size, color) over all blocks and the multiset
    of point colors on the block; for points, the multiset of colors of the
    blocks through the point and the multiset of (pair signature, color) over
    all other points.  A block's (intersection size, color) term depends
    only on those two values, so it is looked up in a colors x (k+1) table.
    Each round spreads that table to one row per block and gathers it
    through `pre.meet_index`, and gathers the point term through
    `pre.point_blocks`, whose padding slot b holds a zero term; both indices
    are built once per design.  uint64 sums wrap, so they are exact modulo
    2^64 in any order: any method that adds the same terms gives the same
    colors, bit for bit.

    The loop stops after the first round that does not raise the total number
    of point and block classes.  That total is at most v + b, so the loop ends.
    The rule reads only the class counts, which isomorphic inputs share, so
    their colorings stay comparable; barring a 64-bit hash collision each
    round refines the last, so the stop is the first round that splits nothing.
    """
    arr = pre.design.array
    sig = pre.pairs[2]
    sizes = np.arange(pre.design.k + 1, dtype=_U64) * _U64(0x9DDFEA08EB382D69)
    b_vals, b_ids = np.unique(bc, return_inverse=True)
    n_p, n_b = len(np.unique(pc)), len(b_vals)
    while True:
        table = _mix(_mix(b_vals)[:, None] ^ sizes[None, :])  # row: color, column: size
        # every index is in range by construction, so mode="clip" only drops
        # the bounds check (block gather at b = 468: 0.36 ms, 0.43 ms checked)
        bsig = np.take(table[b_ids].ravel(), pre.meet_index, mode="clip").sum(axis=1)
        bpoint = _mix(pc * _U64(3) + _U64(1))[arr].sum(axis=1)
        bc = _mix(bc) ^ _mix(bsig) ^ _mix(bpoint)
        bterm = np.append(_mix(bc * _U64(5) + _U64(2)), _U64(0))  # slot b: the padding
        pblock = np.take(bterm, pre.point_blocks, mode="clip").sum(axis=1)
        ppair = _mix(sig ^ _mix(pc * _U64(7) + _U64(3))[None, :]).sum(axis=1)
        pc = _mix(pc) ^ _mix(pblock) ^ _mix(ppair)
        b_vals, b_ids = np.unique(bc, return_inverse=True)
        m_p, m_b = len(np.unique(pc)), len(b_vals)
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
    depth: int,
) -> tuple[int, ...] | None:
    pc1, bc1 = _refine(pre1, pc1, bc1)
    pc2, bc2 = _refine(pre2, pc2, bc2)
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
    fresh = _mix(np.array([color ^ _U64(depth + 0xABCD)], dtype=_U64))[0]
    p1 = int(np.flatnonzero(pc1 == color)[0])
    for p2 in np.flatnonzero(pc2 == color):
        npc1 = pc1.copy()
        npc1[p1] = fresh
        npc2 = pc2.copy()
        npc2[int(p2)] = fresh
        found = _search(pre1, pre2, npc1, bc1.copy(), npc2, bc2.copy(), depth + 1)
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
    found = _search(pre1, pre2, *pre1.colors, *pre2.colors, depth=0)
    if found is None:
        return IsoCertificate(False, mismatch="exhausted-backtracking")
    return IsoCertificate(True, bijection=found)


def iso_classes(designs: list[Design]) -> list[list[int]]:
    """Partition input indices into isomorphism classes.

    Designs are visited in input order.  A design joins a class when the
    identity or a kept bijection maps it onto a block set already visited;
    otherwise it goes through the tiers against the class representatives
    (see the module docstring), and starts a new class if none matches.
    Classes are ordered by the lexicographically least canonical block set
    they contain; the partition is independent of the input order.
    """
    label: list[int] = []  # label[i]: the first design of design i's class
    visited: dict[Design, int] = {}
    learned: dict[bytes, np.ndarray] = {}
    reps: dict[tuple, list[int]] = {}  # block histograms -> class representatives
    fps: dict[int, Fingerprint] = {}  # made on first need
    for i, D in enumerate(designs):
        images = chain([D], (D.relabel(pi) for pi in learned.values() if len(pi) == D.v))
        hit = next((visited[E] for E in images if E in visited), None)
        visited.setdefault(D, i)
        if hit is not None:
            label.append(label[hit])
            continue
        pre = _Precomp(D)
        bucket = reps.setdefault((D.v, D.b, D.k, pre.block_histograms), [])
        for r in bucket:
            r_pre = None
            if r not in fps:
                r_pre = _Precomp(designs[r])
                fps[r] = r_pre.fingerprint
            fps[i] = pre.fingerprint
            if fps[r] != fps[i]:
                continue
            cert = _are_isomorphic(r_pre or _Precomp(designs[r]), pre)
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


def class_representatives(designs: list[Design], classes: list[list[int]]) -> list[int]:
    """Index of the lexicographically least design in each class."""
    return [min(cls, key=lambda i: order_key(designs[i])) for cls in classes]
