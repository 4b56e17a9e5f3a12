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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import Design, lambda_of

_U64 = np.uint64
_RNG_WEIGHTS = np.random.default_rng(0x5EED5EED).integers(
    1, np.iinfo(np.int64).max, size=4096, dtype=np.int64
).astype(_U64) | _U64(1)


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
    w = _RNG_WEIGHTS[: srt.shape[1]]
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
        for name in (
            "v",
            "b",
            "k",
            "lam",
            "intersection_histogram",
            "block_profile_histogram",
            "pair_coverage_spectrum",
            "pair_signature_histogram",
            "stable_color_histogram",
        ):
            if getattr(self, name) != getattr(other, name):
                return name
        return None


@dataclass(frozen=True)
class IsoCertificate:
    """Either an explicit point bijection, or the name of a mismatched invariant."""

    isomorphic: bool
    bijection: tuple[int, ...] | None = None
    mismatch: str | None = None


class _Precomp:
    """Per-design matrices shared by fingerprinting and the backtracking search."""

    def __init__(self, D: Design):
        self.design = D
        self.inc = D.incidence()
        inc_f = self.inc.astype(np.float64)
        meet = inc_f @ inc_f.T  # exact: entries <= k <= 255
        self.meet = meet.astype(np.uint8)
        cov = inc_f.T @ inc_f
        self.pair_cov = cov.astype(np.int64)
        self.pair_sig = self._pair_signatures()

    def _pair_signatures(self) -> np.ndarray:
        """S[p,q]: hash of the multiset of |B ∩ B'| over blocks B, B' ∋ {p,q}."""
        D = self.design
        v = D.v
        S = np.zeros((v, v), dtype=_U64)
        cov = self.pair_cov
        uniform = len(np.unique(cov[~np.eye(v, dtype=bool)])) == 1
        for p in range(v):
            through_p = np.flatnonzero(self.inc[:, p])
            sub = self.meet[np.ix_(through_p, through_p)]
            inc_t = self.inc[through_p].copy()
            inc_t[:, p] = 0
            covers = cov[p].copy()
            covers[p] = 0
            if uniform and covers.max() > 0:
                lam = int(covers.max())
                qs = np.flatnonzero(covers)
                order = np.nonzero(inc_t.T)  # sorted by q
                per_q = order[1].reshape(len(qs), lam)
                iu, ju = np.triu_indices(lam, k=1)
                vals = sub[per_q[:, iu], per_q[:, ju]]
                S[p, qs] = _row_multiset_hash(vals)
            else:
                for q in range(v):
                    if q == p or covers[q] == 0:
                        continue
                    idx = np.flatnonzero(inc_t[:, q])
                    mm = sub[np.ix_(idx, idx)]
                    tri = mm[np.triu_indices(len(idx), k=1)]
                    S[p, q] = _row_multiset_hash(tri[None, :])[0] if tri.size else _U64(1)
            S[p, p] = _mix(np.array([len(through_p)], dtype=_U64))[0]
        return S


def _histogram(values: np.ndarray) -> tuple[tuple[int, int], ...]:
    vals, counts = np.unique(values, return_counts=True)
    return tuple((int(v), int(c)) for v, c in zip(vals, counts))


def _refine(
    pre: _Precomp, pc: np.ndarray, bc: np.ndarray, max_rounds: int = 60
) -> tuple[np.ndarray, np.ndarray]:
    """Refine point/block colors to a stable partition.

    Colors are raw 64-bit signatures, so colorings computed independently on
    two designs remain comparable.  Each round folds in: for blocks, the
    multiset of (intersection size, color) over all blocks and the multiset
    of point colors on the block; for points, the multiset of colors of the
    blocks through the point and the multiset of (pair signature, color) over
    all other points.
    """
    inc64 = pre.inc.astype(_U64)
    meet64 = pre.meet.astype(_U64)
    sig = pre.pair_sig
    n_p, n_b = len(np.unique(pc)), len(np.unique(bc))
    for _ in range(max_rounds):
        bsig = _mix(meet64 * _U64(0x9DDFEA08EB382D69) ^ _mix(bc)[None, :]).sum(axis=1)
        bpoint = (inc64 * _mix(pc * _U64(3) + _U64(1))[None, :]).sum(axis=1)
        bc = _mix(bc) ^ _mix(bsig) ^ _mix(bpoint)
        pblock = (inc64 * _mix(bc * _U64(5) + _U64(2))[:, None]).sum(axis=0)
        ppair = _mix(sig ^ _mix(pc * _U64(7) + _U64(3))[None, :]).sum(axis=1)
        pc = _mix(pc) ^ _mix(pblock) ^ _mix(ppair)
        m_p, m_b = len(np.unique(pc)), len(np.unique(bc))
        if (m_p, m_b) == (n_p, n_b):
            break
        n_p, n_b = m_p, m_b
    return pc, bc


def _class_profile(colors: np.ndarray) -> tuple[tuple[int, int], ...]:
    vals, counts = np.unique(colors, return_counts=True)
    return tuple(sorted((int(v), int(c)) for v, c in zip(vals, counts)))


def _initial_colors(pre: _Precomp) -> tuple[np.ndarray, np.ndarray]:
    pc = _row_multiset_hash(pre.pair_sig.view(np.int64))
    bc = np.full(pre.design.b, 2, dtype=_U64)
    return _refine(pre, pc, bc)


def fingerprint(D: Design) -> Fingerprint:
    return _fingerprint(_Precomp(D))


def _fingerprint(pre: _Precomp) -> Fingerprint:
    D = pre.design
    triu = np.triu_indices(D.b, k=1)
    inter = pre.meet[triu]
    offs = np.arange(D.b, dtype=np.int64) * (D.k + 1)
    flat = np.bincount(
        (pre.meet.astype(np.int64) + offs[:, None]).ravel(), minlength=D.b * (D.k + 1)
    )
    profile_rows = flat.reshape(D.b, D.k + 1)
    profile_rows[:, D.k] -= 1  # drop the self-intersection
    profile_hashes = _row_multiset_hash(
        profile_rows + np.arange(D.k + 1, dtype=np.int64)[None, :] * 4096
    )
    ptriu = np.triu_indices(D.v, k=1)
    pc, bc = _initial_colors(pre)
    stable = np.concatenate([pc, bc])
    return Fingerprint(
        v=D.v,
        b=D.b,
        k=D.k,
        lam=lambda_of(D, 2),
        intersection_histogram=_histogram(inter),
        block_profile_histogram=_histogram(profile_hashes),
        pair_coverage_spectrum=_histogram(pre.pair_cov[ptriu]),
        pair_signature_histogram=_histogram(_row_multiset_hash(pre.pair_sig.view(np.int64))),
        stable_color_histogram=_histogram(stable),
    )


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
    if _class_profile(pc1) != _class_profile(pc2):
        return None
    if _class_profile(bc1) != _class_profile(bc2):
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
    return _are_isomorphic(pre1, pre2)


def _are_isomorphic(
    pre1: _Precomp,
    pre2: _Precomp,
    fp1: Fingerprint | None = None,
    fp2: Fingerprint | None = None,
) -> IsoCertificate:
    fp1 = fp1 or _fingerprint(pre1)
    fp2 = fp2 or _fingerprint(pre2)
    mismatch = fp1.first_mismatch(fp2)
    if mismatch is not None:
        return IsoCertificate(False, mismatch=mismatch)
    pc1, bc1 = _initial_colors(pre1)
    pc2, bc2 = _initial_colors(pre2)
    found = _search(pre1, pre2, pc1, bc1, pc2, bc2, depth=0)
    if found is None:
        return IsoCertificate(False, mismatch="exhausted-backtracking")
    return IsoCertificate(True, bijection=found)


def verify_bijection(D1: Design, D2: Design, pi: tuple[int, ...]) -> bool:
    return D1.relabel(pi) == D2


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)


def iso_classes(designs: list[Design]) -> list[list[int]]:
    """Partition input indices into isomorphism classes.

    Designs are bucketed by fingerprint, then pairwise tested inside each
    bucket with union-find; pairs of already-settled classes are skipped, and
    a failed test is recorded per class pair so it never reruns.  Classes are
    ordered by the lexicographically least canonical block set they contain;
    the partition is independent of the input order.
    """
    pres = [_Precomp(D) for D in designs]
    fps = [_fingerprint(p) for p in pres]
    buckets: dict[Fingerprint, list[int]] = {}
    for i, fp in enumerate(fps):
        buckets.setdefault(fp, []).append(i)
    uf = _UnionFind(len(designs))
    refuted: set[tuple[int, int]] = set()
    for members in buckets.values():
        ordered = sorted(members, key=lambda i: (designs[i].v, designs[i].blocks))
        for a_pos, i in enumerate(ordered):
            for j in ordered[a_pos + 1 :]:
                ri, rj = uf.find(i), uf.find(j)
                if ri == rj or (min(ri, rj), max(ri, rj)) in refuted:
                    continue
                if designs[i] == designs[j]:
                    uf.union(i, j)
                    continue
                cert = _are_isomorphic(pres[i], pres[j], fps[i], fps[j])
                if cert.isomorphic:
                    uf.union(i, j)
                else:
                    refuted.add((min(ri, rj), max(ri, rj)))
    groups: dict[int, list[int]] = {}
    for i in range(len(designs)):
        groups.setdefault(uf.find(i), []).append(i)
    classes = sorted(
        (sorted(members) for members in groups.values()),
        key=lambda cls: min(designs[i].blocks for i in cls),
    )
    return classes


def class_representatives(designs: list[Design], classes: list[list[int]]) -> list[int]:
    """Index of the lexicographically least design in each class."""
    return [min(cls, key=lambda i: designs[i].blocks) for cls in classes]
