"""Exhaustive enumeration of block-transitive 2-(k^2, k, lambda) designs for a
materialized group: candidate base blocks are unions of orbits of stabilizer-
sized subgroups, filtered by an exact pair-orbit proportionality test, cut to
the least member of each orbit of the subgroup's normalizer (so each design is
reached from one candidate; see `run`), then verified by orbit size (which
fixes the set-stabilizer order) and full pair counting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from .design import Design, is_flag_transitive, lambda_of, order_key
from .iso import class_representatives, iso_classes
from .permgroup import (
    GroupTable,
    Subgroup,
    normalizer,
    orbits,
    pair_orbit_table,
    set_orbit,
    set_stabilizer,
    subgroups_of_order,
)

MAX_CANDIDATES = 1_000_000
_CHUNK = 16384


class CandidateExplosionError(RuntimeError):
    """A subgroup class yields more orbit-union candidates than the guard allows."""


@dataclass(frozen=True)
class SearchJob:
    """One (group, k, lambda) search instance.

    The block count of a block-transitive 2-(k^2,k,lambda) design is forced:
    b = lambda*k*(k+1), so block stabilizers have order |G|/b.
    """

    group: GroupTable = field(repr=False)
    k: int
    lam: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.group.degree != self.k * self.k:
            raise ValueError(f"group degree {self.group.degree} != k^2 = {self.k**2}")
        if self.lam < 1:
            raise ValueError("lambda must be positive")

    @property
    def b(self) -> int:
        return self.lam * self.k * (self.k + 1)

    @property
    def stabilizer_order(self) -> int | None:
        """|G|/b, or None when b does not divide |G| (vacuous job)."""
        return self.group.order // self.b if self.group.order % self.b == 0 else None


@dataclass
class DesignRecord:
    """One isomorphism class: its least design, whose first block is the base block."""

    design: Design
    stabilizer_order: int
    flag_transitive: bool


@dataclass
class SearchResult:
    job: SearchJob
    records: list[DesignRecord]
    distinct_block_sets: int
    candidates_tested: int
    note: str | None = None

    @property
    def designs(self) -> list[Design]:
        """The class representatives, in class order."""
        return [r.design for r in self.records]

    @property
    def iso_class_count(self) -> int:
        return len(self.records)


def _candidate_chunks(H: Subgroup, k: int):
    """Yield (n, k) int arrays of candidate point sets, in deterministic order:
    every union of H-orbits with k points, each row sorted.

    The orbits and the composition patterns (how many orbits of each length)
    are computed once; more than MAX_CANDIDATES candidates raise
    CandidateExplosionError before the first chunk is yielded.
    """
    by_len: dict[int, list[tuple[int, ...]]] = {}
    for orb in orbits(H):
        by_len.setdefault(len(orb), []).append(orb)
    lengths = sorted(by_len)
    # counts[i] orbits of length lengths[i], for every choice with k points
    patterns = [
        counts
        for counts in product(*(range(min(len(by_len[ln]), k // ln) + 1) for ln in lengths))
        if sum(c * ln for c, ln in zip(counts, lengths)) == k
    ]
    total = sum(
        math.prod(math.comb(len(by_len[ln]), c) for ln, c in zip(lengths, counts))
        for counts in patterns
    )
    if total > MAX_CANDIDATES:
        raise CandidateExplosionError(
            f"{total} orbit-union candidates for one subgroup class exceed "
            f"the {MAX_CANDIDATES} guard"
        )
    for counts in patterns:
        groups = []
        for ln, c in zip(lengths, counts):
            if c:
                orb_arr = np.array(by_len[ln], dtype=np.int64)  # (n_orbits, ln)
                combos = np.array(list(combinations(range(len(by_len[ln])), c)), dtype=np.int64)
                groups.append(orb_arr[combos].reshape(len(combos), c * ln))
        sizes = [g.shape[0] for g in groups]
        count = math.prod(sizes)
        for start in range(0, count, _CHUNK):
            idx = np.unravel_index(np.arange(start, min(start + _CHUNK, count)), sizes)
            block = np.concatenate([g[i] for g, i in zip(groups, idx)], axis=1)
            block.sort(axis=1)
            yield block


def _proportionality_filter(
    cands: np.ndarray, labels: np.ndarray, sizes: np.ndarray, lam: int, b: int
) -> np.ndarray:
    """Keep candidates whose pairs hit every pair-orbit O with count lam*|O|/b.

    Any base block of an accepted design satisfies this exactly, so the filter
    never rejects a true block; survivors still face the full verification.
    """
    n, k = cands.shape
    n_lab = len(sizes)
    iu, ju = np.triu_indices(k, k=1)
    lab = labels[cands[:, iu], cands[:, ju]]  # (n, k*(k-1)/2)
    flat = lab + (np.arange(n, dtype=np.int64) * n_lab)[:, None]
    counts = np.bincount(flat.ravel(), minlength=n * n_lab).reshape(n, n_lab)
    ok = (counts.astype(np.int64) * b == lam * sizes[None, :]).all(axis=1)
    return ok


def run(job: SearchJob) -> SearchResult:
    """Enumerate all block-transitive 2-(k^2,k,lambda) designs for the job.

    For each conjugacy class of subgroups of the forced stabilizer order m,
    every union of orbits of the class representative H with k points is a
    candidate base block; a candidate is accepted iff its orbit has exactly b
    blocks and covers every point pair exactly lambda times.  By orbit-
    stabilizer, b = |G|/m blocks in the orbit is the same as a set stabilizer
    of exactly the forced order m.

    Each design is reached from exactly one candidate, the least of its
    H-invariant blocks, so no state is shared across candidates:

    * Let B be an accepted candidate for H.  Its orbit has b blocks and
      H <= G_B, so G_B = H.
    * Another block B^g of the same design is H-invariant iff H <= G_(B^g) =
      g^-1 H g, that is iff g is in N_G(H).  So the design's H-invariant
      blocks form one N_G(H)-orbit.
    * Every block in that orbit is a candidate: it is an H-invariant k-set,
      so a union of H-orbits, and the proportionality filter is G-invariant.
    * Designs from different classes have non-conjugate block stabilizers,
      so they are disjoint.

    So a filter survivor is processed only when it is the least member of
    its N_G(H)-orbit.
    """
    G = job.group
    m = job.stabilizer_order
    if m is None:
        return SearchResult(job, [], 0, 0, note="inadmissible block count")
    labels, sizes = pair_orbit_table(G)
    rows = G.images_array()
    designs: list[Design] = []
    tested = 0
    for H in subgroups_of_order(G, m):
        normalizer_rows = normalizer(H).images_array()
        for chunk in _candidate_chunks(H, job.k):
            tested += len(chunk)
            keep = _proportionality_filter(chunk, labels, sizes, job.lam, job.b)
            for base in chunk[keep]:
                if not np.array_equal(set_orbit(normalizer_rows, base)[0], base):
                    continue
                orbit = set_orbit(rows, base)
                if len(orbit) != job.b:
                    continue
                D = Design(G.degree, orbit)
                if lambda_of(D, 2) == job.lam:
                    designs.append(D)
    designs.sort(key=order_key)
    reps = class_representatives(designs, iso_classes(designs)) if designs else []
    records = [
        DesignRecord(D, set_stabilizer(G, D.array[0]).order, is_flag_transitive(G, D))
        for D in (designs[i] for i in reps)
    ]
    return SearchResult(job, records, distinct_block_sets=len(designs), candidates_tested=tested)


def full_sweep(group: GroupTable, k: int) -> dict[int, SearchResult]:
    """Run the search for every divisor lambda >= 2 of k.

    lambda = 1 is excluded because a block-transitive 2-(k^2,k,1) design would
    be flag-transitive, and no flag-transitive such design exists; a single
    `run` with lambda = 1 still searches it.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if group.degree != k * k:
        raise ValueError(f"group degree {group.degree} != k^2 = {k**2}")
    lams = [d for d in range(2, k + 1) if k % d == 0]
    return {lam: run(SearchJob(group, k, lam)) for lam in lams}
