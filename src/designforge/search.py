"""Exhaustive enumeration of block-transitive 2-(k^2, k, lambda) designs for a
materialized group: candidate base blocks are unions of orbits of stabilizer-
sized subgroups, found by one orderly search that prunes by exact pair-orbit
counts and keeps the least orbit-index tuple under the subgroup's normalizer
(so each design is reached from one candidate; see `run`), then verified by
orbit size (which fixes the set-stabilizer order) and full pair counting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .design import Design, from_base_block, is_flag_transitive, lambda_of, order_key
from .errors import CandidateExplosionError
from .iso import iso_classes
from .permgroup import (
    GroupTable,
    Subgroup,
    normalizer,
    orbits,
    pair_orbit_table,
    set_stabilizer,
    subgroups_of_order,
)

MAX_CANDIDATES = 1_000_000


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


def _base_blocks(
    H: Subgroup, k: int, labels: np.ndarray, sizes: np.ndarray
) -> tuple[int, list[np.ndarray]]:
    """(total, bases): the number of k-point unions of H-orbits, and those
    unions, as sorted point arrays, that meet each G-orbit O of point pairs in
    |O|/(k(k+1)) pairs and whose sorted tuple of H-orbit indices is the least
    of its images under N_G(H).

    A design with b = lambda*k*(k+1) blocks covers each pair of O lambda
    times, and its blocks form one G-orbit, so each block meets O in
    lambda*|O|/b = |O|/(k(k+1)) pairs, whatever lambda is.  The search
    extends each union by later orbits only.  Counts only grow, so a union
    above the target on some O is dropped with every extension; the targets
    sum to C(k,2), so a union of k points at or below every target meets each
    exactly.  Deleting the largest index of a least tuple leaves a least
    tuple: inserting one index into a sorted tuple raises none of its
    entries, so an image of the shorter tuple below it would give an image of
    the whole tuple below it.  So dropping the tuples that are not least
    loses no prefix of one that is, and each least tuple is reached once.
    More than MAX_CANDIDATES unions raise CandidateExplosionError before the
    search.
    """
    orbs = orbits(H)
    lens = np.array([len(o) for o in orbs])
    ways = [1] + [0] * k  # ways[s]: unions of the orbits so far with s points
    for ln in lens.tolist():
        ways[ln:] = [w + x for w, x in zip(ways[ln:], ways)]
    total = ways[k]
    if total > MAX_CANDIDATES:
        raise CandidateExplosionError(
            f"{total} orbit-union candidates for one subgroup class exceed "
            f"the {MAX_CANDIDATES} guard"
        )
    target, rest = np.divmod(sizes, k * (k + 1))
    if total == 0 or rest.any():
        return total, []
    r, n_lab = len(orbs), len(sizes)
    orb_of = np.empty(len(labels), dtype=np.int64)
    orb_of[np.concatenate(orbs)] = np.repeat(np.arange(r), lens)
    # pair[i, j, l]: the ordered pairs (p, q), p in orbit i and q in orbit j,
    # in pair orbit l; so orbit i's own pairs are counted twice in pair[i, i].
    # Slot 0 of each (i, j) takes the diagonal's label -1, and is dropped
    w = n_lab + 1
    key = (orb_of * (r * w) + 1)[:, None] + orb_of * w + labels
    pair = np.bincount(key.ravel(), minlength=r * r * w).reshape(r, r, w)[..., 1:]
    own = pair[np.arange(r), np.arange(r)] // 2
    # the distinct permutations of the H-orbits induced by N_G(H)
    perms = orb_of[normalizer(H).images_array()[:, [o[0] for o in orbs]]]
    perms = perms[np.lexsort(perms.T)]
    perms = perms[np.r_[True, (perms[1:] != perms[:-1]).any(axis=1)]]
    tuples = np.zeros((1, 0), dtype=np.int64)
    counts = np.zeros((1, n_lab), dtype=np.int64)
    points = np.zeros(1, dtype=np.int64)
    leaves = []
    while len(tuples):
        last = tuples[:, -1] if tuples.shape[1] else np.full(1, -1)
        parent, j = np.nonzero(np.arange(r) > last[:, None])
        pts = points[parent] + lens[j]
        fits = pts <= k
        parent, j, pts = parent[fits], j[fits], pts[fits]
        cnt = counts[parent] + own[j] + pair[tuples[parent], j[:, None]].sum(axis=1)
        fits = (cnt <= target).all(axis=1)
        tuples = np.column_stack([tuples[parent[fits]], j[fits]])
        counts, points = cnt[fits], pts[fits]
        # drop each tuple with an image that is lexicographically smaller:
        # one whose first entry that differs from the tuple's is below it
        diff = np.sort(perms[:, tuples], axis=2) - tuples
        first = (diff != 0).argmax(axis=2)[..., None]
        least = ~(np.take_along_axis(diff, first, 2) < 0).any(axis=(0, 2))
        tuples, counts, points = tuples[least], counts[least], points[least]
        leaf = points == k
        leaves.extend(tuples[leaf])
        tuples, counts, points = tuples[~leaf], counts[~leaf], points[~leaf]
    return total, [np.sort(np.concatenate([orbs[i] for i in t])) for t in leaves]


def run(job: SearchJob) -> SearchResult:
    """Enumerate all block-transitive 2-(k^2,k,lambda) designs for the job.

    For each conjugacy class of subgroups of the forced stabilizer order m,
    every union of orbits of the class representative H with k points is a
    candidate base block; a candidate is accepted iff its orbit has exactly b
    blocks and covers every point pair exactly lambda times.  By orbit-
    stabilizer, b = |G|/m blocks in the orbit is the same as a set stabilizer
    of exactly the forced order m.

    Each design is reached from exactly one candidate, so no state is shared
    across candidates:

    * Let B be an accepted candidate for H.  Its orbit has b blocks and
      H <= G_B, so G_B = H.
    * Another block B^g of the same design is H-invariant iff H <= G_(B^g) =
      g^-1 H g, that is iff g is in N_G(H).  So the design's H-invariant
      blocks form one N_G(H)-orbit.
    * Every block in that orbit is a union of H-orbits, since it is an
      H-invariant k-set, and it meets each pair orbit O as B does, since O is
      G-invariant.  N_G(H) permutes the H-orbits, and g maps the union of
      the orbits with indices S onto the union of those with indices g(S).
      So the blocks in that orbit are the index sets of one orbit under these
      permutations, and `_base_blocks` returns exactly one of them: the set
      whose sorted index tuple is least, which need not be the least point
      set.
    * Designs from different classes have non-conjugate block stabilizers,
      so they are disjoint.

    The orbit of a base block is read from the least element of each right
    coset of H (`from_base_block` with H, as H <= G_B), so from |G:H| = b
    rows; when G_B is larger than H it has fewer than b blocks, and B is
    rejected.  The designs are sorted before `iso_classes`, so each record is
    still its class's least design, whichever block reached it.
    """
    G = job.group
    m = job.stabilizer_order
    if m is None:
        return SearchResult(job, [], 0, 0, note="inadmissible block count")
    labels, sizes = pair_orbit_table(G)
    designs: list[Design] = []
    tested = 0
    for H in subgroups_of_order(G, m):
        total, bases = _base_blocks(H, job.k, labels, sizes)
        tested += total
        for base in bases:
            D = from_base_block(G, base, H)
            if D.b == job.b and lambda_of(D, 2) == job.lam:
                designs.append(D)
    # sorted, so each class's first member (classes keep input order) is its least
    designs.sort(key=order_key)
    classes = iso_classes(designs, group=G) if designs else []
    records = [
        DesignRecord(D, set_stabilizer(G, D.array[0]).order, is_flag_transitive(G, D))
        for D in (designs[cls[0]] for cls in classes)
    ]
    return SearchResult(job, records, distinct_block_sets=len(designs), candidates_tested=tested)


def full_sweep(group: GroupTable, k: int) -> dict[int, SearchResult]:
    """Run the search for every divisor lambda >= 2 of k.

    lambda = 1 is excluded because 2-(k^2,k,1) designs are affine planes, out
    of the source paper's scope (AG(2,3) is flag-transitive under 3^2:SL(2,3)).
    On the shipped groups no subgroup of the forced order, 36 or 72, has a
    union of orbits with 12 points, so there it is empty.  A single `run` with lambda = 1 still searches it.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if group.degree != k * k:
        raise ValueError(f"group degree {group.degree} != k^2 = {k**2}")
    lams = [d for d in range(2, k + 1) if k % d == 0]
    return {lam: run(SearchJob(group, k, lam)) for lam in lams}
