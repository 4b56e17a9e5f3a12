"""Incidence structures: t-design verification, replication arithmetic,
orbit designs, flag transitivity, and admissibility of t >= 3 under
block-transitivity.

All arithmetic is exact (integers and fractions).  A design stores its blocks
as one read-only (b, k) int64 array in the canonical `sorted_rows` order, so
design equality is array equality.  Whether a design is one orbit of a group
is the question of `permgroup.block_map`, which sorts nothing.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .permgroup import GroupTable, Subgroup, _distinct, set_orbit, set_stabilizer, sorted_rows

# t-subset enumeration guard: general t only at desk scale
_GENERAL_T_MAX_V = 40


class Design:
    """A set of k-subsets (blocks) of {0, ..., v-1}: `array` is the read-only
    (b, k) int64 block array in `sorted_rows` order, `blocks` its tuples.
    Array input is sorted in its own dtype (faster for uint8 image rows)."""

    __slots__ = ("v", "k", "array", "_blocks")

    def __init__(self, v: int, blocks: Iterable[Iterable[int]]):
        rows = blocks if isinstance(blocks, np.ndarray) else [list(blk) for blk in blocks]
        try:
            arr = np.asarray(rows)
        except ValueError:  # ragged rows
            raise ValueError("blocks must all have the same number of distinct points") from None
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("a design needs at least one block")
        arr = sorted_rows(arr).astype(np.int64, copy=False)
        if (arr[:, 1:] == arr[:, :-1]).any():
            raise ValueError("blocks must all have the same number of distinct points")
        if arr[:, 0].min() < 0 or arr[:, -1].max() >= v:
            raise ValueError("block point out of range")
        arr.flags.writeable = False
        self.v = int(v)
        self.k = arr.shape[1]
        self.array = arr
        self._blocks: tuple[tuple[int, ...], ...] | None = None

    @property
    def b(self) -> int:
        return len(self.array)

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The blocks as a tuple of int tuples, cached."""
        if self._blocks is None:
            self._blocks = tuple(map(tuple, self.array.tolist()))
        return self._blocks

    def incidence(self) -> np.ndarray:
        """(b, v) 0/1 incidence matrix."""
        inc = np.zeros((self.b, self.v), dtype=np.uint8)
        inc[np.arange(self.b)[:, None], self.array] = 1
        return inc

    def relabel(self, pi: Sequence[int]) -> Design:
        """Apply a point bijection; the result is re-canonicalized."""
        return Design(self.v, np.asarray(pi)[self.array])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Design)
            and self.v == other.v
            and np.array_equal(self.array, other.array)
        )

    def __hash__(self) -> int:
        return hash((self.v, self.array.shape, self.array.tobytes()))

    def __repr__(self) -> str:
        return f"Design(v={self.v}, k={self.k}, b={self.b})"


def order_key(D: Design) -> tuple[int, tuple[int, ...], bytes]:
    """The canonical design order: sorts designs exactly as (v, blocks) tuples
    do, without building them.

    Blocks of different sizes never compare equal, so the first block
    decides between designs with different k; for equal k the big-endian
    bytes of the block array compare block by block, a prefix first.
    """
    return D.v, tuple(D.array[0].tolist()), D.array.astype(">i8").tobytes()


def lambda_s(t: int, v: int, k: int, lam: int, s: int) -> Fraction:
    """Blocks through a fixed s-subset of a t-(v,k,lam) design, exact."""
    if not 0 <= s <= t <= k <= v:
        raise ValueError("need 0 <= s <= t <= k <= v")
    return Fraction(lam) * Fraction(math.comb(v - s, t - s), math.comb(k - s, t - s))


def admissible_t(v: int, k: int, t: int, group_order: int) -> bool:
    """Can a block-transitive t-(v,k,*) design live inside a group of this order?

    The block count is lam_t * prod(v-j)/prod(k-j); with the ratio reduced to
    p/q, some integral block count dividing group_order exists iff p divides
    group_order.
    """
    if not t < k < v:
        raise ValueError("need t < k < v")
    ratio = Fraction(1)
    for j in range(t):
        ratio *= Fraction(v - j, k - j)
    return group_order % ratio.numerator == 0


def from_base_block(G: GroupTable, base: Iterable[int], H: Subgroup | None = None) -> Design:
    """The orbit design (P, base^G), sorted once, by `Design`.

    With H, a subgroup of G that fixes the base block B setwise (H <= G_B),
    the orbit is read from one element of each right coset H*g, its least,
    so from |G:H| rows: B's image under h*g (h, then g) is g(h(B)) = g(B).
    That gives the orbit only under that condition; when G_B is larger than
    H the design still has |G:G_B| blocks, as without H.
    """
    blk = sorted(int(p) for p in base)
    if not blk:
        raise ValueError("base block must be nonempty")
    if blk[0] < 0 or blk[-1] >= G.degree:
        raise ValueError("base block point out of range")
    rows = G.images_array()
    if H is not None:
        if H.parent is not G:
            raise ValueError("H must be a subgroup of G")
        # the distinct least elements of the cosets H*g, one row per coset
        rows = rows[_distinct(G.coset_least(np.array(H.indices)), G.order)]
    return Design(G.degree, rows[:, blk])


def lambda_of(D: Design, t: int) -> int | None:
    """The constant t-subset coverage count, or None if coverage is not constant.

    Each t-subset s_1 < ... < s_t of each block is counted by its rank
    sum C(s_i, i) in the combinatorial number system, below C(v, t).
    """
    if not 1 <= t <= D.k:
        raise ValueError("need 1 <= t <= k")
    if t == 3 and D.v > 160:
        raise ValueError("triple verification limited to v <= 160")
    if t > 3 and D.v > _GENERAL_T_MAX_V:
        raise ValueError(f"t={t} verification restricted to v <= {_GENERAL_T_MAX_V}")
    combos = np.array(list(combinations(range(D.k), t)), dtype=np.int64)
    binom = np.array(
        [[math.comb(s, i) for s in range(D.v)] for i in range(1, t + 1)], dtype=np.int64
    )
    n_subsets = math.comb(D.v, t)
    if D.b * len(combos) < n_subsets:
        return None  # some t-subset lies on no block
    keys = binom[np.arange(t), D.array[:, combos]].sum(axis=-1)
    counts = np.bincount(keys.ravel(), minlength=n_subsets)
    return int(counts[0]) if counts[0] and (counts == counts[0]).all() else None


def is_flag_transitive(G: GroupTable, D: Design) -> bool:
    """True iff the set stabilizer of a block is transitive on its points.

    Assumes block-transitivity has already been certified; under it the
    answer is independent of the chosen block.
    """
    blk = D.array[0]
    stab = set_stabilizer(G, blk)
    return np.array_equal(set_orbit(stab.images_array(), blk[:1])[:, 0], blk)


# ---------------------------------------------------------------------------
# design files (1-based on disk)


def design_to_dict(D: Design, meta: Mapping[str, object] | None = None) -> dict:
    doc: dict = {
        "v": D.v,
        "k": D.k,
        "blocks": (D.array + 1).tolist(),
    }
    if meta:
        doc["meta"] = dict(sorted(meta.items()))
    return doc


def load_design(path: str | Path) -> tuple[Design, dict]:
    doc = json.loads(Path(path).read_text())
    # type() is int, not isinstance: JSON true and false are bools, a subclass of int
    if not (
        isinstance(doc, dict)
        and type(doc.get("v")) is int
        and isinstance(doc.get("blocks"), list)
        and all(isinstance(blk, list) and all(type(p) is int for p in blk)
                for blk in doc["blocks"])
    ):
        raise ValueError(
            f"{path}: a design file is a JSON object with an integer 'v' and "
            "'blocks', a list of lists of integers"
        )
    design = Design(doc["v"], [[p - 1 for p in blk] for blk in doc["blocks"]])
    # a Design is a set of blocks: a repeat would vanish and change b unseen
    if design.b != len(doc["blocks"]):
        raise ValueError(f"{path}: {len(doc['blocks']) - design.b} repeated block(s)")
    if "k" in doc and (type(doc["k"]) is not int or doc["k"] != design.k):
        raise ValueError(f"{path}: 'k' is {doc['k']!r}, but the blocks have {design.k} points")
    return design, doc.get("meta", {})
