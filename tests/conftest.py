from __future__ import annotations

import math
import time
from functools import cache
from itertools import combinations, product

import numpy as np
import pytest

from designforge import data_path
from designforge import numtheory as nt
from designforge import permgroup as pg
from designforge import screen as sc
from designforge.permgroup import GroupTable, parse_cycles

# base blocks of the three reference designs (1-based published labels)
BASE_BLOCK_LAMBDA3 = tuple(p - 1 for p in (3, 7, 29, 30, 67, 68, 84, 96, 100, 101, 107, 134))
BASE_BLOCK_LAMBDA12_PUBLISHED = tuple(
    p - 1 for p in (1, 2, 6, 15, 30, 35, 47, 56, 81, 118, 122, 135)
)
BASE_BLOCK_LAMBDA6 = tuple(p - 1 for p in (30, 31, 40, 44, 56, 67, 71, 84, 85, 93, 122, 125))
# an invariant 12-set of the lambda = 3 base block's stabilizer whose psl33
# orbit is the other lambda = 3 block set, the outer twin (0-based)
BASE_BLOCK_LAMBDA3_TWIN = (3, 5, 12, 21, 40, 48, 54, 71, 77, 83, 109, 143)


def lucas_proof(r: int) -> bool:
    """Prove r prime by Lucas' n - 1 test, or return False.

    r is prime iff for each prime q | r - 1 some a has a^(r-1) = 1 and
    a^((r-1)/q) != 1 (mod r) (Brillhart, Lehmer & Selfridge, Math. Comp. 29,
    1975).  r - 1 is fully factored; a factor at or above the bound below
    which `is_prime` is proven gets a certificate of its own.
    """
    if r < nt._MR_PROVEN_BELOW:
        return nt.is_prime(r)
    fac = nt.factorize(r - 1)
    assert math.prod(q**e for q, e in fac.items()) == r - 1
    for q in fac:
        if not lucas_proof(q):
            return False
        for a in nt._primes_up_to(1000):
            if pow(a, r - 1, r) != 1:
                return False
            if pow(a, (r - 1) // q, r) != 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# the exhaustive reference for search's orderly orbit-union search: enumerate
# every k-point union of H-orbits, keep those that meet each pair orbit O in
# lambda*|O|/b pairs, then keep the least point set of each N_G(H)-orbit


def orbit_union_chunks(H: pg.Subgroup, k: int, chunk: int = 16384):
    """(total, chunks): the number of unions of H-orbits with k points, and
    an iterator of (n, k) int arrays of them, each row sorted, in a fixed
    order: by composition pattern (how many orbits of each length), then by
    the orbits chosen for each length."""
    by_len: dict[int, list[tuple[int, ...]]] = {}
    for orb in pg.orbits(H):
        by_len.setdefault(len(orb), []).append(orb)
    lengths = sorted(by_len)
    patterns = [
        counts
        for counts in product(*(range(min(len(by_len[ln]), k // ln) + 1) for ln in lengths))
        if sum(c * ln for c, ln in zip(counts, lengths)) == k
    ]
    total = sum(
        math.prod(math.comb(len(by_len[ln]), c) for ln, c in zip(lengths, counts))
        for counts in patterns
    )

    def chunks():
        for counts in patterns:
            groups = []
            for ln, c in zip(lengths, counts):
                if c:
                    orb_arr = np.array(by_len[ln], dtype=np.int64)
                    combos = np.array(list(combinations(range(len(orb_arr)), c)), dtype=np.int64)
                    groups.append(orb_arr[combos].reshape(len(combos), c * ln))
            sizes = [g.shape[0] for g in groups]
            count = math.prod(sizes)
            for start in range(0, count, chunk):
                idx = np.unravel_index(np.arange(start, min(start + chunk, count)), sizes)
                block = np.concatenate([g[i] for g, i in zip(groups, idx)], axis=1)
                block.sort(axis=1)
                yield block

    return total, chunks()


def proportional(cands: np.ndarray, labels: np.ndarray, sizes: np.ndarray, lam: int, b: int):
    """Mask of the candidates whose pairs meet every pair orbit O in
    lam*|O|/b pairs, as every block of a design with b blocks does."""
    n, k = cands.shape
    n_lab = len(sizes)
    iu, ju = np.triu_indices(k, k=1)
    flat = labels[cands[:, iu], cands[:, ju]] + (np.arange(n, dtype=np.int64) * n_lab)[:, None]
    counts = np.bincount(flat.ravel(), minlength=n * n_lab).reshape(n, n_lab)
    return (counts.astype(np.int64) * b == lam * sizes[None, :]).all(axis=1)


@cache
def oracle_bases(H: pg.Subgroup, k: int, lam: int):
    """(total, survivors, canonical) for one class representative H: the
    number of k-point unions of H-orbits, those that pass `proportional`,
    and the survivors that are the least point set of their N_G(H)-orbit."""
    labels, sizes = pg.pair_orbit_table(H.parent)
    n_rows = pg.normalizer(H).images_array()
    total, chunks = orbit_union_chunks(H, k)
    b = lam * k * (k + 1)
    survivors = [base for block in chunks for base in block[proportional(block, labels, sizes, lam, b)]]
    canonical = [base for base in survivors if np.array_equal(pg.set_orbit(n_rows, base)[0], base)]
    return total, survivors, canonical


@pytest.fixture(scope="session")
def psl33() -> GroupTable:
    return GroupTable.from_file(data_path("psl33.gens"))


@pytest.fixture(scope="session")
def pgl33() -> GroupTable:
    return GroupTable.from_file(data_path("pgl33.gens"))


@pytest.fixture(scope="session")
def sym4() -> GroupTable:
    return GroupTable.generate([parse_cycles("(1,2)", 4), parse_cycles("(1,2,3,4)", 4)])


@pytest.fixture(scope="session")
def sym3() -> GroupTable:
    return GroupTable.generate([parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)])


@pytest.fixture(scope="session")
def screen_reports():
    """The default screen over every family, run once: (reports, elapsed seconds)."""
    t0 = time.time()
    reports = sc.case_screen()
    return reports, time.time() - t0
