from __future__ import annotations

import math
import time

import pytest

from designforge import data_path
from designforge import numtheory as nt
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
