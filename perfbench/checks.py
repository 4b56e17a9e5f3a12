"""Checks on the program's outputs that do not rely on the program's own code.

Each checker returns a list of problems; an empty list means the output
passed.  Groups are given as image arrays: row g maps point x to g[x], and a
product "e then g" is g[e].  Blocks are sorted tuples of 0-based points.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# generator files and relabelling


def parse_gens(text: str) -> list[tuple[int, ...]]:
    """Image tuples of the generators in a `degree: N` + cycle-notation file."""
    degree = None
    gens = []
    for raw in text.splitlines():
        line = "".join(raw.split())
        if not line or line.startswith("#"):
            continue
        if degree is None:
            if not line.startswith("degree:"):
                raise ValueError(f"expected 'degree: N', got {line!r}")
            degree = int(line[len("degree:"):])
            continue
        images = list(range(degree))
        for body in line.strip("()").split(")("):
            if not body:
                continue
            pts = [int(tok) - 1 for tok in body.split(",")]
            for a, b in zip(pts, pts[1:] + pts[:1]):
                images[a] = b
        if sorted(images) != list(range(degree)):
            raise ValueError("a generator is not a permutation")
        gens.append(tuple(images))
    if degree is None:
        raise ValueError("no 'degree:' header")
    return gens


def format_gens(gens: list[tuple[int, ...]], comment: str) -> str:
    """A generator file in 1-based cycle notation."""
    lines = [f"# {comment}", f"degree: {len(gens[0])}"]
    for g in gens:
        seen = [False] * len(g)
        cycles = []
        for start in range(len(g)):
            if seen[start] or g[start] == start:
                continue
            cyc, x = [], start
            while not seen[x]:
                seen[x] = True
                cyc.append(x + 1)
                x = g[x]
            cycles.append("(" + ",".join(map(str, cyc)) + ")")
        lines.append("".join(cycles) or "()")
    return "\n".join(lines) + "\n"


def random_relabelling(degree: int, seed: int) -> tuple[int, ...]:
    """The point map pi of a seed; seed 0 keeps the labelling."""
    pi = list(range(degree))
    if seed:
        random.Random(seed).shuffle(pi)
    return tuple(pi)


def relabel_gens(gens: list[tuple[int, ...]], pi: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Conjugate each generator by pi: the new generator maps pi(x) to pi(g(x))."""
    out = []
    for g in gens:
        img = [0] * len(g)
        for x, gx in enumerate(g):
            img[pi[x]] = pi[gx]
        out.append(tuple(img))
    return out


def relabel_blocks(blocks, pi) -> set[tuple[int, ...]]:
    return {tuple(sorted(pi[p] for p in blk)) for blk in blocks}


# ---------------------------------------------------------------------------
# number theory


def is_probable_prime(n: int, rng: random.Random, rounds: int = 24) -> bool:
    """Miller-Rabin with random bases; a composite passes with chance < 4**-rounds."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(rounds):
        x = pow(rng.randrange(2, n - 1), d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_factorization(text: str, value: Fraction, rng: random.Random) -> list[str]:
    """A "2^4·3^2" or "num/den" string must multiply back to value over prime bases."""
    problems = []
    parts = []
    for side in text.split("/"):
        prod = 1
        for term in side.split("·"):
            base, _, exp = term.partition("^")
            base, exp = int(base), int(exp or 1)
            prod *= base**exp
            if base > 1 and not is_probable_prime(base, rng):
                problems.append(f"{text}: base {base} is composite")
        parts.append(prod)
    got = Fraction(parts[0], parts[1] if len(parts) > 1 else 1)
    if got != value:
        problems.append(f"{text} multiplies to {got}, not {value}")
    return problems


# the paper's theorem: the (n, q, v, k) cases that pass every gate
PAPER_SURVIVORS = {(3, 3, 144, 12), (4, 7, 400, 20), (5, 3, 121, 11)}


def check_screen(reports, rng: random.Random) -> list[str]:
    """Survivors are the paper's three cases; every factorization is exact and prime."""
    problems = []
    got = {(r.case.n, r.case.q.q, r.v, r.candidate_k) for r in reports if r.survived}
    if got != PAPER_SURVIVORS:
        problems.append(f"survivors {sorted(got)} != {sorted(PAPER_SURVIVORS)}")
    for r in reports:
        if r.v is not None:
            value = Fraction(r.v)
            if r.survived and r.candidate_k**2 != r.v:
                problems.append(f"{r.case.label()}: k^2 != v")
        elif r.v_fraction is not None:
            value = Fraction(r.x_order, r.h0_order)
        else:
            continue
        problems += check_factorization(r.v_factorization, value, rng)
    return problems


# ---------------------------------------------------------------------------
# groups and designs


def closure(gens: list[tuple[int, ...]]) -> np.ndarray:
    """Every element of the group the generators make, as image rows."""
    g_arr = np.array(gens, dtype=np.int16)
    ident = np.arange(g_arr.shape[1], dtype=np.int16)
    seen = {ident.tobytes()}
    rows = [ident]
    frontier = [ident]
    while frontier:
        prods = g_arr[:, np.array(frontier)].reshape(-1, g_arr.shape[1])
        frontier = []
        for row in prods:
            key = row.tobytes()
            if key not in seen:
                seen.add(key)
                rows.append(row)
                frontier.append(row)
    return np.array(rows)


def block_orbit(gens: list[tuple[int, ...]], block) -> set[tuple[int, ...]]:
    """Breadth-first orbit of one block under the generators."""
    g_arr = np.array(gens, dtype=np.int64)
    start = tuple(sorted(block))
    seen = {start}
    frontier = [start]
    while frontier:
        imgs = np.sort(g_arr[:, np.array(frontier)], axis=2).reshape(-1, len(start))
        frontier = []
        for row in map(tuple, imgs.tolist()):
            if row not in seen:
                seen.add(row)
                frontier.append(row)
    return seen


def pair_counts(blocks, v: int) -> np.ndarray:
    """How many blocks hold each unordered pair {p < q}, in np.triu_indices order."""
    arr = np.array(sorted(blocks), dtype=np.int64)
    i, j = np.triu_indices(arr.shape[1], k=1)
    p, q = arr[:, i].ravel(), arr[:, j].ravel()
    # index of {p, q} with p < q in the row-major upper triangle
    idx = p * v - p * (p + 1) // 2 + (q - p - 1)
    return np.bincount(idx, minlength=v * (v - 1) // 2)


def check_design(blocks, v: int, lam: int, gens) -> list[str]:
    """The blocks form a 2-(v, k, lam) design that is one orbit of the generators."""
    problems = []
    blocks = set(blocks)
    k = len(next(iter(blocks)))
    b = lam * v * (v - 1) // (k * (k - 1))
    if len(blocks) != b:
        problems.append(f"{len(blocks)} blocks, a 2-({v},{k},{lam}) design has {b}")
    counts = np.unique(pair_counts(blocks, v))
    if counts.tolist() != [lam]:
        problems.append(f"pairs lie in {counts.tolist()} blocks, not exactly {lam}")
    if block_orbit(gens, min(blocks)) != blocks:
        problems.append("the block set is not the orbit of one block under the generators")
    return problems


def block_stabilizer(elements: np.ndarray, block) -> np.ndarray:
    """Rows of the group elements that map the block onto itself."""
    mark = np.zeros(elements.shape[1], dtype=bool)
    mark[list(block)] = True
    return elements[mark[elements[:, list(block)]].all(axis=1)]


def is_transitive_on(rows: np.ndarray, block) -> bool:
    """Whether the elements move the block's first point to every point of the block."""
    return set(rows[:, min(block)].tolist()) == set(block)


def check_bijection(blocks_from, blocks_to, pi) -> list[str]:
    """pi maps the first block set exactly onto the second."""
    if relabel_blocks(blocks_from, pi) != set(blocks_to):
        return ["the bijection does not map one block set onto the other"]
    return []
