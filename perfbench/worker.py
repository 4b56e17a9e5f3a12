"""Run one workload in this process: set-up, then timed rounds, each checked.

    python3 perfbench/worker.py --workload W --gens FILE --seed N --seconds S \
        --trace 0|1 --out RESULT.json [--setup-only]

The program must be importable (run.py puts its `src` on PYTHONPATH).  A
round is one pass over the workload's operations; the worker runs whole
rounds until --seconds have passed, at least one.  Only the operations are
timed: a search round first materializes a fresh group from the generator
file, because the group caches its subgroup classes and pair orbits.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import spans

K = 12
# lambdas searched per round; screen-all screens each family instead
SEARCH_LAMBDAS = {"psl33-small-lambda": (2, 3, 4, 6), "psl33-lambda12": (12,)}
WORKLOADS = ("screen-all", *SEARCH_LAMBDAS)

# the paper's results for PSL(3,3) on 144 points: isomorphism classes per lambda
PAPER_CLASSES = {2: 0, 3: 1, 4: 0, 6: 0, 12: 91}
# block sets at lambda = 12: no derivation apart from the program yet, so a
# reference value, as `designforge search --k 12 --lambda 12` on psl33.gens prints it
LAMBDA12_BLOCK_SETS = 182
PSL33_ORDER = 5616
# the paper's lambda = 3 base block, 0-based, in the shipped labelling
PAPER_LAMBDA3_BLOCK = tuple(p - 1 for p in (3, 7, 29, 30, 67, 68, 84, 96, 100, 101, 107, 134))


def _span(tracer, name):
    return tracer.span(name) if tracer else nullcontext({})


class _Clock:
    """Wall and CPU seconds of a with-block."""

    def __enter__(self):
        self.wall, self.cpu = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self.wall
        self.cpu = time.process_time() - self.cpu


def materialize(gens_path: str, tracer):
    from designforge.permgroup import GroupTable

    with _span(tracer, "permgroup.closure"):
        G = GroupTable.from_file(gens_path)
    with _span(tracer, "permgroup.mul_table") as attrs:
        # built here, or the first subgroups_of_order call would build it
        attrs["bytes"] = G.mul_table().nbytes
    return G


def setup(workload: str, gens_path: str, tracer):
    """Import the program and, for a search, materialize the group: (seconds, group)."""
    t0 = time.perf_counter()
    import designforge.cli  # noqa: F401  (loads every module the CLI uses)

    if tracer:
        spans.install(tracer)
    G = materialize(gens_path, tracer) if workload in SEARCH_LAMBDAS else None
    return time.perf_counter() - t0, G


def screen_round():
    from designforge import screen

    reports, failed = [], []
    with _Clock() as clock:
        for fam in screen.FAMILIES:
            try:
                reports += screen.case_screen([fam])
            except Exception as exc:  # one failed operation; the round goes on
                failed.append(f"case_screen({fam}): {exc!r}")
    return clock, reports, len(screen.FAMILIES), failed


def search_round(G, lams):
    from designforge import search

    results, failed = {}, []
    with _Clock() as clock:
        for lam in lams:
            try:
                results[lam] = search.run(search.SearchJob(G, K, lam))
            except Exception as exc:  # one failed operation; the round goes on
                failed.append(f"search.run(lambda={lam}): {exc!r}")
    return clock, results, len(lams), failed


def check_search(results, gens, elements, seed: int) -> list[str]:
    """Every design found against the paper and against independent recomputation.

    elements is the benchmark's own closure of the generators gens.
    """
    import checks
    from designforge.design import Design
    from designforge.iso import are_isomorphic

    problems = []
    if len(elements) != PSL33_ORDER:
        problems.append(f"the generators make a group of order {len(elements)}")
    pi = checks.random_relabelling(len(gens[0]), seed)
    for lam, res in sorted(results.items()):
        where = f"lambda={lam}"
        if res.iso_class_count != PAPER_CLASSES[lam] or len(res.records) != res.iso_class_count:
            problems.append(f"{where}: {res.iso_class_count} classes, "
                            f"paper has {PAPER_CLASSES[lam]}")
        if lam == 12 and res.distinct_block_sets != LAMBDA12_BLOCK_SETS:
            problems.append(f"{where}: {res.distinct_block_sets} block sets, "
                            f"reference {LAMBDA12_BLOCK_SETS}")
        if len({rec.design.blocks for rec in res.records}) != len(res.records):
            problems.append(f"{where}: two representatives share a block set")
        b = lam * K * (K + 1)
        for rec in res.records:
            blocks = rec.design.blocks
            problems += [f"{where}: {p}" for p in checks.check_design(blocks, K * K, lam, gens)]
            stab = checks.block_stabilizer(elements, blocks[0])
            if len(stab) != PSL33_ORDER // b:  # orbit-stabilizer for one orbit of b blocks
                problems.append(f"{where}: block stabilizer of order {len(stab)}")
            flag = checks.is_transitive_on(stab, blocks[0])
            if flag != rec.flag_transitive or flag != (lam == 3):
                problems.append(f"{where}: flag-transitive {rec.flag_transitive}, "
                                f"recomputed {flag}")
            if lam == 3:
                ref = checks.block_orbit(gens, [pi[p] for p in PAPER_LAMBDA3_BLOCK])
                cert = are_isomorphic(Design(K * K, ref), rec.design)
                if not cert.isomorphic:
                    problems.append(f"{where}: not isomorphic to the paper's design")
                else:
                    problems += checks.check_bijection(ref, blocks, cert.bijection)
    return problems


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--gens", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    out = Path(args.out)
    tracer = spans.Tracer() if args.trace else None
    setup_s, G = setup(args.workload, args.gens, tracer)
    if args.setup_only:
        out.write_text(json.dumps({"setup_s": setup_s}))
        return 0

    import checks  # only after set-up: it imports numpy, which set-up times with the program

    lams = SEARCH_LAMBDAS.get(args.workload)
    if lams:
        gens = checks.parse_gens(Path(args.gens).read_text())
        elements = checks.closure(gens)
    rng = random.Random(args.seed)
    walls, cpus, attempted, errors, problems = [], [], 0, [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        if lams:
            if walls:
                G = materialize(args.gens, tracer)
            clock, output, n_ops, round_errors = search_round(G, lams)
            G = None
            problems += check_search(output, gens, elements, args.seed)
        else:
            clock, output, n_ops, round_errors = screen_round()
            problems += checks.check_screen(output, rng)
        # checked and dropped, so that the peak RSS does not grow with the rounds;
        # a group's cached subgroups point back at it, so only gc frees it
        output = None
        gc.collect()
        walls.append(clock.wall)
        cpus.append(clock.cpu)
        attempted += n_ops
        errors += round_errors
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "round_walls": walls,
        "cpu_s": statistics.median(cpus),
        "round_cpus": cpus,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors,
        "problems": problems,
    }
    if tracer:
        result["layers"] = spans.layer_metrics(tracer.spans, len(walls))
        out.with_name("spans.json").write_text(json.dumps(tracer.spans))
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
