"""Compare two source checkouts on the perfbench workloads, in alternating pairs.

    python3 bench/compare_commits.py --parent PARENT_DIR --change CHANGE_DIR \
        --out BENCH_name.json --pairs 10 --seconds 10

PARENT_DIR and CHANGE_DIR are two source checkouts (for example two
`git clone`s), each with its own perfbench/.  The workloads and end-to-end
metrics are those that CHANGE_DIR/BENCHMARK.json declares.  For every workload
and pair i the script runs `perfbench/run.py --trace 0` with seed SEED0 + i in
both checkouts, the parent first on even i and the change first on odd i, so a
slow drift of the machine falls on both sides.  It then runs one traced pair
per workload that TRACED_LAYERS lists (a workload it does not list records no
layers), and one untraced `psl33-lambda12` run with --seconds 1 per checkout,
a by-hand record of that workload's wall_s and peak_rss_mb (it is not in
BENCHMARK.json and not run in pairs).  In each checkout it records the two
pinned screen digests, the sha256 of the `screen_report.json` that
`designforge screen --family all` writes, the sha256 of the subgroup class
representatives of the 22 pinned (group, m) pairs, the sha256 of the stored
lattice records (least member and generators of every class, not the kept
normalizer) of tests/test_permgroup.py::LATTICE_RECORD_HASHES, the sha256 of
every file that `designforge search --k 12 --all --out-dir` writes for
psl33.gens and pgl33.gens except `manifest.json` (which holds wall times), by
file name (about 3 s), and an iso digest: six fingerprint fields of the
lambda=3 and lambda=6 reference designs, read by name (v, b, k, the
intersection, block-profile and stable-color histograms, so a checkout whose
Fingerprint has more fields gives the same digest), and the bijections of
tests/test_iso.py::test_bijections_pinned.  `digests(checkout)` computes these
outputs alone, and `check_digests(checkout)` prints them and returns 1 when
the search files differ from SEARCH_FILES_SHA256 (CI runs it).  The JSON
written to --out holds every run, the median and quartiles of each
end-to-end metric, in how many pairs the change was lower, the ratio of the
two medians (`change_over_parent`) and `over_bound`, true when that ratio is
above 1 plus the metric's `bound` in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

TRACED_LAYERS = {
    "screen-all": ("numtheory.factorize_s", "numtheory.factorize_calls",
                   "screen.case_screen_s"),
    "psl33-small-lambda": ("permgroup.mul_table_s", "permgroup.subgroups_s",
                           "permgroup.subgroups_calls", "permgroup.subgroup_classes",
                           "search.run_s", "search.self_s", "search.candidates_tested",
                           "design.lambda_of_s", "iso.iso_classes_s"),
}

# run inside a checkout: the label-and-factorization digest of
# tests/test_screen.py::test_screen_factorizations_pinned, the full-report
# digest of test_screen_reports_pinned, the CLI's screen_report.json, and the
# class representatives of the (group, m) pairs of
# tests/test_permgroup.py::SUBGROUP_CLASS_HASHES, computed on one group per
# generator file in the pinned order, so later orders reuse the stored
# lattice; the lattice records of
# tests/test_permgroup.py::LATTICE_RECORD_HASHES, each on a fresh group; every
# file but manifest.json that the CLI's search --k 12 --all writes for each
# shipped group; then six fingerprint fields, by name, of the lambda=3 (psl33)
# and lambda=6 (pgl33) base-block designs of tests/conftest.py, and the
# bijections that tests/test_iso.py::test_bijections_pinned pins
_DIGESTS = """
import hashlib, json, random, sys
from pathlib import Path
from designforge import data_path, design as dz, iso, permgroup as pg, screen as sc
from designforge.cli import main
reports = sc.case_screen()
rows = [(r.case.label(), r.v_factorization, r.v_fraction) for r in reports]
doc = json.dumps([r.to_dict() for r in reports], sort_keys=True)
main(["screen", "--family", "all", "--out", sys.argv[1]])
base_blocks = {"psl33": (3, 7, 29, 30, 67, 68, 84, 96, 100, 101, 107, 134),
               "pgl33": (30, 31, 40, 44, 56, 67, 71, 84, 85, 93, 122, 125)}
designs = {"fano": dz.Design(7, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6),
                                 (2, 3, 6), (2, 4, 5)])}
classes = []
for name, orders in (("psl33", (2, 3, 4, 6, 8, 9, 12, 13, 16, 18, 24, 26, 27, 36, 39, 52, 54)),
                     ("pgl33", (6, 12, 18, 24, 36))):
    G = pg.GroupTable.from_file(data_path(name + ".gens"))
    classes += [[name, m, [s.indices for s in pg.subgroups_of_order(G, m)]] for m in orders]
    designs[name] = dz.from_base_block(G, tuple(p - 1 for p in base_blocks[name]))
    del G
records = []
for name, orders in (("psl33", (18, 12)), ("pgl33", (36, 24))):
    G = pg.GroupTable.from_file(data_path(name + ".gens"))
    for m in orders:
        pg.subgroups_of_order(G, m)
    records.append(sorted((d, [(least.tolist(), gens) for least, gens, *_ in recs])
                          for d, recs in G._subgroup_classes.items()))
    del G
search_files = {}
for name in ("psl33", "pgl33"):
    out_dir = Path(sys.argv[1]) / name
    main(["search", "--gens", data_path(name + ".gens"), "--k", "12", "--all",
          "--out-dir", str(out_dir)])
    search_files[name] = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                          for path in sorted(out_dir.iterdir()) if path.name != "manifest.json"}
fields = ("v", "b", "k", "intersection_histogram", "block_profile_histogram",
          "stable_color_histogram")
iso_doc = [[getattr(iso.fingerprint(designs[n]), f) for f in fields] for n in ("psl33", "pgl33")]
for seed, name in ((11, "fano"), (12, "psl33"), (13, "pgl33")):
    rng, D = random.Random(seed), designs[name]
    for _ in range(3):
        pi = list(range(D.v))
        rng.shuffle(pi)
        iso_doc.append(iso.are_isomorphic(D, D.relabel(pi)).bijection)
print(json.dumps({
    "factorizations_sha256": hashlib.sha256(json.dumps(rows).encode()).hexdigest(),
    "reports_sha256": hashlib.sha256(doc.encode()).hexdigest(),
    "screen_report_json_sha256": hashlib.sha256(
        (Path(sys.argv[1]) / "screen_report.json").read_bytes()).hexdigest(),
    "subgroup_classes_sha256": hashlib.sha256(json.dumps(classes).encode()).hexdigest(),
    "lattice_records_sha256": [hashlib.sha256(json.dumps(r).encode()).hexdigest()
                               for r in records],
    "search_files_sha256": search_files,
    "iso_sha256": hashlib.sha256(json.dumps(iso_doc).encode()).hexdigest(),
}))
"""


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        **{name: m["value"] for name, m in result["metrics"].items()},
    }


def revision(checkout: Path) -> str | None:
    """The commit a git checkout is at, or None for an exported tree."""
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def digests(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run([sys.executable, "-c", _DIGESTS, out], env=env,
                              capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


# sha256 of json.dumps(digests(...)["search_files_sha256"], sort_keys=True):
# the bytes of every file but manifest.json that `designforge search --k 12
# --all` writes for psl33.gens (93 files) and pgl33.gens (2 files)
SEARCH_FILES_SHA256 = "66180eccab94b6f7efd8e86195bed3724461f77ac65284c7000b3d6f14d23b9b"


def check_digests(checkout: Path) -> int:
    """Print the checkout's digests; 1 if its search files differ from the pin."""
    doc = digests(checkout)
    print(json.dumps(doc))
    got = hashlib.sha256(
        json.dumps(doc["search_files_sha256"], sort_keys=True).encode()).hexdigest()
    if got != SEARCH_FILES_SHA256:
        print(f"search files sha256 {got}, pinned {SEARCH_FILES_SHA256}", file=sys.stderr)
        return 1
    return 0


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4), "n": len(values)}


def summarize(pairs: list[dict], bounds: dict[str, float]) -> dict:
    """Quartiles of each metric on both sides, the pairs where the change was
    lower, the ratio of the medians (change over parent), and whether that
    ratio is above 1 + the metric's bound in BENCHMARK.json."""
    out = {}
    for metric, bound in bounds.items():
        parent = [p["parent"][metric] for p in pairs]
        change = [p["change"][metric] for p in pairs]
        lower = sum(c < p for p, c in zip(parent, change))
        ratio = statistics.median(change) / statistics.median(parent)
        out[metric] = {
            "parent": quartiles(parent),
            "change": quartiles(change),
            "change_lower_in": f"{lower}/{len(pairs)}",
            "change_over_parent": round(ratio, 4),
            "over_bound": ratio > 1 + bound,
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--what", default="", help="one line saying what the change is")
    args = ap.parse_args()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    doc: dict = {
        "what": args.what,
        "machine": f"{os.cpu_count()} CPUs, {platform.processor() or platform.machine()}, "
                   f"Python {platform.python_version()}; every figure is one run",
        "revisions": {side: revision(path) for side, path in sides.items()},
        "pairs": {
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds} "
                       "--trace 0, parent first on even pair index",
        },
    }
    runs: dict[str, list[dict]] = {}
    for workload in workloads:
        runs[workload] = []
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_bench(sides[side], workload, seed, args.seconds, 0)
            runs[workload].append(pair)
            print(workload, seed, {s: pair[s]["wall_s"] for s in order}, file=sys.stderr)
    doc["pairs"]["summary"] = {w: summarize(runs[w], bounds) for w in workloads}
    doc["pairs"]["all_correct"] = all(
        p[s]["correct"] and p[s]["failed"] == 0
        for w in workloads for p in runs[w] for s in sides)
    doc["pairs"]["runs"] = runs

    for workload in (w for w in workloads if w in TRACED_LAYERS):
        traced = {side: run_bench(path, workload, args.seed0, args.seconds, 1)
                  for side, path in sides.items()}
        doc[f"{workload} traced"] = {
            "command": f"python3 perfbench/run.py --workload {workload} --seed {args.seed0} "
                       f"--seconds {args.seconds} --trace 1",
            **{side: {k: traced[side][k] for k in TRACED_LAYERS[workload]} for side in sides},
        }
    by_hand = {side: run_bench(path, "psl33-lambda12", args.seed0, 1, 0)
               for side, path in sides.items()}
    doc["psl33-lambda12 by hand"] = {
        "command": f"python3 perfbench/run.py --workload psl33-lambda12 --seed {args.seed0} "
                   "--seconds 1 --trace 0, parent first",
        **{side: {k: by_hand[side][k] for k in ("correct", "wall_s", "peak_rss_mb")}
           for side in sides},
    }
    doc["outputs"] = {side: digests(path) for side, path in sides.items()}
    doc["outputs"]["identical"] = doc["outputs"]["parent"] == doc["outputs"]["change"]
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
