"""designforge benchmark: one workload per call, end-to-end or traced.

    python3 perfbench/run.py --workload screen-all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The seed makes the inputs: for the
search workloads it picks a random point relabelling of the shipped
`psl33.gens` (seed 0 keeps the shipped labelling), written to a generator
file that the program then loads.  Each workload runs in its own
single-threaded worker process (worker.py).

--trace 0 prints the end-to-end metrics: wall_s (median time of one round
of the workload's operations), setup_s (median of SETUP_SAMPLES fresh
processes that import the program and, for a search, materialize the group
and its multiplication table) and peak_rss_mb (ru_maxrss of the worker at
the end of its rounds).  --trace 1 runs the workload once untraced and once
traced, writes the spans to spans.json, and prints the per-layer metrics.
The last line of stdout is the JSON result; per-run files go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import checks
from worker import SEARCH_LAMBDAS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 900


def make_inputs(workload: str, seed: int, out_dir: Path) -> Path:
    """The relabelled generator file of a search workload (empty for the screen)."""
    gens_path = out_dir / "input.gens"
    if workload in SEARCH_LAMBDAS:
        shipped = checks.parse_gens((ROOT / "src/designforge/data/psl33.gens").read_text())
        pi = checks.random_relabelling(len(shipped[0]), seed)
        gens = checks.relabel_gens(shipped, pi)
        gens_path.write_text(checks.format_gens(gens, f"psl33.gens relabelled by seed {seed}"))
    else:
        gens_path.write_text("")
    return gens_path


def run_worker(args, gens_path: Path, out_file: Path, trace: int, setup_only=False) -> dict:
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--gens", str(gens_path), "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--out", str(out_file),
    ] + (["--setup-only"] if setup_only else [])
    subprocess.run(cmd, env=env, check=True, timeout=WORKER_TIMEOUT_S, stdout=sys.stderr)
    return json.loads(out_file.read_text())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src/designforge/__init__.py").is_file():
        print(f"error: no designforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    gens_path = make_inputs(args.workload, args.seed, out_dir)
    runs = [run_worker(args, gens_path, out_dir / "plain.json", 0)]
    if args.trace:
        traced = run_worker(args, gens_path, out_dir / "traced.json", 1)
        runs.append(traced)
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in traced["layers"].items()}
        metrics["trace.overhead_s"] = {
            "value": traced["wall_s"] - runs[0]["wall_s"], "unit": "s"}
    else:
        setups = [runs[0]["setup_s"]] + [
            run_worker(args, gens_path, out_dir / "setup.json", 0, setup_only=True)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        metrics = {
            "wall_s": {"value": runs[0]["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": runs[0]["peak_rss_mb"], "unit": "MB"},
        }
    problems = [p for r in runs for p in r["problems"] + r["errors"]]
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    result = {
        "correct": not any(r["problems"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    (out_dir / "result.json").write_text(json.dumps({"runs": runs, "result": result}, indent=1))
    print(json.dumps(result))
    return 0


def unit_of(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "ratio" if name.endswith("_per_candidate") else "count"


if __name__ == "__main__":
    sys.exit(main())
