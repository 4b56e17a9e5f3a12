"""The benchmark in `perfbench/` reads the program by name: its tracer wraps
module attributes, its worker reads `search.run`'s results.  These tests pin
that every wrapped name still exists, that one small workload passes the
benchmark's own checks, and that its checkers pass their self-test.  The
last test pins how `bench/compare_commits.py` sums up paired runs."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_install_finds_every_wrapped_name():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Tracer())"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_worker_psl33_small_lambda_passes_its_checks(tmp_path):
    out = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/worker.py",
            "--workload", "psl33-small-lambda",
            "--gens", "src/designforge/data/psl33.gens",
            "--seed", "0",
            "--seconds", "0",
            "--out", str(out),
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["failed"] == 0, result["errors"]
    assert result["problems"] == []


def test_checker_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_compare_commits_summary_reads_the_median_ratio_against_the_bound():
    path = ROOT / "bench" / "compare_commits.py"
    spec = importlib.util.spec_from_file_location("compare_commits", path)
    cc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cc)
    # setup_s medians 0.184 -> 0.234 s: a ratio of 1.27, above 1 + 0.25
    pairs = [{"parent": {"setup_s": p, "wall_s": 1.6}, "change": {"setup_s": c, "wall_s": 1.2}}
             for p, c in ((0.18, 0.23), (0.184, 0.234), (0.19, 0.24))]
    summary = cc.summarize(pairs, {"setup_s": 0.25, "wall_s": 0.25})
    assert summary["setup_s"]["change_over_parent"] == round(0.234 / 0.184, 4)
    assert summary["setup_s"]["over_bound"] is True
    assert summary["setup_s"]["change_lower_in"] == "0/3"
    assert summary["wall_s"]["change_over_parent"] == 0.75
    assert summary["wall_s"]["over_bound"] is False
