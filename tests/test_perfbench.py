"""The benchmark in `perfbench/` reads the program by name: its tracer wraps
module attributes, its worker reads `search.run`'s results.  These tests pin
that every wrapped name still exists, that one small workload passes the
benchmark's own checks, and that its checkers pass their self-test."""

from __future__ import annotations

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
