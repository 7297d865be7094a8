"""Smoke test of the benchmark harness under ``benchmarks/``.

The traced mode calls the library names the harness measures (``featurize``,
``Verifier.judge``, ``build_prompt``, ``JudgmentCache``), so a change that
drops one fails here rather than only in a benchmark run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_cache_warm_run_is_correct(tmp_path):
    # A copy of the checkout, so the run's output files land outside it.
    ignore = shutil.ignore_patterns("__pycache__", ".benchmarks-*")
    for name in ("src", "benchmarks"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    command = [sys.executable, "benchmarks/perf.py", "--workload", "cache-warm"]
    command += ["--seed", "1", "--seconds", "0.2", "--trace", "1"]
    run = subprocess.run(
        command, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
