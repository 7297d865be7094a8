"""Run all four workloads once and print one row per workload.

    python3 benchmarks/table.py --seed 1

Runs ``perf.py`` for each workload in turn (untraced, or traced with
``--trace 1``), then prints every end-to-end metric by name and unit, one
row per workload, from the result files the runs wrote.  Exits non-zero if
any run fails a correctness check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COLUMNS = (
    ("setup_s", "s"),
    ("describes_per_s", "1/s"),
    ("describe_s_p50", "s"),
    ("describe_s_tail", "s"),
    ("backend_requests_per_describe", "count"),
    ("prompt_tokens_per_describe", "tokens"),
    ("gold_hit_rate", "ratio"),
    ("ca_abs_err_mean", "CA"),
    ("failed_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    rows, all_correct = [], True
    for workload in (w["name"] for w in spec["workloads"]):
        cmd = [
            sys.executable, str(HERE / "perf.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, timeout=600)
        name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
        result = json.loads((ROOT / ".benchmarks-out" / name).read_text())
        all_correct &= result["correct"]
        tail = result["describe_s_tail"]
        values = {**result["table"], "describe_s_tail": tail and tail["value"]}
        rows.append((workload, result["correct"], values))

    print("workload      correct  " + "  ".join(f"{n} [{u}]" for n, u in COLUMNS))
    for workload, correct, values in rows:
        cells = [
            "n/a".rjust(len(n) + len(u) + 3) if values[n] is None
            else f"{values[n]:.6g}".rjust(len(n) + len(u) + 3)
            for n, u in COLUMNS
        ]
        print(f"{workload:<13} {str(correct):<7}  " + "  ".join(cells))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
