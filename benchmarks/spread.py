"""Run one workload over several seeds and report each metric's spread.

    python3 benchmarks/spread.py --workload suite-rule --seeds 1-10 --seconds 12

Runs ``perf.py`` once per seed, one run at a time, and prints for every
metric its median and the distance between the first and third quartiles
as a share of the median (``statistics.quantiles(values, n=4)``), next to
the bound ``BENCHMARK.json`` gives it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [
            sys.executable, str(HERE / "perf.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':<36} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread <= bound / 3 else "  > bound/3"
        shown = "" if bound is None else bound
        print(f"{name:<36} {median:>12.6g} {spread:>8.4f} {shown:>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
