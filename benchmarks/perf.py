"""Offline benchmark of distdescribe: one workload per invocation.

    python3 benchmarks/perf.py --workload suite-rule --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it repeats the timed window with spans recorded
and reports the per-layer metrics instead.  Every describe's output is
checked, a human-readable table goes to stdout, and the last stdout line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Full
results (and spans, when traced) are written under ``.benchmarks-out/``.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


IMPORT_REPEATS = 3
_TIME_IMPORT = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); started = time.perf_counter(); "
    "import distdescribe; print(time.perf_counter() - started)"
)


def import_program() -> float:
    """Import distdescribe from this checkout's src/.

    Returns the median time a fresh interpreter takes to import it, which
    counts in ``setup_s``; one in-process timing would be at the mercy of a
    single disk or CPU hiccup.
    """
    if not (SRC / "distdescribe" / "__init__.py").is_file():
        raise SystemExit(f"error: no distdescribe sources under {SRC}")
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", _TIME_IMPORT, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(out.stdout))
    sys.path.insert(0, str(SRC))
    import distdescribe

    if Path(distdescribe.__file__).resolve().parent != (SRC / "distdescribe").resolve():
        raise SystemExit(f"error: imported distdescribe from {distdescribe.__file__}")
    return statistics.median(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_program()
    import runner

    return runner.run(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
