"""Runs one workload: set-up, timed window, traced window, checks, report."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy

from distdescribe import report_json

from layers import PER_LAYER, endpoint_metrics, gold_ca_standalone, http_probe
from layers import standalone_metrics, traced_metrics
from oracle import ExactCAOracle
from tracing import Meter, Tracer, span_or_null
from workloads import HTTP_DELAY_S, NPROC, WORKLOADS, fresh_dir

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".benchmarks-out"
WORK_DIR = ROOT / ".benchmarks-work"
SETUP_REPEATS = 3

# name: (unit, better); the gated bounds live in BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "describes_per_s": ("1/s", "higher"),
    "describe_s_p50": ("s", "lower"),
    "backend_requests_per_describe": ("count", "lower"),
    "prompt_tokens_per_describe": ("tokens", "lower"),
    "gold_hit_rate": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


@dataclass
class Record:
    """One timed describe."""

    index: int
    task: int
    wall_s: float
    outcome: object | None  # workloads.Outcome, or None when the describe raised
    requests: object  # tracing.Requests sent during the describe
    error: str | None = None


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_window(workload, setup, seconds: float, meter, tracer=None) -> list[Record]:
    """Describe the workload's tasks in order, one at a time, for ``seconds``.

    The window also runs until every task has been described
    ``workload.rounds`` times, so the first round (the count set, whose
    exact counts are reported) and each task's median are always there.
    """
    records: list[Record] = []
    started = time.perf_counter()
    finished = started
    least = workload.rounds * len(setup.tasks)
    while finished - started < seconds or len(records) < least:
        index = len(records)
        task_index = index % len(setup.tasks)
        if tracer is not None:
            tracer.begin_describe(index)
        before = meter.snapshot()
        t0 = time.perf_counter()
        error = outcome = None
        try:
            with span_or_null(tracer, "describe"):
                outcome = workload.describe(setup, setup.tasks[task_index], tracer)
        except Exception:
            error = traceback.format_exc(limit=3)
        finished = time.perf_counter()
        records.append(
            Record(index, task_index, finished - t0, outcome, meter.snapshot() - before, error)
        )
    return records


def check_records(workload, setup, records, oracle, first_json: dict, tally: bool) -> list[str]:
    """Check every describe; return one line per failed describe.

    ``first_json`` maps a task to its first report, which every later
    describe of the task must equal.  With ``tally``, the count set's rows
    feed the oracle's error statistics.
    """
    failures = []
    for rec in records:
        oracle.tally = tally and rec.index < len(setup.tasks)
        if rec.error is not None:
            failures.append(f"describe {rec.index} raised: {rec.error.strip().splitlines()[-1]}")
            continue
        problems = workload.check(setup, rec.task, rec.outcome, rec.requests, oracle)
        if rec.requests.failed:
            problems.append(f"{rec.requests.failed} backend requests failed after retries")
        text = report_json(rec.outcome.report) if rec.outcome.report is not None else ""
        if first_json.setdefault(rec.task, text) != text:
            problems.append("report differs from an earlier describe of the same task")
        if problems:
            failures.append(f"describe {rec.index} (task {rec.task}): " + "; ".join(problems))
    return failures


def tail(walls: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten describes above it."""
    n = len(walls)
    if n < 20:
        return None
    pct = math.floor(100 * (n - 10) / n)
    return pct, float(statistics.quantiles(walls, n=100, method="inclusive")[pct - 1])


def end_to_end(records, task_count: int, setup_s: float, peak_rss_mb: float) -> dict:
    """End-to-end metrics of the untraced window.

    ``describes_per_s`` is the rate over one describe of every task, each
    timed as the median of its describes in the window, so a burst of
    slowdown from other tenants moves it less than a plain count would.
    """
    counted = records[:task_count]
    walls = [r.wall_s for r in records]
    per_task = [
        statistics.median(r.wall_s for r in records if r.task == t) for t in range(task_count)
    ]
    outcomes = [r.outcome for r in counted if r.outcome is not None]
    return {
        "setup_s": setup_s,
        "describes_per_s": task_count / sum(per_task),
        "describe_s_p50": float(statistics.median(walls)),
        "backend_requests_per_describe": sum(r.requests.total for r in counted) / len(counted),
        "prompt_tokens_per_describe": (
            sum(r.requests.prompt_tokens for r in counted) / len(counted)
        ),
        "gold_hit_rate": sum(o.gold_in_top_k for o in outcomes) / len(counted),
        "peak_rss_mb": peak_rss_mb,
    }


def run(args, import_s: float) -> int:
    """Set up, run the timed window (and the traced one), check, and report."""
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        known = ", ".join(WORKLOADS)
        raise SystemExit(f"error: unknown workload {args.workload!r}; known: {known}")

    run_name = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = WORK_DIR / f"{run_name}-{os.getpid()}"
    meter = Meter()
    setup = None
    setup_times, generate_s, load_s = [], [], []
    try:
        for repeat in range(SETUP_REPEATS):
            if setup is not None:
                setup.close()
            started = time.perf_counter()
            setup = workload.setup(args.seed, fresh_dir(workdir / f"setup-{repeat}"), meter)
            setup_times.append(time.perf_counter() - started)
            generate_s.append(setup.generate_s)
            load_s.append(setup.load_s)
        setup_s = import_s + statistics.median(setup_times)

        records = run_window(workload, setup, args.seconds, meter)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        oracle = ExactCAOracle()
        e2e = end_to_end(records, len(setup.tasks), setup_s, peak_rss_mb)
        traced: list[Record] = []
        layer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
            meter.tracer = tracer
            before = setup.endpoint.snapshot() if setup.endpoint is not None else None
            setup.captured.clear()
            try:
                traced = run_window(workload, setup, args.seconds, meter, tracer)
            finally:
                meter.tracer = None
                tracer.patches.undo()
            # The traced window's own traffic first; standalone timings fill the rest.
            layer = traced_metrics(tracer, traced, len(setup.tasks))
            if setup.endpoint is not None:
                client_ms = [
                    d * 1e3
                    for name in ("backends.judge", "backends.complete")
                    for d in tracer.durations.get(name, [])
                ]
                layer.update(endpoint_metrics(setup.endpoint, before, client_ms, NPROC))
                layer["backends.failed"] = float(sum(r.requests.failed for r in traced))
            else:
                layer.update(http_probe(setup.tasks[0], NPROC, HTTP_DELAY_S))
            if "bench.gold_ca_ms" not in layer:
                layer.update(gold_ca_standalone(setup.tasks[0], setup.config, meter))
            for name, value in standalone_metrics(setup.tasks[0], workdir).items():
                layer.setdefault(name, value)
            layer["corpus.load_ms"] = statistics.median(load_s) * 1e3
            layer["bench.generate_ms"] = statistics.median(generate_s) * 1e3
            layer["tracing.describes_per_s_lost"] = (
                e2e["describes_per_s"]
                - end_to_end(traced, len(setup.tasks), setup_s, peak_rss_mb)["describes_per_s"]
            )
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"{run_name}.spans.jsonl")

        first_json: dict[int, str] = {}
        failures = check_records(workload, setup, records, oracle, first_json, tally=True)
        failures += check_records(workload, setup, traced, oracle, first_json, tally=False)
    finally:
        if setup is not None:
            setup.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    attempted = len(records) + len(traced)
    walls = [r.wall_s for r in records]
    tail_row = tail(walls)
    table = {
        **e2e,
        "ca_abs_err_mean": oracle.abs_err_mean,
        "failed_frac": len(failures) / attempted,
    }
    units = {name: unit for name, (unit, _) in END_TO_END.items()}
    units.update(ca_abs_err_mean="CA", failed_frac="ratio")
    print(f"workload {workload.name}  seed {args.seed}  in_flight {NPROC}  "
          f"describes {len(records)}")
    for name, value in table.items():
        print(f"  {name:<30} {value:>14.6g} {units[name]}")
    if tail_row is None:
        print(f"  {'describe_s_tail':<30} {'n/a':>14} s   "
              f"(needs 20 describes, have {len(walls)})")
    else:
        print(f"  {'describe_s_tail':<30} {tail_row[1]:>14.6g} s   "
              f"(p{tail_row[0]} of {len(walls)})")
    print(f"  rows outside 4 reported stderr: {oracle.outside_reported_stderr} of {oracle.rows}")
    for line in failures:
        print(f"  FAILED {line}")
    if layer is not None:
        for name in PER_LAYER:
            print(f"  {name:<36} {layer[name]:>14.6g} {PER_LAYER[name][0]}")

    metrics = (
        {name: {"value": layer[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}
        if layer is not None
        else {name: {"value": e2e[name], "unit": END_TO_END[name][0]} for name in END_TO_END}
    )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    provenance = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "sizes": workload.sizes(),
        "in_flight": NPROC,
        "nproc": NPROC,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "describe_walls_s": walls,
        "describe_s_tail": (
            None if tail_row is None
            else {"percentile": tail_row[0], "value": tail_row[1], "describes": len(walls)}
        ),
        "table": table,
        "rows_checked": oracle.rows,
        "rows_outside_4_reported_stderr": oracle.outside_reported_stderr,
        "failures": failures,
        "per_layer_predictions": {name: spec[2] for name, spec in PER_LAYER.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    full = json.dumps({**provenance, **result}, indent=2)
    (OUT_DIR / f"{run_name}.json").write_text(full + "\n")
    print(json.dumps(result))
    return 0

