"""Per-layer metrics: from the traced window's spans and counters, and from
standalone timings of single layers on the workload's own samples.

``PER_LAYER`` lists every per-layer metric with the end-to-end metric and
workload it is expected to move, so later changes can cite a prediction by
name.
"""

from __future__ import annotations

import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from distdescribe import (
    EndpointConfig,
    HttpBackend,
    JudgmentCache,
    JudgmentRequest,
    RuleBackend,
    RunConfig,
    Verifier,
    build_prompt,
    featurize,
    get_predicate,
    run_bench,
)

from endpoint import OracleEndpoint
from tracing import Patches, Span, Tracer, capture_reports, patch_backend_factory

# name: (unit, better, prediction)
PER_LAYER = {
    "corpus.load_ms": ("ms", "lower", "setup_s on large-corpus"),
    "bench.generate_ms": ("ms", "lower", "setup_s on all workloads"),
    "bench.gold_ca_ms": ("ms", "lower", "describe_s_p50 on suite-rule"),
    "bench.gold_ca_backend_judgments": (
        "count", "lower", "backend_requests_per_describe on suite-rule"),
    "discriminator.train_ms": (
        "ms", "lower", "describe_s_p50 and describes_per_s on large-corpus"),
    "discriminator.select_ms": (
        "ms", "lower", "describe_s_p50 and describes_per_s on large-corpus"),
    "discriminator.featurize_us": (
        "us", "lower", "describe_s_p50 and describes_per_s on large-corpus"),
    "discriminator.featurize_calls": (
        "count", "lower", "describe_s_p50 and describes_per_s on large-corpus"),
    "proposer.self_ms": ("ms", "lower", "describe_s_p50 on suite-rule"),
    "proposer.build_prompt_us": ("us", "lower", "describe_s_p50 on suite-rule"),
    "proposer.prompts": (
        "count", "lower",
        "backend_requests_per_describe and prompt_tokens_per_describe on http-latency"),
    "proposer.prompt_tokens": (
        "tokens", "lower",
        "backend_requests_per_describe and prompt_tokens_per_describe on http-latency"),
    "proposer.kept_ratio": (
        "ratio", "higher",
        "backend_requests_per_describe and prompt_tokens_per_describe on http-latency"),
    "backends.complete_calls": (
        "count", "lower", "backend_requests_per_describe on all workloads"),
    "backends.judge_calls": ("count", "lower", "backend_requests_per_describe on all workloads"),
    "backends.judge_ms_p50": ("ms", "lower", "describe_s_p50 on http-latency"),
    "backends.judge_ms_p99": ("ms", "lower", "describe_s_p50 on http-latency"),
    "backends.complete_ms_p50": ("ms", "lower", "describe_s_p50 on http-latency"),
    "backends.client_overhead_ms_p50": ("ms", "lower", "describe_s_p50 on http-latency"),
    "backends.connections_per_request": ("ratio", "lower", "describe_s_p50 on http-latency"),
    "backends.slot_utilization": ("ratio", "higher", "describes_per_s on http-latency"),
    "backends.retries": ("count", "lower", "failed ops on http-latency"),
    "backends.failed": ("count", "lower", "failed ops on http-latency"),
    "backends.rule_judge_us": ("us", "lower", "describe_s_p50 on suite-rule"),
    "verifier.judgments": (
        "count", "lower", "backend_requests_per_describe on cache-warm and suite-rule"),
    "verifier.cache_hit_ratio": (
        "ratio", "higher", "backend_requests_per_describe on cache-warm and suite-rule"),
    "verifier.judge_us_miss": ("us", "lower", "describe_s_p50 on suite-rule"),
    "verifier.judge_us_hit": ("us", "lower", "describe_s_p50 on cache-warm"),
    "verifier.estimate_ca_ms": ("ms", "lower", "describe_s_p50 on suite-rule"),
    "verifier.verify_ms": ("ms", "lower", "describe_s_p50 on suite-rule"),
    "verifier.cache_load_ms": ("ms", "lower", "describe_s_p50 on cache-warm"),
    "verifier.cache_put_us": ("us", "lower", "setup_s on cache-warm"),
    "verifier.abstain_ratio": ("ratio", "lower", "failed ops on all workloads"),
    "pipeline.self_ms": ("ms", "lower", "describe_s_p50 on suite-rule"),
    "pipeline.verify_parallelism": ("ratio", "higher", "describes_per_s on http-latency"),
    "tracing.describes_per_s_lost": ("1/s", "lower", "none: the traced run's own cost"),
}

STANDALONE_PAIRS = 400
PROBE_REQUESTS = 40


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _covered(parent: Span, children: list[Span]) -> float:
    """Length of the part of ``parent`` that the union of ``children`` covers."""
    intervals = sorted(
        (max(c.start, parent.start), min(c.end, parent.end)) for c in children
    )
    covered, cursor = 0.0, parent.start
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def traced_metrics(tracer: Tracer, records, task_count: int) -> dict:
    """Per-layer metrics from the traced window.

    Times are medians over describes; counts are means over the first
    round (one describe of each of the ``task_count`` tasks), which every
    run completes, so they repeat exactly for a given seed.
    """
    by_describe: dict[int, list[Span]] = {}
    for span in tracer.spans:
        by_describe.setdefault(span.describe, []).append(span)
    children: dict[int, list[Span]] = {}
    for span in tracer.spans:
        children.setdefault(span.parent, []).append(span)

    train, select, propose_self, verify, parallelism, pipeline_self, gold_ca = (
        [] for _ in range(7)
    )
    for rec in records:
        spans = by_describe.get(rec.index, [])
        named = lambda name: [s for s in spans if s.name == name]  # noqa: E731
        train.append(sum(s.duration for s in named("discriminator.train")))
        select.append(sum(s.duration for s in named("discriminator.select")))
        for p in named("proposer.propose"):
            propose_self.append(p.duration - _covered(p, children.get(p.id, [])))
        if rec.outcome is not None and rec.outcome.inner is not None:
            # run_bench: whatever it does beyond its describe_pair is the gold CA.
            for root in named("describe"):
                for dp in children.get(root.id, []):
                    if dp.name == "pipeline.describe_pair":
                        gold_ca.append(root.duration - dp.duration)
        for dp in named("pipeline.describe_pair"):
            kids = children.get(dp.id, [])
            pipeline_self.append(dp.duration - _covered(dp, kids))
            estimates = [k for k in kids if k.name == "verifier.estimate_ca"]
            if estimates:
                envelope = max(k.end for k in estimates) - min(k.start for k in estimates)
                verify.append(envelope)
                parallelism.append(sum(k.duration for k in estimates) / envelope)

    counted = records[:task_count]

    def per_describe(name: str) -> float:
        return sum(tracer.counts.get((r.index, name), 0) for r in counted) / len(counted)

    judgments = sum(tracer.counts.get((r.index, "judgments"), 0) for r in counted)
    abstentions = sum(tracer.counts.get((r.index, "abstentions"), 0) for r in counted)
    backend_judges = sum(r.requests.judge_calls for r in counted)
    reports = [r.outcome.report for r in counted if r.outcome is not None and r.outcome.report]
    raw = sum(rep.raw_candidate_count for rep in reports)
    kept = sum(rep.candidate_count for rep in reports)
    estimate_spans = [s for s in tracer.spans if s.name == "verifier.estimate_ca"]
    judge_ms = [d * 1e3 for d in tracer.durations.get("backends.judge", [])]  # none when all hit
    complete_ms = [d * 1e3 for d in tracer.durations.get("backends.complete", [])]

    metrics = {
        "discriminator.train_ms": _median(train) * 1e3,
        "discriminator.select_ms": _median(select) * 1e3,
        "discriminator.featurize_calls": per_describe("featurize"),
        "proposer.self_ms": _median(propose_self) * 1e3,
        "proposer.prompts": per_describe("prompts"),
        "proposer.prompt_tokens": per_describe("prompt_tokens"),
        "proposer.kept_ratio": kept / raw if raw else 0.0,
        "backends.complete_calls": (
            sum(r.requests.complete_calls for r in counted) / len(counted)
        ),
        "backends.judge_calls": backend_judges / len(counted),
        "backends.complete_ms_p50": _median(complete_ms),
        "verifier.judgments": judgments / len(counted),
        "verifier.cache_hit_ratio": 1.0 - backend_judges / judgments if judgments else 0.0,
        "verifier.abstain_ratio": abstentions / judgments if judgments else 0.0,
        "verifier.estimate_ca_ms": _median(s.duration for s in estimate_spans) * 1e3,
        "verifier.verify_ms": _median(verify) * 1e3,
        "pipeline.self_ms": _median(pipeline_self) * 1e3,
        "pipeline.verify_parallelism": _median(parallelism),
    }
    if judge_ms:
        metrics["backends.judge_ms_p50"] = float(np.percentile(judge_ms, 50))
        metrics["backends.judge_ms_p99"] = float(np.percentile(judge_ms, 99))
    inner = [r for r in counted if r.outcome is not None and r.outcome.inner is not None]
    if gold_ca and inner:
        metrics["bench.gold_ca_ms"] = _median(gold_ca) * 1e3
        metrics["bench.gold_ca_backend_judgments"] = sum(
            r.requests.judge_calls - r.outcome.inner.requests.judge_calls for r in inner
        ) / len(inner)
    return metrics


def endpoint_metrics(
    endpoint: OracleEndpoint, before: dict, client_ms: list[float], in_flight: int
) -> dict:
    """Endpoint-side counters over a window, against the client's view of it."""
    after = endpoint.snapshot()
    requests = after["requests"] - before["requests"]
    handling_ms = [s * 1e3 for s in endpoint.handling_s[before["handled"]:after["handled"]]]
    elapsed = after["time"] - before["time"]
    return {
        "backends.client_overhead_ms_p50": _median(client_ms) - _median(handling_ms),
        "backends.connections_per_request": (
            (after["connections"] - before["connections"]) / requests if requests else 0.0
        ),
        "backends.slot_utilization": (
            (after["busy_s"] - before["busy_s"]) / (elapsed * in_flight)
        ),
        "backends.retries": float(requests - len(client_ms)),
    }


def _timed_per_call(fn, items, repeats: int = 3) -> float:
    """Median over ``repeats`` passes of the mean seconds per call of ``fn(item)``."""
    passes = []
    for _ in range(repeats):
        started = time.perf_counter()
        for item in items:
            fn(*item)
        passes.append((time.perf_counter() - started) / len(items))
    return _median(passes)


def _directed_pairs(task, n: int, seed: int) -> list:
    d1, d0 = task.pair.d1.samples, task.pair.d0.samples
    rng = np.random.default_rng(seed)
    idx1, idx0 = rng.integers(0, len(d1), n), rng.integers(0, len(d0), n)
    forward = [(d1[int(i)], d0[int(j)]) for i, j in zip(idx1, idx0)]
    return forward + [(b, a) for a, b in forward]


def _judgment_request(s: str, a, b) -> JudgmentRequest:
    """The request the verifier sends for "does A satisfy s more than B?"."""
    return JudgmentRequest(
        question=f"Is it true that sentence A {s}?", context=f"A: {a.text}\nB: {b.text}"
    )


def http_probe(task, in_flight: int, delay_s: float) -> dict:
    """Judgments of the task's own pairs over HTTP, ``in_flight`` at a time."""
    s = get_predicate(task.gold).description
    requests = [
        _judgment_request(s, a, b) for a, b in _directed_pairs(task, PROBE_REQUESTS // 2, seed=1)
    ]
    endpoint = OracleEndpoint(delay_s=delay_s)
    try:
        config = EndpointConfig(base_url=endpoint.base_url, retries=3, backoff_s=0.05)
        backend = HttpBackend(config)
        latencies_ms: list[float] = []
        lock = threading.Lock()
        failed = 0

        def send(req):
            nonlocal failed
            started = time.perf_counter()
            try:
                backend.judge(req)
            except Exception:
                with lock:
                    failed += 1
                return
            with lock:
                latencies_ms.append((time.perf_counter() - started) * 1e3)

        before = endpoint.snapshot()
        with ThreadPoolExecutor(max_workers=in_flight) as pool:
            list(pool.map(send, requests))
        metrics = endpoint_metrics(endpoint, before, latencies_ms, in_flight)
        metrics["backends.failed"] = float(failed)
        return metrics
    finally:
        endpoint.close()


def standalone_metrics(task, workdir: Path) -> dict:
    """Single layers timed on the first task's own samples.

    The backend judge percentiles here (rule judge calls) stand in only when
    the traced window sent no judgments to a backend.
    """
    texts = [s.text for s in task.pair.d1.samples + task.pair.d0.samples][:2000]
    s = get_predicate(task.gold).description
    directed = _directed_pairs(task, STANDALONE_PAIRS, seed=0)
    d1, d0 = task.pair.d1.samples, task.pair.d0.samples
    prompt_sets = [
        (list(d1[i:i + 5]), list(d0[i:i + 5])) for i in range(0, min(len(d1), len(d0)) - 5, 5)
    ][:40]
    rule = RuleBackend()
    rule_requests = [(_judgment_request(s, a, b),) for a, b in directed]
    judge_args = [(s, a, b) for a, b in directed]

    rule_ms = []
    for (req,) in rule_requests:
        started = time.perf_counter()
        rule.judge(req)
        rule_ms.append((time.perf_counter() - started) * 1e3)

    miss = []
    hit = []
    for _ in range(3):
        verifier = Verifier(RuleBackend())
        miss.append(_timed_per_call(verifier.judge, judge_args, repeats=1))
        hit.append(_timed_per_call(verifier.judge, judge_args, repeats=1))

    puts, loads = [], []
    for i in range(3):
        store = workdir / f"standalone-store-{i}.jsonl"
        verifier = Verifier(RuleBackend(), JudgmentCache(store))
        puts.append(_timed_per_call(verifier.judge, judge_args, repeats=1))
        started = time.perf_counter()
        JudgmentCache(store)
        loads.append(time.perf_counter() - started)
        store.unlink()

    return {
        "discriminator.featurize_us": _timed_per_call(featurize, [(t,) for t in texts]) * 1e6,
        "proposer.build_prompt_us": _timed_per_call(build_prompt, prompt_sets) * 1e6,
        "backends.rule_judge_us": _timed_per_call(rule.judge, rule_requests) * 1e6,
        "backends.judge_ms_p50": float(np.percentile(rule_ms, 50)),
        "backends.judge_ms_p99": float(np.percentile(rule_ms, 99)),
        "verifier.judge_us_miss": _median(miss) * 1e6,
        "verifier.judge_us_hit": _median(hit) * 1e6,
        "verifier.cache_put_us": (_median(puts) - _median(miss)) * 1e6,
        "verifier.cache_load_ms": _median(loads) * 1e3,
    }


def gold_ca_standalone(task, config: RunConfig, meter) -> dict:
    """``run_bench`` on one task with rule backends: its cost beyond describe_pair."""
    captured: list = []
    patches = Patches()
    patch_backend_factory(meter, patches)
    capture_reports(captured, meter, patches)
    try:
        before, started = meter.snapshot(), time.perf_counter()
        run_bench([task], RunConfig(in_flight=config.in_flight, n_pairs=config.n_pairs))
        wall, requests = time.perf_counter() - started, meter.snapshot() - before
    finally:
        patches.undo()
    inner = captured[0]
    return {
        "bench.gold_ca_ms": (wall - inner.wall_s) * 1e3,
        "bench.gold_ca_backend_judgments": float(
            requests.judge_calls - inner.requests.judge_calls
        ),
    }
