"""The four benchmark workloads: inputs, set-up, one describe, and its checks.

Every workload builds its tasks from the benchmark seed with the program's
own generator, writes the corpora to disk and loads them back, so the
program sees only ordinary corpus files.  Describes run one at a time from
this process with ``in_flight`` equal to the number of usable CPUs.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from distdescribe import (
    DistributionPair,
    EndpointConfig,
    HttpBackend,
    RuleBackend,
    RunConfig,
    SyntheticTask,
    default_suite,
    describe_pair,
    generate_task,
    get_predicate,
    load_corpus,
    parse_description,
    report_json,
    run_bench,
    save_corpus,
)

from endpoint import OracleEndpoint
from oracle import STDERR_MULTIPLE, ExactCAOracle
from tracing import (
    Meter,
    MeteredBackend,
    Patches,
    capture_reports,
    patch_backend_factory,
    span_or_null,
)

NPROC = len(os.sched_getaffinity(0))
HTTP_DELAY_S = 0.02


@dataclass
class Setup:
    """What one set-up produced: loaded tasks, its timings, and how to undo it."""

    workdir: Path
    tasks: list[SyntheticTask]
    config: RunConfig
    generate_s: float
    load_s: float
    proposer: MeteredBackend | None = None
    verifier: MeteredBackend | None = None
    endpoint: OracleEndpoint | None = None
    reference: dict = field(default_factory=dict)  # per task index, what a describe must equal
    captured: list = field(default_factory=list)
    patches: Patches = field(default_factory=Patches)

    def close(self) -> None:
        self.patches.undo()
        if self.endpoint is not None:
            self.endpoint.close()
            self.endpoint = None


@dataclass
class Outcome:
    """What one describe returned, in the shape the checks need."""

    report: object | None  # pipeline Report
    gold_in_top_k: bool
    gold_ca: float | None = None  # run_bench's gold CA, on suite-rule only
    inner: object | None = None  # tracing.Captured: the describe_pair inside run_bench


def _load_tasks(
    generated: list[SyntheticTask], workdir: Path
) -> tuple[list[SyntheticTask], float]:
    """Write every corpus as jsonl and load it back; return tasks and load time."""
    paths = []
    for i, task in enumerate(generated):
        d0, d1 = workdir / f"task-{i:02d}-d0.jsonl", workdir / f"task-{i:02d}-d1.jsonl"
        save_corpus(task.pair.d0, d0)
        save_corpus(task.pair.d1, d1)
        paths.append((d0, d1))
    started = time.perf_counter()
    pairs = [DistributionPair(d0=load_corpus(d0), d1=load_corpus(d1)) for d0, d1 in paths]
    load_s = time.perf_counter() - started
    loaded = [
        SyntheticTask(gold=t.gold, q1=t.q1, q0=t.q0, pair=pair, seed=t.seed)
        for t, pair in zip(generated, pairs)
    ]
    return loaded, load_s


def _gold_in_top_k(report, gold: str) -> bool:
    for row in report.ranked:
        parsed = parse_description(row.hypothesis.s)
        if parsed is not None and parsed.id == gold:
            return True
    return False


class Workload:
    name = ""
    why = ""
    n_per_side = 200
    n_pairs = 400
    # A run describes every task this many times at least, in rounds; each
    # task's median over its rounds damps bursts of slowdown on a shared host.
    rounds = 1
    specs: tuple[tuple[str, float, float], ...] = ()

    def generate(self, seed: int) -> list[SyntheticTask]:
        return [
            generate_task(gold, q1, q0, self.n_per_side, seed=seed * 1000 + i)
            for i, (gold, q1, q0) in enumerate(self.specs)
        ]

    def config(self, workdir: Path) -> RunConfig:
        return RunConfig(in_flight=NPROC, n_pairs=self.n_pairs)

    def setup(self, seed: int, workdir: Path, meter: Meter) -> Setup:
        started = time.perf_counter()
        generated = self.generate(seed)
        generate_s = time.perf_counter() - started
        tasks, load_s = _load_tasks(generated, workdir)
        setup = Setup(workdir, tasks, self.config(workdir), generate_s, load_s)
        self.prepare(setup, meter)
        return setup

    def prepare(self, setup: Setup, meter: Meter) -> None:
        setup.proposer = MeteredBackend(RuleBackend(), meter)
        setup.verifier = MeteredBackend(RuleBackend(), meter)

    def describe(self, setup: Setup, task: SyntheticTask, tracer) -> Outcome:
        with span_or_null(tracer, "pipeline.describe_pair"):
            report = describe_pair(task.pair, setup.config, setup.proposer, setup.verifier)
        return Outcome(report, _gold_in_top_k(report, task.gold))

    def check(
        self, setup: Setup, index: int, outcome: Outcome, requests, oracle: ExactCAOracle
    ) -> list[str]:
        """Problems with one describe's output; an empty list means correct.

        ``requests`` are the backend requests the describe sent.
        """
        task = setup.tasks[index]
        return oracle.check_report(outcome.report, task.pair)

    def sizes(self) -> dict:
        return {
            "tasks": [
                {"gold": g, "q1": q1, "q0": q0, "n_per_side": self.n_per_side}
                for g, q1, q0 in self.specs
            ],
            "n_pairs": self.n_pairs,
            "rounds": self.rounds,
        }


class SuiteRule(Workload):
    name = "suite-rule"
    why = (
        "The paper's gold-recovery run on the 54-task noiseless suite: every CPU layer in its "
        "natural share, the verifier's rule judge largest, the judgment memo nearly all misses."
    )
    task_count = 54

    def generate(self, seed: int) -> list[SyntheticTask]:
        return default_suite(task_count=self.task_count, n_per_side=self.n_per_side, seed=seed)

    def config(self, workdir: Path) -> RunConfig:
        return RunConfig(in_flight=NPROC)

    def prepare(self, setup: Setup, meter: Meter) -> None:
        # run_bench builds its own backends and calls describe_pair itself.
        patch_backend_factory(meter, setup.patches)
        capture_reports(setup.captured, meter, setup.patches)

    def describe(self, setup: Setup, task: SyntheticTask, tracer) -> Outcome:
        setup.captured.clear()
        result = run_bench([task], setup.config).results[0]
        inner = setup.captured[0] if setup.captured else None
        report = inner.report if inner is not None else None
        return Outcome(report, result.gold_in_top_k, result.gold_ca, inner)

    def check(self, setup, index, outcome, requests, oracle) -> list[str]:
        if outcome.report is None:
            return ["run_bench did not call describe_pair"]
        task = setup.tasks[index]
        problems = oracle.check_report(outcome.report, task.pair)
        if not outcome.gold_in_top_k:
            problems.append(f"gold {task.gold!r} not in the top {setup.config.top_k}")
        exact = oracle.exact(get_predicate(task.gold), task.pair)
        tolerance = STDERR_MULTIPLE * exact.sampling_stderr(setup.config.n_pairs)
        if abs(outcome.gold_ca - exact.mean) > tolerance:
            problems.append(f"gold CA {outcome.gold_ca!r} vs exact {exact.mean!r}")
        return problems

    def sizes(self) -> dict:
        return {
            "tasks": f"default_suite({self.task_count}, {self.n_per_side}, seed)",
            "n_pairs": self.n_pairs,
            "rounds": self.rounds,
        }


class LargeCorpus(Workload):
    name = "large-corpus"
    why = (
        "2,000 samples per side with verification fixed at 400 pairs, so the "
        "discriminator (featurize, train, select) is most of a describe."
    )
    n_per_side = 2000
    rounds = 2
    specs = tuple((gold, 0.8, 0.1) for gold in (
        "question", "negation", "digits", "past_tense",
        "weather", "comma", "money", "first_person"))


class HttpLatency(Workload):
    name = "http-latency"
    why = (
        "Both backends over HTTP to an in-process endpoint with a fixed 20 ms delay: backend "
        "wait and the pipeline's concurrency dominate, CPU layers are a few percent."
    )
    n_pairs = 5
    specs = tuple((gold, 1.0, 0.0) for gold in (
        "question", "first_person", "negation", "digits",
        "weather", "exclamation", "past_tense", "money"))

    def prepare(self, setup: Setup, meter: Meter) -> None:
        setup.endpoint = OracleEndpoint(delay_s=HTTP_DELAY_S)
        endpoint = EndpointConfig(base_url=setup.endpoint.base_url, retries=3, backoff_s=0.05)
        setup.proposer = MeteredBackend(HttpBackend(endpoint), meter)
        setup.verifier = MeteredBackend(HttpBackend(endpoint), meter)

    def check(self, setup, index, outcome, requests, oracle) -> list[str]:
        problems = super().check(setup, index, outcome, requests, oracle)
        if index not in setup.reference:
            rule = describe_pair(setup.tasks[index].pair, setup.config)
            setup.reference[index] = [(r.hypothesis.s, r.ca) for r in rule.ranked]
        if [(r.hypothesis.s, r.ca) for r in outcome.report.ranked] != setup.reference[index]:
            problems.append("HTTP ranked rows differ from the rule-backend rows")
        return problems


class CacheWarm(Workload):
    name = "cache-warm"
    why = (
        "Every judgment is a hit in a judgment cache loaded from disk per describe: the only "
        "workload that reads the memo and loads the store."
    )
    n_pairs = 200
    rounds = 3
    specs = tuple((gold, 0.8, 0.1) for gold in ("hyperlink", "weather", "question", "negation"))

    def config(self, workdir: Path) -> RunConfig:
        return RunConfig(
            in_flight=NPROC, n_pairs=self.n_pairs, cache_path=str(workdir / "judgments.jsonl")
        )

    def prepare(self, setup: Setup, meter: Meter) -> None:
        super().prepare(setup, meter)
        for i, task in enumerate(setup.tasks):
            cold = describe_pair(task.pair, setup.config, setup.proposer, setup.verifier)
            setup.reference[i] = report_json(cold)

    def check(self, setup, index, outcome, requests, oracle) -> list[str]:
        problems = super().check(setup, index, outcome, requests, oracle)
        if report_json(outcome.report) != setup.reference[index]:
            problems.append("warm report bytes differ from the cold report")
        if requests.judge_calls:
            problems.append(f"warm describe sent {requests.judge_calls} judgments to the backend")
        return problems


WORKLOADS = {w.name: w for w in (SuiteRule(), LargeCorpus(), HttpLatency(), CacheWarm())}


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
