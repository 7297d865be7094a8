"""Instruments the benchmark wraps around the program's public API.

``MeteredBackend`` counts what reaches a backend (requests and prompt
tokens); the benchmark keeps it on in every run, because those counts are
end-to-end metrics.  ``Tracer`` records spans and per-describe counters; it
is installed only for the traced run, by patching the public functions and
methods the pipeline looks up, and every patch is undone afterwards.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import astuple, dataclass
from pathlib import Path

from distdescribe import Backend
from distdescribe.proposer import token_estimate


@dataclass(frozen=True)
class Requests:
    """What reached the backends: calls, prompt tokens, calls that failed."""

    complete_calls: int = 0
    judge_calls: int = 0
    prompt_tokens: int = 0
    failed: int = 0

    def __sub__(self, other: "Requests") -> "Requests":
        return Requests(*(a - b for a, b in zip(astuple(self), astuple(other))))

    @property
    def total(self) -> int:
        return self.complete_calls + self.judge_calls


class Meter:
    """Thread-safe request counters shared by metered backends.

    ``tracer`` is set only while a traced window runs.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._complete = self._judge = self._tokens_sent = self._failed = 0
        self._tokens: dict[str, int] = {}  # memo: pair contexts repeat per hypothesis
        self.tracer: Tracer | None = None

    def tokens(self, text: str) -> int:
        n = self._tokens.get(text)
        if n is None:
            n = self._tokens[text] = token_estimate(text)
        return n

    def add_complete(self, tokens: int) -> None:
        with self._lock:
            self._complete += 1
            self._tokens_sent += tokens

    def add_judge(self, tokens: int) -> None:
        with self._lock:
            self._judge += 1
            self._tokens_sent += tokens

    def add_failed(self) -> None:
        with self._lock:
            self._failed += 1

    def snapshot(self) -> Requests:
        """Counters so far; taken between describes, so the token memo resets too."""
        with self._lock:
            self._tokens.clear()
            return Requests(self._complete, self._judge, self._tokens_sent, self._failed)


class MeteredBackend(Backend):
    """Delegate to ``inner``, counting every request; time calls when traced."""

    def __init__(self, inner: Backend, meter: Meter):
        self.inner = inner
        self.id = inner.id  # judgment caches key on the backend id
        self.meter = meter

    def _call(self, name: str, fn, req):
        tracer = self.meter.tracer
        try:
            if tracer is None:
                return fn(req)
            return tracer.timed_call(name, fn, req)
        except Exception:
            self.meter.add_failed()
            raise

    def complete(self, req):
        self.meter.add_complete(self.meter.tokens(req.prompt))
        tracer = self.meter.tracer
        with span_or_null(tracer, "backends.complete"):
            return self._call("backends.complete", self.inner.complete, req)

    def judge(self, req):
        meter = self.meter
        meter.add_judge(meter.tokens(req.context) + meter.tokens(req.question))
        return self._call("backends.judge", self.inner.judge, req)


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    describe: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counters for the describes of one traced window.

    Describes run one at a time.  A span opened on the thread that runs the
    describe nests under that thread's innermost open span; a span opened on
    a worker thread nests under the describe thread's innermost open span.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.describe: int | None = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._describe_stack: list[int] = []
        self.counts: dict[tuple[int | None, str], int] = {}
        self.durations: dict[str, list[float]] = {}
        self.patches = Patches()

    def begin_describe(self, index: int) -> None:
        self.describe = index
        self._describe_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        try:
            parent = (stack or self._describe_stack)[-1]
        except IndexError:  # no describe open, or it just closed its last span
            parent = None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent, self.describe))

    def count(self, name: str, n: int = 1) -> None:
        key = (self.describe, name)
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + n

    def timed_call(self, name: str, fn, *args):
        """Call ``fn`` and keep its duration under ``name``."""
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        with self._lock:
            self.durations.setdefault(name, []).append(elapsed)
        return result

    def _wrap_span(self, module: str, attr: str, name: str) -> None:
        mod = importlib.import_module(module)
        original = getattr(mod, attr, None)
        if original is None:
            return

        def wrapper(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        self.patches.set(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap the functions and methods the pipeline looks up at call time."""
        from distdescribe import Verifier

        self._wrap_span("distdescribe.pipeline", "train", "discriminator.train")
        self._wrap_span("distdescribe.proposer", "select_percentile", "discriminator.select")
        self._wrap_span("distdescribe.pipeline", "propose", "proposer.propose")
        self._wrap_span("distdescribe.bench", "describe_pair", "pipeline.describe_pair")

        disc = importlib.import_module("distdescribe.discriminator")
        featurize = getattr(disc, "featurize", None)
        if featurize is not None:
            def counted_featurize(text):
                self.count("featurize")
                return featurize(text)

            self.patches.set(disc, "featurize", counted_featurize)

        prop = importlib.import_module("distdescribe.proposer")
        build_prompt = getattr(prop, "build_prompt", None)
        if build_prompt is not None:
            def counted_build_prompt(*args, **kwargs):
                prompt = build_prompt(*args, **kwargs)
                self.count("prompts")
                self.count("prompt_tokens", prompt.token_estimate)
                return prompt

            self.patches.set(prop, "build_prompt", counted_build_prompt)

        estimate_ca = Verifier.__dict__.get("estimate_ca")
        if estimate_ca is not None:
            def traced_estimate_ca(verifier, *args, **kwargs):
                with self.span("verifier.estimate_ca"):
                    return estimate_ca(verifier, *args, **kwargs)

            self.patches.set(Verifier, "estimate_ca", traced_estimate_ca)

        judge = Verifier.__dict__.get("judge")
        if judge is not None:
            def counted_judge(verifier, *args, **kwargs):
                value = judge(verifier, *args, **kwargs)
                self.count("judgments")
                if value == 0.5:
                    self.count("abstentions")
                return value

            self.patches.set(Verifier, "judge", counted_judge)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                row = {
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "describe": s.describe,
                }
                fh.write(json.dumps(row) + "\n")


def span_or_null(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def patch_backend_factory(meter: Meter, patches: Patches) -> None:
    """Meter every backend the program builds itself (``run_bench`` does)."""
    for module in ("distdescribe.pipeline", "distdescribe.bench"):
        mod = importlib.import_module(module)
        original = getattr(mod, "make_backend", None)
        if original is None:
            continue

        def make(*args, _original=original, **kwargs):
            return MeteredBackend(_original(*args, **kwargs), meter)

        patches.set(mod, "make_backend", make)


@dataclass(frozen=True)
class Captured:
    report: object
    wall_s: float
    requests: Requests


def capture_reports(sink: list, meter: Meter, patches: Patches) -> None:
    """Keep every ``Report`` that ``run_bench`` gets from ``describe_pair``.

    Each is kept with the call's wall time and the requests it sent, so the
    rest of ``run_bench`` (the gold CA) can be told apart.
    """
    bench = importlib.import_module("distdescribe.bench")
    original = bench.describe_pair

    def describe_pair(*args, **kwargs):
        before, started = meter.snapshot(), time.perf_counter()
        report = original(*args, **kwargs)
        sink.append(Captured(report, time.perf_counter() - started, meter.snapshot() - before))
        return report

    patches.set(bench, "describe_pair", describe_pair)
