"""Acceptance gate: ten checks covering the pinned behavior of the whole engine.

Each test prints one [PASS]/[FAIL] line (visible under ``pytest -s`` or in the
captured output of a failing run) and enforces its own runtime budget.
"""

from __future__ import annotations

import functools
import time

import numpy as np
import pytest

from distdescribe.backends import (
    CompletionRequest,
    HttpBackend,
    JudgmentRequest,
    RecordingBackend,
    ReplayBackend,
    RuleBackend,
)
from distdescribe.bench import default_suite, generate_task, run_bench
from distdescribe.cli import main
from distdescribe.config import EndpointConfig, RunConfig
from distdescribe.corpus import Sample, save_corpus
from distdescribe.errors import RateLimitedError
from distdescribe.pipeline import (
    NO_SIGNIFICANT_DIFFERENCE,
    describe_pair,
    report_json,
    shortcut_scan,
)
from distdescribe.predicates import PREDICATES
from distdescribe.proposer import INSTRUCTION, TOKEN_BUDGET, build_prompt, first_prompt
from distdescribe.verifier import Verifier

from conftest import make_corpus, make_pair
from test_proposer import GOLDEN, GROUP0_TEXTS, GROUP1_TEXTS


def _verdict(number, label):
    """Decorator printing one pass/fail line per criterion."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {label}")
                raise
            print(f"[PASS] criterion {number}: {label}")

        return run

    return wrap


@_verdict(1, "swap anti-symmetry holds exactly on 1,000 randomized triples")
def test_criterion_01_anti_symmetry():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    vocabulary = [
        "the", "bridge", "held", "on?", "not", "today", "I", "will", "go",
        "https://example.com/x", ":)", "Hello", "#update", '"quoted"', "etc",
        "rain", "1999", "dollars", "(aside)", "you;",
    ]
    descriptions = [p.description for p in PREDICATES] + ["???", "speaks in riddles"]
    verifier = Verifier(RuleBackend())
    failures = 0
    for trial in range(1000):
        s = descriptions[int(rng.integers(0, len(descriptions)))]
        a = Sample(
            id=f"a:{trial}",
            text=" ".join(rng.choice(vocabulary, size=int(rng.integers(1, 12)))),
        )
        b = Sample(
            id=f"b:{trial}",
            text=" ".join(rng.choice(vocabulary, size=int(rng.integers(1, 12)))),
        )
        if verifier.h_hat(s, a, b) + verifier.h_hat(s, b, a) != 1.0:
            failures += 1
    elapsed = time.monotonic() - started
    assert failures == 0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


@_verdict(2, "rule judge matches brute-force predicate evaluation on 2,500 pairs x 2")
def test_criterion_02_oracle_equivalence():
    started = time.monotonic()
    task = generate_task("question", 0.5, 0.3, 50, seed=17)
    backend = RuleBackend()
    question = "Is it true that sentence A contains a question mark?"
    agreements = 0
    total = 0
    for x1 in task.pair.d1.samples:
        for x0 in task.pair.d0.samples:
            for a, b in ((x1, x0), (x0, x1)):
                got = backend.judge(
                    JudgmentRequest(question=question, context=f"A: {a.text}\nB: {b.text}")
                )
                # Brute force, computed without the predicate registry.
                expected = "yes" if ("?" in a.text) > ("?" in b.text) else "no"
                agreements += got == expected
                total += 1
    elapsed = time.monotonic() - started
    assert total == 5000
    assert agreements == total
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


@_verdict(3, "closed-form CA 0.850 on the 0.8/0.1 task; sampling consistent over 200 seeds")
def test_criterion_03_closed_form_ca():
    started = time.monotonic()
    task = generate_task("question", 0.8, 0.1, 200, seed=3)
    gold = "contains a question mark"
    verifier = Verifier(RuleBackend())
    exhaustive = verifier.estimate_ca(gold, task.pair, n_pairs=40000, seed=0)
    assert exhaustive.exhaustive
    assert abs(exhaustive.mean - 0.850) <= 0.02
    assert exhaustive.mean == 0.85  # exact-count construction leaves no rounding slack

    within = 0
    for seed in range(200):
        est = verifier.estimate_ca(gold, task.pair, n_pairs=400, seed=seed)
        if abs(est.mean - exhaustive.mean) <= 3.0 * est.stderr:
            within += 1
    elapsed = time.monotonic() - started
    assert within >= 198, f"only {within}/200 seeds within 3 stderr"
    assert elapsed < 120.0, f"took {elapsed:.2f}s"


@_verdict(4, "identical distributions score CA 0.5 exactly and warn about no difference")
def test_criterion_04_degenerate_pair():
    started = time.monotonic()
    rng = np.random.default_rng(23)
    words = ["tree", "stood", "near", "the", "river", "quietly", "for", "years"]
    texts = [
        " ".join(rng.choice(words, size=int(rng.integers(3, 9)))) + f" mark {i}"
        for i in range(100)
    ]
    pair = make_pair(texts, texts)
    verifier = Verifier(RuleBackend())
    for pred in PREDICATES:
        est = verifier.estimate_ca(pred.description, pair, n_pairs=10000, seed=0)
        assert est.exhaustive
        assert est.mean == 0.5, pred.id

    report = describe_pair(pair, RunConfig(n_pairs=10000))
    assert NO_SIGNIFICANT_DIFFERENCE in report.warnings
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


@_verdict(5, "gold recovered in top-5 for >=90% and rank-1 for >=75% of 54 noiseless tasks")
def test_criterion_05_end_to_end_gold_recovery():
    started = time.monotonic()
    tasks = default_suite(task_count=54, n_per_side=200, seed=1)
    report = run_bench(tasks, RunConfig())
    rank1 = sum(r.gold_rank == 1 for r in report.results) / len(report.results)
    elapsed = time.monotonic() - started
    assert report.hit_rate >= 0.90, f"hit rate {report.hit_rate:.3f}"
    assert rank1 >= 0.75, f"rank-1 fraction {rank1:.3f}"
    assert elapsed < 600.0, f"took {elapsed:.2f}s"


@_verdict(6, "pipeline cardinalities: 60 = 3x10x2 raw candidates, 5+5 prompt, 400 pairs, top-5")
def test_criterion_06_cardinalities():
    task = generate_task("question", 0.8, 0.1, 120, seed=5)
    config = RunConfig()
    report = describe_pair(task.pair, config)
    echo = report.config_echo
    assert report.raw_candidate_count == 60
    assert (
        len(echo["percentiles"]) * echo["sets_per_percentile"] * echo["completions_per_set"]
        == 60
    )
    assert echo["samples_per_side"] == 5
    assert echo["n_pairs"] == 400
    assert echo["top_k"] == 5
    ranked_counts = {r.ca.n_pairs for r in report.ranked}
    assert ranked_counts == {400}

    from distdescribe.discriminator import train

    prompt = first_prompt(train(task.pair), config)
    assert len(prompt.group1_samples) == 5
    assert len(prompt.group0_samples) == 5


@_verdict(7, "cmd_describe is byte-identical across two identically seeded runs")
def test_criterion_07_determinism(tmp_path, capsys):
    task = generate_task("hyperlink", 0.9, 0.2, 150, seed=4)
    d0, d1 = tmp_path / "d0.jsonl", tmp_path / "d1.jsonl"
    save_corpus(task.pair.d0, d0)
    save_corpus(task.pair.d1, d1)
    out = tmp_path / "report.json"
    argv = [
        "describe", "--d0", str(d0), "--d1", str(d1), "--seed", "7", "--out", str(out),
    ]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    second = out.read_bytes()
    capsys.readouterr()
    assert first == second
    assert len(first) > 0


@_verdict(8, "prompt matches the golden file byte-exactly and respects the token budget")
def test_criterion_08_prompt_fidelity():
    set1 = [Sample(id=f"g1:{i}", text=t) for i, t in enumerate(GROUP1_TEXTS)]
    set0 = [Sample(id=f"g0:{i}", text=t) for i, t in enumerate(GROUP0_TEXTS)]
    prompt = build_prompt(set1, set0)
    assert prompt.rendered == GOLDEN.read_bytes().decode("utf-8")
    assert prompt.rendered.endswith(INSTRUCTION)

    rng = np.random.default_rng(31)
    words = [f"w{i}" for i in range(4000)]
    for trial in range(50):
        adversarial1 = [
            Sample(id=f"x1:{trial}:{i}", text=" ".join(rng.choice(words, size=int(rng.integers(200, 4000)))))
            for i in range(5)
        ]
        adversarial0 = [
            Sample(id=f"x0:{trial}:{i}", text=" ".join(rng.choice(words, size=int(rng.integers(200, 4000)))))
            for i in range(5)
        ]
        stuffed = build_prompt(adversarial1, adversarial0)
        assert stuffed.token_estimate <= TOKEN_BUDGET
        assert stuffed.rendered.endswith(INSTRUCTION)


def _zebra_endpoint(path, body):
    """OpenAI-style answers whose judgments actually inspect sentence A."""
    prompt = body.get("prompt", "")
    if prompt.startswith("A: "):
        a_text = prompt[3:].split("\nB: ", 1)[0]
        if "zebra" in prompt.rsplit("\n", 1)[-1]:
            answer = "yes" if "zebra" in a_text else "no"
        else:
            answer = "no"
        return 200, {"choices": [{"text": answer}]}
    texts = [" contains the word 'zebra'", " is longer in sentence length"]
    return 200, {"choices": [{"text": texts[i % 2]} for i in range(body.get("n", 1))]}


@_verdict(9, "transcripts replay with zero network calls; 429s surface after exact retries")
def test_criterion_09_http_robustness(tmp_path, http_server):
    url, live = http_server(_zebra_endpoint, keep_alive_s=2.0)
    task = generate_task("zebra", 1.0, 0.0, 20, seed=6)
    config = RunConfig()
    endpoint_cfg = EndpointConfig(base_url=url, retries=3, backoff_s=0.01)
    p_store = tmp_path / "proposer-transcript.jsonl"
    v_store = tmp_path / "verifier-transcript.jsonl"
    proposer = RecordingBackend(HttpBackend(endpoint_cfg), p_store)
    verifier = RecordingBackend(HttpBackend(endpoint_cfg), v_store)
    recorded = describe_pair(
        task.pair, config, proposer_backend=proposer, verifier_backend=verifier
    )
    proposer.close()
    verifier.close()
    hits_after_recording = live.hits
    assert hits_after_recording > 0

    replayed = describe_pair(
        task.pair,
        config,
        proposer_backend=ReplayBackend(p_store),
        verifier_backend=ReplayBackend(v_store),
    )
    assert report_json(replayed) == report_json(recorded)
    assert live.hits == hits_after_recording  # zero network calls
    assert recorded.ranked[0].hypothesis.s == "contains the word 'zebra'"

    busy_url, busy = http_server(
        lambda path, body: (429, {"error": "rate limited"}), keep_alive_s=2.0
    )
    backend = HttpBackend(EndpointConfig(base_url=busy_url, retries=3, backoff_s=0.001))
    with pytest.raises(RateLimitedError) as excinfo:
        backend.complete(CompletionRequest(prompt="anything"))
    assert excinfo.value.attempts == 3
    assert busy.hits == 3


@_verdict(10, "negation shortcut found rank-1 with exhaustive CA 0.80 on a 0.7/0.1 scan")
def test_criterion_10_shortcut_scan():
    task = generate_task("negation", 0.7, 0.1, 200, seed=13)
    labeled = {
        "control": make_corpus("control", [s.text for s in task.pair.d0.samples]),
        "flagged": make_corpus("flagged", [s.text for s in task.pair.d1.samples]),
    }
    scan = shortcut_scan(labeled, RunConfig())
    assert scan.labels == ("control", "flagged")
    ((labels, report),) = scan.reports
    assert labels == ("control", "flagged")
    top = report.ranked[0]
    assert top.hypothesis.s == "contains a negative statement"

    exhaustive = Verifier(RuleBackend()).estimate_ca(
        top.hypothesis.s, task.pair, n_pairs=40000, seed=0
    )
    assert exhaustive.exhaustive
    # Closed form: q1(1-q0) + (q1*q0 + (1-q1)(1-q0))/2 = 0.63 + 0.17 = 0.80.
    assert abs(exhaustive.mean - 0.80) <= 0.02
    assert exhaustive.mean == 0.80
