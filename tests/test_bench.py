"""Tests for the synthetic benchmark generator and runner."""

from __future__ import annotations

import hashlib
import json

import pytest

from distdescribe import bench, store
from distdescribe.backends import RuleBackend
from distdescribe.bench import (
    default_suite,
    generate_task,
    load_suite,
    run_bench,
    save_suite,
)
from distdescribe.config import RunConfig
from distdescribe.errors import UnsatisfiablePredicateError
from distdescribe.predicates import PREDICATES, get_predicate
from distdescribe.verifier import Verifier


def _satisfied_count(task, side):
    pred = get_predicate(task.gold)
    corpus = task.pair.d1 if side == 1 else task.pair.d0
    return sum(pred.satisfied(s.text) for s in corpus.samples)


def test_generate_task_exact_satisfaction_counts():
    task = generate_task("question", 0.8, 0.1, 200, seed=3)
    assert len(task.pair.d1.samples) == 200
    assert len(task.pair.d0.samples) == 200
    assert _satisfied_count(task, 1) == 160
    assert _satisfied_count(task, 0) == 20


def test_generate_task_counts_hold_for_every_predicate():
    for pid in [p.id for p in PREDICATES]:
        task = generate_task(pid, 0.7, 0.2, 40, seed=11)
        assert _satisfied_count(task, 1) == 28, pid
        assert _satisfied_count(task, 0) == 8, pid


def test_generate_task_rounding_is_half_up():
    task = generate_task("question", 0.25, 0.05, 30, seed=1)
    # 0.25*30 = 7.5 -> 8; 0.05*30 = 1.5 -> 2
    assert _satisfied_count(task, 1) == 8
    assert _satisfied_count(task, 0) == 2


def test_generate_task_deterministic():
    a = generate_task("zebra", 0.8, 0.1, 50, seed=9)
    b = generate_task("zebra", 0.8, 0.1, 50, seed=9)
    assert [s.text for s in a.pair.d1.samples] == [s.text for s in b.pair.d1.samples]
    assert [s.text for s in a.pair.d0.samples] == [s.text for s in b.pair.d0.samples]
    c = generate_task("zebra", 0.8, 0.1, 50, seed=10)
    assert [s.text for s in a.pair.d1.samples] != [s.text for s in c.pair.d1.samples]


def test_generate_task_validates_inputs():
    with pytest.raises(UnsatisfiablePredicateError):
        generate_task("not-a-predicate", 0.8, 0.1, 50, seed=0)
    with pytest.raises(ValueError):
        generate_task("question", 0.1, 0.8, 50, seed=0)  # q0 > q1
    with pytest.raises(ValueError):
        generate_task("question", 0.5, 0.5, 50, seed=0)  # no signal
    with pytest.raises(ValueError):
        generate_task("question", 0.8, 0.1, 5, seed=0)  # too small


def test_generate_task_varied_sentence_lengths():
    """Template sentences vary in word count, so length is not a proxy gold."""
    task = generate_task("question", 0.8, 0.1, 100, seed=4)
    lengths = {len(s.text.split()) for s in task.pair.d0.samples}
    assert len(lengths) >= 4


# The generator's output is pinned byte for byte: every golden file, every
# `gen-bench` directory and every benchmark input is derived from it.  Each
# digest is the sha256 of every (corpus name, sample id, text) of a group of
# tasks, in generation order.
_LARGE_CORPUS_GOLDS = (
    "question", "negation", "digits", "past_tense",
    "weather", "comma", "money", "first_person",
)
_GENERATED = {
    "default_suite(54, 200, seed=1)": lambda: default_suite(54, 200, seed=1),
    "large corpus, 2000 per side at (0.8, 0.1)": lambda: [
        generate_task(gold, 0.8, 0.1, 2000, seed=1000 + i)
        for i, gold in enumerate(_LARGE_CORPUS_GOLDS)
    ],
    "every predicate, 10 per side at (0.55, 0.45)": lambda: [
        generate_task(p.id, 0.55, 0.45, 10, seed=300 + i) for i, p in enumerate(PREDICATES)
    ],
    "every predicate, 10 per side at (1.0, 0.0)": lambda: [
        generate_task(p.id, 1.0, 0.0, 10, seed=400 + i) for i, p in enumerate(PREDICATES)
    ],
    "every predicate, 200 per side at (0.55, 0.45)": lambda: [
        generate_task(p.id, 0.55, 0.45, 200, seed=500 + i) for i, p in enumerate(PREDICATES)
    ],
}
_GENERATED_SHA256 = {
    "default_suite(54, 200, seed=1)":
        "07a0f7c1758384c439c881e67a3757fb4a5afac8621e05d5cdc5c4e6e25fd18a",
    "large corpus, 2000 per side at (0.8, 0.1)":
        "97e8953f3c8f76a33df386826263164db888ac45a69861fc7839b3d3ecfb1b03",
    "every predicate, 10 per side at (0.55, 0.45)":
        "48bf6944a39c61c85730d4d7255b0d64a8a818b86ea818195bfc9b58dca79012",
    "every predicate, 10 per side at (1.0, 0.0)":
        "a9e385fa80300465e539ef308e17db28268851075e95ff6be2acfac198e36860",
    "every predicate, 200 per side at (0.55, 0.45)":
        "476f542a73518218f3722a428242a4c79fdf6aa76092cfcbbe37e9fde1f40bf9",
}


def _generated_digest(tasks) -> str:
    digest = hashlib.sha256()
    for task in tasks:
        for corpus in (task.pair.d0, task.pair.d1):
            for sample in corpus.samples:
                digest.update(f"{corpus.name}\0{sample.id}\0{sample.text}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("group", list(_GENERATED))
def test_generated_corpora_are_pinned(group):
    assert _generated_digest(_GENERATED[group]()) == _GENERATED_SHA256[group]


def test_default_suite_shape():
    tasks = default_suite(task_count=8, n_per_side=20, seed=1)
    assert len(tasks) == 8
    golds = [t.gold for t in tasks]
    assert len(set(golds)) == 8  # cycles the registry before repeating
    for task in tasks:
        assert len(task.pair.d1.samples) == 20


def test_save_load_suite_round_trip(tmp_path):
    tasks = default_suite(task_count=3, n_per_side=15, seed=2)
    save_suite(tasks, tmp_path / "suite")
    manifest = (tmp_path / "suite" / "manifest.jsonl").read_text(encoding="utf-8")
    rows = [json.loads(line) for line in manifest.splitlines()]
    assert len(rows) == 3
    assert {"task", "gold", "q1", "q0", "n_per_side", "seed"} <= set(rows[0])

    loaded = load_suite(tmp_path / "suite")
    assert len(loaded) == 3
    for original, back in zip(tasks, loaded):
        assert back.gold == original.gold
        assert [s.text for s in back.pair.d1.samples] == [
            s.text for s in original.pair.d1.samples
        ]


def test_load_suite_drops_a_byte_order_mark(tmp_path):
    tasks = default_suite(task_count=2, n_per_side=15, seed=2)
    save_suite(tasks, tmp_path / "suite")
    manifest = tmp_path / "suite" / "manifest.jsonl"
    manifest.write_bytes(b"\xef\xbb\xbf" + manifest.read_bytes())
    assert [t.gold for t in load_suite(tmp_path / "suite")] == [t.gold for t in tasks]


def test_run_bench_recovers_gold_on_noiseless_tasks():
    tasks = default_suite(task_count=4, n_per_side=60, seed=1)
    report = run_bench(tasks, RunConfig())
    assert len(report.results) == 4
    assert report.hit_rate == 1.0
    for result in report.results:
        assert result.gold_rank == 1
        assert result.gold_ca > 0.9
        assert result.top1_ca > 0.9


@pytest.mark.parametrize("top_k, gold_rank", [(1, None), (2, 2)])
def test_run_bench_gold_ca_equals_a_direct_estimate(tmp_path, monkeypatch, top_k, gold_rank):
    # The gold ranks second: read off its row at top-2, re-estimated at top-1.
    task = generate_task("question", 0.55, 0.45, 40, seed=2)
    config = RunConfig(top_k=top_k, n_pairs=200, cache_path=str(tmp_path / "c.jsonl"))
    sent = []
    judge = RuleBackend.judge
    monkeypatch.setattr(
        RuleBackend, "judge", lambda self, req: sent.append(req) or judge(self, req)
    )
    gold_judgments = []  # the judgments each gold-CA fallback sent
    verify = bench.verify

    def gold_verify(*args):
        before = len(sent)
        try:
            return verify(*args)
        finally:
            gold_judgments.append(len(sent) - before)

    monkeypatch.setattr(bench, "verify", gold_verify)
    (result,) = run_bench([task], config).results
    expected = Verifier(RuleBackend()).estimate_ca(
        get_predicate("question").description, task.pair, n_pairs=200, seed=0
    )
    assert result.gold_rank == gold_rank
    assert result.gold_ca == expected.mean
    assert len(gold_judgments) == (gold_rank is None)
    assert sum(gold_judgments) == 0  # every gold judgment came from the run's cache


def test_run_bench_opens_its_store_once_without_decoding_a_row_twice(
    tmp_path, monkeypatch, decoded
):
    opened = []
    read_store = store._read_store
    monkeypatch.setattr(store, "_read_store", lambda path: opened.append(path) or read_store(path))
    judge_calls = []
    judge = RuleBackend.judge
    complete_calls = []
    complete = RuleBackend.complete

    def counting_judge(self, req):
        judge_calls.append(req)
        return judge(self, req)

    def counting_complete(self, req):
        complete_calls.append(req)
        return complete(self, req)

    monkeypatch.setattr(RuleBackend, "judge", counting_judge)
    monkeypatch.setattr(RuleBackend, "complete", counting_complete)
    # The first task's gold ranks second, so at top-1 its gold CA is estimated
    # through the store too.
    tasks = [generate_task("question", 0.55, 0.45, 40, seed=2)]
    tasks += default_suite(task_count=2, n_per_side=30, seed=5)
    config = RunConfig(top_k=1, n_pairs=100, cache_path=str(tmp_path / "c.jsonl"))

    cold = run_bench(tasks, config).to_dict()
    assert len(opened) == 1  # every task and the gold-CA fallback share the run's one cache
    assert cold["tasks"][0]["gold_rank"] is None
    assert judge_calls and complete_calls
    judge_calls.clear()
    complete_calls.clear()
    warm = run_bench(tasks, config).to_dict()
    assert len(opened) == 2
    assert judge_calls == [] and complete_calls == []
    assert warm == cold
    # Every row is this process's own append, taken without being read back.
    assert not decoded


def test_run_bench_report_serializes():
    tasks = default_suite(task_count=2, n_per_side=30, seed=5)
    report = run_bench(tasks, RunConfig())
    payload = report.to_dict()
    assert payload["kind"] == "bench"
    assert payload["aggregate"]["hit_rate"] == report.hit_rate
    assert len(payload["tasks"]) == 2
    table = report.table()
    assert "hit rate" in table
