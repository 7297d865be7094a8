"""Tests for the end-to-end description pipeline and its applications."""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from pathlib import Path

import pytest

import distdescribe.discriminator as discriminator
import distdescribe.pipeline as pipeline
import distdescribe.predicates as predicates
from distdescribe.backends import Backend, RuleBackend, _score_rows
from distdescribe.bench import generate_task
from distdescribe.config import RunConfig
from distdescribe.corpus import ClusteredCorpus
from distdescribe.errors import FewerThanTwoClustersError, PipelineAbortedError
from distdescribe.pipeline import (
    NO_SIGNIFICANT_DIFFERENCE,
    REPORT_FORMAT,
    describe_pair,
    label_clusters,
    report_json,
    report_table,
    shift_report,
    shortcut_scan,
)

from conftest import make_corpus, make_pair

GOLDEN_REPORT = Path(__file__).parent / "data" / "golden_report.json"


def test_describe_pair_ranks_gold_first_noiseless():
    task = generate_task("zebra", 1.0, 0.0, 80, seed=2)
    report = describe_pair(task.pair, RunConfig())
    assert report.ranked, "no ranked hypotheses"
    top = report.ranked[0]
    assert top.hypothesis.s == "contains the word 'zebra'"
    assert top.ca.mean == 1.0
    assert top.significant


def test_report_bytes_match_golden_file():
    """Report bytes are pinned across builds, not only across two runs of one."""
    task = generate_task("hyperlink", 0.9, 0.2, 150, seed=4)
    report = describe_pair(task.pair, RunConfig(seed=7))
    assert report_json(report).encode("utf-8") == GOLDEN_REPORT.read_bytes()


def test_describe_pair_featurizes_each_sample_once(monkeypatch):
    original = discriminator.featurize_all
    calls = []

    def counted_featurize_all(texts):
        calls.append(list(texts))
        return original(texts)

    monkeypatch.setattr(discriminator, "featurize_all", counted_featurize_all)
    task = generate_task("question", 0.8, 0.1, 120, seed=5)
    describe_pair(task.pair, RunConfig())
    assert calls == [[s.text for corpus in (task.pair.d0, task.pair.d1) for s in corpus.samples]]


@pytest.fixture
def scorings(monkeypatch):
    """How often each (predicate id, text) was scored, with an empty score memo to start."""
    calls = Counter()

    def counted(pred):
        def score(text):
            calls[pred.id, text] += 1
            return pred.score(text)

        return dataclasses.replace(pred, score=score)

    for pred in predicates.PREDICATES:
        monkeypatch.setitem(predicates._BY_ID, pred.id, counted(pred))
    _score_rows.clear()
    return calls


def test_describe_pair_verification_scores_each_text_once_per_predicate(monkeypatch, scorings):
    task = generate_task("question", 0.8, 0.1, 120, seed=5)
    original_verify = pipeline.verify

    def counted_verify(*args, **kwargs):
        scorings.clear()  # count the verifier's scorings only
        return original_verify(*args, **kwargs)

    monkeypatch.setattr(pipeline, "verify", counted_verify)
    report = describe_pair(task.pair, RunConfig())
    assert report.ranked[0].hypothesis.s == "contains a question mark"
    assert "question" in {pred_id for pred_id, _ in scorings}
    assert max(scorings.values()) == 1


@pytest.mark.parametrize(
    "config", [RunConfig(), RunConfig(in_flight=1)], ids=["default", "in_flight_1"]
)
def test_describe_pair_scores_each_text_once_per_predicate(scorings, config):
    # The proposer and the verifier share the score memo: what one scored,
    # the other reads, so no score of a describe is computed twice.
    task = generate_task("question", 0.8, 0.1, 120, seed=5)
    scorings.clear()  # the generator scores texts directly
    report = describe_pair(task.pair, config)
    assert report.ranked[0].hypothesis.s == "contains a question mark"
    assert len(scorings) > 3000
    assert max(scorings.values()) == 1


def test_describe_pair_rank_and_order_contract():
    task = generate_task("question", 0.8, 0.1, 120, seed=5)
    config = RunConfig()
    report = describe_pair(task.pair, config)
    assert len(report.ranked) <= config.top_k
    assert [r.rank for r in report.ranked] == list(range(1, len(report.ranked) + 1))
    means = [r.ca.mean for r in report.ranked]
    assert means == sorted(means, reverse=True)


def test_describe_pair_scores_all_candidates_on_shared_pair_set():
    task = generate_task("question", 0.8, 0.1, 120, seed=5)
    report = describe_pair(task.pair, RunConfig())
    seeds = {r.ca.seed for r in report.ranked}
    counts = {r.ca.n_pairs for r in report.ranked}
    assert len(seeds) == 1
    assert counts == {400}


def test_describe_pair_counts_echoed():
    task = generate_task("question", 0.8, 0.1, 120, seed=5)
    config = RunConfig()
    report = describe_pair(task.pair, config)
    assert report.raw_candidate_count == 60
    assert 0 < report.candidate_count <= 60
    echo = report.config_echo
    assert echo["percentiles"] == [5, 20, 100]
    assert echo["sets_per_percentile"] == 10
    assert echo["completions_per_set"] == 2
    assert echo["samples_per_side"] == 5
    assert echo["n_pairs"] == 400
    assert echo["top_k"] == 5


def test_describe_pair_identical_sides_warns():
    texts = [f"sentence number {i} sits here quietly" for i in range(100)]
    pair = make_pair(texts, texts)
    report = describe_pair(pair, RunConfig(n_pairs=10000))
    assert NO_SIGNIFICANT_DIFFERENCE in report.warnings
    for ranked in report.ranked:
        assert ranked.ca.mean == 0.5
        assert not ranked.significant


class _AbstainingBackend(Backend):
    """Proposes normally but cannot answer any judgment."""

    id = "abstainer"

    def complete(self, req):
        return RuleBackend().complete(req)

    def judge(self, req):
        return "maybe"


def test_describe_pair_aborts_when_verifier_abstains():
    task = generate_task("question", 0.8, 0.1, 60, seed=7)
    config = RunConfig()
    with pytest.raises(PipelineAbortedError) as excinfo:
        describe_pair(
            task.pair,
            config,
            proposer_backend=RuleBackend(),
            verifier_backend=_AbstainingBackend(),
        )
    assert excinfo.value.abstained == excinfo.value.total
    assert excinfo.value.total > 0


def test_describe_pair_abstention_warning_below_threshold():
    """A sprinkling of unanswerable judgments is reported, not fatal."""
    task = generate_task("question", 1.0, 0.0, 60, seed=8)

    class _Occasional(RuleBackend):
        def judge(self, req):
            if "zebra" in req.question:
                return "unknown"
            return super().judge(req)

    report = describe_pair(
        task.pair,
        RunConfig(),
        proposer_backend=RuleBackend(),
        verifier_backend=_Occasional(),
    )
    assert report.ranked[0].hypothesis.s == "contains a question mark"


def test_report_json_is_stable_and_parseable():
    task = generate_task("question", 0.8, 0.1, 80, seed=3)
    config = RunConfig()
    first = report_json(describe_pair(task.pair, config))
    second = report_json(describe_pair(task.pair, config))
    assert first == second
    payload = json.loads(first)
    assert payload["format"] == REPORT_FORMAT
    assert payload["pair"]["d1"]["size"] == 80
    assert payload["ranked"][0]["rank"] == 1
    assert first.endswith("\n")


def test_report_table_mentions_top_hypothesis():
    task = generate_task("zebra", 1.0, 0.0, 60, seed=2)
    report = describe_pair(task.pair, RunConfig())
    table = report_table(report)
    assert "contains the word 'zebra'" in table
    assert "CA" in table


def _clustered_digits():
    letters = make_corpus("letters", [f"only plain words here number {i}" for i in range(40)])
    digits = make_corpus(
        "digits", [f"we counted 4 then 9 then {i} items" for i in range(40)]
    )
    questions = make_corpus("questions", [f"is item {i} still missing?" for i in range(40)])
    return ClusteredCorpus(clusters={"letters": letters, "digits": digits, "questions": questions})


def test_label_clusters_one_report_per_cluster():
    reports = label_clusters(_clustered_digits(), RunConfig())
    assert set(reports) == {"letters", "digits", "questions"}
    assert reports["questions"].roles == ("rest", "cluster questions")
    assert reports["questions"].ranked[0].hypothesis.s == "contains a question mark"


def test_shift_report_roles():
    train_corpus = make_corpus("train", [f"steady sentence number {i}" for i in range(50)])
    test_corpus = make_corpus("test", [f"is sentence {i} drifting now?" for i in range(50)])
    report = shift_report(train_corpus, test_corpus, RunConfig())
    assert report.roles == ("train", "test")
    assert report.ranked[0].hypothesis.s == "contains a question mark"


def test_shortcut_scan_all_unordered_pairs():
    scan = shortcut_scan(_clustered_digits(), RunConfig())
    assert scan.labels == ("digits", "letters", "questions")
    pairs = [labels for labels, _ in scan.reports]
    assert pairs == [
        ("digits", "letters"),
        ("digits", "questions"),
        ("letters", "questions"),
    ]
    payload = scan.to_dict()
    assert payload["kind"] == "shortcut-scan"
    for entry in payload["pairs"]:
        for row in entry["report"]["ranked"]:
            assert abs(row["ca_reverse_mean"] - (1.0 - row["ca"]["mean"])) <= 1e-12


def test_shortcut_scan_needs_two_labels():
    single = {"only": make_corpus("only", ["a then b", "c then d"])}
    with pytest.raises(FewerThanTwoClustersError):
        shortcut_scan(single, RunConfig())
