"""Tests for the end-to-end description pipeline and its applications."""

from __future__ import annotations

import dataclasses
import json
import threading
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

import distdescribe.discriminator as discriminator
import distdescribe.pipeline as pipeline
import distdescribe.predicates as predicates
from distdescribe.backends import (
    QUESTION_PREFIX,
    Backend,
    CompletionRequest,
    JudgmentRequest,
    RecordingBackend,
    ReplayBackend,
    RuleBackend,
    _score_rows,
)
from distdescribe.bench import default_suite, generate_task, run_bench
from distdescribe.config import EndpointConfig, RunConfig
from distdescribe.corpus import ClusteredCorpus, DistributionPair, one_vs_rest
from distdescribe.errors import (
    ConfigError,
    FewerThanTwoClustersError,
    PipelineAbortedError,
    ReplayMissError,
)
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
from distdescribe.store import JudgmentCache

from conftest import WaitingJudge, make_corpus, make_pair

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
    lock = threading.Lock()  # racing workers must not lose a count

    def counted(pred):
        def score(text):
            with lock:
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
    # the other reads, so no score of a describe is computed twice.  Above
    # in_flight 1 the judge waits, so the verifier's workers score at once.
    task = generate_task("question", 0.8, 0.1, 120, seed=5)
    judge = WaitingJudge(wait_s=0.0002 if config.in_flight > 1 else 0)
    scorings.clear()  # the generator scores texts directly
    report = describe_pair(task.pair, config, RuleBackend(), judge)
    assert report.ranked[0].hypothesis.s == "contains a question mark"
    assert len(scorings) > 3000
    assert max(scorings.values()) == 1
    assert (len(judge.senders) > 1) == (config.in_flight > 1)


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


# -------------------------------------------- one cache and one backend pair per run


class _CountingProposer(RuleBackend):
    def __init__(self):
        self.requests = 0

    def complete(self, req):
        self.requests += 1
        return super().complete(req)


@pytest.mark.parametrize(
    "verifier, error",
    [
        ({"verifier_backend": "replay:missing.jsonl"}, ReplayMissError),
        (
            {"verifier_backend": "http", "verifier_endpoint": EndpointConfig(base_url="ftp://x")},
            ConfigError,
        ),
    ],
    ids=["replay-miss", "ftp-url"],
)
def test_describe_fails_before_any_request_when_a_backend_cannot_be_built(
    tmp_path, monkeypatch, verifier, error
):
    monkeypatch.chdir(tmp_path)  # where the replay transcript is missing
    store = tmp_path / "c.jsonl"
    config = RunConfig(cache_path=str(store), **verifier)
    proposer = _CountingProposer()
    with pytest.raises(error):
        describe_pair(generate_task("question", 1.0, 0.0, 30, seed=1).pair, config, proposer)
    assert proposer.requests == 0
    assert not store.exists()


_RUNS = {
    # The first task's gold ranks second, so at top-1 run_bench's gold-CA
    # fallback verifies it too.
    "bench": lambda config: run_bench(
        [generate_task("question", 0.55, 0.45, 40, seed=2)] + default_suite(2, 30, seed=5),
        config,
    ).to_dict()["tasks"],
    "label-clusters": lambda config: {
        cid: report.to_dict()["ranked"]
        for cid, report in label_clusters(_clustered_digits(), config).items()
    },
    "scan": lambda config: [
        report.to_dict()["ranked"]
        for _, report in shortcut_scan(_clustered_digits(), config).reports
    ],
}


@pytest.mark.parametrize("run", sorted(_RUNS))
def test_a_run_opens_one_cache_and_builds_one_backend_per_role(tmp_path, monkeypatch, run):
    caches, built = [], []
    init = JudgmentCache.__init__

    def counting_init(self, path=None):
        caches.append(path)
        init(self, path)

    make_backend = pipeline.make_backend
    monkeypatch.setattr(JudgmentCache, "__init__", counting_init)
    monkeypatch.setattr(
        pipeline, "make_backend", lambda *args: built.append(args) or make_backend(*args)
    )
    config = RunConfig(
        top_k=1,
        n_pairs=30,
        cache_path=str(tmp_path / "c.jsonl"),
        proposer_endpoint=EndpointConfig(model="proposer"),
        verifier_endpoint=EndpointConfig(model="verifier"),
    )
    _RUNS[run](config)
    assert caches == [config.cache_path]
    assert built == [("rule", config.proposer_endpoint), ("rule", config.verifier_endpoint)]


@pytest.mark.parametrize("run", ["bench", "label-clusters"])
def test_replay_decodes_each_transcript_once_per_run(tmp_path, monkeypatch, run):
    transcripts = {role: tmp_path / f"{role}.jsonl" for role in ("proposer", "verifier")}
    config = RunConfig(
        top_k=1,
        n_pairs=30,
        in_flight=1,
        proposer_endpoint=EndpointConfig(model="proposer"),
        verifier_endpoint=EndpointConfig(model="verifier"),
    )
    with monkeypatch.context() as m:
        m.setattr(
            pipeline,
            "make_backend",
            lambda selector, endpoint: RecordingBackend(RuleBackend(), transcripts[endpoint.model]),
        )
        recorded = _RUNS[run](config)

    decoded = []
    init = ReplayBackend.__init__

    def counting_init(self, store_path):
        decoded.append(store_path)
        init(self, store_path)

    monkeypatch.setattr(ReplayBackend, "__init__", counting_init)
    replay = dataclasses.replace(
        config,
        proposer_backend=f"replay:{transcripts['proposer']}",
        verifier_backend=f"replay:{transcripts['verifier']}",
    )
    assert _RUNS[run](replay) == recorded
    assert decoded == [str(transcripts["proposer"]), str(transcripts["verifier"])]


def _rule_endpoint(path, body):
    """Answers every request as the rule oracle would."""
    rule = RuleBackend()
    context, _, last_line = body["prompt"].rpartition("\n")
    if last_line.startswith(QUESTION_PREFIX):
        texts = [rule.judge(JudgmentRequest(question=last_line, context=context))]
    else:
        texts = rule.complete(CompletionRequest(prompt=body["prompt"], n=body["n"]))
    return 200, {"choices": [{"text": text} for text in texts]}


def test_a_run_over_http_keeps_its_connections_for_every_describe(http_server):
    url, script = http_server(_rule_endpoint, keep_alive_s=30.0)
    endpoint = EndpointConfig(base_url=url)
    config = RunConfig(
        n_pairs=20,
        in_flight=1,
        proposer_backend="http",
        verifier_backend="http",
        proposer_endpoint=endpoint,
        verifier_endpoint=endpoint,
    )
    reports = label_clusters(_clustered_digits(), config)
    assert reports["questions"].ranked[0].hypothesis.s == "contains a question mark"
    assert script.hits > len(reports) * 2
    assert script.connections == 2  # one per role, for all three clusters


@pytest.mark.parametrize("stored", [False, True], ids=["no-store", "store"])
def test_runs_match_one_fresh_describe_per_pair(tmp_path, stored):
    store = tmp_path / "c.jsonl"
    config = RunConfig(n_pairs=30, in_flight=1, cache_path=str(store) if stored else None)
    clustered = _clustered_digits()
    ran = [report_json(r) for r in label_clusters(clustered, config).values()]
    ran += [report_json(r) for _, r in shortcut_scan(clustered, config).reports]
    ran_rows = store.read_bytes() if stored else None
    if stored:
        store.unlink()

    fresh = []
    for cid in clustered.cluster_ids():
        roles = ("rest", f"cluster {cid}")
        fresh.append(report_json(describe_pair(one_vs_rest(clustered, cid), config, roles=roles)))
    for label0, label1 in combinations(sorted(clustered.clusters), 2):
        pair = DistributionPair(d0=clustered.clusters[label0], d1=clustered.clusters[label1])
        fresh.append(report_json(describe_pair(pair, config, roles=(label0, label1))))
    assert ran == fresh
    if stored:
        assert ran_rows and store.read_bytes() == ran_rows
