"""Tests for swap-normalized judgment and classification-accuracy estimation."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from distdescribe.backends import Backend, RuleBackend
from distdescribe.bench import generate_task
from distdescribe.corpus import DistributionPair, Sample
from distdescribe.errors import AuthError, CorruptStoreError, ProviderError, ReplayMissError
from distdescribe.predicates import get_predicate
from distdescribe.verifier import (
    ABSTAIN,
    JudgmentCache,
    Verifier,
    _answer_value,
    build_question,
)

from conftest import make_pair

QUESTION = "contains a question mark"


def _sample(text, id="t:0"):
    return Sample(id=id, text=text)


def test_build_question_templates():
    q = build_question(QUESTION, _sample("alpha?"), _sample("beta"))
    assert q.question == "Is it true that sentence A contains a question mark?"
    assert q.context == "A: alpha?\nB: beta"


def test_judge_values():
    verifier = Verifier(RuleBackend())
    assert verifier.judge(QUESTION, _sample("yes?"), _sample("no")) == 1.0
    assert verifier.judge(QUESTION, _sample("no"), _sample("yes?")) == 0.0
    assert verifier.judge("gibberish hypothesis", _sample("a"), _sample("b")) == ABSTAIN


@pytest.mark.parametrize(
    "answer, value",
    [
        (" yes", 1.0),
        ("Yes.", 1.0),
        ("NO", 0.0),
        ("Not sure", ABSTAIN),
        ("None of them", ABSTAIN),
        ("Yesterday", ABSTAIN),
        ("", ABSTAIN),
    ],
)
def test_answer_value_reads_exactly_yes_or_no(answer, value):
    assert _answer_value(answer) == value


def test_h_hat_matches_inline_oracle():
    """h_hat agrees with direct evaluation of the predicate, computed inline."""
    backend = RuleBackend()
    texts = ["plain words", "really?", "two?? marks?", "nothing again"]
    for t1 in texts:
        for t0 in texts:
            got = Verifier(backend).h_hat(QUESTION, _sample(t1, "a:0"), _sample(t0, "b:0"))
            qa, qb = ("?" in t1), ("?" in t0)
            expected = 1.0 if qa > qb else (0.0 if qa < qb else 0.5)
            assert got == expected, (t1, t0)


def test_h_hat_anti_symmetry_exact():
    backend = RuleBackend()
    rng = np.random.default_rng(5)
    words = ["so", "it", "goes", "on?", "fine", "not", "https://example.com/x"]
    verifier = Verifier(backend)
    descriptions = [QUESTION, "contains a negative statement", "has a higher number of hyperlinks", "???"]
    for trial in range(200):
        s = descriptions[trial % len(descriptions)]
        a = _sample(" ".join(rng.choice(words, size=rng.integers(1, 8))), f"a:{trial}")
        b = _sample(" ".join(rng.choice(words, size=rng.integers(1, 8))), f"b:{trial}")
        assert verifier.h_hat(s, a, b) + verifier.h_hat(s, b, a) == 1.0


def test_estimate_ca_exhaustive_closed_form():
    task = generate_task("question", 0.8, 0.1, 200, seed=3)
    est = Verifier(RuleBackend()).estimate_ca(QUESTION, task.pair, n_pairs=40000, seed=0)
    assert est.exhaustive
    assert est.n_pairs == 40000
    assert est.mean == 0.85  # (160*180 + (160*20 + 40*180)/2) / 40000


def test_estimate_ca_sampled_near_exhaustive():
    task = generate_task("question", 0.8, 0.1, 200, seed=3)
    est = Verifier(RuleBackend()).estimate_ca(QUESTION, task.pair, n_pairs=400, seed=12)
    assert not est.exhaustive
    assert est.n_pairs == 400
    assert est.stderr > 0.0
    assert abs(est.mean - 0.85) <= 3 * est.stderr + 1e-9


def test_estimate_ca_identical_distributions_exactly_half():
    texts = [f"sentence number {i} stands here" for i in range(40)]
    pair = make_pair(texts, texts)
    est = Verifier(RuleBackend()).estimate_ca(QUESTION, pair, n_pairs=40 * 40, seed=0)
    assert est.exhaustive
    assert est.mean == 0.5


def test_estimate_ca_relabel_identity():
    task = generate_task("question", 0.7, 0.2, 40, seed=6)
    swapped = DistributionPair(d0=task.pair.d1, d1=task.pair.d0)
    fwd = Verifier(RuleBackend()).estimate_ca(QUESTION, task.pair, n_pairs=40 * 40, seed=0)
    rev = Verifier(RuleBackend()).estimate_ca(QUESTION, swapped, n_pairs=40 * 40, seed=0)
    assert abs((fwd.mean + rev.mean) - 1.0) <= 1e-12


def test_estimate_ca_deterministic_given_seed():
    task = generate_task("question", 0.8, 0.1, 200, seed=3)
    a = Verifier(RuleBackend()).estimate_ca(QUESTION, task.pair, n_pairs=400, seed=7)
    b = Verifier(RuleBackend()).estimate_ca(QUESTION, task.pair, n_pairs=400, seed=7)
    assert a.mean == b.mean and a.stderr == b.stderr
    c = Verifier(RuleBackend()).estimate_ca(QUESTION, task.pair, n_pairs=400, seed=8)
    assert (a.mean, a.stderr) != (c.mean, c.stderr)


def test_ca_estimate_to_dict():
    task = generate_task("question", 0.8, 0.1, 20, seed=2)
    est = Verifier(RuleBackend()).estimate_ca(QUESTION, task.pair, n_pairs=400, seed=0)
    d = est.to_dict()
    assert d["mean"] == est.mean
    assert d["stderr"] == est.stderr
    assert d["n_pairs"] == est.n_pairs
    assert d["exhaustive"] is est.exhaustive


def test_benchmark_verifier_gold_ca():
    task = generate_task("question", 0.8, 0.1, 200, seed=3)
    gold_description = get_predicate(task.gold).description
    est = Verifier(RuleBackend()).estimate_ca(gold_description, task.pair, n_pairs=40000)
    assert est.mean == 0.85


class _FailingBackend(Backend):
    id = "failing"

    def complete(self, req):
        raise ProviderError(503, "down")

    def judge(self, req):
        raise ProviderError(503, "down")


class _AuthFailBackend(Backend):
    id = "authfail"

    def judge(self, req):
        raise AuthError("bad key")


class _ReplayMissBackend(Backend):
    id = "replaymiss"

    def judge(self, req):
        raise ReplayMissError("nothing recorded")


def test_judge_failure_becomes_abstention():
    verifier = Verifier(_FailingBackend())
    value = verifier.judge(QUESTION, _sample("a?"), _sample("b"))
    assert value == ABSTAIN
    assert verifier.failed_count == 1
    assert verifier.abstain_count == 1
    assert verifier.judgment_count == 1


def test_judge_configuration_errors_propagate():
    with pytest.raises(AuthError):
        Verifier(_AuthFailBackend()).judge(QUESTION, _sample("a"), _sample("b"))
    with pytest.raises(ReplayMissError):
        Verifier(_ReplayMissBackend()).judge(QUESTION, _sample("a"), _sample("b"))


def test_failures_are_not_cached(tmp_path):
    cache_path = tmp_path / "cache.jsonl"
    verifier = Verifier(_FailingBackend(), JudgmentCache(cache_path))
    verifier.judge(QUESTION, _sample("a?"), _sample("b"))
    assert not cache_path.exists() or cache_path.read_text(encoding="utf-8").strip() == ""

    # A later healthy run over the same cache file can still record the pair.
    healthy = Verifier(RuleBackend(), JudgmentCache(cache_path))
    assert healthy.judge(QUESTION, _sample("a?"), _sample("b")) == 1.0
    assert cache_path.read_text(encoding="utf-8").strip() != ""


class _CountingJudge(RuleBackend):
    def __init__(self):
        self.judge_calls = 0

    def judge(self, req):
        self.judge_calls += 1
        return super().judge(req)


def test_judgment_cache_deduplicates_backend_calls(tmp_path):
    backend = _CountingJudge()
    verifier = Verifier(backend, JudgmentCache(tmp_path / "c.jsonl"))
    a, b = _sample("a?", "x:0"), _sample("b", "y:0")
    first = verifier.judge(QUESTION, a, b)
    second = verifier.judge(QUESTION, a, b)
    assert first == second
    assert backend.judge_calls == 1
    assert verifier.judgment_count == 2  # both judgments counted, one served from cache


def test_judgment_cache_persists_across_instances(tmp_path):
    path = tmp_path / "c.jsonl"
    a, b = _sample("a?", "x:0"), _sample("b", "y:0")
    Verifier(RuleBackend(), JudgmentCache(path)).judge(QUESTION, a, b)

    backend = _CountingJudge()
    verifier = Verifier(backend, JudgmentCache(path))
    assert verifier.judge(QUESTION, a, b) == 1.0
    assert backend.judge_calls == 0


def test_abstain_fraction():
    verifier = Verifier(RuleBackend())
    assert verifier.abstain_fraction == 0.0
    verifier.judge("unknown description here", _sample("a"), _sample("b"))
    verifier.judge(QUESTION, _sample("a?"), _sample("b"))
    assert verifier.abstain_fraction == 0.5


def test_judgment_cache_tolerates_torn_final_line(tmp_path):
    path = tmp_path / "c.jsonl"
    a, b = _sample("a?", "x:0"), _sample("b", "y:0")
    Verifier(RuleBackend(), JudgmentCache(path)).judge(QUESTION, a, b)
    with open(path, "ab") as fh:
        fh.write(b'{"a_id": "x:0", "answer": "y')  # a crash mid-append

    with pytest.warns(UserWarning, match=r"c\.jsonl:2: skipping torn final line"):
        cache = JudgmentCache(path)
    backend = _CountingJudge()
    verifier = Verifier(backend, cache)
    assert verifier.judge(QUESTION, a, b) == 1.0
    assert backend.judge_calls == 0

    # The next append replaces the fragment instead of gluing onto it.
    assert verifier.judge(QUESTION, b, a) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reloaded = Verifier(_CountingJudge(), JudgmentCache(path))
    assert reloaded.judge(QUESTION, a, b) == 1.0
    assert reloaded.judge(QUESTION, b, a) == 0.0
    assert reloaded.backend.judge_calls == 0
    assert len(path.read_text(encoding="utf-8").splitlines()) == 2


def test_judgment_cache_rejects_corruption_mid_file(tmp_path):
    path = tmp_path / "c.jsonl"
    a, b = _sample("a?", "x:0"), _sample("b", "y:0")
    Verifier(RuleBackend(), JudgmentCache(path)).judge(QUESTION, a, b)
    path.write_text("{not json\n" + path.read_text(encoding="utf-8"), encoding="utf-8")
    with pytest.raises(CorruptStoreError, match=r"c\.jsonl:1"):
        JudgmentCache(path)
