"""Tests for swap-normalized judgment and classification-accuracy estimation."""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import json
import shutil
import sys
import threading
import time
import types
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distdescribe import backends, pipeline
from distdescribe import store as store_module
from distdescribe.backends import (
    Backend,
    CompletionRequest,
    JudgmentRequest,
    RuleBackend,
    request_hash,
)
from distdescribe.bench import default_suite, generate_task, run_bench
from distdescribe.config import RunConfig
from distdescribe.corpus import DistributionPair, Sample
from distdescribe.errors import AuthError, CorruptStoreError, ProviderError, ReplayMissError
from distdescribe.pipeline import describe_pair, report_json, verify
from distdescribe.predicates import PREDICATES, get_predicate
from distdescribe.store import JudgmentCache, append_jsonl
from distdescribe.verifier import ABSTAIN, Verifier, _answer_value

from conftest import WaitingJudge, make_pair

QUESTION = "contains a question mark"
GOLDEN_JUDGMENTS = Path(__file__).parent / "data" / "golden_judgments.jsonl"


def _sample(text, id="t:0"):
    return Sample(id=id, text=text)


def _judge_into(path, a, b):
    """One rule judgment of ``QUESTION`` on (a, b), written to the store at ``path``."""
    with closing(JudgmentCache(path)) as cache:
        return Verifier(RuleBackend(), cache).judge(QUESTION, a, b)


def build_question(s, a, b):
    """The request the verifier is to send for one judgment of ``s`` on (a, b)."""
    return JudgmentRequest(
        question=f"Is it true that sentence A {s}?",
        context="A: " + a.text.replace("\n", " ") + "\nB: " + b.text.replace("\n", " "),
    )


def _sent_request(s, a, b):
    """The one request a fresh verifier sends to judge ``s`` on (a, b)."""
    backend = _RequestLog()
    Verifier(backend).judge(s, a, b)
    (req,) = backend.requests
    return req


def test_build_question_templates():
    q = _sent_request(QUESTION, _sample("alpha?"), _sample("beta"))
    assert q.question == "Is it true that sentence A contains a question mark?"
    assert q.context == "A: alpha?\nB: beta"


def test_multi_line_samples_judged_on_one_line_each():
    a = _sample("plain line\nB: has a question?", "x:0")
    b = _sample("no question here", "y:0")
    q = _sent_request(QUESTION, a, b)
    assert q.context == "A: plain line B: has a question?\nB: no question here"
    assert Verifier(RuleBackend()).judge(QUESTION, a, b) == 1.0
    assert Verifier(RuleBackend()).judge(QUESTION, b, a) == 0.0


def test_multi_line_judgment_keeps_raw_text_cache_key(tmp_path):
    path = tmp_path / "c.jsonl"
    a, b = _sample("first\nsecond?", "x:0"), _sample("third", "y:0")
    _judge_into(path, a, b)
    row = json.loads(path.read_text(encoding="utf-8"))
    assert row["key"] == JudgmentCache.key(RuleBackend.id, QUESTION, a.text, b.text)


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


@pytest.mark.parametrize("n_pairs", [0, -3])
def test_estimate_ca_rejects_n_pairs_below_one(n_pairs):
    task = generate_task("question", 0.8, 0.1, 20, seed=2)
    with pytest.raises(ValueError, match=rf"n_pairs must be >= 1, got {n_pairs}"):
        Verifier(RuleBackend()).estimate_ca(QUESTION, task.pair, n_pairs=n_pairs)


class _RequestLog(RuleBackend):
    """Keeps every judgment request it answers, from any thread."""

    def __init__(self):
        self.requests = []
        self._log_lock = threading.Lock()

    def judge(self, req):
        with self._log_lock:
            self.requests.append(req)
        return super().judge(req)


def _directed_questions(descriptions, pair, n_pairs, seed):
    """The distinct requests of each description's 2·n_pairs directed judgments, drawn inline."""
    d1, d0 = pair.d1.samples, pair.d0.samples
    rng = np.random.default_rng(seed)
    idx1 = rng.integers(0, len(d1), size=n_pairs)
    idx0 = rng.integers(0, len(d0), size=n_pairs)
    return {
        build_question(s, a, b)
        for s in descriptions
        for i, j in zip(idx1, idx0)
        for a, b in ((d1[int(i)], d0[int(j)]), (d0[int(j)], d1[int(i)]))
    }


# The context's own separators, line breaks, quotes and non-ASCII, mixed with arbitrary text.
_request_text = st.lists(
    st.sampled_from(["\n", "B: ", "\nB: ", "A: ", '"', "'", "?", "é", "中文", "🙂"])
    | st.text(max_size=6),
    min_size=1,
    max_size=6,
).map("".join).filter(bool)


@settings(max_examples=100, derandomize=True, database=None)
@given(s=_request_text, a=_request_text, b=_request_text, c=_request_text)
def test_verification_sends_build_question_of_each_judgment(s, a, b, c):
    pair = make_pair([c, a], [a, b])  # d0, d1: the 4 pairs are enumerated
    directed = [
        order for x1 in pair.d1.samples for x0 in pair.d0.samples for order in ((x1, x0), (x0, x1))
    ]
    descriptions = [s, QUESTION, s]
    expected = {build_question(d, x, y) for d in descriptions for x, y in directed}
    for in_flight in (1, 2):
        backend = _RequestLog()
        Verifier(backend).estimate_cas(descriptions, pair, n_pairs=4, in_flight=in_flight)
        assert Counter(backend.requests) == Counter(expected)
    backend = _RequestLog()
    Verifier(backend).judge(s, pair.d1.samples[1], pair.d0.samples[0])
    assert backend.requests == [build_question(s, pair.d1.samples[1], pair.d0.samples[0])]


def test_estimate_ca_counts_each_judgment_once_and_sends_each_distinct_miss_once():
    task = generate_task("question", 0.8, 0.1, 40, seed=3)
    backend = _RequestLog()
    verifier = Verifier(backend)
    est = verifier.estimate_ca(QUESTION, task.pair, n_pairs=300, seed=1)
    assert not est.exhaustive
    assert verifier.judgment_count == 2 * 300
    expected = _directed_questions([QUESTION], task.pair, 300, 1)
    assert len(expected) < 2 * 300  # some drawn judgments repeat
    assert Counter(backend.requests) == Counter(expected)

    # Many descriptions at in_flight 2, one of them twice: still one request per distinct miss.
    descriptions = [QUESTION, "contains a negative statement", QUESTION, "contains numeric digits"]
    backend = _RequestLog()
    verifier = Verifier(backend)
    estimates = verifier.estimate_cas(descriptions, task.pair, n_pairs=300, seed=2, in_flight=2)
    assert verifier.judgment_count == len(descriptions) * 2 * 300
    assert Counter(backend.requests) == Counter(_directed_questions(descriptions, task.pair, 300, 2))
    assert estimates[0] == estimates[2]
    assert estimates == [
        Verifier(RuleBackend()).estimate_ca(s, task.pair, n_pairs=300, seed=2) for s in descriptions
    ]


class _AuthFailsOnce(RuleBackend):
    """Refuses the second request it gets while the first is still being answered."""

    def __init__(self):
        self.started = []
        self._log_lock = threading.Lock()
        self.refused = threading.Event()

    def judge(self, req):
        with self._log_lock:
            self.started.append((req, self.refused.is_set()))
            n = len(self.started)
        if n == 2:
            self.refused.set()
            raise AuthError("bad key")
        if n == 1:
            self.refused.wait(timeout=5)
            time.sleep(0.2)  # the refusal reaches its worker before this answer
        return super().judge(req)


def test_auth_error_at_in_flight_2_stops_the_queue_and_propagates():
    task = generate_task("question", 0.8, 0.1, 40, seed=3)
    backend = _AuthFailsOnce()
    verifier = Verifier(backend)
    with pytest.raises(AuthError):
        verifier.estimate_cas([QUESTION, "contains numeric digits"], task.pair, n_pairs=50, in_flight=2)
    # Two requests were in flight at once; none was sent after the refusal.
    assert [after for _, after in backend.started] == [False, False]


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
    assert _judge_into(cache_path, _sample("a?"), _sample("b")) == 1.0
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
    verifier.cache.close()
    assert first == second
    assert backend.judge_calls == 1
    assert verifier.judgment_count == 2  # both judgments counted, one served from cache


def test_judgment_cache_persists_across_instances(tmp_path):
    path = tmp_path / "c.jsonl"
    a, b = _sample("a?", "x:0"), _sample("b", "y:0")
    _judge_into(path, a, b)

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
    _judge_into(path, a, b)
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
    cache.close()
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
    _judge_into(path, a, b)
    path.write_text("{not json\n" + path.read_text(encoding="utf-8"), encoding="utf-8")
    with pytest.raises(CorruptStoreError, match=r"c\.jsonl:1"):
        JudgmentCache(path)


@pytest.mark.parametrize(
    "row",
    [
        {"value": 1.0},
        {"key": "k"},
        {"key": ["k"], "value": 1.0},
        {"key": "k", "value": "yes"},
        {"key": "k", "value": 2},
        {"key": "k", "value": [1]},
        {"key": "k", "completions": "x"},
        {"key": "k", "completions": [1]},
        {"key": "k", "value": ["a"]},  # a completions payload under a judgment's field
    ],
)
def test_judgment_cache_rejects_unusable_row(tmp_path, row):
    path = tmp_path / "c.jsonl"
    _judge_into(path, _sample("a?", "x:0"), _sample("b", "y:0"))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row) + "\n")
    with pytest.raises(CorruptStoreError, match=r"c\.jsonl:2: a row needs"):
        JudgmentCache(path)


@pytest.mark.parametrize(
    "row",
    [
        {"key": 5, "value": 1},
        {"key": "x", "value": True},  # True == 1.0
        {"key": "x", "value": False},
        {"key": 5, "completions": ["contains a question mark"]},
    ],
)
def test_store_of_one_wrong_typed_row_is_corrupt(tmp_path, row):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(CorruptStoreError, match=r"c\.jsonl:1: a row needs"):
        JudgmentCache(path)


def _store_line(a_text, b_text, value):
    """One store row, as the line a cache appends, judging ``QUESTION`` on (a_text, b_text)."""
    row = {
        "key": JudgmentCache.key(RuleBackend.id, QUESTION, a_text, b_text),
        "s": QUESTION,
        "a_id": "x:0",
        "b_id": "y:0",
        "answer": "yes" if value else "no",
        "value": value,
    }
    return json.dumps(row, sort_keys=True) + "\n"


def _stored(cache, a_text, b_text):
    ((values, _),) = cache.lookup(RuleBackend.id, [QUESTION], [(a_text, b_text)])
    return values[0]


def test_reopened_store_decodes_each_row_once(tmp_path, decoded):
    path = tmp_path / "c.jsonl"
    lines = [_store_line(f"a{i}?", "b", 1.0) for i in range(5)]
    path.write_text("".join(lines), encoding="utf-8")
    for _ in range(3):
        assert _stored(JudgmentCache(path), "a4?", "b") == 1.0
    assert decoded == Counter(line.encode() for line in lines)


def test_rows_appended_between_opens_are_hits(tmp_path, decoded):
    path = tmp_path / "c.jsonl"
    first, other = _store_line("a?", "b", 1.0), _store_line("c?", "d", 1.0)
    path.write_text(first, encoding="utf-8")
    assert _stored(JudgmentCache(path), "b", "a?") is None

    _judge_into(path, _sample("b", "y:0"), _sample("a?", "x:0"))  # another cache appends
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(other)  # and so does something else

    cache = JudgmentCache(path)
    assert _stored(cache, "a?", "b") == 1.0
    assert _stored(cache, "b", "a?") == 0.0
    assert _stored(cache, "c?", "d") == 1.0
    # The row this process appended is taken without being read back.
    assert decoded == Counter([first.encode(), other.encode()])


def test_own_appends_are_not_read_back_but_other_writers_rows_are(tmp_path, decoded):
    path = tmp_path / "c.jsonl"
    a, b = _sample("a?", "x:0"), _sample("b", "y:0")
    _judge_into(path, a, b)
    assert _stored(JudgmentCache(path), a.text, b.text) == 1.0
    assert not decoded

    # Another writer appends after this process's last read and before its flush.
    cache = JudgmentCache(path)
    assert Verifier(RuleBackend(), cache).judge(QUESTION, b, a) == 0.0
    other = _store_line("c?", "d", 1.0)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(other)
    cache.close()
    own = path.read_text(encoding="utf-8").splitlines(keepends=True)[-1]
    for _ in range(2):
        cache = JudgmentCache(path)
        assert _stored(cache, b.text, a.text) == 0.0
        assert _stored(cache, "c?", "d") == 1.0
    assert decoded == Counter([other.encode(), own.encode()])


def _rewrite_same_size(path, text):
    with open(path, "r+", encoding="utf-8") as fh:
        fh.write(text)


def _rewrite_larger(path, text):
    path.write_text(text + _store_line("e?", "f", 1.0), encoding="utf-8")


def _recreate(path, text):
    path.unlink()
    path.write_text(text, encoding="utf-8")


@pytest.mark.parametrize("rewrite", [_rewrite_same_size, _rewrite_larger, _recreate])
def test_rewritten_store_is_read_again(tmp_path, rewrite):
    # Only the first row changes, and to a value of the same length, so the
    # file keeps its size and its last line.
    path = tmp_path / "c.jsonl"
    last = _store_line("c?", "d", 1.0)
    path.write_text(_store_line("a?", "b", 1.0) + last, encoding="utf-8")
    assert _stored(JudgmentCache(path), "a?", "b") == 1.0
    rewrite(path, _store_line("a?", "b", 0.0) + last)
    cache = JudgmentCache(path)
    assert _stored(cache, "a?", "b") == 0.0
    assert _stored(cache, "c?", "d") == 1.0


def test_truncated_store_is_read_again(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(_store_line("a?", "b", 1.0) + _store_line("c?", "d", 1.0), encoding="utf-8")
    assert _stored(JudgmentCache(path), "c?", "d") == 1.0
    path.write_text(_store_line("a?", "b", 1.0), encoding="utf-8")
    cache = JudgmentCache(path)
    assert _stored(cache, "a?", "b") == 1.0
    assert _stored(cache, "c?", "d") is None


@pytest.mark.parametrize("finish", ["completed", "cut off by the next append"])
def test_torn_final_line_is_read_once_finished(tmp_path, decoded, finish):
    path = tmp_path / "c.jsonl"
    first, torn = _store_line("a?", "b", 1.0), _store_line("b", "a?", 0.0)
    path.write_text(first + torn[:20], encoding="utf-8")
    for _ in range(2):
        with pytest.warns(UserWarning, match=r"c\.jsonl:2: skipping torn final line"):
            cache = JudgmentCache(path)
        assert _stored(cache, "b", "a?") is None

    if finish == "completed":
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(torn[20:])
    else:
        assert Verifier(RuleBackend(), cache).judge(QUESTION, _sample("b"), _sample("a?")) == 0.0
        cache.close()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):
            cache = JudgmentCache(path)
            assert _stored(cache, "a?", "b") == 1.0
            assert _stored(cache, "b", "a?") == 0.0
    assert len(path.read_text(encoding="utf-8").splitlines()) == 2
    assert len(decoded) == 2 and set(decoded.values()) == {1}


@pytest.mark.parametrize(
    "line, error",
    [
        ("{not json\n", "not a JSON object"),
        ('{"key": "k"}\n', "a row needs"),
        ('{"key": "k", "value": 2}\n', "a row needs"),
    ],
)
def test_bad_row_appended_after_open_names_its_line(tmp_path, line, error):
    path = tmp_path / "c.jsonl"
    path.write_text(_store_line("a?", "b", 1.0) + "\n", encoding="utf-8")  # a blank line 2
    JudgmentCache(path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(_store_line("c?", "d", 1.0) + line)
    for _ in range(2):  # the failed read kept nothing, so this one reads from the start
        with pytest.raises(CorruptStoreError, match=rf"c\.jsonl:4: {error}"):
            JudgmentCache(path)


def test_threads_reopening_one_store_decode_each_row_once(tmp_path, decoded):
    path = tmp_path / "c.jsonl"
    errors = []

    def reopen(newest):
        try:
            for _ in range(3):
                assert _stored(JudgmentCache(path), newest, "b") == 1.0
        except Exception as exc:  # reported below; a thread's exception is otherwise lost
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round in range(5):  # rows appended between rounds, read by racing opens
            with open(path, "a", encoding="utf-8") as fh:
                fh.writelines(_store_line(f"r{round} a{i}?", "b", 1.0) for i in range(6))
            threads = [
                threading.Thread(target=reopen, args=(f"r{round} a5?",)) for _ in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(decoded) == 30 and set(decoded.values()) == {1}


@pytest.fixture
def sha256_calls(monkeypatch):
    """The sha256 hashes the store and backends modules start, counted."""
    calls = []

    def counting(data=b""):
        calls.append(data)
        return hashlib.sha256(data)

    for module in (store_module, backends):
        monkeypatch.setattr(module, "hashlib", types.SimpleNamespace(sha256=counting))
    return calls


def test_cache_without_store_never_hashes(sha256_calls):
    task = generate_task("question", 0.8, 0.1, 40, seed=3)
    verifier = Verifier(RuleBackend(), JudgmentCache())
    est = verifier.estimate_ca(QUESTION, task.pair, n_pairs=300, seed=1)
    assert est.n_pairs == 300
    assert verifier.judgment_count == 600
    # A whole describe: the proposer's completions as well as the judgments.
    report = describe_pair(task.pair, RunConfig(n_pairs=50))
    assert report.candidate_count > 1
    assert sha256_calls == []


def test_cache_without_store_keeps_nothing():
    cache = JudgmentCache()
    key = JudgmentCache.key(RuleBackend.id, "request hash")
    cache.put("completions", [(key, ["is longer"])])
    cache.flush()
    assert cache.get(key) is None
    backend = _CountingJudge()
    verifier = Verifier(backend, cache)
    a, b = _sample("a?", "x:0"), _sample("b", "y:0")
    assert verifier.judge(QUESTION, a, b) == verifier.judge(QUESTION, a, b) == 1.0
    assert backend.judge_calls == 2


def test_new_judgment_over_loaded_store_hashes_once(tmp_path, sha256_calls):
    path = tmp_path / "c.jsonl"
    a, b = _sample("a?", "x:0"), _sample("b", "y:0")
    _judge_into(path, a, b)
    cache = JudgmentCache(path)  # one row loaded
    sha256_calls.clear()
    assert Verifier(RuleBackend(), cache).judge(QUESTION, b, a) == 0.0
    cache.close()
    assert len(sha256_calls) == 1
    assert len(path.read_text(encoding="utf-8").splitlines()) == 2


def test_closed_cache_reopens_its_store(tmp_path):
    path = tmp_path / "c.jsonl"
    a, b = _sample("a?", "x:0"), _sample("b", "y:0")
    cache = JudgmentCache(path)
    verifier = Verifier(RuleBackend(), cache)
    verifier.judge(QUESTION, a, b)
    cache.close()
    cache.close()  # closing twice is harmless
    verifier.judge(QUESTION, b, a)
    cache.close()
    reloaded = Verifier(_CountingJudge(), JudgmentCache(path))
    assert reloaded.judge(QUESTION, a, b) == 1.0
    assert reloaded.judge(QUESTION, b, a) == 0.0
    assert reloaded.backend.judge_calls == 0


def test_describe_pair_closes_the_cache_it_built(tmp_path, monkeypatch):
    closed = []
    close = JudgmentCache.close

    def counting_close(self):
        closed.append(self.path)
        close(self)

    monkeypatch.setattr(JudgmentCache, "close", counting_close)
    task = generate_task("question", 0.8, 0.1, 40, seed=5)
    store = tmp_path / "judgments.jsonl"
    describe_pair(task.pair, RunConfig(n_pairs=20, cache_path=str(store)))
    assert closed == [store]


class _BarrierJudge(_CountingJudge):
    """Holds every judge call until two are in flight at once."""

    def __init__(self):
        super().__init__()
        self.barrier = threading.Barrier(2, timeout=10)
        self._calls_lock = threading.Lock()

    def judge(self, req):
        with self._calls_lock:
            self.judge_calls += 1
        self.barrier.wait()
        return RuleBackend.judge(self, req)


def test_concurrent_misses_write_one_row(tmp_path):
    path = tmp_path / "c.jsonl"
    backend = _BarrierJudge()
    verifier = Verifier(backend, JudgmentCache(path))
    a, b = _sample("a?", "x:0"), _sample("b", "y:0")
    values = []
    threads = [
        threading.Thread(target=lambda: values.append(verifier.judge(QUESTION, a, b)))
        for _ in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    verifier.cache.close()
    assert values == [1.0, 1.0]
    assert backend.judge_calls == 2
    assert verifier.judgment_count == 2
    assert len(path.read_text(encoding="utf-8").splitlines()) == 1


class _PairedJudge(RuleBackend):
    """Answers a judgment only while another one is in flight beside it."""

    def __init__(self):
        self.barrier = threading.Barrier(2, timeout=5)

    def judge(self, req):
        self.barrier.wait()
        return super().judge(req)


def test_verify_keeps_both_slots_busy_at_an_odd_candidate_count():
    # Three descriptions of two judgments each: six requests, always two in flight.
    pair = make_pair(["plain words, nothing else"], ["is this a question?"])
    descriptions = [QUESTION, "contains a comma", "contains numeric digits"]
    config = RunConfig(n_pairs=1, in_flight=2)
    estimates, verifier = verify(descriptions, pair, config, _PairedJudge(), JudgmentCache())
    assert verifier.judgment_count == 6
    assert verifier.failed_count == verifier.abstain_count == 0
    assert [e.mean for e in estimates] == [1.0, 0.0, 0.5]


def test_verify_of_stored_judgments_sends_nothing_and_starts_no_thread(tmp_path, monkeypatch):
    task = generate_task("question", 0.8, 0.1, 40, seed=3)
    store = tmp_path / "c.jsonl"
    descriptions = [QUESTION, "contains a negative statement", "contains numeric digits"]
    config = RunConfig(n_pairs=50, in_flight=2, cache_path=str(store))
    cold, _ = verify(descriptions, task.pair, config, RuleBackend(), JudgmentCache(store))

    def no_thread(thread):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    backend = _RequestLog()
    warm, verifier = verify(descriptions, task.pair, config, backend, JudgmentCache(store))
    assert backend.requests == []
    assert warm == cold
    assert verifier.judgment_count == len(descriptions) * 2 * 50


def test_many_workers_append_each_description_once(tmp_path, appends):
    task = generate_task("question", 0.8, 0.1, 40, seed=3)
    descriptions = [p.description for p in PREDICATES[:12]]
    reference = Verifier(RuleBackend()).estimate_cas(descriptions, task.pair, n_pairs=60)
    store = tmp_path / "c.jsonl"
    backend = WaitingJudge()  # a judge that waits, so every worker joins the queue
    verifier = Verifier(backend, JudgmentCache(store))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        estimates = verifier.estimate_cas(descriptions, task.pair, n_pairs=60, in_flight=8)
    finally:
        sys.setswitchinterval(interval)
    assert len(backend.senders) > 1
    assert estimates == reference
    # Appends can race into one, but no description's rows are split between two.
    assert Counter(s for rows in appends for s in {row["s"] for row in rows}) == Counter(descriptions)
    keys = [row["key"] for row in _rows(store)]
    assert len(keys) == len(set(keys)) == sum(map(len, appends))


def test_a_failed_judgment_is_sent_once_and_every_copy_of_it_abstains():
    # Two d1 samples of one text: each directed judgment is needed twice.
    pair = make_pair(["b"], ["a?", "a?"])
    backend = _FailingBackend()
    calls = []
    backend.judge = lambda req: calls.append(req) or _FailingBackend.judge(backend, req)
    verifier = Verifier(backend)
    est = verifier.estimate_ca(QUESTION, pair, n_pairs=2)
    assert est.exhaustive and est.mean == 0.5
    assert len(calls) == 2
    assert verifier.judgment_count == verifier.abstain_count == verifier.failed_count == 4


@pytest.fixture
def appends(monkeypatch):
    """The rows of each append a judgment cache makes to its store, in order."""
    calls = []

    def counting(path, rows):
        calls.append(list(rows))
        append_jsonl(path, rows)

    monkeypatch.setattr(store_module, "append_jsonl", counting)
    return calls


def _rows(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def test_cache_serves_what_it_put_after_the_process_opens_other_stores(tmp_path):
    path = tmp_path / "c.jsonl"
    backend = _CountingJudge()
    cache = JudgmentCache(path)
    verifier = Verifier(backend, cache)
    a, b = _sample("a?", "x:0"), _sample("b", "y:0")
    assert verifier.judge(QUESTION, a, b) == 1.0  # queued, not yet written
    JudgmentCache(path)  # the store reopened before this cache flushed
    JudgmentCache(tmp_path / "other.jsonl")  # the process now holds another store's rows
    cache.flush()
    assert verifier.judge(QUESTION, a, b) == 1.0
    cache.close()
    assert backend.judge_calls == 1
    assert len(_rows(path)) == 1


def test_store_that_cannot_be_created_fails_when_opened(tmp_path):
    with pytest.raises(FileNotFoundError):
        JudgmentCache(tmp_path / "missing" / "c.jsonl")


def test_estimate_ca_writes_its_rows_before_returning(tmp_path, appends):
    path = tmp_path / "c.jsonl"
    task = generate_task("question", 0.8, 0.1, 40, seed=3)
    Verifier(RuleBackend(), JudgmentCache(path)).estimate_ca(QUESTION, task.pair, n_pairs=30)
    assert len(appends) == 1
    keys = [row["key"] for row in _rows(path)]
    assert len(keys) == len(set(keys)) == len(appends[0])

    backend = _CountingJudge()
    Verifier(backend, JudgmentCache(path)).estimate_ca(QUESTION, task.pair, n_pairs=30)
    assert backend.judge_calls == 0


def test_describe_appends_once_per_description_with_new_judgments(tmp_path, appends):
    task = generate_task("question", 0.8, 0.1, 40, seed=5)
    top = describe_pair(task.pair, RunConfig(n_pairs=20)).ranked[0].hypothesis.s
    config = RunConfig(n_pairs=20, in_flight=1, cache_path=str(tmp_path / "c.jsonl"))
    with closing(JudgmentCache(config.cache_path)) as cache:
        verify([top], task.pair, config, RuleBackend(), cache)  # one candidate's judgments stored
    report = describe_pair(task.pair, config)
    # The proposer's completions, then one append per new description.
    assert len(appends) == 1 + 1 + report.candidate_count - 1
    assert all("completions" in row for row in appends[1])
    judgment_appends = appends[:1] + appends[2:]
    assert all(len({row["s"] for row in rows}) == 1 for rows in judgment_appends)
    assert sum(map(len, appends)) == len(_rows(tmp_path / "c.jsonl"))


def test_describe_whose_judgments_all_hit_appends_nothing(tmp_path, appends):
    store = tmp_path / "c.jsonl"
    task = generate_task("question", 0.8, 0.1, 40, seed=5)
    config = RunConfig(n_pairs=20, cache_path=str(store))
    cold = describe_pair(task.pair, config)
    written = store.read_bytes()
    appends.clear()
    warm = describe_pair(task.pair, config)
    assert appends == []
    assert store.read_bytes() == written
    assert report_json(warm) == report_json(cold)


def test_describe_without_store_appends_nothing(appends):
    task = generate_task("question", 0.8, 0.1, 40, seed=5)
    describe_pair(task.pair, RunConfig(n_pairs=20))
    assert appends == []


def test_put_does_no_file_io(tmp_path, monkeypatch):
    def no_io(path, rows):
        raise AssertionError("a row was written outside a flush")

    monkeypatch.setattr(store_module, "append_jsonl", no_io)
    path = tmp_path / "c.jsonl"
    cache = JudgmentCache(path)
    a, b = _sample("a?", "x:0"), _sample("b", "y:0")
    assert Verifier(RuleBackend(), cache).judge(QUESTION, a, b) == 1.0
    assert _stored(cache, a.text, b.text) == 1.0
    assert path.read_bytes() == b""


def test_threads_judging_and_flushing_write_every_row_once(tmp_path):
    path = tmp_path / "c.jsonl"
    cache = JudgmentCache(path)
    verifier = Verifier(RuleBackend(), cache)
    pairs = [(_sample(f"a{i}?", f"x:{i}"), _sample(f"b{i}", f"y:{i}")) for i in range(400)]

    def judge_and_flush(chunk):
        for a, b in chunk:
            verifier.judge(QUESTION, a, b)
            cache.flush()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(judge_and_flush, pairs[i::8]) for i in range(8)]
            for future in futures:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    keys = {row["key"] for row in _rows(path)}
    assert len(_rows(path)) == len(keys) == len(pairs)
    assert keys == {JudgmentCache.key(RuleBackend.id, QUESTION, a.text, b.text) for a, b in pairs}


def test_flushes_racing_opens_leave_the_store_index_as_a_full_read(
    tmp_path, decoded, monkeypatch
):
    path = tmp_path / "c.jsonl"
    cache = JudgmentCache(path)
    verifier = Verifier(RuleBackend(), cache)
    pairs = [(_sample(f"a{i}?", f"x:{i}"), _sample(f"b{i}", f"y:{i}")) for i in range(200)]

    def judge_and_flush(chunk):
        for a, b in chunk:
            verifier.judge(QUESTION, a, b)
            cache.flush()

    def reopen():
        for _ in range(20):
            JudgmentCache(path)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(judge_and_flush, pairs[i::4]) for i in range(4)]
            futures += [pool.submit(reopen) for _ in range(4)]
            for future in futures:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert set(decoded.values()) <= {1}
    held = JudgmentCache(path)
    monkeypatch.setattr(store_module, "_index", None)  # the next open reads the whole file
    full = JudgmentCache(path)
    for a, b in pairs:
        assert _stored(held, a.text, b.text) == _stored(full, a.text, b.text) == 1.0


def test_run_bench_writes_the_same_rows_at_any_in_flight(tmp_path, monkeypatch):
    tasks = default_suite(task_count=3, n_per_side=30, seed=5)
    stores = {}
    waiting = WaitingJudge()  # a judge that waits, so at in_flight 4 the workers race to the store
    for in_flight, backend in ((4, waiting), (1, RuleBackend())):
        monkeypatch.setattr(pipeline, "make_backend", lambda selector, endpoint: backend)
        store = tmp_path / f"in-flight-{in_flight}.jsonl"
        run_bench(tasks, RunConfig(n_pairs=100, in_flight=in_flight, cache_path=str(store)))
        lines = store.read_text(encoding="utf-8").splitlines()
        assert len({json.loads(line)["key"] for line in lines}) == len(lines)
        stores[in_flight] = set(lines)
    assert len(waiting.senders) > 1
    assert stores[4] == stores[1]


@settings(max_examples=300, derandomize=True, database=None)
@given(parts=st.tuples(st.text(), st.text(), st.text(), st.text()))
def test_judgment_key_is_sha256_of_json_dumps(parts):
    blob = json.dumps(list(parts), ensure_ascii=False).encode("utf-8")
    assert JudgmentCache.key(*parts) == hashlib.sha256(blob).hexdigest()


# Quotes, backslashes, non-ASCII, newlines and control characters, often.
_awkward_text = st.one_of(
    st.text(alphabet='"\\\n\r\t\x00\x1f\x7f\u2028é€😀 ab', max_size=12), st.text(max_size=12)
)


@settings(max_examples=300, derandomize=True, database=None)
@given(
    backend_id=_awkward_text,
    descriptions=st.lists(_awkward_text, min_size=1, max_size=3),
    texts=st.lists(st.tuples(_awkward_text, _awkward_text), min_size=1, max_size=4),
)
def test_batch_lookup_keys_equal_the_judgment_key(backend_id, descriptions, texts):
    keys = list(store_module._row_keys(backend_id, descriptions, texts))
    assert keys == [[JudgmentCache.key(backend_id, s, a, b) for a, b in texts] for s in descriptions]


def _golden_store_run(store, verifier_backend=None):
    """The run that wrote ``golden_judgments.jsonl``: sequential, so row order is fixed."""
    task = generate_task("question", 0.8, 0.1, 40, seed=5)
    config = RunConfig(n_pairs=50, in_flight=1, cache_path=str(store))
    return describe_pair(task.pair, config, verifier_backend=verifier_backend)


def test_golden_store_serves_every_judgment(tmp_path):
    store = tmp_path / "judgments.jsonl"
    shutil.copyfile(GOLDEN_JUDGMENTS, store)
    backend = _CountingJudge()
    _golden_store_run(store, backend)
    assert backend.judge_calls == 0
    assert store.read_bytes() == GOLDEN_JUDGMENTS.read_bytes()


def test_empty_store_writes_golden_bytes(tmp_path):
    store = tmp_path / "judgments.jsonl"
    _golden_store_run(store)
    assert store.read_bytes() == GOLDEN_JUDGMENTS.read_bytes()


def test_store_of_judgment_rows_only_serves_every_judgment(tmp_path):
    # A store written before completions were cached: the golden judgment rows.
    lines = GOLDEN_JUDGMENTS.read_bytes().splitlines(keepends=True)
    judgments = b"".join(line for line in lines if b'"completions"' not in line)
    completions = b"".join(line for line in lines if b'"completions"' in line)
    assert judgments and completions
    store = tmp_path / "judgments.jsonl"
    store.write_bytes(judgments)
    backend = _CountingJudge()
    _golden_store_run(store, backend)
    assert backend.judge_calls == 0
    assert store.read_bytes() == judgments + completions


def test_completions_miss_on_another_backend_or_any_other_request_field(tmp_path):
    store = tmp_path / "c.jsonl"
    req = CompletionRequest(prompt="Group 0:\n1. a\n\nGroup 1:\n1. b?\n\nCompared", n=2)
    changed = {
        "prompt": req.prompt + " ",
        "n": 3,
        "max_tokens": req.max_tokens + 1,
        "temperature": 0.0,
        "stop": ("\n",),
        "forbidden_tokens": ("group",),
    }
    assert set(changed) == {field.name for field in dataclasses.fields(CompletionRequest)}
    written = JudgmentCache(store)
    key = JudgmentCache.key(RuleBackend.id, request_hash(req))
    written.put("completions", [(key, ["is longer", "is shorter"])])
    written.close()
    for cache in (written, JudgmentCache(store)):  # this cache, then a freshly opened one
        assert _completions(cache, RuleBackend.id, req) == ["is longer", "is shorter"]
        assert _completions(cache, "http:chat:model", req) is None
        for field, value in changed.items():
            other = dataclasses.replace(req, **{field: value})
            assert _completions(cache, RuleBackend.id, other) is None


def _completions(cache, backend_id, req):
    """The cached completions of ``req`` sent to ``backend_id``, looked up as ``propose`` does."""
    return cache.get(JudgmentCache.key(backend_id, request_hash(req)))


def test_store_imports_no_distdescribe_module_but_errors():
    # The store's file format stays in one module: the verifier and the
    # backends use it, and it uses neither.
    tree = ast.parse(Path(store_module.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            package = "distdescribe." if node.level else ""
            module = (package + (node.module or "")).rstrip(".")
            if module == "distdescribe":  # from . import x
                imported.update(f"{module}.{alias.name}" for alias in node.names)
            else:
                imported.add(module)
    ours = {name for name in imported if name.split(".")[0] == "distdescribe"}
    assert ours == {"distdescribe.errors"}
