"""Tests for rule, HTTP, recording, and replay backends."""

from __future__ import annotations

import base64
import dataclasses
import gc
import hashlib
import json
import os
import socket
import socketserver
import struct
import subprocess
import sys
import threading
import time
import warnings
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distdescribe import RunConfig, __version__, backends, describe_pair, generate_task, predicates
from distdescribe.backends import (
    QUESTION_PREFIX,
    SCORE_MEMO_TEXTS,
    Backend,
    CompletionRequest,
    HttpBackend,
    JudgmentRequest,
    RecordingBackend,
    ReplayBackend,
    RuleBackend,
    _parse_prompt_groups,
    _score,
    _score_rows,
    make_backend,
    one_line,
    request_hash,
    send_queued,
)
from distdescribe.cli import main
from distdescribe.config import CONFIG_FORMAT, EndpointConfig
from distdescribe.corpus import Sample
from distdescribe.errors import (
    AuthError,
    ConfigError,
    CorruptStoreError,
    ProviderError,
    RateLimitedError,
    ReplayMissError,
    TransportError,
    UnparseablePromptError,
)
from distdescribe.predicates import PREDICATES
from distdescribe.proposer import build_prompt
from distdescribe.verifier import ABSTAIN, Verifier

from conftest import TLS_CERT, WaitingJudge

QUESTION_PROMPT = (
    "Group 0:\n"
    "1. The cat sits on the mat\n"
    "2. A dog barks at the mailman\n"
    "\n"
    "Group 1:\n"
    "1. Is the train ever on time?\n"
    "2. Why does the kettle whistle?\n"
    "\n"
    "Compared to group 0, each sentence from group 1"
)


# ---------------------------------------------------------------- rule backend


def test_rule_complete_ranks_separating_predicate_first():
    texts = RuleBackend().complete(CompletionRequest(prompt=QUESTION_PROMPT, n=2))
    assert len(texts) == 2
    assert texts[0] == "contains a question mark"
    assert len(set(texts)) == 2


def test_rule_complete_unparseable_prompt():
    with pytest.raises(UnparseablePromptError):
        RuleBackend().complete(CompletionRequest(prompt="tell me a story"))


def test_parse_prompt_groups_rejects_unnumbered_line_in_group():
    prompt = (
        "Group 0:\n1. first line\ncontinued here\n2. second\n\n"
        "Group 1:\n1. other side\n\nCompared to group 0, each sentence from group 1"
    )
    with pytest.raises(UnparseablePromptError, match="continued here"):
        _parse_prompt_groups(prompt)


def _judge(s, a, b):
    return RuleBackend().judge(
        JudgmentRequest(
            question=f"Is it true that sentence A {s}?",
            context=f"A: {a}\nB: {b}",
        )
    )


def test_rule_judge_yes_no():
    assert _judge("contains a question mark", "Is it?", "It is.") == "yes"
    assert _judge("contains a question mark", "It is.", "Is it?") == "no"


def test_rule_judge_tie_is_no():
    assert _judge("contains a question mark", "Is it?", "Really?") == "no"
    assert _judge("contains a question mark", "plain", "also plain") == "no"


def test_rule_judge_unknown_on_bad_input():
    assert _judge("is written in morse code", "a", "b") == "unknown"
    backend = RuleBackend()
    unknown_q = backend.judge(
        JudgmentRequest(question="What is sentence A about?", context="A: x\nB: y")
    )
    assert unknown_q == "unknown"
    bad_ctx = backend.judge(
        JudgmentRequest(
            question="Is it true that sentence A contains a question mark?",
            context="no markers here",
        )
    )
    assert bad_ctx == "unknown"


# Pieces that make some predicate hold, plus line breaks and the context's
# own separator, mixed with arbitrary Unicode.
_FRAGMENTS = [
    "?", "!", "zebra", "ZEBRA", "https://x.io", "not", "can't", "I", "my", "7", "²",
    "٣", "İ", ":)", "walked", "will", "we'll", '"', "$", "euros", "...", "…", ",",
    ";", "(aside)", "you", "Hello", "#tag", "a@b.org", "etc.", "rain", "\n", "B: ",
    "\nB: ", "A: ",
]
_memo_text = st.lists(
    st.sampled_from(_FRAGMENTS) | st.text(max_size=8), min_size=1, max_size=8
).map(" ".join)


@settings(max_examples=150, derandomize=True, database=None)
@given(pred=st.sampled_from(PREDICATES), a=_memo_text, b=_memo_text)
def test_rule_judge_equals_direct_scores_cold_warm_and_evicted(pred, a, b):
    a, b = one_line(a), one_line(b)
    expected = {q.description: "yes" if q.score(a) > q.score(b) else "no" for q in PREDICATES}
    _score_rows.clear()
    assert _judge(pred.description, a, b) == expected[pred.description]  # cold
    for s, answer in expected.items():  # warm, the same texts memoized under each predicate
        assert _judge(s, a, b) == answer
    for i in range(SCORE_MEMO_TEXTS + 1):
        _score("question", f"filler {i}")
    assert len(_score_rows) == SCORE_MEMO_TEXTS
    assert _judge(pred.description, a, b) == expected[pred.description]  # after evictions
    assert len(_score_rows) <= SCORE_MEMO_TEXTS


def _reference_ranking(texts0, texts1):
    group0 = [one_line(t) for t in texts0]
    group1 = [one_line(t) for t in texts1]

    def separation(pred):
        mean1 = sum(pred.score(t) for t in group1) / len(group1)
        mean0 = sum(pred.score(t) for t in group0) / len(group0)
        return mean1 - mean0

    return [p.description for p in sorted(PREDICATES, key=lambda p: (-separation(p), p.id))]


_memo_group = st.lists(_memo_text.filter(bool), min_size=1, max_size=5)


@settings(max_examples=100, derandomize=True, database=None)
@given(texts1=_memo_group, texts0=_memo_group, warm=st.booleans())
def test_rule_complete_ranks_like_direct_scores(texts1, texts0, warm):
    if not warm:
        _score_rows.clear()
    set1 = [Sample(id=f"g1:{i}", text=t) for i, t in enumerate(texts1)]
    set0 = [Sample(id=f"g0:{i}", text=t) for i, t in enumerate(texts0)]
    req = CompletionRequest(prompt=build_prompt(set1, set0).rendered, n=len(PREDICATES))
    assert RuleBackend().complete(req) == _reference_ranking(texts0, texts1)
    assert RuleBackend().complete(req) == _reference_ranking(texts0, texts1)
    assert len(_score_rows) <= SCORE_MEMO_TEXTS


def test_score_missed_by_threads_at_once_is_computed_once(monkeypatch):
    question = predicates.get_predicate("question")
    release = threading.Event()
    calls = []

    def slow_score(text):
        calls.append(text)
        release.wait(timeout=5)  # the first caller holds the miss open
        return question.score(text)

    slow = dataclasses.replace(question, score=slow_score)
    monkeypatch.setitem(predicates._BY_ID, "question", slow)
    _score_rows.clear()
    results = []
    threads = [
        threading.Thread(target=lambda: results.append(_score("question", "is it?")))
        for _ in range(4)
    ]
    for thread in threads:
        thread.start()
    time.sleep(0.2)  # every thread has missed by now
    release.set()
    for thread in threads:
        thread.join()
    assert calls == ["is it?"]
    assert results == [question.score("is it?")] * 4
    assert _score("question", "is it") == question.score("is it")  # a later miss scores as before


def test_score_that_raises_leaves_the_memo_usable(monkeypatch):
    question = predicates.get_predicate("question")

    def broken(text):
        raise RuntimeError("score failed")

    monkeypatch.setitem(predicates._BY_ID, "question", dataclasses.replace(question, score=broken))
    _score_rows.clear()
    with pytest.raises(RuntimeError):
        _score("question", "why?")
    monkeypatch.setitem(predicates._BY_ID, "question", question)
    assert _score("question", "why?") == question.score("why?")


def test_threads_scoring_shared_texts_compute_each_score_once(monkeypatch):
    calls = Counter()
    lock = threading.Lock()

    def counted(pred):
        def score(text):
            with lock:
                calls[pred.id, text] += 1
            return pred.score(text)

        return dataclasses.replace(pred, score=score)

    for pred in PREDICATES:
        monkeypatch.setitem(predicates._BY_ID, pred.id, counted(pred))
    _score_rows.clear()
    texts = [f"text {i} with words?" for i in range(60)]
    wrong = []

    def work(start):
        for text in texts[start:] + texts[:start]:
            for pred in PREDICATES:
                if _score(pred.id, text) != pred.score(text):
                    wrong.append((pred.id, text))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(7 * k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert len(calls) == len(texts) * len(PREDICATES)
    assert set(calls.values()) == {1}


# ---------------------------------------------------------------- request queue


class _CpuShare:
    """Stands in for ``backends._cpu_share``: keeps each helper thread that asks.

    Answers ``share``, or measures it when ``share`` is None.
    """

    def __init__(self, measure):
        self.measure = measure
        self.share = None
        self.helpers = []

    def __call__(self, clock, emptied):
        self.helpers.append(threading.current_thread())
        return self.measure(clock, emptied) if self.share is None else self.share


@pytest.fixture
def cpu_share(monkeypatch):
    seam = _CpuShare(backends._cpu_share)
    monkeypatch.setattr(backends, "_cpu_share", seam)
    return seam


class _Metered(Backend):
    """Shaped like the benchmark's metering wrapper: a plain ``Backend`` delegating to ``inner``."""

    def __init__(self, inner):
        self.inner = inner
        self.id = inner.id

    def complete(self, req):
        return self.inner.complete(req)

    def judge(self, req):
        return self.inner.judge(req)


@pytest.mark.parametrize("wrap", ["bare", "recording", "metered"])
@pytest.mark.parametrize("in_flight", [2, 4])
def test_rule_backend_sends_every_request_from_the_calling_thread(
    tmp_path, monkeypatch, cpu_share, wrap, in_flight
):
    # The rule oracle computes under the interpreter lock, so its caller reads
    # as on a CPU all the time, whatever wraps it; the seam pins that reading.
    cpu_share.share = 1.0
    senders = []
    rule_complete, rule_judge = RuleBackend.complete, RuleBackend.judge

    def complete(self, req):
        senders.append(threading.get_ident())
        return rule_complete(self, req)

    def judge(self, req):
        senders.append(threading.get_ident())
        return rule_judge(self, req)

    monkeypatch.setattr(RuleBackend, "complete", complete)
    monkeypatch.setattr(RuleBackend, "judge", judge)
    backend = {
        "bare": RuleBackend,
        "recording": lambda: RecordingBackend(RuleBackend(), tmp_path / "t.jsonl"),
        "metered": lambda: _Metered(RuleBackend()),
    }[wrap]()
    task = generate_task("question", 0.8, 0.1, 40, seed=3)
    report = describe_pair(task.pair, RunConfig(n_pairs=50, in_flight=in_flight), backend, backend)
    assert report.ranked[0].hypothesis.s == "contains a question mark"
    assert len(senders) > 100
    assert set(senders) == {threading.get_ident()}
    # The proposer's queue and the verifier's each asked once per helper.
    assert len(cpu_share.helpers) == 2 * (in_flight - 1)


@pytest.mark.parametrize("in_flight", [2, 4])
def test_waiting_judge_has_in_flight_requests_out_at_once(cpu_share, in_flight):
    barrier = threading.Barrier(in_flight, timeout=10)

    class HeldJudge(WaitingJudge):
        def judge(self, req):
            answer = super().judge(req)
            barrier.wait()  # passes only while in_flight judgments are out
            return answer

    backend = HeldJudge()
    question = f"{QUESTION_PREFIX}contains a question mark?"
    reqs = [JudgmentRequest(question, f"A: {i}?\nB: {i}") for i in range(3 * in_flight)]
    answers = {}

    def send(i):
        answers[i] = backend.judge(reqs[i])

    send_queued(len(reqs), in_flight, send)
    assert answers == {i: "yes" for i in range(len(reqs))}
    assert len(backend.senders) == in_flight
    assert len(cpu_share.helpers) == in_flight - 1


def test_without_a_thread_cpu_clock_every_helper_joins(monkeypatch, cpu_share):
    monkeypatch.delattr(time, "pthread_getcpuclockid")
    barrier = threading.Barrier(3, timeout=10)
    senders = set()

    def send(i):
        senders.add(threading.get_ident())
        barrier.wait()  # passes only while 3 requests are out

    send_queued(6, 3, send)
    assert len(senders) == 3
    assert cpu_share.helpers == []


@pytest.mark.parametrize("share", [None, 0.0, 1.0], ids=["measured", "waiting", "computing"])
@pytest.mark.parametrize("fail", [False, True], ids=["finish", "auth-error"])
def test_no_helper_thread_outlives_the_queue(cpu_share, share, fail):
    cpu_share.share = share
    sent = []

    def send(i):
        sent.append(i)
        if fail:
            raise AuthError("bad key")

    if fail:
        with pytest.raises(AuthError):
            send_queued(8, 4, send)
        assert 1 <= len(sent) <= 4  # each worker stops at its first refusal
    else:
        send_queued(8, 4, send)
        assert sorted(sent) == list(range(8))
    assert len(cpu_share.helpers) == 3
    assert not any(thread.is_alive() for thread in cpu_share.helpers)


# ---------------------------------------------------------------- request hash


def test_request_hash_stable_and_sensitive():
    req = CompletionRequest(prompt="p", n=2, temperature=0.5)
    assert request_hash(req) == request_hash(CompletionRequest(prompt="p", n=2, temperature=0.5))
    assert len(request_hash(req)) == 64
    assert request_hash(req) != request_hash(CompletionRequest(prompt="q", n=2, temperature=0.5))
    assert request_hash(req) != request_hash(CompletionRequest(prompt="p", n=3, temperature=0.5))


_texts = st.text(max_size=40)


@settings(max_examples=200, derandomize=True, database=None)
@given(
    req=st.one_of(
        st.builds(
            CompletionRequest,
            prompt=_texts,
            n=st.integers(1, 5),
            max_tokens=st.integers(1, 64),
            temperature=st.floats(0, 2),
            stop=st.tuples(_texts),
            forbidden_tokens=st.tuples(_texts, _texts),
        ),
        st.builds(JudgmentRequest, question=_texts.filter(bool), context=_texts.filter(bool)),
    )
)
def test_request_hash_is_sha256_of_canonical_json_dumps(req):
    kind = "complete" if isinstance(req, CompletionRequest) else "judge"
    payload = {"kind": kind, **dataclasses.asdict(req)}
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    assert request_hash(req) == hashlib.sha256(blob.encode("utf-8")).hexdigest()


def test_request_hash_distinguishes_kinds():
    j = JudgmentRequest(question="q?", context="A: a\nB: b")
    c = CompletionRequest(prompt="q?")
    assert request_hash(j) != request_hash(c)


# ------------------------------------------------------------- http test rig


def _endpoint(url, **kwargs):
    defaults = dict(base_url=url, retries=3, backoff_s=0.001, timeout_s=5.0)
    defaults.update(kwargs)
    return EndpointConfig(**defaults)


def _completion_payload(body, text=" contains the word 'zebra'"):
    return {"choices": [{"text": text} for _ in range(body.get("n", 1))]}


def test_http_completions_route(http_server):
    url, script = http_server(lambda path, body: (200, _completion_payload(body)))
    backend = HttpBackend(_endpoint(url))
    req = CompletionRequest(
        prompt=QUESTION_PROMPT, n=2, max_tokens=32, temperature=0.7, stop=(",", ".", "\n")
    )
    texts = backend.complete(req)
    assert texts == [" contains the word 'zebra'"] * 2
    body = script.bodies[0]
    assert body["prompt"] == QUESTION_PROMPT
    assert body["n"] == 2
    assert body["max_tokens"] == 32
    assert body["temperature"] == 0.7
    assert body["stop"] == [",", ".", "\n"]


def test_http_chat_route(http_server):
    def behavior(path, body):
        assert path.endswith("/chat/completions")
        assert body["messages"][0]["role"] == "user"
        return (200, {"choices": [{"message": {"content": "yes"}}]})

    url, _ = http_server(behavior)
    backend = HttpBackend(_endpoint(url, route="chat"))
    answer = backend.judge(JudgmentRequest(question="Is it true that sentence A x?", context="A: a\nB: b"))
    assert answer == "yes"


def test_http_judge_prompt_layout(http_server):
    url, script = http_server(lambda path, body: (200, {"choices": [{"text": " no"}]}))
    backend = HttpBackend(_endpoint(url))
    backend.judge(
        JudgmentRequest(
            question="Is it true that sentence A contains a question mark?",
            context="A: alpha\nB: beta",
        )
    )
    body = script.bodies[0]
    assert body["prompt"] == "A: alpha\nB: beta\nIs it true that sentence A contains a question mark?"
    assert body["temperature"] == 0.0
    assert body["n"] == 1


_JREQ_BODY = JudgmentRequest(question="Is it true that sentence A x?", context="A: a\nB: b")


@pytest.mark.parametrize(
    "route, kind, path, expected",
    [
        (
            "completions",
            "complete",
            "/v1/completions",
            {
                "model": "m",
                "n": 2,
                "max_tokens": 32,
                "temperature": 0.7,
                "stop": [",", ".", "\n"],
                "prompt": QUESTION_PROMPT,
            },
        ),
        (
            "chat",
            "complete",
            "/v1/chat/completions",
            {
                "model": "m",
                "n": 2,
                "max_tokens": 32,
                "temperature": 0.7,
                "stop": [",", ".", "\n"],
                "messages": [{"role": "user", "content": QUESTION_PROMPT}],
            },
        ),
        (
            "completions",
            "judge",
            "/v1/completions",
            {
                "model": "m",
                "n": 1,
                "max_tokens": 4,
                "temperature": 0.0,
                "prompt": "A: a\nB: b\nIs it true that sentence A x?",
            },
        ),
        (
            "chat",
            "judge",
            "/v1/chat/completions",
            {
                "model": "m",
                "n": 1,
                "max_tokens": 4,
                "temperature": 0.0,
                "messages": [
                    {"role": "user", "content": "A: a\nB: b\nIs it true that sentence A x?"}
                ],
            },
        ),
    ],
)
def test_http_request_body(http_server, route, kind, path, expected):
    paths = []

    def behavior(p, body):
        paths.append(p)
        n = body["n"]
        if route == "chat":
            return 200, {"choices": [{"message": {"content": "yes"}} for _ in range(n)]}
        return 200, {"choices": [{"text": "yes"} for _ in range(n)]}

    url, script = http_server(behavior)
    backend = HttpBackend(_endpoint(url, route=route, model="m"))
    if kind == "complete":
        backend.complete(
            CompletionRequest(
                prompt=QUESTION_PROMPT, n=2, max_tokens=32, temperature=0.7, stop=(",", ".", "\n")
            )
        )
    else:
        backend.judge(_JREQ_BODY)
    (body,) = script.bodies
    assert list(body.items()) == list(expected.items())  # keys in order, too
    # The very bytes json.dumps writes with its default separators.
    assert script.raw_bodies == [json.dumps(expected).encode()]
    assert script.headers[0]["Content-Type"] == "application/json"
    assert script.headers[0]["User-Agent"] == f"distdescribe/{__version__}"
    assert paths == [path]


@pytest.mark.parametrize(
    "route, choice",
    [("completions", {"text": None}), ("chat", {"message": {"content": None}})],
)
def test_http_non_string_choice_text_is_a_provider_error(http_server, route, choice):
    url, _ = http_server(lambda path, body: (200, {"choices": [choice]}))
    backend = HttpBackend(_endpoint(url, route=route))
    with pytest.raises(ProviderError, match="malformed response body") as excinfo:
        backend.complete(CompletionRequest(prompt="p"))
    assert excinfo.value.status == 200
    # The verifier scores the failed judgment as a counted abstention.
    verifier = Verifier(backend)
    assert verifier.judge("x", Sample("a:0", "a"), Sample("b:0", "b")) == ABSTAIN
    assert verifier.failed_count == 1


def test_http_rate_limited_after_exact_retries(http_server):
    url, script = http_server(lambda path, body: (429, {"error": "slow down"}))
    backend = HttpBackend(_endpoint(url, retries=3))
    with pytest.raises(RateLimitedError) as excinfo:
        backend.complete(CompletionRequest(prompt="p"))
    assert excinfo.value.attempts == 3
    assert script.hits == 3


def test_http_server_error_then_success(http_server):
    state = {"n": 0}

    def behavior(path, body):
        state["n"] += 1
        if state["n"] <= 2:
            return (500, {"error": "boom"})
        return (200, _completion_payload(body))

    url, script = http_server(behavior)
    backend = HttpBackend(_endpoint(url, retries=3))
    texts = backend.complete(CompletionRequest(prompt="p"))
    assert texts == [" contains the word 'zebra'"]
    assert script.hits == 3


def test_http_auth_error_no_retry(http_server):
    url, script = http_server(lambda path, body: (401, {"error": "who are you"}))
    backend = HttpBackend(_endpoint(url))
    with pytest.raises(AuthError):
        backend.complete(CompletionRequest(prompt="p"))
    assert script.hits == 1


def test_http_missing_credential_env(monkeypatch, http_server):
    url, script = http_server(lambda path, body: (200, _completion_payload(body)))
    monkeypatch.delenv("DISTDESCRIBE_TEST_KEY", raising=False)
    backend = HttpBackend(_endpoint(url, credential_env="DISTDESCRIBE_TEST_KEY"))
    with pytest.raises(AuthError):
        backend.complete(CompletionRequest(prompt="p"))
    assert script.hits == 0


def test_http_bearer_header_sent(monkeypatch, http_server):
    url, script = http_server(lambda path, body: (200, _completion_payload(body)))
    monkeypatch.setenv("DISTDESCRIBE_TEST_KEY", "sekrit")
    backend = HttpBackend(_endpoint(url, credential_env="DISTDESCRIBE_TEST_KEY"))
    backend.complete(CompletionRequest(prompt="p"))
    assert script.auth_headers[0] == "Bearer sekrit"


def test_http_client_error_no_retry(http_server):
    url, script = http_server(lambda path, body: (404, {"error": "nope"}))
    backend = HttpBackend(_endpoint(url))
    with pytest.raises(ProviderError) as excinfo:
        backend.complete(CompletionRequest(prompt="p"))
    assert excinfo.value.status == 404
    assert script.hits == 1


def test_http_malformed_success_body(http_server):
    url, _ = http_server(lambda path, body: (200, b"this is not json"))
    backend = HttpBackend(_endpoint(url))
    with pytest.raises(ProviderError):
        backend.complete(CompletionRequest(prompt="p"))


@pytest.mark.parametrize("base_url", ["localhost:8000/v1", "ftp://example/v1", "http:///v1"])
def test_http_base_url_must_name_an_http_host(base_url):
    with pytest.raises(ConfigError, match="base_url"):
        HttpBackend(_endpoint(base_url))


def _dead_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def test_http_unreachable_transport_error():
    backend = HttpBackend(_endpoint(f"http://127.0.0.1:{_dead_port()}/v1", retries=2))
    with pytest.raises(TransportError):
        backend.complete(CompletionRequest(prompt="p"))


@pytest.fixture
def netrc_for_localhost(tmp_path, monkeypatch):
    netrc = tmp_path / "netrc"
    netrc.write_text("machine 127.0.0.1 login someone password hunter2\n", encoding="utf-8")
    monkeypatch.setenv("NETRC", str(netrc))


def test_http_netrc_sends_no_credential(netrc_for_localhost, http_server):
    url, script = http_server(lambda path, body: (200, _completion_payload(body)))
    HttpBackend(_endpoint(url)).complete(CompletionRequest(prompt="p"))
    assert script.auth_headers == [None]


def test_http_netrc_does_not_replace_bearer(netrc_for_localhost, monkeypatch, http_server):
    url, script = http_server(lambda path, body: (200, _completion_payload(body)))
    monkeypatch.setenv("DISTDESCRIBE_TEST_KEY", "sekrit")
    backend = HttpBackend(_endpoint(url, credential_env="DISTDESCRIBE_TEST_KEY"))
    backend.complete(CompletionRequest(prompt="p"))
    assert script.auth_headers == ["Bearer sekrit"]


_PROXY_VARIABLES = (
    "http_proxy", "https_proxy", "all_proxy", "no_proxy",
    "HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY", "NO_PROXY",
)


def test_http_proxy_environment_read_at_construction(monkeypatch, http_server):
    url, script = http_server(lambda path, body: (200, _completion_payload(body)))
    for name in _PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("HTTP_PROXY", f"http://127.0.0.1:{_dead_port()}")
    proxied = HttpBackend(_endpoint(url, retries=2))
    with pytest.raises(TransportError):
        proxied.complete(CompletionRequest(prompt="p"))
    assert script.hits == 0

    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    with pytest.raises(TransportError):
        proxied.complete(CompletionRequest(prompt="p"))  # built before NO_PROXY was set
    assert HttpBackend(_endpoint(url)).complete(CompletionRequest(prompt="p"))
    assert script.hits == 1


# ------------------------------------------------------------ keep-alive


def _echo_prompt(path, body):
    return (200, {"choices": [{"text": body["prompt"]}]})


def test_http_sequential_requests_share_one_connection(http_server):
    url, script = http_server(_echo_prompt, keep_alive_s=2.0)
    backend = HttpBackend(_endpoint(url))
    for i in range(20):
        assert backend.complete(CompletionRequest(prompt=f"r{i}")) == [f"r{i}"]
    assert script.hits == 20
    assert script.connections == 1


def test_http_threads_share_one_backend(http_server):
    url, script = http_server(_echo_prompt, keep_alive_s=2.0)
    backend = HttpBackend(_endpoint(url))
    wrong: list[tuple[str, list[str]]] = []

    def worker(t):
        for i in range(25):
            prompt = f"t{t}-r{i}"
            texts = backend.complete(CompletionRequest(prompt=prompt))
            if texts != [prompt]:
                wrong.append((prompt, texts))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert script.hits == 200
    assert script.connections <= 8


def test_http_reconnects_after_server_drops_idle_connection(http_server):
    url, script = http_server(_echo_prompt, keep_alive_s=0.1)
    backend = HttpBackend(_endpoint(url, backoff_s=5.0))
    assert backend.complete(CompletionRequest(prompt="first")) == ["first"]
    time.sleep(0.3)  # the server has closed the idle connection by now
    started = time.perf_counter()
    assert backend.complete(CompletionRequest(prompt="second")) == ["second"]
    assert time.perf_counter() - started < 1.0  # no backoff sleep
    assert script.hits == 2
    assert script.connections == 2


def test_http_collected_backend_closes_its_idle_connections(http_server):
    url, script = http_server(_echo_prompt, keep_alive_s=2.0)
    backend = HttpBackend(_endpoint(url))
    assert backend.complete(CompletionRequest(prompt="p")) == ["p"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        del backend
        gc.collect()
    assert caught == []
    deadline = time.monotonic() + 1.0  # the server itself would wait 2 s
    while script.closed == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert (script.connections, script.closed) == (1, 1)


def test_http_connection_close_response_is_not_reused(http_server):
    def behavior(path, body):
        headers = {"Connection": "close"} if body["prompt"] == "first" else {}
        return 200, {"choices": [{"text": body["prompt"]}]}, headers

    url, script = http_server(behavior, keep_alive_s=2.0)
    backend = HttpBackend(_endpoint(url, backoff_s=5.0))
    for prompt in ("first", "second", "third"):
        assert backend.complete(CompletionRequest(prompt=prompt)) == [prompt]
    assert script.hits == 3
    assert script.connections == 2  # a new one for "second", kept for "third"


def test_http_proxy_receives_absolute_form_target(monkeypatch, http_server):
    targets = []

    def proxy(path, body):
        targets.append(path)
        return 200, _completion_payload(body)

    proxy_url, script = http_server(proxy)
    proxy_url = proxy_url.removesuffix("/v1")
    for name in _PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("http_proxy", proxy_url.replace("//", "//someone:p%40ss@"))
    monkeypatch.setenv("HTTPS_PROXY", proxy_url)
    target = f"127.0.0.1:{_dead_port()}"  # reachable only through the proxy
    backend = HttpBackend(_endpoint(f"http://{target}/v1"))
    tunneled = HttpBackend(_endpoint(f"https://{target}/v1", retries=1))
    for name in _PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)  # read at construction only
    assert backend.complete(CompletionRequest(prompt="p"))
    assert targets == [f"http://{target}/v1/completions"]
    assert script.headers[0]["Host"] == target
    credentials = base64.b64encode(b"someone:p@ss").decode()
    assert script.headers[0]["Proxy-Authorization"] == f"Basic {credentials}"
    # An https URL asks the proxy for a CONNECT tunnel, which this one refuses.
    with pytest.raises(TransportError, match="Tunnel connection failed: 501"):
        tunneled.complete(CompletionRequest(prompt="p"))
    assert script.hits == 1


@pytest.fixture
def tcp_server():
    """Start raw TCP endpoints: ``start(handle)`` runs ``handle(socket)`` per
    connection and returns the ``/v1`` base URL and a list of the connections."""
    servers = []

    def start(handle):
        accepted = []

        class Handler(socketserver.BaseRequestHandler):
            def handle(self):
                accepted.append(self.client_address)
                handle(self.request)

        server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Handler)
        server.daemon_threads = True
        threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        ).start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_address[1]}/v1", accepted

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


def _stall(sock):
    sock.recv(65536)
    time.sleep(0.5)  # past the client's timeout


def _reset_mid_body(sock):
    sock.recv(65536)
    sock.sendall(b'HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{"choices"')
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))  # RST


@pytest.mark.parametrize("failure", ["refused", "timeout", "reset"])
def test_http_transport_failures_retry_then_exit_3(
    failure, monkeypatch, tcp_server, zebra_task_files, tmp_path, capsys
):
    if failure == "refused":
        url, accepted = f"http://127.0.0.1:{_dead_port()}/v1", None
    else:
        url, accepted = tcp_server(_stall if failure == "timeout" else _reset_mid_body)
    backoffs = []  # the attempts followed by a backoff, which is skipped
    monkeypatch.setattr(HttpBackend, "_backoff", lambda _, attempt: backoffs.append(attempt) or 0)
    backend = HttpBackend(_endpoint(url, retries=3, timeout_s=0.1))
    with pytest.raises(TransportError):
        backend.complete(CompletionRequest(prompt="p"))
    assert backoffs == [1, 2]  # three attempts
    if accepted is not None:
        assert len(accepted) == 3  # each on a new connection

    # The proposer's request fails the same way: a backend error, exit 3.
    conf = tmp_path / "run.conf"
    settings = ["proposer.timeout_s = 0.1", "sets_per_percentile = 1", "percentiles = 100"]
    conf.write_text("\n".join([CONFIG_FORMAT, *settings]) + "\n", encoding="utf-8")
    d0, d1 = zebra_task_files
    argv = ["describe", "--d0", str(d0), "--d1", str(d1), "--config", str(conf)]
    rc = main(argv + ["--proposer-backend", "http", "--proposer-base-url", url])
    assert rc == 3
    assert "backend error" in capsys.readouterr().err


def test_https_verifies_the_certificate_and_its_host(monkeypatch, http_server):
    url, script = http_server(_echo_prompt, tls=True)
    for name in ("REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE", "SSL_CERT_FILE", "SSL_CERT_DIR"):
        monkeypatch.delenv(name, raising=False)
    untrusted = HttpBackend(_endpoint(url, retries=1))
    monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(TLS_CERT))
    trusted = HttpBackend(_endpoint(url))
    # The certificate names 127.0.0.1, not localhost.
    wrong_host = HttpBackend(_endpoint(url.replace("127.0.0.1", "localhost"), retries=1))
    with pytest.raises(TransportError, match="CERTIFICATE_VERIFY_FAILED"):
        untrusted.complete(CompletionRequest(prompt="p"))
    assert trusted.complete(CompletionRequest(prompt="p")) == ["p"]
    with pytest.raises(TransportError, match="mismatch"):
        wrong_host.complete(CompletionRequest(prompt="p"))
    assert script.hits == 1


def test_import_loads_no_requests_or_urllib3():
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    code = "import sys, distdescribe; print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


# ------------------------------------------------------------ record / replay


def test_record_then_replay_round_trip(tmp_path):
    store = tmp_path / "transcript.jsonl"
    recorder = RecordingBackend(RuleBackend(), store)
    creq = CompletionRequest(prompt=QUESTION_PROMPT, n=2)
    jreq = JudgmentRequest(
        question="Is it true that sentence A contains a question mark?",
        context="A: Is it?\nB: It is.",
    )
    completions = recorder.complete(creq)
    answer = recorder.judge(jreq)

    replay = ReplayBackend(store)
    assert replay.complete(creq) == completions
    assert replay.judge(jreq) == answer


def test_replay_missing_store(tmp_path):
    with pytest.raises(ReplayMissError):
        ReplayBackend(tmp_path / "absent.jsonl")


def test_replay_unknown_request(tmp_path):
    store = tmp_path / "transcript.jsonl"
    RecordingBackend(RuleBackend(), store).complete(CompletionRequest(prompt=QUESTION_PROMPT))
    replay = ReplayBackend(store)
    with pytest.raises(ReplayMissError):
        replay.complete(CompletionRequest(prompt=QUESTION_PROMPT, n=2))


def test_replay_fifo_then_repeat_last(tmp_path):
    req = JudgmentRequest(question="Is it true that sentence A x?", context="A: a\nB: b")
    h = request_hash(req)
    store = tmp_path / "transcript.jsonl"
    rows = [
        {"kind": "judge", "hash": h, "response": "yes"},
        {"kind": "judge", "hash": h, "response": "no"},
    ]
    store.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    replay = ReplayBackend(store)
    assert replay.judge(req) == "yes"
    assert replay.judge(req) == "no"
    assert replay.judge(req) == "no"  # last response repeats


JREQ = JudgmentRequest(
    question="Is it true that sentence A contains a question mark?",
    context="A: Is it?\nB: It is.",
)


def test_replay_skips_torn_final_line(tmp_path):
    store = tmp_path / "transcript.jsonl"
    answer = RecordingBackend(RuleBackend(), store).judge(JREQ)
    with open(store, "ab") as fh:
        fh.write(b'{"hash": "0f3a')  # a crash mid-append
    with pytest.warns(UserWarning, match=r"transcript\.jsonl:2: skipping torn final line"):
        replay = ReplayBackend(store)
    assert replay.judge(JREQ) == answer


@pytest.mark.parametrize(
    "row",
    [
        {"kind": "judge", "response": "yes"},
        {"kind": "judge", "hash": "0f3a"},
        {"kind": "complete", "hash": "0f3a", "response": "is longer"},  # not one per character
        {"kind": "complete", "hash": "0f3a", "response": ["is longer", None]},
        {"kind": "judge", "hash": "0f3a", "response": ["yes"]},  # not served as its str()
        {"hash": "0f3a", "response": "yes"},  # no kind to check the response against
    ],
)
def test_replay_rejects_unusable_row(tmp_path, row):
    store = tmp_path / "transcript.jsonl"
    RecordingBackend(RuleBackend(), store).judge(JREQ)
    with open(store, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row) + "\n")
    with pytest.raises(CorruptStoreError, match=r"transcript\.jsonl:2: a row needs"):
        ReplayBackend(store)


def test_replay_rejects_corruption_mid_file(tmp_path):
    store = tmp_path / "transcript.jsonl"
    RecordingBackend(RuleBackend(), store).judge(JREQ)
    store.write_text("[1, 2]\n" + store.read_text(encoding="utf-8"), encoding="utf-8")
    with pytest.raises(CorruptStoreError, match=r"transcript\.jsonl:1"):
        ReplayBackend(store)


@pytest.mark.parametrize(
    "tail, kept",
    [
        (b'{"hash": "0f3a', 0),  # torn by a crash: cut off
        (b'{"hash": "0f3a", "kind": "judge", "response": "no"}', 1),  # whole row: kept
    ],
)
def test_recording_starts_on_a_fresh_line(tmp_path, tail, kept):
    store = tmp_path / "transcript.jsonl"
    recorder = RecordingBackend(RuleBackend(), store)
    answer = recorder.judge(JREQ)
    with open(store, "ab") as fh:
        fh.write(tail)
    creq = CompletionRequest(prompt=QUESTION_PROMPT, n=2)
    completions = recorder.complete(creq)

    lines = store.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2 + kept
    assert all(json.loads(line) for line in lines)
    replay = ReplayBackend(store)
    assert replay.judge(JREQ) == answer
    assert replay.complete(creq) == completions


def test_make_backend_selectors(tmp_path):
    assert isinstance(make_backend("rule"), RuleBackend)
    assert isinstance(make_backend("http", EndpointConfig()), HttpBackend)
    store = tmp_path / "t.jsonl"
    store.write_text("", encoding="utf-8")
    assert isinstance(make_backend(f"replay:{store}"), ReplayBackend)
    with pytest.raises(ValueError):
        make_backend("carrier-pigeon")
