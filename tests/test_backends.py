"""Tests for rule, HTTP, recording, and replay backends."""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
from contextlib import closing

import pytest

from distdescribe.backends import (
    CompletionRequest,
    HttpBackend,
    JudgmentRequest,
    RecordingBackend,
    ReplayBackend,
    RuleBackend,
    _parse_prompt_groups,
    make_backend,
    request_hash,
)
from distdescribe.config import EndpointConfig
from distdescribe.corpus import Sample
from distdescribe.errors import (
    AuthError,
    CorruptStoreError,
    ProviderError,
    RateLimitedError,
    ReplayMissError,
    TransportError,
    UnparseablePromptError,
)
from distdescribe.verifier import ABSTAIN, Verifier

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


# ---------------------------------------------------------------- request hash


def test_request_hash_stable_and_sensitive():
    req = CompletionRequest(prompt="p", n=2, temperature=0.5)
    assert request_hash(req) == request_hash(CompletionRequest(prompt="p", n=2, temperature=0.5))
    assert len(request_hash(req)) == 64
    assert request_hash(req) != request_hash(CompletionRequest(prompt="q", n=2, temperature=0.5))
    assert request_hash(req) != request_hash(CompletionRequest(prompt="p", n=3, temperature=0.5))


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
    recorder.close()

    replay = ReplayBackend(store)
    assert replay.complete(creq) == completions
    assert replay.judge(jreq) == answer


def test_replay_missing_store(tmp_path):
    with pytest.raises(ReplayMissError):
        ReplayBackend(tmp_path / "absent.jsonl")


def test_replay_unknown_request(tmp_path):
    store = tmp_path / "transcript.jsonl"
    with closing(RecordingBackend(RuleBackend(), store)) as recorder:
        recorder.complete(CompletionRequest(prompt=QUESTION_PROMPT))
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
    with closing(RecordingBackend(RuleBackend(), store)) as recorder:
        answer = recorder.judge(JREQ)
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
    with closing(RecordingBackend(RuleBackend(), store)) as recorder:
        recorder.judge(JREQ)
    with open(store, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row) + "\n")
    with pytest.raises(CorruptStoreError, match=r"transcript\.jsonl:2: a row needs"):
        ReplayBackend(store)


def test_replay_rejects_corruption_mid_file(tmp_path):
    store = tmp_path / "transcript.jsonl"
    with closing(RecordingBackend(RuleBackend(), store)) as recorder:
        recorder.judge(JREQ)
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
    recorder.close()

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
