"""Completion and judgment backends.

Implementations of the same two-method interface:

* ``HttpBackend`` — OpenAI-compatible remote endpoint (completions or chat
  route) with retries and backoff.
* ``RuleBackend`` — deterministic oracle built on the predicate registry;
  proposes by empirical separation and judges by exact score comparison.
* ``RecordingBackend`` wraps any backend and appends every request/response
  pair to a JSONL transcript (framed by ``store``); ``ReplayBackend``
  serves a transcript back for offline reproduction of a recorded run.

Judgments and completions are cached above this layer, by
``store.JudgmentCache``.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import http.client
import json
import os
import re
import select
import ssl
import threading
import time
import urllib.parse
import urllib.request
import weakref
from collections import OrderedDict, deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import __version__
from .config import EndpointConfig
from .errors import (
    AuthError,
    ConfigError,
    CorruptStoreError,
    ProviderError,
    RateLimitedError,
    ReplayMissError,
    TransportError,
    UnparseablePromptError,
)
from .predicates import PREDICATES, get_predicate, parse_description
from .store import append_jsonl, is_string_list, read_jsonl

QUESTION_PREFIX = "Is it true that sentence A "


def one_line(text: str) -> str:
    # Prompts and judgment contexts are line-based: a newline inside a sample
    # would read back as a group header, a new numbered sample, or "B: ".
    return text.replace("\n", " ")


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str
    n: int = 1
    max_tokens: int = 32
    temperature: float = 0.7
    stop: tuple[str, ...] = ()
    forbidden_tokens: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {self.max_tokens}")


@dataclass(frozen=True)
class JudgmentRequest:
    question: str
    context: str

    def __post_init__(self) -> None:
        if not self.question or not self.context:
            raise ValueError("question and context must both be non-empty")


# json.dumps(payload, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
# without an encoder per call: a cached describe hashes each of its requests.
_encode_canonical = json.JSONEncoder(
    sort_keys=True, ensure_ascii=False, separators=(",", ":")
).encode


def request_hash(req: CompletionRequest | JudgmentRequest) -> str:
    """Stable digest of the full canonicalized request body."""
    kind = "complete" if isinstance(req, CompletionRequest) else "judge"
    # vars, not asdict: the fields are strings, numbers and tuples of strings.
    blob = _encode_canonical({"kind": kind, **vars(req)})
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class Backend:
    """Interface shared by all backends; ``id`` keys caches and reports."""

    id: str = "abstract"

    def complete(self, req: CompletionRequest) -> list[str]:
        raise NotImplementedError

    def judge(self, req: JudgmentRequest) -> str:
        raise NotImplementedError


HELPER_WAIT_S = 0.002


def _cpu_share(clock: int, emptied: threading.Event) -> float:
    """The share of the next ``HELPER_WAIT_S`` that the thread owning ``clock`` spends on a CPU.

    ``clock`` is a thread's CPU clock id; the share is measured over less
    time if ``emptied`` is set first.
    """
    wall, cpu = time.perf_counter(), time.clock_gettime(clock)
    emptied.wait(HELPER_WAIT_S)
    return (time.clock_gettime(clock) - cpu) / max(time.perf_counter() - wall, 1e-9)


def send_queued(n: int, in_flight: int, send: Callable[[int], None]) -> None:
    """Call ``send(i)`` for each i in ``range(n)``, at most ``in_flight`` requests at a time.

    The items go through one FIFO queue, which the calling thread drains.
    ``min(in_flight, n) - 1`` helper threads are started; each waits about
    2 ms (``HELPER_WAIT_S``, less if the queue empties first), then joins
    the queue only if the calling thread was on a CPU for less than half
    of that time: its request is waiting, on a server or a blocked call,
    so another request can go out beside it.  Otherwise the helper leaves
    without sending: a request that computes under the interpreter lock,
    as the rule oracle's do, cannot overlap another, and a second thread
    would only slow both.  Where the platform has no per-thread CPU clock,
    every helper joins.  With no item no thread is started.  The first
    exception raised by ``send`` empties the queue, so no request is sent
    after it, and propagates once every helper is done.
    """
    queue = deque(range(n))
    errors: list[BaseException] = []
    emptied = threading.Event()

    def work() -> None:
        try:
            while queue:
                try:
                    i = queue.popleft()
                except IndexError:  # another worker took the last one
                    break
                send(i)
        except BaseException as exc:
            queue.clear()
            errors.append(exc)
        emptied.set()

    if hasattr(time, "pthread_getcpuclockid"):
        clock = time.pthread_getcpuclockid(threading.get_ident())

        def assist() -> None:
            if _cpu_share(clock, emptied) < 0.5:
                work()

    else:
        assist = work
    workers = [threading.Thread(target=assist) for _ in range(min(in_flight, n) - 1)]
    for worker in workers:
        worker.start()
    try:
        work()
        for worker in workers:
            worker.join()
    finally:
        queue.clear()  # interrupted while joining: no request is sent after it
    if errors:
        raise errors[0]


# ---------------------------------------------------------------------------
# Rule oracle

_NUMBERED_LINE = re.compile(r"^\d+\. (.*)$")


def _parse_prompt_groups(prompt: str) -> tuple[list[str], list[str]]:
    """Recover the two sample groups from a rendered proposer prompt."""
    lines = prompt.split("\n")
    groups: dict[str, list[str]] = {}
    current: list[str] | None = None
    for line in lines:
        if line == "Group 0:":
            current = groups.setdefault("0", [])
        elif line == "Group 1:":
            current = groups.setdefault("1", [])
        elif line == "":
            current = None
        elif current is not None:
            # Prompts render one sample per line, so every group line is numbered.
            match = _NUMBERED_LINE.match(line)
            if match is None:
                raise UnparseablePromptError(f"unnumbered line inside a group: {line!r}")
            current.append(match.group(1))
    if not groups.get("0") or not groups.get("1"):
        raise UnparseablePromptError(
            "prompt does not contain both sample groups in the pinned layout"
        )
    return groups["0"], groups["1"]


SCORE_MEMO_TEXTS = 4096

# Each predicate's slot in a score row.
_SLOTS = {p.id: i for i, p in enumerate(PREDICATES)}

# text -> its score row: the text's score under each predicate, in _SLOTS
# order, None until first asked for.  At most SCORE_MEMO_TEXTS texts; the
# text added first is dropped first.
_score_rows: OrderedDict[str, list[float | None]] = OrderedDict()

# (predicate id, text) -> the thread scoring it, while it does.
# Not one lock: threads queue on it under the GIL, which halved large-corpus describes/s.
_scoring: dict[tuple[str, str], int] = {}


def _score(predicate_id: str, text: str) -> float:
    """The score of ``text`` under the predicate ``predicate_id``, memoized in its row."""
    row = _score_rows.get(text)
    if row is None:
        row = _score_rows.setdefault(text, [None] * len(_SLOTS))  # atomic, as is popitem
        if len(_score_rows) > SCORE_MEMO_TEXTS:
            _score_rows.popitem(last=False)
    slot = _SLOTS[predicate_id]
    score = row[slot]
    if score is not None:
        return score
    # Threads that miss one score at once compute it once: each claims
    # (predicate, text) in _scoring (dict.setdefault is atomic), waiting
    # while another thread holds it, and reads the row again holding the
    # claim, so the first thread computes the score and the others find it.
    # Hits take no claim, and a miss no other thread shares never waits.
    key = (predicate_id, text)
    me = threading.get_ident()
    while _scoring.setdefault(key, me) != me:
        time.sleep(1e-6)
    try:
        score = row[slot]
        if score is None:
            score = row[slot] = get_predicate(predicate_id).score(text)
        return score
    finally:
        del _scoring[key]


@functools.lru_cache(maxsize=256)
def _question_predicate(question: str) -> str | None:
    """The id of the predicate a judgment question asks about, or None."""
    question = question.strip()
    if not question.startswith(QUESTION_PREFIX) or not question.endswith("?"):
        return None
    predicate = parse_description(question[len(QUESTION_PREFIX) : -1])
    return predicate.id if predicate is not None else None


class RuleBackend(Backend):
    """Deterministic stand-in backed by the predicate registry.

    A judgment compares the two texts' predicate scores, and a completion
    ranks every predicate by its mean score per group, so one describe asks
    for the same text's score many times.  Scores are pure functions of the
    text, so they are memoized in one module-level table shared by every
    instance and both methods: one row per text, holding its score under
    each predicate, filled as each is first asked for.  The table keeps the
    rows of the last ``SCORE_MEMO_TEXTS`` (4,096) texts added, the oldest
    dropped first.  Threads that miss one (predicate, text) at once compute
    its score once.  It memoizes scores, not judgments: answers and request
    counts are the same as without it, and the judgment cache stays
    ``store.JudgmentCache``.  Each question is mapped to its predicate
    once, in a memo of the last 256 questions.
    """

    id = "rule"

    def complete(self, req: CompletionRequest) -> list[str]:
        group0, group1 = _parse_prompt_groups(req.prompt)

        def separation(pred) -> float:
            mean1 = sum(_score(pred.id, t) for t in group1) / len(group1)
            mean0 = sum(_score(pred.id, t) for t in group0) / len(group0)
            return mean1 - mean0

        ranked = sorted(PREDICATES, key=lambda p: (-separation(p), p.id))
        return [p.description for p in ranked[: req.n]]

    def judge(self, req: JudgmentRequest) -> str:
        predicate_id = _question_predicate(req.question)
        if predicate_id is None:
            return "unknown"
        if not req.context.startswith("A: ") or "\nB: " not in req.context:
            return "unknown"
        a_text, _, b_text = req.context[len("A: ") :].partition("\nB: ")
        return "yes" if _score(predicate_id, a_text) > _score(predicate_id, b_text) else "no"


# ---------------------------------------------------------------------------
# HTTP backend

USER_AGENT = f"distdescribe/{__version__}"


def _excerpt(text: str, limit: int = 200) -> str:
    return " ".join(text.split())[:limit]


def _readable(sock) -> bool:
    """Whether ``sock`` has bytes or an end of stream waiting, without blocking."""
    if hasattr(select, "poll"):  # unlike select(), no limit on descriptor numbers
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


def _close_all(connections: list[http.client.HTTPConnection]) -> None:
    for connection in connections:
        connection.close()
    connections.clear()


class HttpBackend(Backend):
    """OpenAI-compatible endpoint speaking either completions or chat.

    Requests go over a pool of keep-alive ``http.client`` connections to the
    one host ``base_url`` names, shared by every thread that uses the
    backend: a request takes the most recently used idle connection, or
    opens one, and puts it back once the response body is read.  An idle
    connection the server has closed is dropped before use, so a server's
    keep-alive timeout costs no failed attempt.  The idle connections are
    closed when the backend is garbage-collected.
    """

    def __init__(self, endpoint: EndpointConfig):
        self.endpoint = endpoint
        self.id = f"http:{endpoint.route}:{endpoint.model}"
        url = urllib.parse.urlsplit(endpoint.base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ConfigError(f"base_url must be an http or https URL, got {endpoint.base_url!r}")
        https = url.scheme == "https"
        host, port = url.hostname, url.port or (443 if https else 80)
        netloc = url.netloc.rpartition("@")[2]
        self._headers = {"Content-Type": "application/json", "User-Agent": USER_AGENT}
        self._target = url.path.rstrip("/")  # each request's target, before its route
        self._tunnel: tuple | None = None
        # The proxy and CA-bundle variables are read once, here.  netrc and
        # credentials in the URL are never read: the only credential sent is
        # credential_env's token.
        proxies = urllib.request.getproxies()
        proxy = proxies.get(url.scheme) or proxies.get("all")
        if proxy and not urllib.request.proxy_bypass(netloc):
            # The proxy itself is spoken to in plain HTTP, as urllib.request does.
            proxy_url = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            proxy_headers = {}
            if proxy_url.username is not None:
                user = urllib.parse.unquote(proxy_url.username)
                password = urllib.parse.unquote(proxy_url.password or "")
                token = base64.b64encode(f"{user}:{password}".encode()).decode()
                proxy_headers["Proxy-Authorization"] = f"Basic {token}"
            if https:
                self._tunnel = (host, port, proxy_headers)  # CONNECT through the proxy
            else:
                self._target = f"http://{netloc}{self._target}"  # absolute form
                self._headers.update(proxy_headers)
            host, port = proxy_url.hostname, proxy_url.port or 80
        if https:
            cafile = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
            context = ssl.create_default_context(cafile=cafile or None)
            self._connect = functools.partial(
                http.client.HTTPSConnection, host, port, timeout=endpoint.timeout_s, context=context
            )
        else:
            self._connect = functools.partial(
                http.client.HTTPConnection, host, port, timeout=endpoint.timeout_s
            )
        self._idle: list[http.client.HTTPConnection] = []  # last in, first out
        self._lock = threading.Lock()
        weakref.finalize(self, _close_all, self._idle)

    def _checkout(self) -> http.client.HTTPConnection:
        """An idle connection the server has not closed, else a new one."""
        while True:
            with self._lock:
                if not self._idle:
                    break
                connection = self._idle.pop()
            # Idle, a connection has nothing to read unless the server closed it.
            if not _readable(connection.sock):
                return connection
            connection.close()
        connection = self._connect()
        if self._tunnel is not None:
            connection.set_tunnel(*self._tunnel)
        return connection

    def _post(self, path: str, data: bytes, headers: dict[str, str]) -> tuple[int, bytes]:
        """Send one POST and read its whole response: the status and the body."""
        connection = self._checkout()
        try:
            connection.request("POST", self._target + path, data, headers)
            response = connection.getresponse()
            payload = response.read()
        except BaseException:
            connection.close()  # its state is unknown: never reused
            raise
        if response.will_close:
            connection.close()
        else:
            with self._lock:
                self._idle.append(connection)
        return response.status, payload

    def _request_headers(self) -> dict[str, str]:
        name = self.endpoint.credential_env
        if not name:
            return self._headers
        token = os.environ.get(name)
        if token is None:
            raise AuthError(f"credential environment variable {name} is not set")
        return {**self._headers, "Authorization": f"Bearer {token}"}

    def _request(self, path: str, body: dict) -> dict:
        url = self.endpoint.base_url.rstrip("/") + path
        attempts = self.endpoint.retries
        headers = self._request_headers()
        data = json.dumps(body).encode()
        for attempt in range(1, attempts + 1):
            try:
                status, payload = self._post(path, data, headers)
            except (OSError, http.client.HTTPException) as exc:  # ssl and timeouts included
                if attempt < attempts:
                    time.sleep(self._backoff(attempt))
                    continue
                raise TransportError(f"{url}: {exc!r}") from exc
            if status == 200:
                try:
                    return json.loads(payload)
                except ValueError:
                    raise ProviderError(200, _excerpt(payload.decode("utf-8", "replace"))) from None
            if status in (401, 403):
                raise AuthError(f"{url}: HTTP {status}")
            if (status == 429 or status >= 500) and attempt < attempts:
                time.sleep(self._backoff(attempt))
                continue
            text = payload.decode("utf-8", "replace")
            if status == 429:
                raise RateLimitedError(attempts, _excerpt(text))
            raise ProviderError(status, _excerpt(text))

    def _backoff(self, attempt: int) -> float:
        return self.endpoint.backoff_s * (2 ** (attempt - 1))

    def _choices(
        self, prompt: str, n: int, max_tokens: int, temperature: float, stop: tuple[str, ...] = ()
    ) -> list[str]:
        """Post one request on the configured route; the text of every choice."""
        body = {
            "model": self.endpoint.model,
            "n": n,
            "max_tokens": max_tokens,
            "temperature": temperature,
        }
        if stop:
            body["stop"] = list(stop)
        chat = self.endpoint.route == "chat"
        if chat:
            body["messages"] = [{"role": "user", "content": prompt}]
        else:
            body["prompt"] = prompt
        data = self._request("/chat/completions" if chat else "/completions", body)
        try:
            texts = [c["message"]["content"] if chat else c["text"] for c in data["choices"]]
        except (KeyError, TypeError) as exc:
            raise ProviderError(200, f"malformed response body: {exc}") from None
        if not all(isinstance(text, str) for text in texts):
            raise ProviderError(200, "malformed response body: a choice's text is not a string")
        return texts

    def complete(self, req: CompletionRequest) -> list[str]:
        # Forbidden tokens are not translated to a provider bias list (that
        # would require the provider's tokenizer); the proposer enforces the
        # list post-hoc on every completion.
        return self._choices(req.prompt, req.n, req.max_tokens, req.temperature, req.stop)

    def judge(self, req: JudgmentRequest) -> str:
        texts = self._choices(f"{req.context}\n{req.question}", 1, 4, 0.0)
        if not texts:
            raise ProviderError(200, "response carried zero choices")
        return texts[0]


# ---------------------------------------------------------------------------
# Transcripts


def _usable_transcript_row(row: dict) -> bool:
    kind, response = row.get("kind"), row.get("response")
    if kind == "complete":
        typed = is_string_list(response)
    else:
        typed = kind == "judge" and isinstance(response, str)
    return typed and isinstance(row.get("hash"), str)


class RecordingBackend(Backend):
    """Pass-through wrapper that appends every request/response pair to a transcript."""

    def __init__(self, inner: Backend, store_path: str | Path):
        self.inner = inner
        self.id = inner.id
        self.path = Path(store_path)
        self._lock = threading.Lock()

    def _record(self, kind: str, req, response):
        row = {"kind": kind, "hash": request_hash(req), "response": response}
        with self._lock:
            append_jsonl(self.path, [row])
        return response

    def complete(self, req: CompletionRequest) -> list[str]:
        return self._record("complete", req, self.inner.complete(req))

    def judge(self, req: JudgmentRequest) -> str:
        return self._record("judge", req, self.inner.judge(req))


class ReplayBackend(Backend):
    """Serves recorded responses only; never touches the network.

    Responses recorded for the same request hash are served in recording
    order; once only one remains it is served repeatedly, so replaying a
    run that cached duplicate requests still works.
    """

    id = "replay"

    def __init__(self, store_path: str | Path):
        self.store_path = Path(store_path)
        if not self.store_path.exists():
            raise ReplayMissError(f"transcript not found: {self.store_path}")
        self._by_hash: dict[str, deque] = {}
        with open(self.store_path, "rb") as fh:
            for lineno, row in read_jsonl(fh):
                if not _usable_transcript_row(row):
                    need = 'a row needs a "hash" and a "response" of its "kind" (complete or judge)'
                    raise CorruptStoreError(f"{self.store_path}:{lineno}: {need}")
                self._by_hash.setdefault(row["hash"], deque()).append(row["response"])
        self._lock = threading.Lock()

    def _serve(self, req) -> object:
        h = request_hash(req)
        with self._lock:
            queue = self._by_hash.get(h)
            if not queue:
                raise ReplayMissError(
                    f"no recorded response for request {h[:12]}… in {self.store_path}"
                )
            if len(queue) > 1:
                return queue.popleft()
            return queue[0]

    def complete(self, req: CompletionRequest) -> list[str]:
        return list(self._serve(req))

    def judge(self, req: JudgmentRequest) -> str:
        return self._serve(req)


def make_backend(
    selector: str,
    endpoint: EndpointConfig | None = None,
) -> Backend:
    """Build a backend from a CLI-style selector: http, rule, replay:<path>."""
    if selector == "rule":
        return RuleBackend()
    if selector == "http":
        return HttpBackend(endpoint or EndpointConfig())
    if selector.startswith("replay:"):
        return ReplayBackend(selector.split(":", 1)[1])
    raise ValueError(f"unknown backend selector {selector!r}")
