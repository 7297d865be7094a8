"""Completion and judgment backends.

Implementations of the same two-method interface:

* ``HttpBackend`` — OpenAI-compatible remote endpoint (completions or chat
  route) with retries and backoff.
* ``RuleBackend`` — deterministic oracle built on the predicate registry;
  proposes by empirical separation and judges by exact score comparison.
* ``RecordingBackend`` wraps any backend and appends every request/response
  pair to a JSONL transcript; ``ReplayBackend`` serves a transcript back
  for offline reproduction of a recorded run.

Judgments are memoized above this layer, by ``verifier.JudgmentCache``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
import warnings
from collections import deque
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator

import requests

from .config import EndpointConfig
from .errors import (
    AuthError,
    CorruptStoreError,
    ProviderError,
    RateLimitedError,
    ReplayMissError,
    TransportError,
    UnparseablePromptError,
)
from .predicates import PREDICATES, parse_description

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


def request_hash(req: CompletionRequest | JudgmentRequest) -> str:
    """Stable digest of the full canonicalized request body."""
    kind = "complete" if isinstance(req, CompletionRequest) else "judge"
    payload = {"kind": kind, **asdict(req)}
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class Backend:
    """Interface shared by all backends; ``id`` keys caches and reports."""

    id: str = "abstract"

    def complete(self, req: CompletionRequest) -> list[str]:
        raise NotImplementedError

    def judge(self, req: JudgmentRequest) -> str:
        raise NotImplementedError


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


class RuleBackend(Backend):
    """Deterministic stand-in backed by the predicate registry."""

    id = "rule"

    def complete(self, req: CompletionRequest) -> list[str]:
        group0, group1 = _parse_prompt_groups(req.prompt)

        def separation(pred) -> float:
            mean1 = sum(pred.score(t) for t in group1) / len(group1)
            mean0 = sum(pred.score(t) for t in group0) / len(group0)
            return mean1 - mean0

        ranked = sorted(PREDICATES, key=lambda p: (-separation(p), p.id))
        return [p.description for p in ranked[: req.n]]

    def judge(self, req: JudgmentRequest) -> str:
        question = req.question.strip()
        if not question.startswith(QUESTION_PREFIX) or not question.endswith("?"):
            return "unknown"
        s = question[len(QUESTION_PREFIX) : -1]
        predicate = parse_description(s)
        if predicate is None:
            return "unknown"
        if not req.context.startswith("A: ") or "\nB: " not in req.context:
            return "unknown"
        a_text, _, b_text = req.context[len("A: ") :].partition("\nB: ")
        return "yes" if predicate.score(a_text) > predicate.score(b_text) else "no"


# ---------------------------------------------------------------------------
# HTTP backend

def _excerpt(text: str, limit: int = 200) -> str:
    return " ".join(text.split())[:limit]


class HttpBackend(Backend):
    """OpenAI-compatible endpoint speaking either completions or chat."""

    def __init__(self, endpoint: EndpointConfig):
        self.endpoint = endpoint
        self.id = f"http:{endpoint.route}:{endpoint.model}"
        # One keep-alive connection pool, shared by every thread of a run.
        # The proxy and CA-bundle variables are read once, here; with
        # trust_env off, requests reads no environment and no netrc per
        # request, so the only credential sent is credential_env's token.
        session = requests.Session()
        settings = session.merge_environment_settings(endpoint.base_url, {}, None, None, None)
        session.trust_env = False
        session.proxies = settings["proxies"]
        session.verify = settings["verify"]
        session.cert = settings["cert"]
        self._session = session

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        name = self.endpoint.credential_env
        if name:
            token = os.environ.get(name)
            if token is None:
                raise AuthError(f"credential environment variable {name} is not set")
            headers["Authorization"] = f"Bearer {token}"
        return headers

    def _request(self, path: str, body: dict) -> dict:
        url = self.endpoint.base_url.rstrip("/") + path
        attempts = self.endpoint.retries
        headers = self._headers()
        for attempt in range(1, attempts + 1):
            try:
                response = self._session.post(
                    url, json=body, headers=headers, timeout=self.endpoint.timeout_s
                )
            except requests.exceptions.RequestException as exc:
                if attempt < attempts:
                    time.sleep(self._backoff(attempt))
                    continue
                raise TransportError(f"{url}: {exc}") from exc
            status = response.status_code
            if status == 200:
                try:
                    return response.json()
                except ValueError:
                    raise ProviderError(200, _excerpt(response.text)) from None
            if status in (401, 403):
                raise AuthError(f"{url}: HTTP {status}")
            if (status == 429 or status >= 500) and attempt < attempts:
                time.sleep(self._backoff(attempt))
                continue
            if status == 429:
                raise RateLimitedError(attempts, _excerpt(response.text))
            raise ProviderError(status, _excerpt(response.text))

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
# Append-only JSONL stores: transcripts here, judgment caches in the verifier

# json.loads without its per-call checks: a judgment cache is loaded row by
# row on every describe.
_decode_json = json.JSONDecoder().decode
# json.dumps(row, ensure_ascii=False, sort_keys=True) without an encoder per row.
_encode_row = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode


def _parse_row(line: bytes) -> dict | None:
    try:
        row = _decode_json(line.decode("utf-8"))
    except ValueError:  # JSONDecodeError and UnicodeDecodeError
        return None
    return row if isinstance(row, dict) else None


def read_jsonl(path: Path) -> Iterator[dict]:
    """Rows of an append-only JSONL store, in file order.

    A crash mid-append leaves a final line without its newline that does
    not parse; it is skipped with a warning, and the next
    :meth:`JsonlAppender.append` cuts it off.  Any other line that does not
    parse to an object raises :class:`CorruptStoreError` naming ``path:line``.
    """
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            row = _parse_row(line)
            if row is None:
                if line.isspace():
                    continue
                if not line.endswith(b"\n"):
                    warnings.warn(f"{path}:{lineno}: skipping torn final line", stacklevel=2)
                    return
                raise CorruptStoreError(f"{path}:{lineno}: not a JSON object")
            yield row


def unusable_row(path: Path, usable: Callable[[dict], bool], need: str) -> CorruptStoreError:
    """The error naming the first row of ``path`` that parses but ``usable`` rejects."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            row = _parse_row(line)
            if row is not None and not usable(row):
                return CorruptStoreError(f"{path}:{lineno}: {need}")
    return CorruptStoreError(f"{path}: {need}")


def _usable_transcript_row(row: dict) -> bool:
    kind, response = row.get("kind"), row.get("response")
    if kind == "complete":
        typed = isinstance(response, list) and all(isinstance(t, str) for t in response)
    else:
        typed = kind == "judge" and isinstance(response, str)
    return typed and isinstance(row.get("hash"), str)


class JsonlAppender:
    """Appends rows to one JSONL store through a handle kept open between rows.

    The file is opened on the first row.  Every row starts on a fresh line
    of the file as it is now, even if something else appended to it since,
    and is flushed before :meth:`append` returns.  Callers serialize
    appends to one path.
    """

    def __init__(self, path: Path):
        self.path = path
        self._fh = None

    def append(self, row: dict) -> None:
        blob = (_encode_row(row) + "\n").encode("utf-8")
        if self._fh is None:
            self._fh = open(self.path, "a+b")
        fh = self._fh
        size = fh.seek(0, os.SEEK_END)
        if size:
            fh.seek(size - 1)
            if fh.read(1) != b"\n":
                fh.seek(0)
                data = fh.read()
                start = data.rfind(b"\n") + 1
                if _parse_row(data[start:]) is None:
                    fh.truncate(start)  # the torn line read_jsonl skipped
                else:
                    blob = b"\n" + blob
        fh.write(blob)
        fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class RecordingBackend(Backend):
    """Pass-through wrapper that appends every request/response pair to a transcript."""

    def __init__(self, inner: Backend, store_path: str | Path):
        self.inner = inner
        self.id = inner.id
        self.path = Path(store_path)
        self._writer = JsonlAppender(self.path)
        self._lock = threading.Lock()

    def _record(self, kind: str, req, response):
        row = {"kind": kind, "hash": request_hash(req), "response": response}
        with self._lock:
            self._writer.append(row)
        return response

    def close(self) -> None:
        """Close the transcript; a later request opens it again."""
        with self._lock:
            self._writer.close()

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
        for row in read_jsonl(self.store_path):
            if not _usable_transcript_row(row):
                need = 'a row needs a "hash" and a "response" of its "kind" (complete or judge)'
                raise unusable_row(self.store_path, _usable_transcript_row, need)
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
