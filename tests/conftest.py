"""Shared fixtures and small factories for the test suite."""

from __future__ import annotations

import json
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from distdescribe import backends
from distdescribe.corpus import Corpus, DistributionPair, Sample


def make_corpus(name, texts):
    """Build an in-memory corpus with the same id scheme the loader uses."""
    samples = tuple(Sample(id=f"{name}:{i}", text=t) for i, t in enumerate(texts))
    return Corpus(name=name, samples=samples)


def make_pair(d0_texts, d1_texts):
    return DistributionPair(d0=make_corpus("d0", d0_texts), d1=make_corpus("d1", d1_texts))


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    return path


@pytest.fixture
def jsonl_corpus(tmp_path):
    """A three-sample jsonl corpus file on disk."""
    return write_jsonl(tmp_path / "small.jsonl", [{"text": "a"}, {"text": "b"}, {"text": "c"}])


@pytest.fixture
def decoded(monkeypatch):
    """How often each store line was decoded to a row, by its bytes."""
    counts = Counter()
    parse = backends._parse_row

    def counting(line):
        row = parse(line)
        if row is not None:
            counts[line] += 1
        return row

    monkeypatch.setattr(backends, "_parse_row", counting)
    return counts


class _Script:
    """Behavior plus request and connection counters shared with the server."""

    def __init__(self, behavior):
        self.behavior = behavior
        self.hits = 0
        self.connections = 0
        self.bodies = []
        self.auth_headers = []
        self.lock = threading.Lock()


@pytest.fixture
def http_server():
    """Start local OpenAI-style endpoints; each is shut down after the test.

    ``start(behavior, keep_alive_s=None)`` returns the ``/v1`` base URL and
    the endpoint's ``_Script``; ``behavior(path, body)`` answers each POST
    with ``(status, payload)``, payload a JSON-able object or raw bytes.
    """
    servers = []

    def start(behavior, keep_alive_s=None):
        # With keep_alive_s: HTTP/1.1, and a connection idle that long is closed.
        script = _Script(behavior)

        class Handler(BaseHTTPRequestHandler):
            if keep_alive_s is not None:
                protocol_version = "HTTP/1.1"
                timeout = keep_alive_s
            # Headers and body go out in two writes; on a kept-alive connection
            # Nagle would hold the body until the client's delayed ACK.
            disable_nagle_algorithm = True

            def setup(self):
                super().setup()
                with script.lock:
                    script.connections += 1

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length) or b"{}")
                with script.lock:
                    script.hits += 1
                    script.bodies.append(body)
                    script.auth_headers.append(self.headers.get("Authorization"))
                status, payload = script.behavior(self.path, body)
                data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # A short poll keeps shutdown() from waiting out the default 0.5 s.
        threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        ).start()
        servers.append(server)
        url = f"http://127.0.0.1:{server.server_address[1]}/v1"
        return url, script

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()
