"""Shared fixtures and small factories for the test suite."""

from __future__ import annotations

import json
import ssl
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from distdescribe import store
from distdescribe.backends import RuleBackend
from distdescribe.bench import generate_task
from distdescribe.corpus import Corpus, DistributionPair, Sample, save_corpus

# A self-signed certificate for the IP address 127.0.0.1 only, valid 2000-2200;
# its key is tls-key.pem beside it.
TLS_CERT = Path(__file__).parent / "data" / "tls-cert.pem"


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


class WaitingJudge(RuleBackend):
    """A rule judge that first sleeps ``wait_s``, off the interpreter lock, as an endpoint would.

    ``senders`` holds the ident of every thread that sent it a judgment.
    """

    def __init__(self, wait_s=0.001):
        self.wait_s = wait_s
        self.senders = set()

    def judge(self, req):
        self.senders.add(threading.get_ident())
        time.sleep(self.wait_s)
        return super().judge(req)


@pytest.fixture
def jsonl_corpus(tmp_path):
    """A three-sample jsonl corpus file on disk."""
    return write_jsonl(tmp_path / "small.jsonl", [{"text": "a"}, {"text": "b"}, {"text": "c"}])


@pytest.fixture
def zebra_task_files(tmp_path):
    """d0 and d1 of a 60-per-side task whose d1 samples all contain "zebra"."""
    task = generate_task("zebra", 1.0, 0.0, 60, seed=2)
    d0 = tmp_path / "d0.jsonl"
    d1 = tmp_path / "d1.jsonl"
    save_corpus(task.pair.d0, d0)
    save_corpus(task.pair.d1, d1)
    return d0, d1


@pytest.fixture
def decoded(monkeypatch):
    """How often each store line was decoded to a row, by its bytes."""
    counts = Counter()
    parse = store._parse_row

    def counting(line):
        row = parse(line)
        if row is not None:
            counts[line] += 1
        return row

    monkeypatch.setattr(store, "_parse_row", counting)
    return counts


class _Script:
    """Behavior plus request and connection counters shared with the server."""

    def __init__(self, behavior):
        self.behavior = behavior
        self.hits = 0
        self.connections = 0
        self.closed = 0  # connections the server saw end
        self.bodies = []
        self.raw_bodies = []
        self.headers = []  # each request's headers, as a dict
        self.auth_headers = []
        self.lock = threading.Lock()


@pytest.fixture
def http_server():
    """Start local OpenAI-style endpoints; each is shut down after the test.

    ``start(behavior, keep_alive_s=None, tls=False)`` returns the ``/v1`` base URL and
    the endpoint's ``_Script``; ``behavior(path, body)`` answers each POST
    with ``(status, payload)``, payload a JSON-able object or raw bytes, or
    with ``(status, payload, headers)`` to send extra response headers.
    With ``tls``, the endpoint speaks https with ``TLS_CERT``.
    """
    servers = []

    def start(behavior, keep_alive_s=None, tls=False):
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

            def finish(self):
                super().finish()
                with script.lock:
                    script.closed += 1

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length)
                body = json.loads(raw or b"{}")
                with script.lock:
                    script.hits += 1
                    script.bodies.append(body)
                    script.raw_bodies.append(raw)
                    script.headers.append(dict(self.headers))
                    script.auth_headers.append(self.headers.get("Authorization"))
                status, payload, *extra = script.behavior(self.path, body)
                data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                for name, value in (extra[0] if extra else {}).items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        if tls:
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(TLS_CERT, TLS_CERT.with_name("tls-key.pem"))
            server.socket = context.wrap_socket(server.socket, server_side=True)
        # A short poll keeps shutdown() from waiting out the default 0.5 s.
        threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        ).start()
        servers.append(server)
        url = f"{'https' if tls else 'http'}://127.0.0.1:{server.server_address[1]}/v1"
        return url, script

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()
