"""In-process OpenAI-compatible endpoint that answers with the rule oracle.

The ``/completions`` route sleeps for a fixed delay, then answers through
``RuleBackend``: a prompt whose last line is a verifier question is judged,
anything else is completed.  Each response (status line, headers and body)
goes out in a single write, so the client never waits on a delayed ACK for
a second segment.

The endpoint keeps its own counters: requests, connections accepted,
per-request handling time, and the time integral of requests in service.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from distdescribe import CompletionRequest, JudgmentRequest, RuleBackend

QUESTION_PREFIX = "Is it true that sentence A "


class OracleEndpoint:
    """Serve ``/completions`` on 127.0.0.1 from a background thread."""

    def __init__(self, delay_s: float = 0.02):
        self.delay_s = delay_s
        self._rule = RuleBackend()
        self._lock = threading.Lock()
        self.requests = 0
        self.connections = 0
        self.handling_s: list[float] = []
        self._in_service = 0
        self._busy_s = 0.0
        self._last = time.perf_counter()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            timeout = 2.0  # idle keep-alive connections end instead of pinning a thread

            def setup(self):
                super().setup()
                with outer._lock:
                    outer.connections += 1

            def do_POST(self):
                outer._enter()
                started = time.perf_counter()
                try:
                    status, payload = outer._answer(self)
                    data = json.dumps(payload).encode("utf-8")
                    head = (
                        f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}\r\n"
                        "Content-Type: application/json\r\n"
                        f"Content-Length: {len(data)}\r\n\r\n"
                    ).encode("ascii")
                    self.wfile.write(head + data)
                finally:
                    outer._leave(time.perf_counter() - started)

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        self.base_url = f"http://127.0.0.1:{self._server.server_address[1]}/v1"

    def _enter(self) -> None:
        with self._lock:
            now = time.perf_counter()
            self._busy_s += self._in_service * (now - self._last)
            self._last = now
            self._in_service += 1
            self.requests += 1

    def _leave(self, handling_s: float) -> None:
        with self._lock:
            now = time.perf_counter()
            self._busy_s += self._in_service * (now - self._last)
            self._last = now
            self._in_service -= 1
            self.handling_s.append(handling_s)

    def _answer(self, handler: BaseHTTPRequestHandler) -> tuple[int, dict]:
        length = int(handler.headers.get("Content-Length", 0))
        body = json.loads(handler.rfile.read(length) or b"{}")
        time.sleep(self.delay_s)
        if not handler.path.endswith("/completions") or handler.path.endswith("/chat/completions"):
            return 404, {"error": f"no route {handler.path}"}
        prompt = body.get("prompt", "")
        context, _, last_line = prompt.rpartition("\n")
        if last_line.startswith(QUESTION_PREFIX):
            texts = [self._rule.judge(JudgmentRequest(question=last_line, context=context))]
        else:
            texts = self._rule.complete(CompletionRequest(prompt=prompt, n=body.get("n", 1)))
        return 200, {"choices": [{"text": t} for t in texts]}

    def snapshot(self) -> dict:
        """Counters so far; subtract two snapshots to measure a window."""
        with self._lock:
            now = time.perf_counter()
            return {
                "time": now,
                "requests": self.requests,
                "connections": self.connections,
                "busy_s": self._busy_s + self._in_service * (now - self._last),
                "handled": len(self.handling_s),
            }

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()
