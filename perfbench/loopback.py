"""Loopback completion and scoring server with seeded, injected latency.

One `ThreadingHTTPServer` on 127.0.0.1 serves both wire protocols:

    POST /complete  {"model", "prompt", ...}  -> {"text": ...}
    POST /score     {"name", "items": [...]}  -> {"scores": [...]}

Everything the server does is a function of the seed and the request
payload, never of arrival order: the latency of a request (lognormal,
capped), whether a first attempt is answered 503, the completion text,
whether a fusion reply is planted empty (the benchmark names those
segments), and every score. The handler speaks HTTP/1.1 with a
Content-Length on every reply, so a client that reuses connections can.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

FUSION_PREFIX = "Analyze the following multiple "

# Latency of one request: lognormal with this median (ms) and shape, so the
# fan-out waits on a heavy tail now and then; the cap keeps one draw from
# dominating a pass.
MEDIAN_MS = 10.0
SIGMA = 0.5
CAP_MS = 80.0
# Share of first attempts answered 503, so the client's retry path runs.
REJECT_SHARE = 0.05


def _digest(*parts: str) -> str:
    return hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()


def _unit(*parts: str) -> float:
    """Deterministic draw in [0, 1) from the parts."""
    return int(_digest(*parts)[:13], 16) / float(1 << 52)


@dataclass
class PathStats:
    requests: int = 0
    retries: int = 0
    items: int = 0
    handling_s: float = 0.0  # server-side time per request, summed


@dataclass
class ServerState:
    complete: PathStats = field(default_factory=PathStats)
    score: PathStats = field(default_factory=PathStats)
    attempts: dict[str, int] = field(default_factory=dict)  # payload digest -> requests seen
    useful: set[str] = field(default_factory=set)  # payload digests answered 200
    fusion_replies: dict[str, str] = field(default_factory=dict)  # fusion prompt -> reply text
    translation_replies: dict[str, str] = field(default_factory=dict)  # reply text -> source text


class LoopbackServer:
    """Start with `start()`, read counters from `state`, clear them with `reset()`."""

    def __init__(self, seed: int):
        self.seed = str(seed)
        self.empty_fusion_sources: set[str] = set()  # fusion prompts naming one get ""
        self.url = ""
        self.lock = threading.Lock()
        self.state = ServerState()
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    # -- deterministic behaviour, also used by the oracles ----------------------

    def latency_s(self, key: str) -> float:
        rng = random.Random(int(_digest(self.seed, "latency", key)[:16], 16))
        return min(rng.lognormvariate(0.0, SIGMA) * MEDIAN_MS, CAP_MS) / 1000.0

    def rejects_first_attempt(self, key: str) -> bool:
        return _unit(self.seed, "reject", key) < REJECT_SHARE

    def completion(self, payload: dict) -> str:
        prompt = payload["prompt"]
        tag = _digest(self.seed, payload["model"], prompt, repr(payload.get("temperature")),
                      repr(payload.get("seed")))
        if prompt.startswith(FUSION_PREFIX):
            if any(source in prompt for source in self.empty_fusion_sources):
                return ""
            return f"fused {tag[:8]} {tag[8:16]}"
        return f"cand {tag[:8]} {tag[8:16]}"

    def score(self, item: dict) -> float:
        return round(_unit(self.seed, "score", item.get("source") or "", item.get("hypothesis") or ""), 4)

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        owner = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self):
                started = time.perf_counter()
                body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                status, reply, stats = owner._handle(self.path, body)
                data = json.dumps(reply).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)
                if stats is not None:
                    with owner.lock:
                        stats.handling_s += time.perf_counter() - started

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        self.url = f"http://127.0.0.1:{self._server.server_port}"

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._thread.join(timeout=10)
            self._server = None

    def reset(self) -> ServerState:
        with self.lock:
            old, self.state = self.state, ServerState()
        return old

    # -- request handling ----------------------------------------------------------

    def _handle(self, path: str, body: bytes):
        try:
            payload = json.loads(body)
        except ValueError:
            return 400, {"error": "bad json"}, None
        key = hashlib.sha256(body).hexdigest()
        if path == "/complete":
            with self.lock:
                stats = self.state.complete
                stats.requests += 1
                attempt = self.state.attempts.get(key, 0) + 1
                self.state.attempts[key] = attempt
                if attempt > 1:
                    stats.retries += 1
            if attempt == 1 and self.rejects_first_attempt(key):
                return 503, {"error": "busy"}, stats
            time.sleep(self.latency_s(key))
            text = self.completion(payload)
            with self.lock:
                self.state.useful.add(key)
                prompt = payload["prompt"]
                if prompt.startswith(FUSION_PREFIX):
                    self.state.fusion_replies[prompt] = text
                else:  # both translation templates end in "\n\n<source text>"
                    self.state.translation_replies[text] = prompt.split("\n\n", 1)[-1]
            return 200, {"text": text}, stats
        if path == "/score":
            items = payload["items"]
            with self.lock:
                stats = self.state.score
                stats.requests += 1
                stats.items += len(items)
            time.sleep(self.latency_s(key))
            scores = [self.score(item) for item in items]
            return 200, {"scores": scores}, stats
        return 404, {"error": "no such path"}, None
