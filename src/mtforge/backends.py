"""Text-generation backends behind a minimal completion-style wire protocol.

    POST <endpoint>  {"model", "prompt", "temperature", "top_p",
                      "max_tokens", "seed"}
    -> 200           {"text": <completion>}

Endpoints with a "mock:" scheme resolve to deterministic in-process fakes so
orchestration can run and be tested without any network. An Authorization
header is sent when MTFORGE_BACKEND_TOKEN is set; an http(s) BackendSpec
cannot be built while that token is one unsendable_token refuses.
"""

from __future__ import annotations

import functools
import json
import os
import urllib.parse
from dataclasses import asdict, dataclass
from typing import Callable, ClassVar, Optional

from .errors import MtforgeError, ValidationError
from .ioutils import decode_utf8, is_finite_number, parse_json


@dataclass(frozen=True)
class GenerationParams:
    temperature: float = 0.7
    top_p: float = 0.95
    max_tokens: int = 1024
    seed: Optional[int] = None

    # JSON type of each field, for dataclass_from_obj
    FIELDS: ClassVar[dict] = {"temperature": "number", "top_p": "number", "max_tokens": "integer",
                              "seed": "integer|null"}

    def __post_init__(self):
        if not self.temperature >= 0:  # NaN too
            raise ValidationError(f"temperature must be >= 0, got {self.temperature}")
        if not is_finite_number(self.temperature):
            raise ValidationError(f"temperature must be finite, got {self.temperature}")
        if not 0 < self.top_p <= 1:
            raise ValidationError(f"top_p must be in (0, 1], got {self.top_p}")
        if self.max_tokens <= 0:
            raise ValidationError(f"max_tokens must be > 0, got {self.max_tokens}")


# The environment variable holding the bearer token sent to completion endpoints.
BACKEND_TOKEN_ENV = "MTFORGE_BACKEND_TOKEN"

# Upper bound of a backend's or scorer's timeout_ms: one day. Socket
# timeouts far beyond it overflow the platform's time_t.
MAX_TIMEOUT_MS = 24 * 60 * 60 * 1000


@dataclass(frozen=True)
class BackendSpec:
    name: str
    endpoint: str
    model_id: str
    timeout_ms: int = 30000
    max_retries: int = 2

    FIELDS: ClassVar[dict] = {"name": "string", "endpoint": "string", "model_id": "string",
                              "timeout_ms": "integer", "max_retries": "integer"}

    def __post_init__(self):
        if not (self.endpoint.startswith("mock:") or is_http_url(self.endpoint)):
            raise ValidationError(f"endpoint must be mock:<name> or an http(s) URL, got {self.endpoint!r}")
        if self.timeout_ms <= 0:
            raise ValidationError(f"timeout_ms must be > 0, got {self.timeout_ms}")
        if self.timeout_ms > MAX_TIMEOUT_MS:
            raise ValidationError(f"timeout_ms must be <= {MAX_TIMEOUT_MS} (one day), got {self.timeout_ms}")
        if self.max_retries < 0:
            raise ValidationError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.max_retries > 10:  # each retry is sent at once, so many would hammer a failing endpoint
            raise ValidationError(f"max_retries must be <= 10, got {self.max_retries}")
        if is_http_url(self.endpoint) and (refusal := unsendable_token(BACKEND_TOKEN_ENV)):
            raise ValidationError(refusal)


class BackendFailure(MtforgeError):
    """An endpoint request failed, after any retries it was allowed."""


MockFn = Callable[[str, GenerationParams, str], str]
_MOCKS: dict[str, MockFn] = {}


def register_mock_backend(name: str, fn: MockFn) -> None:
    """Install a deterministic fake reachable as endpoint "mock:<name>"."""
    _MOCKS[name] = fn


def _mock_echo(prompt: str, params: GenerationParams, model_id: str) -> str:
    import hashlib  # here, so only the commands that call the echo mock load it

    digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:12]
    return f"[{model_id}:{digest}:T{params.temperature:g}:s{params.seed}]"


def _mock_fail(prompt: str, params: GenerationParams, model_id: str) -> str:
    raise BackendFailure("mock backend configured to fail")


register_mock_backend("echo", _mock_echo)
register_mock_backend("fail", _mock_fail)


def is_http_url(url: str) -> bool:
    """True for an http or https URL that names a host."""
    try:
        parts = urllib.parse.urlsplit(url)
    except ValueError:  # such as an unclosed IPv6 bracket
        return False
    return parts.scheme in ("http", "https") and bool(parts.netloc)


def unsendable_token(token_env: str) -> str | None:
    """Why the bearer token in environment variable `token_env` cannot be
    sent, naming the variable and never its value; None when it can, or
    when the variable is unset or empty."""
    token = os.environ.get(token_env)
    if token and not (token.isascii() and token.isprintable()):  # http.client's refusal would quote the token
        return f"{token_env} must hold printable ASCII to be sent as a header"
    return None


@functools.cache
def _opener():
    """The opener post_json sends through, built at the first request and
    kept for the process; it reads the proxy settings when it is built.
    Two threads that make the first request together may each build one:
    the two are alike and hold no connection, so either may be used."""
    import urllib.request  # with http.client and ssl, only for commands that send requests

    class _RefuseRedirect(urllib.request.HTTPRedirectHandler):
        """Follow no redirect: a 3xx then raises HTTPError like any other
        non-2xx status, and the Authorization header never reaches another URL."""

        def redirect_request(self, req, fp, code, msg, headers, newurl):
            return None

    return urllib.request.build_opener(_RefuseRedirect)


def post_json(url: str, payload: dict, token_env: str, timeout_s: float, retries: int = 0):
    """POST `payload` as JSON and return the decoded JSON reply.

    Sends `Authorization: Bearer <token>` when the environment variable named
    by `token_env` is set; a token that unsendable_token refuses raises
    BackendFailure naming the variable, never its value, before any request.
    A URL that is not http(s) raises ValueError. A failed connection, a
    timeout, a truncated reply and a 5xx are retried at once, up to
    `retries` more times; a 3xx, a 4xx and a body that is not UTF-8 JSON are
    final. Every failure raises BackendFailure naming the URL and the cause.
    Proxies come from *_PROXY, read at the process's first request, and
    HTTPS certificates from the system CA store.

    Every call opens a fresh connection on purpose. Against an http.server
    handler that writes headers and body in two sends with Nagle on, a
    kept-alive connection makes the body wait for the client's delayed ACK:
    44 ms per request against 2.5 ms for a fresh connection, which halved
    `fuse` throughput on the loopback benchmark.
    """
    import http.client
    import urllib.error
    import urllib.request

    if not is_http_url(url):
        raise ValueError(f"not an http(s) URL: {url!r}")
    refusal = unsendable_token(token_env)
    if refusal:
        raise BackendFailure(f"{url}: {refusal}")
    headers = {"Content-Type": "application/json"}
    token = os.environ.get(token_env)
    if token:
        headers["Authorization"] = f"Bearer {token}"
    data = json.dumps(payload, allow_nan=False).encode("utf-8")
    for _attempt in range(retries + 1):
        request = urllib.request.Request(url, data=data, headers=headers, method="POST")  # the proxy handler edits it
        try:
            with _opener().open(request, timeout=timeout_s) as resp:
                return parse_json(decode_utf8(resp.read()))
        except urllib.error.HTTPError as exc:  # an OSError too, so caught first
            exc.close()
            cause = exc
            if exc.code < 500:
                break
        except (OSError, http.client.HTTPException) as exc:  # connection, timeout, truncated reply
            cause = exc
        except (ValidationError, ValueError) as exc:  # a body that is not UTF-8 JSON; a request http.client refuses
            cause = exc
            break
    raise BackendFailure(f"{url}: {cause}")


def complete(spec: BackendSpec, prompt: str, params: GenerationParams) -> str:
    """One completion, its request retried as post_json does; raises BackendFailure."""
    if spec.endpoint.startswith("mock:"):
        name = spec.endpoint.split(":", 1)[1]
        if name not in _MOCKS:
            raise ValidationError(f"unknown mock backend {name!r}")
        return _MOCKS[name](prompt, params, spec.model_id)

    payload = {"model": spec.model_id, "prompt": prompt, **asdict(params)}
    body = post_json(spec.endpoint, payload, BACKEND_TOKEN_ENV, spec.timeout_ms / 1000.0, spec.max_retries)
    if not isinstance(body, dict) or not isinstance(body.get("text"), str):
        raise BackendFailure(f"backend {spec.name!r} returned no text field")
    return body["text"]
