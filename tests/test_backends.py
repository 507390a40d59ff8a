"""Wire-protocol tests against an in-process HTTP server.

These cover the external surfaces a hosted model or neural metric would sit
behind: the completion POST {model, prompt, temperature, top_p, max_tokens,
seed} -> {text}, and the scorer POST {name, items} -> {scores}.
"""

import dataclasses
import json
import socketserver
import threading
import urllib.request
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from mtforge import backends
from mtforge.backends import BackendFailure, BackendSpec, GenerationParams, backend_from_obj, complete, post_json
from mtforge.errors import SchemaError, ValidationError
from mtforge.ioutils import dataclass_from_obj
from mtforge.scorers import ScorerEndpoint, register_scorer, scorer_from_obj


# a reply that json.loads accepts, holding one finite number among values
# that are not: NaN, a bool, an infinity, a string, null and an int too
# large for a float
_ODD_SCORES = b'{"scores": [NaN, true, 0.5, Infinity, "0.7", null, 1' + b"0" * 400 + b"]}"

# path -> the body of a 200 reply that is not the protocol's
_ODD_REPLIES = {
    "/garbage": b"<html>not json</html>",
    "/odd_scores": _ODD_SCORES,
    "/empty_object": b"{}",
    "/text_number": b'{"text": 5}',
    "/bare_list": b"[1, 2]",
    "/deep": b"[" * 100_000 + b"]" * 100_000,  # beyond the JSON decoder's recursion limit
    "/surrogate": b'{"text": "ok \\ud800 x"}',  # JSON, but no UTF-8 writer can encode the text
    "/latin1": '{"text": "caf\u00e9"}'.encode("latin-1"),
    "/utf16": '{"text": "ok"}'.encode("utf-16"),  # with a BOM, as json.loads(bytes) would have sniffed
}


class _Handler(BaseHTTPRequestHandler):
    requests_seen = []
    auth_seen = []
    fail_next = 0

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        type(self).requests_seen.append((self.path, payload))
        type(self).auth_seen.append(self.headers.get("Authorization"))
        if type(self).fail_next > 0:
            type(self).fail_next -= 1
            self.send_response(500)
            self.end_headers()
            return
        if self.path == "/redirect":
            self.send_response(302)
            self.send_header("Location", "/complete")
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        if self.path in _ODD_REPLIES:
            data = _ODD_REPLIES[self.path]
            self.send_response(200)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
            return
        if self.path == "/short":  # the connection closes 10 bytes short of the declared length
            self.send_response(200)
            self.send_header("Content-Length", "20")
            self.end_headers()
            self.wfile.write(b'{"text": "')
            return
        if self.path == "/unauthorized":
            self.send_response(401)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        if self.path == "/complete":
            body = {"text": f"echo:{payload['model']}:{payload['temperature']}"}
        elif self.path == "/score":
            body = {"scores": [float(len(item.get("hypothesis") or "")) for item in payload["items"]]}
        else:
            self.send_response(404)
            self.end_headers()
            return
        data = json.dumps(body).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        # a client that follows the 302 of /redirect turns the POST into a GET
        type(self).requests_seen.append((self.path, None))
        type(self).auth_seen.append(self.headers.get("Authorization"))
        self.send_response(405)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, *args):
        pass


class _TunnelStub(socketserver.BaseRequestHandler):
    """A proxy that grants every CONNECT, records the request line and the
    first bytes sent through the tunnel, then closes the connection."""

    seen = []

    def handle(self):
        self.request.settimeout(5)
        head = b""
        while b"\r\n\r\n" not in head:
            chunk = self.request.recv(4096)
            if not chunk:
                break
            head += chunk
        line = head.split(b"\r\n", 1)[0].decode("latin-1")
        tunneled = b""
        if line.startswith("CONNECT "):
            self.request.sendall(b"HTTP/1.1 200 Connection established\r\n\r\n")
            tunneled = self.request.recv(4)
        type(self).seen.append((line, tunneled))


@pytest.fixture(scope="module")
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


class TestCompletionWire:
    def test_round_trip(self, http_server):
        spec = BackendSpec("real", f"{http_server}/complete", "my-model")
        _Handler.requests_seen.clear()
        out = complete(spec, "translate this", GenerationParams(temperature=0.3, seed=4))
        assert out == "echo:my-model:0.3"
        path, payload = _Handler.requests_seen[-1]
        assert path == "/complete"
        assert payload == {
            "model": "my-model",
            "prompt": "translate this",
            "temperature": 0.3,
            "top_p": 0.95,
            "max_tokens": 1024,
            "seed": 4,
        }
        # the key order fixes the bytes on the wire
        assert list(payload) == ["model", "prompt", "temperature", "top_p", "max_tokens", "seed"]

    def test_retries_then_succeeds(self, http_server):
        spec = BackendSpec("real", f"{http_server}/complete", "m", max_retries=2)
        _Handler.requests_seen.clear()
        _Handler.fail_next = 2
        out = complete(spec, "p", GenerationParams())
        assert out.startswith("echo:")
        assert len(_Handler.requests_seen) == 3  # two 500s, then a 200

    def test_exhausted_retries_raise(self, http_server):
        spec = BackendSpec("real", f"{http_server}/complete", "m", max_retries=1)
        _Handler.fail_next = 5
        with pytest.raises(BackendFailure):
            complete(spec, "p", GenerationParams())
        _Handler.fail_next = 0

    @pytest.mark.parametrize("token, header", [("gen-secret", "Bearer gen-secret"), (None, None)])
    def test_token_sent_as_bearer(self, http_server, monkeypatch, token, header):
        monkeypatch.delenv("MTFORGE_BACKEND_TOKEN", raising=False)
        if token:
            monkeypatch.setenv("MTFORGE_BACKEND_TOKEN", token)
        _Handler.auth_seen.clear()
        complete(BackendSpec("real", f"{http_server}/complete", "m"), "p", GenerationParams())
        assert _Handler.auth_seen == [header]

    def test_non_json_reply_raises(self, http_server):
        spec = BackendSpec("real", f"{http_server}/garbage", "m", max_retries=1)
        _Handler.requests_seen.clear()
        with pytest.raises(BackendFailure):
            complete(spec, "p", GenerationParams())
        assert len(_Handler.requests_seen) == 1  # a retry cannot fix a reply

    @pytest.mark.parametrize("path, message", [
        ("/unauthorized", "HTTP Error 401"),
        ("/empty_object", "returned no text field"),
        ("/text_number", "returned no text field"),
        ("/deep", "maximum recursion depth exceeded"),
        ("/surrogate", r"unpaired surrogate \\ud800 in a string$"),
        ("/latin1", "invalid UTF-8 at byte 14$"),
        ("/utf16", "invalid UTF-8 at byte 1$"),
        ("/garbage", r"invalid JSON: Expecting value \(column 1\)$"),
    ])
    def test_final_failure_is_not_retried(self, http_server, path, message):
        spec = BackendSpec("real", f"{http_server}{path}", "m", max_retries=2)
        _Handler.requests_seen.clear()
        with pytest.raises(BackendFailure, match=message):
            complete(spec, "p", GenerationParams())
        assert [p for p, _ in _Handler.requests_seen] == [path]

    @pytest.mark.parametrize("token", ["gen\nsecret", "gen-secret\n", "gen\tsecret", "gen-secr\u00e9t"])
    def test_unsendable_token_is_final_and_not_quoted(self, http_server, monkeypatch, token):
        monkeypatch.setenv("MTFORGE_BACKEND_TOKEN", token)
        spec = BackendSpec("real", f"{http_server}/complete", "m", max_retries=2)
        _Handler.requests_seen.clear()
        with pytest.raises(BackendFailure) as caught:
            complete(spec, "p", GenerationParams())
        assert str(caught.value) == f"{http_server}/complete: MTFORGE_BACKEND_TOKEN must hold printable ASCII " \
                                    "to be sent as a header"
        assert _Handler.requests_seen == []
        assert caught.value.__context__ is None and caught.value.__cause__ is None

    def test_truncated_reply_is_retried(self, http_server):
        spec = BackendSpec("real", f"{http_server}/short", "m", max_retries=1)
        _Handler.requests_seen.clear()
        with pytest.raises(BackendFailure, match=r"^http://.*/short: IncompleteRead") as caught:
            complete(spec, "p", GenerationParams())
        assert len(_Handler.requests_seen) == 2
        assert caught.value.__context__ is None and caught.value.__cause__ is None

    def test_retries_through_a_proxy_stay_in_tls(self, monkeypatch):
        # urllib's proxy handling edits the request it is given; a request
        # reused across attempts would fall back to plain HTTP on the third
        proxy = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _TunnelStub)
        proxy.daemon_threads = True
        thread = threading.Thread(target=proxy.serve_forever, daemon=True)
        thread.start()
        try:
            for name in ("no_proxy", "NO_PROXY", "http_proxy", "HTTP_PROXY", "HTTPS_PROXY"):
                monkeypatch.delenv(name, raising=False)
            monkeypatch.setenv("https_proxy", f"http://127.0.0.1:{proxy.server_address[1]}")
            monkeypatch.setenv("MTFORGE_BACKEND_TOKEN", "gen-secret")
            # the opener reads the proxy settings when it is built
            monkeypatch.setattr(backends, "_OPENER", urllib.request.build_opener(backends._RefuseRedirect))
            _TunnelStub.seen.clear()
            spec = BackendSpec("real", "https://127.0.0.1:1/complete", "m", timeout_ms=5000, max_retries=2)
            with pytest.raises(BackendFailure, match=r"^https://127\.0\.0\.1:1/complete: "):
                complete(spec, "p", GenerationParams())
        finally:
            proxy.shutdown()
            proxy.server_close()
        assert len(_TunnelStub.seen) == 3
        for line, tunneled in _TunnelStub.seen:
            assert line.startswith("CONNECT 127.0.0.1:1 ")
            assert tunneled[:1] == b"\x16"  # a TLS handshake record, never a plaintext POST

    def test_redirect_is_not_followed(self, http_server, monkeypatch):
        monkeypatch.setenv("MTFORGE_BACKEND_TOKEN", "gen-secret")
        spec = BackendSpec("real", f"{http_server}/redirect", "m", max_retries=0)
        _Handler.requests_seen.clear()
        _Handler.auth_seen.clear()
        with pytest.raises(BackendFailure, match="302"):
            complete(spec, "p", GenerationParams())
        assert [path for path, _ in _Handler.requests_seen] == ["/redirect"]
        assert _Handler.auth_seen == ["Bearer gen-secret"]

    @pytest.mark.parametrize("endpoint", ['data:application/json,{"text": "x"}', "ftp://127.0.0.1/c",
                                          "http:/no-host", "http://[::1", "echo", ""])
    def test_non_http_endpoint_refused(self, endpoint):
        with pytest.raises(ValidationError, match="endpoint must be mock:<name> or an http"):
            BackendSpec("inline", endpoint, "m", max_retries=0)

    def test_endpoint_error_names_the_place(self):
        obj = {"name": "b", "endpoint": "ftp://127.0.0.1/c", "model_id": "m"}
        with pytest.raises(SchemaError, match=r"^p\.json: backend: endpoint must be"):
            backend_from_obj(obj, "p.json: backend")

    @pytest.mark.parametrize("url", ['data:application/json,{"text": "x"}', "ftp://127.0.0.1/c", "file:///etc/hosts"])
    def test_post_json_refuses_non_http_url(self, url):
        with pytest.raises(ValueError, match="not an http"):
            post_json(url, {}, "MTFORGE_BACKEND_TOKEN", 1.0)

    def test_unreachable_endpoint(self):
        spec = BackendSpec("gone", "http://127.0.0.1:1/none", "m", timeout_ms=300, max_retries=0)
        with pytest.raises(BackendFailure):
            complete(spec, "p", GenerationParams())

    def test_param_validation(self):
        with pytest.raises(ValidationError):
            GenerationParams(temperature=-0.1)
        with pytest.raises(ValidationError):
            GenerationParams(temperature=float("nan"))
        with pytest.raises(ValidationError):
            GenerationParams(top_p=0.0)
        with pytest.raises(ValidationError):
            BackendSpec("x", "http://e", "m", timeout_ms=0)

    def test_timeout_bound_is_shared(self):
        # a socket timeout far beyond a day overflows the platform's time_t
        day = backends.MAX_TIMEOUT_MS
        assert day == 86_400_000
        assert BackendSpec("x", "http://e", "m", timeout_ms=day).timeout_ms == day
        assert ScorerEndpoint("s", "remote_http", "http://e", timeout_ms=day).timeout_ms == day
        with pytest.raises(ValidationError, match=r"^timeout_ms must be <= 86400000 \(one day\), got 86400001$"):
            BackendSpec("x", "http://e", "m", timeout_ms=day + 1)
        with pytest.raises(ValidationError, match=r"^scorer timeout_ms must be <= 86400000 \(one day\), got 10{30}$"):
            ScorerEndpoint("s", "remote_http", "http://e", timeout_ms=10**30)


class TestScorerWire:
    def test_round_trip(self, http_server):
        scorer = ScorerEndpoint("len", "remote_http", f"{http_server}/score", score_range=(0, 100))
        _Handler.requests_seen.clear()
        scores = scorer.score_many([{"hypothesis": "abc"}, {"hypothesis": "abcdef"}])
        assert scores == [3.0, 6.0]
        path, payload = _Handler.requests_seen[-1]
        assert path == "/score"
        assert payload["name"] == "len"
        assert payload["items"] == [{"hypothesis": "abc"}, {"hypothesis": "abcdef"}]

    def test_extra_rides_in_the_request_as_config(self, http_server):
        extra = {"template": "Rate {hypothesis} from 0 to 100", "rounds": 3}
        scorer = ScorerEndpoint("judge", "remote_http", f"{http_server}/score", score_range=(0, 100), extra=extra)
        _Handler.requests_seen.clear()
        assert scorer.score_many([{"hypothesis": "abc"}]) == [3.0]
        path, payload = _Handler.requests_seen[-1]
        assert payload == {"name": "judge", "items": [{"hypothesis": "abc"}], "config": extra}

    def test_clamped_to_range(self, http_server):
        scorer = ScorerEndpoint("len", "remote_http", f"{http_server}/score", score_range=(0, 4))
        assert scorer.score_many([{"hypothesis": "abcdefgh"}]) == [4.0]

    def test_failure_yields_none(self, http_server):
        scorer = ScorerEndpoint("len", "remote_http", f"{http_server}/score")
        _Handler.requests_seen.clear()
        _Handler.fail_next = 1
        assert scorer.score_many([{"hypothesis": "x"}]) == [None]
        assert len(_Handler.requests_seen) == 1  # scorers make one attempt
        _Handler.fail_next = 0

    def test_token_sent_as_bearer(self, http_server, monkeypatch):
        monkeypatch.setenv("MTFORGE_SCORER_TOKEN", "qe-secret")
        _Handler.auth_seen.clear()
        ScorerEndpoint("len", "remote_http", f"{http_server}/score").score_many([{"hypothesis": "x"}])
        assert _Handler.auth_seen == ["Bearer qe-secret"]

    def test_only_finite_numbers_are_scores(self, http_server):
        scorer = ScorerEndpoint("odd", "remote_http", f"{http_server}/odd_scores")
        assert scorer.score_many([{}] * 7) == [None, None, 0.5, None, None, None, None]

    def test_non_json_reply_yields_none(self, http_server):
        scorer = ScorerEndpoint("len", "remote_http", f"{http_server}/garbage")
        assert scorer.score_many([{}, {}]) == [None, None]

    @pytest.mark.parametrize("path", ["/bare_list", "/empty_object", "/deep"])
    def test_reply_without_a_scores_list_yields_none(self, http_server, path):
        scorer = ScorerEndpoint("len", "remote_http", f"{http_server}{path}")
        assert scorer.score_many([{}]) == [None]

    def test_raising_local_scorer_propagates(self):
        def boom(item):
            raise RuntimeError("scorer bug")

        register_scorer("raises", boom)
        with pytest.raises(RuntimeError, match="scorer bug"):
            ScorerEndpoint("r", "local_function", "raises").score_many([{}])

    def test_redirect_yields_none(self, http_server, monkeypatch):
        monkeypatch.setenv("MTFORGE_SCORER_TOKEN", "qe-secret")
        _Handler.requests_seen.clear()
        scorer = ScorerEndpoint("len", "remote_http", f"{http_server}/redirect")
        assert scorer.score_many([{}]) == [None]
        assert [path for path, _ in _Handler.requests_seen] == ["/redirect"]

    @pytest.mark.parametrize("url", ['data:application/json,{"scores": [1.0]}', "ftp://127.0.0.1/s", "length_ratio"])
    def test_non_http_endpoint_refused(self, url):
        with pytest.raises(ValidationError, match="remote scorer config must be an http"):
            ScorerEndpoint("inline", "remote_http", url)

    def test_unreachable_yields_none_per_item(self):
        scorer = ScorerEndpoint("gone", "remote_http", "http://127.0.0.1:1/s", timeout_ms=300)
        assert scorer.score_many([{}, {}]) == [None, None]


class TestSpecsFromObj:
    SCORER = {"name": "s", "kind": "local_function", "config": "length_ratio"}
    BACKEND = {"name": "b", "endpoint": "mock:echo", "model_id": "m"}

    def test_defaults_live_in_the_dataclasses(self):
        assert scorer_from_obj(self.SCORER) == ScorerEndpoint("s", "local_function", "length_ratio")
        assert backend_from_obj(self.BACKEND) == BackendSpec("b", "mock:echo", "m")

    def test_set_keys_pass_through(self):
        scorer = scorer_from_obj(dict(self.SCORER, score_range=[0, 5], timeout_ms=7, extra={"k": 1}))
        assert (scorer.score_range, scorer.timeout_ms, scorer.extra) == ((0, 5), 7, {"k": 1})
        backend = backend_from_obj(dict(self.BACKEND, timeout_ms=9, max_retries=0))
        assert (backend.timeout_ms, backend.max_retries) == (9, 0)

    @pytest.mark.parametrize("obj", [
        [1], "s", None,
        {"name": "s", "kind": "local_function"},
        dict(SCORER, colour="red"),
        dict(SCORER, name=5),
        dict(SCORER, config=["length_ratio"]),
        dict(SCORER, score_range=[1]),
        dict(SCORER, score_range=["a", "b"]),
        dict(SCORER, score_range=[1, 1]),
        dict(SCORER, score_range=[0, float("inf")]),
        dict(SCORER, score_range=[False, True]),
        dict(SCORER, score_range="ab"),
        dict(SCORER, timeout_ms=0),
        dict(SCORER, timeout_ms=1.5),
        dict(SCORER, timeout_ms=True),
        dict(SCORER, extra=[1]),
        dict(SCORER, extra={"t": float("nan")}),
        dict(SCORER, config="constant:abc"),
        dict(SCORER, config="constant:nan"),
        dict(SCORER, config="constant:1e400"),
        dict(SCORER, kind="psychic"),
        dict(SCORER, kind="remote_http", config="ftp://127.0.0.1/s"),
    ])
    def test_bad_scorer_config_rejected(self, obj):
        with pytest.raises(ValidationError):
            scorer_from_obj(obj)

    @pytest.mark.parametrize("obj", [[1], {"name": "b", "endpoint": "mock:echo"}, dict(BACKEND, colour="red"),
                                     dict(BACKEND, endpoint="ftp://127.0.0.1/c")])
    def test_bad_backend_config_rejected(self, obj):
        with pytest.raises(ValidationError):
            backend_from_obj(obj)

    @pytest.mark.parametrize("cls", [BackendSpec, GenerationParams, ScorerEndpoint])
    def test_field_table_names_every_field(self, cls):
        assert set(cls.FIELDS) == {f.name for f in dataclasses.fields(cls) if f.init}

    def test_grid_entry_defaults_and_types(self):
        assert dataclass_from_obj(GenerationParams, {"seed": None}, "grid[0]") == GenerationParams()
        assert dataclass_from_obj(GenerationParams, {"temperature": 0, "seed": 3}, "grid[0]").temperature == 0
        for bad in ({"temperature": True}, {"max_tokens": 2.5}, {"seed": "1"}, {"top_p": 0}, {"colour": 1}, [1]):
            with pytest.raises(SchemaError, match=r"^grid\[0\]"):
                dataclass_from_obj(GenerationParams, bad, "grid[0]")

    def test_registered_scorer_keeps_its_range(self):
        assert ScorerEndpoint("c", "local_function", "chrf").score_range == (0.0, 100.0)
        assert scorer_from_obj({"name": "c", "kind": "local_function", "config": "chrf"}).score_range == (0.0, 100.0)
        assert ScorerEndpoint("l", "local_function", "length_ratio").score_range == (0.0, 1.0)
        register_scorer("ten_point", lambda item: 7.0, (0.0, 10.0))
        assert ScorerEndpoint("t", "local_function", "ten_point").score_one({}) == 7.0
        assert ScorerEndpoint("t", "local_function", "ten_point", (0.0, 5.0)).score_one({}) == 5.0

    def test_unregistered_scorer_defaults_to_unit_range(self):
        assert ScorerEndpoint("k", "local_function", "constant:0.5").score_range == (0.0, 1.0)
        assert ScorerEndpoint("r", "remote_http", "http://127.0.0.1:9/score").score_range == (0.0, 1.0)

    def test_local_function_resolved_once(self):
        register_scorer("resolved_once", lambda item: 0.25)
        scorer = ScorerEndpoint("r", "local_function", "resolved_once")
        register_scorer("resolved_once", lambda item: 0.75)
        assert scorer.score_many([{}, {}]) == [0.25, 0.25]
        assert scorer == ScorerEndpoint("r", "local_function", "resolved_once")
        assert "_fn" not in repr(scorer)
        with pytest.raises(ValidationError, match=r"unknown fields \['_fn'\]"):
            scorer_from_obj({"name": "r", "kind": "local_function", "config": "resolved_once", "_fn": None})

    def test_item_fields_a_scorer_reads_are_checked_against_what_is_sent(self):
        chrf = ScorerEndpoint("c", "local_function", "chrf")
        chrf.check_item_fields(("source", "hypothesis", "reference"))
        with pytest.raises(ValidationError, match=r"^scorer 'c' reads the item field 'reference', "
                                                  r"but items here carry only source, hypothesis$"):
            chrf.check_item_fields(("source", "hypothesis"))
        register_scorer("reads_lang", lambda item: 0.5, fields=("hypothesis", "tgt_lang"))
        with pytest.raises(ValidationError, match="'tgt_lang'"):
            ScorerEndpoint("l", "local_function", "reads_lang").check_item_fields(("source", "hypothesis"))
        # the others read source and hypothesis, a constant nothing, and a remote scorer declares nothing
        for config in ("length_ratio", "constant:0.5"):
            ScorerEndpoint("s", "local_function", config).check_item_fields(("source", "hypothesis"))
        ScorerEndpoint("r", "remote_http", "http://127.0.0.1:9/score").check_item_fields(())

    @pytest.mark.parametrize("token", ["secret\n", "secr\u00e9t"])
    def test_unsendable_token_refused_where_a_remote_config_is_read(self, monkeypatch, token):
        monkeypatch.setenv("MTFORGE_BACKEND_TOKEN", token)
        monkeypatch.setenv("MTFORGE_SCORER_TOKEN", token)
        with pytest.raises(ValidationError, match=r"^cfg: backend: MTFORGE_BACKEND_TOKEN must hold printable ASCII"):
            backend_from_obj({"name": "g", "endpoint": "http://127.0.0.1:9/c", "model_id": "m"}, "cfg: backend")
        with pytest.raises(ValidationError, match=r"^qe\.json: MTFORGE_SCORER_TOKEN must hold printable ASCII"):
            scorer_from_obj({"name": "qe", "kind": "remote_http", "config": "http://127.0.0.1:9/s"}, "qe.json")
        # endpoints that send no token do not read it
        backend_from_obj({"name": "g", "endpoint": "mock:echo", "model_id": "m"})
        scorer_from_obj({"name": "l", "kind": "local_function", "config": "length_ratio"})

    def test_unknown_local_scorer_rejected(self):
        with pytest.raises(ValidationError, match="unknown local scorer 'no-such-scorer'"):
            ScorerEndpoint("n", "local_function", "no-such-scorer")
