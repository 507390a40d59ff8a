"""A local JSON endpoint for wire tests: a request handler that reads the
request's JSON and writes replies, and a loopback server that runs it."""

import contextlib
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class JsonHandler(BaseHTTPRequestHandler):
    """Base of a test endpoint's handler; its routes read `payload()` and
    answer with `reply`."""

    def payload(self):
        """The request body, parsed as JSON."""
        return json.loads(self.rfile.read(int(self.headers["Content-Length"])))

    def reply(self, status, body=b"", **headers):
        """Send `status`, the extra `headers` and `body`: bytes as they are,
        any other value as JSON, always with its Content-Length."""
        data = body if isinstance(body, bytes) else json.dumps(body).encode()
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def serving(handler):
    """Serve `handler` at a free port of 127.0.0.1, one daemon thread per
    request, and yield the base URL. On exit the server is shut down and
    closed, and its thread has ended."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()
