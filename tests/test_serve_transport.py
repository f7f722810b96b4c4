"""The serve transport: what reaches the socket, and when.

``ServeApp.handle()`` is transport-free and has its own suites; this
one watches the bytes the HTTP handler hands to the connection.

* **One write per response** — head and body of every reply path
  (200, 400, 404, 405, 411, 413, 503 + ``Retry-After``, 504,
  ``/metrics``, an ``/ingest`` ack) reach the socket as a single
  ``write``, on a socket with ``TCP_NODELAY`` set.  Two writes per
  answer is what held every small answer on a keep-alive connection at
  ~44 ms from PR 11 to PR 21: the body, a second small segment, waited
  for the client's delayed ACK.
* **The floor is gone** — 60 sequential small GETs on one keep-alive
  connection: median under 10 ms (a median, so one scheduling stall on
  a shared runner cannot fail it; the parent commit reads 44 ms).
* **Large bodies** — an answer larger than the socket buffer arrives
  complete; a client that walks away mid-body only releases the thread.
* **POST is for ``/ingest``** — a POST to any other route is refused
  405 from the request line and headers alone: a 10 GiB
  ``Content-Length`` is answered at once, and not one body byte is read.
* **Coalesced followers share the encoded body** — N identical
  concurrent queries: one execution, one encode (by the server, by a
  row route's shape, or by a packed route's shape), N identical
  bodies.

Since PR 24 a finished answer is kept until ``store.version()`` moves,
and every app here keeps the production budget: what is under test is
the write path, which a kept body crosses exactly like a fresh one (the
60 keep-alive GETs and the second and third mid-body resets *are*
reused answers now), and the followers test holds the first flight for
its key, which nothing kept can precede.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import struct
import threading
import time

import pytest

import chaosclient
from repro.analytics import queries
from repro.analytics.database import Groups
from repro.analytics.storage import FlowStore
from repro.net.flow import FiveTuple, FlowRecord, Protocol, TransportProto
from repro.serve import server as server_module
from repro.serve import singleflight
from repro.serve.admission import AdmissionController, RouteClassLimits
from repro.serve.server import ServeApp
from repro.sniffer.eventcodec import BatchEncoder


def _flow(i: int) -> FlowRecord:
    return FlowRecord(
        fid=FiveTuple(167837701 + i % 3, 1572395042 + i % 7,
                      40_000 + i % 20_000, 443, TransportProto.TCP),
        start=100.0 + i % 50, end=101.0 + i % 50, protocol=Protocol.TLS,
        bytes_up=100 + i, bytes_down=2_000 + i, packets=6,
        fqdn=f"cdn{i % 3}.example.com",
    )


def _batch(flows) -> bytes:
    encoder = BatchEncoder()
    for flow in flows:
        encoder.add_flow(flow)
    return encoder.take()


class _Recorder:
    """A file object's stand-in that logs the calls of one method."""

    def __init__(self, inner, method: str, log: list):
        self._inner, self._method, self._log = inner, method, log

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name != self._method:
            return attr

        def logged(data):
            self._log.append(data)
            return attr(data)
        return logged


class _Daemon:
    """A serve app on an ephemeral port whose handler reports what it
    does to its connection: every ``wfile.write``, every ``rfile.read``,
    the socket's ``TCP_NODELAY`` — and, with ``sndbuf``, sends through
    a socket buffer that small."""

    def __init__(self, store: FlowStore, sndbuf: int | None = None,
                 **app_kwargs):
        self.app = ServeApp(store, **app_kwargs)
        self.httpd = self.app.make_server("127.0.0.1", 0)
        self.host, self.port = self.httpd.server_address[:2]
        self.writes: list = []
        self.reads: list = []
        self.nodelay: list = []
        self.errors: list = []
        handler = self.httpd.RequestHandlerClass
        setup = handler.setup

        def recording_setup(request):
            setup(request)
            self.nodelay.append(request.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            ))
            if sndbuf is not None:
                request.connection.setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, sndbuf
                )
            request.wfile = _Recorder(request.wfile, "write", self.writes)
            request.rfile = _Recorder(request.rfile, "read", self.reads)

        handler.setup = recording_setup
        self.httpd.handle_error = (
            lambda request, address: self.errors.append(address)
        )
        self.thread = threading.Thread(
            target=self.httpd.serve_forever, daemon=True
        )
        self.thread.start()

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()


@pytest.fixture
def store(tmp_path):
    store = FlowStore(tmp_path / "store", spill_rows=64)
    store.add_all(_flow(i) for i in range(200))
    yield store
    store.close()


class TestOneWritePerResponse:
    def test_every_reply_path_is_one_write_on_a_nodelay_socket(
        self, store
    ):
        daemon = _Daemon(store, admission=AdmissionController({
            "query": RouteClassLimits(8, 16, 0.5),
            "ingest": RouteClassLimits(1, 0, 0.0),
        }))
        app = daemon.app
        app.max_ingest_bytes = 4096

        def expired(snap, params):
            time.sleep(0.05)
            snap.cancel_token.check()

        app.query_routes["expired"] = expired
        host, port = daemon.host, daemon.port
        get = lambda path, **kw: chaosclient.raw_get(host, port, path, **kw)
        post = lambda path, body: chaosclient.raw_post(host, port, path, body)

        def bare_post(path: str, *header_lines: str):
            with chaosclient.open_conn(host, port) as sock:
                sock.sendall("".join(
                    line + "\r\n" for line in (
                        f"POST {path} HTTP/1.1", f"Host: {host}",
                        *header_lines, "",
                    )
                ).encode())
                return chaosclient._read_response(sock)

        def shed():
            # The one ingest slot is taken: the next request is shed.
            assert app.admission.try_acquire("ingest")
            try:
                return get("/ingest")
            finally:
                app.admission.release("ingest")

        exchanges = [
            (200, lambda: get("/query/len")),
            (200, lambda: get("/query/server-flow-counts")),
            (200, lambda: get("/stats")),
            (200, lambda: get("/metrics")),
            (200, lambda: post("/ingest", _batch([_flow(1)]))),
            (400, lambda: get("/query/rows-in-window?t0=1")),
            (400, lambda: post("/ingest", b"not-a-batch")),
            (404, lambda: get("/query/no-such-query")),
            (404, lambda: get("/nowhere")),
            (405, lambda: get("/ingest")),
            (405, lambda: bare_post("/query/len", "Content-Length: 0")),
            (411, lambda: bare_post("/ingest")),
            (413, lambda: bare_post("/ingest", "Content-Length: 1000000")),
            (503, shed),
            (504, lambda: get("/query/expired",
                              headers={"X-Request-Deadline": "0.01"})),
        ]
        try:
            for expected, exchange in exchanges:
                before = len(daemon.writes)
                status, headers, body = exchange()
                assert status == expected
                assert len(daemon.writes) == before + 1, expected
                # The one write is the whole response: status line
                # first, blank line, then exactly the announced body.
                head, _, sent = daemon.writes[-1].partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 %d " % expected)
                assert sent == body
                assert int(headers["content-length"]) == len(body)
                if expected == 503:
                    assert headers["retry-after"] == "1"
                if expected in (411, 413):
                    # A transport-level refusal closes the connection.
                    assert headers["connection"] == "close"
            assert daemon.nodelay and all(daemon.nodelay)
            assert not daemon.errors
        finally:
            daemon.close()

    def test_small_answers_on_one_keepalive_connection_are_fast(
        self, store
    ):
        daemon = _Daemon(store)
        conn = http.client.HTTPConnection(daemon.host, daemon.port,
                                          timeout=30)
        try:
            waits = []
            for _ in range(60):
                start = time.perf_counter()
                conn.request("GET", "/query/len")
                response = conn.getresponse()
                body = response.read()
                waits.append(time.perf_counter() - start)
                assert response.status == 200
                assert json.loads(body) == {"rows": 200}
            # One connection served them all...
            assert len(daemon.nodelay) == 1
            # ...and none of them sat out a delayed ACK (~40 ms).
            assert statistics.median(waits) < 0.010
        finally:
            conn.close()
            daemon.close()


class TestLargeBodies:
    ROWS = 30_000

    @pytest.fixture
    def big(self, tmp_path):
        store = FlowStore(tmp_path / "big", spill_rows=8192)
        store.add_all(_flow(i) for i in range(self.ROWS))
        yield store
        store.close()

    def test_a_body_past_the_socket_buffer_arrives_complete(self, big):
        daemon = _Daemon(big, sndbuf=4096)
        try:
            before = len(daemon.writes)
            status, headers, body = chaosclient.raw_get(
                daemon.host, daemon.port,
                "/query/rows-in-window?t0=0&t1=1000",
            )
            assert status == 200
            rows = list(big.rows_in_window(0.0, 1000.0))
            assert len(rows) == self.ROWS
            assert body == json.dumps({"rows": rows}).encode()
            assert len(body) > 20 * 4096
            assert len(daemon.writes) == before + 1
        finally:
            daemon.close()

    def test_a_client_gone_mid_body_only_releases_the_thread(self, big):
        daemon = _Daemon(big, sndbuf=4096)
        baseline = threading.active_count()
        try:
            for _ in range(3):
                sock = chaosclient.open_conn(daemon.host, daemon.port)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                sock.sendall(
                    b"GET /query/rows-in-window?t0=0&t1=1000 HTTP/1.1\r\n"
                    b"Host: x\r\n\r\n"
                )
                assert sock.recv(1024).startswith(b"HTTP/1.1 200 ")
                # Reset, not FIN: the server's blocked send fails now.
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
                sock.close()
            expires = time.monotonic() + 10
            while (threading.active_count() > baseline
                   and time.monotonic() < expires):
                time.sleep(0.02)
            assert threading.active_count() <= baseline
            # Nothing surfaced as a handler error, nothing stays pinned
            # or in flight, and the daemon still answers.
            assert not daemon.errors
            assert daemon.app.singleflight.in_flight() == 0
            assert big._pins == {}
            status, _headers, body = chaosclient.raw_get(
                daemon.host, daemon.port, "/query/len"
            )
            assert (status, json.loads(body)) == (200, {"rows": self.ROWS})
        finally:
            daemon.close()


class TestPostOnlyOnIngest:
    @pytest.mark.parametrize("path", [
        "/query/len", "/stats", "/health", "/metrics", "/nowhere",
    ])
    def test_unbounded_body_is_refused_from_the_headers(self, store,
                                                        path):
        daemon = _Daemon(store, socket_timeout_s=5.0)
        try:
            start = time.perf_counter()
            with chaosclient.open_conn(daemon.host, daemon.port) as sock:
                sock.sendall(
                    f"POST {path} HTTP/1.1\r\nHost: x\r\n"
                    f"Content-Length: {10 << 30}\r\n\r\n".encode()
                )
                status, headers, body = chaosclient._read_response(sock)
                elapsed = time.perf_counter() - start
                assert status == 405
                assert json.loads(body) == {"error": "GET required"}
                assert headers["connection"] == "close"
                # Answered from the headers — not after the socket
                # timeout gave up on 10 GiB that never came...
                assert elapsed < 1.0
                # ...and the connection is closed, not left waiting.
                assert chaosclient.wait_closed(sock, 2.0)
            # Counted under its route; a path that is not one shares
            # the "unknown" series (PR 24: no series per probed path).
            route = "unknown" if path == "/nowhere" else path
            assert daemon.app.m_requests.value(route=route, code="405") == 1
        finally:
            daemon.close()

    def test_a_real_body_is_never_read(self, store):
        daemon = _Daemon(store)
        try:
            status, _headers, _body = chaosclient.raw_post(
                daemon.host, daemon.port, "/query/len", b"x" * 100_000
            )
            assert status == 405
            assert daemon.reads == []
            # /ingest, the one POST route, does read its body.
            payload = _batch([_flow(1)])
            status, _headers, _body = chaosclient.raw_post(
                daemon.host, daemon.port, "/ingest", payload
            )
            assert status == 200
            assert daemon.reads == [len(payload)]
        finally:
            daemon.close()


class TestFollowersShareTheBody:
    N = 6

    @pytest.mark.parametrize("route, params, answer", [
        # A dict the server encodes...
        ("fqdns", {}, lambda store: {"fqdns": store.fqdns()}),
        # ...a row route, whose shape writes the body from the row
        # column...
        ("rows-in-window", {"t0": ["0"], "t1": ["1000"]},
         lambda store: {"rows": list(store.rows_in_window(0.0, 1000.0))}),
        # ...and a packed route, whose shape writes it from the
        # merged partial.
        ("server-flow-counts", {},
         lambda store: {"counts": [
             [server, n]
             for server, n in store.server_flow_counts().items()
         ]}),
    ], ids=["dict", "rows", "packed"])
    def test_n_identical_requests_one_execution_one_encode(
        self, store, monkeypatch, route, params, answer
    ):
        app = ServeApp(store)
        executions, encodes = [], []
        release = threading.Event()
        original = app.query_routes[route]

        def held(snap, params):
            executions.append(threading.get_ident())
            assert release.wait(timeout=30)
            return original(snap, params)

        app.query_routes[route] = held
        encode, to_json = server_module._encode, Groups.to_json
        rows_json = queries._rows_json

        def counting_encode(payload):
            body = encode(payload)
            if body is not payload:     # encoded here, not passed on
                encodes.append("dict")
            return body

        def counting_to_json(groups):
            encodes.append("groups")
            return to_json(groups)

        def counting_rows_json(rows):
            encodes.append("rows")
            return rows_json(rows)

        monkeypatch.setattr(server_module, "_encode", counting_encode)
        monkeypatch.setattr(Groups, "to_json", counting_to_json)
        monkeypatch.setattr(queries, "_rows_json", counting_rows_json)
        waiting = []

        class CountedEvent(threading.Event):
            def wait(self, timeout=None):
                waiting.append(threading.get_ident())
                return super().wait(timeout)

        class Flight(singleflight._Flight):
            def __init__(self):
                super().__init__()
                self.done = CountedEvent()

        monkeypatch.setattr(singleflight, "_Flight", Flight)
        results = []
        threads = [
            threading.Thread(target=lambda: results.append(
                app.handle("GET", f"/query/{route}", params)
            )) for _ in range(self.N)
        ]
        for thread in threads:
            thread.start()
        # The leader is held above until every follower waits on its
        # flight: no timing decides who coalesces.
        expires = time.monotonic() + 30
        while len(waiting) < self.N - 1 and time.monotonic() < expires:
            time.sleep(0.005)
        assert len(waiting) == self.N - 1
        release.set()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert len(executions) == 1
        assert len(encodes) == 1
        expected = json.dumps(answer(store), sort_keys=True).encode()
        assert [result[2] for result in results] == [expected] * self.N
        assert {status for status, *_rest in results} == {200}
        # One bytes object handed to all, not N equal ones.
        bodies = [body for _status, _ctype, body, _headers in results]
        assert all(body is bodies[0] for body in bodies)
        assert bodies[0] == json.dumps(
            answer(store), sort_keys=True
        ).encode()
        assert app.m_coalesced.value(route=route) == self.N - 1
