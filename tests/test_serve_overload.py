"""Service-level chaos suite: the serve daemon under abuse.

PR 6 proved the store's crash discipline with filesystem fault
injection; this suite extends the same discipline one layer up, to the
always-on daemon.  What must hold:

* **admission** — load past the per-class in-flight + queue limits is
  shed with 503 + ``Retry-After`` while ``/health`` and ``/metrics``
  keep answering;
* **deadlines** — a query past its budget returns 504 with honest
  partial-work counters instead of finishing an unbounded scan, in
  serial and ``parallel=N`` kernel dispatch alike;
* **degradation** — ENOSPC on the WAL path flips ingest to read-only
  (503 + machine-readable reason), probes back off exponentially, and
  the ready→read-only→ready cycle is *exact* (transition counters);
* **transport** — slow-loris clients are timed out, mid-body
  disconnects never become torn batches, oversized bodies are refused
  from ``Content-Length`` before a byte of body is read;
* **singleflight** — a crashing or expiring leader never hangs or
  poisons its followers;
* **no wedging** — after every storm the thread count returns to
  baseline, the coalescing table is empty, and every 200-acked ingest
  row is durable (proven across a concurrent SIGTERM in the CLI test).

Misbehaving clients come from :mod:`tests.chaosclient`; filesystem
faults from :mod:`tests.faultfs` (scoped to the WAL via ``only=``).

Since PR 24 a finished answer is kept until ``store.version()`` moves.
The deadline tests (``TestDeadlines``, ``TestShardedDeadlines``) are
about cancelling an *executing* scan, so their apps keep nothing
(``retain_bytes = 0``): a kept answer needs no scan and would turn
their 504s into 200s were a route ever asked twice.  Everything else
runs the production budget: the admission tests hold or shed the first
request for a key (and a shed request never reaches the table), and
the chaos sweep's ``/query/len`` storm runs beside an ingest storm, so
it exercises retention under a moving version exactly as deployed.
"""

from __future__ import annotations

import errno
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

import chaosclient
from faultfs import FaultFS, inject
from repro.analytics import storage
from repro.analytics.storage import FlowStore
from repro.net.flow import FiveTuple, FlowRecord, Protocol, TransportProto
from repro.net.ip import ip_from_str
from repro.serve.admission import AdmissionController, RouteClassLimits
from repro.serve.deadline import Deadline, DeadlineExceeded
from repro.serve.governor import READ_ONLY, READY, DegradationGovernor
from repro.serve.server import ServeApp
from repro.serve.singleflight import SingleFlight, SingleFlightTimeout
from repro.sniffer.eventcodec import BatchEncoder

CLIENT = ip_from_str("10.1.0.5")
WEB = ip_from_str("93.184.216.34")


def _flow(i: int, fqdn: str | None = None) -> FlowRecord:
    return FlowRecord(
        fid=FiveTuple(CLIENT + i % 3, WEB + i % 7, 40_000 + i % 20_000,
                      443, TransportProto.TCP),
        start=100.0 + i, end=101.0 + i, protocol=Protocol.TLS,
        bytes_up=100 + i, bytes_down=2_000 + i, packets=6,
        fqdn=fqdn if fqdn is not None else f"cdn{i % 3}.example.com",
    )


def _batch(flows) -> bytes:
    encoder = BatchEncoder()
    for flow in flows:
        encoder.add_flow(flow)
    return encoder.take()


class _FakeClock:
    """Deterministic monotonic time for governor/admission tests."""

    def __init__(self):
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class _Daemon:
    """A serve app + HTTP listener on an ephemeral port, in-process."""

    def __init__(self, store: FlowStore, **app_kwargs):
        self.app = ServeApp(store, **app_kwargs)
        self.httpd = self.app.make_server("127.0.0.1", 0)
        self.host, self.port = self.httpd.server_address[:2]
        self.base = f"http://{self.host}:{self.port}"
        self.thread = threading.Thread(
            target=self.httpd.serve_forever, daemon=True
        )
        self.thread.start()

    def get(self, path: str, headers: dict | None = None):
        request = urllib.request.Request(
            self.base + path, headers=headers or {}
        )
        with urllib.request.urlopen(request, timeout=30) as rsp:
            return json.load(rsp)

    def post(self, path: str, body: bytes):
        request = urllib.request.Request(
            self.base + path, data=body, method="POST"
        )
        with urllib.request.urlopen(request, timeout=30) as rsp:
            return json.load(rsp)

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()


def _preserve_on_failure(directory, label: str) -> None:
    """Copy a failing store for the CI crash-artifact upload."""
    root = os.environ.get("REPRO_CRASH_ARTIFACTS")
    if not root or not os.path.isdir(str(directory)):
        return
    target = os.path.join(root, label)
    os.makedirs(root, exist_ok=True)
    shutil.copytree(directory, target, dirs_exist_ok=True)


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


class TestAdmission:
    def _app(self, tmp_path, max_inflight=1, max_queue=0,
             max_wait=0.0) -> ServeApp:
        store = FlowStore(tmp_path / "store", spill_rows=64)
        store.add_all(_flow(i) for i in range(50))
        return ServeApp(
            store,
            admission=AdmissionController({
                "query": RouteClassLimits(
                    max_inflight, max_queue, max_wait
                ),
                "ingest": RouteClassLimits(1, 0, 0.0),
            }),
        )

    def test_excess_queries_shed_503_with_retry_after(self, tmp_path):
        app = self._app(tmp_path)
        entered, release = threading.Event(), threading.Event()
        original = app.query_routes["len"]

        def slow(snap, params):
            entered.set()
            release.wait(timeout=30)
            return original(snap, params)

        app.query_routes["len"] = slow
        results = []
        worker = threading.Thread(target=lambda: results.append(
            app.handle("GET", "/query/len", {})
        ))
        worker.start()
        try:
            assert entered.wait(timeout=30)
            # The single query slot is held; a *different* query (no
            # coalescing possible) must be shed immediately.
            status, _ctype, payload, headers = app.handle(
                "GET", "/query/fqdns", {}
            )
            assert status == 503
            body = json.loads(payload)
            assert body["error"] == "overloaded"
            assert body["route_class"] == "query"
            assert headers["Retry-After"] == str(
                body["retry_after_s"]
            )
            assert app.m_shed.value(route_class="query") == 1
            # The exempt routes answer while the gate is full.
            status, _ctype, payload, _headers = app.handle(
                "GET", "/health", {}
            )
            assert status == 200
            health = json.loads(payload)
            assert health["admission"]["query"]["inflight"] == 1
            status, _ctype, _payload, _headers = app.handle(
                "GET", "/metrics", {}
            )
            assert status == 200
        finally:
            release.set()
            worker.join(timeout=30)
        status, _ctype, payload, _headers = results[0]
        assert status == 200
        # The slot was released: the same query now succeeds.
        status, _ctype, _payload, _headers = app.handle(
            "GET", "/query/fqdns", {}
        )
        assert status == 200
        app.store.close()

    def test_bounded_queue_admits_when_slot_frees(self, tmp_path):
        app = self._app(tmp_path, max_inflight=1, max_queue=1,
                        max_wait=30.0)
        entered, release = threading.Event(), threading.Event()
        original = app.query_routes["len"]

        def slow(snap, params):
            entered.set()
            release.wait(timeout=30)
            return original(snap, params)

        app.query_routes["len"] = slow
        holder = threading.Thread(target=lambda: app.handle(
            "GET", "/query/len", {}
        ))
        holder.start()
        assert entered.wait(timeout=30)
        queued_result = []
        queued = threading.Thread(target=lambda: queued_result.append(
            app.handle("GET", "/query/fqdns", {})
        ))
        queued.start()
        deadline = time.monotonic() + 30
        while (app.admission.queued("query") != 1
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert app.admission.queued("query") == 1
        # Queue full: the next arrival is shed, not parked.
        status, _ctype, _payload, _headers = app.handle(
            "GET", "/query/slds", {}
        )
        assert status == 503
        release.set()
        holder.join(timeout=30)
        queued.join(timeout=30)
        status, _ctype, _payload, _headers = queued_result[0]
        assert status == 200
        assert app.admission.queued("query") == 0
        assert app.admission.inflight("query") == 0
        app.store.close()


# ---------------------------------------------------------------------------
# Request deadlines
# ---------------------------------------------------------------------------


class TestDeadlines:
    def _store(self, tmp_path, parallel=None) -> FlowStore:
        store = FlowStore(tmp_path / "store", spill_rows=32,
                          parallel=parallel)
        store.add_all(_flow(i) for i in range(200))
        store.flush()
        assert len(store._segments) >= 4
        return store

    def test_expired_deadline_yields_504_with_partial_counters(
        self, tmp_path
    ):
        store = self._store(tmp_path)
        daemon = _Daemon(store)
        daemon.app.singleflight.retain_bytes = 0
        try:
            # A kernel that sleeps per segment: the deadline expires
            # mid-scan, so some kernels finish and the rest never run.
            def slow_scan(snap, params):
                def kernel(db, fqdn_map, local_rows, base):
                    time.sleep(0.06)
                    return len(db)
                return {"parts": snap._run_sources(kernel)}

            daemon.app.query_routes["slow-scan"] = slow_scan
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                daemon.get("/query/slow-scan",
                           headers={"X-Request-Deadline": "0.15"})
            assert excinfo.value.code == 504
            body = json.load(excinfo.value)
            assert body["deadline_s"] == pytest.approx(0.15)
            assert body["kernels_scheduled"] >= 4
            assert 1 <= body["kernels_done"] < (
                body["kernels_scheduled"]
            )
            metrics = daemon.app.m_deadline_exceeded
            assert metrics.value(route="/query/slow-scan") == 1
            # The store is not poisoned: a fresh query succeeds and
            # nothing stays pinned or in flight.
            assert daemon.get("/query/len")["rows"] == 200
            assert daemon.app.singleflight.in_flight() == 0
            assert store._pins == {}
        finally:
            daemon.close()
            store.close()

    def test_cancellation_reaches_the_parallel_pool(self, tmp_path):
        store = self._store(tmp_path, parallel=2)
        app = ServeApp(store)
        app.singleflight.retain_bytes = 0

        def slow_scan(snap, params):
            def kernel(db, fqdn_map, local_rows, base):
                time.sleep(0.05)
                return len(db)
            return {"parts": snap._run_sources(kernel)}

        app.query_routes["slow-scan"] = slow_scan
        status, _ctype, payload, _headers = app.handle(
            "GET", "/query/slow-scan", {},
            headers={"X-Request-Deadline": "0.08"},
        )
        assert status == 504
        body = json.loads(payload)
        assert body["kernels_done"] < body["kernels_scheduled"]
        store.close()

    def test_token_checked_at_kernel_boundaries(self, tmp_path):
        # Direct storage-level contract: an expired token stops the
        # pass before the next kernel, with exact accounting.
        store = self._store(tmp_path)
        token = Deadline(60.0)
        calls = []

        def kernel(db, fqdn_map, local_rows, base):
            calls.append(base)
            if len(calls) == 2:
                token.expires_at = 0.0  # expire mid-pass
            return 0

        snap = store.pin()
        snap.cancel_token = token
        with pytest.raises(DeadlineExceeded):
            snap._run_sources(kernel)
        store.unpin(snap)
        assert len(calls) == 2
        assert token.kernels_done == 2
        assert token.kernels_scheduled > 2
        store.close()

    def test_bad_deadline_header_is_a_400(self, tmp_path):
        store = FlowStore(tmp_path / "store")
        app = ServeApp(store)
        for bad in ("zero", "0", "-1"):
            status, _ctype, payload, _headers = app.handle(
                "GET", "/query/len", {},
                headers={"X-Request-Deadline": bad},
            )
            assert status == 400, bad
            assert "X-Request-Deadline" in json.loads(payload)["error"]
        store.close()


# ---------------------------------------------------------------------------
# Read-only degradation
# ---------------------------------------------------------------------------


class TestDegradation:
    def test_ready_read_only_ready_cycle_is_exact(self, tmp_path):
        clock = _FakeClock()
        store = FlowStore(tmp_path / "store", spill_rows=10_000)
        app = ServeApp(store, governor=DegradationGovernor(
            backoff_s=1.0, backoff_max_s=8.0, clock=clock,
        ))

        def ingest(i):
            return app.handle(
                "POST", "/ingest", {},
                _batch([_flow(i, fqdn=f"b{i}.example.com")]),
            )

        fs = FaultFS(persistent={"write": errno.ENOSPC},
                     only="tail.wal")
        saved_sleep = storage._sleep
        storage._sleep = lambda _s: None  # skip the retry backoff
        try:
            with inject(fs):
                # ENOSPC escapes the store's retries → 503, and the
                # breaker trips straight to read-only (capacity errno).
                status, _c, payload, headers = ingest(0)
                assert status == 503
                body = json.loads(payload)
                assert body["error"] == "ingest failed"
                assert body["reason"] == "ENOSPC"
                assert headers["Retry-After"] == "1"
                assert app.governor.state == READ_ONLY
                # Before the backoff elapses every ingest is refused
                # *without touching the store*.
                ops_before = fs.ops
                status, _c, payload, headers = ingest(1)
                assert status == 503
                body = json.loads(payload)
                assert body["error"] == "store is read-only"
                assert body["reason"] == "ENOSPC"
                assert "Retry-After" in headers
                assert fs.ops == ops_before
                # Health + metrics surface the state.
                status, _c, payload, _h = app.handle(
                    "GET", "/health", {}
                )
                service = json.loads(payload)["service"]
                assert service["state"] == READ_ONLY
                assert service["transitions"][READ_ONLY] == 1
                assert "serve_read_only 1" in app.registry.render()
                # Backoff elapses → exactly one probe is admitted; it
                # fails (fault still injected) and the backoff doubles.
                clock.advance(1.5)
                status, _c, _p, _h = ingest(2)
                assert status == 503
                assert app.governor.probes == {"ok": 0, "failed": 1}
                clock.advance(1.5)  # less than the doubled backoff
                ops_before = fs.ops
                status, _c, _p, _h = ingest(3)
                assert status == 503
                assert fs.ops == ops_before  # refused, not probed
            # Fault cleared + backoff elapsed → the probe succeeds and
            # the service recovers on its own.
            clock.advance(2.0)
            status, _c, payload, _h = ingest(4)
            assert status == 200
            assert json.loads(payload)["rows"] == 1
            assert app.governor.state == READY
            # The documented state machine, exactly: one trip, one
            # recovery, one failed probe, one successful probe.
            assert app.governor.transitions == {
                READY: 1, READ_ONLY: 1,
            }
            assert app.governor.probes == {"ok": 1, "failed": 1}
            assert "serve_read_only 0" in app.registry.render()
            transitions = app.m_degraded_transitions
            assert transitions.value(to=READ_ONLY) == 1
            assert transitions.value(to=READY) == 1
            # Shed/refused batches never reached the store; the acked
            # one is durable.
            store.flush()
            assert sorted(store.fqdns()) == ["b4.example.com"]
        finally:
            storage._sleep = saved_sleep
            store.close()

    def test_non_capacity_errors_need_a_failure_streak(self):
        clock = _FakeClock()
        governor = DegradationGovernor(failure_threshold=3,
                                       clock=clock)
        for _ in range(2):
            governor.record_failure(OSError(errno.EIO, "io error"))
            assert governor.state == READY
        governor.record_success()  # streak broken
        for _ in range(2):
            governor.record_failure(OSError(errno.EIO, "io error"))
            assert governor.state == READY
        governor.record_failure(OSError(errno.EIO, "io error"))
        assert governor.state == READ_ONLY
        assert governor.reason == "EIO"

    def test_probe_backoff_doubles_and_is_bounded(self):
        clock = _FakeClock()
        governor = DegradationGovernor(backoff_s=1.0, backoff_max_s=4.0,
                                       clock=clock)
        governor.record_failure(OSError(errno.ENOSPC, "full"))
        assert governor.state == READ_ONLY
        expected = [2.0, 4.0, 4.0, 4.0]  # doubling, then the ceiling
        for backoff in expected:
            clock.advance(100.0)
            admitted, _info = governor.admit()
            assert admitted  # the probe
            admitted, info = governor.admit()
            assert not admitted  # only one probe at a time
            governor.record_failure(OSError(errno.ENOSPC, "full"))
            assert governor._backoff_s == backoff
        clock.advance(100.0)
        admitted, _info = governor.admit()
        assert admitted
        governor.record_success()
        assert governor.state == READY
        assert governor.transitions == {READY: 1, READ_ONLY: 1}


# ---------------------------------------------------------------------------
# Singleflight hardening
# ---------------------------------------------------------------------------


class TestSingleFlightHardening:
    def test_followers_redispatch_past_a_crashed_leader(self):
        flight = SingleFlight()
        entered, release = threading.Event(), threading.Event()

        def crash():
            entered.set()
            release.wait(timeout=30)
            raise RuntimeError("leader crashed")

        leader_error = []

        def leader():
            try:
                flight.do("key", crash)
            except RuntimeError as exc:
                leader_error.append(str(exc))

        follower_result = []

        def follower():
            follower_result.append(flight.do(
                "key", lambda: "recomputed",
                timeout=30.0, retry_on_leader_error=True,
            ))

        first = threading.Thread(target=leader)
        first.start()
        assert entered.wait(timeout=30)
        second = threading.Thread(target=follower)
        second.start()
        time.sleep(0.1)
        release.set()
        first.join(timeout=30)
        second.join(timeout=30)
        assert leader_error == ["leader crashed"]
        # The follower re-dispatched as a fresh leader instead of
        # inheriting the crash (or hanging).
        assert follower_result == [("recomputed", False)]
        assert flight.in_flight() == 0

    def test_follower_wait_is_bounded(self):
        flight = SingleFlight()
        entered, release = threading.Event(), threading.Event()

        def stall():
            entered.set()
            release.wait(timeout=30)
            return "late"

        leader = threading.Thread(
            target=lambda: flight.do("key", stall)
        )
        leader.start()
        assert entered.wait(timeout=30)
        start = time.monotonic()
        with pytest.raises(SingleFlightTimeout):
            flight.do("key", lambda: "never", timeout=0.2)
        assert time.monotonic() - start < 5.0
        release.set()
        leader.join(timeout=30)
        assert flight.in_flight() == 0

    def test_default_mode_still_propagates_leader_errors(self):
        flight = SingleFlight()
        entered, release = threading.Event(), threading.Event()

        def crash():
            entered.set()
            release.wait(timeout=30)
            raise ValueError("boom")

        errors = []

        def leader():
            try:
                flight.do("key", crash)
            except ValueError:
                errors.append("leader")

        def follower():
            try:
                flight.do("key", lambda: "never")
            except ValueError:
                errors.append("follower")

        first = threading.Thread(target=leader)
        first.start()
        assert entered.wait(timeout=30)
        second = threading.Thread(target=follower)
        second.start()
        time.sleep(0.1)
        release.set()
        first.join(timeout=30)
        second.join(timeout=30)
        assert sorted(errors) == ["follower", "leader"]


# ---------------------------------------------------------------------------
# Transport hardening
# ---------------------------------------------------------------------------


class TestTransportHardening:
    @pytest.fixture()
    def daemon(self, tmp_path):
        store = FlowStore(tmp_path / "store", spill_rows=64)
        server = _Daemon(store, socket_timeout_s=0.5)
        yield server
        server.close()
        store.close()

    def test_slow_loris_is_timed_out_not_accumulated(self, daemon):
        baseline = threading.active_count()
        socks = [
            chaosclient.slow_loris(daemon.host, daemon.port)
            for _ in range(4)
        ]
        try:
            # The daemon still answers while the loris sockets stall.
            assert daemon.get("/query/len")["rows"] == 0
            # Each stalled connection is closed by the socket timeout.
            for sock in socks:
                assert chaosclient.wait_closed(sock, deadline_s=10.0)
        finally:
            for sock in socks:
                sock.close()
        deadline = time.monotonic() + 10
        while (threading.active_count() > baseline + 1
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert threading.active_count() <= baseline + 1

    def test_mid_body_disconnect_never_lands_a_torn_batch(
        self, daemon
    ):
        assert daemon.post("/ingest",
                           _batch([_flow(0)]))["rows"] == 1
        chaosclient.mid_body_disconnect(
            daemon.host, daemon.port, content_length=50_000,
            send_bytes=512,
        )
        # The handler thread is released by its socket timeout and the
        # partial upload never reaches the store.
        time.sleep(0.8)
        assert daemon.get("/query/len")["rows"] == 1
        assert daemon.post("/ingest",
                           _batch([_flow(1)]))["rows"] == 1

    def test_oversized_body_refused_from_the_header(self, daemon):
        daemon.app.max_ingest_bytes = 4096
        status, sent = chaosclient.oversized_post(
            daemon.host, daemon.port, content_length=10 << 20,
        )
        assert status == 413
        # Refused from Content-Length alone: the client got its answer
        # after a negligible fraction of the announced 10 MiB.
        assert sent <= 64 << 10
        assert daemon.get("/health")["service"]["state"] == READY

    def test_truncated_body_is_a_400_when_client_waits(self, daemon):
        with chaosclient.open_conn(daemon.host, daemon.port) as sock:
            sock.sendall(
                f"POST /ingest HTTP/1.1\r\nHost: {daemon.host}\r\n"
                f"Content-Length: 1000\r\n\r\n".encode()
            )
            sock.sendall(b"x" * 100)
            sock.shutdown(socket.SHUT_WR)  # EOF with 900 bytes owed
            status, _headers, _body = chaosclient._read_response(sock)
        assert status == 400

    def test_missing_content_length_is_a_411(self, daemon):
        with chaosclient.open_conn(daemon.host, daemon.port) as sock:
            sock.sendall(
                f"POST /ingest HTTP/1.1\r\nHost: {daemon.host}\r\n"
                f"\r\n".encode()
            )
            status, _headers, _body = chaosclient._read_response(sock)
        assert status == 411


# ---------------------------------------------------------------------------
# The combined chaos sweep
# ---------------------------------------------------------------------------


class TestChaosSweep:
    def test_mixed_abuse_never_wedges_the_daemon(self, tmp_path):
        store_dir = tmp_path / "store"
        store = FlowStore(store_dir, spill_rows=64)
        daemon = _Daemon(
            store,
            admission=AdmissionController({
                "query": RouteClassLimits(2, 2, 0.05),
                "ingest": RouteClassLimits(1, 1, 0.05),
            }),
            socket_timeout_s=0.5,
        )
        baseline = threading.active_count()
        acked_fqdns: list[str] = []
        shed_fqdns: list[str] = []
        ack_lock = threading.Lock()
        stop = threading.Event()
        errors: list[str] = []

        def ingest_storm(worker: int) -> None:
            i = 0
            while not stop.is_set():
                fqdn = f"w{worker}-{i}.example.com"
                i += 1
                try:
                    status, _h, body = chaosclient.raw_post(
                        daemon.host, daemon.port, "/ingest",
                        _batch([_flow(i, fqdn=fqdn)]),
                    )
                except OSError:
                    continue
                with ack_lock:
                    if status == 200:
                        acked_fqdns.append(fqdn)
                    elif status == 503:
                        shed_fqdns.append(fqdn)
                    elif status != 504:
                        errors.append(f"ingest {fqdn}: {status}")

        def query_storm() -> None:
            while not stop.is_set():
                try:
                    status, _h, _b = chaosclient.raw_get(
                        daemon.host, daemon.port, "/query/len",
                        headers={"X-Request-Deadline": "5"},
                    )
                except OSError:
                    continue
                if status not in (200, 503, 504):
                    errors.append(f"query: {status}")

        def loris_storm() -> None:
            while not stop.is_set():
                try:
                    sock = chaosclient.slow_loris(
                        daemon.host, daemon.port
                    )
                except OSError:
                    continue
                time.sleep(0.2)
                sock.close()

        def disconnect_storm() -> None:
            while not stop.is_set():
                try:
                    chaosclient.mid_body_disconnect(
                        daemon.host, daemon.port,
                        content_length=20_000, send_bytes=64,
                    )
                except OSError:
                    pass
                time.sleep(0.05)

        workers = (
            [threading.Thread(target=ingest_storm, args=(w,))
             for w in range(3)]
            + [threading.Thread(target=query_storm)
               for _ in range(4)]
            + [threading.Thread(target=loris_storm)]
            + [threading.Thread(target=disconnect_storm)]
        )
        try:
            for worker in workers:
                worker.start()
            storm_deadline = time.monotonic() + 2.0
            while time.monotonic() < storm_deadline:
                # The exempt routes must answer *during* the storm.
                health = daemon.get("/health")
                assert "service" in health
                time.sleep(0.2)
            stop.set()
            for worker in workers:
                worker.join(timeout=30)
                assert not worker.is_alive()

            assert errors == [], errors[:10]
            assert acked_fqdns, "storm never landed a single ack"
            assert shed_fqdns, "storm never tripped admission"
            # Coalescing state survived the shed/deadline storm clean.
            assert daemon.app.singleflight.in_flight() == 0
            # Every 200-acked batch is present; every shed one absent.
            daemon.app.store.flush()
            present = set(store.fqdns())
            missing = [f for f in acked_fqdns if f not in present]
            leaked = [f for f in shed_fqdns if f in present]
            assert missing == [], missing[:10]
            assert leaked == [], leaked[:10]
            # Thread count drains back to baseline once the socket
            # timeouts reap the loris/disconnect stragglers.
            deadline = time.monotonic() + 15
            while (threading.active_count() > baseline + 2
                   and time.monotonic() < deadline):
                time.sleep(0.1)
            assert threading.active_count() <= baseline + 2
            assert daemon.get("/health")["status"] == "ok"
        except BaseException:
            stop.set()
            _preserve_on_failure(store_dir, "serve-chaos-sweep")
            raise
        finally:
            stop.set()
            daemon.close()
            store.close()


# ---------------------------------------------------------------------------
# SIGTERM drain while shedding (CLI, subprocess)
# ---------------------------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestSigtermWhileShedding:
    def test_acked_rows_survive_shed_rows_absent_exit_by_signal(
        self, tmp_path
    ):
        directory = tmp_path / "store"
        port = _free_port()
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        child = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.cli", str(directory),
             "--host", "127.0.0.1", "--port", str(port),
             "--ingest-inflight", "1", "--ingest-queue", "0",
             "--queue-wait", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, text=True,
        )
        acked: list[str] = []
        shed: list[str] = []
        lock = threading.Lock()
        stop = threading.Event()

        def storm(worker: int) -> None:
            i = 0
            while not stop.is_set():
                fqdn = f"w{worker}-{i}.example.com"
                i += 1
                try:
                    status, _h, body = chaosclient.raw_post(
                        "127.0.0.1", port, "/ingest",
                        _batch([_flow(i, fqdn=fqdn)]), timeout=5.0,
                    )
                except OSError:
                    continue  # shutdown race: not acked, don't count
                with lock:
                    if status == 200:
                        acked.append(fqdn)
                    elif status == 503:
                        shed.append(fqdn)

        try:
            line = child.stdout.readline()
            assert "listening" in line, line
            workers = [
                threading.Thread(target=storm, args=(w,))
                for w in range(6)
            ]
            for worker in workers:
                worker.start()
            # Let the flood build up acks and sheds, then kill while
            # both are happening.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                with lock:
                    if acked and shed:
                        break
                time.sleep(0.05)
            child.send_signal(signal.SIGTERM)
            child.wait(timeout=30)
            stop.set()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            stop.set()
            if child.poll() is None:
                child.kill()
                child.wait()
        assert child.returncode == -signal.SIGTERM, (
            child.stderr.read()
        )
        assert acked, "no ingest was ever acknowledged"
        assert shed, "admission never shed while draining"
        store = FlowStore(directory)
        try:
            present = set(store.fqdns())
            missing = [f for f in acked if f not in present]
            leaked = [f for f in shed if f in present]
            if missing or leaked:
                _preserve_on_failure(directory, "serve-sigterm-shed")
            # Every 200 before the signal is durable; every shed 503
            # left no trace.
            assert missing == [], missing[:10]
            assert leaked == [], leaked[:10]
            # The drain sealed the tail: nothing left to replay.
            assert store.health()["wal"]["recovered_rows"] == 0
        finally:
            store.close()


# ---------------------------------------------------------------------------
# Request deadlines over a sharded store
# ---------------------------------------------------------------------------


class _ExpiringToken(Deadline):
    """A generous deadline that expires at its ``at``-th ``check()``."""

    def __init__(self, at: int):
        super().__init__(60.0)
        self.at = at
        self.checks = 0

    def check(self) -> None:
        self.checks += 1
        if self.checks >= self.at:
            self.expires_at = 0.0
        super().check()


@pytest.mark.parametrize("backend", ["inprocess", "process"])
class TestShardedDeadlines:
    """Regression: the serve layer set the request deadline on a
    ``CoordinatorSnapshot`` slot nothing read, so a sharded daemon
    answered in full where a flat one answers 504."""

    def _store(self, tmp_path, backend):
        from repro.analytics.shard import ShardCoordinator

        coord = ShardCoordinator(tmp_path / "sharded", shards=2,
                                 spill_rows=32, backend=backend)
        coord.add_all(_flow(i) for i in range(200))
        coord.flush()
        assert all(coord._rows), "both shards must hold rows"
        return coord

    def test_expired_deadline_is_a_504_not_an_answer(
        self, tmp_path, backend
    ):
        coord = self._store(tmp_path, backend)
        app = ServeApp(coord)
        app.singleflight.retain_bytes = 0
        try:
            for route in ("fqdn-server-counts", "rows-for-fqdn", "len",
                          "fqdns"):
                status, _ctype, payload, _headers = app.handle(
                    "GET", f"/query/{route}",
                    {"fqdn": ["cdn1.example.com"]}
                    if route == "rows-for-fqdn" else {},
                    headers={"X-Request-Deadline": "1e-9"},
                )
                assert status == 504, (route, payload)
                body = json.loads(payload)
                assert body["deadline_s"] == pytest.approx(1e-9)
                # One unit of work per shard; none started.
                assert body["kernels_scheduled"] == 2
                assert body["kernels_done"] == 0
                assert app.m_deadline_exceeded.value(
                    route=f"/query/{route}"
                ) == 1
            # Not poisoned: the same daemon answers under a sane budget.
            status, _ctype, payload, _headers = app.handle(
                "GET", "/query/len", {}
            )
            assert status == 200
            assert json.loads(payload)["rows"] == 200
            assert app.singleflight.in_flight() == 0
        finally:
            coord.close()

    def test_expiry_between_shards_keeps_the_backend_framed(
        self, tmp_path, backend
    ):
        coord = self._store(tmp_path, backend)
        try:
            # Checks: in-process one per shard boundary; over pipes one
            # before fan-out and one per gathered reply.  Either way
            # the token dies after exactly one shard's work.
            token = _ExpiringToken(at=2)
            with coord.pin() as snap:
                snap.cancel_token = token
                with pytest.raises(DeadlineExceeded):
                    snap.fqdn_server_counts()
            assert token.progress() == {
                "kernels_scheduled": 2, "kernels_done": 1,
            }
            # Every pipe was drained before raising: the next fan
            # still pairs each reply with its request.
            assert len(coord) == 200
            assert sum(
                count for _f, _s, count in coord.fqdn_server_counts()
            ) == 200
        finally:
            coord.close()
