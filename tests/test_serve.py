"""End-to-end coverage for the ``repro-serve`` service layer (ISSUE 7).

The contracts under test:

* **bit-identical over HTTP** — every answer the daemon returns while
  ingest is live equals the same query against an in-memory
  ``FlowDatabase.from_flows`` of the acknowledged prefix;
* **snapshot isolation** — a reader holding a pinned snapshot keeps
  getting the pinned member set's answers across concurrent seals and
  compactions, and the compacted-away segment files are unlinked only
  after the last pin releases (never under a reader);
* **single-flight coalescing** — N identical concurrent queries
  execute once (proven with a barrier inside the query function);
* **metrics** — ``/metrics`` exposes the documented families in
  Prometheus text format and they move when traffic happens;
* **SIGTERM** — the daemon drains through the pipeline shutdown path,
  seals the store, and still dies by the signal.

Since PR 24 a finished answer is kept until ``store.version()`` moves
(``tests/test_serve_retention.py``).  Every app here keeps the
production budget, on purpose: the bit-identity tests repeat the same
requests after every acknowledged batch, so they are also the proof
that no kept answer crosses an ack (flat and sharded); the coalescing
tests hold the *first* request for a key in flight, which retention
cannot precede; ``TestSingleFlight`` passes no ``version``, so its
"next call computes fresh" still holds.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.analytics.database import FlowDatabase
from repro.analytics.storage import FlowStore
from repro.net.flow import FiveTuple, FlowRecord, Protocol, TransportProto
from repro.net.ip import ip_from_str
from repro.serve.metrics import MetricsRegistry
from repro.serve.server import ServeApp
from repro.serve.singleflight import SingleFlight
from repro.sniffer.eventcodec import BatchEncoder

CLIENT = ip_from_str("10.1.0.5")
WEB = ip_from_str("93.184.216.34")


def _flow(i: int) -> FlowRecord:
    return FlowRecord(
        fid=FiveTuple(CLIENT + i % 3, WEB + i % 7, 40_000 + i, 443,
                      TransportProto.TCP),
        start=100.0 + i, end=101.0 + i, protocol=Protocol.TLS,
        bytes_up=100 + i, bytes_down=2_000 + i, packets=6,
        fqdn=f"cdn{i % 3}.example.com",
    )


def _batch(flows) -> bytes:
    encoder = BatchEncoder()
    for flow in flows:
        encoder.add_flow(flow)
    return encoder.take()


class _Daemon:
    """A serve app + HTTP listener on an ephemeral port, in-process."""

    def __init__(self, store: FlowStore):
        self.app = ServeApp(store)
        self.httpd = self.app.make_server("127.0.0.1", 0)
        host, port = self.httpd.server_address[:2]
        self.base = f"http://{host}:{port}"
        self.thread = threading.Thread(
            target=self.httpd.serve_forever, daemon=True
        )
        self.thread.start()

    def get(self, path: str):
        with urllib.request.urlopen(self.base + path, timeout=30) as rsp:
            return json.load(rsp)

    def get_text(self, path: str) -> str:
        with urllib.request.urlopen(self.base + path, timeout=30) as rsp:
            return rsp.read().decode("utf-8")

    def post(self, path: str, body: bytes):
        request = urllib.request.Request(
            self.base + path, data=body, method="POST"
        )
        with urllib.request.urlopen(request, timeout=30) as rsp:
            return json.load(rsp)

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()


@pytest.fixture()
def daemon(tmp_path):
    store = FlowStore(tmp_path / "store", spill_rows=64)
    server = _Daemon(store)
    yield server
    server.close()
    store.close()


class TestHttpBitIdentical:
    def test_queries_match_in_memory_database_during_live_ingest(
        self, daemon
    ):
        flows = [_flow(i) for i in range(300)]
        acked = 0
        for start in range(0, 300, 60):
            chunk = flows[start:start + 60]
            assert daemon.post("/ingest", _batch(chunk))["rows"] == 60
            acked += 60
            # Between acks the store is quiescent: the HTTP answer
            # must equal the in-memory database over the acked prefix
            # (the same eight requests every round: an answer kept from
            # the round before would fail here).
            reference = FlowDatabase.from_flows(flows[:acked])
            assert daemon.get("/query/len")["rows"] == acked
            got = daemon.get("/query/rows-in-window?t0=120&t1=260")
            assert got["rows"] == list(
                reference.rows_in_window(120.0, 260.0)
            )
            got = daemon.get("/query/rows-for-fqdn?fqdn=cdn1.example.com")
            assert got["rows"] == list(
                reference.rows_for_fqdn("cdn1.example.com")
            )
            got = daemon.get("/query/fqdn-server-counts")
            assert [tuple(g) for g in got["groups"]] == (
                reference.fqdn_server_counts()
            )
            got = daemon.get("/query/fqdn-flow-byte-totals")
            assert [tuple(g) for g in got["groups"]] == (
                reference.fqdn_flow_byte_totals()
            )
            got = daemon.get("/query/servers-for-fqdn"
                             "?fqdn=cdn0.example.com")
            assert got["servers"] == sorted(
                reference.servers_for_fqdn("cdn0.example.com")
            )
            got = daemon.get("/query/count-by-protocol")
            assert got["counts"] == {
                protocol.value: count
                for protocol, count
                in reference.count_by_protocol().items()
            }
            got = daemon.get("/query/time-span")
            assert (got["t0"], got["t1"]) == reference.time_span()

    def test_queries_run_against_sealed_and_tail_rows(self, daemon):
        # 300 rows over spill_rows=64 leaves sealed segments + a live
        # tail; the store must report both layers.
        daemon.post("/ingest", _batch([_flow(i) for i in range(300)]))
        stats = daemon.get("/stats")
        assert stats["rows"] == 300
        assert stats["wal_epoch"] >= 1
        assert stats["generation"] >= 1
        assert stats["pinned_generations"] == []
        assert stats["scan_stats"]["queries"] >= 0

    def test_error_codes(self, daemon):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            daemon.get("/query/rows-in-window?t0=1")      # missing t1
        assert excinfo.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            daemon.get("/query/no-such-query")
        assert excinfo.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            daemon.get("/nowhere")
        assert excinfo.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            daemon.post("/query/len", b"")                # wrong method
        assert excinfo.value.code == 405
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            daemon.post("/ingest", b"garbage-not-a-batch")
        assert excinfo.value.code == 400

    def test_inverted_window_is_a_400_not_an_empty_answer(self, daemon):
        # Regression: t0 > t1 used to slip through _hint_from_params,
        # silently "pruning" everything (prune-report) or returning an
        # empty row set (rows-in-window).  Both now fail loudly, the
        # way the flowstore CLI always has.
        daemon.post("/ingest", _batch([_flow(i) for i in range(50)]))
        for path in ("/query/rows-in-window?t0=5&t1=1",
                     "/prune-report?t0=5&t1=1"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                daemon.get(path)
            assert excinfo.value.code == 400
            assert "t0 must be <= t1" in excinfo.value.read().decode()
        # The boundary case t0 == t1 stays valid: an empty half-open
        # window [t, t), not an error.
        got = daemon.get("/query/rows-in-window?t0=100&t1=100")
        assert got["rows"] == []

    def test_prune_report_over_http(self, daemon):
        daemon.post("/ingest", _batch([_flow(i) for i in range(200)]))
        report = daemon.get("/prune-report?fqdn=cdn1.example.com")
        assert report["scanned_segments"] + report["pruned_segments"] \
            == len(report["segments"])
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            daemon.get("/prune-report?protocol=bogus")
        assert excinfo.value.code == 400


class TestCoalescing:
    def test_identical_concurrent_queries_execute_once(self, daemon):
        daemon.post("/ingest", _batch([_flow(i) for i in range(100)]))
        app = daemon.app
        executions = []
        release = threading.Event()
        entered = threading.Event()
        original = app.query_routes["rows-in-window"]

        def slow(snap, params):
            executions.append(threading.get_ident())
            entered.set()
            # Barrier: hold the leader in flight until every follower
            # has had time to arrive and coalesce onto it.
            assert release.wait(timeout=30)
            return original(snap, params)

        app.query_routes["rows-in-window"] = slow
        results = []
        errors = []

        def query():
            try:
                results.append(
                    daemon.get("/query/rows-in-window?t0=100&t1=200")
                )
            except Exception as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        threads = [threading.Thread(target=query) for _ in range(6)]
        threads[0].start()
        assert entered.wait(timeout=30)     # leader is inside
        baseline = app.m_coalesced.value(route="rows-in-window")
        for thread in threads[1:]:
            thread.start()
        time.sleep(0.3)                     # let followers enqueue
        release.set()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert len(results) == 6
        reference = results[0]
        assert all(result == reference for result in results)
        # The barrier held the leader, so every follower coalesced:
        # exactly one execution for six requests.
        assert len(executions) == 1
        assert app.m_coalesced.value(route="rows-in-window") >= (
            baseline + 5
        )


class TestSnapshotIsolation:
    def test_pinned_snapshot_survives_concurrent_seal_and_compact(
        self, tmp_path
    ):
        store = FlowStore(tmp_path / "store", spill_rows=50)
        flows = [_flow(i) for i in range(120)]
        store.add_all(flows)
        snapshot = store.pin()
        # Concurrent writer activity: more ingest, a seal, and a full
        # compaction that retires every pre-pin segment file.
        more = [_flow(i) for i in range(120, 220)]
        store.add_all(more)
        store.flush()
        assert store.compact() > 0
        retired = [path for _generation, path in store._retired]
        assert retired, "compaction should defer unlinks under a pin"
        assert all(Path(path).exists() for path in retired)
        # The snapshot answers over its pinned member set: the sealed
        # segments of the pin instant plus the old tail (frozen by the
        # post-pin seal at a chunk boundary) — i.e. some batch-aligned
        # prefix of the acknowledged stream, bit-identical to the
        # in-memory database over that prefix.
        count = len(snapshot)
        assert 120 <= count <= 220
        reference = FlowDatabase.from_flows((flows + more)[:count])
        assert list(snapshot.rows_in_window(0.0, 1e9)) == list(
            reference.rows_in_window(0.0, 1e9)
        )
        assert snapshot.fqdn_server_counts() == (
            reference.fqdn_server_counts()
        )
        # Force rematerialization from the retired files on disk: a
        # pinned reader must never 404 its snapshot.
        for reader in snapshot._segments:
            reader.release()
        assert list(snapshot.rows_for_fqdn("cdn1.example.com")) == list(
            reference.rows_for_fqdn("cdn1.example.com")
        )
        snapshot.close()
        assert snapshot.released
        # Unpin drained the retirement queue and unlinked the files.
        assert store._retired == []
        assert all(not Path(path).exists() for path in retired)
        # The live store serves the full stream.
        full = FlowDatabase.from_flows(flows + more)
        assert list(store.rows_in_window(0.0, 1e9)) == list(
            full.rows_in_window(0.0, 1e9)
        )
        store.close()

    def test_unpin_is_idempotent_and_close_force_drains(self, tmp_path):
        store = FlowStore(tmp_path / "store", spill_rows=30)
        store.add_all([_flow(i) for i in range(90)])
        snapshot = store.pin()
        snapshot.close()
        snapshot.close()                    # second close: no-op
        assert store._pins == {}
        other = store.pin()
        store.flush()
        store.compact()
        assert store._retired
        store.close()                       # force-drains despite pin
        assert store._retired == []
        assert not other.released           # close() doesn't unpin...
        other.close()                       # ...but unpin still works
        assert store._pins == {}

    def test_stats_reports_pins_and_epoch(self, tmp_path):
        store = FlowStore(tmp_path / "store", spill_rows=40)
        store.add_all([_flow(i) for i in range(100)])
        with store.pin():
            stats = store.stats()
            assert stats["wal_epoch"] == store._wal_epoch
            assert stats["generation"] == store._generation
            assert stats["pinned_generations"] == [
                {"generation": store._generation, "readers": 1},
            ]
            assert stats["retired_pending"] == 0
        assert store.stats()["pinned_generations"] == []
        store.close()

    def test_concurrent_readers_during_ingest_see_prefixes(
        self, tmp_path
    ):
        """Hammer queries from threads while the writer ingests;
        every answer must be a gap-free, monotonically growing prefix
        of the stream (the captured tail is live between queries, so
        counts may grow, but an answer must never tear)."""
        store = FlowStore(tmp_path / "store", spill_rows=64,
                          parallel=2)
        stop = threading.Event()
        failures = []

        def reader():
            last = 0
            while not stop.is_set():
                with store.pin() as snapshot:
                    count = len(snapshot)
                    rows = snapshot.rows_in_window(0.0, 1e9)
                    # The full-range answer is the row indices
                    # 0..n-1 with no holes, at least as long as the
                    # count read just before it, and never shrinking.
                    if (list(rows) != list(range(len(rows)))
                            or len(rows) < count or count < last):
                        failures.append((last, count, len(rows)))
                        return
                    last = len(rows)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        flows = [_flow(i) for i in range(600)]
        for start in range(0, 600, 40):
            store.add_all(flows[start:start + 40])
        store.flush()
        store.compact(small_rows=200)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        assert not failures
        assert len(store) == 600
        store.close()


class TestMetrics:
    def test_registry_renders_prometheus_text(self):
        registry = MetricsRegistry()
        counter = registry.counter(
            "demo_total", "Demo counter.", labelnames=("kind",)
        )
        counter.inc(kind="a")
        counter.inc(2, kind="b")
        gauge = registry.gauge("demo_gauge", "Demo gauge.")
        gauge.set(1.5)
        histogram = registry.histogram(
            "demo_seconds", "Demo histogram.", buckets=(0.1, 1.0)
        )
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        text = registry.render()
        assert '# TYPE demo_total counter' in text
        assert 'demo_total{kind="a"} 1' in text
        assert 'demo_total{kind="b"} 2' in text
        assert 'demo_gauge 1.5' in text
        assert 'demo_seconds_bucket{le="0.1"} 1' in text
        assert 'demo_seconds_bucket{le="1"} 2' in text
        assert 'demo_seconds_bucket{le="+Inf"} 3' in text
        assert 'demo_seconds_count 3' in text

    def test_callback_backed_metrics_read_at_scrape_time(self):
        registry = MetricsRegistry()
        state = {"value": 7}
        registry.gauge("demo_live", "Live.", fn=lambda: state["value"])
        assert "demo_live 7" in registry.render()
        state["value"] = 9
        assert "demo_live 9" in registry.render()

    def test_duplicate_registration_rejected(self):
        registry = MetricsRegistry()
        registry.counter("dup_total", "x")
        with pytest.raises(ValueError):
            registry.counter("dup_total", "y")

    def test_metrics_endpoint_exposes_documented_families(self, daemon):
        daemon.post("/ingest", _batch([_flow(i) for i in range(100)]))
        daemon.get("/query/rows-in-window?t0=0&t1=1000")
        text = daemon.get_text("/metrics")
        for family in (
            "serve_requests_total",
            "serve_query_seconds",
            "serve_coalesced_total",
            "serve_ingest_batches_total",
            "serve_ingest_rows_total",
            "serve_inflight_queries",
            "serve_shed_total",
            "serve_deadline_exceeded_total",
            "serve_degraded_transitions_total",
            "serve_degraded_probes_total",
            "serve_read_only",
            "serve_admission_inflight_query",
            "serve_admission_queued_query",
            "serve_admission_inflight_ingest",
            "serve_admission_queued_ingest",
            "flowstore_rows",
            "flowstore_tail_rows",
            "flowstore_segments",
            "flowstore_quarantined_segments",
            "flowstore_generation",
            "flowstore_wal_epoch",
            "flowstore_pinned_readers",
            "flowstore_retired_pending",
            "flowstore_scan_queries_total",
            "flowstore_segments_scanned_total",
            "flowstore_segments_pruned_total",
            "flowstore_wal_recovered_batches",
            "flowstore_wal_recovered_rows",
            "flowstore_wal_torn_bytes_dropped",
            "flowstore_wal_skipped_records",
        ):
            assert f"# TYPE {family} " in text, family
        assert "serve_ingest_rows_total 100" in text
        assert "flowstore_rows 100" in text
        # Ingest-rate accounting also flows through the pipeline hook.
        daemon.app.note_ingest(2, 50)
        text = daemon.get_text("/metrics")
        assert "serve_ingest_rows_total 150" in text
        assert "serve_ingest_batches_total 3" in text

    def test_unknown_paths_share_one_series(self, daemon):
        """Regression: ``serve_requests_total`` was labelled with the
        raw request path, so a scanner minted one immortal series per
        probe (40,000 of them made a 2.2 MB ``/metrics``)."""
        app = daemon.app
        baseline = len(app.m_requests.samples())
        for i in range(10_000):
            assert app.handle("GET", f"/nope/{i}", {})[0] == 404
            assert app.handle("GET", f"/query/x{i}", {})[0] == 404
            assert app.handle("POST", f"/nope/{i}", {})[0] == 405
            assert app.reject(f"/query/x{i}", 405, "GET required")[0] == 405
        # The transport's own refusal (do_POST) goes the same way.
        for path in ("/elsewhere", "/query/nothing"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                daemon.post(path, b"x")
            assert excinfo.value.code == 405
        requests = app.m_requests
        assert requests.value(route="unknown", code="404") == 20_000
        assert requests.value(route="unknown", code="405") == 20_002
        assert len(requests.samples()) == baseline + 2
        # A served route keeps its own series, whatever the verdict.
        daemon.get("/query/len")
        assert requests.value(route="/query/len", code="200") == 1
        assert len(daemon.get_text("/metrics")) < 64_000
        # Nothing a stranger typed became a retention key either.
        assert app.singleflight.retained()[0] == 1


class TestSingleFlight:
    def test_leader_and_followers_share_one_execution(self):
        flight = SingleFlight()
        release = threading.Event()
        entered = threading.Event()
        calls = []

        def work():
            calls.append(1)
            entered.set()
            release.wait(timeout=30)
            return "value"

        outcomes = []

        def run():
            outcomes.append(flight.do("key", work))

        threads = [threading.Thread(target=run) for _ in range(4)]
        threads[0].start()
        assert entered.wait(timeout=30)
        for thread in threads[1:]:
            thread.start()
        time.sleep(0.2)
        release.set()
        for thread in threads:
            thread.join(timeout=30)
        assert len(calls) == 1
        assert sorted(c for _v, c in outcomes) == [False, True, True,
                                                   True]
        assert all(value == "value" for value, _c in outcomes)
        # Key retired: the next call computes fresh.
        release.set()
        value, coalesced = flight.do("key", lambda: "fresh")
        assert (value, coalesced) == ("fresh", False)

    def test_leader_error_propagates_to_followers(self):
        flight = SingleFlight()
        release = threading.Event()
        entered = threading.Event()

        def explode():
            entered.set()
            release.wait(timeout=30)
            raise RuntimeError("boom")

        errors = []

        def leader():
            try:
                flight.do("key", explode)
            except RuntimeError as exc:
                errors.append(("leader", str(exc)))

        def follower():
            try:
                flight.do("key", lambda: "never")
            except RuntimeError as exc:
                errors.append(("follower", str(exc)))

        first = threading.Thread(target=leader)
        first.start()
        assert entered.wait(timeout=30)
        second = threading.Thread(target=follower)
        second.start()
        time.sleep(0.2)
        release.set()
        first.join(timeout=30)
        second.join(timeout=30)
        assert sorted(who for who, _msg in errors) == [
            "follower", "leader",
        ]


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestServeCliSigterm:
    def test_sigterm_seals_the_store_and_keeps_the_exit_status(
        self, tmp_path
    ):
        directory = tmp_path / "store"
        port = _free_port()
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        child = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.cli", str(directory),
             "--host", "127.0.0.1", "--port", str(port)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, text=True,
        )
        try:
            line = child.stdout.readline()
            assert "listening" in line, line
            base = f"http://127.0.0.1:{port}"
            flows = [_flow(i) for i in range(50)]
            request = urllib.request.Request(
                f"{base}/ingest", data=_batch(flows), method="POST"
            )
            with urllib.request.urlopen(request, timeout=30) as rsp:
                assert json.load(rsp)["rows"] == 50
            with urllib.request.urlopen(
                f"{base}/query/len", timeout=30
            ) as rsp:
                assert json.load(rsp)["rows"] == 50
            child.send_signal(signal.SIGTERM)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        assert child.returncode == -signal.SIGTERM, child.stderr.read()
        # The shutdown path sealed the tail: a reopen finds every
        # acknowledged row in segments, nothing left to replay.
        store = FlowStore(directory)
        assert len(store) == 50
        assert store.health()["wal"]["recovered_rows"] == 0
        store.close()


class TestServeSharded:
    """The daemon fronts a sharded store through the same HTTP surface.

    ``repro-serve`` auto-detects ``SHARDS.json`` and opens the
    scatter-gather coordinator; every endpoint must keep working, and
    the answers must equal the in-memory database over the
    coordinator's shard-major row order.
    """

    def test_endpoints_work_against_a_coordinator(self, tmp_path):
        from repro.analytics.shard import ShardCoordinator

        store = ShardCoordinator(tmp_path / "store", shards=2,
                                 spill_rows=64)
        server = _Daemon(store)
        try:
            flows = [_flow(i) for i in range(150)]
            assert server.post("/ingest", _batch(flows))["rows"] == 150
            shard_major = [
                flow for part in store.router.split_flows(flows)
                for flow in part
            ]
            reference = FlowDatabase.from_flows(shard_major)
            assert server.get("/query/len")["rows"] == 150
            got = server.get("/query/rows-in-window?t0=120&t1=200")
            assert got["rows"] == list(
                reference.rows_in_window(120.0, 200.0)
            )
            got = server.get("/query/fqdn-server-counts")
            assert [tuple(g) for g in got["groups"]] == (
                reference.fqdn_server_counts()
            )
            got = server.get("/query/time-span")
            assert (got["t0"], got["t1"]) == reference.time_span()
            stats = server.get("/stats")
            assert stats["sharded"] is True
            assert stats["shards"] == 2
            assert stats["rows"] == 150
            health = server.get("/health")
            assert health["status"] == "ok"
            assert health["shards"] == 2
            metrics = server.get_text("/metrics")
            assert "flowstore_rows 150" in metrics
        finally:
            server.close()
            store.close()

    def test_cli_detects_shards_json(self, tmp_path):
        from repro.analytics.shard import ShardCoordinator

        directory = tmp_path / "store"
        seed = ShardCoordinator(directory, shards=2)
        seed.add_all([_flow(i) for i in range(20)])
        seed.close()
        port = _free_port()
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        child = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.cli", str(directory),
             "--host", "127.0.0.1", "--port", str(port)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, text=True,
        )
        try:
            line = child.stdout.readline()
            assert "listening" in line, line
            base = f"http://127.0.0.1:{port}"
            with urllib.request.urlopen(
                f"{base}/stats", timeout=30
            ) as rsp:
                stats = json.load(rsp)
            assert stats["sharded"] is True
            assert stats["rows"] == 20
            request = urllib.request.Request(
                f"{base}/ingest",
                data=_batch([_flow(i) for i in range(20, 40)]),
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=30) as rsp:
                assert json.load(rsp)["rows"] == 20
            child.send_signal(signal.SIGTERM)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        assert child.returncode == -signal.SIGTERM, child.stderr.read()
        reopened = ShardCoordinator(directory)
        assert len(reopened) == 40
        reopened.close()


class TestServeCliRefusals:
    """A store ``repro-serve`` cannot open is one ``error:`` line and
    exit status 1, like the other CLIs — never a traceback."""

    def _refused(self, capsys, argv, expected) -> None:
        from repro.serve.cli import main as serve_main

        code = serve_main([*argv, "--port", "0"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and expected in err
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("manifest, expected", [
        ("{not json", "malformed manifest"),
        (json.dumps({"format": 1, "segments": ["seg-00000001.fseg"]}),
         "repro-flowstore compact"),
    ], ids=["garbage", "version-1"])
    def test_unreadable_manifest(self, tmp_path, capsys, manifest,
                                 expected):
        (tmp_path / "store").mkdir()
        (tmp_path / "store" / "MANIFEST.json").write_text(manifest)
        self._refused(capsys, [str(tmp_path / "store")], expected)

    def test_bad_sizing_knob_creates_nothing(self, tmp_path, capsys):
        self._refused(
            capsys, [str(tmp_path / "store"), "--spill-rows", "0"],
            "spill_rows must be positive",
        )
        assert not (tmp_path / "store").exists()

    def test_store_path_is_a_file(self, tmp_path, capsys):
        (tmp_path / "store").write_text("not a directory")
        self._refused(capsys, [str(tmp_path / "store")], "File exists")

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("flag", ["--clist", "--batch-events"])
    def test_non_positive_capture_knob_creates_nothing(self, tmp_path,
                                                       capsys, flag, value):
        capture = tmp_path / "capture.pcap"
        capture.write_bytes(b"")
        self._refused(
            capsys,
            [str(tmp_path / "store"), "--pcap", str(capture), flag, value],
            f"{flag} must be positive",
        )
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize("content, expected", [
        (b"this is no pcap capture file", "bad pcap magic"),
        (None, "No such file"),
    ], ids=["garbage", "missing"])
    def test_unreadable_capture_closes_the_store(self, tmp_path, capsys,
                                                 monkeypatch, content,
                                                 expected):
        """A capture that is not a pcap is one ``error:`` line after the
        listener came up; the store is closed through the shutdown
        path and reopens clean."""
        import repro.serve.cli as serve_cli

        # The run shuts down in-process; keep pytest's own handlers.
        monkeypatch.setattr(serve_cli, "install_shutdown_signals",
                            lambda close: None)
        capture = tmp_path / "capture.pcap"
        if content is not None:
            capture.write_bytes(content)
        self._refused(
            capsys, [str(tmp_path / "store"), "--pcap", str(capture)],
            expected,
        )
        store = FlowStore(tmp_path / "store")
        assert len(store) == 0
        store.close()
