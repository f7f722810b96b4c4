"""The durable store's one contract, held (ISSUE 15).

Three verbs every caller goes through, for a flat store and a sharded
one alike:

* **open** — :func:`repro.analytics.shard.open_store` is the only code
  that decides "flat or sharded?"; a flat open of a sharded root is
  refused, and bad sizing knobs fail before a topology is committed;
* **write** — the store serializes its own writers, so concurrent
  ``ingest_batch`` callers lose and duplicate nothing and the journal
  still replays bit-identically;
* **observe** — ``counters()`` is the public view behind the
  ``flowstore_*`` series, live on sharded stores without a prior
  ``/stats`` poll.

The ``PublicOnly`` proxy proves that the serve layer and the sniffer
pipeline need nothing of a store beyond its public attributes.
"""

from __future__ import annotations

import importlib
import json
import re
import shutil
import sys
import threading
from operator import attrgetter

import pytest

from repro.analytics.database import FlowDatabase
from repro.analytics.flowstore_cli import main as flowstore_main
from repro.analytics.queries import QUERIES
from repro.analytics.shard import ShardCoordinator, open_store, store_kind
from repro.analytics.storage import FlowStore, StorageError
from repro.net.flow import (
    DnsObservation,
    FiveTuple,
    FlowRecord,
    Protocol,
    TransportProto,
)
from repro.serve.server import ServeApp
from repro.sniffer.eventcodec import encode_events
from repro.sniffer.pipeline import SnifferPipeline
from test_query_table import _cases, _flow, _http_params

KINDS = ["flat", "inprocess", "process"]


def _open(kind: str, directory, **knobs):
    if kind == "flat":
        return open_store(directory, **knobs)
    return open_store(directory, shards=2, backend=kind, **knobs)


def _get(app: ServeApp, path: str, params=None):
    status, _ctype, payload, _headers = app.handle("GET", path, params or {})
    return status, payload


def _series(text: str, name: str) -> int:
    return int(re.search(rf"^{name} (\d+)$", text, re.M).group(1))


class PublicOnly:
    """A store seen through its public attributes only: reading any
    ``_``-prefixed name fails the test, and so does an implicit dunder
    (``len(store)``, ``with store``) — the proxy defines none."""

    __slots__ = ("_inner",)

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AssertionError(f"private store attribute read: {name}")
        return getattr(self._inner, name)


class TestPublicOnlyContract:
    @pytest.mark.parametrize("kind", KINDS)
    def test_serve_and_pipeline_need_only_the_public_surface(
        self, tmp_path, kind
    ):
        store = _open(kind, tmp_path / "store", spill_rows=16)
        proxy = PublicOnly(store)
        try:
            app = ServeApp(proxy)
            flows = [_flow(i) for i in range(60)]
            status, _ctype, payload, _headers = app.handle(
                "POST", "/ingest", {}, encode_events(flows)
            )
            assert (status, json.loads(payload)) == (200, {"rows": 60})

            served = set()
            for name, args in _cases(FlowDatabase.from_flows(flows)):
                query = QUERIES[name]
                if query.shape is None or query.rows(args) is not None:
                    continue
                status, payload = _get(
                    app, f"/query/{query.route}", _http_params(query, args)
                )
                inverted = name == "rows_in_window" and args[0] > args[1]
                assert status == (400 if inverted else 200), payload
                served.add(query.route)
            assert served == set(app.query_routes)
            status, payload = _get(app, "/query/len")
            assert json.loads(payload) == {"rows": 60}

            for path, params in (
                ("/stats", None), ("/health", None),
                ("/prune-report", {"t0": ["0"], "t1": ["50"]}),
                ("/metrics", None),
            ):
                status, payload = _get(app, path, params)
                assert status == 200, (path, payload)
            assert _series(payload.decode(), "flowstore_rows") == 60

            events = [DnsObservation(
                timestamp=0.0, client_ip=7, fqdn="host.example.com",
                answers=[0x0A000007],
            )] + [
                FlowRecord(
                    fid=FiveTuple(7, 0x0A000007, 2000 + i, 443,
                                  TransportProto.TCP),
                    start=1.0 + i, end=1.5 + i, protocol=Protocol.TLS,
                    bytes_up=10, bytes_down=100, packets=2,
                ) for i in range(25)
            ]
            pipeline = SnifferPipeline(
                clist_size=100, warmup=0.0, batch_events=8,
                flow_store=proxy,
            )
            pipeline.process_events(events)
            pipeline.close()
            assert store.counters()["rows"] == 85
            assert store.counters()["tail_rows"] == 0  # close() sealed
            assert store.servers_for_fqdn("host.example.com")
        finally:
            store.close()


class TestOpen:
    @pytest.fixture(scope="class")
    def pcap(self, tmp_path_factory):
        from repro.net.pcap import write_pcap
        from repro.simulation import build_trace

        path = tmp_path_factory.mktemp("capture") / "capture.pcap"
        write_pcap(
            str(path),
            build_trace("EU1-FTTH", seed=19).to_packets(max_flows=60),
        )
        return str(path)

    def test_sniffing_into_a_sharded_root_lands_in_the_shards(
        self, tmp_path, capsys, pcap
    ):
        from repro.sniffer.cli import main as sniff_main

        root, flat_dir = tmp_path / "root", tmp_path / "flat"
        ShardCoordinator(root, shards=2).close()
        for directory in (root, flat_dir):
            assert sniff_main([
                pcap, "--warmup", "0",
                "--flow-store", str(directory),
            ]) == 0
        flat = FlowStore(flat_dir)
        assert len(flat) >= 1 and flat.fqdns()
        capsys.readouterr()
        assert flowstore_main(["inspect", str(root)]) == 0
        out = capsys.readouterr().out
        assert re.search(rf"^rows\s+: {len(flat)} ", out, re.M), out

        sharded = open_store(root)
        try:
            assert sharded.sharded and len(sharded) == len(flat)
            for fqdn in flat.fqdns():
                assert sorted(sharded.servers_for_fqdn(fqdn)) == sorted(
                    flat.servers_for_fqdn(fqdn)
                )
        finally:
            sharded.close()
            flat.close()
        # Nothing flat was written beside the topology file ...
        assert not list(root.glob("seg-*.fseg"))
        assert sorted(p.name for p in root.iterdir() if p.is_file()) == [
            "SHARDS.json"
        ]
        # ... and a flat open of the root is refused outright.
        with pytest.raises(StorageError, match="sharded"):
            FlowStore(root)
        assert store_kind(root) == "sharded"
        assert store_kind(flat_dir) == "flat"
        assert store_kind(tmp_path / "absent") is None

    def test_a_flat_store_cannot_become_a_sharded_root(self, tmp_path):
        store = FlowStore(tmp_path / "store")
        store.add_all([_flow(i) for i in range(5)])
        store.close()
        with pytest.raises(StorageError, match="flat store"):
            open_store(tmp_path / "store", shards=2)
        assert store_kind(tmp_path / "store") == "flat"

    @pytest.mark.parametrize("backend", ["inprocess", "process"])
    @pytest.mark.parametrize("knobs", [
        {"spill_rows": 0}, {"spill_bytes": -1}, {"parallel": 0},
    ])
    def test_bad_knobs_fail_before_the_topology_is_written(
        self, tmp_path, backend, knobs
    ):
        with pytest.raises(ValueError) as excinfo:
            ShardCoordinator(
                tmp_path / "bad", shards=2, backend=backend, **knobs
            )
        assert not isinstance(excinfo.value, StorageError)
        assert store_kind(tmp_path / "bad") is None
        assert not (tmp_path / "bad").exists()


class TestRemovedKnobs:
    """Knobs that never changed an answer are gone: the openers and
    the CLIs refuse them rather than ignore them."""

    @pytest.mark.parametrize("opener, knob", [
        (FlowStore, "prune"), (FlowStore, "cache_segments"),
        (ShardCoordinator, "prune"), (open_store, "cache_segments"),
    ])
    def test_openers_refuse(self, tmp_path, opener, knob):
        with pytest.raises(TypeError):
            opener(tmp_path / "store", **{knob: False})
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize("module, argv", [
        ("repro.serve.cli", ["DIR", "--parallel", "2"]),
        ("repro.serve.cli", ["DIR", "--no-prune"]),
        ("repro.experiments.runner",
         ["--flow-store", "DIR", "--parallel", "2", "table6"]),
        ("repro.analytics.flowstore_cli",
         ["verify", "DIR", "--parallel", "2"]),
        ("repro.sniffer.cli", ["DIR", "--dump", "x"]),
    ], ids=["serve-parallel", "serve-no-prune", "exp-parallel",
            "verify-parallel", "sniff-dump"])
    def test_clis_refuse(self, tmp_path, capsys, module, argv):
        main = importlib.import_module(module).main
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path) if arg == "DIR" else arg for arg in argv])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestObserve:
    def test_sharded_metrics_are_live_without_a_stats_poll(self, tmp_path):
        store = ShardCoordinator(tmp_path / "store", shards=2, spill_rows=16)
        try:
            app = ServeApp(store)
            # The second, small batch stays in the shards' live tails.
            for chunk in (range(90), range(90, 100)):
                status, _ctype, _payload, _headers = app.handle(
                    "POST", "/ingest", {},
                    encode_events(_flow(i) for i in chunk),
                )
                assert status == 200
            assert _get(
                app, "/query/rows-in-window", {"t0": ["0"], "t1": ["50"]}
            )[0] == 200
            # No /stats, no /health: straight to the scrape.
            text = _get(app, "/metrics")[1].decode()
            shards = store.stats()["per_shard"]
            assert len(shards) == 2
            expected = {
                "flowstore_rows": sum(s["rows"] for s in shards),
                "flowstore_tail_rows": sum(s["tail_rows"] for s in shards),
                "flowstore_segments": sum(
                    len(s["segments"]) for s in shards
                ),
                "flowstore_scan_queries_total": sum(
                    s["scan_stats"]["queries"] for s in shards
                ),
                "flowstore_generation": sum(s["generation"] for s in shards),
                "flowstore_wal_epoch": max(s["wal_epoch"] for s in shards),
            }
            assert expected["flowstore_rows"] == 100
            assert expected["flowstore_tail_rows"] > 0
            assert expected["flowstore_segments"] > 0
            assert expected["flowstore_scan_queries_total"] > 0
            assert {
                name: _series(text, name) for name in expected
            } == expected
        finally:
            store.close()

    def test_flat_counters_equal_the_stats_fields(self, tmp_path):
        store = FlowStore(tmp_path / "store", spill_rows=16)
        try:
            store.add_all([_flow(i) for i in range(70)])
            store.servers()
            with store.pin():
                counters, stats = store.counters(), store.stats()
            assert counters["pinned_readers"] == 1
            wal = stats["health"]["wal"]
            assert counters == {
                "rows": stats["rows"],
                "tail_rows": stats["tail_rows"],
                "segments": len(stats["segments"]),
                "quarantined_segments": len(
                    stats["health"]["quarantined_segments"]
                ),
                "generation": stats["generation"],
                "wal_epoch": stats["wal_epoch"],
                "pinned_readers": sum(
                    pin["readers"] for pin in stats["pinned_generations"]
                ),
                "retired_pending": stats["retired_pending"],
                "scan_queries_total": stats["scan_stats"]["queries"],
                "segments_scanned_total":
                    stats["scan_stats"]["segments_scanned"],
                "segments_pruned_total":
                    stats["scan_stats"]["segments_pruned"],
                "wal_recovered_batches": wal["recovered_batches"],
                "wal_recovered_rows": wal["recovered_rows"],
                "wal_torn_bytes_dropped": wal["torn_bytes_dropped"],
                "wal_skipped_records": wal["skipped_records"],
            }
            assert counters["rows"] == 70 and counters["segments"] == 4
            assert counters["scan_queries_total"] == 1
            # One snapshot per scrape, one series per counter.
            text = ServeApp(store).render_metrics()
            for key, value in store.counters().items():
                assert _series(text, f"flowstore_{key}") == value
        finally:
            store.close()


class TestWrite:
    def test_concurrent_writers_lose_and_duplicate_nothing(self, tmp_path):
        """Four threads, one bare store, seals interleaving with
        ingest: every acknowledged row is there exactly once, and the
        journal (written under the same lock hold as the tail) replays
        the unsealed rows in the very order the tail holds them."""
        threads_n, batches_n, batch_rows = 4, 10, 7
        directory = tmp_path / "store"
        store = FlowStore(directory, spill_rows=40)
        batches = [
            [
                encode_events([
                    _flow((t * batches_n + b) * batch_rows + i)
                    for i in range(batch_rows)
                ])
                for b in range(batches_n)
            ]
            for t in range(threads_n)
        ]
        errors: list[BaseException] = []
        acked = [0] * threads_n
        start = threading.Barrier(threads_n)

        def writer(index: int) -> None:
            try:
                start.wait(timeout=30)
                for payload in batches[index]:
                    acked[index] += store.ingest_batch(payload)
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(t,), daemon=True)
            for t in range(threads_n)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        total = threads_n * batches_n * batch_rows
        assert acked == [batches_n * batch_rows] * threads_n

        oracle = FlowDatabase.from_flows(_flow(i) for i in range(total))
        by_port = attrgetter("fid.src_port")  # unique per flow
        live = list(store)
        assert len(store) == total
        assert sorted(live, key=by_port) == sorted(oracle, key=by_port)
        assert store.counters()["segments"] >= 2
        assert store.counters()["tail_rows"] > 0

        # "Crash": the directory as it is now, no flush, no close — an
        # open of the copy replays its tail.wal.
        shutil.copytree(directory, tmp_path / "crashed")
        tail_rows = store.counters()["tail_rows"]
        store.close()
        with FlowStore(tmp_path / "crashed") as reopened:
            assert reopened.health()["wal"]["recovered_rows"] == tail_rows
            assert list(reopened) == live

    @pytest.mark.parametrize("wal", [True, False])
    def test_an_unencodable_flow_is_refused_at_add_whatever_wal_says(
        self, tmp_path, wal
    ):
        """Validation does not hang off the journal knob: a string the
        seal could not write is a ``ValueError`` at ``add`` with the
        tail untouched, and the neighbours still seal.  (With
        ``wal=False`` the flow used to be accepted, and every later
        ``flush()`` / ``close()`` raised ``UnicodeEncodeError``.)"""
        bad = _flow(3)
        bad.cert_name = "bad\ud800"
        with FlowStore(tmp_path / "store", wal=wal) as store:
            store.add(_flow(1))
            with pytest.raises(ValueError):
                store.add(bad)
            with pytest.raises(ValueError):
                store.add_all([_flow(2), bad])
            store.add(_flow(2))
            assert store.flush() is not None
            assert store.counters()["segments"] == 1
        with FlowStore(tmp_path / "store") as reopened:
            assert list(reopened) == [_flow(1), _flow(2)]
