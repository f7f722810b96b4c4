"""Sharded scatter-gather must be bit-identical to one flat store.

The :class:`ShardCoordinator` merge contract: every query against an
N-shard store equals the same query against one flat ``FlowStore``
(and the in-memory seed ``FlowDatabase``) holding the same rows in
shard-major order — same values, same ordering, same interned ids —
for N=1, 2 and 4, over both backends (in-process stores and
one-process-per-shard workers), including empty shards, shards with a
quarantined segment and a live unsealed tail per shard.

The manifest-only pruning half: ``prune_report`` on a fresh
coordinator must decide scan-vs-prune for every sealed segment in
every shard from ``MANIFEST.json`` bytes alone — the ``storage._io``
read seam proves that not a single segment file (not even a header)
is opened — and its verdicts must match the verdicts of the shards'
own footer-based reports.
"""

import json
import multiprocessing
import re
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faultfs import FaultFS, inject
from repro.analytics.database import FlowDatabase, Groups
from repro.analytics.flowstore_cli import main as flowstore_main
from repro.analytics.shard import (
    SHARDS_NAME,
    ShardCoordinator,
    ShardError,
    ShardRouter,
    open_store,
)
from repro.analytics.storage import (
    FlowStore,
    QueryHint,
    StorageError,
    read_manifest,
)
from repro.net.flow import FiveTuple, FlowRecord, Protocol, TransportProto

SHARD_COUNTS = (1, 2, 4)
BACKENDS = ("inprocess", "process")


def _flow(i: int, clients: int = 7) -> FlowRecord:
    fqdn = (
        None, "www.Example.com", "cdn.example.net", "a.b.tracker.org",
        "www.example.com", "",
    )[i % 6]
    return FlowRecord(
        fid=FiveTuple(5 + i % clients, 40 + i % 9, 1024 + i,
                      (80, 443)[i % 2], TransportProto.TCP),
        start=float(i * 3 % 97),
        end=float(i * 3 % 97) + 2.0,
        protocol=(Protocol.HTTP, Protocol.TLS)[i % 2],
        bytes_up=10 + i,
        bytes_down=1000 + i,
        packets=4,
        fqdn=fqdn,
        cert_name="cert.example.com" if i % 3 == 0 else None,
        true_fqdn="true.example.com" if i % 5 == 0 else None,
    )


def _shard_major(router: ShardRouter, flows) -> list[FlowRecord]:
    """The flat-oracle ingest order: shard 0's rows, then shard 1's..."""
    return [flow for part in router.split_flows(flows) for flow in part]


def _build_sharded(directory, flows, shards, live_tail=True,
                   backend="inprocess", **kwargs):
    """An N-shard store with sealed segments per shard and (optionally)
    a live unsealed tail per shard."""
    coordinator = ShardCoordinator(
        directory, shards=shards, spill_rows=9, backend=backend, **kwargs
    )
    sealed = flows if not live_tail else flows[:len(flows) - 8]
    coordinator.add_all(sealed)
    coordinator.flush()
    if live_tail:
        coordinator.add_all(flows[len(flows) - 8:])  # no flush: live
    return coordinator


def _flat_oracle(directory, router, flows) -> FlowStore:
    store = FlowStore(directory, spill_rows=9, wal=False)
    store.add_all(_shard_major(router, flows))
    return store


def _answers(store) -> dict:
    """A few answers of every shape, for reopen comparisons."""
    return {
        "len": len(store),
        "fqdns": store.fqdns(),
        "fqdn_server_counts": store.fqdn_server_counts(),
        "server_flow_counts": store.server_flow_counts(),
        "tagged_rows": list(store.tagged_rows()),
        "time_span": store.time_span(),
    }


def _tree_bytes(directory) -> dict:
    """Every path under ``directory`` with its bytes (None: a dir)."""
    return {
        path.relative_to(directory).as_posix():
            None if path.is_dir() else path.read_bytes()
        for path in sorted(directory.rglob("*"))
    }


def _assert_bit_identical(coord, flat, mem):
    """The full query surface, compared with plain ``==`` (values *and*
    ordering) against the flat store, plus the in-memory seed store
    where ordering semantics carry over."""
    assert coord.fqdn_server_counts() == flat.fqdn_server_counts()
    assert coord.fqdn_server_counts() == sorted(mem.fqdn_server_counts())
    assert coord.fqdn_client_counts() == flat.fqdn_client_counts()
    assert coord.fqdn_flow_byte_totals() == flat.fqdn_flow_byte_totals()
    assert coord.server_flow_counts() == flat.server_flow_counts()
    assert coord.fqdn_first_seen() == flat.fqdn_first_seen()
    assert coord.fqdn_bin_pairs(10.0) == flat.fqdn_bin_pairs(10.0)
    assert coord.server_fqdn_bin_triples(10.0) == (
        flat.server_fqdn_bin_triples(10.0)
    )
    assert coord.unique_servers_per_bin("example.com", 10.0) == (
        flat.unique_servers_per_bin("example.com", 10.0)
    )
    assert coord.server_bins_for_fqdn("www.example.com", 10.0) == (
        flat.server_bins_for_fqdn("www.example.com", 10.0)
    )
    assert coord.servers() == flat.servers()
    assert coord.ports() == flat.ports()
    rows = coord.rows_for_servers(flat.servers())
    flat_rows = flat.rows_for_servers(flat.servers())
    assert list(rows) == list(flat_rows)
    assert coord.sld_flow_stats(rows) == flat.sld_flow_stats(flat_rows)
    assert coord.fqdns_for_rows(rows) == flat.fqdns_for_rows(flat_rows)
    window_rows = coord.rows_in_window(10.0, 60.0)
    assert list(window_rows) == list(flat.rows_in_window(10.0, 60.0))
    assert coord.fqdn_server_counts(window_rows) == (
        flat.fqdn_server_counts(window_rows)
    )
    assert coord.fqdn_first_seen(window_rows) == (
        flat.fqdn_first_seen(window_rows)
    )
    assert list(coord.rows_for_fqdn("www.example.com")) == (
        list(flat.rows_for_fqdn("www.example.com"))
    )
    assert list(coord.rows_for_domain("example.net")) == (
        list(flat.rows_for_domain("example.net"))
    )
    assert list(coord.rows_for_port(443)) == list(flat.rows_for_port(443))
    assert coord.query_by_fqdn("www.example.com") == (
        flat.query_by_fqdn("www.example.com")
    )
    assert coord.query_by_domain("example.net") == (
        flat.query_by_domain("example.net")
    )
    assert coord.query_by_servers(flat.servers()[:5]) == (
        flat.query_by_servers(flat.servers()[:5])
    )
    assert coord.query_by_port(443) == flat.query_by_port(443)
    assert coord.query_in_window(10.0, 60.0) == (
        flat.query_in_window(10.0, 60.0)
    )
    assert coord.servers_for_fqdn("www.example.com") == (
        flat.servers_for_fqdn("www.example.com")
    )
    assert coord.servers_for_domain("example.com") == (
        flat.servers_for_domain("example.com")
    )
    assert coord.fqdns_for_servers(flat.servers()[:5]) == (
        flat.fqdns_for_servers(flat.servers()[:5])
    )
    assert list(coord.tagged_rows()) == list(flat.tagged_rows())
    assert coord.fqdns() == flat.fqdns()
    assert coord.slds() == flat.slds()
    assert coord.fqdns() == mem.fqdns()
    assert coord.fqdns_for_domain("example.com") == (
        flat.fqdns_for_domain("example.com")
    )
    assert coord.tagged_count == flat.tagged_count
    assert coord.count_by_protocol() == flat.count_by_protocol()
    assert coord.time_span() == flat.time_span()
    assert len(coord) == len(flat)
    assert list(coord) == list(flat)


class TestShardedDifferential:
    @pytest.mark.parametrize("live_tail", [False, True])
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_inprocess_equals_flat_full_surface(
        self, tmp_path, shards, live_tail
    ):
        flows = [_flow(i) for i in range(60)]
        coord = _build_sharded(
            tmp_path / "sharded", flows, shards, live_tail=live_tail
        )
        flat = _flat_oracle(tmp_path / "flat", coord.router, flows)
        mem = FlowDatabase.from_flows(_shard_major(coord.router, flows))
        _assert_bit_identical(coord, flat, mem)
        coord.close()
        flat.close()

    @pytest.mark.parametrize("shards", (2, 4))
    def test_process_backend_equals_flat_full_surface(
        self, tmp_path, shards
    ):
        flows = [_flow(i) for i in range(60)]
        # Build + seal in-process, then reopen the same directory with
        # one worker process per shard (live tails rebuilt per worker
        # would double rows — the subprocess leg runs fully sealed).
        built = _build_sharded(
            tmp_path / "sharded", flows, shards, live_tail=False
        )
        built.close()
        coord = ShardCoordinator(tmp_path / "sharded", backend="process")
        flat = _flat_oracle(tmp_path / "flat", coord.router, flows)
        mem = FlowDatabase.from_flows(_shard_major(coord.router, flows))
        _assert_bit_identical(coord, flat, mem)
        coord.close()
        flat.close()

    @pytest.mark.parametrize(
        "start_method", multiprocessing.get_all_start_methods()
    )
    def test_process_backend_under_every_start_method(
        self, tmp_path, start_method
    ):
        """A worker started without the parent's memory (``spawn``,
        ``forkserver``) rebuilds its shard from the directory alone and
        answers as a forked one does."""
        flows = [_flow(i) for i in range(48)]
        built = _build_sharded(
            tmp_path / "sharded", flows, 3, live_tail=False
        )
        built.close()
        coord = ShardCoordinator(
            tmp_path / "sharded", backend="process",
            start_method=start_method,
        )
        flat = _flat_oracle(tmp_path / "flat", coord.router, flows)
        mem = FlowDatabase.from_flows(_shard_major(coord.router, flows))
        _assert_bit_identical(coord, flat, mem)
        coord.close()
        flat.close()

    def test_packed_partials_cross_the_worker_pipe(self, tmp_path):
        """A process shard returns its merged partial *unfinished*: the
        packed ``Groups`` pickles over the pipe — an overflowing byte
        sum as exact Python ints — and the coordinator lifts it through
        the shard's id map and merges once more."""
        flows = [_flow(i) for i in range(60)]
        for flow in flows:
            flow.bytes_up = 2**64 - 1 - flow.bytes_up
        built = _build_sharded(
            tmp_path / "sharded", flows, 2, live_tail=False
        )
        built.close()
        coord = ShardCoordinator(tmp_path / "sharded", backend="process")
        parts = coord._fan("fqdn_flow_byte_totals", (None,))
        assert all(isinstance(part, Groups) and len(part) for part in parts)
        assert all(part.columns[2].dtype == object for part in parts)
        assert all(
            coord._fqdn_maps[k].typecode == "i" and len(coord._fqdn_maps[k])
            for k in range(2)
        )
        flat = _flat_oracle(tmp_path / "flat", coord.router, flows)
        totals = coord.fqdn_flow_byte_totals()
        assert totals == flat.fqdn_flow_byte_totals()
        assert sum(up for _id, _n, up, _down in totals) == sum(
            flow.bytes_up for flow in flows if flow.fqdn
        )
        assert coord.fqdn_first_seen() == flat.fqdn_first_seen()
        assert coord.server_fqdn_bin_triples(10.0) == (
            flat.server_fqdn_bin_triples(10.0)
        )
        coord.close()
        flat.close()

    def test_empty_shard_is_inert(self, tmp_path):
        # client addresses 5 + i % 7 with 14 shards: half the shards
        # never receive a flow; they must contribute nothing and
        # break nothing.
        flows = [_flow(i) for i in range(40)]
        coord = _build_sharded(tmp_path / "sharded", flows, 14)
        assert any(not part for part in coord.router.split_flows(flows))
        flat = _flat_oracle(tmp_path / "flat", coord.router, flows)
        mem = FlowDatabase.from_flows(_shard_major(coord.router, flows))
        _assert_bit_identical(coord, flat, mem)
        coord.close()
        flat.close()

    def test_quarantined_segment_shard(self, tmp_path):
        """A corrupt segment in one shard quarantines on open; every
        query then equals a flat store of the *surviving* rows."""
        flows = [_flow(i) for i in range(60)]
        built = _build_sharded(
            tmp_path / "sharded", flows, 2, live_tail=False
        )
        router = built.router
        split = router.split_flows(flows)
        built.close()
        victim_dir = tmp_path / "sharded" / "shard-01"
        victims = sorted(victim_dir.glob("seg-*.fseg"))
        assert victims, "shard-01 sealed no segments"
        victims[0].write_bytes(b"FSG1 but not really")
        # shard-01's first segment held its first 9 rows (spill_rows=9).
        survivors = split[0] + split[1][9:]
        coord = ShardCoordinator(tmp_path / "sharded")
        flat = FlowStore(tmp_path / "flat", spill_rows=9, wal=False)
        flat.add_all(survivors)
        mem = FlowDatabase.from_flows(survivors)
        health = coord.health()
        assert health["status"] == "degraded"
        assert [
            (entry["shard"], entry["name"])
            for entry in health["quarantined_segments"]
        ] == [(1, victims[0].name)]
        _assert_bit_identical(coord, flat, mem)
        stats = coord.stats()
        assert stats["health"]["status"] == "degraded"
        assert stats["rows"] == len(survivors)
        coord.close()
        flat.close()

    def test_live_tail_rows_and_second_round(self, tmp_path):
        """Rows keep flowing after the first query round; results track
        the flat oracle (one quiescent comparison per round)."""
        flows = [_flow(i) for i in range(40)]
        later = [_flow(i) for i in range(40, 72)]
        coord = _build_sharded(tmp_path / "sharded", flows, 3)
        assert coord.fqdn_server_counts()  # round 1 syncs labels
        coord.add_all(later)
        everything = flows[:32] + flows[32:] + later
        # Shard-major oracle over the full ingest history: within one
        # shard the earlier rows precede the later ones.
        flat = _flat_oracle(tmp_path / "flat", coord.router, everything)
        assert coord.fqdn_server_counts() == flat.fqdn_server_counts()
        assert coord.server_flow_counts() == flat.server_flow_counts()
        assert list(coord.tagged_rows()) == list(flat.tagged_rows())
        assert len(coord) == len(flat)
        coord.close()
        flat.close()


class TestShardedProperty:
    @settings(deadline=None, max_examples=15)
    @given(
        st.integers(min_value=0, max_value=70),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=2, max_value=11),
    )
    def test_random_shapes(self, tmp_path_factory, n_flows, shards,
                           spill_rows):
        """Random store shapes (flow count, shard count, segment size)
        stay bit-identical to the shard-major flat oracle."""
        tmp_path = tmp_path_factory.mktemp("shard")
        flows = [_flow(i) for i in range(n_flows)]
        coord = ShardCoordinator(
            tmp_path / "sharded", shards=shards, spill_rows=spill_rows,
        )
        coord.add_all(flows)  # tails may or may not be live per shard
        flat = FlowStore(tmp_path / "flat", spill_rows=spill_rows,
                         wal=False)
        flat.add_all(_shard_major(coord.router, flows))
        assert coord.fqdn_server_counts() == flat.fqdn_server_counts()
        assert coord.fqdn_flow_byte_totals() == (
            flat.fqdn_flow_byte_totals()
        )
        assert coord.server_flow_counts() == flat.server_flow_counts()
        assert list(coord.tagged_rows()) == list(flat.tagged_rows())
        assert coord.fqdns() == flat.fqdns()
        rows = coord.rows_in_window(5.0, 50.0)
        assert list(rows) == list(flat.rows_in_window(5.0, 50.0))
        assert coord.sld_flow_stats(rows) == (
            flat.sld_flow_stats(array("I", rows))
        )
        assert coord.time_span() == flat.time_span()
        coord.close()
        flat.close()


class TestManifestOnlyPruning:
    def _sealed_sharded(self, tmp_path, shards=2):
        # start=i*3%97 over 60 flows covers [0, 96]; spill_rows=9 per
        # shard gives several window-disjoint-ish segments per shard.
        flows = [_flow(i) for i in range(60)]
        built = _build_sharded(
            tmp_path / "sharded", flows, shards, live_tail=False
        )
        built.close()
        return tmp_path / "sharded"

    def test_prune_report_opens_zero_segment_files(self, tmp_path):
        """The acceptance property: a fresh coordinator's prune_report
        decides every verdict from manifest bytes alone — the storage
        I/O seam observes zero segment reads (the backend, and with it
        every shard store, is never even started)."""
        directory = self._sealed_sharded(tmp_path)
        hint = QueryHint(window=(0.0, 10.0))
        fs = FaultFS()
        with inject(fs):
            coord = ShardCoordinator(directory)
            report = coord.prune_report(hint)
            coord.close()
        assert fs.reads == 0, fs.read_log
        assert coord._backend is None  # lazy: no shard store opened
        assert report["sharded"] is True
        total = report["scanned_segments"] + report["pruned_segments"]
        assert total == len(report["segments"]) > 0
        assert report["pruned_segments"] > 0  # the hint really prunes

    @pytest.mark.parametrize("damage", [
        lambda manifest: manifest.update(format=99),
        lambda manifest: manifest["segments"][0].update(
            name="../../etc/passwd"
        ),
        lambda manifest: manifest["segments"][0].update(rows=-5),
    ], ids=["format", "segment-name", "negative-rows"])
    def test_malformed_shard_manifest_fails_prune_report_like_any_open(
        self, tmp_path, damage
    ):
        """The manifest-only report holds the promoted copy to the
        checks of every other open: there is one manifest reader, so a
        shard manifest ``inspect`` refuses cannot be pruned on."""
        directory = self._sealed_sharded(tmp_path)
        path = directory / "shard-00" / "MANIFEST.json"
        manifest = json.loads(path.read_text())
        damage(manifest)
        path.write_text(json.dumps(manifest))
        coord = ShardCoordinator(directory)
        with pytest.raises(StorageError):
            coord.prune_report(QueryHint(window=(0.0, 10.0)))
        coord.close()
        assert flowstore_main(["inspect", str(directory)]) == 1
        assert flowstore_main(
            ["prune-report", str(directory), "--t0", "0", "--t1", "10"]
        ) == 1

    def test_manifest_verdicts_match_footer_verdicts(self, tmp_path):
        """Decision equivalence: for every segment, the manifest-copy
        verdict equals the verdict the shard's own (footer-backed)
        prune_report produces."""
        directory = self._sealed_sharded(tmp_path)
        for hint in (
            QueryHint(window=(0.0, 10.0)),
            QueryHint(fqdn="www.example.com"),
            QueryHint(sld="tracker.org"),
            QueryHint(servers=[41, 42]),
        ):
            coord = ShardCoordinator(directory)
            report = coord.prune_report(hint)
            coord.close()
            manifest_verdicts = {
                (segment["shard"], segment["name"]): segment["scan"]
                for segment in report["segments"]
            }
            footer_verdicts = {}
            for index in range(2):
                shard_store = FlowStore(directory / f"shard-{index:02d}")
                shard_report = shard_store.prune_report(hint)
                shard_store.close()
                for segment in shard_report["segments"]:
                    footer_verdicts[(index, segment["name"])] = (
                        segment["scan"]
                    )
            assert manifest_verdicts == footer_verdicts

    def test_window_query_skips_what_the_report_prunes(self, tmp_path):
        """The query path prunes exactly the segments the manifest-only
        report rules out — and for a narrow window it rules some out."""
        directory = self._sealed_sharded(tmp_path)
        coord = ShardCoordinator(directory)
        report = coord.prune_report(QueryHint(window=(0.0, 1.0)))
        coord.rows_in_window(0.0, 1.0)
        pruned = coord.stats()["scan_stats"]["segments_pruned"]
        coord.close()
        assert report["pruned_segments"] > 0
        assert pruned == report["pruned_segments"]


class TestShardTopologyAndErrors:
    def test_topology_persists_and_mismatch_is_rejected(self, tmp_path):
        directory = tmp_path / "sharded"
        coord = ShardCoordinator(directory, shards=3)
        coord.add_all([_flow(i) for i in range(10)])
        coord.close()
        config = json.loads((directory / SHARDS_NAME).read_text())
        assert config == {"format": 1, "shards": 3, "by": "client"}
        reopened = ShardCoordinator(directory)  # topology from disk
        assert reopened.shards == 3
        assert len(reopened) == 10
        reopened.close()
        with pytest.raises(StorageError):
            ShardCoordinator(directory, shards=2)

    def _sharded_with_topology(self, tmp_path, config: dict):
        """A 3-shard root holding 20 flows, its ``SHARDS.json``
        rewritten to ``config`` the way the writer formats it."""
        directory = tmp_path / "sharded"
        coord = ShardCoordinator(directory, shards=3, spill_rows=4)
        coord.add_all([_flow(i) for i in range(20)])
        answers = _answers(coord)
        coord.close()
        (directory / SHARDS_NAME).write_text(
            json.dumps(config, indent=2) + "\n", encoding="utf-8"
        )
        return directory, answers

    def test_time_routed_topology_is_refused_untouched(self, tmp_path):
        """Client address is the only routing key: a root routed by
        time is refused at open, and nothing in it changes."""
        directory, _answers_before = self._sharded_with_topology(
            tmp_path,
            {"format": 1, "shards": 3, "by": "time", "time_window": 60.0},
        )
        before = _tree_bytes(directory)
        for opener in (ShardCoordinator, open_store):
            with pytest.raises(StorageError, match="routes by 'time'"):
                opener(directory)
        assert _tree_bytes(directory) == before

    @pytest.mark.parametrize("by", ["server", "Client", None])
    def test_other_routing_keys_are_refused_untouched(self, tmp_path, by):
        """Any key but ``"client"`` is refused, not reinterpreted: a
        misread key would misroute every later append."""
        directory, _answers_before = self._sharded_with_topology(
            tmp_path, {"format": 1, "shards": 3, "by": by},
        )
        before = _tree_bytes(directory)
        with pytest.raises(StorageError, match=re.escape(f"routes by {by!r}")):
            open_store(directory)
        assert _tree_bytes(directory) == before

    def test_client_topology_with_time_window_opens_unchanged(self,
                                                              tmp_path):
        """Roots written while ``time_window`` was still a setting carry
        it beside ``"by": "client"``: they open, answer the same, and
        keep their topology file byte for byte."""
        directory, answers = self._sharded_with_topology(
            tmp_path,
            {"format": 1, "shards": 3, "by": "client",
             "time_window": 3600.0},
        )
        topology = (directory / SHARDS_NAME).read_bytes()
        store = open_store(directory)
        assert _answers(store) == answers
        store.add_all([_flow(i) for i in range(20, 25)])
        assert len(store) == 25
        store.close()
        assert (directory / SHARDS_NAME).read_bytes() == topology

    def test_routing_arguments_are_gone(self, tmp_path):
        for kwargs in ({"by": "client"}, {"time_window": 60.0}):
            with pytest.raises(TypeError):
                ShardCoordinator(tmp_path / "a", shards=2, **kwargs)
            with pytest.raises(TypeError):
                open_store(tmp_path / "b", shards=2, **kwargs)
            with pytest.raises(TypeError):
                open_store(tmp_path / "c", **kwargs)
        assert list(tmp_path.iterdir()) == []

    def test_missing_topology_requires_shards(self, tmp_path):
        with pytest.raises(StorageError):
            ShardCoordinator(tmp_path / "nothing")

    def test_worker_error_propagates_as_shard_error(self, tmp_path):
        coord = ShardCoordinator(tmp_path / "sharded", shards=2,
                                 backend="process")
        bad = _flow(0)
        bad.packets = -1  # array("I") column rejects it in the worker
        with pytest.raises(ShardError, match="shard"):
            coord.add_all([bad, _flow(1)])
        # Failure is per shard: the healthy shard kept its sub-batch
        # (_flow(1) routed away from the bad row's shard)...
        assert len(coord) == 1
        # ...and the backend stays framed: later requests still work.
        coord.add_all([_flow(i) for i in range(8)])
        assert len(coord) == 9
        coord.close()

    def test_ingest_batch_routes_and_counts(self, tmp_path):
        from repro.sniffer.eventcodec import encode_events

        flows = [_flow(i) for i in range(24)]
        payload = encode_events(flows)
        coord = ShardCoordinator(tmp_path / "sharded", shards=3)
        assert coord.ingest_batch(payload) == 24
        flat = _flat_oracle(tmp_path / "flat", coord.router, flows)
        assert coord.fqdn_server_counts() == flat.fqdn_server_counts()
        assert len(coord) == 24
        coord.close()
        flat.close()

    def test_manifest_entries_reads_rows_and_meta(self, tmp_path):
        directory = tmp_path / "sharded"
        coord = _build_sharded(
            directory, [_flow(i) for i in range(30)], 2, live_tail=False
        )
        coord.close()
        entries = read_manifest(directory / "shard-00")["segments"]
        assert entries
        for name, rows, meta in entries:
            assert name.startswith("seg-")
            assert rows > 0
            assert meta is not None  # v2 manifests carry the footer copy
        assert read_manifest(tmp_path / "missing")["segments"] == []
