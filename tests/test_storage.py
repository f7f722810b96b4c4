"""Property/differential tests for the on-disk segmented flow store.

The durable store must be invisible to the query layer: a database
spilled to segments during ingest and reopened from the directory has
to answer **every** query-surface call and grouped aggregation
identically to the in-memory columnar store and the seed row store —
on randomized flow sets, for both ingestion paths, across spill
boundaries and after compaction.  Corruption
must be rejected atomically: a truncated or bit-flipped segment fails
the open with ``StorageError`` instead of answering wrong.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics.database import FlowDatabase
from repro.analytics.database_reference import (
    FlowDatabase as ReferenceDatabase,
)
from repro.analytics.storage import (
    FlowStore,
    SegmentReader,
    SegmentWriter,
    StorageError,
    write_segment,
)
from repro.net.flow import FiveTuple, FlowRecord, Protocol, TransportProto
from repro.sniffer.eventcodec import encode_events

u16 = st.integers(min_value=0, max_value=0xFFFF)
u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
u48 = st.integers(min_value=0, max_value=0xFFFFFFFFFFFF)
finite = st.floats(
    allow_nan=False, allow_infinity=False, width=64,
    min_value=-3600.0, max_value=86400.0,
)
# Small pools force collisions across segment boundaries: the same
# label (in both cases), server and port must re-intern consistently
# in later segments.  Empty-string labels exercise the raw=""/untagged
# distinction through the string tables.
labels = st.none() | st.sampled_from([
    "", "www.google.com", "WWW.Google.COM", "mail.google.com",
    "cdn1.fbcdn.net", "CDN1.fbcdn.net", "static.bbc.co.uk",
    "a.b.c.example.org", "tracker.appspot.com", "x",
]) | st.text(min_size=1, max_size=20)
addresses = st.integers(min_value=1, max_value=40) | st.sampled_from(
    [0x80000000, 0xDEADBEEF, 0xFFFFFFFF]
)
ports = st.sampled_from([80, 443, 8080, 51413])

flows = st.builds(
    FlowRecord,
    fid=st.builds(
        FiveTuple,
        client_ip=addresses,
        server_ip=addresses,
        src_port=u16,
        dst_port=ports,
        proto=st.sampled_from(TransportProto),
    ),
    start=finite,
    end=finite,
    protocol=st.sampled_from(Protocol),
    bytes_up=u48,
    bytes_down=u48,
    packets=u32,
    fqdn=labels,
    cert_name=st.none() | st.sampled_from(["cert.example.com", ""]),
    true_fqdn=st.none() | st.sampled_from(["true.example.com"]),
)

flow_lists = st.lists(flows, min_size=0, max_size=60)
spill_sizes = st.integers(min_value=1, max_value=25)


def _assert_store_matches(store, mem: FlowDatabase, ref: ReferenceDatabase):
    """The full differential: store vs in-memory columnar vs seed row
    store — query surface (vs both) and grouped aggregations including
    interned-id assignment and output ordering (vs the columnar store).
    """
    assert len(store) == len(ref)
    assert store.tagged_count == ref.tagged_count
    assert store.time_span() == ref.time_span()
    assert store.count_by_protocol() == ref.count_by_protocol()
    # Intern/first-appearance orders must survive the disk round trip.
    assert store.fqdns() == ref.fqdns()
    assert store.slds() == ref.slds()
    assert store.servers() == ref.servers()
    assert store.ports() == ref.ports()
    assert list(store) == list(ref)
    for fqdn in [*ref.fqdns(), "missing.example.net", ""]:
        assert store.query_by_fqdn(fqdn) == ref.query_by_fqdn(fqdn)
        assert store.query_by_fqdn(fqdn.upper()) == ref.query_by_fqdn(
            fqdn.upper()
        )
        assert store.servers_for_fqdn(fqdn) == ref.servers_for_fqdn(fqdn)
        assert store.server_bins_for_fqdn(fqdn, 600.0) == (
            mem.server_bins_for_fqdn(fqdn, 600.0)
        )
    for sld in [*ref.slds(), "missing.example.net"]:
        assert store.query_by_domain(sld) == ref.query_by_domain(sld)
        assert store.servers_for_domain(sld) == ref.servers_for_domain(sld)
        assert store.fqdns_for_domain(sld) == ref.fqdns_for_domain(sld)
        assert store.unique_servers_per_bin(sld, 600.0) == (
            mem.unique_servers_per_bin(sld, 600.0)
        )
    servers = ref.servers()
    for probe in [servers, servers[:3] * 2, [999999], []]:
        assert store.query_by_servers(probe) == ref.query_by_servers(probe)
        assert store.fqdns_for_servers(probe) == ref.fqdns_for_servers(
            probe
        )
    for port in [*ref.ports(), 1]:
        assert store.query_by_port(port) == ref.query_by_port(port)
    # Grouped aggregations: identical global ids AND ordering vs the
    # in-memory columnar store (sld_flow_stats is compared order-free,
    # server_flow_counts is a mapping).
    assert store.fqdn_server_counts() == sorted(mem.fqdn_server_counts())
    assert store.fqdn_client_counts() == sorted(mem.fqdn_client_counts())
    assert store.fqdn_flow_byte_totals() == sorted(
        mem.fqdn_flow_byte_totals()
    )
    assert store.server_flow_counts() == mem.server_flow_counts()
    assert store.fqdn_first_seen() == mem.fqdn_first_seen()
    assert store.fqdn_bin_pairs(600.0) == mem.fqdn_bin_pairs(600.0)
    assert store.server_fqdn_bin_triples(600.0) == (
        mem.server_fqdn_bin_triples(600.0)
    )
    rows = store.rows_for_servers(servers)
    mem_rows = mem.rows_for_servers(servers)
    assert list(rows) == list(mem_rows)
    assert sorted(store.sld_flow_stats(rows)) == sorted(
        mem.sld_flow_stats(mem_rows)
    )
    assert store.fqdns_for_rows(rows) == mem.fqdns_for_rows(mem_rows)
    assert store.fqdn_server_counts(rows) == sorted(
        mem.fqdn_server_counts(mem_rows)
    )
    assert list(store.tagged_rows()) == list(mem.tagged_rows())


def _spilled_store(tmp_path, flow_list, spill_rows, via_batches=False):
    store = FlowStore(tmp_path / "store", spill_rows=spill_rows)
    if via_batches:
        for pos in range(0, len(flow_list), 7):
            store.ingest_batch(encode_events(flow_list[pos:pos + 7]))
    else:
        store.add_all(flow_list)
    store.close()
    return store


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(flow_lists, spill_sizes)
    def test_write_reopen_query_identical(
        self, tmp_path_factory, flow_list, spill_rows
    ):
        tmp_path = tmp_path_factory.mktemp("store")
        _spilled_store(tmp_path, flow_list, spill_rows)
        mem = FlowDatabase.from_flows(flow_list)
        ref = ReferenceDatabase.from_flows(flow_list)
        reopened = FlowStore(tmp_path / "store")
        _assert_store_matches(reopened, mem, ref)

    @settings(max_examples=25, deadline=None)
    @given(flow_lists, spill_sizes)
    def test_batch_ingest_reopen_identical(
        self, tmp_path_factory, flow_list, spill_rows
    ):
        tmp_path = tmp_path_factory.mktemp("store")
        _spilled_store(tmp_path, flow_list, spill_rows, via_batches=True)
        mem = FlowDatabase.from_flows(flow_list)
        ref = ReferenceDatabase.from_flows(flow_list)
        reopened = FlowStore(tmp_path / "store")
        _assert_store_matches(reopened, mem, ref)

    @settings(max_examples=20, deadline=None)
    @given(flow_lists, spill_sizes)
    def test_live_store_answers_like_reopened(
        self, tmp_path_factory, flow_list, spill_rows
    ):
        """The spilling store mid-session (sealed segments + live tail)
        answers exactly like the in-memory store too."""
        tmp_path = tmp_path_factory.mktemp("store")
        store = FlowStore(tmp_path / "store", spill_rows=spill_rows)
        store.add_all(flow_list)  # no close: tail stays live
        mem = FlowDatabase.from_flows(flow_list)
        ref = ReferenceDatabase.from_flows(flow_list)
        _assert_store_matches(store, mem, ref)


class TestCompaction:
    @settings(max_examples=25, deadline=None)
    @given(flow_lists, spill_sizes)
    def test_compaction_preserves_queries(
        self, tmp_path_factory, flow_list, spill_rows
    ):
        tmp_path = tmp_path_factory.mktemp("store")
        store = _spilled_store(tmp_path, flow_list, spill_rows)
        mem = FlowDatabase.from_flows(flow_list)
        ref = ReferenceDatabase.from_flows(flow_list)
        store.compact()
        assert len(store.segments) <= 1
        _assert_store_matches(store, mem, ref)
        reopened = FlowStore(tmp_path / "store")
        _assert_store_matches(reopened, mem, ref)

    def test_small_rows_merges_only_adjacent_small_runs(self, tmp_path):
        flow_list = [_flow(i) for i in range(30)]
        store = FlowStore(tmp_path / "store", spill_rows=3)
        store.add_all(flow_list[:9])       # 3 segments of 3
        store.flush()
        store.spill_rows = 100
        store.add_all(flow_list[9:29])     # one segment of 20
        store.flush()
        store.spill_rows = 3
        store.add_all(flow_list[29:])      # trailing run of 1 (not merged)
        store.flush()
        sizes = [seg.n_rows for seg in store.segments]
        assert sizes == [3, 3, 3, 20, 1]
        removed = store.compact(small_rows=10)
        assert removed == 2
        assert [seg.n_rows for seg in store.segments] == [9, 20, 1]
        mem = FlowDatabase.from_flows(flow_list)
        ref = ReferenceDatabase.from_flows(flow_list)
        _assert_store_matches(store, mem, ref)
        _assert_store_matches(FlowStore(tmp_path / "store"), mem, ref)


def _flow(i: int, fqdn="www.Example.com") -> FlowRecord:
    return FlowRecord(
        fid=FiveTuple(10 + i % 5, 20 + i % 3, 1024 + i, 443,
                      TransportProto.TCP),
        start=float(i),
        end=float(i) + 1.5,
        protocol=Protocol.TLS,
        bytes_up=100 + i,
        bytes_down=2000 + i,
        packets=12,
        fqdn=fqdn if i % 4 else None,
        cert_name="cert.example.com" if i % 2 else None,
    )


class TestCorruption:
    def _store_with_segment(self, tmp_path):
        store = FlowStore(tmp_path / "store", spill_rows=8)
        store.add_all(_flow(i) for i in range(20))
        store.close()
        segments = sorted((tmp_path / "store").glob("seg-*.fseg"))
        assert len(segments) >= 2
        return tmp_path / "store", segments

    # strict=True pins the PR4/PR5 hard-fail contract; the default
    # (quarantine and keep serving) is covered by the crash/degradation
    # suite in tests/test_storage_crash.py.

    def test_truncated_segment_rejected(self, tmp_path):
        directory, segments = self._store_with_segment(tmp_path)
        raw = segments[0].read_bytes()
        segments[0].write_bytes(raw[:len(raw) - 7])
        with pytest.raises(StorageError):
            FlowStore(directory, strict=True)

    def test_bit_flip_rejected(self, tmp_path):
        directory, segments = self._store_with_segment(tmp_path)
        raw = bytearray(segments[1].read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        segments[1].write_bytes(bytes(raw))
        with pytest.raises(StorageError):
            FlowStore(directory, strict=True)

    def test_bad_magic_rejected(self, tmp_path):
        directory, segments = self._store_with_segment(tmp_path)
        raw = bytearray(segments[0].read_bytes())
        raw[:4] = b"NOPE"
        segments[0].write_bytes(bytes(raw))
        with pytest.raises(StorageError):
            FlowStore(directory, strict=True)

    def test_malformed_manifest_rejected(self, tmp_path):
        directory, _segments = self._store_with_segment(tmp_path)
        (directory / "MANIFEST.json").write_text("{not json")
        with pytest.raises(StorageError):
            FlowStore(directory)
        (directory / "MANIFEST.json").write_text(
            json.dumps({"format": 99, "segments": []})
        )
        with pytest.raises(StorageError):
            FlowStore(directory)
        # Escape attempts and junk entries both fail.
        (directory / "MANIFEST.json").write_text(
            json.dumps({
                "format": 2,
                "segments": [
                    {"name": "../escape.fseg", "rows": 0, "meta": None}
                ],
            })
        )
        with pytest.raises(StorageError, match="bad segment name"):
            FlowStore(directory)
        (directory / "MANIFEST.json").write_text(
            json.dumps({"format": 2, "segments": [42]})
        )
        with pytest.raises(StorageError):
            FlowStore(directory)

    def test_orphan_segment_ignored(self, tmp_path):
        """A segment file written but never committed to the manifest
        (torn spill) is invisible — the store opens with the committed
        rows only and never reuses the orphan's name."""
        directory, segments = self._store_with_segment(tmp_path)
        committed = len(FlowStore(directory))
        orphan = directory / "seg-00000077.fseg"
        orphan.write_bytes(segments[0].read_bytes())
        store = FlowStore(directory)
        assert len(store) == committed
        store.add_all(_flow(100 + i) for i in range(3))
        name = store.flush()
        assert name == "seg-00000078.fseg"  # past the orphan

    def test_store_survives_corrupt_open_attempt(self, tmp_path):
        """A failed strict open leaves nothing behind that blocks a
        repair: restoring the file restores the store."""
        directory, segments = self._store_with_segment(tmp_path)
        good = segments[0].read_bytes()
        segments[0].write_bytes(good[:10])
        with pytest.raises(StorageError):
            FlowStore(directory, strict=True)
        segments[0].write_bytes(good)
        assert len(FlowStore(directory, strict=True)) == 20


class TestSegmentFormat:
    def test_segment_writer_names_are_sequential(self, tmp_path):
        writer = SegmentWriter(tmp_path)
        db = FlowDatabase.from_flows([_flow(i) for i in range(3)])
        assert writer.write(db) == "seg-00000001.fseg"
        assert writer.write(db) == "seg-00000002.fseg"

    def test_empty_segment_round_trips(self, tmp_path):
        path = tmp_path / "seg-00000001.fseg"
        write_segment(path, FlowDatabase())
        reader = SegmentReader.open(path)
        assert reader.n_rows == 0
        assert len(reader.database()) == 0

    def test_reader_reports_table_sizes(self, tmp_path):
        db = FlowDatabase.from_flows(
            [_flow(i) for i in range(10)]
            + [_flow(21, fqdn="other.example.net")]
        )
        path = tmp_path / "seg-00000001.fseg"
        write_segment(path, db)
        reader = SegmentReader.open(path)
        assert reader.n_rows == 11
        assert set(reader.labels) == {"www.Example.com", "other.example.net"}
        assert reader.certs == ("cert.example.com",)
        loaded = reader.database()
        assert list(loaded) == list(db)
        assert loaded.fqdns() == db.fqdns()
        reader.release()
        assert not reader.resident
        assert list(reader.database()) == list(db)

    def test_materialized_segment_rewrites_to_the_same_bytes(self, tmp_path):
        """A reopened segment's columns (its per-row strings included)
        are what the tail held: writing them again gives the file."""
        flows = [_flow(i) for i in range(10)] + [
            _flow(21, fqdn="other.example.net"), _flow(22, fqdn=None),
        ]
        path = tmp_path / "seg-00000001.fseg"
        write_segment(path, FlowDatabase.from_flows(flows))
        again = tmp_path / "seg-00000002.fseg"
        write_segment(again, SegmentReader.open(path).database())
        assert again.read_bytes() == path.read_bytes()

    def test_spill_bytes_budget(self, tmp_path):
        store = FlowStore(
            tmp_path / "store", spill_rows=10_000, spill_bytes=256
        )
        store.add_all(_flow(i) for i in range(40))
        assert len(store.segments) >= 2  # byte budget forced spills

    def test_cheap_stats_do_not_materialize_segments(self, tmp_path):
        """time_span / count_by_protocol / tagged_count come from the
        per-segment summaries (four block reads), never from a full
        segment rebuild."""
        flow_list = [_flow(i) for i in range(30)]
        writer = FlowStore(tmp_path / "store", spill_rows=8)
        writer.add_all(flow_list)
        writer.close()
        store = FlowStore(tmp_path / "store")
        ref = ReferenceDatabase.from_flows(flow_list)
        assert store.time_span() == ref.time_span()
        assert store.tagged_count == ref.tagged_count
        assert store.count_by_protocol() == ref.count_by_protocol()
        assert all(not seg.resident for seg in store.segments)

    def test_spill_releases_sealed_tail(self, tmp_path):
        """Spilling is what bounds resident memory: a sealed segment
        must not stay materialized, and queries reload it on demand."""
        store = FlowStore(tmp_path / "store", spill_rows=8)
        flow_list = [_flow(i) for i in range(20)]
        store.add_all(flow_list)
        assert all(not seg.resident for seg in store.segments)
        assert list(store) == list(
            FlowDatabase.from_flows(flow_list)
        )  # reloads lazily
        assert any(seg.resident for seg in store.segments)

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ValueError):
            FlowStore(tmp_path / "s", spill_rows=0)
        with pytest.raises(ValueError):
            FlowStore(tmp_path / "s", spill_bytes=-1)

    def test_stats_shape(self, tmp_path):
        store = FlowStore(tmp_path / "store", spill_rows=8)
        store.add_all(_flow(i) for i in range(20))
        stats = store.stats()
        assert stats["rows"] == 20
        assert stats["sealed_rows"] + stats["tail_rows"] == 20
        assert stats["bytes_on_disk"] == sum(
            segment["bytes"] for segment in stats["segments"]
        )
