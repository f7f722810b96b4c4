"""Pruning soundness: skipping segments must never change an answer.

The segment-pruning metadata (:class:`repro.analytics.storage.SegmentMeta`)
lets the durable store skip — never materialize — sealed segments that
provably cannot contribute to a query.  That optimisation is only
admissible if it is invisible: for random flow sets and random
time/server/FQDN/2LD predicates, a pruned query over a spilled (and
compacted) store must equal the in-memory columnar
:class:`FlowDatabase` and the seed ``database_reference`` row store —
and the executor must skip exactly the segments ``prune_report``
says the metadata rules out, so the equality is checked with pruning
actually running.

Alongside the property suite: format refusal (a version-1 store is
refused at open, untouched, with the upgrade named), and metadata
corruption (a footer whose ranges lie is caught by
``repro-flowstore verify``; a truncated metadata block is rejected
atomically at open).
"""

import json
import math
import struct
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics.database import FlowDatabase
from repro.analytics.database_reference import (
    FlowDatabase as ReferenceDatabase,
)
from repro.analytics.flowstore_cli import main as flowstore_main
from repro.analytics.shard import open_store
from repro.analytics.storage import (
    _BLOCK_LEN,
    _HEADER,
    _META_FIXED,
    _N_BLOCKS,
    FlowStore,
    PresenceFilter,
    QueryHint,
    SegmentMeta,
    StorageError,
    write_segment,
)
from repro.net.flow import FiveTuple, FlowRecord, Protocol, TransportProto

u16 = st.integers(min_value=0, max_value=0xFFFF)
u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
u48 = st.integers(min_value=0, max_value=0xFFFFFFFFFFFF)
finite = st.floats(
    allow_nan=False, allow_infinity=False, width=64,
    min_value=-3600.0, max_value=86400.0,
)
# Small pools force both hits and misses per predicate: probed labels /
# servers / windows land inside some segments and outside others, which
# is exactly the regime pruning must stay invisible in.
LABEL_POOL = (
    "www.google.com", "WWW.Google.COM", "mail.google.com",
    "cdn1.fbcdn.net", "static.bbc.co.uk", "a.b.c.example.org",
    "tracker.appspot.com", "x",
)
labels = st.none() | st.sampled_from(("",) + LABEL_POOL) | st.text(
    min_size=1, max_size=12
)
addresses = st.integers(min_value=1, max_value=30) | st.sampled_from(
    [0x80000000, 0xDEADBEEF, 0xFFFFFFFF]
)

flows = st.builds(
    FlowRecord,
    fid=st.builds(
        FiveTuple,
        client_ip=addresses,
        server_ip=addresses,
        src_port=u16,
        dst_port=st.sampled_from([80, 443, 51413]),
        proto=st.sampled_from(TransportProto),
    ),
    start=finite,
    end=finite,
    protocol=st.sampled_from(Protocol),
    bytes_up=u48,
    bytes_down=u48,
    packets=u32,
    fqdn=labels,
    cert_name=st.none() | st.sampled_from(["cert.example.com"]),
    true_fqdn=st.none(),
)

flow_lists = st.lists(flows, min_size=0, max_size=40)
spill_sizes = st.integers(min_value=1, max_value=15)
windows = st.tuples(finite, finite).map(sorted).map(tuple) | st.tuples(
    st.just(-10000.0), st.just(-9000.0)
)
server_probes = st.lists(addresses, min_size=0, max_size=6)
fqdn_probes = st.sampled_from(
    LABEL_POOL + ("missing.example.net", "TRACKER.appspot.com")
)


def _spill(tmp_path, flow_list, spill_rows) -> Path:
    directory = tmp_path / "store"
    store = FlowStore(directory, spill_rows=spill_rows)
    store.add_all(flow_list)
    store.close()
    return directory


def _skipped(store, call):
    """``(call(), sealed segments the call pruned)``, read off the
    store's public counters."""
    before = store.counters()["segments_pruned_total"]
    result = call()
    return result, store.counters()["segments_pruned_total"] - before


def _assert_predicates_identical(pruned, mem, ref, window, servers, fqdn):
    """One predicate set, three stores, every pruning-sensitive call."""
    t0, t1 = window
    sld = ".".join(fqdn.split(".")[-2:]).lower()
    # Label / 2LD keyed queries (presence-filter pruning).
    records, skipped = _skipped(pruned, lambda: pruned.query_by_fqdn(fqdn))
    assert records == ref.query_by_fqdn(fqdn)
    assert skipped == pruned.prune_report(
        QueryHint(fqdn=fqdn.lower())
    )["pruned_segments"]
    assert list(pruned.rows_for_fqdn(fqdn)) == list(
        mem.rows_for_fqdn(fqdn)
    )
    assert pruned.servers_for_fqdn(fqdn) == ref.servers_for_fqdn(fqdn)
    assert pruned.server_bins_for_fqdn(fqdn, 600.0) == (
        mem.server_bins_for_fqdn(fqdn, 600.0)
    )
    assert pruned.query_by_domain(sld) == ref.query_by_domain(sld)
    assert list(pruned.rows_for_domain(sld)) == list(
        mem.rows_for_domain(sld)
    )
    assert pruned.servers_for_domain(sld) == ref.servers_for_domain(sld)
    assert pruned.unique_servers_per_bin(sld, 600.0) == (
        mem.unique_servers_per_bin(sld, 600.0)
    )
    # Server-set queries (address-range pruning).
    assert pruned.query_by_servers(servers) == ref.query_by_servers(
        servers
    )
    assert list(pruned.rows_for_servers(servers)) == list(
        mem.rows_for_servers(servers)
    )
    assert pruned.fqdns_for_servers(servers) == ref.fqdns_for_servers(
        servers
    )
    # Time-window queries (start-range pruning) and the grouped
    # aggregations driven by their row sets.
    rows_p, skipped = _skipped(pruned, lambda: pruned.rows_in_window(t0, t1))
    rows_m = mem.rows_in_window(t0, t1)
    assert list(rows_p) == list(rows_m)
    assert skipped == pruned.prune_report(
        QueryHint(window=(t0, t1))
    )["pruned_segments"]
    window_records = pruned.query_in_window(t0, t1)
    assert window_records == ref.query_in_window(t0, t1)
    assert window_records == mem.query_in_window(t0, t1)
    assert pruned.fqdn_server_counts(rows_p) == sorted(
        mem.fqdn_server_counts(rows_m)
    )
    assert pruned.fqdn_flow_byte_totals(rows_p) == sorted(
        mem.fqdn_flow_byte_totals(rows_m)
    )
    assert pruned.server_flow_counts(rows_p) == dict(sorted(
        mem.server_flow_counts(rows_m).items()
    ))
    assert sorted(pruned.sld_flow_stats(rows_p)) == sorted(
        mem.sld_flow_stats(rows_m)
    )
    assert pruned.fqdns_for_rows(rows_p) == mem.fqdns_for_rows(rows_m)
    assert pruned.fqdn_first_seen(rows_p) == mem.fqdn_first_seen(rows_m)
    assert pruned.fqdn_bin_pairs(600.0, rows_p) == mem.fqdn_bin_pairs(
        600.0, rows_m
    )


class TestPruningSoundness:
    @settings(deadline=None)
    @given(flow_lists, spill_sizes, windows, server_probes, fqdn_probes)
    def test_pruned_equals_memory_stores(
        self, tmp_path_factory, flow_list, spill_rows, window, servers,
        fqdn,
    ):
        tmp_path = tmp_path_factory.mktemp("prune")
        directory = _spill(tmp_path, flow_list, spill_rows)
        pruned = FlowStore(directory)
        mem = FlowDatabase.from_flows(flow_list)
        ref = ReferenceDatabase.from_flows(flow_list)
        _assert_predicates_identical(
            pruned, mem, ref, window, servers, fqdn
        )

    @settings(deadline=None)
    @given(flow_lists, spill_sizes, windows, server_probes, fqdn_probes)
    def test_pruning_sound_after_compaction(
        self, tmp_path_factory, flow_list, spill_rows, window, servers,
        fqdn,
    ):
        """Compacted segments carry freshly-computed metadata; pruning
        over them must stay invisible too (partial compaction keeps a
        mix of merged and original segments)."""
        tmp_path = tmp_path_factory.mktemp("prune")
        directory = _spill(tmp_path, flow_list, spill_rows)
        store = FlowStore(directory)
        store.compact(small_rows=max(2, spill_rows))
        pruned = FlowStore(directory)
        mem = FlowDatabase.from_flows(flow_list)
        ref = ReferenceDatabase.from_flows(flow_list)
        _assert_predicates_identical(
            pruned, mem, ref, window, servers, fqdn
        )

    @settings(deadline=None, max_examples=25)
    @given(flow_lists, spill_sizes, windows, server_probes, fqdn_probes)
    def test_live_tail_included_in_pruned_queries(
        self, tmp_path_factory, flow_list, spill_rows, window, servers,
        fqdn,
    ):
        """The unsealed tail has no metadata and must always be
        scanned — a mid-session store (segments + live tail) answers
        like the in-memory one under every predicate."""
        tmp_path = tmp_path_factory.mktemp("prune")
        store = FlowStore(tmp_path / "store", spill_rows=spill_rows)
        store.add_all(flow_list)  # no close: tail stays live
        mem = FlowDatabase.from_flows(flow_list)
        ref = ReferenceDatabase.from_flows(flow_list)
        _assert_predicates_identical(
            store, mem, ref, window, servers, fqdn
        )

    @settings(deadline=None)
    @given(flow_lists, spill_sizes, windows, server_probes, fqdn_probes)
    def test_prune_report_never_prunes_a_contributing_segment(
        self, tmp_path_factory, flow_list, spill_rows, window, servers,
        fqdn,
    ):
        """Soundness at the report level: any segment the metadata
        would skip holds zero rows matching the predicate."""
        tmp_path = tmp_path_factory.mktemp("prune")
        directory = _spill(tmp_path, flow_list, spill_rows)
        store = FlowStore(directory)
        t0, t1 = window
        for hint, matcher in (
            (
                QueryHint(window=(t0, t1)),
                lambda db: db.rows_in_window(t0, t1),
            ),
            (
                QueryHint(fqdn=fqdn.lower()),
                lambda db: db.rows_for_fqdn(fqdn),
            ),
            (
                QueryHint(servers=list(dict.fromkeys(servers))),
                lambda db: db.rows_for_servers(servers),
            ),
        ):
            report = store.prune_report(hint)
            by_name = {
                entry["name"]: entry["scan"]
                for entry in report["segments"]
            }
            for reader in store.segments:
                if not by_name[reader.name]:
                    assert not len(matcher(reader.database()))

    def test_window_and_fqdn_queries_prune_sealed_segments(self, tmp_path):
        """The properties above hold whether or not a draw prunes; a
        time-ordered store with one label per time slice must prune,
        and still answer like the in-memory stores."""
        flow_list = [
            _flow(i, fqdn=f"host{i // 10}.example.com") for i in range(60)
        ]
        store = FlowStore(_spill(tmp_path, flow_list, spill_rows=10))
        assert len(store.segments) == 6
        mem = FlowDatabase.from_flows(flow_list)
        ref = ReferenceDatabase.from_flows(flow_list)
        for call in (
            lambda db: db.query_in_window(12.0, 18.0),
            lambda db: db.query_by_fqdn("HOST3.example.com"),
        ):
            before = store.stats()["scan_stats"]["segments_pruned"]
            assert call(store) == call(ref) == call(mem)
            assert store.stats()["scan_stats"]["segments_pruned"] > before


def _flow(i: int, fqdn="www.Example.com", start=None) -> FlowRecord:
    return FlowRecord(
        fid=FiveTuple(10 + i % 5, 20 + i % 3, 1024 + i, 443,
                      TransportProto.TCP),
        start=float(i) if start is None else start,
        end=(float(i) if start is None else start) + 1.5,
        protocol=Protocol.TLS,
        bytes_up=100 + i,
        bytes_down=2000 + i,
        packets=12,
        fqdn=fqdn if i % 4 else None,
        cert_name="cert.example.com" if i % 2 else None,
    )


class TestNonFiniteTimestamps:
    """A NaN/inf timestamp would poison segment time ranges and let
    window pruning silently drop valid rows — ingestion must reject it
    before any state is touched, on both ingest paths and on the
    durable store."""

    def _bad_flows(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            yield _flow(1, start=bad)
        yield FlowRecord(
            fid=FiveTuple(1, 2, 3, 443, TransportProto.TCP),
            start=5.0, end=float("nan"), protocol=Protocol.TLS,
            bytes_up=1, bytes_down=1, packets=1, fqdn="a.example.com",
        )

    def test_add_rejects_non_finite_atomically(self):
        db = FlowDatabase()
        for bad_flow in self._bad_flows():
            with pytest.raises(ValueError, match="non-finite"):
                db.add(bad_flow)
        assert len(db) == 0

    def test_ingest_batch_rejects_non_finite_atomically(self):
        from repro.sniffer.eventcodec import CodecError, encode_events

        good = [_flow(i) for i in range(4)]
        db = FlowDatabase.from_flows(good)
        for bad_flow in self._bad_flows():
            payload = encode_events(good + [bad_flow])
            with pytest.raises(CodecError, match="non-finite"):
                db.ingest_batch(payload)
        assert len(db) == 4
        assert db.time_span() == (
            FlowDatabase.from_flows(good).time_span()
        )

    def test_store_rejects_non_finite_atomically(self, tmp_path):
        from repro.sniffer.eventcodec import CodecError, encode_events

        store = FlowStore(tmp_path / "s", spill_rows=4)
        for bad_flow in self._bad_flows():
            with pytest.raises(ValueError, match="non-finite"):
                store.add(bad_flow)
            with pytest.raises(CodecError, match="non-finite"):
                store.ingest_batch(encode_events([bad_flow]))
        assert len(store) == 0

    def test_segment_with_a_nan_start_fails_closed(self, tmp_path,
                                                    capsys):
        """A non-finite start reaches disk only by a rewrite that fixed
        up the CRC: the segment opens (sizes and CRC hold) but refuses
        to materialize, and verify reports it."""
        directory = tmp_path / "store"
        store = FlowStore(directory)
        store.add_all(_flow(i) for i in range(6))
        store.close()
        (segment,) = directory.glob("seg-*.fseg")
        _patch_segment_block(
            segment, lambda raw: raw[:8] + struct.pack("<d", math.nan)
            + raw[16:], index=5,                  # row 1's start
        )
        with pytest.raises(StorageError, match="non-finite"):
            list(FlowStore(directory))
        assert flowstore_main(["verify", str(directory)]) == 1
        assert "non-finite flow timestamp" in capsys.readouterr().err

    def test_window_predicate_is_conservative_under_nan(self):
        # Defense in depth: were a NaN bound ever to reach a footer,
        # the segment must be scanned, not silently pruned.
        meta = SegmentMeta()
        meta.min_start = meta.max_start = float("nan")
        assert meta.may_overlap_window(0.0, 100.0)


class TestPresenceFilter:
    def test_no_false_negatives(self):
        values = [f"host{i}.example{i % 7}.org" for i in range(500)]
        built = PresenceFilter.build(values)
        for value in values:
            assert value in built

    def test_empty_filter_rejects_everything(self):
        assert "anything" not in PresenceFilter.build([])

    def test_deterministic_and_order_independent(self):
        values = [f"h{i}.example.com" for i in range(64)]
        assert PresenceFilter.build(values).data == (
            PresenceFilter.build(list(reversed(values))).data
        )

    def test_size_is_bounded_power_of_two(self):
        big = PresenceFilter.build(
            [f"x{i}.example.com" for i in range(100_000)]
        )
        assert len(big.data) == (1 << 15) // 8
        length = len(PresenceFilter.build(["a"]).data)
        assert length == 8  # 64-bit floor
        with pytest.raises(StorageError):
            PresenceFilter(b"\x00" * 12)  # not a power of two


def _write_v1_segment(path: Path, db: FlowDatabase) -> None:
    """A metadata-less version-1 segment file: what ``write_segment``
    produces, minus block 17 (the footer), with the header's version,
    CRC and payload length re-framed.  ``src/`` neither writes nor
    reads version 1; this is the one writer left, for the refusal."""
    write_segment(path, db)
    data = path.read_bytes()
    directory_end = _HEADER.size + _N_BLOCKS * _BLOCK_LEN.size
    v1_directory_end = directory_end - _BLOCK_LEN.size
    (meta_len,) = _BLOCK_LEN.unpack_from(data, v1_directory_end)
    payload = data[directory_end:len(data) - meta_len]
    fields = list(_HEADER.unpack_from(data, 0))
    fields[1] = 1
    fields[7:9] = zlib.crc32(payload), len(payload)
    path.write_bytes(
        _HEADER.pack(*fields) + data[_HEADER.size:v1_directory_end]
        + payload
    )


def _tree(directory: Path) -> dict:
    """Every path under ``directory`` with its bytes (None: a dir)."""
    return {
        path: path.read_bytes() if path.is_file() else None
        for path in directory.rglob("*")
    }


class TestVersion1Refused:
    """A version-1 store is refused at open — never quarantined, never
    half-read — with a message naming the upgrade."""

    def _v1_store(self, directory: Path, shape: str) -> Path:
        """Two version-1 segments listed by a version-1 manifest, or —
        what an open that spilled left behind before version 1 was
        dropped — by a version-2 manifest after a version-2 segment
        (``corrupt``: a truncated one, which alone would be
        quarantined)."""
        directory.mkdir()
        names = ["seg-00000002.fseg", "seg-00000003.fseg"]
        for index, name in enumerate(names):
            _write_v1_segment(directory / name, FlowDatabase.from_flows(
                [_flow(8 * index + i) for i in range(8)]
            ))
        if shape == "v1-manifest":
            manifest = {"format": 1, "segments": names}
        else:
            first = directory / "seg-00000001.fseg"
            write_segment(first, FlowDatabase.from_flows(
                [_flow(100 + i) for i in range(4)]
            ))
            if shape == "v2-manifest, corrupt first":
                first.write_bytes(first.read_bytes()[:40])
            manifest = {"format": 2, "wal_epoch": 1, "quarantined": [],
                        "segments": [
                            {"name": name, "rows": rows, "meta": None}
                            for name, rows in zip([first.name, *names],
                                                  [4, 8, 8])
                        ]}
        (directory / "MANIFEST.json").write_text(json.dumps(manifest))
        return directory

    @pytest.mark.parametrize(
        "opener", ["FlowStore", "open_store", "inspect", "verify", "compact"]
    )
    @pytest.mark.parametrize(
        "shape", ["v1-manifest", "v2-manifest", "v2-manifest, corrupt first"]
    )
    def test_refused_with_the_directory_untouched(self, tmp_path, capsys,
                                                  shape, opener):
        directory = self._v1_store(tmp_path / "store", shape)
        before = _tree(directory)
        if opener in ("FlowStore", "open_store"):
            with pytest.raises(StorageError) as refused:
                (FlowStore if opener == "FlowStore" else open_store)(
                    directory
                )
            message = str(refused.value)
        else:
            assert flowstore_main([opener, str(directory)]) == 1
            message = capsys.readouterr().err
        assert "format version 1" in message
        assert "repro-flowstore compact" in message
        assert _tree(directory) == before
        assert not (directory / "quarantine").exists()

    def test_an_unknown_version_is_still_quarantined(self, tmp_path):
        directory = tmp_path / "store"
        store = FlowStore(directory)
        store.add_all(_flow(i) for i in range(4))
        store.close()
        (segment,) = directory.glob("seg-*.fseg")
        raw = bytearray(segment.read_bytes())
        struct.pack_into("<H", raw, 4, 3)        # the header's version
        segment.write_bytes(bytes(raw))
        with pytest.raises(StorageError, match="unsupported version 3"):
            FlowStore(directory, strict=True)
        assert FlowStore(directory).health()["status"] == "degraded"
        assert (directory / "quarantine" / segment.name).exists()


def _patch_segment_block(path: Path, mutate,
                         index: int = _N_BLOCKS - 1) -> None:
    """Rewrite one payload block of a segment in place (CRC kept
    consistent), simulating an external tool that lies — by default
    about the metadata footer."""
    data = bytearray(path.read_bytes())
    lengths = []
    pos = _HEADER.size
    for _ in range(_N_BLOCKS):
        (length,) = _BLOCK_LEN.unpack_from(data, pos)
        lengths.append(length)
        pos += _BLOCK_LEN.size
    body = pos
    offset = body + sum(lengths[:index])
    raw = bytes(data[offset:offset + lengths[index]])
    replacement = mutate(raw)
    assert len(replacement) == lengths[index]
    data[offset:offset + lengths[index]] = replacement
    crc = zlib.crc32(memoryview(data)[body:])
    struct.pack_into("<I", data, 24, crc)  # crc field of the header
    path.write_bytes(bytes(data))


class TestMetadataCorruption:
    def _store(self, tmp_path):
        directory = tmp_path / "store"
        store = FlowStore(directory, spill_rows=8)
        store.add_all(_flow(i) for i in range(20))
        store.close()
        return directory, sorted(directory.glob("seg-*.fseg"))

    def test_lying_ranges_detected_by_verify(self, tmp_path, capsys):
        directory, segments = self._store(tmp_path)

        def narrow(raw: bytes) -> bytes:
            meta = SegmentMeta.decode(raw)
            meta.min_start, meta.max_start = 9000.0, 9001.0
            return meta.encode()

        _patch_segment_block(segments[0], narrow)
        # CRC is consistent, so the store opens — and would silently
        # mis-prune a window query...
        store = FlowStore(directory)
        assert len(store.rows_in_window(0.0, 100.0)) < 20
        # ...which is exactly what verify exists to catch.
        assert flowstore_main(["verify", str(directory)]) == 1
        captured = capsys.readouterr()
        assert "does not match segment contents" in captured.out
        assert "failed" in captured.err

    def test_lying_filter_detected_by_verify(self, tmp_path, capsys):
        directory, segments = self._store(tmp_path)

        def blank_filter(raw: bytes) -> bytes:
            meta = SegmentMeta.decode(raw)
            meta.fqdn_filter = PresenceFilter(
                b"\x00" * len(meta.fqdn_filter.data)
            )
            return meta.encode()

        _patch_segment_block(segments[1], blank_filter)
        assert flowstore_main(["verify", str(directory)]) == 1
        assert "does not match" in capsys.readouterr().out

    def test_truncated_metadata_block_rejected_atomically(
        self, tmp_path
    ):
        directory, segments = self._store(tmp_path)
        good = segments[0].read_bytes()

        def lie_about_filter_length(raw: bytes) -> bytes:
            # Claim a fqdn filter longer than the block holds: the
            # fixed part's length fields no longer add up and the open
            # must fail before any state is built.
            fields = list(_META_FIXED.unpack_from(raw, 0))
            fields[9] += 8
            return _META_FIXED.pack(*fields) + raw[_META_FIXED.size:]

        _patch_segment_block(segments[0], lie_about_filter_length)
        with pytest.raises(StorageError, match="metadata"):
            FlowStore(directory, strict=True)
        # A failed strict open leaves nothing behind that blocks a
        # repair: restoring the file restores the store.
        segments[0].write_bytes(good)
        assert len(FlowStore(directory, strict=True)) == 20

    def test_metadata_bit_flip_fails_crc(self, tmp_path):
        directory, segments = self._store(tmp_path)
        raw = bytearray(segments[0].read_bytes())
        raw[-3] ^= 0xFF  # inside the metadata block, CRC not fixed up
        segments[0].write_bytes(bytes(raw))
        with pytest.raises(StorageError):
            FlowStore(directory, strict=True)
