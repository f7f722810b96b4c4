"""Pruning soundness: skipping segments must never change an answer.

The segment-pruning metadata (:class:`repro.analytics.storage.SegmentMeta`)
lets the durable store skip — never materialize — sealed segments that
provably cannot contribute to a query.  That optimisation is only
admissible if it is invisible: for random flow sets and random
time/server/FQDN/2LD predicates, a pruned query over a spilled (and
compacted) store must equal the same query with pruning disabled
(``FlowStore(prune=False)``, the PR4 scan-everything pass), the
in-memory columnar :class:`FlowDatabase` and the seed
``database_reference`` row store.

Alongside the property suite: backward compatibility (a metadata-less
version-1 store opens and answers identically; compaction upgrades it),
and metadata corruption (a footer whose ranges lie is caught by
``repro-flowstore verify``; a truncated metadata block is rejected
atomically at open).
"""

import json
import struct
import warnings
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
from repro.analytics.storage import (
    _BLOCK_LEN,
    _HEADER,
    _META_FIXED,
    _N_BLOCKS,
    FORMAT_VERSION_V1,
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


def _assert_predicates_identical(
    pruned, unpruned, mem, ref, window, servers, fqdn
):
    """One predicate set, four stores, every pruning-sensitive call."""
    t0, t1 = window
    sld = ".".join(fqdn.split(".")[-2:]).lower()
    # Label / 2LD keyed queries (presence-filter pruning).
    assert pruned.query_by_fqdn(fqdn) == unpruned.query_by_fqdn(fqdn)
    assert pruned.query_by_fqdn(fqdn) == ref.query_by_fqdn(fqdn)
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
    assert pruned.query_by_servers(servers) == unpruned.query_by_servers(
        servers
    )
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
    rows_p = pruned.rows_in_window(t0, t1)
    rows_u = unpruned.rows_in_window(t0, t1)
    rows_m = mem.rows_in_window(t0, t1)
    assert list(rows_p) == list(rows_u) == list(rows_m)
    window_records = pruned.query_in_window(t0, t1)
    assert window_records == unpruned.query_in_window(t0, t1)
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
    def test_pruned_equals_unpruned_and_memory_stores(
        self, tmp_path_factory, flow_list, spill_rows, window, servers,
        fqdn,
    ):
        tmp_path = tmp_path_factory.mktemp("prune")
        directory = _spill(tmp_path, flow_list, spill_rows)
        pruned = FlowStore(directory)
        unpruned = FlowStore(directory, prune=False)
        mem = FlowDatabase.from_flows(flow_list)
        ref = ReferenceDatabase.from_flows(flow_list)
        _assert_predicates_identical(
            pruned, unpruned, mem, ref, window, servers, fqdn
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
        unpruned = FlowStore(directory, prune=False)
        mem = FlowDatabase.from_flows(flow_list)
        ref = ReferenceDatabase.from_flows(flow_list)
        _assert_predicates_identical(
            pruned, unpruned, mem, ref, window, servers, fqdn
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
            store, store, mem, ref, window, servers, fqdn
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
    """A metadata-less PR4-era segment file: what ``write_segment``
    produces, minus block 17 (the footer), with the header's version,
    CRC and payload length re-framed.  ``src/`` only *reads*
    version 1; this is the one writer left."""
    write_segment(path, db)
    data = path.read_bytes()
    directory_end = _HEADER.size + _N_BLOCKS * _BLOCK_LEN.size
    v1_directory_end = directory_end - _BLOCK_LEN.size
    (meta_len,) = _BLOCK_LEN.unpack_from(data, v1_directory_end)
    payload = data[directory_end:len(data) - meta_len]
    fields = list(_HEADER.unpack_from(data, 0))
    fields[1] = FORMAT_VERSION_V1
    fields[7:9] = zlib.crc32(payload), len(payload)
    path.write_bytes(
        _HEADER.pack(*fields) + data[_HEADER.size:v1_directory_end]
        + payload
    )


class TestVersion1Compat:
    """Metadata-less PR4-era stores must keep answering correctly."""

    def _write_v1_store(self, directory: Path, flow_list, per_segment=8):
        directory.mkdir(parents=True)
        names = []
        for pos in range(0, len(flow_list), per_segment):
            db = FlowDatabase.from_flows(
                flow_list[pos:pos + per_segment]
            )
            name = f"seg-{len(names) + 1:08d}.fseg"
            _write_v1_segment(directory / name, db)
            names.append(name)
        (directory / "MANIFEST.json").write_text(
            json.dumps({"format": 1, "segments": names}) + "\n"
        )
        return names

    def test_v1_store_reopens_and_answers_identically(self, tmp_path):
        flow_list = [_flow(i) for i in range(30)]
        directory = tmp_path / "v1store"
        self._write_v1_store(directory, flow_list)
        store = FlowStore(directory)
        assert all(seg.version == 1 for seg in store.segments)
        assert all(seg.meta is None for seg in store.segments)
        mem = FlowDatabase.from_flows(flow_list)
        ref = ReferenceDatabase.from_flows(flow_list)
        assert list(store) == list(ref)
        assert store.fqdns() == ref.fqdns()
        assert store.fqdn_server_counts() == sorted(
            mem.fqdn_server_counts()
        )
        assert store.query_by_fqdn("www.example.COM") == (
            ref.query_by_fqdn("www.example.COM")
        )
        assert list(store.rows_in_window(4.0, 11.0)) == list(
            mem.rows_in_window(4.0, 11.0)
        )
        assert store.time_span() == ref.time_span()
        # Without metadata nothing is ever pruned.
        report = store.prune_report(QueryHint(fqdn="missing.example.net"))
        assert report["pruned_segments"] == 0

    def test_v1_store_spill_upgrades_manifest_and_new_segments(
        self, tmp_path
    ):
        flow_list = [_flow(i) for i in range(20)]
        directory = tmp_path / "v1store"
        self._write_v1_store(directory, flow_list)
        store = FlowStore(directory, spill_rows=4)
        store.add_all(_flow(100 + i) for i in range(4))
        store.flush()
        manifest = json.loads(
            (directory / "MANIFEST.json").read_text()
        )
        assert manifest["format"] == 2
        entries = {
            entry["name"]: entry for entry in manifest["segments"]
        }
        old = [n for n in entries if n != store.segments[-1].name]
        assert all(entries[name]["meta"] is None for name in old)
        assert entries[store.segments[-1].name]["meta"] is not None
        assert store.segments[-1].version == 2
        reopened = FlowStore(directory)
        assert len(reopened) == 24

    def test_compaction_upgrades_v1_segments(self, tmp_path):
        flow_list = [_flow(i) for i in range(24)]
        directory = tmp_path / "v1store"
        self._write_v1_store(directory, flow_list)
        store = FlowStore(directory)
        store.compact()
        assert len(store.segments) == 1
        assert store.segments[0].version == 2
        assert store.segments[0].meta is not None
        ref = ReferenceDatabase.from_flows(flow_list)
        assert list(FlowStore(directory)) == list(ref)
        # The upgraded segment now prunes.
        report = FlowStore(directory).prune_report(
            QueryHint(window=(5000.0, 6000.0))
        )
        assert report["pruned_segments"] == 1

    def test_verify_accepts_v1_segments(self, tmp_path, capsys):
        directory = tmp_path / "v1store"
        self._write_v1_store(directory, [_flow(i) for i in range(12)])
        assert flowstore_main(["verify", str(directory)]) == 0
        assert "v1 segment" in capsys.readouterr().out

    def _write_v1_nan_store(self, directory: Path, row: int = 0,
                            value: float = float("nan"),
                            ) -> list[FlowRecord]:
        """Two v1 segments, row ``row`` of the first holding the
        non-finite start ``value`` (legacy data: PR4-era stores predate
        the finite-timestamp ingest check).  Returns the flows as
        ingested."""
        directory.mkdir()
        flow_list = [_flow(i) for i in range(6)] + [
            _flow(10 + i) for i in range(6)
        ]
        db = FlowDatabase.from_flows(flow_list[:6])
        db.columns.start[row] = value
        _write_v1_segment(directory / "seg-00000001.fseg", db)
        _write_v1_segment(
            directory / "seg-00000002.fseg",
            FlowDatabase.from_flows(flow_list[6:]),
        )
        (directory / "MANIFEST.json").write_text(json.dumps({
            "format": 1,
            "segments": ["seg-00000001.fseg", "seg-00000002.fseg"],
        }))
        return flow_list

    @pytest.mark.parametrize("row", [0, 1], ids=["untagged", "tagged"])
    def test_v1_nan_store_statistics_use_the_finite_rows(self, tmp_path,
                                                        row):
        """``time_span()`` / ``count_by_protocol()`` over a legacy NaN
        start are the answers over the finite values — the same from
        the cold column blocks and from the materialized segments."""
        flow_list = self._write_v1_nan_store(tmp_path / "v1store", row)
        span = (min(flow.start for index, flow in enumerate(flow_list)
                    if index != row),
                max(flow.end for flow in flow_list))
        protocols = FlowDatabase.from_flows(flow_list).count_by_protocol()
        store = FlowStore(tmp_path / "v1store")
        assert not any(seg.resident for seg in store.segments)
        assert store.time_span() == span
        assert store.count_by_protocol() == protocols
        assert len(list(store)) == 12    # materializes every segment
        assert all(seg.resident for seg in store.segments)
        assert store.time_span() == span
        assert store.count_by_protocol() == protocols

    #: The kernels that read a flow's start, each as a function of a
    #: database giving its answer in labels (ids differ between a
    #: store and a database).
    START_KERNELS = {
        "fqdn_bin_pairs": lambda db: sorted(
            (db.fqdn_label(fqdn_id), index)
            for fqdn_id, index in db.fqdn_bin_pairs(60.0)
        ),
        "server_fqdn_bin_triples": lambda db: sorted(
            (server, db.fqdn_label(fqdn_id), index)
            for server, fqdn_id, index in db.server_fqdn_bin_triples(60.0)
        ),
        "unique_servers_per_bin": lambda db: {
            sld: db.unique_servers_per_bin(sld, 60.0) for sld in db.slds()
        },
        "server_bins_for_fqdn": lambda db: {
            fqdn: db.server_bins_for_fqdn(fqdn, 60.0) for fqdn in db.fqdns()
        },
        "fqdn_first_seen": lambda db: {
            db.fqdn_label(fqdn_id): start
            for fqdn_id, start in db.fqdn_first_seen().items()
        },
    }

    @pytest.mark.parametrize("kernel", list(START_KERNELS))
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_v1_non_finite_start_on_a_tagged_row_carries_no_time(
        self, tmp_path, value, kernel
    ):
        """Regression: a legacy NaN start on a labeled flow was cast to
        bin -2^63 (and the Fig. 4 series refused a 2^63-bin span), and
        folded by ``minimum`` it hid the label's finite starts; a -inf
        start was that label's first sighting.  A non-finite start
        falls in no bin and is no sighting now — the rule
        ``rows_in_window`` follows — so every kernel that reads a start
        answers as over the flows without that row."""
        flow_list = self._write_v1_nan_store(
            tmp_path / "v1store", row=1, value=value
        )
        assert flow_list[1].fqdn
        finite = FlowDatabase.from_flows(flow_list[:1] + flow_list[2:])
        store = FlowStore(tmp_path / "v1store")
        answer = self.START_KERNELS[kernel]
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # no NaN cast to int
            assert answer(store) == answer(finite)
        store.close()

    def test_v1_nan_timestamps_upgrade_cleanly(self, tmp_path, capsys):
        """Upgrading a legacy NaN-start segment via compact() must
        produce a footer that verify agrees with (ranges are computed
        over finite values only, by the one footer constructor), and
        window queries — which a NaN start can never match — must keep
        working."""
        directory = tmp_path / "v1store"
        self._write_v1_nan_store(directory)
        store = FlowStore(directory)
        store.compact()
        assert flowstore_main(["verify", str(directory)]) == 0
        assert "metadata ok" in capsys.readouterr().out
        reopened = FlowStore(directory)
        # 12 rows on disk; the NaN-start row matches no window.
        assert len(reopened) == 12
        assert len(reopened.rows_in_window(-1e9, 1e9)) == 11

    def test_inspect_reports_v1_segments(self, tmp_path, capsys):
        """An operator triaging v1 compat must see the on-disk
        versions, not just the store's write format."""
        directory = tmp_path / "v1store"
        self._write_v1_store(directory, [_flow(i) for i in range(12)])
        assert flowstore_main(["inspect", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "2x v1" in out and "compact upgrades" in out


def _patch_segment_meta(path: Path, mutate) -> None:
    """Rewrite a v2 segment's metadata block in place (CRC kept
    consistent), simulating an external tool whose footer lies."""
    data = bytearray(path.read_bytes())
    lengths = []
    pos = _HEADER.size
    for _ in range(_N_BLOCKS):
        (length,) = _BLOCK_LEN.unpack_from(data, pos)
        lengths.append(length)
        pos += _BLOCK_LEN.size
    body = pos
    meta_offset = body + sum(lengths[:-1])
    raw = bytes(data[meta_offset:meta_offset + lengths[-1]])
    replacement = mutate(raw)
    assert len(replacement) == lengths[-1]
    data[meta_offset:meta_offset + lengths[-1]] = replacement
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

        _patch_segment_meta(segments[0], narrow)
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

        _patch_segment_meta(segments[1], blank_filter)
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

        _patch_segment_meta(segments[0], lie_about_filter_length)
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
