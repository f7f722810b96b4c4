"""Differential/property tests: columnar FlowDatabase vs the seed store.

The columnar engine (:mod:`repro.analytics.database`) must answer every
query identically to the retained seed implementation
(:mod:`repro.analytics.database_reference`) on randomized flow sets —
including untagged flows, empty-string labels, case-folded FQDNs, and
all three ways rows enter a database (per-record ``add``, binary
``ingest_batch``, and a sealed segment rematerialized through
``SegmentReader.database()``).

Indexes are built on first use: an interleaving of ingestion and
index-backed queries must show every query every row committed before
it, whatever order the indexes were first asked in.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics.database import FlowDatabase
from repro.analytics.database_reference import FlowDatabase as ReferenceDatabase
from repro.analytics.storage import FlowStore, SegmentReader, write_segment
from repro.net.flow import FiveTuple, FlowRecord, Protocol, TransportProto
from repro.sniffer.eventcodec import encode_events

u16 = st.integers(min_value=0, max_value=0xFFFF)
u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
u48 = st.integers(min_value=0, max_value=0xFFFFFFFFFFFF)
# Bounded trace times: the gap-filled bin series ranges over
# (max - min) / bin_seconds entries, so keep the window day-sized.
finite = st.floats(
    allow_nan=False, allow_infinity=False, width=64,
    min_value=-3600.0, max_value=86400.0,
)
# Small pools force collisions: shared labels (mixed case), shared
# servers/clients/ports — the interesting regime for interning/indexes.
labels = st.none() | st.sampled_from([
    "", "www.google.com", "WWW.Google.COM", "mail.google.com",
    "cdn1.fbcdn.net", "CDN1.fbcdn.net", "static.bbc.co.uk",
    "a.b.c.example.org", "tracker.appspot.com", "x",
]) | st.text(min_size=1, max_size=20)
# Mostly a small colliding pool, plus high-bit addresses (>= 2^31) to
# catch signed-overflow bugs in packed-key paths.
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
    cert_name=st.none() | st.sampled_from(["cert.example.com"]),
    true_fqdn=st.none() | st.sampled_from(["true.example.com"]),
)

flow_lists = st.lists(flows, min_size=0, max_size=60)


def _assert_equivalent(db: FlowDatabase, ref: ReferenceDatabase) -> None:
    assert len(db) == len(ref)
    assert db.tagged_count == ref.tagged_count
    assert db.time_span() == ref.time_span()
    assert db.count_by_protocol() == ref.count_by_protocol()
    assert db.fqdns() == ref.fqdns()
    assert db.slds() == ref.slds()
    assert db.servers() == ref.servers()
    assert db.ports() == ref.ports()
    assert list(db) == list(ref)
    for fqdn in [*ref.fqdns(), "missing.example.net", ""]:
        assert db.query_by_fqdn(fqdn) == ref.query_by_fqdn(fqdn)
        assert db.query_by_fqdn(fqdn.upper()) == ref.query_by_fqdn(
            fqdn.upper()
        )
        assert db.servers_for_fqdn(fqdn) == ref.servers_for_fqdn(fqdn)
    for sld in [*ref.slds(), "missing.example.net"]:
        assert db.query_by_domain(sld) == ref.query_by_domain(sld)
        assert db.servers_for_domain(sld) == ref.servers_for_domain(sld)
        assert db.fqdns_for_domain(sld) == ref.fqdns_for_domain(sld)
    servers = ref.servers()
    probe_sets = [servers, servers[:3] * 2, [999999], []]
    for probe in probe_sets:
        assert db.query_by_servers(probe) == ref.query_by_servers(probe)
        assert db.fqdns_for_servers(probe) == ref.fqdns_for_servers(probe)
    for port in [*ref.ports(), 1]:
        assert db.query_by_port(port) == ref.query_by_port(port)


class TestObjectIngestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(flow_lists)
    def test_add_path_matches_reference(self, flow_list):
        ref = ReferenceDatabase.from_flows(flow_list)
        _assert_equivalent(FlowDatabase.from_flows(flow_list), ref)


class TestBatchIngestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(flow_lists, st.integers(min_value=1, max_value=17))
    def test_batch_path_matches_reference(self, flow_list, batch_size):
        ref = ReferenceDatabase.from_flows(flow_list)
        payloads = [
            encode_events(flow_list[pos:pos + batch_size])
            for pos in range(0, len(flow_list), batch_size)
        ]
        _assert_equivalent(FlowDatabase.from_batches(payloads), ref)

    @settings(max_examples=20, deadline=None)
    @given(flow_lists)
    def test_mixed_add_and_batch(self, flow_list):
        half = len(flow_list) // 2
        ref = ReferenceDatabase.from_flows(flow_list)
        db = FlowDatabase.from_flows(flow_list[:half])
        if flow_list[half:]:
            db.ingest_batch(encode_events(flow_list[half:]))
        _assert_equivalent(db, ref)


#: The queries answered from an index (by-fqdn, by-sld, by-port,
#: by-server) or listing one's keys.
INDEX_QUERIES = ("fqdn", "domain", "port", "servers", "servers()", "ports()")

steps = st.lists(st.one_of(
    st.tuples(st.just("add"), flows),
    st.tuples(st.just("batch"), st.lists(flows, max_size=8)),
    st.tuples(st.just("ask"), st.sampled_from(INDEX_QUERIES)),
), max_size=30)


def _assert_index_query(db: FlowDatabase, ref: ReferenceDatabase,
                        which: str) -> None:
    if which == "fqdn":
        for fqdn in [*ref.fqdns(), "absent.example"]:
            assert db.query_by_fqdn(fqdn) == ref.query_by_fqdn(fqdn)
            assert list(db.rows_for_fqdn(fqdn)) == sorted(
                db.rows_for_fqdn(fqdn)
            )
    elif which == "domain":
        for sld in [*ref.slds(), "absent.example"]:
            assert db.query_by_domain(sld) == ref.query_by_domain(sld)
            assert db.servers_for_domain(sld) == ref.servers_for_domain(sld)
    elif which == "port":
        for port in (80, 443, 8080, 51413, 1):
            assert db.query_by_port(port) == ref.query_by_port(port)
    elif which == "servers":
        probe = [*ref.servers()[:4], 999_999, *ref.servers()[:2]]
        assert db.query_by_servers(probe) == ref.query_by_servers(probe)
        assert db.fqdns_for_servers(probe) == ref.fqdns_for_servers(probe)
    elif which == "servers()":
        assert db.servers() == ref.servers()
    else:
        assert db.ports() == ref.ports()


class TestIndexesOnDemand:
    @settings(max_examples=60, deadline=None)
    @given(steps)
    def test_interleaved_ingest_and_index_queries(self, step_list):
        """Each query sees every row committed before it — the index it
        reads is extended from wherever it last stopped — and the
        ``servers()`` / ``ports()`` listings keep first-appearance order
        whatever order the indexes were first asked in."""
        db, ref = FlowDatabase(), ReferenceDatabase()
        for kind, arg in step_list:
            if kind == "add":
                db.add(arg)
                ref.add(arg)
            elif kind == "batch":
                assert db.ingest_batch(encode_events(arg)) == len(arg)
                ref.add_all(arg)
            else:
                _assert_index_query(db, ref, arg)
        _assert_equivalent(db, ref)

    def test_an_index_nobody_asks_for_is_never_built(self, monkeypatch):
        extended = []
        extend = FlowDatabase._extend_index
        monkeypatch.setattr(
            FlowDatabase, "_extend_index",
            lambda self, which, base, n: (
                extended.append((which, base, n)),
                extend(self, which, base, n),
            ),
        )
        flow_list = [
            FlowRecord(
                fid=FiveTuple(1, 10 + i % 3, 1000 + i, 443,
                              TransportProto.TCP),
                start=float(i), end=float(i) + 1.0, protocol=Protocol.TLS,
                bytes_up=1, bytes_down=1, packets=1,
                fqdn=f"h{i % 4}.example.com",
            )
            for i in range(12)
        ]
        db = FlowDatabase.from_flows(flow_list[:6])
        db.ingest_batch(encode_events(flow_list[6:9]))
        assert db.time_span() == (0.0, 9.0) and db.tagged_count == 9
        db.fqdn_server_counts()
        db.fqdn_first_seen()
        assert extended == []            # statistics and scans: no index
        assert len(db.rows_for_domain("example.com")) == 9
        assert len(db.rows_for_domain("example.com")) == 9
        assert extended == [("sld", 0, 9)]
        db.ingest_batch(encode_events(flow_list[9:]))
        assert db.servers() == [10, 11, 12]
        assert len(db.rows_for_domain("example.com")) == 12
        assert extended == [
            ("sld", 0, 9), ("server", 0, 12), ("sld", 9, 12),
        ]


def _rematerialized(db: FlowDatabase) -> FlowDatabase:
    """``db`` sealed with ``write_segment`` and read back."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "seg-00000001.fseg"
        write_segment(path, db)
        return SegmentReader.open(path).database()


class TestSegmentRoundTripDifferential:
    """The third row-entry path: adopted columns must index exactly as
    ingested ones — same ``servers()`` / ``ports()`` first-appearance
    order, indexes, ``time_span``, ``count_by_protocol``,
    ``tagged_count``."""

    @settings(max_examples=40, deadline=None)
    @given(flow_lists)
    def test_rematerialized_segment_matches_reference(self, flow_list):
        ref = ReferenceDatabase.from_flows(flow_list)
        _assert_equivalent(
            _rematerialized(FlowDatabase.from_flows(flow_list)), ref
        )
        _assert_equivalent(_rematerialized(
            FlowDatabase.from_batches([encode_events(flow_list)])
        ), ref)


class TestGroupedAggregations:
    """The grouped methods the vectorized analytics ride on, checked
    against brute-force recomputation from the reference store."""

    @settings(max_examples=40, deadline=None)
    @given(flow_lists, st.floats(min_value=30.0, max_value=7200.0))
    def test_fqdn_server_counts(self, flow_list, bin_seconds):
        ref = ReferenceDatabase.from_flows(flow_list)
        db = FlowDatabase.from_flows(flow_list)
        expected: dict[tuple[str, int], int] = {}
        for flow in ref:
            if flow.fqdn:
                key = (flow.fqdn.lower(), flow.fid.server_ip)
                expected[key] = expected.get(key, 0) + 1
        got = {
            (db.fqdn_label(fqdn_id), server): count
            for fqdn_id, server, count in db.fqdn_server_counts()
        }
        assert got == expected

    @settings(max_examples=40, deadline=None)
    @given(flow_lists, st.floats(min_value=30.0, max_value=7200.0))
    def test_unique_servers_per_bin(self, flow_list, bin_seconds):
        ref = ReferenceDatabase.from_flows(flow_list)
        db = FlowDatabase.from_flows(flow_list)
        for sld in ref.slds():
            sets: dict[int, set[int]] = {}
            for flow in ref.query_by_domain(sld):
                sets.setdefault(
                    int(flow.start // bin_seconds), set()
                ).add(flow.fid.server_ip)
            lo, hi = min(sets), max(sets)
            expected = [
                (index * bin_seconds, len(sets.get(index, ())))
                for index in range(lo, hi + 1)
            ]
            assert db.unique_servers_per_bin(sld, bin_seconds) == expected

    @settings(max_examples=40, deadline=None)
    @given(flow_lists)
    def test_fqdn_flow_byte_totals_and_client_counts(self, flow_list):
        ref = ReferenceDatabase.from_flows(flow_list)
        db = FlowDatabase.from_flows(flow_list)
        totals: dict[str, list[int]] = {}
        clients: dict[tuple[str, int], int] = {}
        for flow in ref:
            if not flow.fqdn:
                continue
            fqdn = flow.fqdn.lower()
            bucket = totals.setdefault(fqdn, [0, 0, 0])
            bucket[0] += 1
            bucket[1] += flow.bytes_up
            bucket[2] += flow.bytes_down
            key = (fqdn, flow.fid.client_ip)
            clients[key] = clients.get(key, 0) + 1
        assert {
            db.fqdn_label(fqdn_id): [flows, up, down]
            for fqdn_id, flows, up, down in db.fqdn_flow_byte_totals()
        } == totals
        assert {
            (db.fqdn_label(fqdn_id), client): count
            for fqdn_id, client, count in db.fqdn_client_counts()
        } == clients

    @settings(max_examples=40, deadline=None)
    @given(flow_lists)
    def test_sld_flow_stats_and_server_counts(self, flow_list):
        ref = ReferenceDatabase.from_flows(flow_list)
        db = FlowDatabase.from_flows(flow_list)
        servers = ref.servers()
        rows = db.rows_for_servers(servers)
        flow_counts: dict[str, int] = {}
        fqdn_sets: dict[str, set[str]] = {}
        server_counts: dict[int, int] = {}
        for flow in ref.query_by_servers(servers):
            server_counts[flow.fid.server_ip] = (
                server_counts.get(flow.fid.server_ip, 0) + 1
            )
            if not flow.fqdn:
                continue
            from repro.dns.name import second_level_domain

            sld = second_level_domain(flow.fqdn)
            flow_counts[sld] = flow_counts.get(sld, 0) + 1
            fqdn_sets.setdefault(sld, set()).add(flow.fqdn.lower())
        assert {
            db.sld_label(sld_id): (flows, distinct)
            for sld_id, flows, distinct in db.sld_flow_stats(rows)
        } == {
            sld: (count, len(fqdn_sets[sld]))
            for sld, count in flow_counts.items()
        }
        assert db.server_flow_counts(rows) == server_counts

    @settings(max_examples=40, deadline=None)
    @given(flow_lists, st.floats(min_value=30.0, max_value=7200.0))
    def test_bin_pairs_and_first_seen(self, flow_list, bin_seconds):
        ref = ReferenceDatabase.from_flows(flow_list)
        db = FlowDatabase.from_flows(flow_list)
        pairs = set()
        first: dict[str, float] = {}
        for flow in ref:
            if not flow.fqdn:
                continue
            fqdn = flow.fqdn.lower()
            pairs.add((fqdn, int(flow.start // bin_seconds)))
            if fqdn not in first or flow.start < first[fqdn]:
                first[fqdn] = flow.start
        assert {
            (db.fqdn_label(fqdn_id), bin_index)
            for fqdn_id, bin_index in db.fqdn_bin_pairs(bin_seconds)
        } == pairs
        assert {
            db.fqdn_label(fqdn_id): start
            for fqdn_id, start in db.fqdn_first_seen().items()
        } == first

    @settings(max_examples=30, deadline=None)
    @given(flow_lists, st.floats(min_value=30.0, max_value=7200.0))
    def test_server_fqdn_bin_triples(self, flow_list, bin_seconds):
        ref = ReferenceDatabase.from_flows(flow_list)
        db = FlowDatabase.from_flows(flow_list)
        expected = {
            (
                flow.fid.server_ip,
                flow.fqdn.lower(),
                int(flow.start // bin_seconds),
            )
            for flow in ref
            if flow.fqdn
        }
        got = {
            (server, db.fqdn_label(fqdn_id), bin_index)
            for server, fqdn_id, bin_index in db.server_fqdn_bin_triples(
                bin_seconds
            )
        }
        assert got == expected


class TestExactByteTotals:
    """Regression: the numpy body summed the u64 byte counters as
    ``bincount(weights=float64)``, so Tab. 8 totals past 2^53 differed
    from the seed (2^53+1 plus 2 came back even).
    Sums are integer-exact now, as Python ints where a total could pass
    2^63 — the codec accepts u64 per flow, so a hostile batch can."""

    COUNTERS = (2**53 + 1, 2, 2**53 - 1, 2**63, 2**64 - 1, 1, 2**63, 2**63)

    def _flows(self) -> list[FlowRecord]:
        return [
            FlowRecord(
                fid=FiveTuple(1, 2, 1000 + i, 443, TransportProto.TCP),
                start=float(i), end=float(i) + 1.0, protocol=Protocol.TLS,
                bytes_up=counter, bytes_down=self.COUNTERS[-1 - i],
                packets=1, fqdn=("Big.Example.com", "big.example.com",
                                 "small.example.org", None)[i // 2],
            )
            for i, counter in enumerate(self.COUNTERS)
        ]

    def test_in_memory_and_across_segments(self, tmp_path):
        flow_list = self._flows()
        expected: dict[str, list[int]] = {}
        for flow in ReferenceDatabase.from_flows(flow_list):
            if flow.fqdn:
                bucket = expected.setdefault(flow.fqdn.lower(), [0, 0, 0])
                bucket[0] += 1
                bucket[1] += flow.bytes_up
                bucket[2] += flow.bytes_down
        assert expected["big.example.com"][1] == 2**53 + 2**53 + 2 + 2**63
        assert expected["small.example.org"][1] == 2**64
        store = FlowStore(tmp_path / "store")
        store.add_all(flow_list[:3])    # cuts big.example.com in two
        store.flush()
        store.add_all(flow_list[3:])
        for surface in (FlowDatabase.from_flows(flow_list), store):
            assert {
                surface.fqdn_label(fqdn_id): [flows, up, down]
                for fqdn_id, flows, up, down
                in surface.fqdn_flow_byte_totals()
            } == expected
        store.close()
