"""Bulk ``decode_events`` vs. the retained per-event seed decoder.

``repro.sniffer.eventcodec.decode_events`` decodes a batch
block-at-a-time (interned string slots, positional constructors, one
interleave pass); ``repro.sniffer.eventcodec_reference`` is the seed
generator it replaced, kept as the oracle.  The contract under test:

* on every valid batch the two return the same events, and both invert
  ``encode_events``;
* on a damaged batch the bulk decoder raises ``CodecError`` or returns
  what the reference returns — never another exception type — and
  raises wherever the reference raises;
* the only damage it rejects that the reference accepts is a block the
  hot records do not consume exactly (slices past the end come back
  short instead of raising), reproduced here as regression tests
  together with the journal-before-validate defect the same parse
  split fixed in ``FlowStore.ingest_batch``.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics.storage import WAL_NAME, FlowStore
from repro.net.flow import (
    DnsObservation,
    FiveTuple,
    FlowRecord,
    Protocol,
    TransportProto,
)
from repro.sniffer import fanout
from repro.sniffer.eventcodec import (
    BLOCK_LEN,
    HEADER,
    MAGIC,
    VERSION,
    BatchEncoder,
    BatchView,
    CodecError,
    decode_events,
    encode_events,
)
from repro.sniffer.eventcodec_reference import iter_decoded_events

BLOCKS = ("flags", "flow_hot", "flow_cold", "flow_str",
          "dns_hot", "dns_answers", "dns_names", "dns_cold")

u16 = st.integers(min_value=0, max_value=0xFFFF)
u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
#: A small pool, so slots repeat within a batch (the interning path),
#: with the empty string, non-ASCII and a multi-byte-only label in it.
labels = st.sampled_from(
    ["", "cdn.example.com", "CDN.Example.com", "www.example.org",
     "bücher.example", "例え.テスト", "a" * 300]
) | st.text(max_size=12)
opt_labels = st.none() | labels

dns_events = st.builds(
    DnsObservation,
    timestamp=finite,
    client_ip=u32,
    fqdn=labels,
    answers=st.just([]) | st.lists(u32, min_size=1, max_size=4),
    ttl=u32,
    useless=st.booleans(),
)
flow_events = st.builds(
    FlowRecord,
    fid=st.builds(FiveTuple, u32, u32, u16, u16,
                  st.sampled_from(TransportProto)),
    start=finite,
    end=finite,
    protocol=st.sampled_from(Protocol),
    bytes_up=u32,
    bytes_down=u32,
    packets=u16,
    fqdn=opt_labels,
    cert_name=opt_labels,
    true_fqdn=opt_labels,
)
untagged_flows = st.builds(
    FlowRecord,
    fid=st.builds(FiveTuple, u32, u32, u16, u16,
                  st.sampled_from(TransportProto)),
    start=finite,
)
streams = st.one_of(
    st.lists(dns_events | flow_events, max_size=40),
    st.lists(flow_events, max_size=20),             # flows only
    st.lists(dns_events, max_size=20),              # DNS only
    st.lists(dns_events | untagged_flows, max_size=40),  # all-None slots
)


def reference(buf) -> list:
    return list(iter_decoded_events(buf))


def rebuild(buf, **blocks) -> bytes:
    """``buf`` with some blocks replaced (counts and framing kept)."""
    view = BatchView(buf)
    parts = [HEADER.pack(MAGIC, VERSION, view.n_events, view.n_dns,
                         view.n_flows)]
    for name in BLOCKS:
        block = bytes(blocks.get(name, getattr(view, name)))
        parts.append(BLOCK_LEN.pack(len(block)))
        parts.append(block)
    return b"".join(parts)


class TestAgreesOnValidBatches:
    @settings(deadline=None)
    @given(streams)
    def test_bulk_equals_reference_and_round_trips(self, stream):
        buf = encode_events(stream)
        decoded = decode_events(buf)
        assert decoded == reference(buf)
        assert decoded == stream
        assert [type(event) for event in decoded] == [
            type(event) for event in stream
        ]

    @settings(deadline=None)
    @given(st.lists(flow_events, min_size=1, max_size=10), finite)
    def test_end_before_start_clamps_like_the_reference(self, flows, end):
        # The constructor clamps end up to start; a record mutated
        # afterwards still encodes, and both decoders re-clamp it.
        for flow in flows:
            flow.end = min(end, flow.start)
        buf = encode_events(flows)
        decoded = decode_events(buf)
        assert decoded == reference(buf)
        assert all(flow.end == flow.start for flow in decoded)

    def test_trailing_flow_str_bytes_are_ignored_by_both(self):
        buf = encode_events([
            FlowRecord(FiveTuple(1, 2, 3, 4, TransportProto.TCP), 1.0,
                       fqdn="a.example.com"),
        ])
        padded = rebuild(
            buf, flow_str=bytes(BatchView(buf).flow_str) + b"\x00junk"
        )
        assert decode_events(padded) == reference(padded) \
            == decode_events(buf)

    def test_rejected_flow_leaves_no_partial_record(self):
        encoder = BatchEncoder()
        good = FlowRecord(FiveTuple(1, 2, 3, 4, TransportProto.TCP), 1.0,
                          fqdn="ok.example.com")
        encoder.add_flow(good)
        with pytest.raises(CodecError):
            encoder.add_flow(FlowRecord(
                FiveTuple(1, 2, 3, 4, TransportProto.TCP), 2.0,
                fqdn="ok.example.com", true_fqdn="x" * 70_000,
            ))
        assert decode_events(encoder.take()) == [good]


class TestDamagedBatches:
    """Bit flips and truncations: ``CodecError`` or the reference's
    answer, and an error wherever the reference errors."""

    @staticmethod
    def check(buf: bytes) -> None:
        try:
            expected = reference(buf)
        except ValueError:
            # CodecError, or the seed's bare ValueError for an answer
            # block that is not a whole number of u32s.
            expected = None
        try:
            got = decode_events(buf)
        except CodecError:
            return
        assert expected is not None, "reference raised, bulk decoded"
        # repr, not ==: a flipped bit may turn a timestamp into NaN.
        assert repr(got) == repr(expected)

    @settings(deadline=None)
    @given(
        st.lists(dns_events | flow_events, min_size=1, max_size=12),
        st.lists(st.tuples(st.floats(0, 1, exclude_max=True),
                           st.integers(0, 7)),
                 min_size=1, max_size=3),
    )
    def test_bit_flips(self, stream, flips):
        buf = bytearray(encode_events(stream))
        for where, bit in flips:
            buf[int(where * len(buf))] ^= 1 << bit
        self.check(bytes(buf))

    @settings(deadline=None)
    @given(
        st.lists(dns_events | flow_events, min_size=1, max_size=12),
        st.floats(0, 1, exclude_max=True),
    )
    def test_truncations(self, stream, where):
        buf = encode_events(stream)
        self.check(buf[:int(where * len(buf))])

    @settings(deadline=None)
    @given(
        st.lists(dns_events | flow_events, min_size=1, max_size=12),
        st.sampled_from(("flow_str", "dns_answers", "dns_names")),
        st.integers(1, 9),
    )
    def test_short_variable_length_blocks(self, stream, block, cut):
        # The framing stays valid; only a block's *content* is short —
        # the damage a top-level truncation cannot produce.
        buf = encode_events(stream)
        content = bytes(getattr(BatchView(buf), block))
        self.check(rebuild(buf, **{block: content[:-cut]}))

    def test_flag_values_and_counts(self):
        buf = encode_events([
            DnsObservation(1.0, 7, "a.example.com", [9]),
            FlowRecord(FiveTuple(7, 9, 1, 80, TransportProto.TCP), 2.0),
        ])
        for flags in (b"\x02\x00", b"\x00\x00", b"\x01\x01"):
            damaged = rebuild(buf, flags=flags)
            with pytest.raises(CodecError):
                reference(damaged)
            with pytest.raises(CodecError):
                decode_events(damaged)


def _mismatched_dns_batch() -> bytes:
    """Two responses declaring 4 + 2 answers and 15 + 15 name bytes
    over an answer block of 8 bytes and a name block of 20."""
    buf = encode_events([
        DnsObservation(1.0, 7, "cdn.example.com", [1, 2, 3, 4]),
        DnsObservation(2.0, 8, "www.example.org", [5, 6]),
    ])
    view = BatchView(buf)
    return rebuild(buf, dns_answers=bytes(view.dns_answers)[:8],
                   dns_names=bytes(view.dns_names)[:20])


class TestDnsBlockLengthRegression:
    def test_reference_decodes_the_mismatch_silently(self):
        # The defect as found: short slices, no error.
        first, second = reference(_mismatched_dns_batch())
        assert first.answers == [1, 2]
        assert (second.fqdn, second.answers) == ("www.e", [])

    def test_bulk_decoder_rejects_it(self):
        with pytest.raises(CodecError, match="DNS blocks disagree"):
            decode_events(_mismatched_dns_batch())

    @pytest.mark.parametrize("block", ["dns_answers", "dns_names"])
    @pytest.mark.parametrize("delta", [-4, 4])
    def test_each_block_must_be_consumed_exactly(self, block, delta):
        buf = encode_events([DnsObservation(1.0, 7, "abcdefgh", [1, 2])])
        content = bytes(getattr(BatchView(buf), block))
        content = content[:delta] if delta < 0 else content + b"\0" * delta
        with pytest.raises(CodecError):
            decode_events(rebuild(buf, **{block: content}))

    @pytest.mark.parametrize("use_numpy", [True, False])
    def test_fanout_worker_rejects_it(self, use_numpy):
        if use_numpy and fanout._np is None:
            pytest.skip("numpy not installed")
        worker = fanout._WorkerState(
            clist_size=64, warmup=0.0, use_numpy=use_numpy,
        )
        with pytest.raises(CodecError, match="DNS blocks disagree"):
            worker.consume(_mismatched_dns_batch())
        assert worker.resolver.stats.responses == 0


def _flows(lo: int, hi: int) -> list[FlowRecord]:
    return [
        FlowRecord(FiveTuple(7 + i % 3, 90 + i % 5, 2000 + i, 443,
                             TransportProto.TCP),
                   100.0 + i, 101.0 + i, Protocol.TLS, 10 + i, 1000 + i, 4,
                   fqdn=f"cdn{i % 3}.example.com")
        for i in range(lo, hi)
    ]


def _corrupt_flow_str(payload: bytes) -> bytes:
    content = bytearray(BatchView(payload).flow_str)
    content[2] = 0xFF  # first label byte: invalid UTF-8 start
    return rebuild(payload, flow_str=bytes(content))


class TestRejectedBatchNeverReachesTheJournal:
    """A payload ``ingest_batch`` rejects used to be appended to
    ``tail.wal`` (and fsynced) first; the next unclean reopen then
    skipped the unplayable record and reported the store degraded."""

    def test_store_level(self, tmp_path):
        directory = tmp_path / "store"
        store = FlowStore(directory, spill_rows=10_000)
        good_a = encode_events(_flows(0, 5))
        good_b = encode_events(_flows(5, 10))
        assert store.ingest_batch(good_a) == 5
        journal_bytes = (directory / WAL_NAME).stat().st_size
        for bad in (_corrupt_flow_str(good_b), good_b[:-9],
                    b"not a batch at all"):
            with pytest.raises(CodecError):
                store.ingest_batch(bad)
            assert (directory / WAL_NAME).stat().st_size == journal_bytes
            assert len(store) == 5
        assert store.ingest_batch(good_b) == 5
        assert store.stats()["rows"] == 10
        store._wal.close()  # crash: the tail is never sealed
        reopened = FlowStore(directory)
        health = reopened.health()
        assert len(reopened) == 10
        assert health["wal"]["recovered_batches"] == 2
        assert health["wal"]["skipped_records"] == 0
        assert health["status"] == "ok"
        assert list(reopened) == _flows(0, 10)
        reopened.close()

    def test_a_400_over_http_leaves_the_store_healthy(self, tmp_path):
        from repro.serve.server import ServeApp

        directory = tmp_path / "store"
        store = FlowStore(directory, spill_rows=10_000)
        httpd = ServeApp(store).make_server("127.0.0.1", 0)
        base = "http://%s:%d" % httpd.server_address[:2]
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()

        def post(body: bytes):
            request = urllib.request.Request(
                base + "/ingest", data=body, method="POST"
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                return json.load(response)

        try:
            good = encode_events(_flows(0, 6))
            assert post(good)["rows"] == 6
            journal_bytes = (directory / WAL_NAME).stat().st_size
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(_corrupt_flow_str(good))
            assert excinfo.value.code == 400
            assert (directory / WAL_NAME).stat().st_size == journal_bytes
            assert post(encode_events(_flows(6, 9)))["rows"] == 3
        finally:
            httpd.shutdown()
            httpd.server_close()
        store._wal.close()  # crash
        reopened = FlowStore(directory)
        assert len(reopened) == 9
        assert reopened.counters()["wal_skipped_records"] == 0
        assert reopened.health()["status"] == "ok"
        reopened.close()
