"""Property and unit tests for the binary event batch codec."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.flow import (
    DnsObservation,
    FiveTuple,
    FlowRecord,
    Protocol,
    TransportProto,
)
from repro.sniffer.eventcodec import (
    BatchEncoder,
    BatchView,
    CodecError,
    decode_events,
    encode_events,
)

u16 = st.integers(min_value=0, max_value=0xFFFF)
u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
u64 = st.integers(min_value=0, max_value=0xFFFFFFFFFFFFFFFF)
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
names = st.text(min_size=0, max_size=60)
opt_names = st.none() | names

dns_events = st.builds(
    DnsObservation,
    timestamp=finite,
    client_ip=u32,
    fqdn=names,
    answers=st.lists(u32, min_size=0, max_size=8),
    ttl=u32,
    useless=st.booleans(),
)

flow_events = st.builds(
    FlowRecord,
    fid=st.builds(
        FiveTuple,
        client_ip=u32,
        server_ip=u32,
        src_port=u16,
        dst_port=u16,
        proto=st.sampled_from(TransportProto),
    ),
    start=finite,
    end=finite,
    protocol=st.sampled_from(Protocol),
    bytes_up=u64,
    bytes_down=u64,
    packets=u32,
    fqdn=opt_names,
    cert_name=opt_names,
    true_fqdn=opt_names,
)

events = st.one_of(dns_events, flow_events)


class TestRoundTrip:
    @settings(deadline=None)
    @given(st.lists(events, min_size=0, max_size=40))
    def test_encode_decode_identity(self, stream):
        assert decode_events(encode_events(stream)) == stream

    @settings(deadline=None)
    @given(st.lists(events, min_size=0, max_size=30))
    def test_counts(self, stream):
        view = BatchView(encode_events(stream))
        assert view.n_events == len(stream)
        assert view.n_dns == sum(
            1 for event in stream if isinstance(event, DnsObservation)
        )
        assert view.n_dns + view.n_flows == view.n_events

    def test_empty_batch(self):
        buf = encode_events([])
        assert decode_events(buf) == []
        view = BatchView(buf)
        assert (view.n_events, view.n_dns, view.n_flows) == (0, 0, 0)

    def test_empty_answers_preserved(self):
        observation = DnsObservation(
            timestamp=1.0, client_ip=7, fqdn="a.example.com", answers=[]
        )
        (out,) = decode_events(encode_events([observation]))
        assert out == observation

    def test_encoder_is_reusable(self):
        encoder = BatchEncoder()
        observation = DnsObservation(
            timestamp=0.5, client_ip=1, fqdn="x.com", answers=[9]
        )
        encoder.add(observation)
        first = encoder.take()
        assert len(encoder) == 0
        encoder.add(observation)
        assert encoder.take() == first


class TestValidation:
    def test_too_many_answers(self):
        encoder = BatchEncoder()
        with pytest.raises(CodecError):
            encoder.add_dns_fields(1, "x.com", list(range(256)))

    def test_answer_out_of_range(self):
        encoder = BatchEncoder()
        with pytest.raises(CodecError):
            encoder.add_dns_fields(1, "x.com", [1 << 32])

    def test_oversized_name(self):
        encoder = BatchEncoder()
        with pytest.raises(CodecError):
            encoder.add_dns_fields(1, "x" * 70_000, [1])

    def test_flow_field_out_of_range(self):
        flow = FlowRecord(
            fid=FiveTuple(1, 2, 70_000, 80, TransportProto.TCP),
            start=0.0,
        )
        encoder = BatchEncoder()
        with pytest.raises(CodecError):
            encoder.add_flow(flow)
        # The rejected flow must not leave a half-written record behind.
        assert len(encoder) == 0
        assert encoder.take() == encode_events([])

    def test_unknown_event_type(self):
        with pytest.raises(CodecError):
            BatchEncoder().add(object())


class TestCorruption:
    def test_truncated_header(self):
        with pytest.raises(CodecError):
            BatchView(b"EC")

    def test_bad_magic(self):
        buf = bytearray(encode_events([]))
        buf[0:2] = b"ZZ"
        with pytest.raises(CodecError):
            BatchView(bytes(buf))

    def test_bad_version(self):
        buf = bytearray(encode_events([]))
        buf[2] = 99
        with pytest.raises(CodecError):
            BatchView(bytes(buf))

    def test_truncated_body(self):
        observation = DnsObservation(
            timestamp=1.0, client_ip=7, fqdn="a.example.com", answers=[1, 2]
        )
        buf = encode_events([observation])
        with pytest.raises(CodecError):
            decode_events(buf[: len(buf) - 3])

    def test_block_length_past_end(self):
        buf = bytearray(encode_events([]))
        # First block length field sits right after the header.
        struct.pack_into("<I", buf, 15, 1 << 20)
        with pytest.raises(CodecError):
            BatchView(bytes(buf))

    def test_bad_interleave_flag(self):
        flow = FlowRecord(
            fid=FiveTuple(1, 2, 3, 4, TransportProto.TCP), start=0.0
        )
        buf = bytearray(encode_events([flow]))
        # Flip the single flag byte (first byte of the flags block).
        buf[19] = 7
        with pytest.raises(CodecError):
            decode_events(bytes(buf))
