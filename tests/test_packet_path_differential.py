"""Differential tests: the fused capture loop vs. the object API.

``SnifferPipeline.process_frames`` (raw ``(timestamp, data)`` frames:
one scalar parse, scalar feeds, no per-frame object) and
``process_packets(decode_frame(...))`` (the object API) run the same
cores, so over any frame sequence they must leave the same tagged flows
in the same order and the same statistics everywhere.  Two retained
twins pin the cores themselves to what the packet path did before it
went scalar:

* ``_reference_decode`` — the per-header decode chain (slice, check,
  slice) — holds :func:`~repro.net.packet.parse_frame` and
  :func:`~repro.net.packet.decode_frame` to the same fields or the same
  :class:`PacketDecodeError` message on every mutated frame (plus the
  one rule added since: a non-first IPv4 fragment is refused);
* ``_reference_records`` — two ``read()`` calls per record — holds the
  block walker behind :meth:`PcapReader.frames` to the same records and
  then the same :class:`PcapFormatError` at every cut offset, block
  size and byte order.
"""

import io
import struct
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.net.pcap as pcap_module
from repro.dns.message import DnsMessage, Question
from repro.dns.records import ResourceRecord, RRType, a_record, cname_record
from repro.dns.wire import encode_message
from repro.net.ip import ip_from_str
from repro.net.packet import (
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_RST,
    TCP_SYN,
    PacketDecodeError,
    decode_frame,
    parse_frame,
)
from repro.net.pcap import PcapFormatError, PcapReader, PcapRecord
from repro.sniffer.pipeline import SnifferPipeline
from repro.sniffer.policy import PolicyAction, PolicyEnforcer, PolicyRule

CLIENTS = [ip_from_str(f"10.0.0.{n}") for n in (1, 2, 3)]
SERVERS = [ip_from_str(f"93.184.216.{n}") for n in (34, 35, 36, 37)]
RESOLVER = ip_from_str("10.0.0.53")
NAMES = ["www.example.com", "cdn.example.net", "mail.example.org",
         "ads.tracker.example"]


# -- frame construction (IP options, TCP options, bad fields) ---------------

def _ipv4(src, dst, proto, payload, options=b"", version=4, ihl=None,
          total=None, frag=0):
    words = 5 + len(options) // 4 if ihl is None else ihl
    if total is None:
        total = 20 + len(options) + len(payload)
    return struct.pack(
        "!BBHHHBBHII", (version << 4) | words, 0, total, 7, frag, 64,
        proto, 0, src, dst,
    ) + options + payload


def _tcp(sport, dport, flags, payload=b"", options=b"", offset=None):
    words = 5 + len(options) // 4 if offset is None else offset
    return struct.pack(
        "!HHIIBBHHH", sport, dport, 1000, 2000, words << 4, flags,
        65535, 0, 0,
    ) + options + payload


def _udp(sport, dport, payload, length=None):
    if length is None:
        length = 8 + len(payload)
    return struct.pack("!HHHH", sport, dport, length, 0) + payload


def _link(datagram, ethernet, ethertype=0x0800, padding=b""):
    head = b""
    if ethernet:
        head = b"\xff" * 6 + b"\x02\x00\x00\x00\x00\x01" + struct.pack(
            "!H", ethertype
        )
    return head + datagram + padding


def _dns_payload(kind, name, servers, raw):
    query = DnsMessage.query(7, name)
    if kind == "query":
        return encode_message(query)
    if kind == "hostile":
        return raw
    answers = [a_record(name, server, ttl=60) for server in servers]
    if kind == "cname":
        answers = [cname_record(name, "edge.cdn.example")] + [
            a_record("edge.cdn.example", server, ttl=30)
            for server in servers
        ]
    elif kind == "aaaa":
        answers = [ResourceRecord(name, RRType.AAAA, 60, b"\x20" * 16)]
    elif kind == "nxdomain":
        answers = []
    response = DnsMessage.response_to(query, answers)
    if kind == "multi-question":
        response.questions.append(Question("other.example.com"))
    elif kind == "no-question":
        response.questions = []
    wire = encode_message(response)
    if kind == "truncated":
        wire = wire[:len(wire) - 1 - len(raw) % (len(wire) - 1)]
    return wire


DNS_KINDS = ["fast", "fast", "fast", "cname", "aaaa", "nxdomain", "query",
             "multi-question", "no-question", "truncated", "hostile"]

_ip_options = st.sampled_from([b"", b"", b"\x01" * 4, b"\x01" * 8])
_tcp_options = st.sampled_from([b"", b"", b"\x01" * 4, b"\x01" * 12])
_client = st.sampled_from(CLIENTS)
_server = st.sampled_from(SERVERS)
_small = st.binary(max_size=12)


@st.composite
def _tcp_datagram(draw):
    """One segment of any shape, in either direction."""
    client, server = draw(_client), draw(_server)
    cport = draw(st.sampled_from([40000, 40001, 80]))
    sport = draw(st.sampled_from([80, 443, 50000]))
    flags = draw(st.sampled_from([
        TCP_SYN, TCP_SYN | TCP_ACK, TCP_ACK, TCP_PSH | TCP_ACK,
        TCP_FIN | TCP_ACK, TCP_FIN, TCP_RST, TCP_RST | TCP_ACK, 0,
    ]))
    payload = draw(_small) if flags & (TCP_PSH | TCP_ACK) else b""
    segment_opts, ip_opts = draw(_tcp_options), draw(_ip_options)
    if draw(st.booleans()):
        return _ipv4(client, server, 6,
                     _tcp(cport, sport, flags, payload, segment_opts),
                     ip_opts)
    return _ipv4(server, client, 6,
                 _tcp(sport, cport, flags, payload, segment_opts), ip_opts)


@st.composite
def _tcp_conversation(draw):
    """A whole connection: handshake, data both ways, then a clean close
    (with its last ACK), an RST, or nothing (left to the flush)."""
    client, server = draw(_client), draw(_server)
    cport, sport = draw(st.integers(40000, 40003)), draw(
        st.sampled_from([80, 443])
    )

    def up(flags, payload=b""):
        return _ipv4(client, server, 6, _tcp(cport, sport, flags, payload))

    def down(flags, payload=b""):
        return _ipv4(server, client, 6, _tcp(sport, cport, flags, payload))

    frames = []
    if draw(st.booleans()):  # the client resolved the server first
        kind = draw(st.sampled_from(["fast", "fast", "cname"]))
        payload = _dns_payload(kind, draw(st.sampled_from(NAMES)),
                               [server, draw(_server)], b"")
        frames.append(_ipv4(RESOLVER, client, 17, _udp(53, 33333, payload)))
    if draw(st.booleans()):  # else: picked up mid-stream
        frames += [up(TCP_SYN), down(TCP_SYN | TCP_ACK), up(TCP_ACK)]
    frames += [up(TCP_PSH | TCP_ACK, draw(_small) + b"q"),
               down(TCP_ACK, draw(_small) + b"r")]
    ending = draw(st.sampled_from(["close", "close", "rst", "open"]))
    if ending == "close":
        frames += [up(TCP_FIN | TCP_ACK), down(TCP_ACK),
                   down(TCP_FIN | TCP_ACK), up(TCP_ACK)]
        if draw(st.booleans()):  # a retransmitted FIN, a late RST
            frames += [down(TCP_FIN | TCP_ACK), up(TCP_RST)]
    elif ending == "rst":
        frames.append(draw(st.sampled_from([up, down]))(TCP_RST))
    return frames


@st.composite
def _udp_datagram(draw):
    client, server = draw(_client), draw(_server)
    payload = draw(_small)
    if draw(st.booleans()):
        return _ipv4(client, server, 17, _udp(5000, 6000, payload),
                     draw(_ip_options))
    return _ipv4(server, client, 17, _udp(6000, 5000, payload))


@st.composite
def _dns_datagram(draw):
    kind = draw(st.sampled_from(DNS_KINDS))
    client = draw(st.sampled_from(CLIENTS + [RESOLVER]))
    servers = draw(st.lists(_server, min_size=1, max_size=3))
    payload = _dns_payload(kind, draw(st.sampled_from(NAMES)), servers,
                           draw(st.binary(min_size=1, max_size=40)))
    if kind == "query":
        return _ipv4(client, RESOLVER, 17, _udp(33333, 53, payload))
    return _ipv4(RESOLVER, client, 17, _udp(53, 33333, payload),
                 draw(_ip_options))


@st.composite
def _refused_datagram(draw):
    """Frames the parser must refuse (or, for a TCP first fragment,
    accept) — every check it has."""
    src, dst = draw(_client), draw(_server)
    udp = _udp(53, 33333, _dns_payload("fast", NAMES[0], SERVERS[:1], b"x"))
    tcp = _tcp(40000, 80, TCP_PSH | TCP_ACK, b"payload")
    return draw(st.sampled_from([
        _ipv4(src, dst, 17, udp, version=6),
        _ipv4(src, dst, 17, udp, ihl=4),
        _ipv4(src, dst, 6, tcp[:20], ihl=15),
        _ipv4(src, dst, 17, udp, total=10),
        _ipv4(src, dst, 17, udp, total=20 + len(udp) + 7),
        _ipv4(src, dst, 17, _udp(53, 33333, b"abc", length=3)),
        _ipv4(src, dst, 17, _udp(5000, 6000, b"abc", length=64)),
        _ipv4(src, dst, 17, udp[:5]),
        _ipv4(src, dst, 6, _tcp(40000, 80, TCP_ACK, b"x", offset=4)),
        _ipv4(src, dst, 6, _tcp(40000, 80, TCP_ACK, b"x", offset=15)),
        _ipv4(src, dst, 6, tcp[:12]),
        _ipv4(src, dst, 1, b"\x08\x00" + b"\x00" * 6),  # ICMP
        # A non-first fragment whose bytes pose as a DNS response / a
        # segment, with and without MF.
        _ipv4(RESOLVER, src, 17, udp, frag=10),
        _ipv4(src, dst, 6, tcp, frag=0x2000 | 185),
        # First fragments (MF set, offset 0): the UDP length names the
        # whole datagram, so it fails; TCP has no such field and passes.
        _ipv4(RESOLVER, src, 17,
              _udp(53, 33333, b"first-part", length=1480), frag=0x2000),
        _ipv4(src, dst, 6, tcp, frag=0x2000),
    ]))


@st.composite
def frame_sequences(draw):
    """``(frames, with_ethernet)``: conversations interleaved with single
    frames of every kind, on one link type, timestamps non-decreasing."""
    ethernet = draw(st.booleans())
    singles = st.one_of(_tcp_datagram(), _udp_datagram(), _dns_datagram(),
                        _dns_datagram(), _refused_datagram())
    lanes = draw(st.lists(
        st.one_of(_tcp_conversation(),
                  st.lists(singles, min_size=1, max_size=6)),
        min_size=1, max_size=5,
    ))
    rng = draw(st.randoms(use_true_random=False))
    frames, now = [], 0.0
    while lanes:
        lane = rng.choice(lanes)
        datagram = lane.pop(0)
        if not lane:
            lanes.remove(lane)
        shape = rng.random()
        if shape < 0.04:
            data = _link(datagram, ethernet, ethertype=0x86DD)
        elif shape < 0.09:
            data = _link(datagram, ethernet)
            data = data[:rng.randrange(len(data))]
        elif shape < 0.4:
            data = _link(datagram, ethernet, padding=b"\x00" * 6)
        else:
            data = _link(datagram, ethernet)
        now += rng.choice((0.0, 0.1, 0.5))
        frames.append((now, data))
    return frames, ethernet


# -- the two paths ----------------------------------------------------------

def _pipeline(**kwargs):
    # A Clist of 6 wraps within a sequence; a short warm-up splits the
    # flows across the tagger's three counters.
    return SnifferPipeline(clist_size=6, warmup=0.2, **kwargs)


def _decoded(frames, ethernet):
    packets = []
    for timestamp, data in frames:
        try:
            packets.append(decode_frame(timestamp, data, ethernet))
        except PacketDecodeError:
            pass
    return packets


def _fused(frames, ethernet, **kwargs):
    pipeline = _pipeline(**kwargs)
    pipeline.process_frames(iter(frames), ethernet)
    return pipeline


def _objects(frames, ethernet, **kwargs):
    pipeline = _pipeline(**kwargs)
    pipeline.process_packets(_decoded(frames, ethernet))
    return pipeline


def _assert_same_state(left, right):
    assert left.tagged_flows == right.tagged_flows
    assert left.blocked_flows == right.blocked_flows
    assert left.resolver.stats == right.resolver.stats
    assert left.dns_sniffer.stats == right.dns_sniffer.stats
    assert left.flow_sniffer.stats == right.flow_sniffer.stats
    assert left.flow_sniffer.tcp_stats == right.flow_sniffer.tcp_stats
    assert left.tagger.stats == right.tagger.stats
    assert left.flow_sniffer.active_count == right.flow_sniffer.active_count


def _policy():
    return PolicyEnforcer(rules=[
        PolicyRule("*.tracker.example", PolicyAction.BLOCK),
        PolicyRule("example.net", PolicyAction.PRIORITIZE),
    ])


class TestFusedLoopVsObjectApi:
    @settings(deadline=None)
    @given(frame_sequences())
    def test_same_flows_and_statistics(self, sequence):
        frames, ethernet = sequence
        fused = _fused(frames, ethernet)
        _assert_same_state(fused, _objects(frames, ethernet))
        refused = len(frames) - len(_decoded(frames, ethernet))
        assert fused.frame_stats == {
            "frames": len(frames), "decode_errors": refused,
        }

    @settings(deadline=None)
    @given(frame_sequences())
    def test_with_a_policy(self, sequence):
        frames, ethernet = sequence
        fused = _fused(frames, ethernet, policy=_policy())
        objects = _objects(frames, ethernet, policy=_policy())
        _assert_same_state(fused, objects)
        assert fused.policy.stats == objects.policy.stats

    @settings(max_examples=60, deadline=None)
    @given(frame_sequences(), st.integers(1, 4))
    def test_split_calls_flush_alike(self, sequence, pieces):
        """Every processing call ends with a flush of the flow sniffer;
        cutting the capture into calls cuts the same flows either way."""
        frames, ethernet = sequence
        fused, objects = _pipeline(), _pipeline()
        step = -(-len(frames) // pieces)
        for pos in range(0, len(frames), step):
            fused.process_frames(frames[pos:pos + step], ethernet)
            objects.process_packets(
                _decoded(frames[pos:pos + step], ethernet)
            )
        _assert_same_state(fused, objects)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(frame_sequences(), st.sampled_from([1, 7]))
    def test_into_a_flow_store(self, sequence, batch_events):
        """Both drain through the same cursor: same rows, same order,
        same answers, whatever the batch size."""
        from repro.analytics.storage import FlowStore

        frames, ethernet = sequence
        plain = _fused(frames, ethernet)
        answers = []
        for run in (_fused, _objects):
            with tempfile.TemporaryDirectory() as directory:
                store = FlowStore(directory, spill_rows=8)
                pipeline = run(frames, ethernet, flow_store=store,
                               retain_flows=False,
                               batch_events=batch_events)
                pipeline.close()
                assert pipeline.tagged_flows == []
                assert list(store) == plain.tagged_flows
                answers.append((
                    store.tagged_count, store.time_span(),
                    store.count_by_protocol(), store.fqdns(),
                    {name: store.servers_for_fqdn(name)
                     for name in store.fqdns()},
                ))
                store.close()
            assert pipeline.resolver.stats == plain.resolver.stats
            assert pipeline.tagger.stats == plain.tagger.stats
            assert pipeline.dns_sniffer.stats == plain.dns_sniffer.stats
        assert answers[0] == answers[1]


# -- one parser -------------------------------------------------------------

def _reference_decode(data, with_ethernet):
    """The per-header decode chain the packet path used before
    ``parse_frame`` (slice, check, slice), kept as the oracle; returns
    ``(src, dst, proto, sport, dport, tcp_flags, payload)``."""
    if with_ethernet:
        if len(data) < 14:
            raise PacketDecodeError("truncated Ethernet header")
        (ethertype,) = struct.unpack_from("!H", data, 12)
        if ethertype != 0x0800:
            raise PacketDecodeError(f"unsupported ethertype {ethertype:#x}")
        data = data[14:]
    if len(data) < 20:
        raise PacketDecodeError("truncated IPv4 header")
    (ver_ihl, _tos, total, _ident, frag, _ttl, proto, _csum,
     src, dst) = struct.unpack_from("!BBHHHBBH4s4s", data)
    if ver_ihl >> 4 != 4:
        raise PacketDecodeError(f"not IPv4 (version={ver_ihl >> 4})")
    ihl = (ver_ihl & 0x0F) * 4
    if ihl < 20 or len(data) < ihl:
        raise PacketDecodeError("bad IPv4 header length")
    if total < ihl or total > len(data):
        raise PacketDecodeError("bad IPv4 total length")
    if frag & 0x1FFF:  # the one rule the chain did not have
        raise PacketDecodeError("IPv4 fragment")
    src, dst = int.from_bytes(src, "big"), int.from_bytes(dst, "big")
    rest = data[ihl:total]
    if proto == 17:
        if len(rest) < 8:
            raise PacketDecodeError("truncated UDP header")
        sport, dport, length, _csum = struct.unpack_from("!HHHH", rest)
        if length < 8 or length > len(rest):
            raise PacketDecodeError("bad UDP length")
        return src, dst, proto, sport, dport, 0, rest[8:length]
    if proto == 6:
        if len(rest) < 20:
            raise PacketDecodeError("truncated TCP header")
        (sport, dport, _seq, _ack, offset_rsvd, flags, _window, _csum,
         _urg) = struct.unpack_from("!HHIIBBHHH", rest)
        offset = (offset_rsvd >> 4) * 4
        if offset < 20 or len(rest) < offset:
            raise PacketDecodeError("bad TCP data offset")
        return src, dst, proto, sport, dport, flags, rest[offset:]
    raise PacketDecodeError(f"unsupported IP protocol {proto}")


def _outcome(call):
    try:
        return call()
    except PacketDecodeError as exc:
        return str(exc)


def _assert_one_parser(data, ethernet):
    expected = _outcome(lambda: _reference_decode(data, ethernet))

    def scalar():
        *fields, start, end = parse_frame(data, ethernet)
        return (*fields, data[start:end])

    def objects():
        packet = decode_frame(1.5, data, ethernet)
        head = packet.tcp or packet.udp
        assert (packet.eth is not None) == ethernet
        assert packet.ipv4.proto == (6 if packet.tcp else 17)
        assert packet.timestamp == 1.5
        return (packet.ipv4.src, packet.ipv4.dst, packet.ipv4.proto,
                head.src_port, head.dst_port,
                packet.tcp.flags if packet.tcp else 0, packet.payload)

    assert _outcome(scalar) == expected
    assert _outcome(objects) == expected


class TestOneParser:
    @settings(deadline=None)
    @given(frame_sequences(), st.data())
    def test_mutated_frames_same_fields_or_same_message(self, sequence, data):
        frames, ethernet = sequence
        for _timestamp, frame in frames:
            _assert_one_parser(frame, ethernet)
            _assert_one_parser(frame, not ethernet)
        # One byte of one frame flipped: every header field gets hit.
        _timestamp, frame = data.draw(st.sampled_from(frames))
        if frame:
            position = data.draw(st.integers(0, min(len(frame), 60) - 1))
            value = data.draw(st.integers(0, 255))
            mutated = bytearray(frame)
            mutated[position] = value
            _assert_one_parser(bytes(mutated), ethernet)

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=90), st.booleans())
    def test_arbitrary_bytes(self, data, ethernet):
        _assert_one_parser(data, ethernet)

    def test_descriptive_fields_survive_options(self):
        frame = _link(
            _ipv4(1, 2, 6, _tcp(40000, 80, TCP_ACK, b"hello", b"\x01" * 8),
                  options=b"\x01" * 4),
            ethernet=True, padding=b"\x00" * 5,
        )
        packet = decode_frame(0.0, frame)
        assert (packet.tcp.seq, packet.tcp.ack, packet.tcp.window) == (
            1000, 2000, 65535
        )
        assert (packet.ipv4.ttl, packet.ipv4.ident) == (64, 7)
        assert packet.ipv4.total_length == len(frame) - 14 - 5
        assert packet.payload == b"hello"


# -- one record walker ------------------------------------------------------

def _reference_records(blob):
    """The reader the walker replaced — two ``read()`` calls per record —
    kept as the oracle.  Returns ``(records, error message or None)``."""
    handle = io.BytesIO(blob)
    header = handle.read(24)
    if len(header) < 24:
        return [], "truncated pcap global header"
    endian = "<" if header[:4] == b"\xd4\xc3\xb2\xa1" else ">"
    snaplen = struct.unpack(endian + "IHHiIII", header)[5]
    records = []
    while True:
        head = handle.read(16)
        if not head:
            return records, None
        if len(head) < 16:
            return records, "truncated pcap record header"
        seconds, micros, caplen, origlen = struct.unpack(endian + "IIII", head)
        if caplen > origlen or caplen > snaplen + 65535:
            return records, "implausible pcap record length"
        data = handle.read(caplen)
        if len(data) < caplen:
            return records, "truncated pcap record body"
        records.append(PcapRecord(seconds + micros / 1_000_000, data))


def _walk(fileobj, frames=False):
    records = []
    try:
        reader = PcapReader(fileobj)
        for record in (reader.frames() if frames else reader):
            records.append(PcapRecord(*record) if frames else record)
    except PcapFormatError as exc:
        return records, str(exc)
    return records, None


def _capture(endian, bodies, implausible_at=None):
    blob = struct.pack(endian + "IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
    for index, body in enumerate(bodies):
        origlen = len(body) - 1 if index == implausible_at else len(body)
        blob += struct.pack(endian + "IIII", index, 250_000 * (index % 4),
                            len(body), origlen) + body
    return blob


class _ReadOnly:
    """A file object with ``read`` alone, which (after the global
    header) returns short reads, as a raw stream may."""

    def __init__(self, blob, most):
        self._file, self._most = io.BytesIO(blob), most

    def read(self, size):
        if self._file.tell():
            size = min(size, self._most)
        return self._file.read(size)


BODIES = [b"", b"\xaa", bytes(range(30)), bytes(range(100)), b"\x01\x02"]


class TestOneRecordWalker:
    @pytest.mark.parametrize("block", [17, 1024, None])
    @pytest.mark.parametrize("endian", ["<", ">"])
    def test_cut_at_every_byte_offset(self, monkeypatch, endian, block):
        """``BODIES`` has records smaller and larger than the 17-byte
        and (cut included) the 1 KiB block."""
        if block is not None:
            monkeypatch.setattr(pcap_module, "_BLOCK_BYTES", block)
        blob = _capture(endian, BODIES + [bytes(2000)])
        offsets = range(len(blob) + 1) if block == 17 else (
            list(range(len(blob) - 2100, len(blob) + 1)) + list(range(300))
        )
        for cut in offsets:
            expected = _reference_records(blob[:cut])
            assert _walk(io.BytesIO(blob[:cut])) == expected, cut
            assert _walk(io.BytesIO(blob[:cut]), frames=True) == expected
        whole = _reference_records(blob)
        assert whole[1] is None and len(whole[0]) == len(BODIES) + 1

    @pytest.mark.parametrize("block", [17, None])
    def test_implausible_length_after_whole_records(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(pcap_module, "_BLOCK_BYTES", block)
        blob = _capture("<", BODIES, implausible_at=3)
        expected = _reference_records(blob)
        assert expected[1] == "implausible pcap record length"
        assert len(expected[0]) == 3
        assert _walk(io.BytesIO(blob)) == expected

    @pytest.mark.parametrize("most", [1, 5, 4096])
    def test_file_object_without_read1(self, most):
        blob = _capture(">", BODIES)
        for cut in (len(blob), len(blob) - 1, len(blob) - 40):
            assert _walk(_ReadOnly(blob[:cut], most)) == _reference_records(
                blob[:cut]
            )

    def test_sniff_pcap_reports_the_cut_after_its_last_whole_record(
        self, tmp_path, capsys
    ):
        from repro.analytics.storage import FlowStore
        from repro.sniffer.cli import sniff_pcap

        frames = [
            (0.0, _link(_ipv4(CLIENTS[0], SERVERS[0], 6,
                              _tcp(40000, 80, TCP_SYN)), True)),
            (0.1, b"\x00" * 9),  # undecodable, still a frame
            (0.2, _link(_ipv4(SERVERS[0], CLIENTS[0], 6,
                              _tcp(80, 40000, TCP_RST)), True)),
            (0.3, _link(_ipv4(CLIENTS[1], SERVERS[1], 6,
                              _tcp(40000, 80, TCP_SYN)), True)),
        ]
        blob = _capture("<", [data for _ts, data in frames])
        path = tmp_path / "cut.pcap"
        path.write_bytes(blob[:-3])
        seen = []
        with pytest.raises(PcapFormatError, match="record body"):
            sniff_pcap(str(path), warmup=0.0,
                       flow_store=tmp_path / "store",
                       on_pipeline=seen.append)
        assert "capture truncated after 3 frames" in capsys.readouterr().err
        assert seen[0].frame_stats == {"frames": 3, "decode_errors": 1}
        store = FlowStore(tmp_path / "store")
        assert len(store) == 1  # sealed by the close before the raise
        store.close()


# -- failure and bounded state ----------------------------------------------

def _short_connection(index):
    client = CLIENTS[0] + (index >> 14)
    port = 1024 + (index & 0x3FFF)
    now = index * 0.001

    def frame(src, dst, sport, dport, flags, payload=b""):
        return _link(_ipv4(src, dst, 6, _tcp(sport, dport, flags, payload)),
                     True)

    yield now, frame(client, SERVERS[0], port, 80, TCP_SYN)
    yield now, frame(client, SERVERS[0], port, 80, TCP_PSH | TCP_ACK, b"GET")
    yield now, frame(client, SERVERS[0], port, 80, TCP_FIN | TCP_ACK)
    yield now, frame(SERVERS[0], client, 80, port, TCP_FIN | TCP_ACK)
    yield now, frame(client, SERVERS[0], port, 80, TCP_ACK)  # the last ACK


class TestFailureAndBoundedState:
    def test_source_raising_mid_stream_loses_nothing_tagged(self, tmp_path):
        from repro.analytics.storage import FlowStore

        frames = [frame for index in range(40)
                  for frame in _short_connection(index)]
        cut = 5 * 25 + 2

        def failing():
            yield from frames[:cut]
            raise OSError("capture source went away")

        plain = SnifferPipeline(clist_size=64, warmup=0.0)
        plain.process_packets(_decoded(frames[:cut], True))
        store = FlowStore(tmp_path / "store")
        durable = SnifferPipeline(clist_size=64, warmup=0.0,
                                  flow_store=store, batch_events=10)
        with pytest.raises(OSError, match="went away"):
            durable.process_frames(failing())
        # The counters are where they would be had the stream ended
        # there; the connection cut open is still being tracked ...
        assert durable.frame_stats == {"frames": cut, "decode_errors": 0}
        assert durable.flow_sniffer.stats == plain.flow_sniffer.stats
        assert durable.flow_sniffer.tcp_stats["flows"] == 25
        assert durable.flow_sniffer.active_count == 1
        # ... and close() drains every flow completed before the failure.
        durable.close()
        assert list(store) == plain.tagged_flows[:25]
        store.close()

    def test_ten_thousand_short_connections_leave_nothing_behind(
        self, tmp_path
    ):
        from repro.analytics.storage import FlowStore

        store = FlowStore(tmp_path / "store")
        pipeline = SnifferPipeline(
            clist_size=64, warmup=0.0, flow_store=store,
            retain_flows=False, batch_events=512,
        )
        pipeline.process_frames(
            frame for index in range(10_000)
            for frame in _short_connection(index)
        )
        pipeline.close()
        assert len(store) == 10_000
        assert pipeline.tagged_flows == []
        assert pipeline.flow_sniffer.active_count == 0
        assert pipeline.flow_sniffer.tcp_stats == {
            "packets": 50_000, "midstream": 0, "flows": 10_000,
            "stray": 10_000,
        }
        # Nothing on the tracker or the sniffer grew with the capture.
        for holder in (pipeline.flow_sniffer, pipeline.flow_sniffer._tcp):
            for name, value in vars(holder).items():
                if isinstance(value, (list, dict, set)) and name != "stats":
                    assert len(value) == 0, name
        store.close()
