"""Tests for packet header encode/decode round-trips."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.flow import TransportProto
from repro.net.ip import ip_from_str
from repro.net.packet import (
    EthernetHeader,
    IPv4Header,
    Packet,
    PacketDecodeError,
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_RST,
    TCP_SYN,
    build_tcp_packet,
    build_udp_packet,
    checksum16,
    decode_frame,
)


class TestChecksum:
    def test_known_vector(self):
        # RFC 1071 example-style check: all-zero data sums to 0xFFFF.
        assert checksum16(b"\x00\x00") == 0xFFFF

    def test_odd_length_padding(self):
        assert checksum16(b"\x01") == checksum16(b"\x01\x00")


class TestUdpRoundtrip:
    def test_udp_frame(self):
        frame = build_udp_packet(
            1.5,
            ip_from_str("10.0.0.1"),
            ip_from_str("8.8.8.8"),
            5353,
            53,
            b"hello-dns",
        )
        packet = decode_frame(1.5, frame)
        assert packet.transport is TransportProto.UDP
        assert packet.ipv4.src == ip_from_str("10.0.0.1")
        assert packet.ipv4.dst == ip_from_str("8.8.8.8")
        assert packet.src_port == 5353
        assert packet.dst_port == 53
        assert packet.payload == b"hello-dns"

    def test_udp_no_ethernet(self):
        frame = build_udp_packet(
            0.0, 1, 2, 1000, 53, b"x", with_ethernet=False
        )
        packet = decode_frame(0.0, frame, with_ethernet=False)
        assert packet.payload == b"x"

    @given(st.binary(max_size=512))
    def test_udp_payload_roundtrip(self, payload):
        frame = build_udp_packet(0.0, 7, 9, 1234, 4321, payload)
        assert decode_frame(0.0, frame).payload == payload


class TestTcpRoundtrip:
    def test_syn_packet(self):
        frame = build_tcp_packet(
            2.0,
            ip_from_str("10.0.0.2"),
            ip_from_str("93.184.216.34"),
            40000,
            443,
            TCP_SYN,
            seq=100,
        )
        packet = decode_frame(2.0, frame)
        assert packet.transport is TransportProto.TCP
        assert packet.tcp.flags == TCP_SYN
        assert packet.tcp.seq == 100

    @pytest.mark.parametrize(
        "flags",
        [
            TCP_SYN | TCP_ACK,
            TCP_ACK,
            TCP_PSH | TCP_ACK,
            TCP_FIN | TCP_ACK,
            TCP_RST,
            TCP_RST | TCP_ACK,
        ],
        ids=["syn-ack", "ack", "psh-ack", "fin-ack", "rst", "rst-ack"],
    )
    def test_flags_roundtrip(self, flags):
        """The flag byte the tracker's state machine reads survives
        the wire unchanged."""
        frame = build_tcp_packet(0.0, 1, 2, 443, 40000, flags, seq=7)
        header = decode_frame(0.0, frame).tcp
        assert header.flags == flags
        assert (header.src_port, header.dst_port) == (443, 40000)
        assert header.seq == 7

    def test_payload_roundtrip(self):
        frame = build_tcp_packet(
            0.0, 1, 2, 1111, 80, TCP_ACK, payload=b"GET / HTTP/1.1\r\n"
        )
        packet = decode_frame(0.0, frame)
        assert packet.payload == b"GET / HTTP/1.1\r\n"


class TestDecodeErrors:
    def test_truncated_ethernet(self):
        with pytest.raises(PacketDecodeError):
            decode_frame(0.0, b"\x00" * 10)

    def test_wrong_ethertype(self):
        frame = EthernetHeader(b"\x00" * 6, b"\x00" * 6, 0x86DD).encode()
        with pytest.raises(PacketDecodeError):
            decode_frame(0.0, frame + b"\x00" * 40)

    def test_not_ipv4(self):
        bad = bytes([0x60]) + b"\x00" * 30  # version 6
        with pytest.raises(PacketDecodeError, match="not IPv4"):
            decode_frame(0.0, bad, with_ethernet=False)

    def test_truncated_ipv4(self):
        with pytest.raises(PacketDecodeError, match="truncated IPv4"):
            decode_frame(0.0, b"\x45\x00", with_ethernet=False)

    def test_unsupported_ip_proto(self):
        ip = IPv4Header(src=1, dst=2, proto=1)  # ICMP
        datagram = ip.encode(0)
        with pytest.raises(PacketDecodeError):
            decode_frame(0.0, datagram, with_ethernet=False)

    def test_truncated_udp(self):
        datagram = IPv4Header(src=1, dst=2, proto=17).encode(2) + b"\x00\x01"
        with pytest.raises(PacketDecodeError, match="truncated UDP"):
            decode_frame(0.0, datagram, with_ethernet=False)

    def test_truncated_tcp(self):
        datagram = IPv4Header(src=1, dst=2, proto=6).encode(8) + b"\x00" * 8
        with pytest.raises(PacketDecodeError, match="truncated TCP"):
            decode_frame(0.0, datagram, with_ethernet=False)


class TestPacketAccessors:
    def test_ports_require_transport(self):
        packet = Packet(timestamp=0.0, ipv4=IPv4Header(src=1, dst=2, proto=6))
        with pytest.raises(ValueError):
            _ = packet.src_port
        with pytest.raises(ValueError):
            _ = packet.dst_port
        assert packet.transport is None
