"""Binary packet headers: Ethernet II, IPv4, UDP, TCP.

The synthetic traces can be rendered to real byte-level packets (and pcap
files) and parsed back, so the sniffer's packet path is exercised against
genuine wire formats rather than mock objects.  Only the fields the system
needs are modelled; options beyond the fixed headers are carried as opaque
bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

from repro.net.flow import TransportProto

ETHERTYPE_IPV4 = 0x0800
_ETH_FMT = struct.Struct("!6s6sH")
_IPV4_FMT = struct.Struct("!BBHHHBBH4s4s")
_UDP_FMT = struct.Struct("!HHHH")
_TCP_FMT = struct.Struct("!HHIIBBHHH")
# What the capture loop reads, and nothing else: version/IHL, total
# length, flags/fragment offset, protocol and both addresses of the IPv4
# header; ports, data offset and flags of the TCP header.
_IPV4_SCAN = struct.Struct("!BxH2xHxB2xII")
_TCP_SCAN = struct.Struct("!HH8xBB")
_ETH_LEN, _IPV4_LEN = _ETH_FMT.size, _IPV4_FMT.size
_UDP_LEN, _TCP_LEN = _UDP_FMT.size, _TCP_FMT.size
_UDP, _TCP = int(TransportProto.UDP), int(TransportProto.TCP)

# TCP flag bits
TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10


class PacketDecodeError(ValueError):
    """Raised when a buffer cannot be parsed as the expected header."""


def checksum16(data: bytes) -> int:
    """RFC 1071 ones'-complement checksum over ``data``."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for (word,) in struct.iter_unpack("!H", data):
        total += word
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


@dataclass(frozen=True, slots=True)
class EthernetHeader:
    """Ethernet II header (no VLAN tags)."""

    dst_mac: bytes
    src_mac: bytes
    ethertype: int = ETHERTYPE_IPV4

    def encode(self) -> bytes:
        return _ETH_FMT.pack(self.dst_mac, self.src_mac, self.ethertype)


@dataclass(frozen=True, slots=True)
class IPv4Header:
    """IPv4 header without options."""

    src: int
    dst: int
    proto: int
    total_length: int = 0
    ttl: int = 64
    ident: int = 0

    HEADER_LEN = _IPV4_LEN

    def encode(self, payload_len: int) -> bytes:
        total = self.HEADER_LEN + payload_len
        head = _IPV4_FMT.pack(
            (4 << 4) | 5,  # version 4, IHL 5 words
            0,
            total,
            self.ident,
            0,  # flags/fragment offset: never fragmented in our traces
            self.ttl,
            self.proto,
            0,  # checksum placeholder
            self.src.to_bytes(4, "big"),
            self.dst.to_bytes(4, "big"),
        )
        csum = checksum16(head)
        return head[:10] + struct.pack("!H", csum) + head[12:]


@dataclass(frozen=True, slots=True)
class UdpHeader:
    """UDP header; checksum left zero (legal for IPv4)."""

    src_port: int
    dst_port: int

    HEADER_LEN = _UDP_LEN

    def encode(self, payload_len: int) -> bytes:
        return _UDP_FMT.pack(
            self.src_port, self.dst_port, self.HEADER_LEN + payload_len, 0
        )


@dataclass(frozen=True, slots=True)
class TcpHeader:
    """TCP header without options; checksum not computed (passive sniffer)."""

    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: int = 0
    window: int = 65535

    HEADER_LEN = _TCP_LEN

    def encode(self) -> bytes:
        return _TCP_FMT.pack(
            self.src_port,
            self.dst_port,
            self.seq,
            self.ack,
            (5 << 4),  # data offset 5 words, no options
            self.flags,
            self.window,
            0,
            0,
        )


@dataclass(slots=True)
class Packet:
    """A decoded packet: timestamp plus parsed layer headers and payload."""

    timestamp: float
    ipv4: IPv4Header
    udp: Optional[UdpHeader] = None
    tcp: Optional[TcpHeader] = None
    payload: bytes = b""
    eth: Optional[EthernetHeader] = field(default=None, repr=False)

    @property
    def transport(self) -> Optional[TransportProto]:
        """Which transport this packet carries, if one we model."""
        if self.tcp is not None:
            return TransportProto.TCP
        if self.udp is not None:
            return TransportProto.UDP
        return None

    @property
    def src_port(self) -> int:
        head = self.tcp or self.udp
        if head is None:
            raise ValueError("packet has no transport header")
        return head.src_port

    @property
    def dst_port(self) -> int:
        head = self.tcp or self.udp
        if head is None:
            raise ValueError("packet has no transport header")
        return head.dst_port


_BROADCAST = b"\xff" * 6
_LOCAL_MAC = b"\x02\x00\x00\x00\x00\x01"
# The header stack a builder writes in one pack: Ethernet, IPv4 (no
# options, TTL 64, ident 0, never fragmented), then the transport header.
_UDP_FRAME = struct.Struct("!6s6sH" "BBHHHBBHII" "HHHH")
_TCP_FRAME = struct.Struct("!6s6sH" "BBHHHBBHII" "HHIIBBHHH")
_IPV4_WORDS = 0x4500 + (64 << 8)  # version/IHL/TOS word + TTL byte


def _ipv4_checksum(total: int, proto: int, src: int, dst: int) -> int:
    """:func:`checksum16` of the header :class:`IPv4Header` encodes,
    from its fields: the words are summed once and folded in one
    modulo, the end-around-carry sum of a nonzero ``words`` being
    ``(words - 1) % 0xFFFF + 1``."""
    words = (_IPV4_WORDS + total + proto + (src >> 16) + (src & 0xFFFF)
             + (dst >> 16) + (dst & 0xFFFF))
    return 0xFFFE - (words - 1) % 0xFFFF


def build_udp_packet(
    timestamp: float,
    src: int,
    dst: int,
    src_port: int,
    dst_port: int,
    payload: bytes,
    with_ethernet: bool = True,
) -> bytes:
    """Encode a full UDP-in-IPv4(-in-Ethernet) frame."""
    length = _UDP_LEN + len(payload)
    total = _IPV4_LEN + length
    frame = _UDP_FRAME.pack(
        _BROADCAST, _LOCAL_MAC, ETHERTYPE_IPV4,
        0x45, 0, total, 0, 0, 64, _UDP,
        _ipv4_checksum(total, _UDP, src, dst), src, dst,
        src_port, dst_port, length, 0,
    ) + payload
    return frame if with_ethernet else frame[_ETH_LEN:]


def build_tcp_packet(
    timestamp: float,
    src: int,
    dst: int,
    src_port: int,
    dst_port: int,
    flags: int,
    seq: int = 0,
    ack: int = 0,
    payload: bytes = b"",
    with_ethernet: bool = True,
) -> bytes:
    """Encode a full TCP-in-IPv4(-in-Ethernet) frame."""
    total = _IPV4_LEN + _TCP_LEN + len(payload)
    frame = _TCP_FRAME.pack(
        _BROADCAST, _LOCAL_MAC, ETHERTYPE_IPV4,
        0x45, 0, total, 0, 0, 64, _TCP,
        _ipv4_checksum(total, _TCP, src, dst), src, dst,
        src_port, dst_port, seq, ack, 5 << 4, flags, 65535, 0, 0,
    ) + payload
    return frame if with_ethernet else frame[_ETH_LEN:]


def parse_frame(
    data: bytes, with_ethernet: bool = True
) -> tuple[int, int, int, int, int, int, int, int]:
    """Validate a raw frame and return the scalars the sniffer acts on:
    ``(src, dst, proto, src_port, dst_port, tcp_flags, payload_start,
    payload_end)``.

    ``proto`` is 6 or 17, ``tcp_flags`` is 0 for UDP, and
    ``data[payload_start:payload_end]`` is the transport payload (IP
    options, TCP options and trailing link-layer padding excluded).
    Every length, version and offset check of the packet path lives
    here; anything it cannot vouch for raises :class:`PacketDecodeError`
    and a capture loop is expected to skip the frame.
    """
    ip = 0
    if with_ethernet:
        ip = _ETH_LEN
        if len(data) < ip:
            raise PacketDecodeError("truncated Ethernet header")
        if data[12] != 0x08 or data[13] != 0x00:
            ethertype = int.from_bytes(data[12:14], "big")
            raise PacketDecodeError(f"unsupported ethertype {ethertype:#x}")
    room = len(data) - ip
    if room < _IPV4_LEN:
        raise PacketDecodeError("truncated IPv4 header")
    ver_ihl, total, frag, proto, src, dst = _IPV4_SCAN.unpack_from(data, ip)
    if ver_ihl >> 4 != 4:
        raise PacketDecodeError(f"not IPv4 (version={ver_ihl >> 4})")
    ihl = (ver_ihl & 0x0F) * 4
    if ihl < _IPV4_LEN or room < ihl:
        raise PacketDecodeError("bad IPv4 header length")
    if total < ihl or total > room:
        raise PacketDecodeError("bad IPv4 total length")
    if frag & 0x1FFF:
        # A non-first fragment starts with arbitrary payload bytes, not
        # a transport header; reading ports out of it would let its
        # sender forge DNS responses and flows.
        raise PacketDecodeError("IPv4 fragment")
    start = ip + ihl
    end = ip + total
    if proto == _UDP:
        if end - start < _UDP_LEN:
            raise PacketDecodeError("truncated UDP header")
        sport, dport, length, _csum = _UDP_FMT.unpack_from(data, start)
        if length < _UDP_LEN or length > end - start:
            raise PacketDecodeError("bad UDP length")
        return (src, dst, proto, sport, dport, 0,
                start + _UDP_LEN, start + length)
    if proto == _TCP:
        if end - start < _TCP_LEN:
            raise PacketDecodeError("truncated TCP header")
        sport, dport, offset_rsvd, flags = _TCP_SCAN.unpack_from(data, start)
        offset = (offset_rsvd >> 4) * 4
        if offset < _TCP_LEN or end - start < offset:
            raise PacketDecodeError("bad TCP data offset")
        return src, dst, proto, sport, dport, flags, start + offset, end
    raise PacketDecodeError(f"unsupported IP protocol {proto}")


def decode_frame(
    timestamp: float, data: bytes, with_ethernet: bool = True
) -> Packet:
    """Decode a raw frame into a :class:`Packet`.

    The object form of :func:`parse_frame`: offsets and errors are its;
    only the descriptive fields (MACs, TTL, identification, sequence
    numbers, window) are unpacked on top.  Non-IPv4 ethertypes and
    transports other than TCP/UDP raise :class:`PacketDecodeError`; a
    capture loop is expected to skip those.
    """
    src, dst, proto, sport, dport, flags, start, end = parse_frame(
        data, with_ethernet
    )
    eth, ip = None, 0
    if with_ethernet:
        eth, ip = EthernetHeader(*_ETH_FMT.unpack_from(data)), _ETH_LEN
    ver_ihl, _, total, ident, _, ttl, *_ = _IPV4_FMT.unpack_from(data, ip)
    packet = Packet(
        timestamp,
        IPv4Header(src, dst, proto, total, ttl, ident),
        payload=data[start:end],
        eth=eth,
    )
    if proto == _UDP:
        packet.udp = UdpHeader(sport, dport)
    else:
        _, _, seq, ack, _, _, window, *_ = _TCP_FMT.unpack_from(
            data, ip + (ver_ihl & 0x0F) * 4
        )
        packet.tcp = TcpHeader(sport, dport, seq, ack, flags, window)
    return packet
