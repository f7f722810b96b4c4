"""Compact binary batch codec for sniffer events.

The fan-out pipeline (:mod:`repro.sniffer.fanout`) moves events between
the partitioning parent and its worker processes.  Shipping Python
objects would pay a pickle + allocation toll per event; instead a batch
of events crosses the process boundary as **one** ``struct``-packed
buffer that the receiver can consume without materialising per-event
objects — the ROADMAP's "interpreter-independent batch ingest".  The
same batches are the Flow Database's feed: the in-process pipeline
encodes its tagged flows with :class:`BatchEncoder`
(``SnifferPipeline.emit_tagged_batches``) and the store journals and
ingests them as they are.

Layout
------
A batch is *columnar with an interleave map*.  The traces interleave DNS
responses and flows at run length ~1, so a per-run framing would pay its
fixed costs thousands of times per batch; instead all flow records form
one contiguous block, all DNS records another, and a one-byte-per-event
``flags`` block records the original ordering so a consumer can replay
the exact stream.  Field groups are split into *hot* blocks (what the
resolver + tagger loop needs) and *cold* blocks (everything else needed
for lossless round-trips), so the hot consumer touches a fraction of the
buffer and can lift whole columns into vectorised code (``numpy`` when
available) in one call per batch.

::

    magic    2s   = b"EC"
    version  u8   = 1
    n_events u32
    n_dns    u32
    n_flows  u32
    then 8 blocks, each prefixed by its u32 byte length, in this order:
      flags        n_events x u8        0 = flow, 1 = DNS, stream order
      flow_hot     n_flows x <IIdB      client, server, start, protocol
      flow_cold    n_flows x <HHBdQQI   sport, dport, transport, end,
                                        bytes_up, bytes_down, packets
      flow_str     per flow: fqdn, cert_name, true_fqdn (u16 length
                                        prefix each; 0xFFFF encodes None)
      dns_hot      n_dns x <IdBH       client, timestamp, n_answers,
                                        fqdn byte length
      dns_answers  sum(n_answers) x u32 answer addresses, concatenated
      dns_names    queried names, UTF-8, concatenated (lengths in hot)
      dns_cold     n_dns x <IB         ttl, useless flag

All integers are little-endian and unaligned.  Every block carries its
own length so a consumer can skip what it does not need (the worker hot
loop never reads the cold or string blocks).
"""

from __future__ import annotations

import struct
import sys
from array import array
from itertools import repeat
from typing import Iterable, Optional, Union

from repro.net.flow import (
    DnsObservation,
    FiveTuple,
    FlowRecord,
    Protocol,
    TransportProto,
)

Event = Union[DnsObservation, FlowRecord]

MAGIC = b"EC"
VERSION = 1

HEADER = struct.Struct("<2sBIII")
BLOCK_LEN = struct.Struct("<I")
FLOW_HOT = struct.Struct("<IIdB")
FLOW_COLD = struct.Struct("<HHBdQQI")
DNS_HOT = struct.Struct("<IdBH")
DNS_COLD = struct.Struct("<IB")
STR_LEN = struct.Struct("<H")

#: Stable protocol indexing for the 1-byte ``protocol`` field.  Append
#: only — reordering breaks previously-encoded batches.
PROTOCOLS: tuple[Protocol, ...] = tuple(Protocol)
PROTOCOL_INDEX: dict[Protocol, int] = {p: i for i, p in enumerate(PROTOCOLS)}

_NONE_STR = 0xFFFF
_MAX_STR = 0xFFFE
_U32 = 0xFFFFFFFF
_NONE_SLOT = STR_LEN.pack(_NONE_STR)
_TRANSPORTS = {int(member): member for member in TransportProto}


class CodecError(ValueError):
    """A buffer or event does not fit the batch format."""


def _check_u32(value: int, what: str) -> int:
    if not 0 <= value <= _U32:
        raise CodecError(f"{what} {value!r} does not fit in u32")
    return value


class _SlotCache(dict):
    """text -> encoded ``flow_str`` slot (u16 length prefix + UTF-8,
    0xFFFF = None): a batch repeats few distinct labels, so each is
    encoded once."""

    def __missing__(self, text: Optional[str]) -> bytes:
        if text is None:
            slot = _NONE_SLOT
        else:
            raw = text.encode("utf-8")
            if len(raw) > _MAX_STR:
                raise CodecError(
                    f"string of {len(raw)} bytes exceeds codec limit"
                )
            slot = STR_LEN.pack(len(raw)) + raw
        self[text] = slot
        return slot


class BatchEncoder:
    """Accumulate events and emit one packed batch buffer.

    The encoder is reusable: :meth:`take` returns the encoded batch and
    resets the accumulation state, so a streaming producer can keep one
    encoder per shard and drain it whenever it reaches the batch size.
    """

    __slots__ = (
        "_flags", "_flow_hot", "_flow_cold", "_flow_str",
        "_dns_hot", "_answers", "_names", "_dns_cold", "_slots",
        "n_dns", "n_flows",
    )

    def __init__(self):
        self._flags = bytearray()
        self._flow_hot = bytearray()
        self._flow_cold = bytearray()
        self._flow_str = bytearray()
        self._dns_hot = bytearray()
        self._answers = array("I")
        self._names = bytearray()
        self._dns_cold = bytearray()
        self._slots = _SlotCache()  # reset with the batch: bounded
        self.n_dns = 0
        self.n_flows = 0

    def __len__(self) -> int:
        return self.n_dns + self.n_flows

    def add_dns_fields(
        self,
        client_ip: int,
        fqdn: str,
        answers,
        timestamp: float = 0.0,
        ttl: int = 300,
        useless: bool = False,
    ) -> None:
        """Append one DNS response from its raw fields."""
        raw = fqdn.encode("utf-8")
        n = len(answers)
        if n > 0xFF:
            raise CodecError(f"{n} answers exceed the codec's u8 limit")
        if len(raw) > _MAX_STR:
            raise CodecError(f"fqdn of {len(raw)} bytes exceeds codec limit")
        _check_u32(client_ip, "client_ip")
        _check_u32(ttl, "ttl")
        for address in answers:
            _check_u32(address, "answer address")
        try:
            hot = DNS_HOT.pack(client_ip, timestamp, n, len(raw))
        except struct.error as exc:
            raise CodecError(f"DNS field out of range: {exc}") from exc
        self._flags.append(1)
        self._dns_hot += hot
        self._answers.extend(answers)
        self._names += raw
        self._dns_cold += DNS_COLD.pack(ttl, 1 if useless else 0)
        self.n_dns += 1

    def add_dns(self, observation: DnsObservation) -> None:
        self.add_dns_fields(
            observation.client_ip,
            observation.fqdn,
            observation.answers,
            observation.timestamp,
            observation.ttl,
            observation.useless,
        )

    def add_flow(self, flow: FlowRecord) -> None:
        fid = flow.fid
        # Pack into locals first so a rejected flow leaves no partial
        # record behind in any block.
        try:
            hot = FLOW_HOT.pack(
                fid.client_ip, fid.server_ip, flow.start,
                PROTOCOL_INDEX[flow.protocol],
            )
            cold = FLOW_COLD.pack(
                fid.src_port, fid.dst_port, fid.proto,
                flow.end, flow.bytes_up, flow.bytes_down, flow.packets,
            )
        except (struct.error, KeyError) as exc:
            raise CodecError(f"flow field out of range: {exc}") from exc
        slots = self._slots
        strings = (
            slots[flow.fqdn] + slots[flow.cert_name] + slots[flow.true_fqdn]
        )
        self._flags.append(0)
        self._flow_hot += hot
        self._flow_cold += cold
        self._flow_str += strings
        self.n_flows += 1

    def add(self, event: Event) -> None:
        """Append one event, dispatching on its type."""
        if isinstance(event, DnsObservation):
            self.add_dns(event)
        elif isinstance(event, FlowRecord):
            self.add_flow(event)
        else:
            raise CodecError(
                f"unsupported event type {type(event).__name__}"
            )

    def add_events(self, events: Iterable[Event]) -> "BatchEncoder":
        for event in events:
            self.add(event)
        return self

    def take(self) -> bytes:
        """Encode everything accumulated so far and reset the encoder."""
        answers = self._answers
        if sys.byteorder != "little":  # pragma: no cover - x86/arm are LE
            answers = answers[:]
            answers.byteswap()
        answer_bytes = answers.tobytes()
        blocks = (
            bytes(self._flags),
            bytes(self._flow_hot),
            bytes(self._flow_cold),
            bytes(self._flow_str),
            bytes(self._dns_hot),
            answer_bytes,
            bytes(self._names),
            bytes(self._dns_cold),
        )
        parts = [
            HEADER.pack(MAGIC, VERSION, len(self._flags),
                        self.n_dns, self.n_flows)
        ]
        for block in blocks:
            parts.append(BLOCK_LEN.pack(len(block)))
            parts.append(block)
        self.__init__()
        return b"".join(parts)


def encode_events(events: Iterable[Event]) -> bytes:
    """Encode an ordered event stream into one batch buffer."""
    encoder = BatchEncoder()
    encoder.add_events(events)
    return encoder.take()


class BatchView:
    """Zero-copy view of one encoded batch: header plus block buffers.

    The view only locates the eight blocks; it does not decode records.
    The fan-out worker reads ``flags`` / ``flow_hot`` / ``dns_hot`` /
    ``dns_answers`` / ``dns_names`` straight out of it, skipping the
    cold and string blocks entirely.
    """

    __slots__ = (
        "n_events", "n_dns", "n_flows",
        "flags", "flow_hot", "flow_cold", "flow_str",
        "dns_hot", "dns_answers", "dns_names", "dns_cold",
    )

    def __init__(self, buf):
        buf = memoryview(buf)
        try:
            magic, version, n_events, n_dns, n_flows = HEADER.unpack_from(
                buf, 0
            )
        except struct.error as exc:
            raise CodecError(f"truncated batch header: {exc}") from exc
        if magic != MAGIC:
            raise CodecError(f"bad batch magic {bytes(magic)!r}")
        if version != VERSION:
            raise CodecError(f"unsupported batch version {version}")
        if n_dns + n_flows != n_events:
            raise CodecError("event counts disagree")
        self.n_events = n_events
        self.n_dns = n_dns
        self.n_flows = n_flows
        pos = HEADER.size
        blocks = []
        for _ in range(8):
            try:
                (length,) = BLOCK_LEN.unpack_from(buf, pos)
            except struct.error as exc:
                raise CodecError(f"truncated block header: {exc}") from exc
            pos += BLOCK_LEN.size
            if pos + length > len(buf):
                raise CodecError("block extends past end of buffer")
            blocks.append(buf[pos:pos + length])
            pos += length
        (self.flags, self.flow_hot, self.flow_cold, self.flow_str,
         self.dns_hot, self.dns_answers, self.dns_names,
         self.dns_cold) = blocks
        if len(self.flags) != n_events:
            raise CodecError("flags block does not match event count")
        if len(self.flow_hot) != n_flows * FLOW_HOT.size:
            raise CodecError("flow_hot block does not match flow count")
        if len(self.flow_cold) != n_flows * FLOW_COLD.size:
            raise CodecError("flow_cold block does not match flow count")
        if len(self.dns_hot) != n_dns * DNS_HOT.size:
            raise CodecError("dns_hot block does not match DNS count")
        if len(self.dns_cold) != n_dns * DNS_COLD.size:
            raise CodecError("dns_cold block does not match DNS count")


def _decode_flows(view: BatchView) -> list[FlowRecord]:
    n = view.n_flows
    raw = bytes(view.flow_str)
    if raw == _NONE_SLOT * (3 * n):
        # The sniffer's own untagged feed: no string in any slot.
        fqdns = certs = trues = repeat(None)
    else:
        # One pass; each distinct slot is decoded once.
        texts: dict[bytes, Optional[str]] = {_NONE_SLOT: None}
        slots = []
        pos = 0
        for _ in range(3 * n):
            length = raw[pos] | raw[pos + 1] << 8
            stop = pos + 2 + (0 if length == _NONE_STR else length)
            key = raw[pos:stop]
            if key not in texts:
                texts[key] = key[2:].decode("utf-8")
            slots.append(texts[key])
            pos = stop
        if pos > len(raw):  # a slice past the end comes back short
            raise CodecError("truncated flow_str block")
        fqdns, certs, trues = slots[0::3], slots[1::3], slots[2::3]
    return [
        FlowRecord(
            FiveTuple(client, server, sport, dport, _TRANSPORTS[transport]),
            start, end, PROTOCOLS[proto], up, down, packets,
            fqdn, cert_name, true_fqdn,
        )
        for (client, server, start, proto),
            (sport, dport, transport, end, up, down, packets),
            fqdn, cert_name, true_fqdn
        in zip(FLOW_HOT.iter_unpack(view.flow_hot),
               FLOW_COLD.iter_unpack(view.flow_cold), fqdns, certs, trues)
    ]


def _decode_dns(view: BatchView) -> list[DnsObservation]:
    packed = array("I")
    packed.frombytes(view.dns_answers)
    if sys.byteorder != "little":  # pragma: no cover - x86/arm are LE
        packed.byteswap()
    answers = packed.tolist()
    names = bytes(view.dns_names)
    texts: dict[bytes, str] = {}
    out = []
    a_pos = n_pos = 0
    for (client, timestamp, n, name_len), (ttl, useless) in zip(
        DNS_HOT.iter_unpack(view.dns_hot),
        DNS_COLD.iter_unpack(view.dns_cold),
    ):
        key = names[n_pos:n_pos + name_len]
        if key not in texts:
            texts[key] = key.decode("utf-8")
        out.append(DnsObservation(
            timestamp, client, texts[key], answers[a_pos:a_pos + n], ttl,
            useless != 0,
        ))
        n_pos += name_len
        a_pos += n
    if a_pos != len(answers) or n_pos != len(names):
        # Slices past the end come back short instead of raising.
        raise CodecError("DNS blocks disagree with the hot records")
    return out


def decode_events(buf) -> list[Event]:
    """Decode a batch back into event objects, in original stream order.

    The lossless inverse of :func:`encode_events`, block-at-a-time: all
    flows, all DNS responses, then one interleave by ``flags``.  The
    per-event seed decoder is retained as the differential oracle in
    :mod:`repro.sniffer.eventcodec_reference`.  The fan-out hot path
    never calls this — workers consume the blocks directly.
    """
    view = BatchView(buf)
    try:
        flows = _decode_flows(view)
        observations = _decode_dns(view)
    except CodecError:
        raise
    except (struct.error, ValueError, LookupError) as exc:
        raise CodecError(f"corrupt batch body: {exc!r}") from exc
    flags = bytes(view.flags)
    if flags.count(0) != len(flows) or flags.count(1) != len(observations):
        raise CodecError("invalid interleave flag")
    if not flows or not observations:
        return flows or observations
    next_flow = iter(flows).__next__
    next_dns = iter(observations).__next__
    return [next_dns() if flag else next_flow() for flag in flags]
