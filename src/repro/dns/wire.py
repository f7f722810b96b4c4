"""RFC 1035 wire-format encoder/decoder with name compression.

The DNS response sniffer decodes raw UDP payloads with this codec, so the
packet-level pipeline parses exactly what a real capture would contain.
Compression pointers are emitted on encode (first occurrence wins) and
followed on decode with loop protection.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.dns.message import DnsHeader, DnsMessage, Question
from repro.dns.name import MAX_LABEL_LENGTH, MAX_NAME_LENGTH
from repro.dns.records import (
    MxData,
    ResourceRecord,
    RRClass,
    RRType,
    SoaData,
)

_HEADER_FMT = struct.Struct("!HHHHHH")
_RR_FIXED_FMT = struct.Struct("!HHIH")
_POINTER_MASK = 0xC000
MAX_POINTER_HOPS = 64


class DnsWireError(ValueError):
    """Raised when a buffer is not a well-formed DNS message."""


class _NameEncoder:
    """Encode names with compression against a shared offset table."""

    def __init__(self) -> None:
        self._offsets: dict[str, int] = {}

    def encode(self, name: str, at_offset: int) -> bytes:
        if not name.isascii():
            raise DnsWireError(f"non-ASCII name: {name!r}")
        name = name.rstrip(".").lower()
        # A name's wire form is two octets longer than its dotted form.
        if len(name) > MAX_NAME_LENGTH:
            raise DnsWireError(f"name too long: {name[:20]!r}...")
        labels = name.split(".") if name else []
        out = bytearray()
        for index in range(len(labels)):
            suffix = ".".join(labels[index:])
            known = self._offsets.get(suffix)
            if known is not None:
                out += struct.pack("!H", _POINTER_MASK | known)
                return bytes(out)
            current = at_offset + len(out)
            if current < _POINTER_MASK:  # pointers only address 14 bits
                self._offsets[suffix] = current
            label = labels[index].encode("ascii")
            if not label:
                raise DnsWireError(f"empty label in {name!r}")
            if len(label) > MAX_LABEL_LENGTH:
                raise DnsWireError(f"label too long: {labels[index]!r}")
            out.append(len(label))
            out += label
        out.append(0)
        return bytes(out)


def _decode_name(data: bytes, offset: int) -> tuple[str, int]:
    """Decode a possibly-compressed name; return (name, next offset)."""
    labels: list[str] = []
    jumped = False
    next_offset = offset
    hops = 0
    while True:
        if offset >= len(data):
            raise DnsWireError("name runs past end of message")
        length = data[offset]
        if length & 0xC0 == 0xC0:
            if offset + 1 >= len(data):
                raise DnsWireError("truncated compression pointer")
            pointer = ((length & 0x3F) << 8) | data[offset + 1]
            if not jumped:
                next_offset = offset + 2
                jumped = True
            hops += 1
            if hops > MAX_POINTER_HOPS:
                raise DnsWireError("compression pointer loop")
            # RFC 1035 pointers must reference a *prior* occurrence: any
            # forward (or self) pointer is invalid, and since the current
            # offset is inside the buffer this also rejects any target
            # past the end of the message.
            if pointer >= offset:
                raise DnsWireError("forward compression pointer")
            offset = pointer
            continue
        if length & 0xC0:
            raise DnsWireError(f"reserved label type {length:#x}")
        offset += 1
        if length == 0:
            break
        if offset + length > len(data):
            raise DnsWireError("label runs past end of message")
        labels.append(data[offset:offset + length].decode("ascii", "replace"))
        offset += length
    if not jumped:
        next_offset = offset
    return ".".join(labels), next_offset


def _encode_rdata(
    rr: ResourceRecord, encoder: _NameEncoder, at_offset: int
) -> bytes:
    if rr.rtype is RRType.A:
        assert isinstance(rr.rdata, int)
        return rr.rdata.to_bytes(4, "big")
    if rr.rtype in (RRType.CNAME, RRType.NS, RRType.PTR):
        assert isinstance(rr.rdata, str)
        return encoder.encode(rr.rdata, at_offset)
    if rr.rtype is RRType.MX:
        assert isinstance(rr.rdata, MxData)
        pref = struct.pack("!H", rr.rdata.preference)
        return pref + encoder.encode(rr.rdata.exchange, at_offset + 2)
    if rr.rtype is RRType.SOA:
        assert isinstance(rr.rdata, SoaData)
        soa = rr.rdata
        mname = encoder.encode(soa.mname, at_offset)
        rname = encoder.encode(soa.rname, at_offset + len(mname))
        tail = struct.pack(
            "!IIIII", soa.serial, soa.refresh, soa.retry, soa.expire,
            soa.minimum,
        )
        return mname + rname + tail
    if rr.rtype is RRType.TXT:
        assert isinstance(rr.rdata, bytes)
        if len(rr.rdata) > 255:
            raise DnsWireError("TXT string too long")
        return bytes([len(rr.rdata)]) + rr.rdata
    if rr.rtype is RRType.AAAA:
        assert isinstance(rr.rdata, bytes)
        if len(rr.rdata) != 16:
            raise DnsWireError("AAAA rdata must be 16 bytes")
        return rr.rdata
    raise DnsWireError(f"cannot encode rdata for {rr.rtype!r}")


def _decode_rdata(
    data: bytes, rtype: int, rdata_start: int, rdata_len: int
) -> object:
    end = rdata_start + rdata_len
    blob = data[rdata_start:end]
    if rtype == RRType.A:
        if rdata_len != 4:
            raise DnsWireError("A rdata must be 4 bytes")
        return int.from_bytes(blob, "big")
    if rtype in (RRType.CNAME, RRType.NS, RRType.PTR):
        name, _ = _decode_name(data, rdata_start)
        return name
    if rtype == RRType.MX:
        if rdata_len < 3:
            raise DnsWireError("truncated MX rdata")
        preference = struct.unpack_from("!H", data, rdata_start)[0]
        exchange, _ = _decode_name(data, rdata_start + 2)
        return MxData(preference, exchange)
    if rtype == RRType.SOA:
        mname, offset = _decode_name(data, rdata_start)
        rname, offset = _decode_name(data, offset)
        if offset + 20 > len(data):
            raise DnsWireError("truncated SOA rdata")
        serial, refresh, retry, expire, minimum = struct.unpack_from(
            "!IIIII", data, offset
        )
        return SoaData(mname, rname, serial, refresh, retry, expire, minimum)
    if rtype == RRType.TXT:
        if not blob:
            return b""
        length = blob[0]
        return blob[1:1 + length]
    if rtype == RRType.AAAA:
        if rdata_len != 16:
            raise DnsWireError("AAAA rdata must be 16 bytes")
        return blob
    return blob  # unknown types carried opaquely


def encode_message(message: DnsMessage) -> bytes:
    """Serialize ``message`` to wire format with name compression."""
    out = bytearray()
    out += _HEADER_FMT.pack(
        message.header.ident,
        message.header.flags_word(),
        len(message.questions),
        len(message.answers),
        len(message.authority),
        len(message.additional),
    )
    encoder = _NameEncoder()
    for question in message.questions:
        out += encoder.encode(question.name, len(out))
        out += struct.pack("!HH", int(question.qtype), int(question.qclass))
    for rr in (*message.answers, *message.authority, *message.additional):
        out += encoder.encode(rr.name, len(out))
        fixed_at = len(out)
        out += _RR_FIXED_FMT.pack(int(rr.rtype), int(rr.rclass), rr.ttl, 0)
        rdata = _encode_rdata(rr, encoder, len(out))
        if len(rdata) > 0xFFFF:
            raise DnsWireError("rdata too long")
        struct.pack_into("!H", out, fixed_at + 8, len(rdata))
        out += rdata
    return bytes(out)


def _decode_rr(data: bytes, offset: int) -> tuple[ResourceRecord, int]:
    name, offset = _decode_name(data, offset)
    if offset + _RR_FIXED_FMT.size > len(data):
        raise DnsWireError("truncated resource record")
    rtype_raw, rclass_raw, ttl, rdata_len = _RR_FIXED_FMT.unpack_from(
        data, offset
    )
    offset += _RR_FIXED_FMT.size
    if offset + rdata_len > len(data):
        raise DnsWireError("rdata runs past end of message")
    try:
        rtype = RRType(rtype_raw)
    except ValueError as exc:
        raise DnsWireError(f"unsupported record type {rtype_raw}") from exc
    try:
        rclass = RRClass(rclass_raw)
    except ValueError as exc:
        raise DnsWireError(f"unsupported record class {rclass_raw}") from exc
    rdata = _decode_rdata(data, rtype, offset, rdata_len)
    record = ResourceRecord(
        name=name, rtype=rtype, ttl=ttl, rdata=rdata, rclass=rclass
    )
    return record, offset + rdata_len


def decode_message(data: bytes) -> DnsMessage:
    """Parse a wire-format DNS message."""
    if len(data) < _HEADER_FMT.size:
        raise DnsWireError("truncated DNS header")
    ident, flags, qd, an, ns, ar = _HEADER_FMT.unpack_from(data)
    try:
        header = DnsHeader.from_flags_word(ident, flags)
    except ValueError as exc:  # reserved RCODE values
        raise DnsWireError(str(exc)) from exc
    message = DnsMessage(header=header)
    offset = _HEADER_FMT.size
    for _ in range(qd):
        name, offset = _decode_name(data, offset)
        if offset + 4 > len(data):
            raise DnsWireError("truncated question")
        qtype_raw, qclass_raw = struct.unpack_from("!HH", data, offset)
        offset += 4
        try:
            qtype = RRType(qtype_raw)
            qclass = RRClass(qclass_raw)
        except ValueError as exc:
            raise DnsWireError(
                f"unsupported question type/class {qtype_raw}/{qclass_raw}"
            ) from exc
        message.questions.append(
            Question(name=name, qtype=qtype, qclass=qclass)
        )
    for section, count in (
        (message.answers, an),
        (message.authority, ns),
        (message.additional, ar),
    ):
        for _ in range(count):
            record, offset = _decode_rr(data, offset)
            section.append(record)
    return message


# ---------------------------------------------------------------------------
# Zero-copy response fast path
# ---------------------------------------------------------------------------
#
# The DNS response sniffer only needs three facts per response: the
# queried name, the A-record address list, and the minimum answer TTL.
# ``decode_response_addresses`` extracts exactly those straight from the
# wire buffer with ``unpack_from`` — no ``DnsMessage``/``ResourceRecord``
# objects, no enum construction, no rdata decoding.  Anything outside the
# narrow shape it handles (queries, multi-question messages, non-A
# answers, authority/additional sections, compressed question names,
# unknown types/classes, reserved RCODEs) returns ``None`` so the caller
# falls back to :func:`decode_message`, preserving the full decoder's
# behaviour — including the error it would raise — for those shapes.
# The one deliberate leniency: answer owner names are skipped, not
# re-decoded, so a backward pointer into malformed bytes is not chased
# the way the full decoder would.

_A_RECORD_TAIL = struct.Struct("!HHIHI")  # type, class, ttl, rdlen, address
_A_IN = b"\x00\x01\x00\x01"  # type A, class IN
_TTL_RDLENGTH = struct.Struct("!IH")
_KNOWN_QTYPES = frozenset(int(rrtype) for rrtype in RRType)

# Question names already walked, keyed by their raw wire bytes up to and
# including the first zero byte.  A name is stored only when its label
# walk ended exactly on that byte, so equal keys walk identically; the
# table is a memo of a pure function and safe to share.  Past the limit
# new names are walked and not stored.
_QNAME_TEXT: dict[bytes, str] = {}
_QNAME_TEXT_MAX = 16384


def decode_response_addresses(
    data: bytes,
) -> Optional[tuple[str, list[int], int]]:
    """Fast-path decode of an A-record DNS response.

    Returns ``(query_name, a_addresses, min_answer_ttl)`` for a plain
    single-question all-A response, or ``None`` when the message needs
    the general decoder (the caller must then use
    :func:`decode_message`).  Raises :class:`DnsWireError` only for a
    buffer too short to hold a DNS header, mirroring the full decoder.
    """
    size = len(data)
    if size < 12:
        raise DnsWireError("truncated DNS header")
    if not data[2] & 0x80:
        return None  # a query — the general path classifies it
    if data[3] & 0x0F > 5:
        return None  # reserved RCODE — the general path rejects it
    if data[4] or data[5] != 1:
        return None  # zero or multiple questions
    if data[8] or data[9] or data[10] or data[11]:
        return None  # authority/additional sections present
    an_count = (data[6] << 8) | data[7]
    offset = data.find(0, 12) + 1
    raw = data[12:offset]
    fqdn = _QNAME_TEXT.get(raw)
    if fqdn is None:
        # Question name: plain labels only (a compressed question name
        # is possible in theory and handled by the general decoder).
        stop = offset
        offset = 12
        labels = []
        while True:
            if offset >= size:
                return None
            length = data[offset]
            if length == 0:
                offset += 1
                break
            if length & 0xC0:
                return None
            end = offset + 1 + length
            if end > size:
                return None
            labels.append(data[offset + 1:end].decode("ascii", "replace"))
            offset = end
        fqdn = ".".join(labels)
        if offset == stop and len(_QNAME_TEXT) < _QNAME_TEXT_MAX:
            _QNAME_TEXT[raw] = fqdn
    if offset + 4 > size:
        return None
    qtype = (data[offset] << 8) | data[offset + 1]
    qclass = (data[offset + 2] << 8) | data[offset + 3]
    if qtype not in _KNOWN_QTYPES or qclass != 1:
        return None
    offset += 4
    addresses: list[int] = []
    append = addresses.append
    min_ttl = -1
    unpack_tail = _A_RECORD_TAIL.unpack_from
    for _ in range(an_count):
        # Skip the owner name without materialising it.
        while True:
            if offset >= size:
                return None
            length = data[offset]
            if length & 0xC0 == 0xC0:
                if offset + 1 >= size:
                    return None
                pointer = ((length & 0x3F) << 8) | data[offset + 1]
                if pointer >= offset:
                    return None  # forward pointer — general path rejects
                offset += 2
                break
            if length & 0xC0:
                return None
            offset += 1
            if length == 0:
                break
            offset += length
        if offset + 14 > size:
            return None
        rtype, rclass, ttl, rdata_len, address = unpack_tail(data, offset)
        if rtype != 1 or rclass != 1 or rdata_len != 4:
            return None  # CNAME chains, AAAA, etc. take the general path
        offset += 14
        append(address)
        if ttl < min_ttl or min_ttl < 0:
            min_ttl = ttl
    return fqdn, addresses, 0 if min_ttl < 0 else min_ttl


def encode_a_response(
    ident: int,
    name: str,
    addresses: list[int],
    ttl: int,
    names: dict[str, tuple[bytes, bytes]],
) -> bytes:
    """Encode a NOERROR response to an A query for ``name`` directly.

    Writes the bytes :func:`encode_message` writes for
    ``DnsMessage.response_to(DnsMessage.query(ident, name), [a_record(
    name, address, ttl=ttl) for address in addresses])``: the header,
    the question, and per address the owner name (a pointer to the
    question), type A, class IN, ``ttl`` and the address.  ``names``
    maps each name already seen to its question section and answer
    prefix, so a name is encoded once per table.
    """
    encoded = names.get(name)
    if encoded is None:
        encoder = _NameEncoder()
        question = encoder.encode(name, _HEADER_FMT.size) + _A_IN
        owner = encoder.encode(name, _HEADER_FMT.size + len(question))
        encoded = names[name] = (question, owner + _A_IN)
    question, answer = encoded
    wire = _HEADER_FMT.pack(ident, 0x8180, 1, len(addresses), 0, 0) + question
    if not addresses:
        return wire
    answer += _TTL_RDLENGTH.pack(ttl, 4)
    # answer + address, answer + address, ...
    return wire + answer + answer.join([int.to_bytes(a, 4, "big") for a in addresses])
