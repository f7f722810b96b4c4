"""Tests for the RFC 1035 wire codec: round-trips, compression, errors."""

import struct
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.message import DnsHeader, DnsMessage, ResponseCode
from repro.dns.records import (
    MxData,
    ResourceRecord,
    RRType,
    SoaData,
    a_record,
    cname_record,
    ptr_record,
)
from repro.dns import wire
from repro.dns.wire import (
    DnsWireError,
    decode_message,
    decode_response_addresses,
    encode_message,
)
from repro.net.ip import ip_from_str


def _roundtrip(message):
    return decode_message(encode_message(message))


class TestQueryRoundtrip:
    def test_simple_query(self):
        query = DnsMessage.query(0x1234, "www.example.com")
        out = _roundtrip(query)
        assert out.header.ident == 0x1234
        assert not out.header.is_response
        assert out.question_name == "www.example.com"
        assert out.questions[0].qtype is RRType.A

    def test_ptr_query(self):
        query = DnsMessage.query(7, "4.3.2.1.in-addr.arpa", qtype=RRType.PTR)
        out = _roundtrip(query)
        assert out.questions[0].qtype is RRType.PTR


class TestResponseRoundtrip:
    def test_a_records(self):
        query = DnsMessage.query(42, "cdn.example.com")
        answers = [
            a_record("cdn.example.com", ip_from_str("93.184.216.34"), ttl=60),
            a_record("cdn.example.com", ip_from_str("93.184.216.35"), ttl=60),
        ]
        response = DnsMessage.response_to(query, answers)
        out = _roundtrip(response)
        assert out.header.is_response
        assert out.header.rcode is ResponseCode.NOERROR
        assert out.a_addresses() == [
            ip_from_str("93.184.216.34"),
            ip_from_str("93.184.216.35"),
        ]
        assert out.min_answer_ttl() == 60

    def test_cname_chain(self):
        query = DnsMessage.query(1, "www.zynga.com")
        answers = [
            cname_record("www.zynga.com", "zynga.edgesuite.net", ttl=300),
            cname_record("zynga.edgesuite.net", "a1955.g.akamai.net", ttl=20),
            a_record("a1955.g.akamai.net", ip_from_str("2.16.0.10"), ttl=20),
        ]
        out = _roundtrip(DnsMessage.response_to(query, answers))
        assert [
            rr.target for rr in out.answers if rr.rtype is RRType.CNAME
        ] == ["zynga.edgesuite.net", "a1955.g.akamai.net"]
        assert out.a_addresses() == [ip_from_str("2.16.0.10")]

    def test_nxdomain(self):
        query = DnsMessage.query(9, "nope.example.com")
        response = DnsMessage.response_to(
            query, [], rcode=ResponseCode.NXDOMAIN
        )
        out = _roundtrip(response)
        assert out.header.rcode is ResponseCode.NXDOMAIN
        assert out.answers == []

    def test_mx_and_soa(self):
        query = DnsMessage.query(5, "example.com", qtype=RRType.MX)
        answers = [
            ResourceRecord(
                "example.com", RRType.MX, 3600, MxData(10, "mail.example.com")
            ),
            ResourceRecord(
                "example.com",
                RRType.SOA,
                3600,
                SoaData("ns1.example.com", "admin.example.com", serial=99),
            ),
        ]
        out = _roundtrip(DnsMessage.response_to(query, answers))
        assert out.answers[0].rdata == MxData(10, "mail.example.com")
        assert out.answers[1].rdata.serial == 99

    def test_txt_record(self):
        query = DnsMessage.query(5, "example.com", qtype=RRType.TXT)
        answers = [
            ResourceRecord("example.com", RRType.TXT, 60, b"v=spf1 -all")
        ]
        out = _roundtrip(DnsMessage.response_to(query, answers))
        assert out.answers[0].rdata == b"v=spf1 -all"

    def test_ptr_record(self):
        query = DnsMessage.query(5, "10.2.0.192.in-addr.arpa", qtype=RRType.PTR)
        answers = [
            ptr_record("10.2.0.192.in-addr.arpa", "server.akamai.net")
        ]
        out = _roundtrip(DnsMessage.response_to(query, answers))
        assert out.answers[0].target == "server.akamai.net"


class TestCompression:
    def test_compression_shrinks_output(self):
        query = DnsMessage.query(1, "www.example.com")
        answers = [
            a_record("www.example.com", i, ttl=60) for i in range(1, 6)
        ]
        wire = encode_message(DnsMessage.response_to(query, answers))
        # With compression each answer name is a 2-byte pointer, so the
        # whole message must be far smaller than 5 copies of the name.
        uncompressed_name = len("www.example.com") + 2
        assert len(wire) < 12 + uncompressed_name + 4 + 5 * (
            uncompressed_name + 14
        )
        out = decode_message(wire)
        assert len(out.answers) == 5
        assert all(rr.name == "www.example.com" for rr in out.answers)

    def test_shared_suffix_compression(self):
        query = DnsMessage.query(1, "a.example.com")
        answers = [
            cname_record("a.example.com", "b.example.com"),
            a_record("b.example.com", 7),
        ]
        out = _roundtrip(DnsMessage.response_to(query, answers))
        assert out.answers[0].target == "b.example.com"
        assert out.answers[1].name == "b.example.com"


class TestWireErrors:
    def test_truncated_header(self):
        with pytest.raises(DnsWireError):
            decode_message(b"\x00\x01")

    def test_truncated_question(self):
        query = encode_message(DnsMessage.query(1, "example.com"))
        with pytest.raises(DnsWireError):
            decode_message(query[:-3])

    def test_pointer_loop(self):
        # Header claiming one question whose name is a self-pointer.
        header = (1).to_bytes(2, "big") + b"\x00\x00" + b"\x00\x01" + b"\x00" * 6
        loop = b"\xc0\x0c"  # points at itself (offset 12)
        with pytest.raises(DnsWireError):
            decode_message(header + loop + b"\x00\x01\x00\x01")

    def test_garbage(self):
        with pytest.raises(DnsWireError):
            decode_message(b"\xff" * 40)


class TestNameEncoding:
    """The encoder refuses what RFC 1035 cannot carry, with DnsWireError."""

    def test_empty_interior_label_refused(self):
        with pytest.raises(DnsWireError, match="empty label"):
            encode_message(DnsMessage.query(1, "a..example.com"))

    def test_root_name_is_the_single_root_byte(self):
        wire = encode_message(DnsMessage.query(1, "."))
        assert wire[12:] == b"\x00\x00\x01\x00\x01"
        assert decode_message(wire).question_name == ""

    def test_non_ascii_label_refused(self):
        with pytest.raises(DnsWireError, match="non-ASCII"):
            encode_message(DnsMessage.query(1, "bücher.example"))

    def test_name_over_255_wire_octets_refused(self):
        longest = ".".join(["a" * 63, "b" * 63, "c" * 63, "d" * 61])
        assert _roundtrip(DnsMessage.query(1, longest)).question_name == longest
        with pytest.raises(DnsWireError, match="name too long"):
            encode_message(DnsMessage.query(1, longest + "d"))

    @given(
        st.one_of(
            st.text(max_size=300),
            st.text(alphabet="aZ9-.\x00é", max_size=300),
            st.lists(
                st.text(alphabet="aB.", max_size=70), max_size=6
            ).map(".".join),
        )
    )
    def test_arbitrary_names_roundtrip_or_raise_wire_error(self, name):
        query = DnsMessage.query(1, name)
        try:
            wire = encode_message(
                DnsMessage.response_to(query, [a_record(name, 1)])
            )
        except DnsWireError:
            return
        out = decode_message(wire)
        assert out.question_name == name.rstrip(".").lower()
        assert out.answers[0].name == out.question_name


class TestPointerValidation:
    """Regression tests for compression-pointer hardening.

    The original check only rejected a pointer that was simultaneously
    first-hop *and* past the buffer; any pointer target at or past the
    end of the message, and any forward pointer, must be rejected
    (RFC 1035 pointers reference a prior occurrence).
    """

    @staticmethod
    def _question_message(name_bytes):
        header = (
            (1).to_bytes(2, "big") + b"\x00\x00" + b"\x00\x01" + b"\x00" * 6
        )
        return header + name_bytes + b"\x00\x01\x00\x01"

    def test_pointer_past_end_rejected(self):
        # Pointer target 0x3FF is far beyond the message.
        message = self._question_message(b"\xc3\xff")
        with pytest.raises(DnsWireError):
            decode_message(message)

    def test_pointer_past_end_rejected_after_label(self):
        # A label first, then an out-of-range pointer: the seed check
        # missed this (``labels`` non-empty).
        message = self._question_message(b"\x03abc\xc3\xff")
        with pytest.raises(DnsWireError):
            decode_message(message)

    def test_forward_pointer_rejected(self):
        # Pointer at offset 12 targeting offset 14 (forward).
        message = self._question_message(b"\xc0\x0e\x03abc\x00")
        with pytest.raises(DnsWireError):
            decode_message(message)

    def test_self_pointer_rejected(self):
        message = self._question_message(b"\xc0\x0c")
        with pytest.raises(DnsWireError):
            decode_message(message)

    def test_second_hop_out_of_range_rejected(self):
        # First pointer is valid and backward; the name it reaches ends
        # in a second pointer that is out of range.  The seed check only
        # guarded the first hop.
        header = (
            (1).to_bytes(2, "big") + b"\x00\x00" + b"\x00\x01" + b"\x00" * 6
        )
        # offset 12: label "ab", then pointer to offset 12... build:
        # offset 12: 0x02 'a' 'b' 0xc3 0xff  (label then bad pointer)
        # offset 17: 0xc0 0x0c (points back at offset 12)
        message = header + b"\x02ab\xc3\xff" + b"\xc0\x0c" + b"\x00\x01\x00\x01"
        with pytest.raises(DnsWireError):
            decode_message(message)

    def test_backward_compression_still_decodes(self):
        # Sanity: the legitimate encoder output (backward pointers only)
        # still round-trips.
        query = DnsMessage.query(3, "www.example.com")
        answers = [a_record("www.example.com", 9, ttl=5)]
        out = decode_message(encode_message(DnsMessage.response_to(query, answers)))
        assert out.answers[0].name == "www.example.com"


class TestFastPathDecode:
    """The zero-copy fast path must agree with the full decoder on
    everything it accepts, and defer everything else."""

    @staticmethod
    def _response(name="cdn.example.com", addresses=(1, 2), ttl=60, ident=4):
        query = DnsMessage.query(ident, name)
        return encode_message(
            DnsMessage.response_to(
                query, [a_record(name, a, ttl=ttl) for a in addresses]
            )
        )

    def test_matches_full_decoder(self):
        wire = self._response(addresses=(10, 20, 30), ttl=44)
        message = decode_message(wire)
        assert decode_response_addresses(wire) == (
            message.question_name,
            message.a_addresses(),
            message.min_answer_ttl(),
        )

    def test_empty_answers(self):
        wire = self._response(addresses=())
        assert decode_response_addresses(wire) == ("cdn.example.com", [], 0)

    def test_min_ttl_across_answers(self):
        query = DnsMessage.query(1, "x.example.com")
        wire = encode_message(
            DnsMessage.response_to(
                query,
                [
                    a_record("x.example.com", 1, ttl=500),
                    a_record("x.example.com", 2, ttl=7),
                    a_record("x.example.com", 3, ttl=90),
                ],
            )
        )
        assert decode_response_addresses(wire)[2] == 7

    def test_query_defers(self):
        wire = encode_message(DnsMessage.query(5, "a.example.com"))
        assert decode_response_addresses(wire) is None

    def test_cname_defers(self):
        query = DnsMessage.query(1, "www.zynga.com")
        wire = encode_message(
            DnsMessage.response_to(
                query,
                [
                    cname_record("www.zynga.com", "z.edgesuite.net", ttl=30),
                    a_record("z.edgesuite.net", 77, ttl=30),
                ],
            )
        )
        assert decode_response_addresses(wire) is None
        # ...and the general decoder handles what the fast path deferred.
        assert decode_message(wire).a_addresses() == [77]

    def test_truncated_header_raises(self):
        with pytest.raises(DnsWireError):
            decode_response_addresses(b"\x00\x01")

    def test_truncated_body_defers_or_refuses(self):
        wire = self._response()
        for cut in range(12, len(wire)):
            assert decode_response_addresses(wire[:cut]) is None

    @given(
        ident=st.integers(min_value=0, max_value=0xFFFF),
        addresses=st.lists(
            st.integers(min_value=0, max_value=0xFFFFFFFF),
            min_size=0,
            max_size=12,
        ),
        ttl=st.integers(min_value=0, max_value=86400),
    )
    def test_arbitrary_a_responses_match(self, ident, addresses, ttl):
        name = "host.fast.example.com"
        wire = self._response(
            name=name, addresses=tuple(addresses), ttl=ttl, ident=ident
        )
        message = decode_message(wire)
        assert decode_response_addresses(wire) == (
            message.question_name,
            message.a_addresses(),
            message.min_answer_ttl(),
        )

    @settings(max_examples=150)
    @given(
        names=st.lists(
            st.lists(
                st.binary(min_size=1, max_size=5).map(
                    lambda label: label.replace(b"\x01", b"\x00")
                ),
                max_size=3,
            ),
            min_size=1,
            max_size=4,
        ),
        picks=st.lists(
            st.tuples(st.integers(0, 3), st.lists(
                st.integers(0, 0xFFFFFFFF), max_size=3,
            )),
            min_size=1,
            max_size=10,
        ),
        limit=st.integers(0, 3),
    )
    def test_name_table_matches_full_decoder(self, names, picks, limit):
        """The raw-bytes name table answers exactly what the label walk
        would: repeated names, zero bytes inside labels (never stored)
        and a full table included."""
        with mock.patch.object(wire, "_QNAME_TEXT", {}), mock.patch.object(
            wire, "_QNAME_TEXT_MAX", limit
        ):
            for index, addresses in picks:
                labels = names[index % len(names)]
                question = b"".join(
                    bytes([len(label)]) + label for label in labels
                ) + b"\x00" + wire._A_IN
                payload = struct.pack(
                    "!HHHHHH", 9, 0x8180, 1, len(addresses), 0, 0
                ) + question + b"".join(
                    b"\xc0\x0c" + wire._A_IN
                    + struct.pack("!IHI", 30, 4, address)
                    for address in addresses
                )
                message = decode_message(payload)
                for _ in range(2):
                    assert decode_response_addresses(payload) == (
                        message.question_name,
                        message.a_addresses(),
                        message.min_answer_ttl(),
                    )
            assert len(wire._QNAME_TEXT) <= limit
            for raw in wire._QNAME_TEXT:
                assert raw.index(0) == len(raw) - 1

    def test_compressed_and_cut_questions_take_the_walk(self):
        wire_bytes = self._response(name="walk.example.com")
        assert decode_response_addresses(wire_bytes)[0] == "walk.example.com"
        # Known name, cut anywhere after it: still deferred.
        for cut in range(12, len(wire_bytes)):
            assert decode_response_addresses(wire_bytes[:cut]) is None
        # A compressed question is deferred, however often it is seen.
        compressed = (
            wire_bytes[:12] + b"\x04walk\xc0\x11" + wire_bytes[30:]
        )
        for _ in range(2):
            assert decode_response_addresses(compressed) is None

    @settings(max_examples=200)
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes_never_crash(self, data):
        try:
            result = decode_response_addresses(data)
        except DnsWireError:
            return
        if result is not None:
            fqdn, addresses, ttl = result
            assert isinstance(fqdn, str)
            assert all(isinstance(a, int) for a in addresses)
            assert ttl >= 0


_names = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=12),
    min_size=2,
    max_size=4,
).map(".".join)


class TestPropertyRoundtrip:
    @given(
        ident=st.integers(min_value=0, max_value=0xFFFF),
        name=_names,
        addresses=st.lists(
            st.integers(min_value=0, max_value=0xFFFFFFFF),
            min_size=0,
            max_size=10,
        ),
        ttl=st.integers(min_value=0, max_value=86400),
    )
    def test_arbitrary_a_responses(self, ident, name, addresses, ttl):
        query = DnsMessage.query(ident, name)
        answers = [a_record(name, addr, ttl=ttl) for addr in addresses]
        out = _roundtrip(DnsMessage.response_to(query, answers))
        assert out.header.ident == ident
        assert out.question_name == name
        assert out.a_addresses() == addresses
        if addresses:
            assert out.min_answer_ttl() == ttl


class TestHeaderFlags:
    @given(
        st.booleans(), st.booleans(), st.booleans(), st.booleans(),
        st.sampled_from(list(ResponseCode)),
    )
    def test_flags_word_roundtrip(self, resp, aa, rd, ra, rcode):
        header = DnsHeader(
            ident=77,
            is_response=resp,
            authoritative=aa,
            recursion_desired=rd,
            recursion_available=ra,
            rcode=rcode,
        )
        out = DnsHeader.from_flags_word(77, header.flags_word())
        assert out == header
