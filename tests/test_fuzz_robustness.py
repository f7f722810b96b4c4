"""Fuzz-style robustness tests: hostile bytes must raise the documented
errors, never crash with anything else.

A passive sniffer parses attacker-controlled input by definition, so the
codecs' error behaviour is a security property, not a nicety.
"""

import io
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.message import DnsMessage
from repro.dns.records import a_record
from repro.dns.wire import DnsWireError, decode_message, encode_message
from repro.net.packet import (
    PacketDecodeError,
    build_udp_packet,
    decode_frame,
    parse_frame,
)
from repro.net.pcap import PcapFormatError, PcapReader


class TestDnsWireFuzz:
    @settings(max_examples=300)
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes_never_crash(self, data):
        try:
            message = decode_message(data)
        except DnsWireError:
            return
        # If it parsed, it must be internally consistent.
        assert isinstance(message, DnsMessage)

    @settings(max_examples=100)
    @given(st.binary(min_size=1, max_size=30), st.integers(0, 50))
    def test_truncated_valid_messages(self, fqdn_bytes, cut):
        """Truncating a valid message raises DnsWireError, not random
        exceptions."""
        name = "host.example.com"
        query = DnsMessage.query(1, name)
        response = DnsMessage.response_to(
            query, [a_record(name, 0x01020304, ttl=60)]
        )
        wire = encode_message(response)
        truncated = wire[: max(0, len(wire) - 1 - cut % len(wire))]
        try:
            decode_message(truncated)
        except DnsWireError:
            pass

    @settings(max_examples=150)
    @given(st.binary(max_size=120), st.integers(0, 119))
    def test_bit_flipped_messages(self, garbage, position):
        query = DnsMessage.query(7, "www.example.com")
        response = DnsMessage.response_to(
            query, [a_record("www.example.com", 0x0A0B0C0D, ttl=60)]
        )
        wire = bytearray(encode_message(response))
        if position < len(wire):
            wire[position] ^= 0xFF
        try:
            decode_message(bytes(wire) + garbage[:4])
        except DnsWireError:
            pass


class TestPacketFuzz:
    @settings(max_examples=300)
    @given(st.binary(max_size=120))
    def test_arbitrary_frames_never_crash(self, data):
        try:
            decode_frame(0.0, data)
        except PacketDecodeError:
            pass

    @settings(max_examples=200)
    @given(st.binary(max_size=80))
    def test_raw_ip_mode(self, data):
        try:
            decode_frame(0.0, data, with_ethernet=False)
        except PacketDecodeError:
            pass


def _dns_response_frame(frag=0, udp_length=None, cut=None):
    """A resolver-to-client UDP/53 frame carrying a valid A response,
    with the IPv4 flags/fragment-offset word and the UDP length set as
    asked, and optionally cut short (total length adjusted to match)."""
    query = DnsMessage.query(9, "bank.example.com")
    payload = encode_message(DnsMessage.response_to(
        query, [a_record("bank.example.com", 0x06060606, ttl=60)]
    ))
    frame = bytearray(build_udp_packet(0.0, 0x0A000035, 0x0A000001,
                                       53, 5555, payload))
    struct.pack_into("!H", frame, 14 + 6, frag)
    if udp_length is not None:
        struct.pack_into("!H", frame, 14 + 20 + 4, udp_length)
    if cut is not None:
        del frame[cut:]
        struct.pack_into("!H", frame, 14 + 2, len(frame) - 14)
    return bytes(frame)


class TestIpv4Fragments:
    """A non-first fragment begins with arbitrary payload, not a
    transport header: parsing ports out of it let its sender write
    ``(client, fqdn, server)`` rows of their choosing into the Clist."""

    @pytest.mark.parametrize("frag", [10, 0x2000 | 185, 0x1FFF])
    def test_non_first_fragment_is_refused(self, frag):
        frame = _dns_response_frame(frag=frag)
        for parse in (parse_frame, lambda data: decode_frame(0.0, data)):
            with pytest.raises(PacketDecodeError, match="IPv4 fragment"):
                parse(frame)

    def test_first_fragment_already_fails_the_length_checks(self):
        # MF set, offset 0: the UDP header names the whole datagram,
        # this frame holds only its first 40 bytes.
        whole = len(_dns_response_frame()) - 14 - 20
        frame = _dns_response_frame(frag=0x2000, udp_length=whole, cut=74)
        with pytest.raises(PacketDecodeError, match="bad UDP length"):
            parse_frame(frame)
        # ... and one that keeps the sender's total length fails there.
        kept = bytearray(frame)
        struct.pack_into("!H", kept, 14 + 2, 20 + whole)
        with pytest.raises(PacketDecodeError, match="bad IPv4 total length"):
            parse_frame(bytes(kept))

    def test_dont_fragment_and_whole_datagrams_still_parse(self):
        for frag in (0, 0x4000):
            fields = parse_frame(_dns_response_frame(frag=frag))
            assert fields[2:5] == (17, 53, 5555)

    def test_a_crafted_fragment_cannot_reach_the_clist(self):
        from repro.sniffer.pipeline import SnifferPipeline

        pipeline = SnifferPipeline(clist_size=64, warmup=0.0)
        pipeline.process_frames([
            (0.0, _dns_response_frame(frag=10)),
            (0.1, _dns_response_frame(frag=0x2000 | 3)),
        ])
        assert pipeline.frame_stats == {"frames": 2, "decode_errors": 2}
        assert pipeline.dns_sniffer.stats["packets"] == 0
        assert pipeline.resolver.stats.responses == 0
        assert pipeline.resolver.peek(0x0A000001, 0x06060606) is None
        pipeline.process_frames([(0.2, _dns_response_frame())])
        assert pipeline.resolver.peek(0x0A000001, 0x06060606) == (
            "bank.example.com"
        )


class TestPcapFuzz:
    @settings(max_examples=200)
    @given(st.binary(max_size=200))
    def test_arbitrary_files_never_crash(self, data):
        try:
            list(PcapReader(io.BytesIO(data)))
        except PcapFormatError:
            pass


class TestSnifferHostileInput:
    def test_pipeline_survives_garbage_udp53(self):
        """A flood of malformed 'DNS' packets must only bump counters."""
        from repro.sniffer.pipeline import SnifferPipeline

        pipeline = SnifferPipeline(clist_size=64)
        packets = [
            decode_frame(
                float(i),
                build_udp_packet(float(i), 1000 + i, 2000, 53, 3000, bytes([i % 256]) * (i % 40)),
            )
            for i in range(100)
        ]
        pipeline.process_packets(packets)
        assert pipeline.dns_sniffer.stats["decode_errors"] > 0
        assert pipeline.tagged_flows == []

    def test_resolver_handles_pathological_answer_lists(self):
        from repro.sniffer.resolver import DnsResolver

        resolver = DnsResolver(clist_size=4)
        # Huge duplicate-laden answer list.
        resolver.insert(1, "x.com", [5] * 1000 + list(range(100)))
        resolver.check_invariants()
        assert resolver.peek(1, 5) == "x.com"

    def test_domain_name_hostile_inputs(self):
        from repro.dns.name import DomainName, DomainNameError

        for bad in ("." * 300, "a" * 64 + ".com", "\x00.com", " ", "a..b..c"):
            with pytest.raises(DomainNameError):
                DomainName(bad)

    def test_tokenizer_hostile_inputs(self):
        from repro.analytics.tokens import tokenize_fqdn

        # Must never raise, whatever the label soup.
        for weird in ("", ".", "a..b", "x" * 300, "--..--", "123.456.789"):
            assert isinstance(tokenize_fqdn(weird), list)
