"""Tests for the three baselines: reverse DNS, cert inspection, DPI."""

import pytest

from repro.baselines.dpi import DEFAULT_SIGNATURES, DpiEngine
from repro.baselines.reverse_dns import (
    MatchCategory,
    classify_match,
    compare_reverse_lookup,
)
from repro.baselines.tls_cert import (
    CertCategory,
    classify_certificate,
    compare_certificate_inspection,
    matches_wildcard,
)
from repro.dns.server import ReverseZone
from repro.net.flow import FiveTuple, FlowRecord, Protocol, TransportProto
from repro.net.ip import ip_from_str


class TestClassifyMatch:
    @pytest.mark.parametrize(
        "sniffer,reverse,expected",
        [
            ("www.example.com", "www.example.com", MatchCategory.SAME_FQDN),
            ("mail.example.com", "mx.example.com", MatchCategory.SAME_SLD),
            ("www.zynga.com", "ec2-54-1.amazonaws.com", MatchCategory.DIFFERENT),
            ("www.example.com", None, MatchCategory.NO_ANSWER),
            ("WWW.Example.COM", "www.example.com.", MatchCategory.SAME_FQDN),
        ],
    )
    def test_cases(self, sniffer, reverse, expected):
        assert classify_match(sniffer, reverse) is expected


class TestCompareReverseLookup:
    def test_aggregation(self):
        zone = ReverseZone()
        a1, a2, a3, a4 = (ip_from_str(f"9.0.0.{i}") for i in range(1, 5))
        zone.set_pointer(a1, "www.example.com")
        zone.set_pointer(a2, "pop.example.com")
        zone.set_pointer(a3, "edge-1.akamaitechnologies.com")
        # a4 has no PTR
        pairs = [
            (a1, "www.example.com"),
            (a2, "www.example.com"),
            (a3, "www.example.com"),
            (a4, "www.example.com"),
        ]
        result = compare_reverse_lookup(pairs, zone)
        assert result.samples == 4
        for category in MatchCategory:
            assert result.fraction(category) == pytest.approx(0.25)
        rows = result.as_rows()
        assert rows[0][0] == "Same FQDN"

    def test_examples_capped(self):
        zone = ReverseZone()
        pairs = [(i, "x.example.com") for i in range(10)]
        result = compare_reverse_lookup(pairs, zone, keep_examples=2)
        assert len(result.examples[MatchCategory.NO_ANSWER]) == 2

    def test_empty(self):
        result = compare_reverse_lookup([], ReverseZone())
        assert result.fraction(MatchCategory.SAME_FQDN) == 0.0


class TestWildcardMatch:
    @pytest.mark.parametrize(
        "pattern,fqdn,expected",
        [
            ("*.google.com", "mail.google.com", True),
            ("*.google.com", "smtp.mail.google.com", False),  # one label only
            ("*.google.com", "google.com", False),
            ("www.google.com", "www.google.com", True),
            ("*.akamai.net", "a248.akamai.net", True),
        ],
    )
    def test_cases(self, pattern, fqdn, expected):
        assert matches_wildcard(pattern, fqdn) is expected


class TestClassifyCertificate:
    @pytest.mark.parametrize(
        "fqdn,cert,expected",
        [
            ("mail.google.com", "mail.google.com", CertCategory.EQUAL_FQDN),
            ("mail.google.com", "*.google.com", CertCategory.GENERIC),
            ("docs.google.com", "www.google.com", CertCategory.GENERIC),
            ("static.zynga.com", "a248.akamai.net", CertCategory.DIFFERENT),
            ("mail.google.com", None, CertCategory.NO_CERT),
            ("deep.sub.google.com", "*.google.com", CertCategory.GENERIC),
            ("mail.google.com", "*.example.org", CertCategory.DIFFERENT),
        ],
    )
    def test_cases(self, fqdn, cert, expected):
        assert classify_certificate(fqdn, cert) is expected


class TestCompareCertInspection:
    def _tls_flow(self, fqdn, cert):
        return FlowRecord(
            fid=FiveTuple(1, 2, 3, 443, TransportProto.TCP),
            start=0.0,
            protocol=Protocol.TLS,
            fqdn=fqdn,
            cert_name=cert,
        )

    def test_aggregation(self):
        flows = [
            self._tls_flow("a.example.com", "a.example.com"),
            self._tls_flow("b.example.com", "*.example.com"),
            self._tls_flow("c.example.com", "cdn.akamai.net"),
            self._tls_flow("d.example.com", None),
        ]
        result = compare_certificate_inspection(flows)
        assert result.samples == 4
        for category in CertCategory:
            assert result.fraction(category) == pytest.approx(0.25)

    def test_non_tls_and_untagged_skipped(self):
        flows = [
            FlowRecord(
                fid=FiveTuple(1, 2, 3, 80, TransportProto.TCP),
                start=0.0,
                protocol=Protocol.HTTP,
                fqdn="a.com",
            ),
            self._tls_flow(None, "whatever.com"),
        ]
        result = compare_certificate_inspection(flows)
        assert result.samples == 0


class TestDpiEngine:
    @pytest.mark.parametrize(
        "payload,proto,specific",
        [
            (b"GET /index.html HTTP/1.1\r\n", Protocol.HTTP, True),
            (b"HTTP/1.1 200 OK\r\n", Protocol.HTTP, True),
            (b"\x16\x03\x01\x02\x00\x01", Protocol.TLS, False),
            (b"220 mail.example.com ESMTP", Protocol.MAIL, True),
            (b"+OK POP3 ready", Protocol.MAIL, True),
            (b"\x13BitTorrent protocol....", Protocol.P2P, True),
            (b"GET /announce?info_hash=abc HTTP/1.1", Protocol.P2P, True),
            (b"<?xml version='1.0'?><stream:stream>", Protocol.CHAT, True),
            (b"RTSP/1.0 200 OK", Protocol.STREAMING, True),
        ],
    )
    def test_signatures(self, payload, proto, specific):
        engine = DpiEngine()
        verdict = engine.inspect_payload(payload)
        assert verdict.protocol is proto
        assert verdict.specific is specific
        assert verdict.identified

    @pytest.mark.parametrize(
        "payload,signature",
        [
            (b"HEAD / HTTP/1.1\r\n", "http-request"),
            (b"HTTP/1.0 304 Not Modified\r\n", "http-response"),
            (b"\x16\x03\x00\x00\x2f", "tls-handshake"),
            (b"EHLO client.example.com\r\n", "smtp-banner"),
            (b"USER alice\r\n", "pop3-banner"),
            (b"* OK IMAP4rev1 ready\r\n", "imap-banner"),
            (b"a001 LOGIN alice secret\r\n", "imap-banner"),
            (b"DESCRIBE rtsp://media.example.com/a RTSP/1.0", "rtsp"),
            (b"VER 1 MSNP8 CVR0\r\n", "msn"),
            (b"USR 2 TWN I alice@example.com\r\n", "msn"),
            (b"<stream:stream to='example.com'>", "xmpp"),
        ],
    )
    def test_signature_alternatives(self, payload, signature):
        """Every alternative of a signature's pattern names that
        signature, including the two with no case above."""
        by_name = {sig.name: sig for sig in DEFAULT_SIGNATURES}
        verdict = DpiEngine().inspect_payload(payload)
        assert verdict.signature == signature
        assert verdict.protocol is by_name[signature].protocol
        assert verdict.specific is by_name[signature].specific

    @pytest.mark.parametrize(
        "payload",
        [
            b"get / HTTP/1.1\r\n",
            b" GET / HTTP/1.1\r\n",
            b"HTTP/2 200\r\n",
            b"\x16\x03\x04\x00",
            b"\x17\x03\x03\x00\x20",
            b"",
        ],
        ids=["lowercase-method", "leading-space", "http2-status",
             "tls-bad-version", "tls-app-data", "empty"],
    )
    def test_near_misses_stay_unknown(self, payload):
        """Signatures are anchored, case-sensitive byte patterns: a
        payload that only resembles one is not identified."""
        verdict = DpiEngine().inspect_payload(payload)
        assert not verdict.identified
        assert verdict.protocol is Protocol.OTHER

    def test_unknown_payload(self):
        engine = DpiEngine()
        verdict = engine.inspect_payload(b"\x00\x01\x02\x03 random garbage")
        assert not verdict.identified
        assert verdict.protocol is Protocol.OTHER

    def test_tls_payload_is_opaque(self):
        """The paper's core point: DPI sees 'TLS' but not the service."""
        engine = DpiEngine()
        verdict = engine.inspect_payload(b"\x16\x03\x03" + b"\xaa" * 100)
        assert verdict.protocol is Protocol.TLS
        assert not verdict.specific  # protocol known, service unknown

    def test_identification_ratio(self):
        engine = DpiEngine()
        engine.inspect_payload(b"GET / HTTP/1.1")
        engine.inspect_payload(b"garbage-nothing")
        assert engine.stats == {"inspected": 2, "identified": 1, "unknown": 1}

    def test_tracker_beats_plain_http(self):
        """The announce GET must classify as P2P, not generic HTTP."""
        engine = DpiEngine(DEFAULT_SIGNATURES)
        verdict = engine.inspect_payload(b"GET /announce?info_hash=x HTTP/1.1")
        assert verdict.signature == "bittorrent-tracker"
