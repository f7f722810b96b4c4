"""A signature-based DPI engine (the paper's comparison point).

Classic deep packet inspection matches the first payload bytes of a flow
against protocol signatures.  It is the ground-truth source for
cleartext protocols (the paper uses Tstat's DPI) and the strawman that
fails on TLS: an encrypted payload matches the TLS handshake signature
but reveals nothing about the service behind it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.net.flow import Protocol


@dataclass(frozen=True, slots=True)
class Signature:
    """One DPI rule: regex over the first payload bytes, plus metadata.

    ``specific`` signatures identify a concrete service ("BitTorrent
    tracker announce"); unspecific ones identify only the protocol
    ("TLS handshake") — the distinction Tab. 4 turns on.
    """

    name: str
    protocol: Protocol
    pattern: bytes
    specific: bool = True

    def compiled(self) -> re.Pattern[bytes]:
        return re.compile(self.pattern, re.DOTALL)


DEFAULT_SIGNATURES: tuple[Signature, ...] = (
    Signature("http-request", Protocol.HTTP,
              rb"^(GET|POST|HEAD|PUT|DELETE|OPTIONS) ", specific=True),
    Signature("http-response", Protocol.HTTP, rb"^HTTP/1\.[01] ",
              specific=True),
    Signature("tls-handshake", Protocol.TLS, rb"^\x16\x03[\x00-\x03]",
              specific=False),
    Signature("smtp-banner", Protocol.MAIL, rb"^(220|EHLO|HELO|MAIL FROM)",
              specific=True),
    Signature("pop3-banner", Protocol.MAIL, rb"^(\+OK|USER |PASS )",
              specific=True),
    Signature("imap-banner", Protocol.MAIL, rb"^(\* OK|a\d+ LOGIN)",
              specific=True),
    Signature("rtsp", Protocol.STREAMING, rb"^(RTSP/1\.0|DESCRIBE|SETUP)",
              specific=True),
    Signature("bittorrent-handshake", Protocol.P2P,
              rb"^\x13BitTorrent protocol", specific=True),
    Signature("bittorrent-tracker", Protocol.P2P,
              rb"^GET /announce\?", specific=True),
    Signature("msn", Protocol.CHAT, rb"^(VER \d|USR \d|MSG )",
              specific=True),
    Signature("xmpp", Protocol.CHAT, rb"^<\?xml|^<stream:stream",
              specific=True),
)


@dataclass(slots=True)
class DpiVerdict:
    """Outcome of inspecting one flow."""

    protocol: Protocol
    signature: Optional[str]
    specific: bool

    @property
    def identified(self) -> bool:
        """True when a signature matched at all."""
        return self.signature is not None


class DpiEngine:
    """Match flow payloads against an ordered signature list.

    Signatures are tried in order; ``bittorrent-tracker`` is listed after
    plain HTTP in ``DEFAULT_SIGNATURES`` would shadow it, so the engine
    sorts specific signatures first.
    """

    def __init__(self, signatures: Iterable[Signature] = DEFAULT_SIGNATURES):
        ordered = sorted(signatures, key=lambda s: not s.specific)
        # Specific-before-unspecific, and longer (more precise) patterns
        # before shorter ones within each class.
        self._rules = [(sig, sig.compiled()) for sig in ordered]
        self.stats = {"inspected": 0, "identified": 0, "unknown": 0}

    def inspect_payload(self, payload: bytes) -> DpiVerdict:
        """Classify the first payload bytes of a flow."""
        self.stats["inspected"] += 1
        # The tracker announce is an HTTP GET; give it precedence.
        for sig, pattern in self._rules:
            if sig.name == "bittorrent-tracker" and pattern.match(payload):
                self.stats["identified"] += 1
                return DpiVerdict(sig.protocol, sig.name, sig.specific)
        for sig, pattern in self._rules:
            if pattern.match(payload):
                self.stats["identified"] += 1
                return DpiVerdict(sig.protocol, sig.name, sig.specific)
        self.stats["unknown"] += 1
        return DpiVerdict(Protocol.OTHER, None, False)
