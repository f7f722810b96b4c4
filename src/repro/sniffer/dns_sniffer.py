"""DNS response sniffer: from wire bytes (or events) into the resolver.

The sniffer watches UDP port 53 traffic, decodes response messages, and
feeds (clientIP, FQDN, answer list) into the :class:`DnsResolver`.  The
FQDN recorded is the **queried** name (the question section), not any
CNAME target — that is what makes DN-Hunter labels more specific than
reverse lookups (Sec. 3.1.3): the client asked for
``mail.google.com`` even if the answer chain ends at a CDN node.

Packet decoding is two-tier: the zero-copy
:func:`~repro.dns.wire.decode_response_addresses` fast path handles the
dominant shape on the wire (single-question, all-A responses) without
building message objects; everything else falls back to the general
:func:`~repro.dns.wire.decode_message` decoder so queries, CNAME chains
and malformed buffers are classified exactly as before.
"""

from __future__ import annotations

from typing import Optional

from repro.dns.wire import (
    DnsWireError,
    decode_message,
    decode_response_addresses,
)
from repro.net.flow import DnsObservation
from repro.net.packet import Packet
from repro.sniffer.resolver import DnsResolver

DNS_PORT = 53


class DnsResponseSniffer:
    """Decode DNS responses and maintain the resolver replica.

    Args:
        resolver: the :class:`DnsResolver` that :meth:`feed_packet` and
            :meth:`feed_observation` insert into.
    """

    def __init__(self, resolver: DnsResolver):
        self.resolver = resolver
        self.stats = {
            "packets": 0,
            "decoded": 0,
            "fast_path": 0,
            "queries_ignored": 0,
            "decode_errors": 0,
            "empty_answers": 0,
        }

    def feed_packet(self, packet: Packet) -> Optional[DnsObservation]:
        """Consume one UDP packet; return the observation if it was a
        response we recorded."""
        udp = packet.udp
        if udp is None or (
            udp.src_port != DNS_PORT and udp.dst_port != DNS_PORT
        ):
            return None
        client_ip = packet.ipv4.dst  # responses flow server -> client
        decoded = self.decode_payload(packet.payload)
        if decoded is None:
            return None
        fqdn, addresses, ttl = decoded
        self.resolver.insert(client_ip, fqdn, addresses, packet.timestamp)
        return DnsObservation(
            packet.timestamp, client_ip, fqdn, addresses, ttl
        )

    def decode_payload(
        self, payload: bytes
    ) -> Optional[tuple[str, list[int], int]]:
        """Decode one port-53 UDP payload.

        Returns ``(fqdn, addresses, min_ttl)`` when it is a response
        with at least one A answer — what belongs in the resolver — and
        ``None`` otherwise, with the reason counted.  Nothing is
        inserted: the capture loop owns the sink.
        """
        stats = self.stats
        stats["packets"] += 1
        message = None
        try:
            decoded = decode_response_addresses(payload)
            if decoded is None:
                # General path: queries, non-A answers, odd or hostile
                # messages.
                message = decode_message(payload)
        except DnsWireError:
            stats["decode_errors"] += 1
            return None
        stats["decoded"] += 1
        if message is None:
            stats["fast_path"] += 1
        elif not message.header.is_response:
            stats["queries_ignored"] += 1
            return None
        if message is not None:
            try:
                fqdn = message.question_name
            except ValueError:
                stats["decode_errors"] += 1
                return None
            decoded = fqdn, message.a_addresses(), message.min_answer_ttl()
        if not decoded[1]:
            stats["empty_answers"] += 1
            return None
        return decoded

    def feed_observation(
        self, observation: DnsObservation
    ) -> Optional[DnsObservation]:
        """Fast path: consume an already-decoded response."""
        if not observation.answers:
            self.stats["empty_answers"] += 1
            return None
        self.resolver.insert(
            observation.client_ip,
            observation.fqdn,
            observation.answers,
            observation.timestamp,
        )
        return observation
