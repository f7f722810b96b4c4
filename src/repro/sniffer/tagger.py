"""Flow tagger: attach the FQDN label to each reconstructed flow.

The tagger queries the DNS resolver with the flow's (clientIP, serverIP)
pair — Algorithm 1's ``lookup()`` — and writes the label into the flow
record.  Per-protocol hit counters reproduce the Tab. 2 breakdown; the
warm-up window excludes the trace head where client OS caches answer
locally and the monitor cannot have seen the resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.flow import FlowRecord, Protocol
from repro.sniffer.resolver import DnsResolver


@dataclass
class TagStats:
    """Hit/miss counts split by layer-7 protocol."""

    hits: dict[Protocol, int] = field(default_factory=dict)
    misses: dict[Protocol, int] = field(default_factory=dict)
    warmup_skipped: int = 0

    def record(self, protocol: Protocol, hit: bool) -> None:
        bucket = self.hits if hit else self.misses
        bucket[protocol] = bucket.get(protocol, 0) + 1

    def hit_ratio(self, protocol: Protocol) -> float:
        """Fraction of flows of ``protocol`` that received a label."""
        hits = self.hits.get(protocol, 0)
        total = hits + self.misses.get(protocol, 0)
        return hits / total if total else 0.0

    def hit_count(self, protocol: Protocol) -> int:
        return self.hits.get(protocol, 0)

    def total(self, protocol: Protocol) -> int:
        return self.hits.get(protocol, 0) + self.misses.get(protocol, 0)


class FlowTagger:
    """Label flows with the FQDN from the resolver replica.

    Args:
        resolver: shared :class:`DnsResolver`.
        warmup: seconds from ``trace_start`` during which flows are tagged
            but excluded from the statistics (the paper uses 5 minutes).
        trace_start: timestamp of the first packet; set lazily from the
            first flow if left ``None``.
    """

    def __init__(
        self,
        resolver: DnsResolver,
        warmup: float = 300.0,
        trace_start: float | None = None,
    ):
        self.resolver = resolver
        self.warmup = warmup
        self.trace_start = trace_start
        self.stats = TagStats()

    def tag(self, flow: FlowRecord) -> FlowRecord:
        """Attach a label to ``flow`` (in place) and update statistics."""
        if self.trace_start is None:
            self.trace_start = flow.start
        fqdn = self.resolver.lookup(flow.fid.client_ip, flow.fid.server_ip)
        flow.fqdn = fqdn
        in_warmup = flow.start - self.trace_start < self.warmup
        if in_warmup:
            self.stats.warmup_skipped += 1
        else:
            self.stats.record(flow.protocol, fqdn is not None)
        return flow
