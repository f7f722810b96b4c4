"""Flow sniffer: layer-4 flow reconstruction (Sec. 3.1).

Wraps the TCP connection tracker and adds UDP flow aggregation so the
pipeline sees one :class:`FlowRecord` per five-tuple regardless of
transport.  DNS-over-UDP traffic is excluded — it belongs to the DNS
response sniffer, not the flow database.
"""

from __future__ import annotations

from typing import Optional

from repro.net.flow import FiveTuple, FlowRecord, TransportProto
from repro.net.packet import Packet
from repro.net.tcp import TcpFlowTracker

DNS_PORT = 53


class FlowSniffer:
    """Aggregate packets into flow records.

    TCP flows follow the full state machine in :mod:`repro.net.tcp`;
    UDP flows are grouped by five-tuple with an idle timeout, client side
    chosen by the first packet's source (UDP has no handshake).  Both
    take scalars (:meth:`feed_segment`, :meth:`feed_datagram` — what the
    capture loop calls); :meth:`feed` is the same for a decoded
    :class:`Packet`.
    """

    def __init__(self, idle_timeout: float = 300.0):
        self.idle_timeout = idle_timeout
        self._tcp = TcpFlowTracker(idle_timeout=idle_timeout)
        self._udp: dict[tuple[int, int, int, int], FlowRecord] = {}
        self.stats = {"packets": 0, "skipped_dns": 0, "udp_flows": 0}

    @property
    def tcp_stats(self) -> dict[str, int]:
        """The TCP tracker's counters (packets, midstream, flows, stray)."""
        return self._tcp.stats

    def feed(self, packet: Packet) -> Optional[FlowRecord]:
        """Consume one packet; return a completed flow record, if any."""
        udp = packet.udp
        if packet.tcp is None and udp is not None:
            self.feed_datagram(
                packet.timestamp, packet.ipv4.src, packet.ipv4.dst,
                udp.src_port, udp.dst_port, len(packet.payload),
            )
            return None
        self.stats["packets"] += 1
        return self._tcp.feed(packet) if packet.tcp is not None else None

    def feed_segment(
        self,
        timestamp: float,
        src: int,
        dst: int,
        sport: int,
        dport: int,
        flags: int,
        payload_len: int,
    ) -> Optional[FlowRecord]:
        """Consume one TCP segment; return the flow it completed, if any."""
        self.stats["packets"] += 1
        return self._tcp.feed_segment(
            timestamp, src, dst, sport, dport, flags, payload_len
        )

    def feed_datagram(
        self,
        timestamp: float,
        src: int,
        dst: int,
        sport: int,
        dport: int,
        payload_len: int,
    ) -> None:
        """Consume one UDP datagram; port-53 traffic is only counted (it
        belongs to the DNS response sniffer)."""
        stats = self.stats
        stats["packets"] += 1
        if sport == DNS_PORT or dport == DNS_PORT:
            stats["skipped_dns"] += 1
            return
        flows = self._udp
        flow = flows.get((src, dst, sport, dport))
        if flow is not None:
            flow.bytes_up += payload_len
        else:
            flow = flows.get((dst, src, dport, sport))
            if flow is not None:
                flow.bytes_down += payload_len
            else:
                flow = flows[src, dst, sport, dport] = FlowRecord(
                    FiveTuple(src, dst, sport, dport, TransportProto.UDP),
                    timestamp,
                    bytes_up=payload_len,
                )
                stats["udp_flows"] += 1
        flow.end = timestamp
        flow.packets += 1

    def expire(self, now: float) -> list[FlowRecord]:
        """Flush idle TCP connections and UDP flows."""
        finished = self._tcp.expire(now)
        stale = [
            key
            for key, flow in self._udp.items()
            if now - flow.end > self.idle_timeout
        ]
        finished.extend(self._udp.pop(key) for key in stale)
        return finished

    def flush(self) -> list[FlowRecord]:
        """Close everything still open (end of trace)."""
        finished = self._tcp.flush()
        finished.extend(self._udp.values())
        self._udp.clear()
        return finished

    @property
    def active_count(self) -> int:
        """Currently-open flows across both transports."""
        return self._tcp.active_count + len(self._udp)
