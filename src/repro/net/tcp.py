"""TCP connection tracking: reconstruct layer-4 flows from segments.

The flow sniffer (Sec. 3.1) "reconstructs layer-4 flows by aggregating
packets based on the 5-tuple".  This module implements the per-connection
state machine used on the packet path: handshake detection fixes which
endpoint is the client, payload bytes are accumulated per direction, and
FIN/RST or an idle timeout closes the flow.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.net.flow import FiveTuple, FlowRecord, TransportProto
from repro.net.packet import TCP_ACK, TCP_FIN, TCP_RST, TCP_SYN, Packet


class TcpState(enum.Enum):
    """Connection lifecycle as observed by a passive monitor."""

    SYN_SEEN = "syn-seen"
    ESTABLISHED = "established"
    CLOSING = "closing"
    CLOSED = "closed"

    __hash__ = object.__hash__  # identity, as for Protocol


# Members as module constants: a global read is cheaper than a class
# attribute lookup on the per-segment path.
_SYN_SEEN = TcpState.SYN_SEEN
_ESTABLISHED = TcpState.ESTABLISHED
_CLOSING = TcpState.CLOSING


@dataclass(slots=True)
class TcpConnection:
    """Book-keeping for one tracked connection."""

    fid: FiveTuple
    state: TcpState
    start: float
    last_seen: float
    bytes_up: int = 0
    bytes_down: int = 0
    packets: int = 0
    fin_up: bool = False
    fin_down: bool = False

    def to_record(self) -> FlowRecord:
        """Freeze the connection into an immutable flow record."""
        return FlowRecord(
            fid=self.fid,
            start=self.start,
            end=self.last_seen,
            bytes_up=self.bytes_up,
            bytes_down=self.bytes_down,
            packets=self.packets,
        )


class TcpFlowTracker:
    """Track concurrent TCP connections and emit completed flow records.

    Connections are keyed by ``(client, server, client port, server
    port)``; the :class:`FiveTuple` is built once, when the connection
    is.  A connection whose first observed segment is a SYN gets its
    client side from the SYN sender; mid-stream pickups (trace started
    after the handshake) fall back to "lower port is the server"
    heuristics, mirroring what passive monitors such as Tstat do.  A
    segment for an unknown five-tuple opens a connection only if it
    carries SYN or payload: a bare ACK / FIN / RST is the tail of a
    connection already closed (the last ACK of every clean shutdown, a
    retransmitted FIN, a late RST), counted as ``stats["stray"]`` and
    dropped instead of becoming a one-packet phantom flow.

    Args:
        idle_timeout: seconds of silence after which a connection is
            considered finished and flushed.
    """

    def __init__(self, idle_timeout: float = 300.0):
        self.idle_timeout = idle_timeout
        self._active: dict[tuple[int, int, int, int], TcpConnection] = {}
        self.stats = {"packets": 0, "midstream": 0, "flows": 0, "stray": 0}

    def feed(self, packet: Packet) -> Optional[FlowRecord]:
        """Consume one TCP packet; return a flow record if one completed."""
        tcp = packet.tcp
        if tcp is None:
            raise ValueError("TcpFlowTracker.feed expects TCP packets")
        return self.feed_segment(
            packet.timestamp, packet.ipv4.src, packet.ipv4.dst,
            tcp.src_port, tcp.dst_port, tcp.flags, len(packet.payload),
        )

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
        """Consume one TCP segment given as scalars (the capture loop's
        call shape); return a flow record if one completed."""
        stats = self.stats
        stats["packets"] += 1
        active = self._active
        key = (src, dst, sport, dport)
        conn = active.get(key)
        upstream = True
        if conn is None:
            key = (dst, src, dport, sport)
            conn = active.get(key)
            upstream = False
        if conn is None:
            # Unknown five-tuple: orient it (key is the reverse tuple).
            if flags & TCP_SYN:
                upstream = not flags & TCP_ACK
            elif payload_len:
                # Mid-stream: guess the numerically lower port is the server.
                stats["midstream"] += 1
                upstream = dport <= sport
            else:
                stats["stray"] += 1
                return None
            if upstream:
                key = (src, dst, sport, dport)
            conn = active[key] = TcpConnection(
                FiveTuple(*key, TransportProto.TCP),
                _SYN_SEEN if upstream and flags & TCP_SYN
                else _ESTABLISHED,
                timestamp,
                timestamp,
            )
        elif conn.state is _SYN_SEEN and (
            flags & TCP_SYN and flags & TCP_ACK
        ):
            conn.state = _ESTABLISHED
        conn.last_seen = timestamp
        conn.packets += 1
        if payload_len:
            if upstream:
                conn.bytes_up += payload_len
            else:
                conn.bytes_down += payload_len
        if flags & TCP_RST:
            return self._finish(key)
        if flags & TCP_FIN:
            if upstream:
                conn.fin_up = True
            else:
                conn.fin_down = True
            if conn.fin_up and conn.fin_down:
                return self._finish(key)
            conn.state = _CLOSING
        return None

    def _finish(self, key: tuple[int, int, int, int]) -> FlowRecord:
        conn = self._active.pop(key)
        conn.state = TcpState.CLOSED
        self.stats["flows"] += 1
        return conn.to_record()

    def expire(self, now: float) -> list[FlowRecord]:
        """Flush connections idle longer than ``idle_timeout``."""
        stale = [
            key
            for key, conn in self._active.items()
            if now - conn.last_seen > self.idle_timeout
        ]
        return [self._finish(key) for key in stale]

    def flush(self) -> list[FlowRecord]:
        """Close every remaining connection (end of trace)."""
        return [self._finish(key) for key in list(self._active)]

    @property
    def active_count(self) -> int:
        """Connections currently being tracked."""
        return len(self._active)
