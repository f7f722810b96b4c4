"""Tests for the TCP flow tracker state machine."""

import pytest

from repro.net.ip import ip_from_str
from repro.net.packet import (
    TCP_ACK,
    TCP_FIN,
    TCP_RST,
    TCP_SYN,
    build_tcp_packet,
    decode_frame,
)
from repro.net.tcp import TcpFlowTracker

CLIENT = ip_from_str("10.0.0.5")
SERVER = ip_from_str("93.184.216.34")


def _pkt(t, src, dst, sport, dport, flags, payload=b""):
    frame = build_tcp_packet(t, src, dst, sport, dport, flags, payload=payload)
    return decode_frame(t, frame)


def _handshake(tracker, t0=0.0, sport=40000, dport=80):
    tracker.feed(_pkt(t0, CLIENT, SERVER, sport, dport, TCP_SYN))
    tracker.feed(_pkt(t0 + 0.01, SERVER, CLIENT, dport, sport, TCP_SYN | TCP_ACK))
    tracker.feed(_pkt(t0 + 0.02, CLIENT, SERVER, sport, dport, TCP_ACK))


class TestLifecycle:
    def test_full_connection(self):
        tracker = TcpFlowTracker()
        _handshake(tracker)
        tracker.feed(
            _pkt(0.1, CLIENT, SERVER, 40000, 80, TCP_ACK, b"GET / HTTP/1.1")
        )
        tracker.feed(
            _pkt(0.2, SERVER, CLIENT, 80, 40000, TCP_ACK, b"HTTP/1.1 200 OK")
        )
        tracker.feed(_pkt(0.3, CLIENT, SERVER, 40000, 80, TCP_FIN | TCP_ACK))
        record = tracker.feed(
            _pkt(0.4, SERVER, CLIENT, 80, 40000, TCP_FIN | TCP_ACK)
        )
        assert record is not None
        assert record.fid.client_ip == CLIENT
        assert record.fid.server_ip == SERVER
        assert record.fid.dst_port == 80
        assert record.bytes_up == len(b"GET / HTTP/1.1")
        assert record.bytes_down == len(b"HTTP/1.1 200 OK")
        assert record.start == 0.0
        assert record.end == 0.4
        assert tracker.active_count == 0

    def test_rst_closes_immediately(self):
        tracker = TcpFlowTracker()
        _handshake(tracker)
        record = tracker.feed(_pkt(0.5, SERVER, CLIENT, 80, 40000, TCP_RST))
        assert record is not None
        assert tracker.active_count == 0

    def test_single_fin_keeps_connection(self):
        tracker = TcpFlowTracker()
        _handshake(tracker)
        assert tracker.feed(
            _pkt(0.3, CLIENT, SERVER, 40000, 80, TCP_FIN | TCP_ACK)
        ) is None
        assert tracker.active_count == 1

    def test_client_orientation_from_syn(self):
        tracker = TcpFlowTracker()
        tracker.feed(_pkt(0.0, CLIENT, SERVER, 51000, 443, TCP_SYN))
        record = tracker.feed(_pkt(0.1, SERVER, CLIENT, 443, 51000, TCP_RST))
        assert record.fid.client_ip == CLIENT
        assert record.fid.dst_port == 443

    def test_midstream_pickup_uses_port_heuristic(self):
        tracker = TcpFlowTracker()
        # No SYN: data from server first; lower port should become server.
        tracker.feed(_pkt(0.0, SERVER, CLIENT, 80, 40000, TCP_ACK, b"data"))
        record = tracker.feed(_pkt(0.5, CLIENT, SERVER, 40000, 80, TCP_RST))
        assert record is not None and tracker.flush() == []
        assert record.fid.server_ip == SERVER
        assert record.bytes_down == 4
        assert tracker.stats["midstream"] >= 1


class TestTimeoutsAndFlush:
    def test_expire_idle(self):
        tracker = TcpFlowTracker(idle_timeout=10.0)
        _handshake(tracker)
        assert tracker.expire(5.0) == []
        expired = tracker.expire(100.0)
        assert len(expired) == 1
        assert tracker.active_count == 0

    def test_flush_all(self):
        tracker = TcpFlowTracker()
        _handshake(tracker, sport=40001)
        _handshake(tracker, sport=40002, dport=443)
        records = tracker.flush()
        assert len(records) == 2
        assert tracker.active_count == 0

    def test_stats_counting(self):
        tracker = TcpFlowTracker()
        _handshake(tracker)
        tracker.flush()
        assert tracker.stats["packets"] == 3
        assert tracker.stats["flows"] == 1


class TestStraySegments:
    """A segment for an unknown five-tuple opens a connection only if
    it carries SYN or payload (the tail of a closed connection must not
    become a phantom flow)."""

    def _clean_close(self, tracker):
        """SYN, SYN-ACK, ACK, data up, data down, FIN-ACK up, ACK,
        FIN-ACK down: returns the record the eighth segment completes."""
        _handshake(tracker)
        tracker.feed(_pkt(0.1, CLIENT, SERVER, 40000, 80, TCP_ACK, b"x" * 18))
        tracker.feed(_pkt(0.2, SERVER, CLIENT, 80, 40000, TCP_ACK, b"y" * 19))
        tracker.feed(_pkt(0.3, CLIENT, SERVER, 40000, 80, TCP_FIN | TCP_ACK))
        tracker.feed(_pkt(0.4, SERVER, CLIENT, 80, 40000, TCP_ACK))
        return tracker.feed(
            _pkt(0.7, SERVER, CLIENT, 80, 40000, TCP_FIN | TCP_ACK)
        )

    def test_last_ack_of_a_clean_close_opens_nothing(self):
        tracker = TcpFlowTracker()
        record = self._clean_close(tracker)
        assert (record.packets, record.bytes_up, record.bytes_down) == (
            8, 18, 19
        )
        # The last ACK of the four-way close arrives after the flow
        # was emitted.
        assert tracker.feed(
            _pkt(0.8, CLIENT, SERVER, 40000, 80, TCP_ACK)
        ) is None
        assert tracker.active_count == 0 and tracker.flush() == []
        assert tracker.stats == {
            "packets": 9, "midstream": 0, "flows": 1, "stray": 1,
        }

    def test_retransmitted_fin_and_late_rst_open_nothing(self):
        tracker = TcpFlowTracker()
        self._clean_close(tracker)
        for flags in (TCP_FIN | TCP_ACK, TCP_RST, TCP_RST | TCP_ACK):
            assert tracker.feed(
                _pkt(0.9, SERVER, CLIENT, 80, 40000, flags)
            ) is None
        assert tracker.flush() == []
        assert tracker.stats["stray"] == 3 and tracker.stats["flows"] == 1

    def test_payload_or_syn_still_opens(self):
        tracker = TcpFlowTracker()
        tracker.feed(_pkt(0.0, CLIENT, SERVER, 40001, 80, TCP_ACK, b"late"))
        tracker.feed(_pkt(0.0, SERVER, CLIENT, 443, 40002, TCP_SYN | TCP_ACK))
        assert tracker.active_count == 2 and tracker.stats["stray"] == 0
        assert {r.fid.dst_port for r in tracker.flush()} == {80, 443}


class TestPayloadCapture:
    # Named for the payload-capture knob it used to test beside this
    # guard (deleted with the knob); kept so the test id is stable.
    def test_rejects_non_tcp(self):
        tracker = TcpFlowTracker()
        from repro.net.packet import build_udp_packet

        udp = decode_frame(0.0, build_udp_packet(0.0, 1, 2, 53, 53, b""))
        with pytest.raises(ValueError):
            tracker.feed(udp)
