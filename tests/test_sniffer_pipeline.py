"""Integration tests: the assembled sniffer pipeline on both paths."""

import pytest

from repro.dns.message import DnsMessage
from repro.dns.records import a_record
from repro.dns.wire import encode_message
from repro.net.flow import (
    DnsObservation,
    FiveTuple,
    FlowRecord,
    Protocol,
    TransportProto,
)
from repro.net.ip import ip_from_str
from repro.net.packet import (
    TCP_ACK,
    TCP_FIN,
    TCP_SYN,
    build_tcp_packet,
    build_udp_packet,
    decode_frame,
)
from repro.sniffer.pipeline import SnifferPipeline
from repro.sniffer.policy import PolicyAction, PolicyEnforcer, PolicyRule

CLIENT = ip_from_str("10.1.0.5")
DNS_SERVER = ip_from_str("10.1.0.1")
WEB = ip_from_str("93.184.216.34")


def _packets_for_session(fqdn="www.example.com"):
    """A DNS response followed by a complete TCP session to the answer."""
    query = DnsMessage.query(9, fqdn)
    response = DnsMessage.response_to(query, [a_record(fqdn, WEB, ttl=60)])
    packets = [
        decode_frame(
            1.0,
            build_udp_packet(
                1.0, DNS_SERVER, CLIENT, 53, 40001, encode_message(response)
            ),
        )
    ]
    flow = [
        (1.2, CLIENT, WEB, 40002, 80, TCP_SYN, b""),
        (1.25, WEB, CLIENT, 80, 40002, TCP_SYN | TCP_ACK, b""),
        (1.3, CLIENT, WEB, 40002, 80, TCP_ACK, b"GET / HTTP/1.1\r\n"),
        (1.4, WEB, CLIENT, 80, 40002, TCP_ACK, b"HTTP/1.1 200 OK\r\n"),
        (1.5, CLIENT, WEB, 40002, 80, TCP_FIN | TCP_ACK, b""),
        (1.6, WEB, CLIENT, 80, 40002, TCP_FIN | TCP_ACK, b""),
    ]
    for ts, src, dst, sport, dport, flags, payload in flow:
        packets.append(
            decode_frame(
                ts,
                build_tcp_packet(
                    ts, src, dst, sport, dport, flags, payload=payload
                ),
            )
        )
    return packets


class TestPacketPath:
    def test_end_to_end_tagging(self):
        pipeline = SnifferPipeline(clist_size=64, warmup=0.0)
        flows = pipeline.process_packets(_packets_for_session())
        assert len(flows) == 1
        assert flows[0].fqdn == "www.example.com"
        assert flows[0].bytes_up > 0

    def test_flow_without_dns_untagged(self):
        pipeline = SnifferPipeline(clist_size=64, warmup=0.0)
        packets = [
            decode_frame(
                0.0, build_tcp_packet(0.0, CLIENT, WEB, 40009, 80, TCP_SYN)
            )
        ]
        flows = pipeline.process_packets(packets)
        assert len(flows) == 1
        assert flows[0].fqdn is None

    def test_policy_blocks_on_packet_path(self):
        policy = PolicyEnforcer(
            rules=[PolicyRule("*.example.com", PolicyAction.BLOCK)]
        )
        pipeline = SnifferPipeline(clist_size=64, warmup=0.0, policy=policy)
        flows = pipeline.process_packets(_packets_for_session())
        assert flows == []
        assert len(pipeline.blocked_flows) == 1
        assert policy.stats["blocked"] == 1


class TestEventPath:
    def test_events_tag_like_packets(self):
        pipeline = SnifferPipeline(clist_size=64, warmup=0.0)
        events = [
            DnsObservation(1.0, CLIENT, "www.example.com", [WEB]),
            FlowRecord(
                fid=FiveTuple(CLIENT, WEB, 40002, 80, TransportProto.TCP),
                start=1.2,
                protocol=Protocol.HTTP,
            ),
        ]
        flows = pipeline.process_events(events)
        assert flows[0].fqdn == "www.example.com"
        assert pipeline.hit_ratio_by_protocol()[Protocol.HTTP] == 1.0

    def test_rejects_unknown_event(self):
        pipeline = SnifferPipeline()
        with pytest.raises(TypeError):
            pipeline.process_events([object()])

    def test_hit_counts(self):
        pipeline = SnifferPipeline(clist_size=64, warmup=0.0)
        events = [
            DnsObservation(1.0, CLIENT, "a.com", [WEB]),
            FlowRecord(
                fid=FiveTuple(CLIENT, WEB, 1, 80, TransportProto.TCP),
                start=1.2,
                protocol=Protocol.HTTP,
            ),
            FlowRecord(
                fid=FiveTuple(CLIENT, WEB + 1, 2, 80, TransportProto.TCP),
                start=1.3,
                protocol=Protocol.HTTP,
            ),
        ]
        pipeline.process_events(events)
        hits, total = pipeline.hit_counts_by_protocol()[Protocol.HTTP]
        assert (hits, total) == (1, 2)

    @pytest.mark.parametrize("batch_events", [0, -5])
    @pytest.mark.parametrize("processes", [1, 2])
    def test_batch_events_must_be_positive(self, processes, batch_events):
        """One validation for both modes: single-process, 0 used to be
        accepted and silently cut one store batch per flow."""
        with pytest.raises(ValueError, match="batch_events"):
            SnifferPipeline(processes=processes, batch_events=batch_events)

    def test_process_trace_duck_typing(self):
        class FakeTrace:
            def iter_events(self):
                yield DnsObservation(1.0, CLIENT, "x.com", [WEB])
                yield FlowRecord(
                    fid=FiveTuple(CLIENT, WEB, 5, 443, TransportProto.TCP),
                    start=2.0,
                    protocol=Protocol.TLS,
                )

        pipeline = SnifferPipeline(clist_size=8, warmup=0.0)
        flows = pipeline.process_trace(FakeTrace())
        assert flows[0].fqdn == "x.com"


class TestPacketEventEquivalence:
    def test_same_label_both_paths(self):
        """The fast event path must produce the same labels as the
        packet path for an identical session."""
        packet_pipeline = SnifferPipeline(clist_size=64, warmup=0.0)
        packet_flows = packet_pipeline.process_packets(_packets_for_session())

        event_pipeline = SnifferPipeline(clist_size=64, warmup=0.0)
        event_flows = event_pipeline.process_events(
            [
                DnsObservation(1.0, CLIENT, "www.example.com", [WEB]),
                FlowRecord(
                    fid=FiveTuple(CLIENT, WEB, 40002, 80, TransportProto.TCP),
                    start=1.2,
                ),
            ]
        )
        assert packet_flows[0].fqdn == event_flows[0].fqdn
        assert packet_flows[0].fid == event_flows[0].fid


class TestEmitTaggedBatchesDrains:
    """emit_tagged_batches drains in both modes: each call returns only
    the flows tagged since the previous call (regression: the
    single-process path used to re-emit the full list every call)."""

    def test_single_process_emit_is_incremental(self):
        from repro.analytics.database import FlowDatabase
        from repro.net.flow import DnsObservation

        def burst(base_ts):
            return [
                DnsObservation(timestamp=base_ts, client_ip=7,
                               fqdn="svc.example.com", answers=[42]),
                FlowRecord(
                    fid=FiveTuple(7, 42, 40000, 80, TransportProto.TCP),
                    start=base_ts + 1.0,
                ),
            ]

        pipeline = SnifferPipeline(clist_size=128)
        database = FlowDatabase()
        pipeline.process_events(burst(0.0))
        for payload in pipeline.emit_tagged_batches():
            database.ingest_batch(payload)
        pipeline.process_events(burst(1000.0))
        for payload in pipeline.emit_tagged_batches():
            database.ingest_batch(payload)
        assert pipeline.emit_tagged_batches() == []
        assert len(database) == len(pipeline.tagged_flows) == 2
        assert list(database) == pipeline.tagged_flows
