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

    @pytest.mark.parametrize("entry", ["packets", "frames"])
    def test_cleanly_closed_connection_is_stored_once(self, entry):
        """The last ACK of a four-way close arrives after the flow was
        emitted; it used to be picked up "mid-stream" as a second,
        one-packet flow."""
        segments = [
            (0.0, CLIENT, WEB, 40002, 80, TCP_SYN, b""),
            (0.1, WEB, CLIENT, 80, 40002, TCP_SYN | TCP_ACK, b""),
            (0.2, CLIENT, WEB, 40002, 80, TCP_ACK, b""),
            (0.3, CLIENT, WEB, 40002, 80, TCP_ACK, b"GET / HTTP/1.1\r\n\r\n"),
            (0.4, WEB, CLIENT, 80, 40002, TCP_ACK, b"HTTP/1.1 200 OK\r\n\r\n"),
            (0.5, CLIENT, WEB, 40002, 80, TCP_FIN | TCP_ACK, b""),
            (0.6, WEB, CLIENT, 80, 40002, TCP_ACK, b""),
            (0.7, WEB, CLIENT, 80, 40002, TCP_FIN | TCP_ACK, b""),
            (0.8, CLIENT, WEB, 40002, 80, TCP_ACK, b""),
        ]
        frames = [
            (ts, build_tcp_packet(ts, src, dst, sport, dport, flags,
                                  payload=payload))
            for ts, src, dst, sport, dport, flags, payload in segments
        ]
        pipeline = SnifferPipeline(clist_size=64, warmup=0.0)
        if entry == "frames":
            flows = pipeline.process_frames(frames)
        else:
            flows = pipeline.process_packets(
                decode_frame(ts, data) for ts, data in frames
            )
        assert len(flows) == 1
        assert (flows[0].packets, flows[0].bytes_up, flows[0].bytes_down) == (
            8, 18, 19
        )
        assert (flows[0].start, flows[0].end) == (0.0, 0.7)
        assert pipeline.flow_sniffer.tcp_stats == {
            "packets": 9, "midstream": 0, "flows": 1, "stray": 1,
        }


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
        assert pipeline.hit_counts_by_protocol()[Protocol.HTTP] == (1, 1)

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
    """emit_tagged_batches drains: each call returns only
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


def _event_stream(n: int = 600) -> list:
    """DNS responses (some empty, 1-3 answers) interleaved with flows,
    a third of them to servers nobody resolved."""
    events = []
    for i in range(n):
        client = 10 + i % 11
        if i % 3 == 0:
            events.append(DnsObservation(
                timestamp=float(i), client_ip=client,
                fqdn=f"host{i % 17}.Example{i % 5}.com",
                answers=[500 + (i + k) % 23 for k in range(i % 4)],
            ))
        else:
            events.append(FlowRecord(
                fid=FiveTuple(client, 500 + (i * 7) % 31, 1024 + i,
                              (80, 443)[i % 2], TransportProto.TCP),
                start=float(i), end=float(i) + 1.5,
                protocol=(Protocol.HTTP, Protocol.TLS)[i % 2],
                bytes_up=i, bytes_down=10 * i, packets=3,
                cert_name="cert.example.com" if i % 5 == 0 else None,
            ))
    return events


def _store_answers(database) -> dict:
    return {
        "rows": list(database),
        "tagged": database.tagged_count,
        "span": database.time_span(),
        "protocols": database.count_by_protocol(),
        "fqdns": database.fqdns(),
        "servers": {fqdn: database.servers_for_fqdn(fqdn)
                    for fqdn in database.fqdns()},
        "window": database.query_in_window(100.0, 400.0),
    }


class TestLazilySlicedEventLoop:
    """With a store attached ``process_events`` hands the loops lazy
    slices of the source (never a materialised chunk); whatever the
    chunk size, the result equals one store-less pass over a list."""

    @pytest.mark.parametrize("batch_events", [1, 7, 8192])
    def test_generator_into_store_equals_list_without_store(
        self, tmp_path, batch_events
    ):
        from repro.analytics.database import FlowDatabase
        from repro.analytics.storage import FlowStore

        plain = SnifferPipeline(clist_size=64, warmup=50.0)
        expected = FlowDatabase.from_flows(
            plain.process_events(_event_stream())
        )
        store = FlowStore(tmp_path / "store", spill_rows=128)
        durable = SnifferPipeline(
            clist_size=64, warmup=50.0, flow_store=store,
            retain_flows=False, batch_events=batch_events,
        )
        drains = []
        durable.store_drain_hook = lambda batches, rows: drains.append(rows)
        returned = durable.process_events(
            event for event in _event_stream()
        )
        assert returned == []  # everything drained, nothing retained
        durable.close()
        assert durable.resolver.stats == plain.resolver.stats
        assert durable.tagger.stats == plain.tagger.stats
        assert durable.dns_sniffer.stats == plain.dns_sniffer.stats
        assert sum(drains) == len(expected) == len(store)
        # The drain cadence is unchanged: one per 4 x batch_events events.
        assert len(drains) == -(-600 // (4 * batch_events))
        assert _store_answers(store) == _store_answers(expected)
        store.close()

    def test_source_failing_mid_chunk_keeps_what_was_tagged(self, tmp_path):
        from repro.analytics.storage import FlowStore

        events = _event_stream()
        cut = 250

        def failing():
            yield from events[:cut]
            raise OSError("capture source went away")

        plain = SnifferPipeline(clist_size=64, warmup=0.0)
        expected = list(plain.process_events(events[:cut]))
        store = FlowStore(tmp_path / "store")
        durable = SnifferPipeline(
            clist_size=64, warmup=0.0, flow_store=store,
            retain_flows=False, batch_events=100,
        )
        with pytest.raises(OSError, match="went away"):
            durable.process_events(failing())
        # The loop's finally flushed its locals back...
        assert durable.resolver.stats == plain.resolver.stats
        assert durable.tagger.stats == plain.tagger.stats
        # ...and the flows tagged before the failure are not lost.
        durable.close()
        assert list(store) == expected
        store.close()


class TestRejectedFlowKeepsItsWindow:
    """A flow the codec rejects is skipped once; the other flows of its
    drain window still reach the store (regression: the cursor used to
    pass the whole window before a single flow was encoded)."""

    @staticmethod
    def _flow(port, start, bytes_up=0):
        return FlowRecord(
            FiveTuple(CLIENT, WEB, port, 80, TransportProto.TCP),
            start, bytes_up=bytes_up,
        )

    def test_store_drain_keeps_the_good_flows(self, tmp_path):
        from repro.analytics.storage import FlowStore
        from repro.sniffer.eventcodec import CodecError

        pipeline = SnifferPipeline(
            clist_size=100, warmup=0.0, flow_store=tmp_path / "store",
            batch_events=4,
        )
        with pytest.raises(CodecError):
            pipeline.process_events([
                DnsObservation(1.0, CLIENT, "www.example.com", [WEB]),
                self._flow(40001, 1.1),
                self._flow(40002, 1.2, bytes_up=-1),
                self._flow(40003, 1.3),
                self._flow(40004, 1.4),
            ])
        # A later drain neither re-raises for the rejected flow nor
        # stores an earlier one again.
        pipeline.process_events(
            [self._flow(40005, 2.0), self._flow(40006, 2.1)]
        )
        pipeline.close()
        store = FlowStore(tmp_path / "store")
        assert sorted(flow.fid.src_port for flow in store) == [
            40001, 40003, 40004, 40005, 40006,
        ]
        assert {flow.fqdn for flow in store} == {"www.example.com"}
        store.close()

    def test_emit_returns_the_flows_before_a_rejected_one(self):
        from repro.sniffer.eventcodec import CodecError, decode_events

        pipeline = SnifferPipeline(clist_size=100, warmup=0.0)
        pipeline.process_events([
            self._flow(40001, 1.1),
            self._flow(40002, 1.2, bytes_up=-1),
            self._flow(40003, 1.3),
        ])

        def ports(payloads):
            return [
                event.fid.src_port
                for payload in payloads for event in decode_events(payload)
            ]

        assert ports(pipeline.emit_tagged_batches(batch_events=2)) == [40001]
        with pytest.raises(CodecError):
            pipeline.emit_tagged_batches(batch_events=2)
        assert ports(pipeline.emit_tagged_batches(batch_events=2)) == [40003]
        assert pipeline.emit_tagged_batches() == []


class TestFailedIngestKeepsItsWindow:
    """A store batch whose ``ingest_batch`` raises is not retried (the
    store may have committed it before failing), but the batches after
    it in the same drain window still reach the store (regression: the
    cursor used to pass the whole window before the first ingest)."""

    class _FirstIngestFails:
        def __init__(self, store):
            self.store = store
            self.calls = 0

        def ingest_batch(self, payload):
            self.calls += 1
            if self.calls == 1:
                raise OSError("no space left on device")
            return self.store.ingest_batch(payload)

        def flush(self):
            self.store.flush()

    @staticmethod
    def _flow(port):
        return FlowRecord(
            FiveTuple(CLIENT, WEB, port, 80, TransportProto.TCP),
            1.0 + port % 10,
        )

    def _failing_window(self, tmp_path, retain_flows):
        """A pipeline whose first store batch failed; three flows were
        in that drain window."""
        from repro.analytics.storage import FlowStore

        store = FlowStore(tmp_path / "store")
        failing = self._FirstIngestFails(store)
        # batch_events=1: one store batch per flow, and the four events
        # below are one chunk of the event loop, so one drain window.
        pipeline = SnifferPipeline(
            clist_size=100, warmup=0.0, flow_store=failing,
            batch_events=1, retain_flows=retain_flows,
        )
        drains = []
        pipeline.store_drain_hook = (
            lambda batches, rows: drains.append((batches, rows))
        )
        with pytest.raises(OSError, match="no space"):
            pipeline.process_events([
                DnsObservation(1.0, CLIENT, "www.example.com", [WEB]),
                *(self._flow(port) for port in (40001, 40002, 40003)),
            ])
        assert failing.calls == 1 and drains == []
        return pipeline, store, failing, drains

    @pytest.mark.parametrize("retain_flows", [True, False])
    def test_close_stores_the_rest_of_the_window(
        self, tmp_path, retain_flows
    ):
        pipeline, store, failing, drains = self._failing_window(
            tmp_path, retain_flows
        )
        pipeline.close()
        assert failing.calls == 3
        assert drains == [(2, 2)]  # only what the store took
        assert [flow.fid.src_port for flow in store] == [40002, 40003]
        assert {flow.fqdn for flow in store} == {"www.example.com"}
        store.close()

    @pytest.mark.parametrize("retain_flows", [True, False])
    def test_next_drain_stores_the_rest_first(self, tmp_path, retain_flows):
        pipeline, store, failing, drains = self._failing_window(
            tmp_path, retain_flows
        )
        pipeline.process_events([self._flow(40004)])
        assert drains == [(3, 3)]
        assert [flow.fid.src_port for flow in store] == [
            40002, 40003, 40004,
        ]
        pipeline.close()
        assert failing.calls == 4 and len(store) == 3
        store.close()


def test_batch_encoder_slot_cache_is_invisible():
    """``BatchEncoder`` encodes each distinct string slot once; reusing
    an encoder across ``take()`` must emit the bytes a fresh one does."""
    from repro.sniffer.eventcodec import BatchEncoder, encode_events

    flows = [
        FlowRecord(
            fid=FiveTuple(i, 9, 1000 + i, 443, TransportProto.TCP),
            start=float(i),
            fqdn=("cdn.example.com", None, "é.example.fr", "")[i % 4],
            cert_name=("cert.example.com", None)[i % 2],
            true_fqdn=(None, "cdn.example.com", None)[i % 3],
        )
        for i in range(24)
    ]
    reused = BatchEncoder()
    reused.add_events(flows[:13])
    first = reused.take()
    reused.add_events(flows[13:])
    assert first == encode_events(flows[:13])
    assert reused.take() == encode_events(flows[13:])
