"""Multi-process fan-out: differential equality, streaming, lifecycle."""

import random

import pytest

from repro.net.flow import (
    DnsObservation,
    FiveTuple,
    FlowRecord,
    Protocol,
    TransportProto,
)
from repro.sniffer.eventcodec import encode_events
from repro.sniffer.fanout import (
    FanoutError,
    FanoutPipeline,
    shard_of,
)
from repro.sniffer.pipeline import SnifferPipeline
from repro.sniffer.resolver import DnsResolver, fuse_key


def make_events(n_events=3000, n_clients=40, n_servers=120, seed=3):
    """Interleaved DNS/flow stream with enough key reuse to get hits."""
    rng = random.Random(seed)
    clients = [0x0A000100 + i for i in range(n_clients)]
    servers = [0x55000000 + i * 7 for i in range(n_servers)]
    events = []
    t = 0.0
    for i in range(n_events):
        t += rng.random()
        client = rng.choice(clients)
        if rng.random() < 0.45:
            answers = rng.sample(servers, rng.randint(1, 4))
            if rng.random() < 0.03:
                answers = []          # empty responses stop at the sniffer
            events.append(
                DnsObservation(
                    timestamp=t,
                    client_ip=client,
                    fqdn=f"host{i % 97}.svc{i % 13}.example.com",
                    answers=answers,
                )
            )
        else:
            events.append(
                FlowRecord(
                    fid=FiveTuple(
                        client, rng.choice(servers),
                        rng.randrange(1024, 65535), 443,
                        TransportProto.TCP,
                    ),
                    start=t,
                    end=t + 1.0,
                    protocol=rng.choice(
                        [Protocol.HTTP, Protocol.TLS, Protocol.P2P]
                    ),
                )
            )
    return events


def run_single(events, clist_size=4096, warmup=300.0):
    pipeline = SnifferPipeline(clist_size=clist_size, warmup=warmup)
    pipeline.process_events(events)
    return pipeline


def run_fanout(fanout, events):
    """Feed a whole stream through a fresh pool and merge its report."""
    with fanout:
        fanout.feed_events(events)
        return fanout.collect()


def assert_report_matches(report, single):
    assert report.tag_stats.hits == single.tagger.stats.hits
    assert report.tag_stats.misses == single.tagger.stats.misses
    assert (
        report.tag_stats.warmup_skipped
        == single.tagger.stats.warmup_skipped
    )
    ours = report.resolver_stats
    theirs = single.resolver.stats
    assert ours.responses == theirs.responses
    assert ours.answers == theirs.answers
    assert ours.lookups == theirs.lookups
    assert ours.hits == theirs.hits
    assert ours.replacements == theirs.replacements
    assert (
        report.empty_answers
        == single.dns_sniffer.stats["empty_answers"]
    )


class TestDifferential:
    @pytest.mark.parametrize("processes", [2, 4])
    def test_merged_stats_equal_single_process(self, processes):
        events = make_events()
        single = run_single(events)
        fanout = FanoutPipeline(
            processes=processes, clist_size=4096, batch_events=256,
        )
        report = run_fanout(fanout, events)
        assert report.events == len(events)
        assert report.processes == processes
        assert sum(report.worker_events) == len(events)
        assert_report_matches(report, single)

    def test_report_helpers(self):
        events = make_events(n_events=1500, seed=7)
        single = run_single(events, warmup=0.0)
        report = run_fanout(FanoutPipeline(
            processes=2, clist_size=4096, warmup=0.0, batch_events=500
        ), events)
        assert report.hit_counts_by_protocol() == (
            single.hit_counts_by_protocol()
        )
        assert report.tagged_flows == single.resolver.stats.hits


class TestStreaming:
    def test_incremental_feed_and_snapshots(self):
        events = make_events(n_events=800, seed=11)
        single = run_single(events)
        with FanoutPipeline(
            processes=2, clist_size=4096, batch_events=16, max_pending=1
        ) as fanout:
            half = len(events) // 2
            for event in events[:half]:
                fanout.feed(event)
            # A mid-stream snapshot sees exactly the events fed so far.
            partial = fanout.collect()
            assert partial.events == half
            for event in events[half:]:
                fanout.feed(event)
            report = fanout.collect()
            assert_report_matches(report, single)

    def test_reset_gives_fresh_state(self):
        events = make_events(n_events=600, seed=13)
        single = run_single(events)
        with FanoutPipeline(
            processes=2, clist_size=4096, batch_events=64
        ) as fanout:
            fanout.feed_events(events)
            first = fanout.collect()
            fanout.reset()
            assert fanout.collect().events == 0
            fanout.feed_events(events)
            second = fanout.collect()
        assert first.events == second.events == len(events)
        assert_report_matches(second, single)

    def test_pre_encoded_ingest(self):
        events = make_events(n_events=900, seed=17)
        single = run_single(events)
        payloads = FanoutPipeline.encode_shards(events, 2, batch_events=128)
        trace_start = next(
            event.start for event in events
            if isinstance(event, FlowRecord)
        )
        with FanoutPipeline(
            processes=2, clist_size=4096, batch_events=128
        ) as fanout:
            fanout.set_trace_start(trace_start)
            for shard, batches in enumerate(payloads):
                for payload in batches:
                    fanout.send_encoded(shard, payload)
            report = fanout.collect()
        assert_report_matches(report, single)

    def test_shard_routing_is_the_low_octet_modulo(self):
        clients = [0, 1, 3, 255, 256, 0x0A000105, 0xFFFFFFFF]
        assert [shard_of(ip, 4) for ip in clients] == [0, 1, 3, 3, 0, 1, 3]
        assert [shard_of(ip, 3) for ip in clients] == [0, 1, 0, 0, 0, 2, 0]


class TestLifecycle:
    def test_close_is_idempotent(self):
        fanout = FanoutPipeline(processes=2, clist_size=64)
        fanout.start()
        assert fanout.started
        fanout.close()
        assert not fanout.started
        fanout.close()

    def test_feed_requires_start(self):
        fanout = FanoutPipeline(processes=2, clist_size=64)
        with pytest.raises(FanoutError):
            fanout.feed_dns(1, "x.com", [2])

    def test_dead_worker_is_reported(self):
        events = make_events(n_events=50, seed=19)
        fanout = FanoutPipeline(
            processes=2, clist_size=64, batch_events=4
        )
        fanout.start()
        try:
            fanout._procs[0].terminate()
            fanout._procs[0].join(timeout=5)
            with pytest.raises(FanoutError, match="died"):
                fanout.feed_events(events)
                fanout.collect()
        finally:
            fanout.close()

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            FanoutPipeline(processes=0)
        with pytest.raises(ValueError):
            FanoutPipeline(batch_events=0)
        with pytest.raises(ValueError):
            FanoutPipeline(max_pending=0)


class TestPipelineIntegration:
    def test_process_events_fanout_mode(self):
        events = make_events(n_events=1000, seed=23)
        single = run_single(events)
        pipeline = SnifferPipeline(
            clist_size=4096, processes=2, batch_events=100
        )
        flows = pipeline.process_events(events)
        pipeline.close()
        assert flows == []  # aggregate mode: no materialised records
        assert pipeline.fanout_report is not None
        assert pipeline.tagger.stats.hits == single.tagger.stats.hits
        assert pipeline.tagger.stats.misses == single.tagger.stats.misses
        assert (
            pipeline.hit_counts_by_protocol()
            == single.hit_counts_by_protocol()
        )

    def test_chunked_calls_match_single_stream(self):
        """Resolver state persists across calls exactly as in-process:
        feeding the stream in chunks labels like feeding it whole."""
        events = make_events(n_events=900, seed=29)
        single = run_single(events)
        pipeline = SnifferPipeline(
            clist_size=4096, processes=2, batch_events=64
        )
        try:
            third = len(events) // 3
            pipeline.process_events(events[:third])
            pipeline.process_events(events[third:2 * third])
            pipeline.process_events(events[2 * third:])
            assert pipeline.tagger.stats.hits == single.tagger.stats.hits
            assert (
                pipeline.tagger.stats.misses == single.tagger.stats.misses
            )
            assert (
                pipeline.tagger.stats.warmup_skipped
                == single.tagger.stats.warmup_skipped
            )
            assert (
                pipeline.dns_sniffer.stats["empty_answers"]
                == single.dns_sniffer.stats["empty_answers"]
            )
            assert pipeline.fanout_report.events == len(events)
        finally:
            pipeline.close()

    def test_process_batches_matches_single_stream(self):
        """The payload-level entry feeds the pool like the event one."""
        events = make_events(n_events=900, seed=41)
        single = run_single(events)
        pipeline = SnifferPipeline(
            clist_size=4096, processes=2, batch_events=64
        )
        try:
            pipeline.process_batches(
                encode_events(events[pos:pos + 250])
                for pos in range(0, len(events), 250)
            )
            assert pipeline.fanout_report.events == len(events)
            assert pipeline.tagger.stats == single.tagger.stats
            assert (
                pipeline.dns_sniffer.stats["empty_answers"]
                == single.dns_sniffer.stats["empty_answers"]
            )
        finally:
            pipeline.close()

    def test_close_and_restart_starts_fresh(self):
        events = make_events(n_events=400, seed=31)
        pipeline = SnifferPipeline(
            clist_size=4096, processes=2, batch_events=64
        )
        try:
            pipeline.process_events(events)
            first = pipeline.fanout_report
            pipeline.close()
            pipeline.process_events(events)
            # The restarted pool reports only its own events; absorbed
            # totals keep accumulating across the restart.
            assert pipeline.fanout_report.events == len(events)
            total = sum(
                pipeline.tagger.stats.hits.values()
            ) + sum(pipeline.tagger.stats.misses.values())
            per_run = sum(first.tag_stats.hits.values()) + sum(
                first.tag_stats.misses.values()
            )
            assert total == 2 * per_run
        finally:
            pipeline.close()

    @pytest.mark.parametrize("entry", ["process_frames", "process_packets"])
    def test_packet_path_is_refused_before_the_first_frame(self, entry):
        consumed = []

        def frames():
            consumed.append(True)
            yield from ()

        pipeline = SnifferPipeline(clist_size=64, processes=2)
        with pytest.raises(ValueError, match="packet path"):
            getattr(pipeline, entry)(frames())
        assert not consumed
        assert pipeline._fanout is None  # no worker was started
        pipeline.close()

    def test_incompatible_knobs(self):
        from repro.sniffer.policy import PolicyEnforcer

        with pytest.raises(ValueError):
            SnifferPipeline(processes=2, policy=PolicyEnforcer())
        with pytest.raises(ValueError):
            SnifferPipeline(processes=0)

    def test_flow_store_is_refused_before_the_store_exists(self, tmp_path):
        directory = tmp_path / "store"
        with pytest.raises(ValueError, match="flow store"):
            SnifferPipeline(processes=2, flow_store=directory)
        assert not directory.exists()

    def test_opened_flow_store_is_refused_untouched(self, tmp_path):
        from repro.analytics.storage import FlowStore

        store = FlowStore(tmp_path / "store")
        before = store.version()
        with pytest.raises(ValueError, match="flow store"):
            SnifferPipeline(processes=2, flow_store=store)
        assert store.version() == before and len(store) == 0
        store.close()

    def test_emits_no_tagged_batches(self):
        """The pool keeps no per-flow records, so there is nothing for
        the Flow Database feed."""
        pipeline = SnifferPipeline(
            clist_size=4096, processes=2, batch_events=64
        )
        try:
            pipeline.process_events(make_events(n_events=300, seed=37))
            assert pipeline.fanout_report.flows > 0
            assert pipeline.emit_tagged_batches() == []
        finally:
            pipeline.close()


class TestRemovedKeywords:
    """The durable, label-histogram and packet-path fan-out options are
    gone; passing one is a ``TypeError`` like any unknown keyword."""

    @pytest.mark.parametrize(
        "keyword", ["collect_labels", "collect_flows", "monitored_clients"]
    )
    def test_sniffer_pipeline(self, keyword):
        with pytest.raises(TypeError, match=keyword):
            SnifferPipeline(**{keyword: None})

    @pytest.mark.parametrize(
        "keyword",
        ["flow_store", "collect_labels", "collect_flows", "use_numpy"],
    )
    def test_fanout_pipeline(self, keyword):
        with pytest.raises(TypeError, match=keyword):
            FanoutPipeline(**{keyword: None})

    def test_sniff_pcap(self, tmp_path):
        from repro.sniffer.cli import sniff_pcap

        with pytest.raises(TypeError, match="processes"):
            sniff_pcap(str(tmp_path / "absent.pcap"), processes=2)

    def test_dns_sniffer(self):
        from repro.sniffer.dns_sniffer import DnsResponseSniffer

        with pytest.raises(TypeError, match="monitored_clients"):
            DnsResponseSniffer(DnsResolver(8), monitored_clients=None)


class TestLookupKey:
    def test_matches_lookup(self):
        resolver = DnsResolver(clist_size=128)
        rng = random.Random(1)
        inserted = []
        for i in range(200):
            client = rng.randrange(1, 50)
            answers = [rng.randrange(1, 1 << 32) for _ in range(2)]
            resolver.insert(client, f"h{i}.example.com", answers)
            inserted.append((client, answers[0]))
        probes = inserted + [(9999, 1), (1, 0xDEADBEEF)]
        for client, server in probes:
            expected = resolver.peek(client, server)
            assert resolver.lookup_key(fuse_key(client, server)) == expected
            assert resolver.lookup(client, server) == expected

    def test_counts_statistics(self):
        resolver = DnsResolver(clist_size=8)
        resolver.insert(1, "a.com", [7])
        before = resolver.stats
        assert resolver.lookup_key(fuse_key(1, 7)) == "a.com"
        assert resolver.lookup_key(fuse_key(1, 8)) is None
        after = resolver.stats
        assert after.lookups == before.lookups + 2
        assert after.hits == before.hits + 1


class TestEmitTaggedBatches:
    def test_single_process(self):
        from repro.analytics.database import FlowDatabase

        events = make_events(500, seed=5)
        pipeline = run_single(events)
        payloads = pipeline.emit_tagged_batches(batch_events=128)
        database = FlowDatabase.from_batches(payloads)
        assert list(database) == pipeline.tagged_flows
