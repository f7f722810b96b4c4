"""Differential tests: flat resolver vs. the seed reference (Alg. 1).

The optimised flat-key resolver in ``repro.sniffer.resolver`` must be
observationally identical to the seed implementation retained in
``repro.sniffer.resolver_reference``: same lookup results, same label
histories, same statistics, over arbitrary interleavings of inserts,
lookups and circular-list wraps.  These tests drive both structures
with seeded-random operation streams (10k+ mixed operations) and
compare them exhaustively, running the structural invariant checks
after every wrap.

The flat sniffer event loop re-inlines the resolver's insert/lookup
bodies for speed, so a second differential holds the flat pipeline to
the modular pipeline over random event streams; the fan-out worker's
batch consume loop inlines them once more, so a third holds
``_WorkerState.consume`` to the flat loop on the same wrapping Clist.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.flow import (
    DnsObservation,
    FiveTuple,
    FlowRecord,
    Protocol,
    TransportProto,
)
from repro.sniffer.eventcodec import PROTOCOLS, decode_events, encode_events
from repro.sniffer.fanout import _WorkerState, _np
from repro.sniffer.pipeline import SnifferPipeline
from repro.sniffer.policy import PolicyEnforcer
from repro.sniffer.resolver import DnsResolver
from repro.sniffer.resolver_reference import DnsResolver as ReferenceResolver


def _random_ops(rng, count, clients=6, servers=24, fqdns=40):
    """A mixed operation stream: ~60% inserts, ~40% lookups.

    Inserts include duplicate-laden and empty answer lists so the
    dedup-before-slot behaviour is exercised.
    """
    ops = []
    for _ in range(count):
        if rng.random() < 0.6:
            n = rng.choice((0, 1, 1, 1, 2, 2, 3, 4, 8))
            answers = [rng.randrange(servers) for _ in range(n)]
            if answers and rng.random() < 0.3:  # duplicate-heavy response
                answers += [rng.choice(answers)] * rng.randint(1, 3)
            ops.append(
                (
                    "insert",
                    rng.randrange(clients),
                    f"site{rng.randrange(fqdns)}.example.com",
                    answers,
                    rng.random() * 1000.0,
                )
            )
        else:
            ops.append(
                ("lookup", rng.randrange(clients), rng.randrange(servers))
            )
    return ops


def _drive(fast, reference, ops, clist_size, check_every_wrap=True):
    """Apply ``ops`` to both resolvers, comparing as we go."""
    for op in ops:
        if op[0] == "insert":
            _, client, fqdn, answers, ts = op
            fast.insert(client, fqdn, answers, ts)
            reference.insert(client, fqdn, list(answers), ts)
            burned = fast._floor + clist_size
            if answers and check_every_wrap and burned % clist_size == 0:
                fast.check_invariants()
                reference.check_invariants()
                # The sweep's bound: at a wrap no key is older than two
                # Clist turns.
                assert all(
                    b > burned - 2 * clist_size
                    for b in fast._key_to_burn.values()
                )
        else:
            _, client, server = op
            assert fast.lookup(client, server) == reference.lookup(
                client, server
            )


def _compare_full_state(fast, reference, clients, servers):
    for client in range(clients):
        for server in range(servers):
            assert fast.peek(client, server) == reference.peek(
                client, server
            ), (client, server)
            assert fast.lookup_all(client, server) == reference.lookup_all(
                client, server
            ), (client, server)
    assert fast.stats == reference.stats
    assert fast.live_entries == reference.live_entries
    assert fast.client_count == reference.client_count
    for client in range(clients):
        assert fast.server_count(client) == reference.server_count(client)


class TestDifferential10k:
    """The headline differential: 10k mixed ops across Clist sizes."""

    @pytest.mark.parametrize("clist_size", [1, 2, 3, 7, 64, 1024])
    def test_mixed_ops_match_reference(self, clist_size):
        rng = random.Random(clist_size * 1009 + 17)
        fast = DnsResolver(clist_size=clist_size)
        reference = ReferenceResolver(clist_size=clist_size)
        _drive(fast, reference, _random_ops(rng, 10_000), clist_size)
        fast.check_invariants()
        reference.check_invariants()
        _compare_full_state(fast, reference, clients=6, servers=24)

    @pytest.mark.parametrize("depth", [1, 3])
    def test_multilabel_matches_reference(self, depth):
        rng = random.Random(depth * 7919)
        clist_size = 16
        fast = DnsResolver(clist_size=clist_size, multi_label_depth=depth)
        reference = ReferenceResolver(
            clist_size=clist_size, multi_label_depth=depth
        )
        _drive(fast, reference, _random_ops(rng, 10_000), clist_size)
        fast.check_invariants()
        reference.check_invariants()
        _compare_full_state(fast, reference, clients=6, servers=24)

    def test_oldest_entry_age_matches(self):
        fast = DnsResolver(clist_size=8)
        reference = ReferenceResolver(clist_size=8)
        assert fast.oldest_entry_age(5.0) is None
        rng = random.Random(4)
        for step in range(40):
            client = rng.randrange(3)
            answers = [rng.randrange(9)]
            fast.insert(client, "x.com", answers, float(step))
            reference.insert(client, "x.com", answers, float(step))
            assert fast.oldest_entry_age(100.0) == reference.oldest_entry_age(
                100.0
            )


class TestClistEdges:
    """Directed cases at the edge of an entry's life."""

    @pytest.mark.parametrize("depth", [0, 2])
    def test_reannouncing_the_overwritten_entrys_key_is_a_fresh_link(
        self, depth
    ):
        """Alg. 1 unlinks the overwritten entry's keys before linking
        the new response, so a key of that entry is linked afresh, not
        replaced: an entry ``L`` inserts old is already dead."""
        for clist_size in (1, 2, 3):
            fast = DnsResolver(clist_size=clist_size, multi_label_depth=depth)
            reference = ReferenceResolver(
                clist_size=clist_size, multi_label_depth=depth
            )
            ops = [("insert", 1, "old.com", [5, 6], 0.0)]
            ops += [
                ("insert", 1, f"filler{i}.com", [10 + i], 0.0)
                for i in range(clist_size - 1)
            ]
            # The next insert overwrites old.com's slot and re-announces
            # one of its keys.
            ops.append(("insert", 1, "new.com", [5, 7], 0.0))
            _drive(fast, reference, ops, clist_size)
            assert fast.stats == reference.stats
            assert fast.stats.replacements == 0
            assert fast.lookup_all(1, 5) == reference.lookup_all(1, 5)
            assert fast.lookup_all(1, 5) == ["new.com"]
            assert fast.peek(1, 6) is None
            fast.check_invariants()

    def test_dead_keys_history_is_gone(self):
        fast = DnsResolver(clist_size=2, multi_label_depth=2)
        reference = ReferenceResolver(clist_size=2, multi_label_depth=2)
        ops = [
            ("insert", 1, "a.com", [5], 0.0),
            ("insert", 1, "b.com", [5], 0.0),   # history of key 5: a.com
            ("insert", 1, "x.com", [6], 0.0),
            ("insert", 1, "y.com", [7], 0.0),   # b.com's entry is dead
        ]
        _drive(fast, reference, ops, 2)
        assert fast.lookup_all(1, 5) == reference.lookup_all(1, 5) == []
        # Relinked, the key starts a fresh history: neither a.com nor
        # b.com comes back.
        _drive(fast, reference, [("insert", 1, "z.com", [5], 0.0)], 2)
        assert fast.lookup_all(1, 5) == reference.lookup_all(1, 5)
        assert fast.lookup_all(1, 5) == ["z.com"]
        fast.check_invariants()


_hyp_step = st.one_of(
    st.tuples(
        st.just("insert"),
        st.integers(0, 2),
        st.integers(0, 4).map(lambda i: f"s{i}.com"),
        st.lists(st.integers(0, 5), min_size=0, max_size=4),
        st.just(0.0),
    ),
    st.tuples(st.just("lookup"), st.integers(0, 2), st.integers(0, 5)),
)


class TestEveryOperation:
    """After every single operation the whole observable state agrees."""

    @settings(deadline=None, max_examples=150)
    @given(
        clist_size=st.integers(1, 8),
        depth=st.sampled_from([0, 2]),
        ops=st.lists(_hyp_step, min_size=1, max_size=60),
    )
    def test_state_matches_reference_after_each_op(
        self, clist_size, depth, ops
    ):
        fast = DnsResolver(clist_size=clist_size, multi_label_depth=depth)
        reference = ReferenceResolver(
            clist_size=clist_size, multi_label_depth=depth
        )
        for op in ops:
            _drive(fast, reference, [op], clist_size)
            fast.check_invariants()
            _compare_full_state(fast, reference, clients=3, servers=6)


# Hypothesis view of the same property, on tiny Clists where every
# example wraps constantly.
_hyp_ops = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, 9),
        st.lists(st.integers(0, 7), min_size=0, max_size=5),
    ),
    min_size=1,
    max_size=120,
)


class TestDifferentialHypothesis:
    @settings(deadline=None)
    @given(_hyp_ops)
    def test_inserts_match_reference(self, operations):
        fast = DnsResolver(clist_size=4)
        reference = ReferenceResolver(clist_size=4)
        for client, fqdn_id, answers in operations:
            fast.insert(client, f"s{fqdn_id}.com", answers)
            reference.insert(client, f"s{fqdn_id}.com", list(answers))
        fast.check_invariants()
        for client in range(4):
            for server in range(8):
                assert fast.peek(client, server) == reference.peek(
                    client, server
                )
        assert fast.stats == reference.stats


def _random_events(rng, count):
    events = []
    protocols = list(Protocol)
    for i in range(count):
        ts = i * 0.37
        if rng.random() < 0.45:
            events.append(
                DnsObservation(
                    timestamp=ts,
                    client_ip=rng.randrange(8),
                    fqdn=f"host{rng.randrange(30)}.example.com",
                    answers=[
                        rng.randrange(40)
                        for _ in range(rng.choice((0, 1, 1, 2, 3)))
                    ],
                )
            )
        else:
            events.append(
                FlowRecord(
                    fid=FiveTuple(
                        rng.randrange(8),
                        rng.randrange(40),
                        rng.randrange(1024, 65535),
                        rng.choice((80, 443, 6969)),
                        TransportProto.TCP,
                    ),
                    start=ts,
                    protocol=rng.choice(protocols),
                )
            )
    return events


class TestPipelineDifferential:
    """The flat event loop against the modular one."""

    def _modular_pipeline(self, clist_size, warmup):
        # An enforcer without rules forces the modular code path while
        # allowing every flow.
        return SnifferPipeline(
            clist_size=clist_size,
            warmup=warmup,
            policy=PolicyEnforcer(),
        )

    @pytest.mark.parametrize("clist_size,warmup", [(16, 0.0), (64, 100.0)])
    def test_fused_matches_modular(self, clist_size, warmup):
        rng = random.Random(clist_size)
        events = _random_events(rng, 6000)
        fused = SnifferPipeline(clist_size=clist_size, warmup=warmup)
        fused.process_events(events)
        fused.resolver.check_invariants()
        modular = self._modular_pipeline(clist_size, warmup)
        modular.process_events(
            [_copy_event(event) for event in events]
        )
        assert modular.policy.stats["decisions"] == len(
            modular.tagged_flows
        )
        assert len(fused.tagged_flows) == len(modular.tagged_flows)
        for ours, theirs in zip(fused.tagged_flows, modular.tagged_flows):
            assert ours.fqdn == theirs.fqdn
        assert fused.resolver.stats == modular.resolver.stats
        assert fused.tagger.stats.hits == modular.tagger.stats.hits
        assert fused.tagger.stats.misses == modular.tagger.stats.misses
        assert (
            fused.tagger.stats.warmup_skipped
            == modular.tagger.stats.warmup_skipped
        )
        assert (
            fused.dns_sniffer.stats["empty_answers"]
            == modular.dns_sniffer.stats["empty_answers"]
        )

    def test_process_batches_is_process_events_over_the_batches(
        self, tmp_path
    ):
        """The payload-level entry is the adapter the system benchmark's
        phase A runs by hand (ROADMAP 1(b)): same labels, statistics
        and stored bytes, Clist wrapping all the way."""
        from repro.analytics.storage import FlowStore

        events = _random_events(random.Random(24), 4000)
        batches = [
            encode_events(events[start:start + 257])
            for start in range(0, len(events), 257)
        ]
        sides = {}
        for side in ("batches", "events"):
            store = FlowStore(tmp_path / side, spill_rows=300)
            pipeline = SnifferPipeline(
                clist_size=16, warmup=0.0, batch_events=64,
                flow_store=store,
            )
            if side == "batches":
                pipeline.process_batches(iter(batches))
            else:
                pipeline.process_events(
                    event for payload in batches
                    for event in decode_events(payload)
                )
            pipeline.close()
            store.close()
            pipeline.resolver.check_invariants()
            sides[side] = (
                [flow.fqdn for flow in pipeline.tagged_flows],
                pipeline.resolver.stats,
                pipeline.tagger.stats,
                pipeline.dns_sniffer.stats,
                {
                    path.name: path.read_bytes()
                    for path in (tmp_path / side).iterdir()
                },
            )
        assert sides["batches"] == sides["events"]
        labels, resolver_stats, _tagger, _dns, files = sides["batches"]
        assert any(labels) and resolver_stats.replacements > 0
        assert sum(name.endswith(".fseg") for name in files) >= 2


# The worker's eviction branch only runs once its Clist wraps, so every
# stream is several Clists long over a key universe small enough to
# collide; batch boundaries fall wherever the drawn cut sizes put them.
# One drawn integer per event keeps 400-event examples cheap: bit 0
# picks the type, the rest are sliced into the fields below.
_hyp_event_words = st.integers(0, (1 << 27) - 1)
_hyp_cuts = st.lists(st.integers(1, 60), min_size=1, max_size=6)


def _events_from(words, step):
    events = []
    for i, word in enumerate(words):
        ts = i * step
        client = (word >> 1) % 6
        if word & 1:
            events.append(FlowRecord(
                fid=FiveTuple(client, (word >> 4) % 10, 1024 + i, 443,
                              TransportProto.TCP),
                start=ts, end=ts + 1.0,
                protocol=PROTOCOLS[(word >> 8) % len(PROTOCOLS)],
            ))
        else:
            n_answers = (word >> 8) % 5         # 0 = an empty response
            events.append(DnsObservation(
                timestamp=ts, client_ip=client,
                fqdn=f"host{(word >> 4) % 12}.example.com",
                answers=[
                    (word >> (11 + 4 * k)) % 10 for k in range(n_answers)
                ],
            ))
    return events


@pytest.mark.parametrize("use_numpy", [False] + ([True] if _np else []))
@pytest.mark.parametrize("warmup", [0.0, 100.0])
@pytest.mark.parametrize("clist_size", [4, 16, 64])
class TestWorkerConsumeDifferential:
    """The fan-out worker's batch loop against the flat in-process loop
    on the *same* Clist size, under constant wrap."""

    @settings(deadline=None)
    @given(data=st.data(), cuts=_hyp_cuts)
    def test_consume_matches_flat_loop(
        self, clist_size, warmup, use_numpy, data, cuts
    ):
        # A 100 s warm-up ends mid-stream whatever the Clist size.
        events = _events_from(data.draw(st.lists(
            _hyp_event_words,
            min_size=4 * clist_size, max_size=6 * clist_size,
        )), step=50.0 / clist_size)
        flat = SnifferPipeline(clist_size=clist_size, warmup=warmup)
        flat.process_events([_copy_event(event) for event in events])

        worker = _WorkerState(clist_size, warmup, use_numpy=use_numpy)
        pos = turn = 0
        while pos < len(events):
            size = cuts[turn % len(cuts)]
            worker.consume(encode_events(events[pos:pos + size]))
            pos += size
            turn += 1

        worker.resolver.check_invariants()
        assert worker.resolver.stats == flat.resolver.stats
        stats = flat.tagger.stats
        for counts, expected in (
            (worker.hit_counts, stats.hits),
            (worker.miss_counts, stats.misses),
        ):
            assert {
                PROTOCOLS[i]: n for i, n in enumerate(counts) if n
            } == expected
        assert worker.warmup_skipped == stats.warmup_skipped
        assert worker.empty_answers == flat.dns_sniffer.stats["empty_answers"]
        # The same map, dead keys the sweep has yet to drop included,
        # and the same label behind every live key (the worker keeps
        # labels as UTF-8 bytes).
        assert worker.resolver._key_to_burn == flat.resolver._key_to_burn
        assert {
            key: label.decode("utf-8")
            for key, label in _live_labels(worker.resolver).items()
        } == _live_labels(flat.resolver)


def _live_labels(resolver):
    floor = resolver._floor
    return {
        key: resolver._fqdns[b % resolver.clist_size]
        for key, b in resolver._key_to_burn.items() if b > floor
    }


def _copy_event(event):
    if isinstance(event, DnsObservation):
        return DnsObservation(
            timestamp=event.timestamp,
            client_ip=event.client_ip,
            fqdn=event.fqdn,
            answers=list(event.answers),
            ttl=event.ttl,
        )
    return FlowRecord(
        fid=event.fid,
        start=event.start,
        end=event.end,
        protocol=event.protocol,
    )
