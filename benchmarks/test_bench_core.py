"""Micro-benchmarks of DN-Hunter's real-time path.

The paper's engineering constraint (Sec. 3.1.1) is that the resolver
must keep up with the wire: inserts per DNS response, lookups per flow.
These benches measure raw structure throughput plus the end-to-end
event-path and wire-codec costs.
"""

import random

import pytest

from repro.dns.message import DnsMessage
from repro.dns.records import a_record
from repro.dns.wire import (
    decode_message,
    decode_response_addresses,
    encode_message,
)
from repro.experiments.datasets import get_trace
from repro.sniffer.pipeline import SnifferPipeline
from repro.sniffer.resolver import DnsResolver
from repro.sniffer.resolver_reference import DnsResolver as ReferenceResolver

N_OPS = 10_000
# The Sec. 6 operating point used by experiments/dimensioning.py: the
# resolver is sized to cover ~1h of responses, so the steady state is
# allocation-bound, not eviction-bound.
DIM_CLIST = 200_000
DIM_OPS = 50_000


@pytest.fixture(scope="module")
def insert_workload():
    rng = random.Random(1)
    return [
        (
            rng.randrange(1, 500),                      # client
            f"host{rng.randrange(2000)}.example{rng.randrange(50)}.com",
            [rng.randrange(1, 1 << 32) for _ in range(rng.randint(1, 4))],
        )
        for _ in range(N_OPS)
    ]


@pytest.fixture(scope="module")
def dimensioning_workload():
    rng = random.Random(2)
    return [
        (
            rng.randrange(1, 2000),
            f"host{rng.randrange(4000)}.example{rng.randrange(80)}.com",
            [rng.randrange(1, 1 << 32) for _ in range(rng.randint(1, 4))],
        )
        for _ in range(DIM_OPS)
    ]


def test_bench_resolver_insert(benchmark, insert_workload):
    def insert_all():
        resolver = DnsResolver(clist_size=5000)
        for client, fqdn, answers in insert_workload:
            resolver.insert(client, fqdn, answers)
        return resolver

    resolver = benchmark(insert_all)
    assert resolver.stats.responses == N_OPS


def test_bench_resolver_insert_dimensioning(benchmark, dimensioning_workload):
    """Insert throughput at the Sec. 6 sizing (stand up L=200k, ingest a
    burst) — the regime where per-slot object allocation used to
    dominate."""

    def insert_all():
        resolver = DnsResolver(clist_size=DIM_CLIST)
        for client, fqdn, answers in dimensioning_workload:
            resolver.insert(client, fqdn, answers)
        return resolver

    resolver = benchmark(insert_all)
    assert resolver.stats.responses == DIM_OPS


def test_bench_reference_resolver_insert(benchmark, insert_workload):
    """The seed implementation, kept measurable so the BENCH_*.json
    trajectory always has a same-machine baseline."""

    def insert_all():
        resolver = ReferenceResolver(clist_size=5000)
        for client, fqdn, answers in insert_workload:
            resolver.insert(client, fqdn, answers)
        return resolver

    resolver = benchmark(insert_all)
    assert resolver.stats.responses == N_OPS


def test_bench_resolver_lookup(benchmark, insert_workload):
    resolver = DnsResolver(clist_size=50_000)
    for client, fqdn, answers in insert_workload:
        resolver.insert(client, fqdn, answers)
    keys = [
        (client, answers[0]) for client, _fqdn, answers in insert_workload
    ]

    def lookup_all():
        hits = 0
        for client, server in keys:
            if resolver.peek(client, server) is not None:
                hits += 1
        return hits

    hits = benchmark(lookup_all)
    assert hits > 0


def test_bench_event_pipeline(benchmark, warm_datasets):
    """Full sniffer event path over the FTTH trace (resolver+tagger)."""
    trace = get_trace("EU1-FTTH")

    def process():
        pipeline = SnifferPipeline(clist_size=50_000)
        pipeline.process_trace(trace)
        return len(pipeline.tagged_flows)

    count = benchmark(process)
    assert count > 1000


def test_bench_dns_wire_encode(benchmark):
    query = DnsMessage.query(1, "photos-a.fbcdn.net")
    response = DnsMessage.response_to(
        query,
        [a_record("photos-a.fbcdn.net", 0x02100000 + i, ttl=20)
         for i in range(4)],
    )
    wire = benchmark(encode_message, response)
    assert len(wire) > 12


def test_bench_dns_wire_decode(benchmark):
    query = DnsMessage.query(1, "photos-a.fbcdn.net")
    response = DnsMessage.response_to(
        query,
        [a_record("photos-a.fbcdn.net", 0x02100000 + i, ttl=20)
         for i in range(4)],
    )
    wire = encode_message(response)
    message = benchmark(decode_message, wire)
    assert len(message.answers) == 4


def test_bench_dns_fast_decode(benchmark):
    """The zero-copy response fast path on the same message shape the
    full-decoder bench uses."""
    query = DnsMessage.query(1, "photos-a.fbcdn.net")
    response = DnsMessage.response_to(
        query,
        [a_record("photos-a.fbcdn.net", 0x02100000 + i, ttl=20)
         for i in range(4)],
    )
    wire = encode_message(response)
    fqdn, addresses, ttl = benchmark(decode_response_addresses, wire)
    assert fqdn == "photos-a.fbcdn.net"
    assert len(addresses) == 4
    assert ttl == 20

