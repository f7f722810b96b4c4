"""Trace synthesis against the code it replaced, and against its goldens.

The simulator draws entries from per-``Internet`` sampling tables (a
bisect over running sums) and renders frames with one packed header
stack.  Both must reproduce the linear scans and the per-header
encoders they replaced bit for bit: every trace, frame and experiment
result of the reproduction hangs off them.

* the draws against the linear-scan bodies below, kept verbatim;
* ``build_tcp_packet`` / ``build_udp_packet`` against the composition
  of the single-header ``encode()`` methods;
* the sampling tables after ``add_long_tail`` on a built internet;
* the direct A-response encoder behind ``_dns_response_frames``
  against the message-building body it replaced, kept verbatim: the
  same bytes, the same rng draws, the same error class on a refusal;
* digests of two event streams and two rendered captures against
  ``tests/golden/traces.json`` (the 22 experiment results are held to
  ``tests/golden/experiments.json`` by ``tests/test_experiments.py``).
"""

import hashlib
import json
import math
import random
import string
import struct
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.message import DnsMessage
from repro.dns.records import a_record
from repro.dns.wire import encode_a_response, encode_message
from repro.net.flow import DnsObservation, TransportProto
from repro.net.packet import (
    EthernetHeader,
    IPv4Header,
    TcpHeader,
    UdpHeader,
    build_tcp_packet,
    build_udp_packet,
)
from repro.simulation.client import _weighted_choice, _weighted_sample
from repro.simulation.internet import SamplingTable, build_internet
from repro.net.pcap import PcapRecord
from repro.simulation.trace import _dns_response_frames, build_trace

GOLDEN = Path(__file__).parent / "golden"


# -- the linear scans the sampling tables replaced (verbatim) -------------

def reference_weighted_choice(rng: random.Random, items, weights):
    total = sum(weights)
    point = rng.random() * total
    cumulative = 0.0
    for item, weight in zip(items, weights):
        cumulative += weight
        if point <= cumulative:
            return item
    return items[-1]


def reference_weighted_sample(rng: random.Random, items, weights, count):
    """Sample without replacement, probability proportional to weight."""
    chosen = []
    pool = list(zip(items, weights))
    for _ in range(min(count, len(pool))):
        total = sum(w for _, w in pool)
        if total <= 0:
            break
        point = rng.random() * total
        cumulative = 0.0
        for index, (item, weight) in enumerate(pool):
            cumulative += weight
            if point <= cumulative:
                chosen.append(item)
                pool.pop(index)
                break
    return chosen


class StubRng:
    """Replays ``values`` from ``random()``, cycling; counts the calls."""

    def __init__(self, values):
        self.values = list(values)
        self.calls = 0

    def random(self):
        value = self.values[self.calls % len(self.values)]
        self.calls += 1
        return value


# Finite, non-negative weights whose sum cannot overflow (at most 12 of
# them): the edges are zeros, ties, the smallest and the largest scales.
weights_strategy = st.lists(
    st.one_of(
        st.sampled_from([0.0, 1e-300, 1e300, 1.0, 0.1, 0.018, 2.5]),
        st.floats(min_value=0.0, max_value=1e6),
    ),
    min_size=1,
    max_size=12,
)


def _boundary_draws(weights):
    """``random()`` values that land the point on every running sum (as
    nearly as a product can), plus 0.0 and values whose point lies
    above the last running sum."""
    total = sum(weights)
    values = [0.0, 1.0 - 2.0 ** -53, 1.0, 1.5]
    if total > 0:
        cumulative = 0.0
        for weight in weights:
            cumulative += weight
            share = cumulative / total
            values += [share, math.nextafter(share, 0.0),
                       math.nextafter(share, 2.0)]
    return values


class TestWeightedChoice:
    @settings(deadline=None)
    @given(weights=weights_strategy, data=st.data())
    def test_bisect_matches_the_linear_scan(self, weights, data):
        items = [f"e{i}" for i in range(len(weights))]
        table = SamplingTable.build(items, weights)
        for value in _boundary_draws(weights) + [data.draw(st.floats(0.0, 1.0))]:
            new, old = StubRng([value]), StubRng([value])
            assert _weighted_choice(new, table) == reference_weighted_choice(
                old, items, weights
            ), value
            assert new.calls == old.calls == 1

    def test_ties_and_zeros_pick_the_first_reaching_entry(self):
        # A total of 1.0 makes every point equal its random() value, so
        # these land exactly on the running sums.
        items, weights = ["a", "b", "c", "d", "e"], [0.25, 0.25, 0.0, 0.5, 0.0]
        table = SamplingTable.build(items, weights)
        for value in (0.0, 0.25, 0.5, 1.0):
            assert _weighted_choice(StubRng([value]), table) == (
                reference_weighted_choice(StubRng([value]), items, weights)
            )
        assert [
            _weighted_choice(StubRng([v]), table) for v in (0.25, 0.5, 1.0)
        ] == ["a", "b", "d"]

    def test_point_past_the_last_running_sum_falls_back_to_the_last(self):
        table = SamplingTable.build(["a", "b"], [1.0, 1.0])
        assert _weighted_choice(StubRng([1.5]), table) == "b"


class TestWeightedSample:
    @settings(deadline=None)
    @given(
        weights=weights_strategy,
        count=st.integers(0, 14),
        data=st.data(),
    )
    def test_matches_the_linear_scan(self, weights, count, data):
        items = [f"e{i}" for i in range(len(weights))]
        values = data.draw(
            st.lists(
                st.one_of(
                    st.sampled_from(_boundary_draws(weights)),
                    st.floats(0.0, 1.0),
                ),
                min_size=1,
                max_size=8,
            )
        )
        new, old = StubRng(values), StubRng(values)
        assert _weighted_sample(new, items, weights, count) == (
            reference_weighted_sample(old, items, weights, count)
        )
        assert new.calls == old.calls

    def test_real_rng_over_the_catalogue(self):
        internet = build_internet("EU", seed=5, tail_sites=200)
        table = internet.sampling_table()
        for seed in range(20):
            assert _weighted_sample(
                random.Random(seed), table.entries, table.weights, 14
            ) == reference_weighted_sample(
                random.Random(seed), table.entries, table.weights, 14
            )
            new, old = random.Random(seed), random.Random(seed)
            for _ in range(50):
                assert _weighted_choice(new, table) is (
                    reference_weighted_choice(old, table.entries, table.weights)
                )


class TestSamplingTablesFollowTheEntrySet:
    def test_a_site_added_late_can_be_drawn(self):
        internet = build_internet("EU", seed=5, tail_sites=0)
        before = list(internet.service_entries())
        internet.add_long_tail(50)
        after = internet.service_entries()
        popular = [
            entry for entry in internet.entries
            if entry.service.popularity_in("EU") > 0
        ]
        assert after == popular
        assert len(after) > len(before)
        table = internet.sampling_table()
        assert table.weights == internet.popularity_weights(after)
        assert table.total == sum(table.weights)
        # The largest random() lands on the last running sum: the last
        # tail site, which the pre-tail table did not hold.
        drawn = _weighted_choice(StubRng([1.0 - 2.0 ** -53]), table)
        assert drawn is after[-1] and drawn not in before


# -- the packed header stack against the per-header encoders --------------

def reference_udp(src, dst, sport, dport, payload, with_ethernet=True):
    segment = UdpHeader(sport, dport).encode(len(payload)) + payload
    ip = IPv4Header(src=src, dst=dst, proto=TransportProto.UDP)
    datagram = ip.encode(len(segment)) + segment
    if not with_ethernet:
        return datagram
    return EthernetHeader(b"\xff" * 6, b"\x02\x00\x00\x00\x00\x01").encode() + datagram


def reference_tcp(src, dst, sport, dport, flags, seq, ack, payload,
                  with_ethernet=True):
    segment = TcpHeader(sport, dport, seq=seq, ack=ack, flags=flags).encode()
    segment += payload
    ip = IPv4Header(src=src, dst=dst, proto=TransportProto.TCP)
    datagram = ip.encode(len(segment)) + segment
    if not with_ethernet:
        return datagram
    return EthernetHeader(b"\xff" * 6, b"\x02\x00\x00\x00\x00\x01").encode() + datagram


addresses = st.one_of(st.sampled_from([0, 0xFFFFFFFF]), st.integers(0, 2**32 - 1))
ports = st.integers(0, 0xFFFF)
payloads = st.one_of(
    st.binary(max_size=64),
    st.integers(0, 1500).map(lambda n: b"\xa5" * n),
)


class TestPackedHeaders:
    @settings(deadline=None)
    @given(addresses, addresses, ports, ports, payloads, st.booleans())
    def test_udp_matches_the_header_encoders(
        self, src, dst, sport, dport, payload, with_ethernet
    ):
        assert build_udp_packet(
            0.0, src, dst, sport, dport, payload, with_ethernet=with_ethernet
        ) == reference_udp(src, dst, sport, dport, payload, with_ethernet)

    @settings(deadline=None)
    @given(
        addresses, addresses, ports, ports, st.integers(0, 0xFF),
        st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), payloads,
        st.booleans(),
    )
    def test_tcp_matches_the_header_encoders(
        self, src, dst, sport, dport, flags, seq, ack, payload, with_ethernet
    ):
        assert build_tcp_packet(
            0.0, src, dst, sport, dport, flags, seq=seq, ack=ack,
            payload=payload, with_ethernet=with_ethernet,
        ) == reference_tcp(
            src, dst, sport, dport, flags, seq, ack, payload, with_ethernet
        )

    def test_checksum_over_every_destination_low_word(self):
        # Sweeping the low word walks the header's word sum across
        # every residue: multiples of 0xFFFF (checksum 0) and the sums
        # whose first fold carries again.
        for src, high in ((0, 0), (0xFFFFFFFF, 0xFFFF)):
            for low in range(0x10000):
                dst = high << 16 | low
                assert build_udp_packet(
                    0.0, src, dst, 1, 2, b"", with_ethernet=False
                )[:20] == IPv4Header(src, dst, TransportProto.UDP).encode(8)

    def test_every_flag_byte_and_odd_lengths_at_the_address_extremes(self):
        for flags in range(256):
            for length in (0, 1, 7, 1399):
                for src, dst in ((0, 0xFFFFFFFF), (0xFFFFFFFF, 0)):
                    payload = bytes(i % 256 for i in range(length))
                    for with_ethernet in (True, False):
                        assert build_tcp_packet(
                            1.0, src, dst, 1, 0xFFFF, flags, payload=payload,
                            with_ethernet=with_ethernet,
                        ) == reference_tcp(
                            src, dst, 1, 0xFFFF, flags, 0, 0, payload,
                            with_ethernet,
                        )
        for length in range(0, 64):
            payload = b"\xff" * length
            for src, dst in ((0, 0), (0xFFFFFFFF, 0xFFFFFFFF)):
                assert build_udp_packet(
                    0.0, src, dst, 53, 65535, payload
                ) == reference_udp(src, dst, 53, 65535, payload)


# -- the direct A-response encoder against the messages it replaced -------

def reference_dns_response_frames(
    observation: DnsObservation, server: int, rng: random.Random
) -> list[PcapRecord]:
    query = DnsMessage.query(rng.randrange(0, 0xFFFF), observation.fqdn)
    response = DnsMessage.response_to(
        query,
        [
            a_record(observation.fqdn, address, ttl=max(observation.ttl, 1))
            for address in observation.answers
        ],
    )
    frame = build_udp_packet(
        observation.timestamp,
        server,
        observation.client_ip,
        53,
        rng.randrange(1024, 65535),
        encode_message(response),
    )
    return [PcapRecord(observation.timestamp, frame)]


LABEL_63 = "x" * 63
NAME_253 = ".".join(["a" * 63, "b" * 63, "c" * 63, "d" * 61])

# Upper case, digits and hyphens; at most three labels, so every drawn
# name fits in 253 characters.  The root name's answers carry no pointer.
labels = st.text(
    alphabet=string.ascii_letters + string.digits + "-", min_size=1, max_size=63
)
valid_names = st.one_of(
    st.lists(labels, min_size=1, max_size=3).map(".".join),
    st.sampled_from([LABEL_63 + ".Example.COM", NAME_253, "x", ""]),
).flatmap(lambda name: st.sampled_from([name, name + "."]))
valid_addresses = st.one_of(
    st.sampled_from([0, 0xFFFFFFFF]), st.integers(0, 2**32 - 1)
)
valid_ttls = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, -5]), st.integers(0, 2**32 - 1)
)

# One fault per refused input: which check fires first is not part of
# the contract when several would.
refused_names = st.sampled_from([
    "y" * 64 + ".example.com",        # label over 63 octets
    NAME_253 + "d",                    # 254 characters: 256 wire octets
    "a..example.com",                  # empty interior label
    ".example.com",
    "bücher.example",                  # non-ASCII
])
refused_addresses = st.sampled_from([2**32, 2**40, -1, 1.5, None])
refused_ttls = st.sampled_from([2**32, 2**64, 1.5])


def _outcome(render, observation, rng):
    try:
        return render(observation, rng), None
    except Exception as exc:  # the class is the result
        return None, type(exc)


@st.composite
def observations(draw):
    fault = draw(st.sampled_from(["none", "name", "address", "ttl"]))
    name = draw(refused_names if fault == "name" else valid_names)
    answers = draw(st.lists(valid_addresses, max_size=8))
    if fault == "address":
        index = draw(st.integers(0, len(answers)))
        answers.insert(index, draw(refused_addresses))
    ttl = draw(refused_ttls if fault == "ttl" else valid_ttls)
    if fault == "ttl" and not answers:  # a TTL is only written with an answer
        answers.append(draw(valid_addresses))
    return DnsObservation(
        timestamp=draw(st.floats(0.0, 1e6)),
        client_ip=draw(valid_addresses),
        fqdn=name,
        answers=answers,
        ttl=ttl,
    ), fault


class TestDnsResponseFrames:
    server = 0x0A090001

    @settings(deadline=None)
    @given(st.lists(observations(), min_size=1, max_size=6), st.integers(0, 2**64))
    def test_matches_the_message_building_path(self, drawn, seed):
        new_rng, old_rng = random.Random(seed), random.Random(seed)
        names = {}
        for observation, fault in drawn:
            new = _outcome(
                lambda o, r: _dns_response_frames(o, self.server, r, names),
                observation, new_rng,
            )
            old = _outcome(
                lambda o, r: reference_dns_response_frames(o, self.server, r),
                observation, old_rng,
            )
            assert new == old
            assert (new[1] is None) == (fault == "none")
            if new[1] is not None:
                break  # a refusal ends the render: the rng goes with it
            # The ident is drawn first, then the source port.
            assert new_rng.getstate() == old_rng.getstate()

    @settings(deadline=None)
    @given(
        st.one_of(st.sampled_from([0, 0xFFFF]), st.integers(0, 0xFFFF)),
        valid_names,
        st.lists(valid_addresses, max_size=8),
        st.sampled_from([1, 2**32 - 1]),
    )
    def test_every_ident_and_a_reused_name_table(self, ident, name, answers, ttl):
        expected = encode_message(DnsMessage.response_to(
            DnsMessage.query(ident, name),
            [a_record(name, address, ttl=ttl) for address in answers],
        ))
        names = {}
        assert encode_a_response(ident, name, answers, ttl, names) == expected
        assert list(names) == [name]
        assert encode_a_response(ident, name, answers, ttl, names) == expected


# -- goldens -----------------------------------------------------------------

def events_digest(events) -> str:
    """sha256 over ``repr`` of each event, one per line."""
    digest = hashlib.sha256()
    for event in events:
        digest.update(repr(event).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def frames_digest(frames) -> str:
    """sha256 over each frame's float timestamp, length and bytes."""
    digest = hashlib.sha256()
    for record in frames:
        digest.update(struct.pack("!dI", record.timestamp, len(record.data)))
        digest.update(record.data)
    return digest.hexdigest()


class TestTraceGoldens:
    golden = json.loads((GOLDEN / "traces.json").read_text())

    def test_event_streams(self):
        assert events_digest(build_trace("EU1-FTTH", seed=7).events) == (
            self.golden["events"]["EU1-FTTH/7"]
        )
        assert events_digest(build_trace("US-3G", seed=5).events) == (
            self.golden["events"]["US-3G/5"]
        )

    def test_rendered_frames(self):
        frames = build_trace("EU1-FTTH", seed=21).to_packets(max_flows=800)
        assert frames_digest(frames) == (
            self.golden["frames"]["EU1-FTTH/21/max_flows=800"]
        )
        frames = build_trace("US-3G", seed=5).to_packets()
        assert frames_digest(frames) == self.golden["frames"]["US-3G/5"]
