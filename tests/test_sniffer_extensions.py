"""Tests for the paper's sketched extensions: multi-label lookup and
the DNSCrypt limitation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.flow import DnsObservation, FiveTuple, FlowRecord, Protocol, TransportProto
from repro.sniffer.resolver import DnsResolver

C1, C2 = 0x0A000001, 0x0A000102
S1, S2 = 0xD0000001, 0xD0000002


class TestMultiLabel:
    def test_disabled_by_default(self):
        resolver = DnsResolver(clist_size=8)
        resolver.insert(C1, "a.com", [S1])
        resolver.insert(C1, "b.com", [S1])
        assert resolver.lookup_all(C1, S1) == ["b.com"]

    def test_superseded_labels_retained(self):
        resolver = DnsResolver(clist_size=8, multi_label_depth=2)
        resolver.insert(C1, "a.com", [S1])
        resolver.insert(C1, "b.com", [S1])
        resolver.insert(C1, "c.com", [S1])
        assert resolver.lookup_all(C1, S1) == ["c.com", "b.com", "a.com"]
        # lookup() still returns last-written-wins.
        assert resolver.peek(C1, S1) == "c.com"

    def test_depth_bounds_history(self):
        resolver = DnsResolver(clist_size=16, multi_label_depth=1)
        for name in ("a.com", "b.com", "c.com", "d.com"):
            resolver.insert(C1, name, [S1])
        assert resolver.lookup_all(C1, S1) == ["d.com", "c.com"]

    def test_same_fqdn_not_duplicated(self):
        resolver = DnsResolver(clist_size=8, multi_label_depth=3)
        resolver.insert(C1, "a.com", [S1])
        resolver.insert(C1, "a.com", [S1])
        resolver.insert(C1, "b.com", [S1])
        assert resolver.lookup_all(C1, S1) == ["b.com", "a.com"]

    def test_unknown_key_empty(self):
        resolver = DnsResolver(clist_size=8, multi_label_depth=2)
        assert resolver.lookup_all(C1, S1) == []

    def test_eviction_clears_history(self):
        resolver = DnsResolver(clist_size=2, multi_label_depth=2)
        resolver.insert(C1, "a.com", [S1])
        resolver.insert(C1, "b.com", [S1])   # history: a.com
        resolver.insert(C1, "x.com", [S2])
        resolver.insert(C2, "y.com", [S2])   # wraps: evicts b.com's slot
        resolver.insert(C2, "z.com", [S1])
        assert "a.com" not in resolver.lookup_all(C1, S1)
        resolver.check_invariants()

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            DnsResolver(clist_size=4, multi_label_depth=-1)

    @settings(max_examples=40)
    @given(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 5), st.integers(0, 3)),
            max_size=80,
        )
    )
    def test_first_label_matches_plain_lookup(self, operations):
        plain = DnsResolver(clist_size=6)
        multi = DnsResolver(clist_size=6, multi_label_depth=3)
        for client, fqdn_id, server in operations:
            plain.insert(client, f"s{fqdn_id}.com", [server])
            multi.insert(client, f"s{fqdn_id}.com", [server])
        for client in range(3):
            for server in range(4):
                labels = multi.lookup_all(client, server)
                expected = plain.peek(client, server)
                assert (labels[0] if labels else None) == expected
        multi.check_invariants()


class TestDnsCryptLimitation:
    def test_encrypted_dns_blinds_the_sniffer(self):
        """Sec. 6.1: DNSCrypt would make the DNS response sniffer
        ineffective — with no visible responses, nothing gets labeled."""
        from repro.sniffer.pipeline import SnifferPipeline

        events = [
            DnsObservation(1.0, C1, "secret.example.com", [S1]),
            FlowRecord(
                fid=FiveTuple(C1, S1, 40000, 443, TransportProto.TCP),
                start=2.0,
                protocol=Protocol.TLS,
            ),
        ]
        # DNSCrypt: drop every observation before it reaches the sniffer.
        encrypted_events = [
            e for e in events if not isinstance(e, DnsObservation)
        ]
        pipeline = SnifferPipeline(clist_size=64, warmup=0.0)
        flows = pipeline.process_events(encrypted_events)
        assert flows[0].fqdn is None
        hits, total = pipeline.hit_counts_by_protocol()[Protocol.TLS]
        assert hits == 0 and total > 0
