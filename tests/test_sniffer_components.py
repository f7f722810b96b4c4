"""Tests for DNS response sniffer, flow sniffer, tagger, and policy."""


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
    TCP_SYN,
    build_tcp_packet,
    build_udp_packet,
    decode_frame,
)
from repro.sniffer.dns_sniffer import DnsResponseSniffer
from repro.sniffer.flow_sniffer import FlowSniffer
from repro.sniffer.policy import PolicyAction, PolicyEnforcer, PolicyRule
from repro.sniffer.resolver import DnsResolver
from repro.sniffer.tagger import FlowTagger

CLIENT = ip_from_str("10.1.0.5")
DNS_SERVER = ip_from_str("10.1.0.1")
WEB1 = ip_from_str("93.184.216.34")
WEB2 = ip_from_str("93.184.216.35")


def _dns_response_packet(ts, client, fqdn, addresses, ident=1):
    query = DnsMessage.query(ident, fqdn)
    response = DnsMessage.response_to(
        query, [a_record(fqdn, a, ttl=60) for a in addresses]
    )
    frame = build_udp_packet(
        ts, DNS_SERVER, client, 53, 33333, encode_message(response)
    )
    return decode_frame(ts, frame)


def _flow(client=CLIENT, server=WEB1, dport=80, start=400.0, proto=Protocol.HTTP):
    return FlowRecord(
        fid=FiveTuple(client, server, 40000, dport, TransportProto.TCP),
        start=start,
        protocol=proto,
    )


class TestDnsResponseSniffer:
    def test_decodes_response_and_fills_resolver(self):
        resolver = DnsResolver(clist_size=16)
        sniffer = DnsResponseSniffer(resolver)
        packet = _dns_response_packet(1.0, CLIENT, "www.example.com", [WEB1, WEB2])
        observation = sniffer.feed_packet(packet)
        assert observation is not None
        assert observation.fqdn == "www.example.com"
        assert resolver.peek(CLIENT, WEB1) == "www.example.com"
        assert resolver.peek(CLIENT, WEB2) == "www.example.com"

    def test_ignores_queries(self):
        resolver = DnsResolver(clist_size=16)
        sniffer = DnsResponseSniffer(resolver)
        query = DnsMessage.query(5, "www.example.com")
        frame = build_udp_packet(
            0.5, CLIENT, DNS_SERVER, 33333, 53, encode_message(query)
        )
        assert sniffer.feed_packet(decode_frame(0.5, frame)) is None
        assert sniffer.stats["queries_ignored"] == 1

    def test_ignores_non_dns_ports(self):
        resolver = DnsResolver(clist_size=16)
        sniffer = DnsResponseSniffer(resolver)
        frame = build_udp_packet(0.0, CLIENT, WEB1, 1000, 2000, b"hello")
        assert sniffer.feed_packet(decode_frame(0.0, frame)) is None
        assert sniffer.stats["packets"] == 0

    def test_decode_error_counted(self):
        resolver = DnsResolver(clist_size=16)
        sniffer = DnsResponseSniffer(resolver)
        frame = build_udp_packet(0.0, DNS_SERVER, CLIENT, 53, 999, b"\xff\xfe")
        assert sniffer.feed_packet(decode_frame(0.0, frame)) is None
        assert sniffer.stats["decode_errors"] == 1

    def test_observation_fast_path(self):
        resolver = DnsResolver(clist_size=16)
        sniffer = DnsResponseSniffer(resolver)
        obs = DnsObservation(2.0, CLIENT, "fast.example.com", [WEB1])
        assert sniffer.feed_observation(obs) is obs
        assert resolver.peek(CLIENT, WEB1) == "fast.example.com"

    def test_observation_empty_answers(self):
        resolver = DnsResolver(clist_size=16)
        sniffer = DnsResponseSniffer(resolver)
        obs = DnsObservation(2.0, CLIENT, "nx.example.com", [])
        assert sniffer.feed_observation(obs) is None
        assert sniffer.stats["empty_answers"] == 1


class TestFlowSniffer:
    def test_tcp_flow_completes(self):
        sniffer = FlowSniffer()
        syn = decode_frame(
            0.0, build_tcp_packet(0.0, CLIENT, WEB1, 40000, 80, TCP_SYN)
        )
        sniffer.feed(syn)
        from repro.net.packet import TCP_RST

        rst = decode_frame(
            1.0, build_tcp_packet(1.0, WEB1, CLIENT, 80, 40000, TCP_RST)
        )
        record = sniffer.feed(rst)
        assert record is not None
        assert record.fid.client_ip == CLIENT

    def test_udp_flow_aggregation(self):
        sniffer = FlowSniffer()
        up = decode_frame(
            0.0, build_udp_packet(0.0, CLIENT, WEB1, 5000, 6000, b"abc")
        )
        down = decode_frame(
            0.5, build_udp_packet(0.5, WEB1, CLIENT, 6000, 5000, b"defgh")
        )
        sniffer.feed(up)
        sniffer.feed(down)
        flows = sniffer.flush()
        assert len(flows) == 1
        assert flows[0].bytes_up == 3
        assert flows[0].bytes_down == 5
        assert flows[0].packets == 2

    def test_dns_udp_skipped(self):
        sniffer = FlowSniffer()
        pkt = decode_frame(
            0.0, build_udp_packet(0.0, CLIENT, DNS_SERVER, 999, 53, b"q")
        )
        assert sniffer.feed(pkt) is None
        assert sniffer.stats["skipped_dns"] == 1
        assert sniffer.flush() == []

    def test_udp_idle_expiry(self):
        sniffer = FlowSniffer(idle_timeout=10.0)
        pkt = decode_frame(
            0.0, build_udp_packet(0.0, CLIENT, WEB1, 5000, 6000, b"x")
        )
        sniffer.feed(pkt)
        assert sniffer.expire(5.0) == []
        assert len(sniffer.expire(20.0)) == 1
        assert sniffer.active_count == 0


class TestFlowTagger:
    def test_tags_after_warmup(self):
        resolver = DnsResolver(clist_size=16)
        resolver.insert(CLIENT, "www.example.com", [WEB1], timestamp=350.0)
        tagger = FlowTagger(resolver, warmup=300.0, trace_start=0.0)
        flow = tagger.tag(_flow(start=400.0))
        assert flow.fqdn == "www.example.com"
        assert tagger.stats.hit_ratio(Protocol.HTTP) == 1.0

    def test_warmup_excluded_from_stats(self):
        resolver = DnsResolver(clist_size=16)
        tagger = FlowTagger(resolver, warmup=300.0, trace_start=0.0)
        tagger.tag(_flow(start=100.0))
        assert tagger.stats.warmup_skipped == 1
        assert tagger.stats.total(Protocol.HTTP) == 0

    def test_warmup_flows_still_tagged(self):
        resolver = DnsResolver(clist_size=16)
        resolver.insert(CLIENT, "early.example.com", [WEB1], timestamp=10.0)
        tagger = FlowTagger(resolver, warmup=300.0, trace_start=0.0)
        flow = tagger.tag(_flow(start=50.0))
        assert flow.fqdn == "early.example.com"

    def test_trace_start_lazily_set(self):
        resolver = DnsResolver(clist_size=16)
        tagger = FlowTagger(resolver, warmup=10.0)
        tagger.tag(_flow(start=1000.0))
        assert tagger.trace_start == 1000.0

    def test_miss_recorded_per_protocol(self):
        resolver = DnsResolver(clist_size=16)
        tagger = FlowTagger(resolver, warmup=0.0, trace_start=0.0)
        tagger.tag(_flow(proto=Protocol.P2P, start=10.0))
        assert tagger.stats.hit_ratio(Protocol.P2P) == 0.0
        assert tagger.stats.total(Protocol.P2P) == 1


class TestPolicyEnforcer:
    def _enforcer(self):
        enforcer = PolicyEnforcer()
        enforcer.add_rule(PolicyRule("*.zynga.com", PolicyAction.BLOCK))
        enforcer.add_rule(PolicyRule("zynga.com", PolicyAction.BLOCK))
        enforcer.add_rule(
            PolicyRule("*.dropbox.com", PolicyAction.PRIORITIZE)
        )
        enforcer.add_rule(
            PolicyRule("*", PolicyAction.RATE_LIMIT, dst_port=6969, rate_kbps=64)
        )
        return enforcer

    def test_block_by_fqdn(self):
        enforcer = self._enforcer()
        flow = _flow()
        flow.fqdn = "farm.zynga.com"
        assert enforcer.decide(flow).action is PolicyAction.BLOCK

    def test_subdomain_match_without_wildcard(self):
        rule = PolicyRule("zynga.com", PolicyAction.BLOCK)
        assert rule.matches_fqdn("deep.sub.zynga.com")
        assert rule.matches_fqdn("zynga.com")
        assert not rule.matches_fqdn("notzynga.com")

    def test_prioritize(self):
        enforcer = self._enforcer()
        flow = _flow()
        flow.fqdn = "client.dropbox.com"
        decision = enforcer.decide(flow)
        assert decision.action is PolicyAction.PRIORITIZE
        assert decision.allows

    def test_default_allow(self):
        enforcer = self._enforcer()
        flow = _flow()
        flow.fqdn = "www.wikipedia.org"
        assert enforcer.decide(flow).action is PolicyAction.ALLOW

    def test_untagged_flow_allowed(self):
        enforcer = self._enforcer()
        assert enforcer.decide(_flow()).action is PolicyAction.ALLOW

    def test_port_rule(self):
        enforcer = self._enforcer()
        flow = _flow(dport=6969)
        flow.fqdn = "tracker.example.com"
        decision = enforcer.decide(flow)
        assert decision.action is PolicyAction.RATE_LIMIT
        assert decision.rule.rate_kbps == 64

    def test_preinstall_blocks_before_flow(self):
        """The paper's killer feature: the decision exists before the flow."""
        enforcer = self._enforcer()
        obs = DnsObservation(
            5.0, CLIENT, "cityville.zynga.com", [WEB1, WEB2]
        )
        enforcer.on_dns_response(obs)
        assert enforcer.preinstalled_count() == 2
        # The flow arrives *untagged* (e.g. resolver missed it) but the
        # pre-installed verdict still applies.
        flow = _flow(server=WEB2)
        decision = enforcer.decide(flow)
        assert decision.action is PolicyAction.BLOCK
        assert decision.preinstalled
        assert enforcer.stats["preinstalled_used"] == 1

    def test_label_overrides_preinstalled_verdict(self):
        """A tagged flow is judged by its label, not by a stale
        (client, server) verdict for a different service on the same
        cloud address."""
        enforcer = self._enforcer()
        enforcer.on_dns_response(
            DnsObservation(5.0, CLIENT, "farm.zynga.com", [WEB1])
        )
        flow = _flow(server=WEB1)
        flow.fqdn = "www.wikipedia.org"  # same EC2 box, different service
        decision = enforcer.decide(flow)
        assert decision.action is PolicyAction.ALLOW
        assert not decision.preinstalled

    def test_preinstall_ignores_unmatched(self):
        enforcer = self._enforcer()
        obs = DnsObservation(5.0, CLIENT, "www.wikipedia.org", [WEB1])
        enforcer.on_dns_response(obs)
        assert enforcer.preinstalled_count() == 0

    def test_first_match_wins(self):
        enforcer = PolicyEnforcer()
        enforcer.add_rule(PolicyRule("a.example.com", PolicyAction.PRIORITIZE))
        enforcer.add_rule(PolicyRule("*.example.com", PolicyAction.BLOCK))
        flow = _flow()
        flow.fqdn = "a.example.com"
        assert enforcer.decide(flow).action is PolicyAction.PRIORITIZE
