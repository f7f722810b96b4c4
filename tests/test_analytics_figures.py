"""Tests for the figure analytics: tangle CDFs, temporal series, birth
processes, domain trees, trackers, word cloud, delays."""

import pytest

from repro.analytics.birth import BirthProcess, EntityBirthTracker
from repro.analytics.database import FlowDatabase
from repro.analytics.delays import analyze_delays
from repro.analytics.domain_tree import build_domain_tree
from repro.analytics.tangle import (
    Cdf,
    fanin_distribution,
    fanout_distribution,
    single_mapping_fractions,
)
from repro.analytics.temporal import (
    TimeBins,
    dns_response_rate,
    fqdns_per_cdn_series,
    servers_per_domain_series,
    total_fqdns_per_cdns,
)
from repro.analytics.trackers import (
    TrackerActivityAnalysis,
    service_breakdown,
)
from repro.analytics.wordcloud import build_word_cloud, render_word_cloud
from repro.net.flow import DnsObservation, FiveTuple, FlowRecord, TransportProto
from repro.net.ip import IPv4Network, ip_from_str
from repro.orgdb.ipdb import IpOrganizationDb


def _flow(client, server, fqdn, start=0.0, dport=80, up=10, down=100):
    return FlowRecord(
        fid=FiveTuple(client, server, 40000, dport, TransportProto.TCP),
        start=start,
        end=start + 1,
        fqdn=fqdn,
        bytes_up=up,
        bytes_down=down,
    )


class TestCdf:
    def test_at_and_percentile(self):
        cdf = Cdf.from_counts([1, 1, 1, 2, 5])
        assert cdf.at(1) == pytest.approx(0.6)
        assert cdf.at(2) == pytest.approx(0.8)
        assert cdf.at(10) == 1.0
        assert cdf.percentile(0.6) == 1
        assert cdf.percentile(1.0) == 5
        assert cdf.max == 5

    def test_empty(self):
        cdf = Cdf.from_counts([])
        assert cdf.at(1) == 0.0
        assert cdf.max == 0
        with pytest.raises(ValueError):
            cdf.percentile(0.5)

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            Cdf.from_counts([1]).percentile(0)

    def test_points_monotone(self):
        cdf = Cdf.from_counts([3, 1, 4, 1, 5])
        points = cdf.points()
        values = [p[1] for p in points]
        assert values == sorted(values)
        assert points[-1][1] == 1.0


class TestTangle:
    def test_fanout_fanin(self):
        db = FlowDatabase()
        db.add_all(
            [
                _flow(1, 100, "a.example.com"),
                _flow(1, 101, "a.example.com"),
                _flow(1, 100, "b.example.com"),
                _flow(2, 102, "c.example.com"),
            ]
        )
        fanout = fanout_distribution(db)
        assert fanout.at(1) == pytest.approx(2 / 3)  # b, c on one server
        fanin = fanin_distribution(db)
        assert fanin.at(1) == pytest.approx(2 / 3)   # 101,102 serve one fqdn
        single_fqdn, single_server = single_mapping_fractions(db)
        assert single_fqdn == pytest.approx(2 / 3)
        assert single_server == pytest.approx(2 / 3)


class TestTimeBins:
    def test_series_fills_gaps(self):
        bins = TimeBins(bin_seconds=10.0)
        bins.add(5.0)
        bins.add(35.0)
        series = bins.series()
        assert series == [(0.0, 1), (10.0, 0), (20.0, 0), (30.0, 1)]

    def test_peak(self):
        bins = TimeBins(bin_seconds=10.0)
        for t in (5.0, 6.0, 25.0):
            bins.add(t)
        assert bins.peak() == (0.0, 2)

    def test_empty(self):
        bins = TimeBins(bin_seconds=10.0)
        assert bins.series() == []
        assert bins.peak() == (0.0, 0)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            TimeBins(bin_seconds=0)


class TestTemporalSeries:
    def _db_and_ipdb(self):
        db = FlowDatabase()
        db.add_all(
            [
                _flow(1, ip_from_str("2.16.0.1"), "s.youtube.com", 0.0),
                _flow(1, ip_from_str("2.16.0.2"), "v.youtube.com", 100.0),
                _flow(2, ip_from_str("2.16.0.1"), "s.youtube.com", 700.0),
                _flow(2, ip_from_str("54.0.0.1"), "img.twitter.com", 650.0),
            ]
        )
        ipdb = IpOrganizationDb()
        ipdb.add_network(IPv4Network.parse("2.16.0.0/24"), "akamai")
        ipdb.add_network(IPv4Network.parse("54.0.0.0/24"), "amazon")
        return db, ipdb

    def test_servers_per_domain(self):
        db, _ = self._db_and_ipdb()
        series = servers_per_domain_series(db, ["youtube.com"], 600.0)
        assert series["youtube.com"] == [(0.0, 2), (600.0, 1)]

    def test_missing_domain_empty(self):
        db, _ = self._db_and_ipdb()
        assert servers_per_domain_series(db, ["nope.com"])["nope.com"] == []

    def test_fqdns_per_cdn(self):
        db, ipdb = self._db_and_ipdb()
        series = fqdns_per_cdn_series(db, ipdb, ["akamai", "amazon"], 600.0)
        assert series["akamai"] == [(0.0, 2), (600.0, 1)]
        assert series["amazon"] == [(600.0, 1)]

    def test_total_fqdns_per_cdn(self):
        db, ipdb = self._db_and_ipdb()
        assert total_fqdns_per_cdns(db, ipdb, ["akamai", "edgecast"]) == {
            "akamai": 2, "edgecast": 0,
        }

    def test_dns_response_rate(self):
        observations = [
            DnsObservation(t, 1, "x.com", [5]) for t in (0.0, 1.0, 700.0)
        ]
        bins = dns_response_rate(observations, 600.0)
        assert bins.series() == [(0.0, 2), (600.0, 1)]


class TestBirthProcess:
    def test_cumulative_unique(self):
        process = BirthProcess(bin_seconds=10.0)
        process.observe(1.0, "a")
        process.observe(2.0, "a")
        process.observe(11.0, "b")
        process.observe(25.0, "c")
        series = process.series()
        assert series == [(0.0, 1), (10.0, 2), (20.0, 3)]
        assert process.total == 3

    def test_growth_rate(self):
        process = BirthProcess(bin_seconds=1.0)
        for i in range(10):
            process.observe(float(i), f"key{i}")
        assert process.growth_rate(window_bins=5) == pytest.approx(1.0)

    def test_growth_rate_saturated(self):
        process = BirthProcess(bin_seconds=1.0)
        for i in range(10):
            process.observe(float(i), "same-key")
        assert process.growth_rate(window_bins=5) == 0.0

    def test_entity_tracker(self):
        tracker = EntityBirthTracker(bin_seconds=10.0)
        tracker.observe_all(
            [
                _flow(1, 100, "a.example.com", 0.0),
                _flow(1, 101, "b.example.com", 5.0),
                _flow(1, 100, "a.example.com", 15.0),
                _flow(1, 102, None, 20.0),
            ]
        )
        summary = tracker.summary()
        assert summary == {"fqdn": 2, "sld": 1, "server_ip": 3}


class TestDomainTree:
    def _db(self):
        db = FlowDatabase()
        akamai = ip_from_str("2.16.0.1")
        linkedin = ip_from_str("64.0.0.1")
        db.add_all(
            [
                _flow(1, akamai, "media4.linkedin.com", 0.0),
                _flow(1, akamai, "media5.linkedin.com", 1.0),
                _flow(2, linkedin, "www.linkedin.com", 2.0),
                _flow(2, linkedin, "platform.linkedin.com", 3.0),
            ]
        )
        ipdb = IpOrganizationDb()
        ipdb.add_network(IPv4Network.parse("2.16.0.0/24"), "akamai")
        ipdb.add_network(IPv4Network.parse("64.0.0.0/24"), "linkedin")
        return db, ipdb

    def test_token_merge_on_digits(self):
        db, ipdb = self._db()
        tree = build_domain_tree(db, "linkedin.com", ipdb)
        # media4 and media5 merge into one mediaN node with 2 flows.
        median = tree.root.children["mediaN"]
        assert median.flows == 2
        assert median.dominant_cdn() == "akamai"

    def test_self_grouping(self):
        db, ipdb = self._db()
        tree = build_domain_tree(db, "linkedin.com", ipdb)
        assert "Linkedin" in tree.groups
        assert tree.groups["Linkedin"].flows == 2
        assert tree.flow_share("akamai") == pytest.approx(0.5)

    def test_render_contains_groups(self):
        db, ipdb = self._db()
        tree = build_domain_tree(db, "linkedin.com", ipdb)
        text = tree.render()
        assert "linkedin.com" in text
        assert "akamai" in text
        assert "mediaN" in text


class TestTrackers:
    def _flows(self):
        hour = 3600.0
        return [
            _flow(1, 100, "open-tracker.appspot.com", 0 * hour),
            _flow(1, 100, "open-tracker.appspot.com", 8 * hour),
            _flow(1, 100, "open-tracker.appspot.com", 16 * hour),
            _flow(2, 100, "rlskingbt.appspot.com", 4 * hour),
            _flow(2, 100, "rlskingbt.appspot.com", 16 * hour),
            _flow(3, 101, "legit-app.appspot.com", 4 * hour, up=50, down=5000),
        ]

    def test_observe_and_timelines(self):
        analysis = TrackerActivityAnalysis(bin_seconds=4 * 3600.0)
        analysis.observe_all(self._flows())
        timelines = analysis.timelines()
        assert len(timelines) == 2  # legit-app is not a tracker
        assert timelines[0].service == "open-tracker.appspot.com"
        assert timelines[0].active_bins == {0, 2, 4}

    def test_always_on(self):
        analysis = TrackerActivityAnalysis(bin_seconds=4 * 3600.0)
        analysis.observe_all(self._flows())
        # open-tracker active in 3 of 5 bins (0..4): 60% < 90%
        assert analysis.always_on(threshold=0.9) == []
        assert len(analysis.always_on(threshold=0.5)) == 1

    def test_synchronized_groups(self):
        analysis = TrackerActivityAnalysis(bin_seconds=10.0)
        for t in (0.0, 20.0, 40.0):
            analysis.observe(_flow(1, 1, "sync1.tracker.example.com", t))
            analysis.observe(_flow(2, 1, "sync2.tracker.example.com", t))
        analysis.observe(_flow(3, 1, "solo.tracker.example.com", 100.0))
        groups = analysis.synchronized_groups()
        assert ["sync1.tracker.example.com", "sync2.tracker.example.com"] in groups

    def test_render(self):
        analysis = TrackerActivityAnalysis(bin_seconds=4 * 3600.0)
        analysis.observe_all(self._flows())
        text = analysis.render()
        assert "o" in text and "." in text

    def test_service_breakdown(self):
        db = FlowDatabase.from_flows(self._flows())
        trackers, general = service_breakdown(db, "appspot.com")
        assert trackers.services == 2
        assert trackers.flows == 5
        assert general.services == 1
        assert general.bytes_down == 5000


class TestWordCloud:
    def test_build_and_render(self):
        db = FlowDatabase()
        for i in range(5):
            db.add(_flow(i, 100, "open-tracker.appspot.com", float(i)))
        db.add(_flow(1, 100, "tiny-app.appspot.com", 9.0))
        db.add(_flow(1, 100, "www.other.com", 10.0))
        entries = build_word_cloud(db, "appspot.com")
        assert entries[0].word == "open-tracker"
        assert entries[0].bucket == 5
        assert len(entries) == 2  # other.com excluded
        text = render_word_cloud(entries)
        assert "open-tracker" in text

    def test_empty(self):
        assert build_word_cloud(FlowDatabase(), "appspot.com") == []

    def test_nested_service_names(self):
        db = FlowDatabase()
        db.add(_flow(1, 100, "deep.sub.myapp.appspot.com", 0.0))
        entries = build_word_cloud(db, "appspot.com")
        assert entries[0].word == "myapp"


class TestDelays:
    def test_first_flow_and_useless(self):
        observations = [
            DnsObservation(0.0, 1, "a.com", [100]),
            DnsObservation(10.0, 1, "b.com", [101]),   # never followed
            DnsObservation(20.0, 2, "a.com", [100]),
        ]
        flows = [
            _flow(1, 100, "a.com", 0.5),
            _flow(1, 100, "a.com", 3.0),
            _flow(2, 100, "a.com", 21.0),
        ]
        analysis = analyze_delays(observations, flows)
        assert analysis.total_responses == 3
        assert analysis.useless_fraction == pytest.approx(1 / 3)
        assert list(analysis.first_flow_delays) == [0.5, 1.0]
        assert list(analysis.any_flow_gaps) == [0.5, 1.0, 3.0]
        assert observations[1].useless

    def test_flow_before_response_ignored(self):
        observations = [DnsObservation(10.0, 1, "a.com", [100])]
        flows = [_flow(1, 100, "a.com", 5.0)]
        analysis = analyze_delays(observations, flows)
        assert analysis.useless_fraction == 1.0

    def test_latest_response_charged(self):
        observations = [
            DnsObservation(0.0, 1, "a.com", [100]),
            DnsObservation(100.0, 1, "a.com", [100]),
        ]
        flows = [_flow(1, 100, "a.com", 101.0)]
        analysis = analyze_delays(observations, flows)
        # Charged to the 100.0 response: gap 1.0, first response useless.
        assert list(analysis.any_flow_gaps) == [1.0]
        assert analysis.useless_fraction == pytest.approx(0.5)

    def test_horizon(self):
        observations = [DnsObservation(0.0, 1, "a.com", [100])]
        flows = [_flow(1, 100, "a.com", 5000.0)]
        analysis = analyze_delays(observations, flows)
        assert analysis.useless_fraction == 0.0
        analysis2 = analyze_delays(observations, flows, horizon=100.0)
        assert analysis2.useless_fraction == 1.0

    def test_cdf_helpers(self):
        observations = [
            DnsObservation(float(i), 1, "a.com", [100 + i]) for i in range(4)
        ]
        flows = [
            _flow(1, 100 + i, "a.com", float(i) + 0.5 * (i + 1))
            for i in range(4)
        ]
        analysis = analyze_delays(observations, flows)
        assert analysis.fraction_within(1.0) == pytest.approx(0.5)
        points = analysis.cdf_points("first", [0.5, 1.0, 2.0])
        assert points[-1][1] == 1.0
        assert analysis.percentile(50) <= analysis.percentile(100)

    def test_empty_inputs(self):
        analysis = analyze_delays([], [])
        assert analysis.useless_fraction == 0.0
        assert analysis.fraction_within(1.0) == 0.0
        assert analysis.cdf_points("first", [1.0]) == [(1.0, 0.0)]
        with pytest.raises(ValueError):
            analysis.percentile(50)


class TestAnomalyDetector:
    def test_alert_on_org_change(self):
        from repro.analytics.anomaly import MappingAnomalyDetector

        ipdb = IpOrganizationDb()
        ipdb.add_network(IPv4Network.parse("2.16.0.0/24"), "akamai")
        ipdb.add_network(IPv4Network.parse("66.6.0.0/24"), "evil")
        detector = MappingAnomalyDetector(ipdb=ipdb, min_history=2)
        legit = ip_from_str("2.16.0.1")
        evil = ip_from_str("66.6.0.6")
        for t in range(3):
            assert detector.observe(
                DnsObservation(float(t), 1, "bank.example.com", [legit])
            ) is None
        alert = detector.observe(
            DnsObservation(10.0, 1, "bank.example.com", [evil])
        )
        assert alert is not None
        assert alert.observed_org == "evil"
        assert "bank.example.com" in alert.describe()

    def test_no_alert_during_learning(self):
        from repro.analytics.anomaly import MappingAnomalyDetector

        detector = MappingAnomalyDetector(min_history=5)
        for t in range(4):
            assert detector.observe(
                DnsObservation(float(t), 1, "x.com", [t * 1000000])
            ) is None

    def test_same_prefix_no_alert(self):
        from repro.analytics.anomaly import MappingAnomalyDetector

        detector = MappingAnomalyDetector(min_history=1, prefix_bits=16)
        base = ip_from_str("2.16.0.1")
        neighbour = ip_from_str("2.16.99.99")
        detector.observe(DnsObservation(0.0, 1, "x.com", [base]))
        detector.observe(DnsObservation(1.0, 1, "x.com", [base]))
        assert detector.observe(
            DnsObservation(2.0, 1, "x.com", [neighbour])
        ) is None

    def test_learns_after_alert(self):
        from repro.analytics.anomaly import MappingAnomalyDetector

        detector = MappingAnomalyDetector(min_history=1, prefix_bits=16)
        a = ip_from_str("2.16.0.1")
        b = ip_from_str("99.0.0.1")
        detector.observe(DnsObservation(0.0, 1, "x.com", [a]))
        detector.observe(DnsObservation(1.0, 1, "x.com", [a]))
        assert detector.observe(DnsObservation(2.0, 1, "x.com", [b])) is not None
        # second time: the new prefix is now history — no alert
        assert detector.observe(DnsObservation(3.0, 1, "x.com", [b])) is None

    def test_invalid_prefix_bits(self):
        from repro.analytics.anomaly import MappingAnomalyDetector

        with pytest.raises(ValueError):
            MappingAnomalyDetector(prefix_bits=0)


class TestTrackerPathEquivalence:
    """observe()/observe_all() and the grouped observe_database() path
    must build identical timelines — case-folded labels, out-of-order
    streams and all (regression for the PR 3 fast path)."""

    def _flows(self):
        return [
            _flow(1, 10, "Tracker1.Appspot.COM", start=50_000.0),
            _flow(2, 11, "tracker1.appspot.com", start=100.0),
            _flow(1, 12, "app5.appspot.com", start=200.0),
            _flow(3, 10, "tracker2.appspot.com", start=30_000.0),
        ]

    def test_same_timelines_and_order(self):
        database = FlowDatabase.from_flows(self._flows())
        per_flow = TrackerActivityAnalysis(bin_seconds=3600.0)
        per_flow.observe_all(self._flows())
        grouped = TrackerActivityAnalysis(bin_seconds=3600.0)
        grouped.observe_database(database)
        assert [
            (t.service, t.first_seen, sorted(t.active_bins))
            for t in per_flow.timelines()
        ] == [
            (t.service, t.first_seen, sorted(t.active_bins))
            for t in grouped.timelines()
        ]
        # mixed-case label folded into one service, first_seen = min start
        assert per_flow.timelines()[0].service == "tracker1.appspot.com"
        assert per_flow.timelines()[0].first_seen == 100.0

    def test_classifier_sees_lowercased_label_on_both_paths(self):
        wanted = {"tracker1.appspot.com"}
        database = FlowDatabase.from_flows(self._flows())
        per_flow = TrackerActivityAnalysis(
            bin_seconds=3600.0, classifier=lambda fqdn: fqdn in wanted
        )
        per_flow.observe_all(self._flows())
        grouped = TrackerActivityAnalysis(
            bin_seconds=3600.0, classifier=lambda fqdn: fqdn in wanted
        )
        grouped.observe_database(database)
        assert len(per_flow.timelines()) == len(grouped.timelines()) == 1
