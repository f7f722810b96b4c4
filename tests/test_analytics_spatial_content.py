"""Tests for Spatial Discovery (Alg. 2) and Content Discovery (Alg. 3)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analytics.content import ContentDiscovery
from repro.analytics.database import FlowDatabase
from repro.analytics.spatial import SELF_LABEL, SpatialDiscovery
from repro.net.flow import FiveTuple, FlowRecord, Protocol, TransportProto
from repro.net.ip import IPv4Network, ip_from_str
from repro.orgdb.ipdb import IpOrganizationDb

# Address plan: Akamai 2.16.0.0/24, Amazon 54.0.0.0/24, Zynga 64.0.0.0/24.
AKAMAI1 = ip_from_str("2.16.0.10")
AKAMAI2 = ip_from_str("2.16.0.11")
AMAZON1 = ip_from_str("54.0.0.10")
AMAZON2 = ip_from_str("54.0.0.11")
ZYNGA1 = ip_from_str("64.0.0.10")


def _ipdb():
    db = IpOrganizationDb()
    db.add_network(IPv4Network.parse("2.16.0.0/24"), "akamai")
    db.add_network(IPv4Network.parse("54.0.0.0/24"), "amazon")
    db.add_network(IPv4Network.parse("64.0.0.0/24"), "zynga")
    return db


def _flow(client, server, fqdn, start=0.0, dport=80):
    return FlowRecord(
        fid=FiveTuple(client, server, 40000, dport, TransportProto.TCP),
        start=start,
        fqdn=fqdn,
    )


@pytest.fixture
def flows_db():
    database = FlowDatabase()
    # zynga.com: static on Akamai (2 servers), games on Amazon (2 servers),
    # mafiawars on Zynga itself.
    database.add_all(
        [
            _flow(1, AKAMAI1, "static.zynga.com", 0.0),
            _flow(1, AKAMAI2, "assets.static.zynga.com", 10.0),
            _flow(2, AMAZON1, "cityville.zynga.com", 20.0),
            _flow(2, AMAZON2, "farmville.zynga.com", 30.0),
            _flow(3, AMAZON1, "cityville.zynga.com", 40.0),
            _flow(3, AMAZON1, "cityville.zynga.com", 700.0),
            _flow(3, ZYNGA1, "mafiawars.zynga.com", 50.0),
            # another org on the same Amazon machines:
            _flow(4, AMAZON1, "www.dropbox.com", 60.0, dport=443),
            _flow(4, AMAZON2, "client.dropbox.com", 70.0, dport=443),
        ]
    )
    return database


class TestSpatialDiscovery:
    def test_organization_extraction(self, flows_db):
        spatial = SpatialDiscovery(flows_db, _ipdb())
        report = spatial.discover("cityville.zynga.com")
        assert report.organization == "zynga.com"
        assert report.server_set == {AKAMAI1, AKAMAI2, AMAZON1, AMAZON2, ZYNGA1}

    def test_per_fqdn_server_sets(self, flows_db):
        spatial = SpatialDiscovery(flows_db, _ipdb())
        report = spatial.discover("zynga.com")
        assert report.per_fqdn["cityville.zynga.com"] == {AMAZON1}
        assert report.per_fqdn["static.zynga.com"] == {AKAMAI1}

    def test_cdn_grouping_and_shares(self, flows_db):
        spatial = SpatialDiscovery(flows_db, _ipdb())
        report = spatial.discover("zynga.com")
        assert report.per_cdn["akamai"].server_count == 2
        assert report.per_cdn["amazon"].server_count == 2
        # Zynga's own servers become SELF.
        assert SELF_LABEL in report.per_cdn
        assert report.per_cdn[SELF_LABEL].servers == {ZYNGA1}
        assert report.flow_share("amazon") == pytest.approx(4 / 7)
        ranked = report.ranked_cdns()
        assert ranked[0].organization == "amazon"

    def test_without_ipdb_everything_unknown(self, flows_db):
        spatial = SpatialDiscovery(flows_db, ipdb=None)
        report = spatial.discover("zynga.com")
        assert set(report.per_cdn) == {"unknown"}

    def test_empty_domain(self, flows_db):
        spatial = SpatialDiscovery(flows_db, _ipdb())
        report = spatial.discover("nonexistent.org")
        assert report.total_flows == 0
        assert report.flow_share("akamai") == 0.0
        assert report.ranked_cdns() == []


class TestContentDiscovery:
    def test_hosted_domains_on_amazon(self, flows_db):
        content = ContentDiscovery(flows_db, _ipdb())
        shares = content.hosted_domains_of_cdn("amazon", k=10)
        domains = [s.domain for s in shares]
        assert domains[0] == "zynga.com"   # 4 flows vs dropbox 2
        assert "dropbox.com" in domains
        zynga = shares[0]
        assert zynga.flows == 4
        assert zynga.share == pytest.approx(4 / 6)
        assert zynga.fqdn_count == 2

    @given(st.lists(st.integers(0, 120), max_size=40),
           st.sampled_from(["amazon", "AKAMAI", "Akamai", "edgecast"]))
    def test_cdn_servers_are_those_the_ipdb_names(self, servers, cdn):
        """Every server of the CDN (its name matched ignoring case), in
        first-seen order: what looking each server up would give."""
        ipdb = IpOrganizationDb()
        ipdb.add_range(10, 19, "Akamai")
        ipdb.add_range(30, 39, "akamai")
        ipdb.add_range(50, 50, "Amazon")
        ipdb.add_range(60, 100, "leaseweb")
        db = FlowDatabase.from_flows(
            FlowRecord(
                fid=FiveTuple(1, server, 1024 + at, 443, TransportProto.TCP),
                start=float(at), end=float(at) + 1.0,
                protocol=Protocol.TLS, bytes_up=1, bytes_down=1, packets=1,
                fqdn="www.example.com",
            )
            for at, server in enumerate(servers)
        )
        expected = [
            server for server in db.servers()
            if (ipdb.lookup(server) or "").lower() == cdn.lower()
        ]
        assert ContentDiscovery(db, ipdb)._servers_of_cdn(cdn) == expected

    def test_hosted_domains_explicit_servers(self, flows_db):
        content = ContentDiscovery(flows_db)
        shares = content.hosted_domains([AKAMAI1, AKAMAI2])
        assert [s.domain for s in shares] == ["zynga.com"]

    def test_hosted_fqdns(self, flows_db):
        content = ContentDiscovery(flows_db)
        fqdns = content.hosted_fqdns([AMAZON1])
        assert fqdns == {
            "cityville.zynga.com", "www.dropbox.com",
        }

    def test_k_truncation(self, flows_db):
        content = ContentDiscovery(flows_db, _ipdb())
        assert len(content.hosted_domains_of_cdn("amazon", k=1)) == 1

    def test_cdn_name_requires_ipdb(self, flows_db):
        content = ContentDiscovery(flows_db)
        with pytest.raises(ValueError):
            content.hosted_domains_of_cdn("amazon")

    def test_common_domains(self, flows_db):
        content = ContentDiscovery(flows_db)
        common = content.common_domains(
            [AMAZON1, AMAZON2], [AKAMAI1, AKAMAI2]
        )
        assert common == {"zynga.com"}
