"""Tests for the IP→organization database and whois registry."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.ip import IPv4Network, ip_from_str
from repro.orgdb.ipdb import IpOrganizationDb, IpRange
from repro.orgdb.whois import OrgKind, OrgRecord, WhoisRegistry


class TestIpRange:
    def test_contains(self):
        r = IpRange(10, 20, "akamai")
        assert 10 in r and 20 in r and 15 in r
        assert 9 not in r and 21 not in r

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            IpRange(20, 10, "x")

    def test_str(self):
        r = IpRange(ip_from_str("1.0.0.0"), ip_from_str("1.0.0.255"), "ak")
        assert "1.0.0.0-1.0.0.255" in str(r)


class TestIpOrganizationDb:
    def test_lookup_basic(self):
        db = IpOrganizationDb()
        db.add_range(100, 200, "akamai")
        db.add_range(300, 400, "amazon")
        assert db.lookup(150) == "akamai"
        assert db.lookup(300) == "amazon"
        assert db.lookup(250) is None
        assert db.lookup(50) is None
        assert db.lookup(500) is None

    def test_add_network(self):
        db = IpOrganizationDb()
        db.add_network(IPv4Network.parse("2.16.0.0/16"), "akamai")
        assert db.lookup(ip_from_str("2.16.200.1")) == "akamai"
        assert db.lookup(ip_from_str("2.17.0.1")) is None

    def test_add_networks_batch(self):
        db = IpOrganizationDb()
        nets = [IPv4Network.parse("10.0.0.0/24"), IPv4Network.parse("10.0.2.0/24")]
        db.add_networks(nets, "leaseweb")
        assert db.lookup(ip_from_str("10.0.2.9")) == "leaseweb"
        assert len(db) == 2

    def test_overlap_rejected(self):
        db = IpOrganizationDb()
        db.add_range(100, 200, "a")
        for bad in [(150, 250), (50, 100), (200, 300), (120, 130), (50, 300)]:
            with pytest.raises(ValueError):
                db.add_range(bad[0], bad[1], "b")

    def test_adjacent_allowed(self):
        db = IpOrganizationDb()
        db.add_range(100, 200, "a")
        db.add_range(201, 300, "b")
        assert db.lookup(200) == "a"
        assert db.lookup(201) == "b"

    def test_organizations(self):
        db = IpOrganizationDb()
        db.add_range(1, 10, "x")
        db.add_range(20, 30, "x")
        db.add_range(40, 50, "y")
        assert db.organizations() == {"x", "y"}

    def test_ranges_of_ignores_case_and_keeps_address_order(self):
        db = IpOrganizationDb()
        db.add_range(40, 50, "Akamai")
        db.add_range(1, 10, "AKAMAI")
        db.add_range(20, 30, "amazon")
        assert [(r.start, r.end) for r in db.ranges_of("akamai")] == [
            (1, 10), (40, 50),
        ]
        assert db.ranges_of("edgecast") == []

    @given(
        st.lists(
            st.tuples(st.integers(0, 10_000), st.integers(1, 50)),
            max_size=30,
        )
    )
    def test_property_point_queries_match_linear_scan(self, raw):
        db = IpOrganizationDb()
        accepted = []
        for index, (start, width) in enumerate(raw):
            try:
                db.add_range(start, start + width, f"org{index}")
                accepted.append((start, start + width, f"org{index}"))
            except ValueError:
                pass
        for probe in range(0, 10_100, 97):
            expected = next(
                (org for s, e, org in accepted if s <= probe <= e), None
            )
            assert db.lookup(probe) == expected


class TestWhoisRegistry:
    def _registry(self):
        reg = WhoisRegistry()
        reg.register(
            OrgRecord(
                name="akamai",
                kind=OrgKind.CDN,
                aliases=("akamai technologies", "akamai intl"),
            )
        )
        reg.register(OrgRecord(name="amazon", kind=OrgKind.CLOUD))
        reg.register(OrgRecord(name="zynga", kind=OrgKind.CONTENT_OWNER))
        return reg

    def test_lookup_by_name_and_alias(self):
        reg = self._registry()
        assert reg.lookup("akamai").kind is OrgKind.CDN
        assert reg.lookup("Akamai Technologies").name == "akamai"
        assert reg.lookup("unknown") is None

    def test_duplicate_rejected(self):
        reg = self._registry()
        with pytest.raises(ValueError):
            reg.register(OrgRecord(name="AKAMAI", kind=OrgKind.CDN))

    def test_display_name_defaults(self):
        record = OrgRecord(name="edgecast", kind=OrgKind.CDN)
        assert record.display_name == "edgecast"

    def test_iteration_and_len(self):
        reg = self._registry()
        assert len(reg) == 3
        assert {r.name for r in reg} == {"akamai", "amazon", "zynga"}
