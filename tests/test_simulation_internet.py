"""Tests for the synthetic internet: address plan, resolution, PTRs."""

import pytest

from repro.orgdb.whois import OrgKind
from repro.simulation.internet import build_internet, expand_pattern


def _entry(internet, fqdn: str):
    """The service entry publishing ``fqdn``."""
    return next(entry for entry in internet.entries if fqdn in entry.fqdns)


@pytest.fixture(scope="module")
def eu():
    return build_internet("EU", seed=3)


@pytest.fixture(scope="module")
def us():
    return build_internet("US", seed=3)


class TestExpandPattern:
    def test_plain(self):
        assert expand_pattern("www", (), (1, 3)) == ["www"]

    def test_n_placeholder(self):
        assert expand_pattern("media{n}", (), (1, 3)) == [
            "media1", "media2", "media3",
        ]

    def test_name_placeholder(self):
        assert expand_pattern("photos-{name}", ["a", "b"], (1, 2)) == [
            "photos-a", "photos-b",
        ]

    def test_double_n(self):
        out = expand_pattern("v{n}.ls{n}", (), (1, 2))
        assert "v1.ls2" in out and len(out) == 4

    def test_cap(self):
        out = expand_pattern("x{n}.y{n}", (), (1, 30))
        assert len(out) <= 400


class TestAddressPlan:
    def test_cdn_addresses_resolve_to_cdn(self, eu):
        entry = _entry(eu, "static.fbcdn.net")
        assert entry is not None
        for pool in entry.pools:
            assert pool.operator == "akamai"
            for server in pool.servers:
                assert eu.ipdb.lookup(server) == "akamai"

    def test_self_addresses_resolve_to_org(self, eu):
        entry = _entry(eu, "www.linkedin.com")
        server = entry.pools[0].servers[0]
        assert eu.ipdb.lookup(server) == "linkedin"

    def test_geographies_use_disjoint_addresses(self, eu, us):
        eu_servers = {
            s for e in eu.entries for p in e.pools for s in p.servers
        }
        us_servers = {
            s for e in us.entries for p in e.pools for s in p.servers
        }
        assert not eu_servers & us_servers

    def test_cdn_pool_shared_across_orgs(self, eu):
        """The fan-in: one akamai edge serves several organizations."""
        akamai_users = {}
        for entry in eu.entries:
            for pool in entry.pools:
                if pool.operator != "akamai":
                    continue
                for server in pool.servers:
                    akamai_users.setdefault(server, set()).add(
                        entry.organization.domain
                    )
        assert any(len(orgs) > 1 for orgs in akamai_users.values())

    def test_whois_kinds(self, eu):
        assert eu.whois.lookup("akamai").kind is OrgKind.CDN
        assert eu.whois.lookup("amazon").kind is OrgKind.CLOUD
        assert eu.whois.lookup("zynga").kind is OrgKind.CONTENT_OWNER


class TestResolution:
    def test_known_fqdn_resolves(self, eu):
        answers, ttl = eu.resolve("www.google.com", now=100.0)
        assert answers
        assert ttl > 0
        for address in answers:
            assert eu.ipdb.lookup(address) == "google"

    def test_unknown_fqdn_empty(self, eu):
        assert eu.resolve("nope.invalid", now=0.0) == ([], 0)

    def test_deterministic_within_bucket(self, eu):
        a1, _ = eu.resolve("www.facebook.com", now=100.0)
        a2, _ = eu.resolve("www.facebook.com", now=101.0)
        assert a1 == a2

    def test_rotation_over_time(self, eu):
        """CDN names change answers across TTL windows (load balancing)."""
        seen = set()
        for t in range(0, 36000, 600):
            answers, _ = eu.resolve("photos-a.fbcdn.net", now=float(t))
            seen.update(answers)
        single, _ = eu.resolve("photos-a.fbcdn.net", now=0.0)
        assert len(seen) > len(single)

    def test_diurnal_pool_scaling(self, eu):
        """More distinct fbcdn servers at peak than at dawn (Fig. 4)."""
        def distinct_servers(hour):
            seen = set()
            for minute in range(0, 60, 2):
                for name in "abcdefgh":
                    answers, _ = eu.resolve(
                        f"photos-{name}.fbcdn.net",
                        now=hour * 3600.0 + minute * 60,
                    )
                    seen.update(answers)
            return len(seen)

        dawn = distinct_servers(3)    # 04:00 local (EU = GMT+1)
        peak = distinct_servers(20)   # 21:00 local
        assert peak > dawn

    def test_answer_list_size_bounded(self, eu):
        for entry in eu.entries[:20]:
            answers, _ = eu.resolve(entry.fqdns[0], now=0.0)
            assert len(answers) <= entry.service.answer_list_size


class TestReverseDns:
    def test_cdn_ptr_is_infra_name(self, eu):
        entry = _entry(eu, "static.fbcdn.net")
        names = []
        for pool in entry.pools:
            for server in pool.servers:
                ptr = eu.reverse.lookup(server)
                if ptr:
                    names.append(ptr)
        assert names, "akamai should have decent PTR coverage"
        assert all("akamaitechnologies.com" in n for n in names)

    def test_some_addresses_lack_ptr(self, eu):
        total, missing = 0, 0
        for entry in eu.entries:
            for pool in entry.pools:
                for server in pool.servers:
                    total += 1
                    if eu.reverse.lookup(server) is None:
                        missing += 1
        assert 0.05 < missing / total < 0.6

    def test_self_hosted_ptr_styles_mixed(self, eu):
        """SELF addresses: some exact FQDN, some srvN.domain, some none."""
        exact = infra = 0
        for entry in eu.entries:
            domain = entry.organization.domain
            for pool in entry.pools:
                if pool.operator == "akamai" or pool.operator in eu.cdns:
                    continue
                for server in pool.servers:
                    ptr = eu.reverse.lookup(server)
                    if ptr is None:
                        continue
                    if ptr.startswith("srv"):
                        infra += 1
                    elif ptr.endswith(domain):
                        exact += 1
        assert infra > 0
        assert exact > 0


class TestServiceEntries:
    def test_popularity_filtering(self, eu, us):
        eu_entries = {e.fqdns[0] for e in eu.service_entries()}
        us_entries = {e.fqdns[0] for e in us.service_entries()}
        # andomedia has zero EU popularity (Tab. 5 geography effect).
        assert not any("andomedia" in f for f in eu_entries)
        assert any("andomedia" in f for f in us_entries)

    def test_asset_entries_subset(self, eu):
        assets = eu.service_entries(asset_only=True)
        assert assets
        assert all(
            e.organization.domain in {
                "fbcdn.net", "cloudfront.net", "ytimg.com", "twimg.com",
                "sharethis.com", "invitemedia.com", "rubiconproject.com",
            }
            for e in assets
        )

    def test_entries_cached(self, eu):
        assert eu.service_entries() is eu.service_entries()


class TestCatalogTables:
    def test_tab7_ports_exist_in_us(self, us):
        ports = {
            entry.service.port
            for entry in us.service_entries()
        }
        for port in (1080, 1337, 2710, 5050, 5190, 5222, 5223, 5228,
                     6969, 12043, 18182):
            assert port in ports, f"Tab. 7 port {port} missing"

    def test_tab6_ports_exist_in_eu(self, eu):
        ports = {entry.service.port for entry in eu.service_entries()}
        for port in (25, 110, 143, 554, 587, 995, 1863):
            assert port in ports, f"Tab. 6 port {port} missing"

    def test_zynga_three_hosting_arrangements(self, eu):
        operators = set()
        for entry in eu.entries:
            if entry.organization.domain == "zynga.com":
                for pool in entry.pools:
                    operators.add(pool.operator)
        assert operators == {"amazon", "akamai", "zynga"}

    def test_linkedin_four_arrangements(self, eu):
        operators = set()
        for entry in eu.entries:
            if entry.organization.domain == "linkedin.com":
                for pool in entry.pools:
                    operators.add(pool.operator)
        assert operators == {"akamai", "cdnetworks", "edgecast", "linkedin"}
