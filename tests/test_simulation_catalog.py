"""Sanity tests over the catalog data and entity model.

The catalog is the reproduction's "ground truth internet"; these tests
pin the structural properties the experiments depend on, so a careless
catalog edit fails fast instead of silently skewing a figure.
"""

import pytest

from repro.net.ip import IPv4Network
from repro.simulation.catalog import (
    APPSPOT_TRACKERS,
    ASSET_DOMAINS,
    build_catalog,
    build_cdns,
    build_organizations,
)
from repro.simulation.entities import (
    CertPolicy,
    Deployment,
)


@pytest.fixture(scope="module")
def catalog():
    return build_catalog()


class TestCdnCatalog:
    def test_blocks_do_not_overlap(self, catalog):
        cdns, orgs = catalog
        blocks = []
        for cdn in cdns:
            for cidrs in cdn.cidrs_by_geo.values():
                blocks.extend(IPv4Network.parse(c) for c in cidrs)
        for org in orgs:
            for cidrs in org.self_cidrs_by_geo.values():
                blocks.extend(IPv4Network.parse(c) for c in cidrs)
        for i, a in enumerate(blocks):
            for b in blocks[i + 1:]:
                assert a.last < b.base or b.last < a.base, (
                    f"address blocks overlap: {a} vs {b}"
                )

    def test_every_cdn_covers_both_geographies(self, catalog):
        cdns, _ = catalog
        for cdn in cdns:
            assert set(cdn.geographies()) == {"EU", "US"}, cdn.name

    def test_paper_cdns_present(self, catalog):
        cdns, _ = catalog
        names = {cdn.name for cdn in cdns}
        # Fig. 5's x-axis plus Fig. 7/9 hosts.
        for required in ("akamai", "amazon", "google", "level 3",
                        "leaseweb", "cotendo", "edgecast", "microsoft",
                        "cdnetworks", "dedibox", "meta", "ntt"):
            assert required in names

    def test_ptr_coverage_in_range(self, catalog):
        cdns, _ = catalog
        for cdn in cdns:
            assert 0.0 <= cdn.ptr_coverage <= 1.0


class TestOrganizationCatalog:
    def test_every_deployment_names_known_host(self, catalog):
        cdns, orgs = catalog
        cdn_names = {cdn.name for cdn in cdns}
        for org in orgs:
            for service in org.services:
                for deployment in service.deployments:
                    assert (
                        deployment.cdn == "SELF"
                        or deployment.cdn in cdn_names
                    ), f"{org.domain}: unknown host {deployment.cdn}"

    def test_self_deployments_have_address_space(self, catalog):
        _, orgs = catalog
        for org in orgs:
            uses_self = any(
                d.cdn == "SELF"
                for s in org.services
                for d in s.deployments
            )
            if uses_self:
                assert org.self_cidrs_by_geo, (
                    f"{org.domain} SELF-hosts but owns no addresses"
                )

    def test_popularities_non_negative(self, catalog):
        _, orgs = catalog
        for org in orgs:
            for service in org.services:
                assert service.popularity >= 0
                for value in service.popularity_by_geo.values():
                    assert value >= 0

    def test_cdn_cert_policy_has_name(self, catalog):
        _, orgs = catalog
        for org in orgs:
            if org.cert_policy is CertPolicy.CDN_NAME:
                assert org.cert_cdn_name, org.domain

    def test_asset_domains_exist(self, catalog):
        _, orgs = catalog
        domains = {org.domain for org in orgs}
        assert ASSET_DOMAINS <= domains

    def test_trackers_named_trackerish(self):
        # Fig. 10/11 analyses match tracker names by token; the catalog
        # pool must stay detectable by the default classifier.
        from repro.analytics.trackers import TrackerActivityAnalysis

        classify = TrackerActivityAnalysis._default_classifier
        detectable = sum(1 for name in APPSPOT_TRACKERS if classify(name))
        assert detectable / len(APPSPOT_TRACKERS) > 0.6


class TestDeploymentModel:
    def test_active_in(self):
        everywhere = Deployment("akamai", 2)
        assert everywhere.active_in("EU") and everywhere.active_in("US")
        eu_only = Deployment("akamai", 2, geographies=("EU",))
        assert eu_only.active_in("EU")
        assert not eu_only.active_in("US")

    def test_paper_port_coverage(self, catalog):
        """Every port named in Tab. 6/7 exists somewhere in the catalog."""
        _, orgs = catalog
        ports = {
            service.port for org in orgs for service in org.services
        }
        for port in (25, 110, 143, 554, 587, 995, 1863, 1080, 1337, 2710,
                     5050, 5190, 5222, 5223, 5228, 6969, 12043, 12046,
                     18182):
            assert port in ports, f"port {port} lost from the catalog"

    def test_organizations_unique(self):
        orgs = build_organizations()
        domains = [org.domain for org in orgs]
        assert len(domains) == len(set(domains))

    def test_cdns_unique(self):
        names = [cdn.name for cdn in build_cdns()]
        assert len(names) == len(set(names))
