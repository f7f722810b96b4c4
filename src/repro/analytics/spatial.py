"""Spatial Discovery of Servers (Sec. 4.1, Algorithm 2).

Given a FQDN (or a whole organization), report every server address that
delivered its content, grouped by the CDN/cloud operating each address,
with flow shares — the data behind Fig. 7/8/9 of the paper.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

from repro.analytics.database import FlowDatabase
from repro.dns.name import second_level_domain
from repro.orgdb.ipdb import IpOrganizationDb

SELF_LABEL = "SELF"
UNKNOWN_LABEL = "unknown"


@dataclass(slots=True)
class CdnShare:
    """One hosting organization's share of a domain's traffic."""

    organization: str
    servers: set[int] = field(default_factory=set)
    flows: int = 0

    @property
    def server_count(self) -> int:
        return len(self.servers)


@dataclass(slots=True)
class SpatialReport:
    """Output of Algorithm 2 for one target domain.

    ``per_fqdn`` maps each FQDN under the organization to its server
    set; ``per_cdn`` groups servers and flow counts by hosting
    organization (content owner itself = ``SELF``).
    """

    target: str
    organization: str
    server_set: set[int] = field(default_factory=set)
    per_fqdn: dict[str, set[int]] = field(default_factory=dict)
    per_cdn: dict[str, CdnShare] = field(default_factory=dict)
    total_flows: int = 0

    def flow_share(self, organization: str) -> float:
        """Fraction of the domain's flows served by ``organization``."""
        share = self.per_cdn.get(organization)
        if share is None or self.total_flows == 0:
            return 0.0
        return share.flows / self.total_flows

    def ranked_cdns(self) -> list[CdnShare]:
        """Hosting organizations by descending flow count."""
        return sorted(
            self.per_cdn.values(), key=lambda s: (-s.flows, s.organization)
        )


class SpatialDiscovery:
    """Algorithm 2 over the flow database plus the IP→org database.

    Args:
        database: labeled flow store.
        ipdb: address→organization mapping (the MaxMind substitute).
            When an address maps to the content owner's own organization
            name it is reported as ``SELF``, matching Fig. 9.
    """

    def __init__(
        self, database: FlowDatabase, ipdb: Optional[IpOrganizationDb] = None
    ):
        self.database = database
        self.ipdb = ipdb

    def _owner_of(self, address: int, content_org: str) -> str:
        if self.ipdb is None:
            return UNKNOWN_LABEL
        owner = self.ipdb.lookup(address)
        if owner is None:
            return UNKNOWN_LABEL
        if owner.lower() == content_org.lower():
            return SELF_LABEL
        return owner

    def discover(self, target: str) -> SpatialReport:
        """Run Algorithm 2 for ``target`` (a FQDN or a 2LD).

        Lines 4-5: extract the 2LD and pull the organization's row set;
        lines 6-9: per-FQDN server sets; the CDN grouping implements the
        "which CDNs handle the queries" analysis of Sec. 4.1/5.3.  All
        grouping happens on the columnar store — the IP→org database is
        probed once per distinct server, not once per flow.
        """
        organization = second_level_domain(target)
        database = self.database
        rows = database.rows_for_domain(organization)
        report = SpatialReport(target=target, organization=organization)
        org_short = organization.split(".")[0]
        per_fqdn: dict[str, set[int]] = defaultdict(set)
        for fqdn_id, server, _count in database.fqdn_server_counts(rows):
            per_fqdn[database.fqdn_label(fqdn_id)].add(server)
        report.per_fqdn = dict(per_fqdn)
        for server, count in database.server_flow_counts(rows).items():
            report.server_set.add(server)
            owner = self._owner_of(server, org_short)
            share = report.per_cdn.get(owner)
            if share is None:
                share = CdnShare(organization=owner)
                report.per_cdn[owner] = share
            share.servers.add(server)
            share.flows += count
            report.total_flows += count
        return report
