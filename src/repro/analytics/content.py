"""Content Discovery (Sec. 4.2, Algorithm 3).

The inverse of spatial discovery: start from a set of server addresses
(e.g. everything MaxMind attributes to Amazon EC2) and rank what they
serve — whole organizations, FQDNs, or service tokens.  Tab. 5 ("top-10
domains hosted on Amazon EC2") is this module's output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.analytics.database import FlowDatabase
from repro.dns.name import second_level_domain
from repro.orgdb.ipdb import IpOrganizationDb


@dataclass(frozen=True, slots=True)
class DomainShare:
    """One hosted domain with its share of the address set's flows."""

    domain: str
    flows: int
    share: float
    fqdn_count: int


class ContentDiscovery:
    """Algorithm 3 over the flow database.

    Args:
        database: labeled flow store.
        ipdb: optional address→organization database; needed only for the
            convenience entry point that starts from a CDN *name* rather
            than an explicit address set.
    """

    def __init__(
        self, database: FlowDatabase, ipdb: Optional[IpOrganizationDb] = None
    ):
        self.database = database
        self.ipdb = ipdb

    def _servers_of_cdn(self, cdn: str) -> list[int]:
        if self.ipdb is None:
            raise ValueError("an IpOrganizationDb is required to resolve CDN names")
        owned = self.ipdb.ranges_of(cdn)
        if not owned:
            return []
        # Ranges never overlap: a server is the CDN's exactly when the
        # last of its ranges starting at or below it also covers it.
        starts = np.array([r.start for r in owned], np.int64)
        ends = np.array([r.end for r in owned], np.int64)
        servers = np.array(self.database.servers(), np.int64)
        at = np.searchsorted(starts, servers, side="right") - 1
        inside = (at >= 0) & (servers <= ends[np.maximum(at, 0)])
        return servers[inside].tolist()

    # -- Algorithm 3 ------------------------------------------------------

    def hosted_domains(
        self, servers: Iterable[int], k: int = 10
    ) -> list[DomainShare]:
        """Top-``k`` second-level domains served by ``servers`` (Tab. 5).

        Grouped on the columnar store: one ``(sld, flows, fqdns)`` entry
        per organization instead of a per-flow scan.
        """
        database = self.database
        rows = database.rows_for_servers(servers)
        stats = database.sld_flow_stats(rows)
        total = sum(flows for _sld_id, flows, _fqdns in stats)
        ranked = sorted(
            (
                (database.sld_label(sld_id), flows, fqdn_count)
                for sld_id, flows, fqdn_count in stats
            ),
            key=lambda item: (-item[1], item[0]),
        )
        return [
            DomainShare(
                domain=domain,
                flows=count,
                share=count / total if total else 0.0,
                fqdn_count=fqdn_count,
            )
            for domain, count, fqdn_count in ranked[:k]
        ]

    def hosted_domains_of_cdn(self, cdn: str, k: int = 10) -> list[DomainShare]:
        """Tab. 5 entry point: rank domains hosted by a named CDN/cloud."""
        return self.hosted_domains(self._servers_of_cdn(cdn), k=k)

    def hosted_fqdns(self, servers: Iterable[int]) -> set[str]:
        """All FQDNs delivered by the address set (Alg. 3 line 4)."""
        return self.database.fqdns_for_servers(servers)

    def common_domains(
        self, servers_a: Iterable[int], servers_b: Iterable[int]
    ) -> set[str]:
        """Domains hosted on *both* address sets (Sec. 4.2 question iii)."""
        domains_a = {
            second_level_domain(f) for f in self.hosted_fqdns(servers_a)
        }
        domains_b = {
            second_level_domain(f) for f in self.hosted_fqdns(servers_b)
        }
        return domains_a & domains_b
