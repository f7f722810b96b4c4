"""Assemble the synthetic internet from the catalog.

``build_internet(geography)`` creates, for one vantage-point geography:

* an address plan — every CDN gets a shared per-geography edge pool that
  its customers' deployments draw from (so one Akamai address serves
  several organizations: the fan-in of Fig. 3), every SELF-hosting
  organization gets its own block;
* forward DNS state — each concrete FQDN resolves to a rotating window
  over its deployment's server pool, with TTL policy and diurnal pool
  scaling (Fig. 4 behaviour);
* reverse DNS — PTR records per operator naming style and coverage
  (what makes reverse lookups mostly useless, Tab. 3);
* the IP→organization database and whois registry the analytics use.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple, Optional

from repro.dns.server import ReverseZone
from repro.net.flow import Protocol as _Protocol
from repro.net.ip import IPv4Network, IPv4Pool, ip_to_str
from repro.orgdb.ipdb import IpOrganizationDb
from repro.orgdb.whois import OrgKind, OrgRecord, WhoisRegistry
from repro.simulation.catalog import ASSET_DOMAINS, build_catalog
from repro.simulation.diurnal import pool_scale
from repro.simulation.entities import (
    Cdn,
    Deployment,
    Organization,
    PtrStyle,
    Service,
)

MAX_EXPANSIONS_PER_SERVICE = 400
_HTTP = _Protocol.HTTP
DEFAULT_TAIL_SITES = 1600


def expand_pattern(
    pattern: str, name_pool, n_range: tuple[int, int]
) -> list[str]:
    """All concrete subdomains for a service pattern.

    ``{name}`` expands over ``name_pool``; each ``{n}`` occurrence
    expands independently over ``n_range``.
    """
    expansions = [pattern]
    if "{name}" in pattern:
        expansions = [
            e.replace("{name}", name, 1)
            for e in expansions
            for name in name_pool
        ]
    while any("{n}" in e for e in expansions):
        expansions = [
            e.replace("{n}", str(n), 1) if "{n}" in e else e
            for e in expansions
            for n in range(n_range[0], n_range[1] + 1)
        ][:MAX_EXPANSIONS_PER_SERVICE]
    return expansions[:MAX_EXPANSIONS_PER_SERVICE]


@dataclass
class DeploymentPool:
    """One deployment's concrete servers in this geography."""

    deployment: Deployment
    operator: str        # registry name ("akamai", or the org short name)
    servers: list[int] = field(default_factory=list)


@dataclass
class ServiceEntry:
    """A service bound to its organization and concrete hosting."""

    organization: Organization
    service: Service
    pools: list[DeploymentPool] = field(default_factory=list)
    fqdns: list[str] = field(default_factory=list)

    @property
    def total_weight(self) -> float:
        return sum(p.deployment.weight for p in self.pools) or 1.0


class SamplingTable(NamedTuple):
    """An entry list with what a popularity-weighted draw from it needs:
    the weights, ``total = sum(weights)`` and the running sums
    accumulated left to right from 0.0."""

    entries: list[ServiceEntry]
    weights: list[float]
    total: float
    cumulative: list[float]

    @classmethod
    def build(cls, entries: list, weights: list[float]) -> SamplingTable:
        running = list(accumulate(weights, initial=0.0))
        return cls(entries, weights, sum(weights), running[1:])


class Internet:
    """The built model for one geography.

    Use :func:`build_internet`; the constructor wires empty state only.
    """

    def __init__(self, geography: str, seed: int = 1):
        self.geography = geography
        self.seed = seed
        self.rng = random.Random(seed ^ zlib.crc32(geography.encode()))
        self.ipdb = IpOrganizationDb()
        self.whois = WhoisRegistry()
        self.reverse = ReverseZone()
        self.entries: list[ServiceEntry] = []
        self._fqdn_map: dict[str, ServiceEntry] = {}
        self._cdn_pools: dict[str, list[int]] = {}
        self._cdn_allocators: dict[str, IPv4Pool] = {}
        self._org_allocators: dict[str, IPv4Pool] = {}
        self._address_owner: dict[int, str] = {}
        # address -> PTR target (or None = explicitly no record); takes
        # precedence over the operator's default style.
        self._ptr_overrides: dict[int, Optional[str]] = {}
        self.cdns: dict[str, Cdn] = {}
        self.organizations: list[Organization] = []
        # The sampling table and asset list, rebuilt from ``entries`` by
        # every change to it.
        self._index_entries()

    # -- address plan -----------------------------------------------------

    def _register_cdn(self, cdn: Cdn) -> None:
        self.cdns[cdn.name] = cdn
        cidrs = cdn.cidrs_by_geo.get(self.geography)
        if not cidrs:
            return
        networks = [IPv4Network.parse(c) for c in cidrs]
        self._cdn_allocators[cdn.name] = IPv4Pool(networks=list(networks))
        self._cdn_pools[cdn.name] = []
        self.ipdb.add_networks(networks, cdn.name)
        kind = OrgKind.CLOUD if cdn.name == "amazon" else OrgKind.CDN
        self.whois.register(OrgRecord(name=cdn.name, kind=kind))

    def _org_short(self, organization: Organization) -> str:
        return organization.domain.split(".")[0]

    def _register_org_space(self, organization: Organization) -> None:
        cidrs = organization.self_cidrs_by_geo.get(self.geography)
        if not cidrs:
            return
        short = self._org_short(organization)
        networks = [IPv4Network.parse(c) for c in cidrs]
        self._org_allocators[organization.domain] = IPv4Pool(
            networks=list(networks)
        )
        self.ipdb.add_networks(networks, short)
        if self.whois.lookup(short) is None:
            self.whois.register(
                OrgRecord(name=short, kind=OrgKind.CONTENT_OWNER)
            )

    def _cdn_servers(self, cdn_name: str, count: int) -> list[int]:
        """Draw ``count`` servers from the CDN's shared edge pool.

        The pool grows just beyond the largest request, so different
        customers share edges — the realistic fan-in.
        """
        pool = self._cdn_pools[cdn_name]
        allocator = self._cdn_allocators[cdn_name]
        # Grow with cumulative demand: each customer adds edges, but the
        # pool stays smaller than the sum of requests so edges are shared
        # (fan-in) without every customer landing on the same handful.
        want = max(count, int((len(pool) + count) * 0.75))
        while len(pool) < want and allocator.allocated < allocator.capacity:
            address = allocator.allocate()
            pool.append(address)
            self._address_owner[address] = cdn_name
        return self.rng.sample(pool, min(count, len(pool)))

    def _self_servers(self, organization: Organization, count: int) -> list[int]:
        allocator = self._org_allocators.get(organization.domain)
        if allocator is None:
            raise ValueError(
                f"{organization.domain} has a SELF deployment but no "
                f"address block in {self.geography}"
            )
        servers = []
        short = self._org_short(organization)
        for _ in range(count):
            address = allocator.allocate()
            servers.append(address)
            self._address_owner[address] = short
        return servers

    # -- build ------------------------------------------------------------

    def _build_service(
        self, organization: Organization, service: Service
    ) -> Optional[ServiceEntry]:
        pools = []
        for deployment in service.deployments:
            if not deployment.active_in(self.geography):
                continue
            count = max(1, deployment.servers)
            if deployment.cdn == "SELF":
                servers = self._self_servers(organization, count)
                operator = self._org_short(organization)
            else:
                if deployment.cdn not in self._cdn_allocators:
                    continue
                servers = self._cdn_servers(deployment.cdn, count)
                operator = deployment.cdn
            pools.append(
                DeploymentPool(
                    deployment=deployment, operator=operator, servers=servers
                )
            )
        if not pools:
            return None
        entry = ServiceEntry(
            organization=organization, service=service, pools=pools
        )
        for subdomain in expand_pattern(
            service.subdomain, service.name_pool, service.n_range
        ):
            fqdn = f"{subdomain}.{organization.domain}".lower()
            entry.fqdns.append(fqdn)
            self._fqdn_map[fqdn] = entry
        self.entries.append(entry)
        return entry

    def _assign_ptr_records(self) -> None:
        """Give every allocated address its reverse name (Tab. 3 driver)."""
        # First FQDN seen per address, for EXACT-style PTR targets.
        first_fqdn: dict[int, str] = {}
        for entry in self.entries:
            canonical = entry.fqdns[0]
            for pool in entry.pools:
                for address in pool.servers:
                    first_fqdn.setdefault(address, canonical)
        org_counters: dict[str, int] = {}
        for address, owner in self._address_owner.items():
            if address in self._ptr_overrides:
                target = self._ptr_overrides[address]
                if target is not None:
                    self.reverse.set_pointer(address, target)
                continue
            cdn = self.cdns.get(owner)
            if cdn is not None:
                if (
                    cdn.ptr_style is PtrStyle.CDN_INFRA
                    and self.rng.random() < cdn.ptr_coverage
                ):
                    dashed = ip_to_str(address).replace(".", "-")
                    self.reverse.set_pointer(
                        address, cdn.ptr_template.format(ip=dashed)
                    )
                continue
            # Self-hosted organization address: mixture of exact / infra /
            # none, which is what produces the Tab. 3 split.
            domain = next(
                (
                    org.domain
                    for org in self.organizations
                    if self._org_short(org) == owner
                ),
                None,
            )
            if domain is None:
                continue
            roll = self.rng.random()
            if roll < 0.30 and address in first_fqdn:
                self.reverse.set_pointer(address, first_fqdn[address])
            elif roll < 0.85:
                index = org_counters.get(owner, 0) + 1
                org_counters[owner] = index
                self.reverse.set_pointer(address, f"srv{index}.{domain}")
            # else: no PTR record.

    # -- runtime queries ----------------------------------------------------

    def resolve(self, fqdn: str, now: float) -> tuple[list[int], int]:
        """Answer an A query: (address list, TTL).

        Deployment choice is a weight-proportional hash of (FQDN, time
        bucket); the answer list is a rotating window over the active
        part of the pool, where "active" scales with time of day for
        diurnal deployments.
        """
        entry = self._fqdn_map.get(fqdn.lower())
        if entry is None:
            return [], 0
        ttl = entry.organization.dns_ttl
        bucket = int(now // max(ttl, 30))
        # Deterministic across processes (hash() is salted by Python).
        key = zlib.crc32(f"{fqdn}|{bucket}".encode())
        pool = self._pick_pool(entry, key)
        servers = pool.servers
        if not servers:
            return [], ttl
        if pool.deployment.diurnal_scaling:
            tz = 1.0 if self.geography == "EU" else -5.0
            scale = pool_scale(now % 86400.0, timezone_offset_hours=tz)
            active_count = max(2, int(len(servers) * scale))
        else:
            active_count = len(servers)
        active = servers[:active_count]
        size = min(entry.service.answer_list_size, len(active))
        if pool.deployment.diurnal_scaling or size > 1:
            # CDN-style load balancing: the window rotates across TTL
            # buckets, so one name is served by many addresses over time.
            start = (key >> 8) % len(active)
        else:
            # Small sites stick to their address (Fig. 3: most FQDNs map
            # to exactly one serverIP).
            start = (zlib.crc32(fqdn.lower().encode()) >> 8) % len(active)
        answers = [active[(start + i) % len(active)] for i in range(size)]
        return answers, ttl

    def _pick_pool(self, entry: ServiceEntry, key: int) -> DeploymentPool:
        total = entry.total_weight
        point = (key % 10_000) / 10_000.0 * total
        cumulative = 0.0
        for pool in entry.pools:
            cumulative += pool.deployment.weight
            if point <= cumulative:
                return pool
        return entry.pools[-1]

    # -- long-tail web ------------------------------------------------------

    TAIL_OPERATORS = (
        ("leaseweb", 0.35), ("amazon", 0.25), ("level 3", 0.15),
        ("microsoft", 0.10), ("cotendo", 0.05), ("google", 0.10),
    )
    TAIL_WORDS = (
        "pizzeria", "hotel", "meteo", "ricambi", "foto", "annunci",
        "calcio", "giardino", "casa", "viaggio", "shop", "radio",
        "scuola", "mercato", "cinema", "borsa", "lavoro", "salute",
    )
    TAIL_TLDS = ("com", "it", "net", "org", "de", "fr")

    def add_long_tail(self, count: int, popularity: float = 0.018) -> None:
        """Create ``count`` one-FQDN sites, each on a mostly-dedicated IP.

        Real traces are dominated by small sites: one name, one address,
        visited a handful of times.  This is what makes 82% of FQDNs map
        to a single serverIP and 73% of serverIPs serve a single FQDN in
        Fig. 3; without the tail, the catalog's CDN-backed head would
        dominate the distributions.
        """
        subdomains = ("www", "blog", "shop", "cdn", "m", "img")
        operators = [op for op, _ in self.TAIL_OPERATORS]
        weights = [w for _, w in self.TAIL_OPERATORS]
        for index in range(count):
            word = self.TAIL_WORDS[index % len(self.TAIL_WORDS)]
            tld = self.TAIL_TLDS[index % len(self.TAIL_TLDS)]
            domain = f"{word}{index}.{tld}"
            operator = self.rng.choices(operators, weights=weights, k=1)[0]
            allocator = self._cdn_allocators.get(operator)
            if allocator is None:
                continue
            shared = self._cdn_pools[operator]
            dedicated = False
            if self.rng.random() < 0.85 and (
                allocator.allocated < allocator.capacity
            ):
                address = allocator.allocate()
                self._address_owner[address] = operator
                dedicated = True
            elif shared:
                address = self.rng.choice(shared)
            else:
                continue
            organization = Organization(domain=domain, dns_ttl=3600)
            deployment = Deployment(cdn=operator, servers=1)
            service = Service(
                subdomain=self.rng.choice(subdomains),
                port=80,
                protocol=_HTTP,
                deployments=[deployment],
                popularity=popularity,
                bytes_down=8_000,
                answer_list_size=1,
            )
            organization.services.append(service)
            entry = ServiceEntry(
                organization=organization,
                service=service,
                pools=[
                    DeploymentPool(
                        deployment=deployment,
                        operator=operator,
                        servers=[address],
                    )
                ],
            )
            fqdn = f"{service.subdomain}.{domain}"
            entry.fqdns.append(fqdn)
            self._fqdn_map[fqdn] = entry
            self.entries.append(entry)
            if dedicated:
                # Small-site reverse DNS is customer-configured: a mix
                # of exact names, generic host names under the same
                # domain, the hoster's default, or nothing — the mix
                # behind Tab. 3's outcome split.
                roll = self.rng.random()
                if roll < 0.12:
                    self._ptr_overrides[address] = fqdn
                elif roll < 0.55:
                    self._ptr_overrides[address] = (
                        f"srv{index % 7 + 1}.{domain}"
                    )
                elif roll < 0.70:
                    self._ptr_overrides[address] = None  # no PTR
        self._index_entries()

    def _index_entries(self) -> None:
        """Rebuild the sampling table and the asset list from ``entries``."""
        geography = self.geography
        popular = [e for e in self.entries if e.service.popularity_in(geography) > 0]
        self._table = SamplingTable.build(popular, self.popularity_weights(popular))
        self._assets = [
            e for e in popular if e.organization.domain in ASSET_DOMAINS
        ]

    def sampling_table(self) -> SamplingTable:
        """:meth:`service_entries` with their weights and running sums."""
        return self._table

    def service_entries(self, asset_only: bool = False) -> list[ServiceEntry]:
        """Entries with nonzero popularity here, optionally assets only."""
        return self._assets if asset_only else self._table.entries

    def popularity_weights(self, entries: list[ServiceEntry]) -> list[float]:
        """Sampling weights for the given entries in this geography."""
        return [
            entry.service.popularity_in(self.geography) for entry in entries
        ]


def build_internet(
    geography: str = "EU",
    seed: int = 1,
    tail_sites: int = DEFAULT_TAIL_SITES,
) -> Internet:
    """Build the full model internet for one geography.

    Args:
        tail_sites: number of long-tail one-FQDN sites added on top of
            the catalog (0 disables the tail — used by focused tests).
    """
    internet = Internet(geography=geography, seed=seed)
    cdns, organizations = build_catalog()
    internet.organizations = organizations
    for cdn in cdns:
        internet._register_cdn(cdn)
    for organization in organizations:
        internet._register_org_space(organization)
    for organization in organizations:
        for service in organization.services:
            internet._build_service(organization, service)
    internet._index_entries()
    if tail_sites:
        internet.add_long_tail(tail_sites)
    internet._assign_ptr_records()
    return internet
