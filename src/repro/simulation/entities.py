"""Entities of the synthetic internet: CDNs, organizations, services.

The data model captures exactly the decoupling the paper studies: a
:class:`Service` (a FQDN pattern owned by an :class:`Organization`) is
delivered by one or more :class:`Deployment` instances, each naming the
:class:`Cdn` (or the organization itself) that operates the servers in a
given geography.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.net.flow import Protocol


class PtrStyle(enum.Enum):
    """How an operator names its servers in reverse DNS (Tab. 3 driver)."""

    CDN_INFRA = "cdn-infra"      # aNN-NN.deploy.akamaitechnologies.com
    ORG_INFRA = "org-infra"      # srvN.linkedin.com (same 2LD)
    EXACT_FQDN = "exact"         # PTR equals the service FQDN
    NONE = "none"                # no PTR record


class CertPolicy(enum.Enum):
    """What server name the org's TLS certificates carry (Tab. 4 driver)."""

    EXACT = "exact"              # certificate CN equals the FQDN
    WILDCARD = "wildcard"        # *.example.com
    CDN_NAME = "cdn-name"        # a248.akamai.net style — the host's cert
    ORG_GENERIC = "org-generic"  # www.example.com for every service


@dataclass
class Cdn:
    """A CDN or cloud operator with per-geography address blocks.

    Args:
        name: registry name ("akamai", "amazon", ...).
        cidrs_by_geo: geography → list of CIDR strings the operator
            announces there (spatial diversity: different serverIPs per
            region, as in Fig. 9).
        ptr_style: how its addresses reverse-resolve.
        ptr_template: PTR name template with ``{ip}`` placeholder
            (dashed quad) used for CDN_INFRA style.
        ptr_coverage: fraction of addresses that have a PTR at all.
        default_ttl: TTL its zones hand out (CDNs use short TTLs).
    """

    name: str
    cidrs_by_geo: dict[str, list[str]]
    ptr_style: PtrStyle = PtrStyle.CDN_INFRA
    ptr_template: str = "host-{ip}.example.net"
    ptr_coverage: float = 0.7
    default_ttl: int = 60

    def geographies(self) -> list[str]:
        return list(self.cidrs_by_geo)


@dataclass
class Deployment:
    """One hosting arrangement for a service.

    Args:
        cdn: operator name; the literal string ``"SELF"`` means the
            organization hosts it on its own address space.
        servers: base pool size per geography (scaled by the internet's
            global scale factor).
        weight: share of the service's flows this deployment carries
            (Fig. 7: EdgeCast carried 59% of linkedin.com with 1 server).
        geographies: where this deployment exists; None = everywhere.
        diurnal_scaling: whether the *active* pool grows at peak hours
            (fbcdn/youtube behaviour in Fig. 4).
    """

    cdn: str
    servers: int
    weight: float = 1.0
    geographies: Optional[tuple[str, ...]] = None
    diurnal_scaling: bool = False

    def active_in(self, geography: str) -> bool:
        return self.geographies is None or geography in self.geographies


@dataclass
class Service:
    """A named service: FQDN pattern, port, protocol, hosting, size.

    Args:
        subdomain: pattern under the owner's domain.  ``{n}`` expands to
            a small integer (``media{n}`` → media1, media4...), ``{name}``
            to an element of ``name_pool``.  Empty string means the bare
            organization domain.
        port: destination port of the service's flows.
        protocol: layer-7 class (drives Tab. 2 accounting and TLS
            certificate behaviour).
        deployments: who hosts it, with flow-share weights.
        popularity: relative weight when clients choose what to access.
        popularity_by_geo: optional per-geography override (Tab. 5:
            playfish popular in EU, admarvel in US).
        name_pool: values for the ``{name}`` placeholder.
        n_range: values for the ``{n}`` placeholder.
        bytes_up / bytes_down: mean payload sizes (lognormal around them).
        embedded: 2LD-qualified FQDN patterns fetched alongside this
            service (page assets on CDNs — the tangle seen from a page).
    """

    subdomain: str
    port: int
    protocol: Protocol
    deployments: list[Deployment]
    popularity: float = 1.0
    popularity_by_geo: dict[str, float] = field(default_factory=dict)
    name_pool: Sequence[str] = ()
    n_range: tuple[int, int] = (1, 8)
    bytes_up: int = 400
    bytes_down: int = 12_000
    embedded: Sequence[str] = ()
    # Most names resolve to a single address (Fig. 3: 82% of FQDNs map
    # to one serverIP); CDN-backed services override this upward.
    answer_list_size: int = 1

    def popularity_in(self, geography: str) -> float:
        return self.popularity_by_geo.get(geography, self.popularity)


@dataclass
class Organization:
    """A content owner: a second-level domain plus its services.

    Args:
        domain: the 2LD, e.g. ``zynga.com``.
        services: everything published under it.
        cert_policy: TLS certificate behaviour (Tab. 4).
        cert_cdn_name: the certificate name used under ``CDN_NAME``
            policy (e.g. ``a248.akamai.net``).
        self_cidrs_by_geo: address blocks for SELF deployments.
        self_ptr_style: reverse-DNS style of its own servers.
        dns_ttl: TTL for its authoritative answers.
    """

    domain: str
    services: list[Service] = field(default_factory=list)
    cert_policy: CertPolicy = CertPolicy.EXACT
    cert_cdn_name: str = ""
    self_cidrs_by_geo: dict[str, list[str]] = field(default_factory=dict)
    self_ptr_style: PtrStyle = PtrStyle.ORG_INFRA
    dns_ttl: int = 300
