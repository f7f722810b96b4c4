"""Domain structure trees (Figures 7 and 8).

The figures draw, for one organization, the token tree of all its FQDNs
with leaves grouped by the CDN hosting them and annotated with server
counts and flow shares (e.g. ``mediaN.linkedin.com`` → Akamai, 2 servers,
17% of flows).  This module builds that tree from the flow database.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analytics.database import FlowDatabase
from repro.analytics.tokens import tokenize_label
from repro.dns.name import DomainName, second_level_domain
from repro.orgdb.ipdb import IpOrganizationDb


@dataclass
class TreeNode:
    """One token node; children keyed by the next token toward the host."""

    token: str
    children: dict[str, "TreeNode"] = field(default_factory=dict)
    flows: int = 0
    servers: set[int] = field(default_factory=set)
    cdns: dict[str, int] = field(default_factory=dict)  # cdn -> flow count

    def child(self, token: str) -> "TreeNode":
        node = self.children.get(token)
        if node is None:
            node = TreeNode(token=token)
            self.children[token] = node
        return node

    def dominant_cdn(self) -> Optional[str]:
        """The CDN carrying most of this subtree's flows."""
        if not self.cdns:
            return None
        return max(self.cdns.items(), key=lambda kv: kv[1])[0]


@dataclass
class CdnGroup:
    """Fig. 7/8 rectangular node: one CDN with servers and flow share."""

    organization: str
    servers: set[int] = field(default_factory=set)
    flows: int = 0
    fqdns: set[str] = field(default_factory=set)

    @property
    def server_count(self) -> int:
        return len(self.servers)


@dataclass
class DomainTokenTree:
    """The full figure: token tree plus per-CDN groupings."""

    organization: str
    root: TreeNode
    groups: dict[str, CdnGroup]
    total_flows: int

    def flow_share(self, cdn: str) -> float:
        group = self.groups.get(cdn)
        if group is None or self.total_flows == 0:
            return 0.0
        return group.flows / self.total_flows

    def render(self, max_depth: int = 4) -> str:
        """ASCII rendering of the tree with CDN annotations."""
        lines = [f"{self.organization}"]
        for group in sorted(
            self.groups.values(), key=lambda g: -g.flows
        ):
            share = 100.0 * self.flow_share(group.organization)
            lines.append(
                f"  [{group.organization}: servers={group.server_count} "
                f"flows={share:.0f}%]"
            )
        def _walk(node: TreeNode, depth: int) -> None:
            if depth > max_depth:
                return
            for token, child in sorted(node.children.items()):
                cdn = child.dominant_cdn() or "?"
                lines.append("    " * depth + f"{token} <{cdn}>")
                _walk(child, depth + 1)
        _walk(self.root, 1)
        return "\n".join(lines)


def build_domain_tree(
    database: FlowDatabase,
    organization: str,
    ipdb: Optional[IpOrganizationDb] = None,
) -> DomainTokenTree:
    """Build the Fig. 7/8 structure for one second-level domain.

    Token paths are built right-to-left (from the 2LD outwards), digits
    genericized to ``N`` exactly as in the figures (``media4`` →
    ``mediaN``).
    """
    sld = second_level_domain(organization)
    org_short = sld.split(".")[0]
    root = TreeNode(token=sld)
    groups: dict[str, CdnGroup] = {}
    total = 0
    # Group the organization's flows by (interned FQDN, server) on the
    # columnar store: the token path is computed once per distinct FQDN
    # and each tree node is touched once per distinct pair, with the
    # pair's flow count applied in bulk — not once per flow.
    token_paths: dict[int, list[str] | None] = {}
    owners: dict[int, str] = {}
    rows = database.rows_for_domain(sld)
    for fqdn_id, server, count in database.fqdn_server_counts(rows):
        path = token_paths.get(fqdn_id, False)
        if path is False:
            fqdn = database.fqdn_label(fqdn_id)
            try:
                labels = DomainName(fqdn).subdomain_labels
            except Exception:
                path = None
            else:
                path = []
                # Walk tokens from the label nearest the 2LD outward,
                # i.e. reversed: www.media4 -> ['media4', 'www'].
                for label in reversed(labels):
                    tokens = tokenize_label(label)
                    path.append("".join(tokens) if tokens else label)
            token_paths[fqdn_id] = path
        if path is None:
            continue
        total += count
        owner = owners.get(server)
        if owner is None:
            owner = ipdb.lookup(server) if ipdb is not None else None
            if owner is None:
                owner = "unknown"
            elif owner.lower() == org_short:
                owner = org_short.capitalize()
            owners[server] = owner
        group = groups.get(owner)
        if group is None:
            group = CdnGroup(organization=owner)
            groups[owner] = group
        group.servers.add(server)
        group.flows += count
        group.fqdns.add(database.fqdn_label(fqdn_id))
        node = root
        node.flows += count
        node.servers.add(server)
        node.cdns[owner] = node.cdns.get(owner, 0) + count
        for token_text in path:
            node = node.child(token_text)
            node.flows += count
            node.servers.add(server)
            node.cdns[owner] = node.cdns.get(owner, 0) + count
    return DomainTokenTree(
        organization=sld, root=root, groups=groups, total_flows=total
    )
