"""What the right answers are, worked out without the code under test.

The tagging oracle replays the generated inputs through the retained
seed twins (``repro.sniffer.resolver_reference``,
``repro.analytics.database_reference``); expected served answers come
from the same reference database and from plain Python over the
generated flow list.  :func:`answer_digest` runs one fixed query set
over anything with the flow-database read surface, so the reference
database and a store the program wrote can be compared by one string.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional

from repro.analytics.database_reference import (
    FlowDatabase as ReferenceDatabase,
)
from repro.sniffer.resolver_reference import DnsResolver as ReferenceResolver

CLIST_SIZE = 200_000
BIN_SECONDS = 600.0
SPATIAL_TARGETS = ("zynga.com", "fbcdn.net", "appspot.com")


def _sha(payload) -> str:
    raw = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(raw).hexdigest()


# -- the fixed query set ---------------------------------------------------

def make_probe(database, n_names: int = 24) -> dict:
    """A query set fixed by the reference database's own contents."""
    t0, t1 = database.time_span()
    quarter = (t1 - t0) / 4.0
    return {
        "fqdns": sorted(database.fqdns())[:n_names] + ["absent.invalid"],
        "slds": sorted(database.slds())[:8],
        "windows": [[t0 + quarter, t0 + quarter + 300.0],
                    [t0 + 2 * quarter, t0 + 2 * quarter + 1800.0]],
    }


def answer_digest(database, probe: dict) -> str:
    by_protocol = database.count_by_protocol()
    answers = {
        "rows": len(database),
        "tagged": database.tagged_count,
        "span": list(database.time_span()),
        "protocols": sorted(
            (protocol.value, count)
            for protocol, count in by_protocol.items()
        ),
        "fqdn_count": len(database.fqdns()),
        "servers_for_fqdn": [
            sorted(database.servers_for_fqdn(fqdn))
            for fqdn in probe["fqdns"]
        ],
        "bytes_for_fqdn": [
            sum(flow.bytes_down for flow in database.query_by_fqdn(fqdn))
            for fqdn in probe["fqdns"]
        ],
        "servers_for_domain": [
            sorted(database.servers_for_domain(sld))
            for sld in probe["slds"]
        ],
        "fqdns_for_domain": [
            sorted(database.fqdns_for_domain(sld)) for sld in probe["slds"]
        ],
        "window_rows": [
            len(database.query_in_window(t0, t1))
            for t0, t1 in probe["windows"]
        ],
    }
    return _sha(answers)


# -- tagging oracles -------------------------------------------------------

@dataclass
class Oracle:
    """Expected outcome of one batch workload."""

    database: ReferenceDatabase
    probe: dict = field(default_factory=dict)
    digest: str = ""
    sweep_digest: Optional[str] = None

    @property
    def rows(self) -> int:
        return len(self.database)

    @property
    def tag_hit_ratio(self) -> float:
        rows = len(self.database)
        return self.database.tagged_count / rows if rows else 0.0

    def seal(self) -> "Oracle":
        self.probe = make_probe(self.database)
        self.digest = answer_digest(self.database, self.probe)
        return self


def oracle_for_events(events) -> Oracle:
    """Algorithm 1 by the seed resolver over a time-ordered event list;
    labels the list's flow records in place."""
    from repro.net.flow import DnsObservation

    resolver = ReferenceResolver(clist_size=CLIST_SIZE)
    database = ReferenceDatabase()
    for event in events:
        if event.__class__ is DnsObservation:
            if event.answers:
                resolver.insert(event.client_ip, event.fqdn, event.answers,
                                event.timestamp)
        else:
            event.fqdn = resolver.lookup(
                event.fid.client_ip, event.fid.server_ip
            )
            database.add(event)
    return Oracle(database).seal()


def oracle_for_pcap(path) -> Oracle:
    """The packet path with the seed twins in the resolver's and the
    database's place, and the general DNS decoder instead of the fast
    path.  Frame decoding and flow reassembly have no twin; they are
    the program's."""
    from repro.dns.wire import DnsWireError, decode_message
    from repro.net.packet import PacketDecodeError, decode_frame
    from repro.net.pcap import LINKTYPE_ETHERNET, PcapReader
    from repro.sniffer.flow_sniffer import FlowSniffer

    resolver = ReferenceResolver(clist_size=CLIST_SIZE)
    database = ReferenceDatabase()
    flows = FlowSniffer()

    def finish(flow):
        flow.fqdn = resolver.lookup(flow.fid.client_ip, flow.fid.server_ip)
        database.add(flow)

    last_ts = 0.0
    with open(path, "rb") as handle:
        reader = PcapReader(handle)
        with_ethernet = reader.linktype == LINKTYPE_ETHERNET
        for record in reader:
            try:
                packet = decode_frame(record.timestamp, record.data,
                                      with_ethernet=with_ethernet)
            except PacketDecodeError:
                continue
            last_ts = packet.timestamp
            udp = packet.udp
            if udp is not None and 53 in (udp.src_port, udp.dst_port):
                try:
                    message = decode_message(packet.payload)
                    if not message.header.is_response:
                        continue
                    fqdn = message.question_name
                except (DnsWireError, ValueError):
                    continue
                answers = message.a_addresses()
                if answers:
                    resolver.insert(packet.ipv4.dst, fqdn, answers,
                                    packet.timestamp)
                continue
            completed = flows.feed(packet)
            if completed is not None:
                finish(completed)
    for flow in flows.flush():
        flow.end = max(flow.end, last_ts)
        finish(flow)
    return Oracle(database).seal()


# -- the off-line sweep (Fig. 3/4/5/11, Tab. 5/8, Alg. 2) ------------------

def run_sweep(database, plan: dict, span=None) -> dict:
    """The representative experiment sweep over ``database``; returns
    each kernel's answer in a canonical JSON-able form.  ``span(name)``
    wraps each kernel when the traced run wants them timed alone."""
    from repro.analytics.content import ContentDiscovery
    from repro.analytics.spatial import SpatialDiscovery
    from repro.analytics.tangle import (
        fanin_distribution,
        fanout_distribution,
    )
    from repro.analytics.temporal import (
        fqdns_per_cdn_series,
        servers_per_domain_series,
    )
    from repro.analytics.trackers import (
        TrackerActivityAnalysis,
        service_breakdown,
    )
    from benchmarks.e2e.workloads import make_ipdb

    span = span or (lambda name: nullcontext())
    ipdb = make_ipdb(plan["orgs"])
    out = {}
    with span("analytics.temporal.fig4"):
        out["fig4"] = servers_per_domain_series(
            database, plan["domains"], BIN_SECONDS
        )
    with span("analytics.temporal.fig5"):
        out["fig5"] = fqdns_per_cdn_series(
            database, ipdb, plan["cdns"], BIN_SECONDS
        )
    with span("analytics.spatial.alg2"):
        spatial = SpatialDiscovery(database, ipdb)
        out["alg2"] = []
        for target in SPATIAL_TARGETS:
            report = spatial.discover(target)
            out["alg2"].append({
                "servers": sorted(report.server_set),
                "per_fqdn": {
                    fqdn: sorted(servers)
                    for fqdn, servers in report.per_fqdn.items()
                },
                "per_cdn": {
                    name: share.flows
                    for name, share in report.per_cdn.items()
                },
                "total": report.total_flows,
            })
    with span("analytics.content.tab5"):
        hosted = ContentDiscovery(database, ipdb).hosted_domains_of_cdn(
            "amazon", k=10
        )
        out["tab5"] = [
            [share.domain, share.flows, share.share, share.fqdn_count]
            for share in hosted
        ]
    with span("analytics.trackers.tab8"):
        out["tab8"] = [
            [totals.services, totals.flows, totals.bytes_up,
             totals.bytes_down]
            for totals in service_breakdown(database, "appspot.com")
        ]
    with span("analytics.trackers.fig11"):
        tracker = TrackerActivityAnalysis(bin_seconds=4 * 3600.0)
        tracker.observe_database(database)
        out["fig11"] = {
            timeline.service: sorted(timeline.active_bins)
            for timeline in tracker.timelines()
        }
    with span("analytics.tangle.fig3"):
        out["fig3"] = [
            list(fanout_distribution(database).values),
            list(fanin_distribution(database).values),
        ]
    return out


def sweep_digest(answers: dict) -> str:
    return _sha(answers)


def expected_sweep_digest(flows, plan: dict) -> str:
    """The sweep over the in-memory database of the oracle's labeled
    flows: the durable cold read path must agree with it."""
    from repro.analytics.database import FlowDatabase

    return sweep_digest(run_sweep(FlowDatabase.from_flows(flows), plan))


# -- expected served answers -----------------------------------------------

class ServedAnswers:
    """Expected ``/query`` payloads over a time-ordered flow list (row
    id = list index, which is how the store numbers rows)."""

    def __init__(self, flows):
        self.flows = flows
        self.database = ReferenceDatabase.from_flows(flows)
        self._row_of = {id(flow): row for row, flow in enumerate(flows)}
        self._starts = [flow.start for flow in flows]
        self._aggregates: Optional[dict] = None

    def _rows(self, flows) -> list[int]:
        return [self._row_of[id(flow)] for flow in flows]

    def _aggregate(self) -> dict:
        """The three whole-store groupings by plain Python; label ids
        are first-appearance order, as the store interns them."""
        if self._aggregates is None:
            ids: dict[str, int] = {}
            pairs: dict[tuple[int, int], int] = {}
            totals: dict[int, list[int]] = {}
            servers: dict[int, int] = {}
            for flow in self.flows:
                server = flow.fid.server_ip
                servers[server] = servers.get(server, 0) + 1
                if not flow.fqdn:
                    continue
                fqdn_id = ids.setdefault(flow.fqdn.lower(), len(ids))
                pairs[fqdn_id, server] = pairs.get((fqdn_id, server), 0) + 1
                bucket = totals.setdefault(fqdn_id, [0, 0, 0])
                bucket[0] += 1
                bucket[1] += flow.bytes_up
                bucket[2] += flow.bytes_down
            self._aggregates = {
                "fqdn-server-counts": {"groups": sorted(
                    [fqdn_id, server, count]
                    for (fqdn_id, server), count in pairs.items()
                )},
                "fqdn-flow-byte-totals": {"groups": sorted(
                    [fqdn_id, *bucket] for fqdn_id, bucket in totals.items()
                )},
                "server-flow-counts": {"counts": sorted(
                    [server, count] for server, count in servers.items()
                )},
            }
        return self._aggregates

    def expected(self, route: str, params: dict):
        """The payload ``route`` must return (None: not checked)."""
        db = self.database
        if route == "servers-for-fqdn":
            servers = sorted(db.servers_for_fqdn(params["fqdn"]))
            return {"servers": servers}
        if route == "servers-for-domain":
            return {"servers": sorted(db.servers_for_domain(params["sld"]))}
        if route == "rows-for-fqdn":
            return {"rows": self._rows(db.query_by_fqdn(params["fqdn"]))}
        if route == "rows-in-window":
            t0, t1 = float(params["t0"]), float(params["t1"])
            low = bisect_left(self._starts, t0)
            return {"rows": list(range(low, bisect_left(self._starts, t1)))}
        if route in ("fqdn-server-counts", "fqdn-flow-byte-totals",
                     "server-flow-counts"):
            return self._aggregate()[route]
        if route == "len":
            return {"rows": len(db)}
        if route == "tagged-count":
            return {"tagged_rows": db.tagged_count}
        if route == "time-span":
            t0, t1 = db.time_span()
            return {"t0": t0, "t1": t1}
        if route == "count-by-protocol":
            return {"counts": {
                protocol.value: count
                for protocol, count in db.count_by_protocol().items()
            }}
        return None


def payload_matches(route: str, expected: dict, payload: dict) -> bool:
    """Expected keys must match exactly; ``server-flow-counts`` comes
    back in dictionary order, so it is compared sorted."""
    if route == "server-flow-counts":
        return sorted(payload.get("counts", [])) == expected["counts"]
    return all(payload.get(key) == value for key, value in expected.items())
