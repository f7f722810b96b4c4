"""Seeded inputs of the system benchmark: sizes, generators, request mix.

Everything here is benchmark-owned.  The program under test only ever
sees what these functions write to disk (a pcap, an event-batch file, a
preloaded store directory, a JSON description of the address plan) or
send over HTTP.  The same ``seed`` gives byte-identical files; the
generators use :class:`random.Random` only (no numpy), so they also run
on the repo's numpy-less CI leg.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import struct
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple, Optional

from repro.net.flow import (
    DnsObservation,
    FiveTuple,
    FlowRecord,
    Protocol,
    TransportProto,
)
from repro.sniffer.eventcodec import encode_events

WORKLOADS = ("pcap_capture", "trace_to_tables", "serve_read", "serve_mixed")

#: Events / flows per eventcodec batch (the pipeline's own default).
BATCH_EVENTS = 8192
#: The simulated population behind the pcap.
PCAP_PROFILE = "EU1-FTTH"
#: serve_mixed: one POST /ingest is due this often.
INGEST_INTERVAL_S = 0.2


@dataclass(frozen=True)
class Scale:
    """One consistent set of input sizes and run lengths."""

    name: str
    pcap_flow_stride: int   # render every n-th flow of the simulated trace
    events: int
    clients: int
    fqdns: int
    slds: int
    store_flows: int
    store_hours: float
    spill_rows: int
    seconds: float          # measured seconds per run unless --seconds
    min_passes: int         # batch passes per run, at least
    warmup_s: float         # serve warm-up before the window
    ingest_flows: int       # flows per POST /ingest
    setups: int             # set-up repetitions per run (median reported)


#: test_e2e_smoke.py: everything in a few seconds.
SMOKE = Scale(
    "smoke", 32, events=20_000, clients=400, fqdns=600,
    slds=20, store_flows=20_000, store_hours=4.0, spill_rows=4096,
    seconds=1.0, min_passes=1, warmup_s=0.1, ingest_flows=512, setups=1,
)
#: What BENCHMARK.json's command runs: sized so that one run, with three
#: set-ups, stays under 30 s (the contract allows ~37 s a run).  Smaller
#: than the inputs ISSUE 11 names; README "Amendments" says why.
STANDARD = Scale(
    "standard", 4, events=100_000, clients=2000,
    fqdns=3000, slds=40, store_flows=120_000, store_hours=12.0,
    spill_rows=16_384, seconds=15.0, min_passes=5, warmup_s=1.5,
    ingest_flows=2048, setups=3,
)


# -- the address plan ------------------------------------------------------

ORGS = (
    # (organization, /16 base): the synthetic MaxMind substitute, the
    # same plan benchmarks/run_bench.py's make_flow_workload uses.
    ("akamai", 0x02100000),
    ("amazon", 0x36000000),
    ("google", 0x4A7D0000),
    ("leaseweb", 0x5CEA0000),
    ("edgecast", 0x5DB80000),
    ("self", 0x40000000),
)

NAMED_SLDS = (
    # (2LD, host-name prefixes, orgs hosting it).  appspot carries
    # tracker-named services so Tab. 8 / Fig. 11 have something to find.
    ("zynga.com", ("farm", "city", "mafiawars"), ("amazon", "self")),
    ("fbcdn.net", ("photos-", "external", "video"), ("akamai", "leaseweb")),
    ("facebook.com", ("www", "api", "chat"), ("self", "akamai")),
    ("youtube.com", ("r", "i"), ("google",)),
    ("blogspot.com", ("blog",), ("google",)),
    ("appspot.com", ("tracker", "announce", "app", "game"),
     ("google", "amazon")),
    ("dropbox.com", ("client", "www"), ("amazon",)),
    ("cloudfront.net", ("d",), ("amazon",)),
    ("twitter.com", ("api", "www"), ("edgecast", "self")),
    ("bbc.co.uk", ("static", "news"), ("leaseweb", "edgecast")),
)

_PORTS = (80, 443, 443, 80, 51413)
_PORT_PROTOCOL = {80: Protocol.HTTP, 443: Protocol.TLS, 51413: Protocol.P2P}
_CLIENT_BASE = 0x0A000100
#: Servers nobody resolved live here, outside every org range.
_DARK_BASE = 0xC0000000


@dataclass(frozen=True)
class World:
    """Who exists: clients, names (head of the list = most popular) with
    the servers that answer for them, and which org owns which range."""

    clients: tuple[int, ...]
    names: tuple[tuple[str, tuple[int, ...]], ...]
    slds: tuple[str, ...]

    @property
    def cdns(self) -> tuple[str, ...]:
        return tuple(org for org, _base in ORGS if org != "self")

    def describe(self) -> dict:
        """What the child needs for the sweep, as plain JSON."""
        return {
            "orgs": [[org, base] for org, base in ORGS],
            "domains": list(self.slds[:len(NAMED_SLDS)]),
            "cdns": list(self.cdns),
        }


def build_world(seed: int, scale: Scale) -> World:
    rng = random.Random(seed * 1_000_003 + 11)
    org_servers = {
        org: [base + rng.randrange(0x10000) for _ in range(64)]
        for org, base in ORGS
    }
    org_names = [org for org, _base in ORGS]
    slds = list(NAMED_SLDS)
    tlds = ("com", "net", "org")
    for index in range(max(0, scale.slds - len(slds))):
        slds.append((
            f"site{index:03d}.{tlds[index % 3]}",
            ("www", "cdn", "api", "img"),
            tuple(rng.sample(org_names, rng.randint(1, 2))),
        ))
    slds = slds[:max(scale.slds, len(NAMED_SLDS))]
    names = []
    for index in range(scale.fqdns):
        sld, prefixes, orgs = slds[index % len(slds)]
        serial = index // len(slds)
        hosts = [srv for org in orgs for srv in org_servers[org]]
        names.append((
            f"{prefixes[serial % len(prefixes)]}{serial}.{sld}",
            tuple(rng.sample(hosts, rng.randint(1, 6))),
        ))
    return World(
        clients=tuple(_CLIENT_BASE + i for i in range(scale.clients)),
        names=tuple(names),
        slds=tuple(sld for sld, _prefixes, _orgs in slds),
    )


def make_ipdb(orgs):
    from repro.orgdb.ipdb import IpOrganizationDb

    ipdb = IpOrganizationDb()
    for org, base in orgs:
        ipdb.add_range(base, base + 0xFFFF, org)
    return ipdb


# -- flows and events ------------------------------------------------------

def _flow(rng, client: int, server: int, start: float,
          fqdn: Optional[str]) -> FlowRecord:
    rnd = rng.random
    port = _PORTS[int(rnd() * 5)]
    return FlowRecord(
        fid=FiveTuple(client, server, 1024 + int(rnd() * 64000), port,
                      TransportProto.TCP),
        start=start,
        end=start + rnd() * 30.0,
        protocol=_PORT_PROTOCOL[port],
        bytes_up=200 + int(rnd() * 19_800),
        bytes_down=1000 + int(rnd() * 1_999_000),
        packets=4 + int(rnd() * 1996),
        fqdn=fqdn,
    )


def make_tagged_flows(world: World, rng, count: int, t0: float,
                      t1: float) -> list[FlowRecord]:
    """``count`` already-labeled flows, time-ordered over ``[t0, t1)``:
    squared-uniform (Zipf-like) name popularity, 8 % unlabeled flows to
    servers nobody resolved."""
    rnd = rng.random
    names, clients = world.names, world.clients
    n_names, n_clients = len(names), len(clients)
    span = t1 - t0
    flows = []
    for start in sorted(t0 + rnd() * span for _ in range(count)):
        client = clients[int(rnd() * n_clients)]
        if rnd() < 0.08:
            flows.append(_flow(
                rng, client, _DARK_BASE + int(rnd() * 0x1000000), start, None
            ))
        else:
            fqdn, servers = names[int(rnd() ** 2 * n_names)]
            flows.append(_flow(
                rng, client, servers[int(rnd() * len(servers))], start, fqdn
            ))
    return flows


def make_events(world: World, rng, count: int, duration: float) -> list:
    """A time-ordered sniffer event stream: ~45 % DNS responses (1-4
    answers), ~55 % unlabeled flows that follow their response by a
    log-normal delay, 8 % of the flows to never-resolved servers."""
    rnd = rng.random
    names, clients = world.names, world.clients
    n_names, n_clients = len(names), len(clients)
    n_dns = int(count * 0.45)
    n_flows = count - n_dns
    n_dark = int(n_flows * 0.08)
    responses = []
    for stamp in sorted(rnd() * duration for _ in range(n_dns)):
        fqdn, servers = names[int(rnd() ** 2 * n_names)]
        answers = list(servers[:1 + int(rnd() * 4)])
        responses.append(DnsObservation(
            timestamp=stamp, client_ip=clients[int(rnd() * n_clients)],
            fqdn=fqdn, answers=answers, useless=True,
        ))
    timeline = [(obs.timestamp, 0, index, obs)
                for index, obs in enumerate(responses)]
    for index in range(n_flows - n_dark):
        obs = responses[int(rnd() * n_dns)]
        obs.useless = False
        start = obs.timestamp + rng.lognormvariate(-1.0, 1.2)
        server = obs.answers[int(rnd() * len(obs.answers))]
        timeline.append(
            (start, 1, index, _flow(rng, obs.client_ip, server, start, None))
        )
    for index in range(n_dark):
        start = rnd() * duration
        timeline.append((start, 2, index, _flow(
            rng, clients[int(rnd() * n_clients)],
            _DARK_BASE + int(rnd() * 0x1000000), start, None,
        )))
    timeline.sort(key=lambda item: item[:3])
    return [item[3] for item in timeline]


def encode_batches(events, batch_events: int = BATCH_EVENTS) -> list[bytes]:
    return [
        encode_events(events[pos:pos + batch_events])
        for pos in range(0, len(events), batch_events)
    ]


_BATCH_FILE_MAGIC = b"E2EB"
_U32 = struct.Struct("<I")


def write_batch_file(path, batches) -> None:
    """Length-prefixed eventcodec batches, one file."""
    with open(path, "wb") as handle:
        handle.write(_BATCH_FILE_MAGIC)
        for payload in batches:
            handle.write(_U32.pack(len(payload)))
            handle.write(payload)


def read_batch_file(path) -> list[bytes]:
    raw = Path(path).read_bytes()
    if raw[:4] != _BATCH_FILE_MAGIC:
        raise ValueError(f"{path}: not a benchmark batch file")
    batches, pos = [], 4
    while pos < len(raw):
        (length,) = _U32.unpack_from(raw, pos)
        pos += 4
        batches.append(raw[pos:pos + length])
        pos += length
    return batches


def write_pcap_input(path, seed: int, scale: Scale) -> int:
    """Render the scale's simulated trace to a classic pcap file: every
    DNS response and every ``pcap_flow_stride``-th flow, so a smaller
    capture still spans the whole trace (its first minutes alone are
    all warm-up misses).  Returns the frame count."""
    from repro.net.pcap import write_pcap
    from repro.simulation import build_trace

    trace = build_trace(PCAP_PROFILE, seed=seed)
    flows_seen = 0
    events = []
    for event in trace.events:
        if event.__class__ is FlowRecord:
            flows_seen += 1
            if flows_seen % scale.pcap_flow_stride:
                continue
        events.append(event)
    return write_pcap(path, replace(trace, events=events).to_packets())


def build_store(directory, batches, spill_rows: int) -> None:
    """Preload a durable store the way a capture would have left it:
    the program's own ingest path, WAL on, fsyncs real, tail sealed."""
    from repro.analytics.storage import FlowStore

    store = FlowStore(directory, spill_rows=spill_rows)
    try:
        for payload in batches:
            store.ingest_batch(payload)
        store.flush()
    finally:
        store.close()


# -- the serve request mix -------------------------------------------------

class Request(NamedTuple):
    cls: str     # point | window | agg | meta
    route: str
    path: str    # request target, query string included


#: ISSUE 11's agg class also has ``fqdn-server-counts`` and
#: ``fqdn-flow-byte-totals``.  Beside live ingest those two answer
#: ``500 IndexError`` now and then (README, "First findings"), the
#: contract wants workloads on which no operation fails, and serve_mixed
#: must run the serve_read mix, so neither workload asks for them yet.
AGG_ROUTES = ("server-flow-counts",)
META_ROUTES = ("len", "tagged-count", "time-span", "count-by-protocol")


def make_requests(world: World, rng, count: int, t0: float,
                  t1: float) -> list[Request]:
    """The analyst mix by weight: point 60 (servers-for-fqdn 40,
    rows-for-fqdn 10, servers-for-domain 10; 5 % of names absent, the
    Bloom-negative path), window 25 (5 min / 1 h alternating), agg 10,
    meta 5."""
    rnd = rng.random
    names, slds = world.names, world.slds
    requests = []
    windows = aggs = metas = 0

    def fqdn() -> str:
        if rnd() < 0.05:
            return f"absent{int(rnd() * 100_000)}.nowhere.invalid"
        return names[int(rnd() ** 2 * len(names))][0]

    for _ in range(count):
        pick = rnd()
        if pick < 0.40:
            route, cls = "servers-for-fqdn", "point"
            query = f"fqdn={fqdn()}"
        elif pick < 0.50:
            route, cls = "rows-for-fqdn", "point"
            query = f"fqdn={fqdn()}"
        elif pick < 0.60:
            route, cls = "servers-for-domain", "point"
            query = f"sld={slds[int(rnd() ** 2 * len(slds))]}"
        elif pick < 0.85:
            route, cls = "rows-in-window", "window"
            width = 3600.0 if windows % 2 else 300.0
            windows += 1
            start = t0 + rnd() * max(t1 - t0 - width, 1.0)
            query = f"t0={start!r}&t1={start + width!r}"
        elif pick < 0.95:
            route, cls, query = AGG_ROUTES[aggs % len(AGG_ROUTES)], "agg", ""
            aggs += 1
        else:
            route, cls, query = META_ROUTES[metas % 4], "meta", ""
            metas += 1
        path = f"/query/{route}" + (f"?{query}" if query else "")
        requests.append(Request(cls, route, path))
    return requests


# -- provenance ------------------------------------------------------------

def bytes_digest(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def file_digest(path) -> str:
    with open(path, "rb") as handle:
        return bytes_digest(iter(lambda: handle.read(1 << 20), b""))


def _filesystem_type(path) -> str:
    target = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                _dev, mount, kind = line.split()[:3]
                if (target == mount or target.startswith(
                        mount.rstrip("/") + "/")) and len(mount) > len(best):
                    best, fstype = mount, kind
    except OSError:
        pass
    return fstype


def environment(work_dir) -> dict:
    """Where the numbers were taken; a busy machine is said, not hidden."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    env = {
        "nproc": nproc,
        "sched_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "filesystem": _filesystem_type(work_dir),
        "load1_at_start": round(load1, 2),
        "note": "latencies are this sandbox's (page cache, virtual "
                "disk), not a device's",
    }
    if load1 > nproc:
        env["warning"] = (
            f"1-minute load average {load1:.2f} exceeds nproc {nproc}: "
            f"timings are contended"
        )
    return env


def dump_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
