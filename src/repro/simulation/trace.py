"""Trace profiles and builders — the synthetic stand-ins for Tab. 1.

Five profiles mirror the paper's datasets (start hour, duration, access
technology, relative size ordering), scaled ~1:400 in flow count so a
full build stays in seconds.  A sixth profile provides the 24-hour
EU1-ADSL2 variant the temporal figures use, and
:func:`build_live_deployment` generates the 18-day labeled-flow stream
behind Fig. 6/10/11 and Tab. 8.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.dns.wire import encode_a_response
from repro.net.flow import DnsObservation, FlowRecord, FiveTuple, Protocol, TransportProto
from repro.net.packet import (
    TCP_ACK,
    TCP_FIN,
    TCP_SYN,
    build_tcp_packet,
    build_udp_packet,
)
from repro.net.pcap import PcapRecord
from repro.simulation.catalog import APPSPOT_TRACKERS
from repro.simulation.client import Client, ClientProfile
from repro.simulation.diurnal import activity_at
from repro.simulation.internet import Internet, build_internet
from repro.simulation.p2p import PeerSwarm
from repro.simulation.traffic import generate_events, split_events

Event = Union[DnsObservation, FlowRecord]


@dataclass(frozen=True)
class TraceProfile:
    """Knobs for one vantage point (one Tab. 1 row)."""

    name: str
    geography: str
    technology: str          # "adsl" | "ftth" | "3g"
    start_hour_gmt: float
    duration_hours: float
    n_clients: int
    session_rate_per_hour: float
    p2p_fraction: float = 0.06
    tunnel_fraction: float = 0.0
    mobility_fraction: float = 0.0
    prefetch_probability: float = 0.45
    delay_median: float = 0.15
    timezone_offset: float = 1.0
    pop_index: int = 1
    p2p_peer_range: tuple[int, int] = (3, 7)
    tracker_announce_probability: float = 0.06
    prewarm_range: tuple[int, int] = (6, 14)


TRACE_PROFILES: dict[str, TraceProfile] = {
    profile.name: profile
    for profile in [
        TraceProfile(
            name="US-3G", geography="US", technology="3g",
            start_hour_gmt=15.5, duration_hours=3.0, n_clients=120,
            session_rate_per_hour=12.0, p2p_fraction=0.08,
            tunnel_fraction=0.22, mobility_fraction=0.35,
            prefetch_probability=0.33, delay_median=0.5,
            timezone_offset=-5.0, pop_index=9,
            p2p_peer_range=(2, 5), tracker_announce_probability=0.18,
            prewarm_range=(8, 14),
        ),
        TraceProfile(
            name="EU2-ADSL", geography="EU", technology="adsl",
            start_hour_gmt=14.83, duration_hours=6.0, n_clients=150,
            session_rate_per_hour=14.0, p2p_fraction=0.05,
            prefetch_probability=0.62, delay_median=0.15, pop_index=5,
            p2p_peer_range=(4, 9), prewarm_range=(4, 9),
        ),
        TraceProfile(
            name="EU1-ADSL1", geography="EU", technology="adsl",
            start_hour_gmt=8.0, duration_hours=24.0, n_clients=120,
            session_rate_per_hour=12.0, p2p_fraction=0.07,
            prefetch_probability=0.60, delay_median=0.15, pop_index=1,
            p2p_peer_range=(4, 9), prewarm_range=(10, 18),
        ),
        TraceProfile(
            name="EU1-ADSL2", geography="EU", technology="adsl",
            start_hour_gmt=8.67, duration_hours=5.0, n_clients=150,
            session_rate_per_hour=13.0, p2p_fraction=0.07,
            prefetch_probability=0.61, delay_median=0.15, pop_index=2,
            p2p_peer_range=(4, 9), prewarm_range=(10, 18),
        ),
        TraceProfile(
            name="EU1-FTTH", geography="EU", technology="ftth",
            start_hour_gmt=17.0, duration_hours=3.0, n_clients=80,
            session_rate_per_hour=11.0, p2p_fraction=0.08,
            prefetch_probability=0.62, delay_median=0.06, pop_index=3,
            p2p_peer_range=(4, 9), prewarm_range=(10, 18),
        ),
        # 24-hour variant of EU1-ADSL2 for the temporal figures (the
        # paper plots Fig. 4/5 over a full day at that vantage point).
        TraceProfile(
            name="EU1-ADSL2-24H", geography="EU", technology="adsl",
            start_hour_gmt=0.0, duration_hours=24.0, n_clients=110,
            session_rate_per_hour=11.0, p2p_fraction=0.07,
            prefetch_probability=0.61, delay_median=0.15, pop_index=2,
        ),
    ]
}


@dataclass
class Trace:
    """A generated trace: ordered events plus the internet behind them."""

    profile: TraceProfile
    events: list[Event]
    observations: list[DnsObservation]
    flows: list[FlowRecord]
    internet: Internet
    seed: int

    @property
    def name(self) -> str:
        return self.profile.name

    @property
    def duration(self) -> float:
        return self.profile.duration_hours * 3600.0

    def iter_events(self):
        """Timestamp-ordered stream for the sniffer pipeline.

        Returns the event list itself (already built in time order) so
        the pipeline's fused loop iterates a concrete list rather than a
        generator — the per-event dispatch then needs no iterator
        indirection.
        """
        return self.events

    def peak_dns_rate_per_min(self) -> int:
        """Peak DNS responses per minute (the Tab. 1 column)."""
        counts: dict[int, int] = {}
        for observation in self.observations:
            minute = int(observation.timestamp // 60)
            counts[minute] = counts.get(minute, 0) + 1
        return max(counts.values()) if counts else 0

    def summary(self) -> dict:
        """The Tab. 1 row for this trace."""
        hours = int(self.profile.start_hour_gmt)
        minutes = int(round((self.profile.start_hour_gmt - hours) * 60))
        return {
            "trace": self.profile.name,
            "start_gmt": f"{hours:02d}:{minutes:02d}",
            "duration_h": self.profile.duration_hours,
            "peak_dns_per_min": self.peak_dns_rate_per_min(),
            "tcp_flows": len(self.flows),
            "dns_responses": len(self.observations),
            "clients": self.profile.n_clients,
        }

    # -- packet rendering ---------------------------------------------------

    def to_packets(
        self, max_flows: Optional[int] = None, dns_server: Optional[int] = None
    ) -> list[PcapRecord]:
        """Render events into wire-format frames (for pcap round-trips).

        Each DNS observation becomes a UDP response from the PoP's DNS
        server; each flow becomes a 7-packet TCP session (handshake, one
        payload packet per direction truncated to 1400 bytes, FIN pair).
        """
        server = dns_server or (0x0A000001 + (self.profile.pop_index << 16))
        rng = random.Random(self.seed ^ 0x9E3779B9)
        frames: list[PcapRecord] = []
        names: dict[str, tuple[bytes, bytes]] = {}  # encoded once per call
        flows_done = 0
        for event in self.events:
            if isinstance(event, DnsObservation):
                frames.extend(_dns_response_frames(event, server, rng, names))
            else:
                if max_flows is not None and flows_done >= max_flows:
                    continue
                flows_done += 1
                frames.extend(_flow_frames(event, rng))
        frames.sort(key=lambda record: record.timestamp)
        return frames


def _dns_response_frames(
    observation: DnsObservation,
    server: int,
    rng: random.Random,
    names: dict[str, tuple[bytes, bytes]],
) -> list[PcapRecord]:
    ident = rng.randrange(0, 0xFFFF)
    frame = build_udp_packet(
        observation.timestamp,
        server,
        observation.client_ip,
        53,
        rng.randrange(1024, 65535),
        encode_a_response(
            ident, observation.fqdn, observation.answers,
            max(observation.ttl, 1), names,
        ),
    )
    return [PcapRecord(observation.timestamp, frame)]


def _flow_frames(flow: FlowRecord, rng: random.Random) -> list[PcapRecord]:
    fid = flow.fid
    t = flow.start
    step = max(flow.duration / 6.0, 1e-4)
    up_payload = b"\x00" * min(flow.bytes_up, 1400)
    down_payload = b"\x00" * min(flow.bytes_down, 1400)
    sequence = [
        (t, fid.client_ip, fid.server_ip, fid.src_port, fid.dst_port,
         TCP_SYN, b""),
        (t + step, fid.server_ip, fid.client_ip, fid.dst_port, fid.src_port,
         TCP_SYN | TCP_ACK, b""),
        (t + 2 * step, fid.client_ip, fid.server_ip, fid.src_port,
         fid.dst_port, TCP_ACK, up_payload),
        (t + 3 * step, fid.server_ip, fid.client_ip, fid.dst_port,
         fid.src_port, TCP_ACK, down_payload),
        (t + 4 * step, fid.client_ip, fid.server_ip, fid.src_port,
         fid.dst_port, TCP_FIN | TCP_ACK, b""),
        (t + 5 * step, fid.server_ip, fid.client_ip, fid.dst_port,
         fid.src_port, TCP_FIN | TCP_ACK, b""),
    ]
    return [
        PcapRecord(
            ts,
            build_tcp_packet(ts, src, dst, sport, dport, flags,
                             payload=payload),
        )
        for ts, src, dst, sport, dport, flags, payload in sequence
    ]


def _client_ip(pop_index: int, index: int) -> int:
    # 10.<pop>.x.y with x.y starting at 1.0 so the DNS server at .0.1
    # never collides with a client.
    return 0x0A000000 + (pop_index << 16) + 256 + index


def build_clients(
    profile: TraceProfile, internet: Internet, rng: random.Random
) -> list[Client]:
    """Instantiate the client population for a profile."""
    swarm = PeerSwarm(rng, size=800)
    duration = profile.duration_hours * 3600.0
    clients = []
    for index in range(profile.n_clients):
        roll = rng.random()
        is_p2p = roll < profile.p2p_fraction
        is_tunneled = (
            not is_p2p
            and roll < profile.p2p_fraction + profile.tunnel_fraction
        )
        enter_time = 0.0
        if rng.random() < profile.mobility_fraction:
            enter_time = rng.uniform(0.0, duration * 0.7)
        client_profile = ClientProfile(
            prefetch_probability=profile.prefetch_probability,
            delay_median=profile.delay_median
            * rng.uniform(0.7, 1.4),
            cache_lifetime=rng.uniform(1800.0, 4200.0),
            is_p2p=is_p2p,
            is_tunneled=is_tunneled,
            enter_time=enter_time,
            session_rate_per_hour=profile.session_rate_per_hour
            * rng.uniform(0.5, 1.8),
            timezone_offset=profile.timezone_offset,
            p2p_peer_range=profile.p2p_peer_range,
            tracker_announce_probability=(
                profile.tracker_announce_probability
            ),
        )
        client = Client(
            ip=_client_ip(profile.pop_index, index),
            profile=client_profile,
            internet=internet,
            rng=random.Random(rng.randrange(1 << 30)),
            swarm=swarm,
        )
        clients.append(client)
    return clients


def build_trace(name: str, seed: int = 7) -> Trace:
    """Generate one of the standard traces by profile name."""
    profile = TRACE_PROFILES.get(name)
    if profile is None:
        raise KeyError(
            f"unknown trace {name!r}; choose from {sorted(TRACE_PROFILES)}"
        )
    internet = build_internet(profile.geography, seed=seed)
    rng = random.Random(seed * 1_000_003 + profile.pop_index)
    clients = build_clients(profile, internet, rng)
    # Pre-warm resident clients' caches: the monitor missed those
    # resolutions, producing the early-trace tagging misses (Sec. 3.1.2).
    low, high = profile.prewarm_range
    for client in clients:
        if client.profile.enter_time == 0.0 and not client.profile.is_p2p:
            client.prewarm(entries_count=rng.randint(low, high), now=0.0)
    day_origin = -profile.start_hour_gmt * 3600.0
    events = generate_events(
        clients, 0.0, profile.duration_hours * 3600.0, day_origin=day_origin
    )
    observations, flows = split_events(events)
    return Trace(
        profile=profile,
        events=events,
        observations=observations,
        flows=flows,
        internet=internet,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# 18-day live deployment (Fig. 6, Fig. 10, Fig. 11, Tab. 8)
# ---------------------------------------------------------------------------

LIVE_TRACKER_COUNT = 45


@dataclass
class LiveDeployment:
    """Labeled flows from a long-running DN-Hunter deployment.

    This models the *output* of the deployed sniffer (the labeled-flows
    database), which is what the live-deployment analyses consume.
    """

    days: int
    flows: list[FlowRecord]
    internet: Internet
    tracker_fqdns: list[str] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.days * 86400.0


def _tracker_schedule(
    index: int, days: int, rng: random.Random
) -> tuple[float, set[int]]:
    """(first_seen_day, active 4h-bins) for tracker ``index`` (Fig. 11).

    Mirrors the paper's observed classes: ids 1-15 always on, ids 26-31
    synchronized on-off (one swarm driving them), the rest transient
    "zombies" that appear, live a few days, then die.
    """
    bins_per_day = 6
    total_bins = days * bins_per_day
    if index < 15:
        start = 0
        active = {
            b for b in range(total_bins) if rng.random() < 0.92
        }
    elif 25 <= index <= 30:
        start = int(rng.uniform(0, 3) * bins_per_day)
        # Shared on-off pattern: 12 bins on, 18 off, aligned to the epoch
        # (same phase for the whole group — the synchronization signal).
        active = {
            b for b in range(start, total_bins) if (b // 12) % 2 == 0
        }
    else:
        start = int(rng.uniform(0, days - 2) * bins_per_day)
        lifetime = int(rng.uniform(1.0, 6.0) * bins_per_day)
        active = {
            b
            for b in range(start, min(start + lifetime, total_bins))
            if rng.random() < 0.7
        }
    return start / bins_per_day, active


def build_live_deployment(
    days: int = 18, seed: int = 11, n_clients: int = 50,
    sessions_per_hour: float = 14.0,
) -> LiveDeployment:
    """Generate the 18-day labeled-flow stream.

    Three traffic components:

    * catalog traffic (weighted visits to the synthetic web — keeps
      serverIP / 2LD birth processes realistic and saturating);
    * a long-tail FQDN birth process (a constant share of sessions hits
      a never-seen FQDN, so unique FQDNs grow ~linearly, Fig. 6);
    * appspot.com: legit apps plus :data:`LIVE_TRACKER_COUNT` BitTorrent
      trackers following the Fig. 11 activity classes.
    """
    rng = random.Random(seed)
    internet = build_internet("EU", seed=seed)
    horizon = days * 86400.0

    catalog_fqdns: list[tuple[str, int]] = []   # (fqdn, one stable server)
    for entry in internet.service_entries():
        if entry.organization.domain == "appspot.com":
            continue  # appspot has its own generators below
        for fqdn in entry.fqdns[:4]:
            answers, _ = internet.resolve(fqdn, 0.0)
            if answers:
                weight = max(
                    1, int(entry.service.popularity_in("EU") * 4)
                )
                catalog_fqdns.extend([(fqdn, answers[0])] * min(weight, 8))
    # Long-tail state: names/hosting reuse existing infrastructure almost
    # always, so only the FQDN curve keeps climbing.
    tail_slds = [f"tail-site{i}.com" for i in range(60)]
    tail_servers = [internet._cdn_servers("leaseweb", 1)[0] for _ in range(40)]
    tail_counter = 0

    flows: list[FlowRecord] = []
    client_ips = [_client_ip(2, i) for i in range(n_clients)]

    def add_flow(t, client, server, fqdn, port=80, proto=Protocol.HTTP,
                 up=400, down=9000):
        flows.append(
            FlowRecord(
                fid=FiveTuple(client, server, rng.randrange(1024, 65535),
                              port, TransportProto.TCP),
                start=t,
                end=t + rng.expovariate(1 / 20.0),
                protocol=proto,
                bytes_up=max(64, int(rng.lognormvariate(_safe_ln(up), 0.8))),
                bytes_down=max(
                    128, int(rng.lognormvariate(_safe_ln(down), 0.9))
                ),
                fqdn=fqdn,
                true_fqdn=fqdn,
            )
        )

    # -- background catalog + long-tail traffic, hour by hour -------------
    for hour in range(days * 24):
        base = n_clients * sessions_per_hour / 60.0
        level = activity_at((hour % 24) * 3600.0, timezone_offset_hours=1.0)
        count = max(1, int(base * 60 * level / 8))
        for _ in range(count):
            t = hour * 3600.0 + rng.uniform(0, 3600.0)
            client = rng.choice(client_ips)
            roll = rng.random()
            if roll < 0.70 and catalog_fqdns:
                fqdn, server = rng.choice(catalog_fqdns)
                add_flow(t, client, server, fqdn)
            elif roll < 0.92:
                # New, never-seen FQDN (the Fig. 6 growth engine).
                tail_counter += 1
                if rng.random() < 0.03:
                    sld = f"fresh-domain{tail_counter}.net"
                    tail_slds.append(sld)
                else:
                    sld = rng.choice(tail_slds)
                if rng.random() < 0.02:
                    server = internet._cdn_servers("leaseweb", 1)[0]
                    tail_servers.append(server)
                else:
                    server = rng.choice(tail_servers)
                add_flow(t, client, server, f"res{tail_counter}.{sld}")
            else:
                # Revisit of a previously seen long-tail name.
                if tail_counter:
                    revisit = rng.randint(1, tail_counter)
                    sld = tail_slds[revisit % len(tail_slds)]
                    server = tail_servers[revisit % len(tail_servers)]
                    add_flow(t, client, server, f"res{revisit}.{sld}")

    # -- appspot: general apps -------------------------------------------
    appspot_entry = next(
        (
            e
            for e in internet.entries
            if e.organization.domain == "appspot.com"
            and e.service.protocol is Protocol.HTTP
        ),
        None,
    )
    app_fqdns = appspot_entry.fqdns if appspot_entry else []
    app_servers = (
        appspot_entry.pools[0].servers if appspot_entry else [0x4A7D0001]
    )
    for fqdn in app_fqdns:
        visits = rng.randint(1, 8)
        for _ in range(visits):
            t = rng.uniform(0, horizon)
            add_flow(t, rng.choice(client_ips), rng.choice(app_servers),
                     fqdn, up=400, down=6500)

    # -- appspot: the 45 trackers (Fig. 11 classes) ------------------------
    tracker_names = list(APPSPOT_TRACKERS)
    extra = LIVE_TRACKER_COUNT - len(tracker_names)
    tracker_names += [f"bt-zombie{i}" for i in range(max(extra, 0))]
    tracker_fqdns = []
    bins_per_day = 6
    for index, name in enumerate(tracker_names[:LIVE_TRACKER_COUNT]):
        fqdn = f"{name}.appspot.com"
        tracker_fqdns.append(fqdn)
        _first_day, active_bins = _tracker_schedule(index, days, rng)
        for bin_index in sorted(active_bins):
            announces = rng.randint(2, 6)
            for _ in range(announces):
                t = bin_index * (86400.0 / bins_per_day) + rng.uniform(
                    0, 86400.0 / bins_per_day
                )
                if t >= horizon:
                    continue
                add_flow(
                    t, rng.choice(client_ips), rng.choice(app_servers),
                    fqdn, proto=Protocol.P2P, up=1200, down=2200,
                )

    flows.sort(key=lambda flow: flow.start)
    return LiveDeployment(
        days=days, flows=flows, internet=internet,
        tracker_fqdns=tracker_fqdns,
    )


def _safe_ln(x: float) -> float:
    import math

    return math.log(max(x, 1e-9))
