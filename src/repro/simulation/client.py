"""Client behaviour: browsing, caching, prefetching, apps, mobility.

Each simulated customer owns an OS-level stub resolver cache, a set of
favourite services, and an application mix.  The behaviours the paper
measures all live here:

* **cache-before-flow** — a flow is preceded by a DNS response only when
  the client's cache missed; caches are pre-warmed at trace start, which
  produces the early tagging misses the paper excludes with its 5-minute
  warm-up;
* **long cache residency** — OS caches ignore sub-minute CDN TTLs and
  keep entries up to ~1 hour (Sec. 6 / Fig. 13);
* **prefetching** — browsers resolve names they never connect to
  (~half of all resolutions are "useless", Tab. 9);
* **first-flow delay** — lognormal with a heavy prefetch tail (Fig. 12);
* **3G mobility** — clients enter coverage mid-trace with warm caches,
  and some tunnel everything to a proxy without DNS (the US-3G hit-ratio
  dent in Tab. 2).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from repro.dns.cache import StubResolverCache
from repro.net.flow import (
    DnsObservation,
    FiveTuple,
    FlowRecord,
    Protocol,
    TransportProto,
)
from repro.simulation.internet import Internet, SamplingTable, ServiceEntry
from repro.simulation.p2p import PeerSwarm
from repro.simulation.tls import certificate_name

Event = "DnsObservation | FlowRecord"


@dataclass
class ClientProfile:
    """Behavioural knobs, set per trace profile.

    Attributes:
        prefetch_probability: chance a session also resolves names it
            never uses (drives the Tab. 9 useless fraction).
        embed_probability: chance a browsing session pulls CDN assets.
        delay_median: median first-flow delay seconds (tech dependent:
            FTTH < ADSL < 3G, Fig. 12).
        delay_sigma: lognormal shape of the delay.
        tail_probability: chance of a long prefetch-then-use delay
            (the >10 s tail in Fig. 12).
        cache_lifetime: client cache residency cap in seconds (~1 h).
        is_p2p: BitTorrent user (peer flows without DNS).
        is_tunneled: routes web traffic through a DNS-less proxy (3G).
        enter_time: when the client appears (mobility; caches arrive warm).
        session_rate_per_hour: mean sessions per hour at activity 1.0.
        timezone_offset: local-time offset for the diurnal curve.
        p2p_peer_range: peer flows per P2P round (scarcer on mobile).
        tracker_announce_probability: chance a P2P round also announces
            to a tracker over HTTP — the only DNS-labeled P2P traffic,
            which sets the small P2P hit ratio of Tab. 2.
    """

    prefetch_probability: float = 0.45
    embed_probability: float = 0.65
    delay_median: float = 0.15
    delay_sigma: float = 1.1
    tail_probability: float = 0.05
    cache_lifetime: float = 3600.0
    is_p2p: bool = False
    is_tunneled: bool = False
    enter_time: float = 0.0
    session_rate_per_hour: float = 12.0
    timezone_offset: float = 1.0
    p2p_peer_range: tuple[int, int] = (3, 7)
    tracker_announce_probability: float = 0.06


class Client:
    """One monitored customer."""

    def __init__(
        self,
        ip: int,
        profile: ClientProfile,
        internet: Internet,
        rng: random.Random,
        swarm: Optional[PeerSwarm] = None,
        favourite_count: int = 14,
    ):
        self.ip = ip
        self.profile = profile
        self.internet = internet
        self.rng = rng
        self.swarm = swarm
        self.cache = StubResolverCache(
            capacity=256, max_lifetime=profile.cache_lifetime
        )
        table = internet.sampling_table()
        count = min(favourite_count, len(table.entries))
        self.favourites = _weighted_sample(
            rng, table.entries, table.weights, count
        )
        self.assets = internet.service_entries(asset_only=True)
        self._fqdn_choice: dict[int, list[str]] = {}
        # The tunnel proxy is a single address outside any known org.
        self._proxy_ip = 0x0B000001 + (ip & 0xFF)  # 11.0.0.x

    # -- service / FQDN selection -----------------------------------------

    def _pick_entry(self) -> ServiceEntry:
        if self.favourites and self.rng.random() < 0.8:
            return self.rng.choice(self.favourites)
        return _weighted_choice(self.rng, self.internet.sampling_table())

    def _pick_fqdn(self, entry: ServiceEntry, favourite_only: bool = False) -> str:
        """Clients stick to a couple of concrete names per service.

        The first chosen name is the habitual one (picked ~70% of the
        time); ``favourite_only`` forces it, e.g. for cache prewarming.
        """
        key = id(entry)
        chosen = self._fqdn_choice.get(key)
        if chosen is None:
            count = min(len(entry.fqdns), self.rng.randint(1, 3))
            chosen = self.rng.sample(entry.fqdns, count)
            self._fqdn_choice[key] = chosen
        if favourite_only or len(chosen) == 1 or self.rng.random() < 0.7:
            return chosen[0]
        return self.rng.choice(chosen[1:])

    # -- cache management ---------------------------------------------------

    def prewarm(self, entries_count: int, now: float) -> None:
        """Fill the cache as if resolutions happened before the trace.

        No observations are emitted — the monitor never saw these
        queries, which is exactly why early flows go untagged.
        """
        warm = list(self.favourites[:entries_count])
        if self.assets:
            warm.extend(
                self.rng.sample(
                    self.assets, min(len(self.assets), self.rng.randint(2, 5))
                )
            )
        for entry in warm:
            fqdn = self._pick_fqdn(entry, favourite_only=True)
            answers, _ttl = self.internet.resolve(fqdn, now)
            if not answers:
                continue
            residual = self.rng.uniform(
                1200.0, self.profile.cache_lifetime * 1.2
            )
            self.cache.insert(fqdn, tuple(answers), residual, now)

    def _resolve(
        self, fqdn: str, now: float, out: list
    ) -> Optional[tuple[int, ...]]:
        """Resolve through the cache; emit an observation on miss."""
        cached = self.cache.lookup(fqdn, now)
        if cached is not None:
            return cached.addresses
        answers, ttl = self.internet.resolve(fqdn, now)
        if not answers:
            return None
        out.append(
            DnsObservation(
                timestamp=now,
                client_ip=self.ip,
                fqdn=fqdn,
                answers=list(answers),
                ttl=ttl,
            )
        )
        # OS caches ignore tiny CDN TTLs; entries live up to ~1 h.
        lifetime = max(float(ttl), self.rng.uniform(
            self.profile.cache_lifetime * 0.3, self.profile.cache_lifetime
        ))
        self.cache.insert(fqdn, tuple(answers), lifetime, now)
        return tuple(answers)

    # -- flow construction ----------------------------------------------------

    def _first_flow_delay(self) -> float:
        if self.rng.random() < self.profile.tail_probability:
            return self.rng.uniform(10.0, 600.0)
        return self.rng.lognormvariate(
            _ln(self.profile.delay_median), self.profile.delay_sigma
        )

    def _make_flow(
        self,
        entry: ServiceEntry,
        fqdn: str,
        server: int,
        start: float,
    ) -> FlowRecord:
        service = entry.service
        up = max(64, int(self.rng.lognormvariate(_ln(service.bytes_up), 0.8)))
        down = max(
            128, int(self.rng.lognormvariate(_ln(service.bytes_down), 0.9))
        )
        duration = min(600.0, 0.2 + (up + down) / 250_000.0
                       + self.rng.expovariate(1 / 5.0))
        cert = None
        if service.protocol is Protocol.TLS:
            cert = certificate_name(entry.organization, fqdn, self.rng)
        return FlowRecord(
            fid=FiveTuple(
                self.ip,
                server,
                self.rng.randrange(1024, 65535),
                service.port,
                TransportProto.TCP,
            ),
            start=start,
            end=start + duration,
            protocol=service.protocol,
            bytes_up=up,
            bytes_down=down,
            cert_name=cert,
            true_fqdn=fqdn,
        )

    def _fetch(
        self, entry: ServiceEntry, now: float, out: list
    ) -> Optional[FlowRecord]:
        """Resolve (if needed) then open a flow after the first-flow delay."""
        fqdn = self._pick_fqdn(entry)
        answers = self._resolve(fqdn, now, out)
        if answers is None:
            return None
        # Clients mostly take the first answer; sometimes another.
        if len(answers) > 1 and self.rng.random() > 0.7:
            server = self.rng.choice(answers[1:])
        else:
            server = answers[0]
        flow = self._make_flow(
            entry, fqdn, server, now + self._first_flow_delay()
        )
        out.append(flow)
        return flow

    # -- sessions -------------------------------------------------------------

    def run_session(self, now: float, out: list) -> None:
        """One user action: browse / app use / P2P round."""
        if self.profile.is_p2p and self.rng.random() < 0.75:
            self._p2p_session(now, out)
            return
        if self.profile.is_tunneled:
            self._tunneled_session(now, out)
            return
        entry = self._pick_entry()
        self._fetch(entry, now, out)
        service = entry.service
        if service.protocol is Protocol.HTTP and self.assets:
            if self.rng.random() < self.profile.embed_probability:
                for _ in range(self.rng.randint(1, 3)):
                    asset = self.rng.choice(self.assets)
                    self._fetch(asset, now + self.rng.uniform(0.05, 2.0), out)
        if self.rng.random() < self.profile.prefetch_probability:
            self._prefetch(now, out)

    def _prefetch(self, now: float, out: list) -> None:
        """Resolve names found in the page but never accessed (Tab. 9).

        Prefetched names come from the whole web (links on the page),
        not the client's favourites — which is why roughly half of them
        are never followed by a connection.
        """
        table = self.internet.sampling_table()
        for _ in range(self.rng.randint(1, 3)):
            entry = _weighted_choice(self.rng, table)
            fqdn = self._pick_fqdn(entry)
            if self.cache.lookup(fqdn, now) is not None:
                continue
            answers, ttl = self.internet.resolve(fqdn, now)
            if not answers:
                continue
            out.append(
                DnsObservation(
                    timestamp=now + self.rng.uniform(0.0, 0.5),
                    client_ip=self.ip,
                    fqdn=fqdn,
                    answers=list(answers),
                    ttl=ttl,
                )
            )
            # Deliberately NOT cached: prefetch results often bypass the
            # OS cache, and caching them would suppress later real
            # queries, hiding the useless-response signal.

    def _p2p_session(self, now: float, out: list) -> None:
        assert self.swarm is not None
        low, high = self.profile.p2p_peer_range
        for i in range(self.rng.randint(low, high)):
            out.append(
                self.swarm.peer_flow(
                    self.ip, now + i * self.rng.uniform(0.5, 3.0), self.rng
                )
            )
        # Occasional tracker announce — DNS-labeled P2P traffic, the
        # reason Tab. 2 shows ~1% P2P hits rather than zero.
        if self.rng.random() < self.profile.tracker_announce_probability:
            trackers = [
                e
                for e in self.internet.service_entries()
                if e.service.protocol is Protocol.P2P
            ]
            if trackers:
                self._fetch(self.rng.choice(trackers), now, out)

    def _tunneled_session(self, now: float, out: list) -> None:
        """All web traffic to one proxy address, no DNS ever."""
        out.append(
            FlowRecord(
                fid=FiveTuple(
                    self.ip,
                    self._proxy_ip,
                    self.rng.randrange(1024, 65535),
                    self.rng.choice([80, 443]),
                    TransportProto.TCP,
                ),
                start=now,
                end=now + self.rng.expovariate(1 / 30.0),
                protocol=Protocol.HTTP if self.rng.random() < 0.85 else Protocol.TLS,
                bytes_up=int(self.rng.lognormvariate(_ln(2_000), 1.0)),
                bytes_down=int(self.rng.lognormvariate(_ln(20_000), 1.0)),
            )
        )


def _ln(x: float) -> float:
    return math.log(max(x, 1e-9))


def _draw(rng: random.Random, table: SamplingTable) -> int:
    """Index of the first running sum reaching ``rng.random() * total``,
    or ``len(table.entries)`` when none does: ``total`` is ``sum``,
    compensated on Python 3.12+, so it can exceed the last running sum."""
    return bisect_left(table.cumulative, rng.random() * table.total)


def _weighted_choice(rng: random.Random, table: SamplingTable):
    """One draw proportional to weight; the last entry when past the end."""
    return table.entries[min(_draw(rng, table), len(table.entries) - 1)]


def _weighted_sample(rng: random.Random, items, weights, count):
    """Sample without replacement, probability proportional to weight.

    A draw past the last running sum picks nothing, so fewer than
    ``count`` items can come back.
    """
    chosen = []
    items, weights = list(items), list(weights)
    for _ in range(min(count, len(items))):
        table = SamplingTable.build(items, weights)
        if table.total <= 0:
            break
        index = _draw(rng, table)
        if index < len(items):
            chosen.append(items.pop(index))
            del weights[index]
    return chosen
