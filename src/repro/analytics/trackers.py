"""Tracker activity timelines (Fig. 11) and appspot-style service splits
(Tab. 8, Sec. 5.6).

The paper's case study: BitTorrent trackers hosted for free on Google
appspot.com.  Fig. 11 plots, per tracker, which 4-hour intervals it was
active in over 18 days; Tab. 8 splits appspot services into trackers vs
general apps with flow and byte totals.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable

from repro.analytics.database import FlowDatabase
from repro.net.flow import FlowRecord


@dataclass
class ActivityTimeline:
    """One service's active bins."""

    service: str
    first_seen: float
    active_bins: set[int] = field(default_factory=set)

    def active_fraction(self, total_bins: int) -> float:
        """Share of the observation window in which it was active."""
        return len(self.active_bins) / total_bins if total_bins else 0.0


class TrackerActivityAnalysis:
    """Fig. 11: per-service activity over fixed bins, ids by first-seen.

    Args:
        bin_seconds: paper uses 4-hour bins.
        classifier: predicate deciding whether a FQDN is a "tracker"
            (the paper used Tstat DPI + token heuristics; we match
            tracker-ish tokens by default).
    """

    TRACKER_TOKENS = (
        "tracker",
        "torrent",
        "announce",
        "exodus",
        "genesis",
        "rlskingbt",
        "1337",
    )

    def __init__(self, bin_seconds: float = 4 * 3600.0, classifier=None):
        self.bin_seconds = bin_seconds
        self.classifier = classifier or self._default_classifier
        self._timelines: dict[str, ActivityTimeline] = {}
        self._max_bin = 0

    _TRACKER_PATTERN = re.compile("|".join(map(re.escape, TRACKER_TOKENS)))

    @classmethod
    def _default_classifier(cls, fqdn: str) -> bool:
        return cls._TRACKER_PATTERN.search(fqdn.lower()) is not None

    def observe(self, flow: FlowRecord) -> None:
        """Feed one labeled flow.

        The classifier receives the canonical lowercased label and
        ``first_seen`` is the earliest flow *start* (not stream
        position), so per-flow and grouped ingestion
        (:meth:`observe_database`) build identical timelines whatever
        the input order.
        """
        if not flow.fqdn:
            return
        service = flow.fqdn.lower()
        if not self.classifier(service):
            return
        bin_index = int(flow.start // self.bin_seconds)
        self._max_bin = max(self._max_bin, bin_index)
        timeline = self._timelines.get(service)
        if timeline is None:
            timeline = ActivityTimeline(service=service, first_seen=flow.start)
            self._timelines[service] = timeline
        elif flow.start < timeline.first_seen:
            timeline.first_seen = flow.start
        timeline.active_bins.add(bin_index)

    def observe_all(self, flows: Iterable[FlowRecord]) -> None:
        for flow in flows:
            self.observe(flow)

    def observe_database(self, database: FlowDatabase, rows=None) -> None:
        """Feed a whole flow database through the grouped fast path.

        Classification runs once per *distinct* label and activity bins
        come from the store's deduped ``(fqdn_id, bin)`` pairs, cut
        down to the classified labels while still packed — the
        per-flow :meth:`observe` loop collapses to one pass over the
        trackers' unique (service, bin) combinations, with identical
        results (the classifier receives the canonical lowercased label
        on both paths, and ``first_seen`` is the earliest flow start).
        """
        first_seen = database.groups("fqdn_first_seen", rows)
        names = database.fqdns()            # position = interned id
        tracked: dict[int, ActivityTimeline] = {}
        for fqdn_id, start in zip(first_seen.values(0), first_seen.values(1)):
            service = names[fqdn_id]
            if not self.classifier(service):
                continue
            timeline = self._timelines.get(service)
            if timeline is None:
                timeline = ActivityTimeline(
                    service=service, first_seen=start
                )
                self._timelines[service] = timeline
            elif start < timeline.first_seen:
                timeline.first_seen = start
            tracked[fqdn_id] = timeline
        # Only the trackers' pairs ever leave the packed partial.
        active = database.groups(
            "fqdn_bin_pairs", self.bin_seconds, rows
        ).where(0, tracked)
        bins = active.values(1)
        for fqdn_id, bin_index in zip(active.values(0), bins):
            tracked[fqdn_id].active_bins.add(bin_index)
        self._max_bin = max(self._max_bin, max(bins, default=0))

    def timelines(self) -> list[ActivityTimeline]:
        """Timelines ordered by first appearance (Fig. 11's id order)."""
        return sorted(self._timelines.values(), key=lambda t: t.first_seen)

    def always_on(self, threshold: float = 0.9) -> list[ActivityTimeline]:
        """Services active in at least ``threshold`` of all bins —
        the paper's ~33% of trackers that stayed up all 18 days."""
        total = self._max_bin + 1
        return [
            t for t in self.timelines() if t.active_fraction(total) >= threshold
        ]

    def synchronized_groups(
        self, min_size: int = 2, min_overlap: float = 0.9
    ) -> list[list[str]]:
        """Find sets of services active in (nearly) the same bins.

        The paper flags trackers 26-31 as on-off synchronized — evidence
        one BitTorrent client drove them all.  Greedy grouping by Jaccard
        similarity of the active-bin sets.
        """
        timelines = self.timelines()
        used: set[str] = set()
        groups: list[list[str]] = []
        for anchor in timelines:
            if anchor.service in used:
                continue
            group = [anchor.service]
            for other in timelines:
                if other.service in used or other.service == anchor.service:
                    continue
                union = anchor.active_bins | other.active_bins
                inter = anchor.active_bins & other.active_bins
                if union and len(inter) / len(union) >= min_overlap:
                    group.append(other.service)
            if len(group) >= min_size:
                groups.append(group)
                used.update(group)
        return groups

    def render(self, width_bins: int | None = None) -> str:
        """ASCII dot plot of Fig. 11: one row per service id."""
        total = (width_bins or self._max_bin) + 1
        lines = []
        for index, timeline in enumerate(self.timelines(), start=1):
            row = "".join(
                "o" if b in timeline.active_bins else "."
                for b in range(total)
            )
            lines.append(f"{index:3d} {row}")
        return "\n".join(lines)


@dataclass(frozen=True, slots=True)
class ServiceClassTotals:
    """One Tab. 8 row."""

    label: str
    services: int
    flows: int
    bytes_up: int
    bytes_down: int


def service_breakdown(
    database: FlowDatabase,
    domain: str,
    classifier=None,
) -> tuple[ServiceClassTotals, ServiceClassTotals]:
    """Tab. 8: split one hosting domain's services into trackers vs rest.

    Returns (trackers, general) totals over distinct FQDNs, flows and
    client-to-server / server-to-client bytes.
    """
    classify = classifier or TrackerActivityAnalysis._default_classifier
    tracker_fqdns: set[str] = set()
    general_fqdns: set[str] = set()
    totals = {
        True: [0, 0, 0],   # flows, bytes_up, bytes_down
        False: [0, 0, 0],
    }
    # One classification and one bucket update per distinct FQDN: the
    # flow/byte sums per label come pre-aggregated from the columns.
    rows = database.rows_for_domain(domain)
    for fqdn_id, flows, up, down in database.fqdn_flow_byte_totals(rows):
        fqdn = database.fqdn_label(fqdn_id)
        is_tracker = classify(fqdn)
        (tracker_fqdns if is_tracker else general_fqdns).add(fqdn)
        bucket = totals[is_tracker]
        bucket[0] += flows
        bucket[1] += up
        bucket[2] += down
    trackers = ServiceClassTotals(
        label="Bittorrent Trackers",
        services=len(tracker_fqdns),
        flows=totals[True][0],
        bytes_up=totals[True][1],
        bytes_down=totals[True][2],
    )
    general = ServiceClassTotals(
        label="General Services",
        services=len(general_fqdns),
        flows=totals[False][0],
        bytes_up=totals[False][1],
        bytes_down=totals[False][2],
    )
    return trackers, general
