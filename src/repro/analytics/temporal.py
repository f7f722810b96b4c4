"""Time-binned analytics behind Figures 4, 5 and 14.

* Fig. 4 — number of distinct serverIPs serving a 2LD per 10-minute bin;
* Fig. 5 — number of distinct FQDNs served by each CDN per bin;
* Fig. 14 — DNS responses observed per bin.

All three ride the columnar flow store: the per-flow set-building loops
of the seed implementation became grouped dedupes over interned ids
(:meth:`FlowDatabase.unique_servers_per_bin`,
:meth:`FlowDatabase.server_fqdn_bin_triples`).  Fig. 5 regroups the
packed triples (``database.groups``) without unpacking them: the
IP→organization database is consulted once per *distinct server*, one
fold counts the distinct FQDNs of every CDN and bin at once, and every
gap-filled series ends in :func:`~repro.analytics.database.gap_filled`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Sequence

import numpy as np

from repro.analytics.database import (
    FlowDatabase,
    Groups,
    gap_filled,
    series_bins,
)
from repro.net.flow import DnsObservation
from repro.orgdb.ipdb import IpOrganizationDb


class TimeBins:
    """A labeled series of counts over fixed-width time bins."""

    def __init__(self, bin_seconds: float, start: float = 0.0):
        if bin_seconds <= 0:
            raise ValueError("bin_seconds must be positive")
        self.bin_seconds = bin_seconds
        self.start = start
        self._bins: dict[int, int] = defaultdict(int)

    def index_of(self, timestamp: float) -> int:
        return int((timestamp - self.start) // self.bin_seconds)

    def add(self, timestamp: float, count: int = 1) -> None:
        self._bins[self.index_of(timestamp)] += count

    def add_many(self, timestamps: Iterable[float]) -> None:
        """Bulk :meth:`add`: one count per distinct bin instead of a
        call per event."""
        stamps = np.fromiter(timestamps, dtype=np.float64)
        bins = np.floor_divide(
            stamps - self.start, self.bin_seconds
        ).astype(np.int64)
        # Counted per distinct bin: nothing here is as long as the span.
        indexes, counts = np.unique(bins, return_counts=True)
        for index, count in zip(indexes.tolist(), counts.tolist()):
            self._bins[index] += count

    def series(self) -> list[tuple[float, int]]:
        """(bin start time, count) in time order, gaps filled with 0
        (at most ``MAX_SERIES_BINS`` long, else ``ValueError``)."""
        if not self._bins:
            return []
        lo = min(self._bins)
        return [
            (self.start + i * self.bin_seconds, self._bins.get(i, 0))
            for i in range(
                lo, lo + series_bins(lo, max(self._bins), self.bin_seconds)
            )
        ]

    def peak(self) -> tuple[float, int]:
        """(bin start, count) of the highest bin."""
        if not self._bins:
            return (self.start, 0)
        index, count = max(self._bins.items(), key=lambda kv: kv[1])
        return (self.start + index * self.bin_seconds, count)


def servers_per_domain_series(
    database: FlowDatabase,
    domains: Sequence[str],
    bin_seconds: float = 600.0,
) -> dict[str, list[tuple[float, int]]]:
    """Fig. 4: distinct serverIPs observed per 2LD per time bin."""
    return {
        domain.lower(): database.unique_servers_per_bin(domain, bin_seconds)
        for domain in domains
    }


def _owner_code(ipdb: IpOrganizationDb, cdns: Sequence[str]):
    """``(codes, code_of)``: a code per distinct lowercased CDN name,
    first appearance first, and ``server → code`` of the organization
    owning it (``-1``: none of them, or unallocated)."""
    codes = {name: code for code, name in enumerate(
        dict.fromkeys(cdn.lower() for cdn in cdns)
    )}

    def code_of(server: int) -> int:
        owner = ipdb.lookup(server)
        return -1 if owner is None else codes.get(owner.lower(), -1)

    return codes, code_of


def fqdns_per_cdn_series(
    database: FlowDatabase,
    ipdb: IpOrganizationDb,
    cdns: Sequence[str],
    bin_seconds: float = 600.0,
) -> dict[str, list[tuple[float, int]]]:
    """Fig. 5: distinct active FQDNs per CDN per time bin (a series is
    at most :data:`~repro.analytics.database.MAX_SERIES_BINS` long,
    else ``ValueError``)."""
    codes, code_of = _owner_code(ipdb, cdns)
    owned = database.groups(
        "server_fqdn_bin_triples", bin_seconds
    ).mapped(0, code_of).where(0, codes.values())
    # Distinct FQDNs per (CDN, bin), every CDN in the same two folds.
    active = Groups.of(3, owned.column(0), owned.column(2), owned.column(1))
    counts = Groups.of(2, active.column(0), active.column(1), count=True)
    out: dict[str, list[tuple[float, int]]] = {}
    for cdn, code in codes.items():
        mine = counts.where(0, (code,))
        out[cdn] = gap_filled(
            dict(zip(mine.values(1), mine.values(2))), bin_seconds
        )
    return out


def total_fqdns_per_cdns(
    database: FlowDatabase, ipdb: IpOrganizationDb, cdns: Sequence[str]
) -> dict[str, int]:
    """Whole-trace FQDN count per CDN, keyed by lowercased name (the
    paper: Amazon served 7995 FQDNs over the day) — one pass over the
    store whatever the number of CDNs."""
    codes, code_of = _owner_code(ipdb, cdns)
    owned = database.groups("fqdn_server_counts").mapped(1, code_of)
    distinct = Groups.of(2, owned.column(1), owned.column(0))
    totals = Groups.of(1, distinct.column(0), count=True).mapping()
    return {cdn: totals.get(code, 0) for cdn, code in codes.items()}


def dns_response_rate(
    observations: Iterable[DnsObservation],
    bin_seconds: float = 600.0,
    start: float = 0.0,
) -> TimeBins:
    """Fig. 14: DNS responses per time bin."""
    bins = TimeBins(bin_seconds=bin_seconds, start=start)
    bins.add_many(
        observation.timestamp for observation in observations
    )
    return bins
