"""The tangle metrics of Fig. 3: FQDN↔serverIP fan-out and fan-in.

Fig. 3 top: for each FQDN, how many distinct serverIPs deliver it.
Fig. 3 bottom: for each serverIP, how many distinct FQDNs it serves.
Both are reported as CDFs; the paper finds 82% of FQDNs map to one
serverIP and 73% of serverIPs serve one FQDN, with heavy tails.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from repro.analytics.database import FlowDatabase, Groups


@dataclass(frozen=True, slots=True)
class Cdf:
    """An empirical CDF over positive integer counts.

    Pure stdlib on purpose: every operation is a scalar probe of an
    already-sorted tuple (``bisect`` territory).
    """

    values: tuple[int, ...]

    @classmethod
    def from_counts(cls, counts: list[int]) -> "Cdf":
        return cls(values=tuple(sorted(counts)))

    def at(self, x: float) -> float:
        """P(value <= x)."""
        if not self.values:
            return 0.0
        return bisect_right(self.values, x) / len(self.values)

    def percentile(self, q: float) -> int:
        """The smallest value v with CDF(v) >= q."""
        if not self.values:
            raise ValueError("empty CDF")
        if not 0 < q <= 1:
            raise ValueError("q must be in (0, 1]")
        index = math.ceil(q * len(self.values)) - 1
        return self.values[max(index, 0)]

    @property
    def max(self) -> int:
        return self.values[-1] if self.values else 0

    def points(self) -> list[tuple[int, float]]:
        """(value, CDF) pairs at each distinct value, for plotting."""
        values = self.values
        return [
            (value, bisect_right(values, value) / len(values))
            for value in dict.fromkeys(values)
        ]


def _pairs_per(database: FlowDatabase, column: int) -> Cdf:
    """CDF of the number of deduped ``(fqdn, server)`` pairs sharing one
    value of ``column`` — counted on the packed partial, one list out."""
    pairs = database.groups("fqdn_server_counts")
    return Cdf.from_counts(
        Groups.of(1, pairs.column(column), count=True).values(1)
    )


def fanout_distribution(database: FlowDatabase) -> Cdf:
    """Fig. 3 top: distinct serverIP count per FQDN."""
    # Every interned FQDN has at least one flow, so counting pairs per
    # label covers exactly database.fqdns().
    return _pairs_per(database, 0)


def fanin_distribution(database: FlowDatabase) -> Cdf:
    """Fig. 3 bottom: distinct FQDN count per serverIP."""
    return _pairs_per(database, 1)


def single_mapping_fractions(database: FlowDatabase) -> tuple[float, float]:
    """(fraction of FQDNs on one serverIP, fraction of serverIPs with one
    FQDN) — the headline numbers the paper quotes for Fig. 3 (82%/73%)."""
    fanout = fanout_distribution(database)
    fanin = fanin_distribution(database)
    return fanout.at(1), fanin.at(1)
