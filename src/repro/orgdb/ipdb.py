"""Interval-based IP→organization lookups.

Ranges are kept sorted by start address; lookup is a binary search, so a
database of thousands of allocations answers point queries in O(log n) —
the same order as the paper's resolver maps.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.net.ip import IPv4Network, ip_to_str


@dataclass(frozen=True, slots=True)
class IpRange:
    """A half-open-free inclusive address range owned by one organization."""

    start: int
    end: int
    organization: str

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError("range start after end")

    def __contains__(self, address: int) -> bool:
        return self.start <= address <= self.end

    def __str__(self) -> str:
        return (
            f"{ip_to_str(self.start)}-{ip_to_str(self.end)} "
            f"({self.organization})"
        )


class IpOrganizationDb:
    """Sorted, non-overlapping collection of :class:`IpRange` entries."""

    def __init__(self) -> None:
        self._starts: list[int] = []
        self._ranges: list[IpRange] = []

    def __len__(self) -> int:
        return len(self._ranges)

    def add_range(self, start: int, end: int, organization: str) -> None:
        """Register ``[start, end]`` as owned by ``organization``.

        Overlapping an existing range raises ``ValueError``; the synthetic
        address plan never double-allocates and real registries don't
        either.
        """
        candidate = IpRange(start, end, organization)
        index = bisect.bisect_left(self._starts, start)
        neighbours = []
        if index > 0:
            neighbours.append(self._ranges[index - 1])
        if index < len(self._ranges):
            neighbours.append(self._ranges[index])
        for other in neighbours:
            if candidate.start <= other.end and other.start <= candidate.end:
                raise ValueError(
                    f"range {candidate} overlaps existing {other}"
                )
        self._starts.insert(index, start)
        self._ranges.insert(index, candidate)

    def add_network(self, network: IPv4Network, organization: str) -> None:
        """Register a CIDR block."""
        self.add_range(network.base, network.last, organization)

    def add_networks(
        self, networks: Iterable[IPv4Network], organization: str
    ) -> None:
        """Register several CIDR blocks for one organization."""
        for network in networks:
            self.add_network(network, organization)

    def lookup(self, address: int) -> Optional[str]:
        """Return the owning organization or None."""
        index = bisect.bisect_right(self._starts, address) - 1
        if index < 0:
            return None
        # The bisect already put the start at or below the address.
        candidate = self._ranges[index]
        return candidate.organization if address <= candidate.end else None

    def ranges_of(self, organization: str) -> list[IpRange]:
        """The ranges ``organization`` owns — its name matched ignoring
        case — in address order."""
        wanted = organization.lower()
        return [r for r in self._ranges if r.organization.lower() == wanted]

    def organizations(self) -> set[str]:
        """All distinct organizations with at least one range."""
        return {r.organization for r in self._ranges}
