"""Whois-style organization records for the simulated internet."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class OrgKind(enum.Enum):
    """What role an organization plays in the tangled web."""

    CDN = "cdn"
    CLOUD = "cloud"
    CONTENT_OWNER = "content-owner"
    ISP = "isp"


@dataclass(slots=True)
class OrgRecord:
    """One registry entry.

    ``display_name`` is the MaxMind-style label the paper prints in
    Fig. 5 / Tab. 5 ("akamai", "amazon", ...); ``kind`` distinguishes
    infrastructure operators from content owners (the "SELF" column in
    Fig. 9 is a content owner serving itself).
    """

    name: str
    kind: OrgKind
    display_name: str = ""
    country: str = ""
    aliases: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.display_name:
            self.display_name = self.name


class WhoisRegistry:
    """Name → record registry with alias resolution."""

    def __init__(self) -> None:
        self._records: dict[str, OrgRecord] = {}
        self._aliases: dict[str, str] = {}

    def register(self, record: OrgRecord) -> None:
        """Add a record; aliases become additional lookup keys."""
        key = record.name.lower()
        if key in self._records:
            raise ValueError(f"duplicate organization {record.name}")
        self._records[key] = record
        for alias in record.aliases:
            self._aliases[alias.lower()] = key

    def lookup(self, name: str) -> Optional[OrgRecord]:
        """Find a record by canonical name or alias."""
        key = name.lower()
        if key in self._records:
            return self._records[key]
        canonical = self._aliases.get(key)
        return self._records.get(canonical) if canonical else None

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records.values())
