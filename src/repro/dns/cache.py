"""Client-side stub resolver cache.

Sec. 2.2/6 of the paper: end hosts cache DNS responses locally, bounded by
TTL *and* by memory/timeout deletion policies — "in practice, clients cache
responses for typically less than 1 hour".  The simulated clients use this
cache, which is what makes the trace's DNS-to-flow gap distribution
(Fig. 13) and the resolver dimensioning analysis (Sec. 6) meaningful.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass(slots=True)
class CacheEntry:
    """One cached resolution."""

    fqdn: str
    addresses: tuple[int, ...]
    inserted_at: float
    expires_at: float

    def fresh(self, now: float) -> bool:
        """True while the entry is still usable."""
        return now < self.expires_at


class StubResolverCache:
    """TTL + LRU-capacity cache, as an OS stub resolver behaves.

    Args:
        capacity: maximum number of names held; exceeding it evicts the
            least-recently-used entry (the OS "memory limit" policy).
        max_lifetime: hard cap on residency seconds regardless of TTL
            (the OS "timeout deletion" policy; ~1h per the paper).
    """

    def __init__(self, capacity: int = 512, max_lifetime: float = 3600.0):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if max_lifetime <= 0:
            raise ValueError("max_lifetime must be positive")
        self.capacity = capacity
        self.max_lifetime = max_lifetime
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self.stats = {"hits": 0, "misses": 0, "expired": 0, "evicted": 0}

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, fqdn: str, now: float) -> CacheEntry | None:
        """Return a fresh entry for ``fqdn`` or None (and record stats)."""
        key = fqdn.lower()
        entry = self._entries.get(key)
        if entry is None:
            self.stats["misses"] += 1
            return None
        if not entry.fresh(now):
            del self._entries[key]
            self.stats["expired"] += 1
            self.stats["misses"] += 1
            return None
        self._entries.move_to_end(key)
        self.stats["hits"] += 1
        return entry

    def insert(
        self, fqdn: str, addresses: tuple[int, ...], ttl: float, now: float
    ) -> CacheEntry:
        """Cache a resolution, honouring TTL capped by ``max_lifetime``."""
        key = fqdn.lower()
        lifetime = min(float(ttl), self.max_lifetime)
        entry = CacheEntry(
            fqdn=key,
            addresses=tuple(addresses),
            inserted_at=now,
            expires_at=now + lifetime,
        )
        if key in self._entries:
            del self._entries[key]
        elif len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.stats["evicted"] += 1
        self._entries[key] = entry
        return entry

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups served from cache so far."""
        total = self.stats["hits"] + self.stats["misses"]
        return self.stats["hits"] / total if total else 0.0
