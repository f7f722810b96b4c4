"""The DNS Resolver — DN-Hunter's key data structure (Sec. 3.1.1, Alg. 1).

The resolver is a replica of the monitored clients' DNS caches built
purely from sniffed responses.  Design constraints from the paper:

* FQDN entries live in a FIFO **circular list** (``Clist``) of fixed size
  ``L`` — no garbage collection, old entries are overwritten in insertion
  order, and ``L`` bounds the effective caching time (Sec. 6);
* a DNS response lists several server addresses — **every** address is
  linked to the same entry;
* when a (clientIP, serverIP) key already points at an older entry, the
  link is replaced (last-written-wins; the "confusion" the paper
  quantifies at <4% in Sec. 6);
* when the circular list wraps, the overwritten entry's back-references
  are removed from the map so the table never holds dangling keys.

This is the *flat-key* implementation, tuned so the sniffer keeps up
with the wire (the paper's engineering constraint: one insert per DNS
response, one lookup per flow, at line rate):

* the paper's nested ``clientIP -> (serverIP -> entry)`` maps are
  collapsed into **one** hash map keyed by the 64-bit integer
  ``(client_ip << 32) | server_ip`` — one probe per lookup instead of
  two, no tuple allocation per event;
* the Clist is not a ring of per-slot objects but **parallel arrays**
  (``_fqdns: list[str]``, ``_inserted_at: array('d')`` and a per-slot
  back-reference key list), so building an ``L = 2.1M`` resolver (the
  paper's one-hour sizing) allocates no per-entry Python objects;
* back-references use *check-on-evict* semantics: a replaced link is
  left in the old slot's key list and simply skipped at eviction time
  when the map no longer points at that slot — replacement does no
  list surgery on the hot path;
* ``overwrites`` and ``live_entries`` are derived from two integers
  (slots burned, slots in use) instead of per-event bookkeeping or an
  O(L) scan.

Observable behaviour (lookup results and statistics) is identical to
Algorithm 1 as transcribed in :mod:`repro.sniffer.resolver_reference`;
``tests/test_resolver_differential.py`` enforces this over long random
operation streams.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Optional


def fuse_key(client_ip: int, server_ip: int) -> int:
    """Fuse a (clientIP, serverIP) pair into the resolver's 64-bit key.

    Callers that probe the same pair repeatedly (per-page flow bursts,
    policy re-checks) should fuse once and use
    :meth:`DnsResolver.lookup_key` — the fusion is the only per-call
    allocation on the probe path.
    """
    return (client_ip << 32) | server_ip


@dataclass
class ResolverStats:
    """Counters for dimensioning studies (Sec. 6)."""

    responses: int = 0
    answers: int = 0
    lookups: int = 0
    hits: int = 0
    replacements: int = 0
    overwrites: int = 0

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups that found a label."""
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "ResolverStats") -> "ResolverStats":
        """Accumulate ``other``'s counters into this snapshot (in place).

        Used to aggregate per-shard statistics; returns ``self`` so the
        call chains.
        """
        self.responses += other.responses
        self.answers += other.answers
        self.lookups += other.lookups
        self.hits += other.hits
        self.replacements += other.replacements
        self.overwrites += other.overwrites
        return self

    __iadd__ = merge


class DnsResolver:
    """Replica of client DNS caches keyed by ``(clientIP << 32) | serverIP``.

    Args:
        clist_size: ``L``, the circular-list capacity.  The paper sizes
            this so entries survive about one hour at peak DNS rate
            (~2.1M for 350k responses/10min); scale to the trace.
        multi_label_depth: when > 0, superseded labels for a live
            (client, server) key are retained (most recent first) and
            exposed via :meth:`lookup_all` — the "return all possible
            labels" extension the paper sketches in Sec. 6 for the
            shared-server confusion case.

    Statistics are kept as plain integers on the instance and exposed
    as a :class:`ResolverStats` snapshot through :attr:`stats`; hold on
    to counters, not to the snapshot object.
    """

    __slots__ = (
        "clist_size",
        "multi_label_depth",
        "_fqdns",
        "_inserted_at",
        "_back_refs",
        "_key_to_slot",
        "_history",
        "_next_slot",
        "_used",
        "_burned",
        "_responses",
        "_answers",
        "_lookups",
        "_hits",
        "_replacements",
    )

    def __init__(self, clist_size: int = 100_000, multi_label_depth: int = 0):
        if clist_size <= 0:
            raise ValueError("clist_size must be positive")
        if multi_label_depth < 0:
            raise ValueError("multi_label_depth must be >= 0")
        self.clist_size = clist_size
        self.multi_label_depth = multi_label_depth
        # Parallel Clist arrays — no per-slot objects.  Back-reference
        # lists are created lazily the first time a slot is burned, so a
        # paper-scale resolver costs three flat allocations up front.
        self._fqdns: list[Optional[str]] = [None] * clist_size
        self._inserted_at = array("d", bytes(8 * clist_size))
        self._back_refs: list[Optional[list[int]]] = [None] * clist_size
        self._key_to_slot: dict[int, int] = {}
        self._history: dict[int, list[str]] = {}
        self._next_slot = 0
        self._used = 0      # slots holding a live entry (== live_entries)
        self._burned = 0    # total inserts that consumed a slot
        self._responses = 0
        self._answers = 0
        self._lookups = 0
        self._hits = 0
        self._replacements = 0

    # -- INSERT (Algorithm 1, lines 1-25) --------------------------------

    def insert(
        self,
        client_ip: int,
        fqdn: str,
        answers: list[int],
        timestamp: float = 0.0,
    ) -> None:
        """Record a sniffed DNS response.

        ``answers`` is the full answer list; each distinct server address
        becomes a lookup key pointing at the single new entry.  The
        answer list is deduplicated *before* a Clist slot is consumed, so
        a degenerate response whose answers collapse to nothing never
        burns a slot.
        """
        self._responses += 1
        n = len(answers)
        self._answers += n
        if not n:
            return
        if self.multi_label_depth:
            self._insert_multilabel(client_ip, fqdn, answers, timestamp)
            return
        key_to_slot = self._key_to_slot
        idx = self._next_slot
        refs = self._back_refs[idx]
        if self._used == self.clist_size:
            # Evict the slot's entry: drop every map key still pointing
            # here (deleteBackreferences).  Keys superseded by a newer
            # entry were left in place at replacement time and are
            # skipped by the identity check.
            kget = key_to_slot.get
            for key in refs:
                if kget(key) == idx:
                    del key_to_slot[key]
            refs.clear()
        else:
            self._used += 1
            if refs is None:
                refs = self._back_refs[idx] = []
        self._burned += 1
        self._fqdns[idx] = fqdn
        self._inserted_at[idx] = timestamp
        nxt = idx + 1
        self._next_slot = 0 if nxt == self.clist_size else nxt
        base = client_ip << 32
        if n == 1:
            # Single-answer fast lane: no duplicates possible, a lone
            # setdefault covers both the fresh-link and replace cases.
            key = base | answers[0]
            old = key_to_slot.setdefault(key, idx)
            if old != idx:
                self._replacements += 1
                key_to_slot[key] = idx
            refs.append(key)
            return
        kget = key_to_slot.get
        rapp = refs.append
        replaced = 0
        for server_ip in answers:
            key = base | server_ip
            old = kget(key)
            if old is None:
                key_to_slot[key] = idx
                rapp(key)
            elif old != idx:
                # Last-written-wins relink (Alg. 1 lines 11-15); the old
                # slot's stale back-reference is resolved at eviction.
                replaced += 1
                key_to_slot[key] = idx
                rapp(key)
            # old == idx: duplicate address within this response.
        if replaced:
            self._replacements += replaced

    def _insert_multilabel(
        self,
        client_ip: int,
        fqdn: str,
        answers: list[int],
        timestamp: float,
    ) -> None:
        """Insert with superseded-label history (``multi_label_depth > 0``).

        Functionally identical to :meth:`insert` plus the Sec. 6
        multi-label bookkeeping; split out so the depth check stays off
        the default hot path.
        """
        key_to_slot = self._key_to_slot
        history_map = self._history
        depth = self.multi_label_depth
        idx = self._next_slot
        refs = self._back_refs[idx]
        if self._used == self.clist_size:
            kget = key_to_slot.get
            for key in refs:
                if kget(key) == idx:
                    del key_to_slot[key]
                    history_map.pop(key, None)
            refs.clear()
        else:
            self._used += 1
            if refs is None:
                refs = self._back_refs[idx] = []
        self._burned += 1
        fqdns = self._fqdns
        fqdns[idx] = fqdn
        self._inserted_at[idx] = timestamp
        nxt = idx + 1
        self._next_slot = 0 if nxt == self.clist_size else nxt
        base = client_ip << 32
        kget = key_to_slot.get
        for server_ip in dict.fromkeys(answers):
            key = base | server_ip
            old = kget(key)
            if old is not None:
                self._replacements += 1
                old_fqdn = fqdns[old]
                if old_fqdn != fqdn:
                    history = history_map.setdefault(key, [])
                    if old_fqdn in history:
                        history.remove(old_fqdn)
                    history.insert(0, old_fqdn)
                    del history[depth:]
            key_to_slot[key] = idx
            refs.append(key)

    # -- LOOKUP (Algorithm 1, lines 27-34) -------------------------------

    def lookup(self, client_ip: int, server_ip: int) -> Optional[str]:
        """Return the FQDN ``client_ip`` resolved for ``server_ip``, if known."""
        self._lookups += 1
        slot = self._key_to_slot.get((client_ip << 32) | server_ip)
        if slot is None:
            return None
        self._hits += 1
        return self._fqdns[slot]

    def lookup_key(self, key: int) -> Optional[str]:
        """Like :meth:`lookup` but with a pre-fused 64-bit key.

        The flat map's only per-probe cost beyond the hash lookup is
        building ``(client_ip << 32) | server_ip``; callers that hold
        the fused key (the pipeline's fused loop, per-pair bursts via
        :func:`fuse_key`) skip it and probe at better than seed speed
        — see ``resolver_lookup`` in ``benchmarks/run_bench.py``.
        """
        self._lookups += 1
        slot = self._key_to_slot.get(key)
        if slot is None:
            return None
        self._hits += 1
        return self._fqdns[slot]

    def peek(self, client_ip: int, server_ip: int) -> Optional[str]:
        """Like :meth:`lookup` but without touching statistics."""
        slot = self._key_to_slot.get((client_ip << 32) | server_ip)
        return None if slot is None else self._fqdns[slot]

    def lookup_all(self, client_ip: int, server_ip: int) -> list[str]:
        """All candidate labels for the key, most recent first.

        The first element is what :meth:`lookup` returns; the rest are
        superseded labels still plausible for the shared server (only
        populated when ``multi_label_depth > 0``).
        """
        current = self.peek(client_ip, server_ip)
        if current is None:
            return []
        labels = [current]
        key = (client_ip << 32) | server_ip
        for fqdn in self._history.get(key, ()):
            if fqdn not in labels:
                labels.append(fqdn)
        return labels

    # -- statistics --------------------------------------------------------

    @property
    def stats(self) -> ResolverStats:
        """Snapshot of the Sec. 6 counters.

        ``overwrites`` is derived: every burned slot beyond the first
        ``L`` overwrote a live entry.
        """
        return ResolverStats(
            responses=self._responses,
            answers=self._answers,
            lookups=self._lookups,
            hits=self._hits,
            replacements=self._replacements,
            overwrites=self._burned - self._used,
        )

    # -- introspection ----------------------------------------------------

    @property
    def client_count(self) -> int:
        """Number of distinct clients currently tracked (N_C)."""
        return len({key >> 32 for key in self._key_to_slot})

    def server_count(self, client_ip: int) -> int:
        """Number of server keys for one client (N_S(c))."""
        return sum(1 for key in self._key_to_slot if key >> 32 == client_ip)

    @property
    def live_entries(self) -> int:
        """Number of occupied Clist slots — O(1), not an O(L) scan."""
        return self._used

    def oldest_entry_age(self, now: float) -> Optional[float]:
        """Age of the oldest live entry — the effective caching horizon."""
        used = self._used
        if not used:
            return None
        inserted_at = self._inserted_at
        return max(now - inserted_at[i] for i in range(used))

    def check_invariants(self) -> None:
        """Assert map/Clist consistency; used by property-based tests.

        Every map value must reference a live slot whose back-reference
        list contains the key; stale back-references (left behind by
        replacements) must point at other live mappings, never dangle as
        map entries; label history may exist only for live keys.
        """
        assert 0 <= self._used <= self.clist_size
        assert self._used == min(self._burned, self.clist_size)
        for key, slot in self._key_to_slot.items():
            assert 0 <= slot < self._used, "map points at a dead slot"
            refs = self._back_refs[slot]
            assert refs is not None and key in refs, (
                "map key missing from slot back-references"
            )
        for slot in range(self.clist_size):
            refs = self._back_refs[slot]
            if refs is None:
                continue
            assert slot < self._used or not refs, (
                "dead slot holds back-references"
            )
        for key in self._history:
            assert key in self._key_to_slot, "history for an evicted key"
