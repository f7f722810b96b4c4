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
* when the circular list wraps, the keys still pointing at the
  overwritten entry stop resolving.

This is the *flat-key* implementation, tuned so the sniffer keeps up
with the wire (the paper's engineering constraint: one insert per DNS
response, one lookup per flow, at line rate):

* the paper's nested ``clientIP -> (serverIP -> entry)`` maps are
  collapsed into **one** hash map keyed by the 64-bit integer
  ``(client_ip << 32) | server_ip`` — one probe per lookup instead of
  two, no tuple allocation per event;
* the Clist is not a ring of per-slot objects but two **parallel
  arrays** (``_fqdns: list[str]`` and ``_inserted_at: array('d')``), so
  building an ``L = 2.1M`` resolver (the paper's one-hour sizing)
  allocates no per-entry Python objects;
* a key maps to the **burn index** ``b`` of its entry — the entry's
  1-based insert number — not to a slot.  The entry sits in slot
  ``b % L`` and, the Clist being a pure FIFO, is live exactly while
  ``b > burned - L``.  Overwriting a slot therefore visits none of its
  keys: there are no back-references and no eviction walk, and a key of
  a dead entry is answered as a miss until the sweep drops it;
* dead keys leave the map by a **sweep**: each wrap snapshots the map's
  keys, and every ``_SWEEP_STRIDE`` inserts until the next wrap one
  share of the snapshot is checked and its dead keys deleted.  Every
  value is then above ``w - 2L`` (``w`` the last wrap), so the map holds
  the keys of at most the last three Clist turns, and no single insert
  pays for a whole-map walk;
* ``overwrites`` and ``live_entries`` are derived from the burn count
  instead of per-event bookkeeping or an O(L) scan.

Observable behaviour (lookup results, label histories and statistics)
is identical to Algorithm 1 as transcribed in
:mod:`repro.sniffer.resolver_reference`;
``tests/test_resolver_differential.py`` enforces this over long random
operation streams.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Optional

#: Inserts between two steps of a wrap's sweep.  At the paper's
#: ``L = 2.1M`` the map holds ~4M keys; one Python walk over all of them
#: would stall a single insert for ~0.5 s.
_SWEEP_STRIDE = 1024


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
        "_key_to_burn",
        "_history",
        "_floor",
        "_sweep_at",
        "_stale",
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
        # Parallel Clist arrays indexed by ``burn index % L``.
        self._fqdns: list[Optional[str]] = [None] * clist_size
        self._inserted_at = array("d", bytes(8 * clist_size))
        self._key_to_burn: dict[int, int] = {}
        self._history: dict[int, list[str]] = {}
        # Burn indexes at or below the floor are dead: it is the insert
        # count minus L, so the newest entry's burn index is floor + L.
        self._floor = -clist_size
        # The sweep: the burn count of its next step and the keys of the
        # last wrap's snapshot not checked yet.
        self._sweep_at = clist_size
        self._stale: list[int] = []
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
        becomes a lookup key pointing at the single new entry.  A
        response with no answers burns no Clist slot.
        """
        self._responses += 1
        n = len(answers)
        self._answers += n
        if not n:
            return
        size = self.clist_size
        floor = self._floor = self._floor + 1
        b = floor + size
        if b == self._sweep_at:
            self._sweep_at = self._sweep(b)
        slot = b % size
        self._fqdns[slot] = fqdn
        self._inserted_at[slot] = timestamp
        if self.multi_label_depth:
            self._link_multilabel(client_ip << 32, answers, b)
            return
        # A key is relinked either way; only a live old entry (the
        # overwritten one, b - L == floor, is dead) makes it a replacement.
        key_to_burn = self._key_to_burn
        ksetdefault = key_to_burn.setdefault
        base = client_ip << 32
        replaced = 0
        for server_ip in answers:
            key = base | server_ip
            old = ksetdefault(key, b)
            if old != b:  # old == b: a fresh key, or a duplicate address
                key_to_burn[key] = b
                if old > floor:
                    replaced += 1
        if replaced:
            self._replacements += replaced

    def _link_multilabel(self, base: int, answers: list[int], b: int) -> None:
        """Link ``answers`` to entry ``b`` keeping superseded labels.

        The Sec. 6 multi-label bookkeeping of ``multi_label_depth > 0``:
        a replaced live label is pushed onto the key's history; a key
        whose old entry is dead starts a fresh history, as Alg. 1's
        eviction deleted it with the key.
        """
        key_to_burn = self._key_to_burn
        kget = key_to_burn.get
        history_map = self._history
        depth = self.multi_label_depth
        fqdns = self._fqdns
        size = self.clist_size
        fqdn = fqdns[b % size]
        floor = b - size
        for server_ip in dict.fromkeys(answers):
            key = base | server_ip
            old = kget(key)
            if old is not None:
                if old > floor:
                    self._replacements += 1
                    old_fqdn = fqdns[old % size]
                    if old_fqdn != fqdn:
                        history = history_map.setdefault(key, [])
                        if old_fqdn in history:
                            history.remove(old_fqdn)
                        history.insert(0, old_fqdn)
                        del history[depth:]
                else:
                    history_map.pop(key, None)
            key_to_burn[key] = b

    def _sweep(self, burned: int) -> int:
        """One step of the dead-key sweep; return the burn count of the next.

        Called by every insert loop when ``burned`` reaches
        ``_sweep_at``.  At a wrap the last wrap's snapshot is finished
        and the map's keys are snapshotted again; each step checks (and
        lets go of) an equal share of what is left, so the snapshot is
        done by the next wrap.
        """
        size = self.clist_size
        floor = burned - size
        wrap = burned - burned % size + size
        stale = self._stale
        if wrap - burned == size:
            self._drop_dead(stale, floor)
            # Oldest-first-linked keys last, so they are checked first.
            stale = self._stale = list(reversed(self._key_to_burn))
        if not stale:
            return wrap
        steps = -(-(wrap - burned) // _SWEEP_STRIDE)
        share = -(-len(stale) // steps)
        self._drop_dead(stale[-share:], floor)
        del stale[-share:]
        return min(burned + _SWEEP_STRIDE, wrap) if stale else wrap

    def _drop_dead(self, keys: list[int], floor: int) -> None:
        """Delete the keys among ``keys`` whose entry is not above ``floor``."""
        key_to_burn = self._key_to_burn
        history_map = self._history
        for key in keys:
            if key_to_burn[key] <= floor:
                del key_to_burn[key]
                if history_map:
                    history_map.pop(key, None)

    # -- LOOKUP (Algorithm 1, lines 27-34) -------------------------------

    def lookup(self, client_ip: int, server_ip: int) -> Optional[str]:
        """Return the FQDN ``client_ip`` resolved for ``server_ip``, if known."""
        self._lookups += 1
        b = self._key_to_burn.get((client_ip << 32) | server_ip)
        if b is None or b <= self._floor:
            return None
        self._hits += 1
        return self._fqdns[b % self.clist_size]

    def lookup_key(self, key: int) -> Optional[str]:
        """Like :meth:`lookup` but with a pre-fused 64-bit key.

        The flat map's only per-probe cost beyond the hash lookup is
        building ``(client_ip << 32) | server_ip``; callers that hold
        the fused key (the pipeline's fused loop, per-pair bursts via
        :func:`fuse_key`) skip it and probe at better than seed speed
        — see ``resolver_lookup`` in ``benchmarks/run_bench.py``.
        """
        self._lookups += 1
        b = self._key_to_burn.get(key)
        if b is None or b <= self._floor:
            return None
        self._hits += 1
        return self._fqdns[b % self.clist_size]

    def peek(self, client_ip: int, server_ip: int) -> Optional[str]:
        """Like :meth:`lookup` but without touching statistics."""
        b = self._key_to_burn.get((client_ip << 32) | server_ip)
        if b is None or b <= self._floor:
            return None
        return self._fqdns[b % self.clist_size]

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

        ``overwrites`` is derived: every insert beyond the first ``L``
        overwrote a live entry.
        """
        return ResolverStats(
            responses=self._responses,
            answers=self._answers,
            lookups=self._lookups,
            hits=self._hits,
            replacements=self._replacements,
            overwrites=max(0, self._floor),
        )

    # -- introspection ----------------------------------------------------

    def _live_keys(self) -> list[int]:
        floor = self._floor
        return [key for key, b in self._key_to_burn.items() if b > floor]

    @property
    def client_count(self) -> int:
        """Number of distinct clients currently tracked (N_C)."""
        return len({key >> 32 for key in self._live_keys()})

    def server_count(self, client_ip: int) -> int:
        """Number of server keys for one client (N_S(c))."""
        return sum(1 for key in self._live_keys() if key >> 32 == client_ip)

    @property
    def live_entries(self) -> int:
        """Number of occupied Clist slots — O(1), not an O(L) scan."""
        return min(self._floor, 0) + self.clist_size

    def oldest_entry_age(self, now: float) -> Optional[float]:
        """Age of the oldest live entry — the effective caching horizon."""
        size = self.clist_size
        burned = self._floor + size
        if not burned:
            return None
        inserted_at = self._inserted_at
        return max(
            now - inserted_at[b % size]
            for b in range(max(1, burned - size + 1), burned + 1)
        )

    def check_invariants(self) -> None:
        """Assert map/Clist consistency; used by property-based tests.

        Every map value is the burn index of an entry already inserted
        and above ``w - 2L`` (``w`` the last wrap: the sweep's bound); a
        live value's slot holds a label; the sweep's unchecked keys are
        map keys and its next step falls by the next wrap; label history
        exists only for keys in the map.
        """
        size = self.clist_size
        floor = self._floor
        burned = floor + size
        assert burned >= 0
        wrap = burned - burned % size
        for key, b in self._key_to_burn.items():
            assert 0 < b <= burned, "map points at an entry never inserted"
            assert b > wrap - 2 * size, "the sweep left a dead key behind"
            if b > floor:
                assert self._fqdns[b % size] is not None, (
                    "map points at an empty slot"
                )
        assert burned < self._sweep_at <= wrap + size, "sweep off schedule"
        unchecked = self._stale
        assert len(set(unchecked)) == len(unchecked)
        assert self._key_to_burn.keys() >= set(unchecked), (
            "the sweep holds a key the map dropped"
        )
        for key in self._history:
            assert key in self._key_to_burn, "history for an evicted key"
