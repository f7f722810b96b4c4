"""Single-flight coalescing of identical in-flight calls.

When many HTTP clients ask the same expensive question at once (the
dashboard-refresh stampede), only one of them should pay for the
whole-store scan.  :class:`SingleFlight` keys in-flight work by an
arbitrary hashable — the serve layer uses the canonicalized request
``(path, sorted query params)`` — and makes every duplicate arrival
*wait for the leader's result* instead of recomputing it.

Semantics:

* the first caller for a key becomes the **leader** and runs ``fn()``;
* callers arriving while the leader is in flight become **followers**:
  they block on the leader's completion and receive the same result
  object (or the same raised exception);
* the key leaves the in-flight table the moment the leader finishes,
  *before* the followers wake — a later caller never joins it;
* given a ``version`` callable (the serve layer passes the store's),
  a finished flight's result is **kept**, stamped with the version
  read *before* the lookup, if the version read again *after* ``fn()``
  is equal — equality on both sides proves which version was answered
  — and a later caller at that same version gets the same object back
  without executing (:data:`REUSED`).  Versions never recur, so nothing
  is served stale; an error, or a result computed across a version
  change, is never kept, and the first keep at a new version drops
  every answer kept at an older one.
* ``retain_bytes`` bounds what is kept, and GreedyDual-Size (Cao &
  Irani, USITS '97) decides what goes: a kept result's priority is the
  floor plus what it cost to compute (the leader's thread CPU time)
  per byte it charges, a reuse refreshes it, and evicting the lowest
  raises the floor to its priority.  Answers that are cheap for their
  size age out first; one that is costly to recompute stays while it
  is asked for, however far apart the asks.

Overload hardening (PR 8):

* ``timeout`` bounds a follower's wait.  Without it a follower whose
  leader thread dies without reaching its cleanup (daemon-thread
  teardown, a signal between becoming leader and entering ``try``)
  would block forever; with it the wait ends in
  :class:`SingleFlightTimeout`, which the serve layer maps to 504.
* ``retry_on_leader_error`` makes a follower **re-dispatch** instead
  of inheriting the leader's exception: a leader that crashed (or ran
  out of *its* deadline budget) no longer fails every coalesced caller
  — each follower starts or joins a fresh flight with its own budget,
  until its own timeout runs out.

``do`` reports whether the caller coalesced, which feeds the
``serve_coalesced_total`` metric and lets the e2e test prove the
barrier behavior (N concurrent identical queries, 1 execution).
"""

from __future__ import annotations

import heapq
import threading
import time
from itertools import count
from typing import Callable, Hashable, Optional, TypeVar

__all__ = ["SingleFlight", "SingleFlightTimeout", "REUSED"]

T = TypeVar("T")

#: Budget for kept results (instances read their ``retain_bytes``).
RETAIN_BYTES = 4 << 20
#: Charged per kept result on top of its length, for key, record, heap
#: entry, table slot and the body's object header (~620 B measured with
#: ``tracemalloc`` for a served ``rows-for-fqdn`` key): a flood of
#: distinct tiny answers must not outgrow the budget either.
_ENTRY_BYTES = 640
#: The priority heap is rebuilt from the live records once it holds
#: more than twice as many entries, plus this slack.
_HEAP_SLACK = 64
#: ``do``'s second result for a kept answer: truthy like a follower's
#: ``True`` (the caller did not execute), but countable apart.
REUSED = 2

_UNSET = object()


class SingleFlightTimeout(TimeoutError):
    """A follower's bounded wait for its leader expired."""


class _Flight:
    __slots__ = ("done", "value", "error")

    def __init__(self):
        self.done = threading.Event()
        self.value = _UNSET
        self.error: BaseException | None = None


class SingleFlight:
    """Per-key leader/follower coalescing (thread-safe)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._flights: dict[Hashable, _Flight] = {}
        #: Finished flights' ``(result, credit, heap entry)``, all
        #: computed at ``_version``; ``credit`` is compute seconds per
        #: byte charged.
        self._kept: dict[Hashable, tuple] = {}
        self._version: Hashable = None
        self._kept_bytes = 0
        #: ``(priority, sequence, key)``; an entry is live while it is
        #: its key's record's entry (lazy deletion).
        self._heap: list[tuple] = []
        self._sequence = count()
        #: GreedyDual's inflation value: the priority of the last
        #: answer evicted for room.
        self._floor = 0.0
        #: Instance-level so tests can set it to 0 (nothing is kept).
        self.retain_bytes = RETAIN_BYTES
        #: ``on_evict(reason, answers)``, called under the table lock
        #: when answers leave for room (``"budget"``) or because a keep
        #: at a new version dropped them (``"version"``).
        self.on_evict: Optional[Callable[[str, int], None]] = None

    def in_flight(self) -> int:
        """Number of distinct keys currently executing."""
        with self._lock:
            return len(self._flights)

    def retained(self) -> tuple[int, int]:
        """``(results kept, bytes charged to the budget)``."""
        with self._lock:
            return len(self._kept), self._kept_bytes

    def _evicted(self, reason: str, answers: int) -> None:
        if answers and self.on_evict is not None:
            self.on_evict(reason, answers)

    def _rank(self, key: Hashable, value, credit: float) -> None:
        """(Re)file ``key``'s record at the floor plus its credit."""
        entry = (self._floor + credit, next(self._sequence), key)
        self._kept[key] = (value, credit, entry)
        heapq.heappush(self._heap, entry)
        if len(self._heap) > 2 * len(self._kept) + _HEAP_SLACK:
            self._heap = [kept[2] for kept in self._kept.values()]
            heapq.heapify(self._heap)

    def _forget(self, key: Hashable) -> None:
        kept = self._kept.pop(key, None)
        if kept is not None:
            self._kept_bytes -= len(kept[0]) + _ENTRY_BYTES

    def _keep(self, key: Hashable, version: Hashable, value,
              seconds: float) -> None:
        charge = len(value) + _ENTRY_BYTES
        if charge > self.retain_bytes:
            return
        if version != self._version:
            # Versions never recur: nothing kept at another one can be
            # served again.
            self._evicted("version", len(self._kept))
            self._kept.clear()
            self._heap.clear()
            self._kept_bytes = 0
            self._floor = 0.0
            self._version = version
        self._forget(key)
        self._rank(key, value, seconds / charge)
        self._kept_bytes += charge
        evicted = 0
        while self._kept_bytes > self.retain_bytes:
            entry = heapq.heappop(self._heap)
            kept = self._kept.get(entry[2])
            if kept is None or kept[2] is not entry:
                continue
            self._floor = entry[0]
            self._forget(entry[2])
            evicted += 1
        self._evicted("budget", evicted)

    def do(self, key: Hashable, fn: Callable[[], T],
           timeout: float | None = None,
           retry_on_leader_error: bool = False,
           version: Optional[Callable[[], Optional[Hashable]]] = None,
           ) -> tuple[T, bool | int]:
        """Run ``fn`` (or wait for the identical in-flight run, or
        return the kept result of a finished one).

        Returns ``(result, coalesced)``: ``coalesced`` is True when
        this caller received a leader's result instead of executing,
        :data:`REUSED` when it received a kept one (which needs
        ``version``: the current version of whatever ``fn`` reads, or
        None when that cannot be said; kept results have a ``len``).
        An exception raised by the leader propagates to every waiter —
        unless ``retry_on_leader_error``, in which case a follower that
        observes a failed leader re-dispatches (fresh flight) rather
        than inheriting the failure.  ``timeout`` bounds the *total*
        time spent waiting on leaders (across re-dispatches); when it
        runs out the caller gets :class:`SingleFlightTimeout`, never a
        hang.
        """
        expires = (
            None if timeout is None else time.monotonic() + timeout
        )
        keeping = version is not None and self.retain_bytes > 0
        stamp = version() if keeping else None
        while True:
            with self._lock:
                kept = (
                    self._kept.get(key)
                    if stamp is not None and stamp == self._version
                    else None
                )
                if kept is not None:
                    self._rank(key, kept[0], kept[1])
                    return kept[0], REUSED
                flight = self._flights.get(key)
                leader = flight is None
                if leader:
                    flight = _Flight()
                    self._flights[key] = flight
            if leader:
                keep = False
                try:
                    began = time.thread_time()
                    flight.value = fn()
                    seconds = time.thread_time() - began
                    # fn's snapshot sees rows acknowledged while it
                    # ran: only equality on both sides names a version.
                    keep = stamp is not None and version() == stamp
                except BaseException as exc:
                    flight.error = exc
                    raise
                finally:
                    # Retire the key before waking followers: a caller
                    # that arrives now reuses a kept result or computes
                    # fresh, never joins a finished flight.
                    with self._lock:
                        self._flights.pop(key, None)
                        if keep:
                            self._keep(key, stamp, flight.value, seconds)
                    flight.done.set()
                return flight.value, False
            wait = (
                None if expires is None
                else expires - time.monotonic()
            )
            if wait is not None and wait <= 0:
                raise SingleFlightTimeout(
                    f"timed out waiting on in-flight {key!r}"
                )
            if not flight.done.wait(wait):
                raise SingleFlightTimeout(
                    f"timed out waiting on in-flight {key!r}"
                )
            if flight.error is None:
                return flight.value, True
            if not retry_on_leader_error:
                raise flight.error
            # Leader failed: loop and re-dispatch with our own budget.
