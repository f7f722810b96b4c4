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
  change, is never kept.  ``retain_bytes`` bounds what is kept (LRU).

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

import threading
import time
from collections import OrderedDict
from typing import Callable, Hashable, Optional, TypeVar

__all__ = ["SingleFlight", "SingleFlightTimeout", "REUSED"]

T = TypeVar("T")

#: Budget for kept results (instances read their ``retain_bytes``).
RETAIN_BYTES = 4 << 20
#: Charged per kept result on top of its length, for key, stamp and
#: table slot (~540 B measured): a flood of distinct tiny answers must
#: not outgrow the budget either.
_ENTRY_BYTES = 512
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
        #: Finished flights' ``(version, result)``, least recently
        #: used first.
        self._kept: OrderedDict[Hashable, tuple] = OrderedDict()
        self._kept_bytes = 0
        #: Instance-level so tests can set it to 0 (nothing is kept).
        self.retain_bytes = RETAIN_BYTES

    def in_flight(self) -> int:
        """Number of distinct keys currently executing."""
        with self._lock:
            return len(self._flights)

    def retained(self) -> tuple[int, int]:
        """``(results kept, bytes charged to the budget)``."""
        with self._lock:
            return len(self._kept), self._kept_bytes

    def _forget(self, key: Hashable) -> None:
        kept = self._kept.pop(key, None)
        if kept is not None:
            self._kept_bytes -= len(kept[1]) + _ENTRY_BYTES

    def _keep(self, key: Hashable, version: Hashable, value) -> None:
        self._forget(key)
        cost = len(value) + _ENTRY_BYTES
        if cost > self.retain_bytes:
            return
        self._kept[key] = (version, value)
        self._kept_bytes += cost
        while self._kept_bytes > self.retain_bytes:
            self._forget(next(iter(self._kept)))

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
                kept = self._kept.get(key) if stamp is not None else None
                if kept is not None:
                    if kept[0] == stamp:
                        self._kept.move_to_end(key)
                        return kept[1], REUSED
                    self._forget(key)
                flight = self._flights.get(key)
                leader = flight is None
                if leader:
                    flight = _Flight()
                    self._flights[key] = flight
            if leader:
                keep = False
                try:
                    flight.value = fn()
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
                            self._keep(key, stamp, flight.value)
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
