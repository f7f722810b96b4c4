"""Cooperative per-request deadlines for the serve layer.

A :class:`Deadline` is the cancellation token the daemon threads
through a query's whole execution path: admission queueing, the
single-flight wait, and — via the pinned snapshot's ``cancel_token`` —
the store's :meth:`_run_sources` per-segment kernel loop, including the
kernels dispatched onto the ``parallel=N`` thread pool, or the shard
coordinator's fan-out (every shard boundary / gathered worker reply).

The token is *cooperative*: nothing is interrupted mid-kernel.  The
store calls :meth:`check` at every kernel boundary (cheap — one
monotonic clock read), so an expired query stops before the next
segment is materialized instead of running an unbounded scan.  The
token also keeps partial-work counters (kernels scheduled vs
completed), which the 504 response surfaces so a caller can tell "shed
at the first segment" from "died one segment short".
"""

from __future__ import annotations

import threading
import time

__all__ = ["Deadline", "DeadlineExceeded", "DEADLINE_HEADER"]

#: Request header carrying the caller's budget in (fractional) seconds.
DEADLINE_HEADER = "X-Request-Deadline"


class DeadlineExceeded(RuntimeError):
    """The cooperative cancellation signal — maps to HTTP 504."""


class Deadline:
    """Expiry instant plus partial-work accounting (thread-safe).

    Implements the cancellation-token protocol the store duck-types:
    ``check()`` raises :class:`DeadlineExceeded` once expired,
    ``note_scheduled(n)`` / ``note_done()`` keep the kernel counters
    that make a 504 diagnosable.
    """

    __slots__ = (
        "seconds", "expires_at", "_clock", "_lock",
        "kernels_scheduled", "kernels_done",
    )

    def __init__(self, seconds: float, clock=time.monotonic):
        self.seconds = float(seconds)
        self._clock = clock
        self.expires_at = clock() + self.seconds
        self._lock = threading.Lock()
        self.kernels_scheduled = 0
        self.kernels_done = 0

    def remaining(self) -> float:
        """Seconds of budget left (negative once expired)."""
        return self.expires_at - self._clock()

    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self) -> None:
        """Raise :class:`DeadlineExceeded` once the budget is spent.

        Called from pool worker threads as well as the request thread;
        a clock read and a compare, so it is cheap enough for every
        kernel boundary.
        """
        if self.expired():
            raise DeadlineExceeded(
                f"deadline of {self.seconds:g}s exceeded"
            )

    def note_scheduled(self, count: int) -> None:
        with self._lock:
            self.kernels_scheduled += count

    def note_done(self) -> None:
        with self._lock:
            self.kernels_done += 1

    def progress(self) -> dict:
        """The partial-work counters for the 504 payload."""
        with self._lock:
            return {
                "kernels_scheduled": self.kernels_scheduled,
                "kernels_done": self.kernels_done,
            }
