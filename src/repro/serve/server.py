"""The ``repro-serve`` HTTP application: routes, handlers, JSON shapes.

One :class:`ServeApp` wraps a live :class:`~repro.analytics.storage.FlowStore`
and exposes its query surface over HTTP/JSON (full reference in
``docs/http-api.md``):

* **Snapshot isolation** — every ``/query/*`` request runs over a
  pinned :class:`~repro.analytics.storage.StoreSnapshot`, so its answer
  is computed against one frozen member set even while ingest, seals
  and compactions land concurrently; a pinned reader can never 404
  half-way through a scan.
* **Single-flight coalescing** — identical queries (same route +
  canonicalized params) share one execution, one snapshot and one
  encoded body (:mod:`repro.serve.singleflight`) while they are
  concurrent (``serve_coalesced_total``) and, after that, for as long
  as ``store.version()`` stands still (``serve_answers_reused_total``).
* **Ingest** — ``POST /ingest`` accepts one eventcodec tagged-flow
  batch per request and acknowledges only after the store's WAL
  fsync; the store's own writer lock serializes it with the CLI's
  pipeline drain and compaction timer.
* **Metrics** — ``GET /metrics`` renders the process registry in
  Prometheus text format (catalog in ``docs/observability.md``).
* **Overload safety** — every request passes a bounded admission gate
  (:mod:`repro.serve.admission`; excess load is shed with 503 +
  ``Retry-After``), queries carry a cooperative deadline
  (:mod:`repro.serve.deadline`; expiry returns 504 with partial-work
  counters), and the ingest path sits behind a read-only circuit
  breaker (:mod:`repro.serve.governor`).  ``/health`` and ``/metrics``
  bypass the gate so the daemon stays observable under load.

Everything is stdlib: :class:`http.server.ThreadingHTTPServer` gives
one thread per in-flight request, which the store's mutex discipline
(lock-free sealed-segment scans, serialized tail access) is built for.
The transport — one write per response on ``TCP_NODELAY`` sockets,
per-connection socket timeouts, daemon threads, ``Content-Length``-first
body handling — lives in :meth:`ServeApp.make_server`, so a slow-loris
client times out and a POST that is oversized, or to any route but
``/ingest``, is refused *before* its body is read.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional
from urllib.parse import parse_qs, urlsplit

from repro.analytics.queries import QUERIES, Query, QueryHint
from repro.analytics.storage import FlowStore, StorageError
from repro.serve.admission import AdmissionController
from repro.serve.deadline import DEADLINE_HEADER, Deadline, DeadlineExceeded
from repro.serve.governor import READ_ONLY, DegradationGovernor
from repro.serve.metrics import MetricsRegistry
from repro.serve.singleflight import REUSED, SingleFlight, SingleFlightTimeout

__all__ = ["ServeApp", "BadRequest"]

#: Refuse ingest bodies past this size (64 MiB): a stray huge POST must
#: not balloon the tail past every spill budget in one call.
MAX_INGEST_BYTES = 64 << 20


#: The served paths outside ``/query/*`` (``ServeApp._dispatch``).
_ROUTES = ("/ingest", "/metrics", "/health", "/stats", "/prune-report")


class BadRequest(ValueError):
    """Maps to a 400 with ``{"error": ...}``."""


#: The store series, ``store.counters()`` key → (metric kind, help);
#: the series name is ``flowstore_`` + key.
_STORE_SERIES = {
    "rows": ("gauge", "Total rows (sealed segments + live tail)."),
    "tail_rows": ("gauge", "Rows in the live in-memory tail."),
    "segments": ("gauge", "Sealed segment files in the manifest."),
    "quarantined_segments": (
        "gauge", "Segments quarantined by graceful degradation."),
    "generation": (
        "gauge", "Manifest generation (bumps on seal/compact)."),
    "wal_epoch": (
        "gauge", "Current WAL epoch from the manifest protocol."),
    "pinned_readers": (
        "gauge", "Readers currently holding pinned snapshots."),
    "retired_pending": (
        "gauge", "Compacted segment files awaiting unpin to unlink."),
    "scan_queries_total": (
        "counter", "Whole-store query passes executed."),
    "segments_scanned_total": (
        "counter", "Sealed segments materialized/scanned by queries."),
    "segments_pruned_total": (
        "counter", "Sealed segments skipped by pruning metadata "
        "(pruned / (scanned + pruned) is the prune hit-rate)."),
    "wal_recovered_batches": (
        "counter", "Journal batches replayed at open."),
    "wal_recovered_rows": ("counter", "Journal rows replayed at open."),
    "wal_torn_bytes_dropped": (
        "counter", "Torn trailing journal bytes dropped at open."),
    "wal_skipped_records": (
        "counter", "Unplayable journal records skipped at open "
        "(non-zero means sealed data was lost)."),
}


def _encode(payload: dict | bytes) -> bytes:
    """The response body of a JSON payload; one that is encoded
    already (a row or ``packed`` route's, a finished query's) passes
    through."""
    if isinstance(payload, bytes):
        return payload
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _query_route(query: Query) -> Callable:
    """The ``/query/<route>`` handler of one query-table entry: read
    its arguments from the request parameters and run it on the pinned
    snapshot — 400 on a missing, repeated or malformed argument and on
    one the query itself refuses (a gap-filled series past
    ``MAX_SERIES_BINS``); the store's own ``StorageError`` stays a
    server error — then shape the JSON payload (a row route's shape
    writes the body from the row column, a ``packed`` route's from the
    merged partial itself)."""
    def handler(snap, params):
        try:
            args = query.parse(params)
            if query.packed:
                return query.shape(snap.groups(query.name, *args))
            return query.shape(snap._query(query, args))
        except StorageError:
            raise
        except ValueError as exc:
            raise BadRequest(str(exc)) from exc
    return handler


class ServeApp:
    """The HTTP application state: store + metrics + coalescing +
    admission + degradation.

    Transport-free by design — :meth:`handle` maps ``(method, path,
    params, body, headers)`` to ``(status, content_type, payload,
    headers)``, so the routing layer is unit-testable without sockets,
    and :meth:`make_server` wraps it in a ``ThreadingHTTPServer``.
    """

    def __init__(self, store: FlowStore,
                 registry: Optional[MetricsRegistry] = None, *,
                 admission: Optional[AdmissionController] = None,
                 governor: Optional[DegradationGovernor] = None,
                 default_deadline_s: Optional[float] = 30.0,
                 max_deadline_s: float = 300.0,
                 socket_timeout_s: float = 10.0):
        self.store = store
        self.registry = registry if registry is not None else (
            MetricsRegistry()
        )
        self.singleflight = SingleFlight()
        self.admission = admission if admission is not None else (
            AdmissionController()
        )
        self.governor = governor if governor is not None else (
            DegradationGovernor()
        )
        #: Deadline applied when the request carries no
        #: ``X-Request-Deadline`` header (None disables); header values
        #: are clamped to ``max_deadline_s``.
        self.default_deadline_s = default_deadline_s
        self.max_deadline_s = max_deadline_s
        #: Per-connection socket timeout for :meth:`make_server` —
        #: drops slow-loris clients instead of accumulating them.
        self.socket_timeout_s = socket_timeout_s
        #: Ingest body cap (instance-level so tests can shrink it).
        self.max_ingest_bytes = MAX_INGEST_BYTES
        self._register_metrics()
        self.governor.on_transition = (
            lambda to, reason: self.m_degraded_transitions.inc(to=to)
        )
        self.governor.on_probe = (
            lambda outcome: self.m_degraded_probes.inc(outcome=outcome)
        )
        #: Route table for ``/query/*``, built from the query table
        #: (every entry with a JSON shape is served) — an instance dict
        #: so tests can wrap an entry (e.g. with a barrier) to shape
        #: timing.
        self.query_routes: dict[str, Callable] = {
            query.route: _query_route(query)
            for query in QUERIES.values() if query.shape is not None
        }

    # -- metrics -----------------------------------------------------------

    def _register_metrics(self) -> None:
        reg = self.registry
        self.m_requests = reg.counter(
            "serve_requests_total",
            "HTTP requests served, by route and status code.",
            labelnames=("route", "code"),
        )
        self.m_latency = reg.histogram(
            "serve_query_seconds",
            "/query handler latency in seconds: execution and JSON "
            "encoding, not the transport (coalesced followers "
            "included).",
            labelnames=("route",),
        )
        self.m_coalesced = reg.counter(
            "serve_coalesced_total",
            "Queries answered from an identical in-flight execution.",
            labelnames=("route",),
        )
        self.m_ingest_batches = reg.counter(
            "serve_ingest_batches_total",
            "Tagged-flow batches acknowledged into the store.",
        )
        self.m_ingest_rows = reg.counter(
            "serve_ingest_rows_total",
            "Flow rows acknowledged into the store (rate() of this "
            "is the ingest rate).",
        )
        reg.gauge(
            "serve_inflight_queries",
            "Distinct coalescing keys currently executing.",
            fn=lambda: self.singleflight.in_flight(),
        )
        self.m_reused = reg.counter(
            "serve_answers_reused_total",
            "Queries answered with the kept body of an identical "
            "finished one (store version unchanged since).",
            labelnames=("route",),
        )
        reg.gauge(
            "serve_retained_answers", "Finished answers kept for reuse.",
            fn=lambda: self.singleflight.retained()[0],
        )
        reg.gauge(
            "serve_retained_bytes",
            "Bytes the kept answers charge to the retention budget.",
            fn=lambda: self.singleflight.retained()[1],
        )
        self.m_evicted = reg.counter(
            "serve_retained_evicted_total",
            "Kept answers dropped: for room in the retention budget "
            "(budget), or because the store's version moved (version).",
            labelnames=("reason",),
        )
        for reason in ("budget", "version"):
            self.m_evicted.inc(0, reason=reason)
        self.singleflight.on_evict = (
            lambda reason, answers: self.m_evicted.inc(
                answers, reason=reason
            )
        )
        # Overload & degradation (PR 8).
        self.m_shed = reg.counter(
            "serve_shed_total",
            "Requests shed by admission control (503 + Retry-After), "
            "by route class.",
            labelnames=("route_class",),
        )
        self.m_deadline_exceeded = reg.counter(
            "serve_deadline_exceeded_total",
            "Queries cancelled at their deadline (504), by route.",
            labelnames=("route",),
        )
        self.m_degraded_transitions = reg.counter(
            "serve_degraded_transitions_total",
            "Ingest-governor state transitions, by destination state.",
            labelnames=("to",),
        )
        self.m_degraded_probes = reg.counter(
            "serve_degraded_probes_total",
            "Half-open probe ingests while read-only, by outcome.",
            labelnames=("outcome",),
        )
        reg.gauge(
            "serve_read_only",
            "1 while the ingest governor is read-only, else 0.",
            fn=lambda: 1 if self.governor.state == READ_ONLY else 0,
        )
        reg.gauge(
            "serve_admission_inflight_query",
            "Query-class requests currently executing.",
            fn=lambda: self.admission.inflight("query"),
        )
        reg.gauge(
            "serve_admission_queued_query",
            "Query-class requests waiting in the bounded queue.",
            fn=lambda: self.admission.queued("query"),
        )
        reg.gauge(
            "serve_admission_inflight_ingest",
            "Ingest requests currently executing.",
            fn=lambda: self.admission.inflight("ingest"),
        )
        reg.gauge(
            "serve_admission_queued_ingest",
            "Ingest requests waiting in the bounded queue.",
            fn=lambda: self.admission.queued("ingest"),
        )
        # Store-side state: one counters() snapshot per /metrics
        # render (see render_metrics), shared by all the series.
        self._scrape_lock = threading.Lock()
        self._scrape: Optional[dict] = None
        for key, (kind, help_text) in _STORE_SERIES.items():
            getattr(reg, kind)(
                "flowstore_" + key, help_text,
                fn=lambda key=key: self._store_counter(key),
            )

    def _store_counter(self, key: str) -> int:
        scrape = self._scrape
        return (scrape if scrape is not None else self.store.counters())[key]

    def render_metrics(self) -> str:
        """The ``/metrics`` payload, its store series all read from one
        ``store.counters()`` snapshot (one mutex hold on a flat store,
        one fan on a sharded one) instead of one call per series."""
        with self._scrape_lock:
            self._scrape = self.store.counters()
            try:
                return self.registry.render()
            finally:
                self._scrape = None

    def note_ingest(self, batches: int, rows: int) -> None:
        """Ingest-accounting hook — also wired as the sniffer
        pipeline's ``store_drain_hook`` by the CLI."""
        if batches:
            self.m_ingest_batches.inc(batches)
        if rows:
            self.m_ingest_rows.inc(rows)

    # -- ingest ------------------------------------------------------------

    def ingest(self, payload: bytes) -> int:
        """Absorb one eventcodec batch; returns acknowledged rows.

        Returns only after the store's WAL append and fsync — an
        acknowledged batch survives a crash.
        """
        rows = self.store.ingest_batch(payload)
        self.note_ingest(1, rows)
        return rows

    # -- dispatch ----------------------------------------------------------

    def _run_query(self, route: str, params: dict,
                   deadline: Optional[Deadline] = None) -> bytes:
        fn = self.query_routes[route]
        key = (
            route,
            tuple(sorted(
                (name, tuple(values))
                for name, values in params.items()
            )),
        )
        start = time.perf_counter()

        def compute():
            # One pinned snapshot per execution: the whole answer is
            # computed against a single generation, and coalesced
            # followers share it.  The deadline rides on the snapshot
            # (instance attribute), so the store's kernel loop — pool
            # workers included — checks *this* request's budget and no
            # other reader's.  The answer is encoded here too, once:
            # followers share the leader's bytes.
            with self.store.pin() as snap:
                if deadline is not None:
                    snap.cancel_token = deadline
                return _encode(fn(snap, params))

        # A follower waits at most its own remaining budget, and a
        # failed leader (crash or *its* deadline) makes the follower
        # re-dispatch with its own — coalescing can delay a caller,
        # never hang or fail it on someone else's behalf.  A finished
        # answer is kept until the store's version moves.
        result, coalesced = self.singleflight.do(
            key, compute,
            timeout=(
                None if deadline is None else deadline.remaining()
            ),
            retry_on_leader_error=True,
            version=self.store.version,
        )
        self.m_latency.observe(
            time.perf_counter() - start, route=route
        )
        if coalesced == REUSED:
            self.m_reused.inc(route=route)
        elif coalesced:
            self.m_coalesced.inc(route=route)
        return result

    def _route_label(self, path: str) -> str:
        """A request path's ``route`` label: itself when served, else
        ``"unknown"`` — a series per probed path would live forever."""
        served = path in _ROUTES or (
            path.startswith("/query/")
            and path.removeprefix("/query/") in self.query_routes
        )
        return path if served else "unknown"

    @staticmethod
    def _route_class(path: str) -> Optional[str]:
        """Admission route class (None = always admitted)."""
        if path in ("/health", "/metrics"):
            return None
        if path == "/ingest":
            return "ingest"
        return "query"

    def _deadline_from_headers(self, headers) -> Optional[Deadline]:
        raw = None
        if headers is not None:
            raw = headers.get(DEADLINE_HEADER)
        if raw is None:
            if self.default_deadline_s is None:
                return None
            return Deadline(self.default_deadline_s)
        try:
            seconds = float(raw)
        except ValueError as exc:
            raise BadRequest(
                f"bad {DEADLINE_HEADER}: {raw!r}"
            ) from exc
        if not seconds > 0:
            raise BadRequest(f"{DEADLINE_HEADER} must be positive")
        return Deadline(min(seconds, self.max_deadline_s))

    def handle(self, method: str, path: str, params: dict,
               body: bytes = b"",
               headers=None) -> tuple[int, str, bytes, dict]:
        """Route one request → ``(status, content_type, payload,
        extra_headers)``.

        ``headers`` is the request-header mapping (anything with
        ``.get``); only ``X-Request-Deadline`` is consulted.  The
        admission gate runs first — ``/health`` and ``/metrics`` are
        exempt, everything else can be shed with 503 + ``Retry-After``
        before any store work happens.
        """
        route = self._route_label(path)
        route_class = self._route_class(path)
        if route_class is None:
            return self._dispatch(method, path, params, body, route,
                                  None)
        try:
            deadline = self._deadline_from_headers(headers)
        except BadRequest as exc:
            return self._finish(route, 400, {"error": str(exc)})
        budget = None if deadline is None else deadline.remaining()
        if not self.admission.try_acquire(route_class, budget):
            self.m_shed.inc(route_class=route_class)
            limits = self.admission.limits[route_class]
            retry_after = max(1, round(limits.max_wait_s))
            return self._finish(route, 503, {
                "error": "overloaded",
                "route_class": route_class,
                "retry_after_s": retry_after,
            }, headers={"Retry-After": str(retry_after)})
        try:
            return self._dispatch(method, path, params, body, route,
                                  deadline)
        finally:
            self.admission.release(route_class)

    def _dispatch(self, method: str, path: str, params: dict,
                  body: bytes, route: str,
                  deadline: Optional[Deadline]
                  ) -> tuple[int, str, bytes, dict]:
        try:
            if path == "/ingest":
                if method != "POST":
                    return self._finish(route, 405, {
                        "error": "POST required",
                    })
                return self._handle_ingest(route, body)
            if method != "GET":
                return self._finish(route, 405, {"error": "GET required"})
            if path == "/metrics":
                payload = self.render_metrics().encode("utf-8")
                self.m_requests.inc(route=route, code="200")
                return (
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    payload,
                    {},
                )
            if path == "/health":
                payload = self.store.health()
                payload["service"] = self.governor.snapshot()
                payload["admission"] = self.admission.snapshot()
                return self._finish(route, 200, payload)
            if path == "/stats":
                return self._finish(route, 200, self.store.stats())
            if path == "/prune-report":
                try:
                    hint = QueryHint.from_mapping(params)
                except ValueError as exc:
                    raise BadRequest(str(exc)) from exc
                return self._finish(
                    route, 200, self.store.prune_report(hint)
                )
            if path.startswith("/query/"):
                name = path[len("/query/"):]
                if name not in self.query_routes:
                    return self._finish(route, 404, {
                        "error": f"unknown query {name!r}",
                        "queries": sorted(self.query_routes),
                    })
                return self._finish(
                    route, 200, self._run_query(name, params, deadline)
                )
            return self._finish(route, 404, {"error": "unknown route"})
        except BadRequest as exc:
            return self._finish(route, 400, {"error": str(exc)})
        except DeadlineExceeded as exc:
            self.m_deadline_exceeded.inc(route=route)
            payload = {"error": str(exc)}
            if deadline is not None:
                payload["deadline_s"] = deadline.seconds
                payload.update(deadline.progress())
            return self._finish(route, 504, payload)
        except SingleFlightTimeout:
            self.m_deadline_exceeded.inc(route=route)
            payload = {
                "error": "deadline exceeded waiting on a coalesced "
                         "in-flight query",
            }
            if deadline is not None:
                payload["deadline_s"] = deadline.seconds
                payload.update(deadline.progress())
            return self._finish(route, 504, payload)
        except Exception as exc:  # pragma: no cover - defensive
            return self._finish(route, 500, {
                "error": f"{type(exc).__name__}: {exc}",
            })

    def _handle_ingest(self, route: str,
                       body: bytes) -> tuple[int, str, bytes, dict]:
        if not body:
            raise BadRequest("empty ingest body")
        if len(body) > self.max_ingest_bytes:
            return self._finish(route, 413, {
                "error": (
                    f"ingest body over {self.max_ingest_bytes} bytes"
                ),
            })
        admitted, info = self.governor.admit()
        if not admitted:
            retry_after = max(1, round(info["retry_after_s"]))
            return self._finish(route, 503, dict(info, **{
                "error": "store is read-only",
            }), headers={"Retry-After": str(retry_after)})
        try:
            rows = self.ingest(body)
        except ValueError as exc:
            # The store's I/O path worked (the batch just did not
            # decode) — this is the client's 400, not a store failure.
            self.governor.record_success()
            raise BadRequest(f"undecodable batch: {exc}") from exc
        except OSError as exc:
            # The bounded retry/backoff inside the store is exhausted:
            # report, count, and (maybe) trip the breaker.
            self.governor.record_failure(exc)
            return self._finish(route, 503, {
                "error": "ingest failed",
                "reason": self.governor.reason,
                "detail": str(exc),
                "state": self.governor.state,
            }, headers={"Retry-After": "1"})
        self.governor.record_success()
        return self._finish(route, 200, {"rows": rows})

    def reject(self, path: str, status: int, message: str
               ) -> tuple[int, str, bytes, dict]:
        """A transport-level refusal (oversized/truncated body, a POST
        to a GET route) that still lands in ``serve_requests_total``.
        The connection is closed — the client may still be mid-upload."""
        return self._finish(self._route_label(path), status,
                            {"error": message},
                            headers={"Connection": "close"})

    def _finish(self, route: str, status: int, payload: dict | bytes,
                headers: Optional[dict] = None
                ) -> tuple[int, str, bytes, dict]:
        self.m_requests.inc(route=route, code=str(status))
        return (status, "application/json", _encode(payload),
                dict(headers or {}))

    # -- transport ---------------------------------------------------------

    def make_server(self, host: str = "127.0.0.1",
                    port: int = 0) -> ThreadingHTTPServer:
        """A ready-to-run threading HTTP server bound to this app
        (``port=0`` picks a free port; read ``server_address``).

        Hardened against abusive clients: per-connection socket
        timeouts (a slow-loris stalls for ``socket_timeout_s``, then
        its thread is reclaimed), daemon connection threads (a wedged
        client cannot block process exit), and a ``Content-Length``-
        first POST path — an oversized ingest body is refused with 413
        and a POST to any other route with 405 *before* a single body
        byte is read, and a mid-body disconnect or stall drops the
        connection instead of wedging the handler.  Every response
        leaves as one write on a ``TCP_NODELAY`` socket.
        """
        app = self

        class Handler(BaseHTTPRequestHandler):
            # Quiet by default: one log line per request belongs to
            # access-log tooling, not stderr.
            def log_message(self, format, *args):
                pass

            protocol_version = "HTTP/1.1"
            # StreamRequestHandler applies this to the connection
            # socket, so reading the request line, headers, and body
            # are all bounded — handle_one_request treats the timeout
            # as end-of-connection.
            timeout = app.socket_timeout_s
            # TCP_NODELAY on every accepted socket: an answer is one
            # write (see _reply), there is nothing for Nagle to gather.
            disable_nagle_algorithm = True

            def _reply(self, response) -> None:
                status, content_type, payload, headers = response
                try:
                    self.send_response(status)
                    self.send_header("Content-Type", content_type)
                    self.send_header(
                        "Content-Length", str(len(payload))
                    )
                    for name, value in headers.items():
                        # send_header("Connection", "close") also
                        # flips close_connection for us.
                        self.send_header(name, value)
                    # Head and body leave in one write.  end_headers()
                    # would send the buffered head here and the body
                    # after it, and on a keep-alive connection that
                    # second segment waits for the client's delayed
                    # ACK (~40 ms under every small answer).
                    if self.request_version != "HTTP/0.9":
                        self._headers_buffer.append(b"\r\n")
                        payload = b"".join(self._headers_buffer) + payload
                        self._headers_buffer = []
                    self.wfile.write(payload)
                except OSError:
                    # The client is gone (reset, broken pipe, or its
                    # socket timed out) — nothing to tell it; just
                    # release the thread.
                    self.close_connection = True

            def _respond(self, body: bytes = b""):
                split = urlsplit(self.path)
                params = parse_qs(
                    split.query, keep_blank_values=True
                )
                self._reply(app.handle(
                    self.command, split.path, params, body,
                    headers=self.headers,
                ))

            def do_GET(self):
                self._respond()

            def do_POST(self):
                split = urlsplit(self.path)
                if split.path != "/ingest":
                    # Nothing else takes a POST: refused from the
                    # request line, whatever body was announced.
                    return self._reply(app.reject(
                        split.path, 405, "GET required"
                    ))
                raw_length = self.headers.get("Content-Length")
                if raw_length is None:
                    return self._reply(app.reject(
                        split.path, 411, "Content-Length required"
                    ))
                try:
                    length = int(raw_length)
                    if length < 0:
                        raise ValueError(raw_length)
                except ValueError:
                    return self._reply(app.reject(
                        split.path, 400,
                        f"bad Content-Length {raw_length!r}",
                    ))
                if length > app.max_ingest_bytes:
                    # Refuse from the header alone: reading (then
                    # discarding) a 64 MiB+ body is exactly the
                    # resource exhaustion the cap exists to prevent.
                    return self._reply(app.reject(
                        split.path, 413,
                        f"ingest body over {app.max_ingest_bytes} "
                        f"bytes",
                    ))
                try:
                    body = self.rfile.read(length) if length else b""
                except OSError:
                    # Slow-loris mid-body: the socket timeout fired.
                    self.close_connection = True
                    return
                if len(body) < length:
                    # Mid-body disconnect: never hand a torn batch to
                    # the app.
                    return self._reply(app.reject(
                        split.path, 400,
                        f"truncated body ({len(body)} of {length} "
                        f"bytes)",
                    ))
                self._respond(body)

        class Server(ThreadingHTTPServer):
            # Already ThreadingHTTPServer's default, pinned here
            # because the chaos suite relies on it: connection threads
            # must never block process exit.
            daemon_threads = True

            def handle_error(self, request, client_address):
                # Abusive/vanished clients are expected traffic for
                # this server, not stack-trace material.
                import sys
                exc = sys.exc_info()[1]
                if isinstance(exc, (BrokenPipeError,
                                    ConnectionResetError,
                                    TimeoutError)):
                    return
                super().handle_error(request, client_address)

        return Server((host, port), Handler)
