"""``repro-serve`` — run the always-on query service from the shell.

Wraps one durable store (flat or sharded, whatever
:func:`~repro.analytics.shard.open_store` finds at ``DIR``; WAL on by
default) and the HTTP query API of :mod:`repro.serve.server` in a
single process.  Three ingest arrangements:

* ``repro-serve DIR`` — serve an existing store; new rows arrive only
  via ``POST /ingest`` (eventcodec batches);
* ``repro-serve DIR --pcap FILE`` — additionally run the sniffer
  pipeline over a capture on the main thread, draining tagged batches
  into the same store while queries are answered live;
* optional background compaction (``--compact-small`` +
  ``--compact-interval``) — the maintenance loop the runbook
  describes, safe under readers thanks to snapshot pinning.

SIGTERM/SIGINT drain through the PR6 shutdown path: the pipeline's
tagged flows are streamed into the store, the tail is sealed and the
journal reset, the listener stops, and only then is the signal
re-delivered so the exit status is honest.  See ``docs/runbook.md``.
"""

from __future__ import annotations

import argparse
import sys
import threading

from repro.analytics.shard import open_store
from repro.net.pcap import PcapFormatError
from repro.serve.admission import AdmissionController, RouteClassLimits
from repro.serve.governor import DegradationGovernor
from repro.serve.server import ServeApp
from repro.sniffer.fanout import install_shutdown_signals


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve the analytics query surface of a durable "
                    "flow store over HTTP while ingesting live.",
    )
    parser.add_argument(
        "store", metavar="DIR",
        help="flow-store directory (created if missing)",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8800,
                        help="TCP port (default 8800; 0 = ephemeral)")
    parser.add_argument(
        "--pcap", metavar="FILE",
        help="also ingest this capture through the sniffer pipeline "
             "while serving",
    )
    parser.add_argument("--clist", type=int, default=200_000,
                        help="resolver circular-list size (with --pcap)")
    parser.add_argument("--warmup", type=float, default=300.0,
                        help="statistics warm-up seconds (with --pcap)")
    parser.add_argument("--batch-events", type=int, default=8192,
                        help="events per drained batch (with --pcap)")
    parser.add_argument("--spill-rows", type=int, default=None,
                        help="tail row budget before sealing a segment")
    parser.add_argument("--spill-bytes", type=int, default=None,
                        help="tail byte budget before sealing a segment")
    parser.add_argument("--no-wal", action="store_true",
                        help="disable the ingest journal (crash loses "
                             "the unsealed tail)")
    parser.add_argument("--strict", action="store_true",
                        help="fail instead of quarantining bad segments")
    parser.add_argument(
        "--compact-small", type=int, metavar="ROWS", default=None,
        help="background-compact adjacent runs of segments smaller "
             "than ROWS (needs --compact-interval)",
    )
    parser.add_argument(
        "--compact-interval", type=float, metavar="SECONDS",
        default=None,
        help="seconds between background compaction passes",
    )
    overload = parser.add_argument_group(
        "overload protection (docs/runbook.md: Overload & degraded "
        "mode)"
    )
    overload.add_argument("--query-inflight", type=int, default=8,
                          help="concurrent query-class requests before "
                               "queueing (default 8)")
    overload.add_argument("--query-queue", type=int, default=16,
                          help="queued query-class requests before "
                               "shedding with 503 (default 16)")
    overload.add_argument("--ingest-inflight", type=int, default=2,
                          help="concurrent /ingest requests before "
                               "queueing (default 2)")
    overload.add_argument("--ingest-queue", type=int, default=8,
                          help="queued /ingest requests before "
                               "shedding with 503 (default 8)")
    overload.add_argument("--queue-wait", type=float, default=0.5,
                          metavar="SECONDS",
                          help="max seconds a request waits in the "
                               "admission queue (default 0.5)")
    overload.add_argument("--default-deadline", type=float,
                          default=30.0, metavar="SECONDS",
                          help="query deadline when the client sends "
                               "no X-Request-Deadline (default 30; "
                               "0 disables)")
    overload.add_argument("--socket-timeout", type=float, default=10.0,
                          metavar="SECONDS",
                          help="per-connection socket timeout "
                               "(default 10)")
    overload.add_argument("--degraded-backoff", type=float,
                          default=1.0, metavar="SECONDS",
                          help="initial probe backoff after the store "
                               "goes read-only (default 1; doubles "
                               "per failed probe)")
    overload.add_argument("--degraded-backoff-max", type=float,
                          default=60.0, metavar="SECONDS",
                          help="probe backoff ceiling (default 60)")
    overload.add_argument("--degraded-threshold", type=int, default=3,
                          help="consecutive non-capacity ingest "
                               "failures before read-only "
                               "(default 3; ENOSPC/EDQUOT trip "
                               "immediately)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if (args.compact_interval is None) != (args.compact_small is None):
        _build_parser().error(
            "--compact-small and --compact-interval go together"
        )
    # Checked before the store opens: a refused run creates nothing.
    for flag, value in (("--clist", args.clist),
                        ("--batch-events", args.batch_events)):
        if value <= 0:
            print(f"error: {flag} must be positive", file=sys.stderr)
            return 1

    try:
        store = open_store(
            args.store,
            spill_rows=args.spill_rows,
            spill_bytes=args.spill_bytes,
            wal=not args.no_wal,
            strict=args.strict,
        )
    except (ValueError, OSError) as exc:
        # ValueError covers a bad sizing knob and a store the opener
        # refuses (StorageError: corrupt or version-1 manifest).
        print(f"error: {exc}", file=sys.stderr)
        return 1
    app = ServeApp(
        store,
        admission=AdmissionController({
            "query": RouteClassLimits(
                args.query_inflight, args.query_queue,
                args.queue_wait,
            ),
            "ingest": RouteClassLimits(
                args.ingest_inflight, args.ingest_queue,
                args.queue_wait,
            ),
        }),
        governor=DegradationGovernor(
            failure_threshold=args.degraded_threshold,
            backoff_s=args.degraded_backoff,
            backoff_max_s=args.degraded_backoff_max,
        ),
        default_deadline_s=(
            args.default_deadline if args.default_deadline > 0
            else None
        ),
        socket_timeout_s=args.socket_timeout,
    )
    httpd = app.make_server(args.host, args.port)
    host, port = httpd.server_address[:2]
    listener = threading.Thread(
        target=httpd.serve_forever, name="repro-serve-http", daemon=True
    )
    listener.start()
    print(f"repro-serve: listening on http://{host}:{port} "
          f"(store {args.store}, {len(store)} rows)", flush=True)

    pipeline = None
    stop_maintenance = threading.Event()
    maintenance = None
    if args.compact_interval is not None:
        def _maintain():
            while not stop_maintenance.wait(args.compact_interval):
                removed = store.compact(args.compact_small)
                if removed:
                    print(f"repro-serve: compacted {removed} segments",
                          flush=True)
        maintenance = threading.Thread(
            target=_maintain, name="repro-serve-compact", daemon=True
        )
        maintenance.start()

    closed = threading.Event()

    def shutdown() -> None:
        if closed.is_set():
            return
        closed.set()
        stop_maintenance.set()
        httpd.shutdown()
        httpd.server_close()
        if pipeline is not None:
            pipeline.close()      # drain tagged flows + seal the tail
        store.close()

    install_shutdown_signals(shutdown)

    def _bind_pipeline(built) -> None:
        # Bound before the first packet, so a SIGTERM mid-capture
        # still drains through pipeline.close() (the PR6 path).
        nonlocal pipeline
        pipeline = built

    try:
        if args.pcap:
            from repro.sniffer.cli import sniff_pcap

            try:
                sniff_pcap(
                    args.pcap,
                    clist_size=args.clist,
                    warmup=args.warmup,
                    batch_events=args.batch_events,
                    flow_store=store,
                    store_drain_hook=app.note_ingest,
                    on_pipeline=_bind_pipeline,
                )
            except (OSError, PcapFormatError) as exc:
                # A missing or garbled capture fails before any ingest,
                # a truncated one after its last whole record; either
                # way shutdown() drains and seals what was ingested.
                print(f"error: {exc}", file=sys.stderr)
                shutdown()
                return 1
            print(f"repro-serve: capture ingested, {len(store)} rows "
                  f"total; still serving (Ctrl-C to stop)", flush=True)
        # Serve until a signal arrives (the handler re-delivers it
        # after a clean drain, terminating the wait).  Polled rather
        # than awaited forever: the kernel may hand the signal to a
        # busy listener thread, and the Python-level handler then only
        # runs once the main thread wakes to check for it.
        while not closed.wait(0.5):
            pass
    except KeyboardInterrupt:  # pragma: no cover - interactive
        shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
