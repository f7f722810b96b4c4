"""``repro-sniff`` — run DN-Hunter over a pcap file from the shell.

Reads a classic pcap capture, runs the packet-path sniffer (DNS response
sniffer + flow sniffer + tagger), and prints per-protocol hit ratios
plus a sample of labels.  With ``--flow-store`` the labeled flows are
persisted to the durable store the off-line analyzer reads.

:func:`sniff_pcap` is the whole capture path in one call: the reader's
raw ``(timestamp, data)`` frames go straight into
``SnifferPipeline.process_frames`` — no ``PcapRecord``, header object
or ``Packet`` is built per frame.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from repro.net.pcap import LINKTYPE_ETHERNET, PcapFormatError, PcapReader
from repro.sniffer.pipeline import SnifferPipeline


def sniff_pcap(
    path: str,
    clist_size: int = 200_000,
    warmup: float = 300.0,
    batch_events: int = 8192,
    flow_store=None,
    handle_signals: bool = False,
    store_drain_hook=None,
    on_pipeline=None,
) -> SnifferPipeline:
    """Run the packet path over the capture at ``path``.

    ``handle_signals=True`` installs SIGTERM/SIGINT handlers that close
    the pipeline — drain the tagged flows, seal the flow store's tail
    and journal — before the signal terminates the process, so killing a
    durable capture mid-run loses nothing that was acknowledged.
    ``store_drain_hook`` is installed on the pipeline before any
    packet is processed (see ``SnifferPipeline.store_drain_hook``);
    ``on_pipeline`` is called with the constructed pipeline before
    processing starts, so a caller's own shutdown handler can reach it
    even when this call is interrupted mid-capture.

    A capture cut mid-record (the writer was killed) is processed up to
    its last whole record exactly like the same file trimmed there —
    tagged, drained into the flow store, sealed — and only then is the
    :class:`PcapFormatError` raised, with the pipeline closed.
    """
    with open(path, "rb") as handle:
        # Read the global header before any side effect: constructing
        # the pipeline with flow_store creates the store directory, and
        # a typo'd path or a file that is no pcap must not leave a
        # plausible empty store behind.
        reader = PcapReader(handle)
        pipeline = SnifferPipeline(
            clist_size=clist_size, warmup=warmup,
            batch_events=batch_events, flow_store=flow_store,
        )
        pipeline.store_drain_hook = store_drain_hook
        if on_pipeline is not None:
            on_pipeline(pipeline)
        if handle_signals:
            pipeline.install_signal_handlers()
        cut = None

        def frames():
            nonlocal cut
            try:
                yield from reader.frames()
            except PcapFormatError as exc:
                # End the stream here, so the capture loop flushes the
                # flow sniffer and drains as for a complete capture.
                cut = exc

        pipeline.process_frames(
            frames(), with_ethernet=reader.linktype == LINKTYPE_ETHERNET
        )
    if cut is not None:
        print("warning: capture truncated after "
              f"{pipeline.frame_stats['frames']} frames", file=sys.stderr)
        pipeline.close()
        raise cut
    return pipeline


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-sniff",
        description="Tag the flows of a pcap capture with DNS-derived labels.",
    )
    parser.add_argument("pcap", help="path to a classic pcap file")
    parser.add_argument(
        "--clist", type=int, default=200_000,
        help="resolver circular-list size L (default 200000)",
    )
    parser.add_argument(
        "--warmup", type=float, default=300.0,
        help="statistics warm-up seconds (default 300)",
    )
    parser.add_argument(
        "--batch-events", type=int, default=8192,
        help="tagged flows per flow-store batch (default 8192)",
    )
    parser.add_argument(
        "--top", type=int, default=10,
        help="show the N most common labels (default 10)",
    )
    parser.add_argument(
        "--flow-store", metavar="DIR",
        help="stream tagged flows into the durable columnar flow store "
             "at DIR (created if missing; spills mid-run, the live "
             "tail is sealed on exit — inspect with repro-flowstore)",
    )
    args = parser.parse_args(argv)
    if args.top < 0:
        parser.error(f"argument --top: must be >= 0, not {args.top}")

    try:
        pipeline = sniff_pcap(
            args.pcap, clist_size=args.clist, warmup=args.warmup,
            batch_events=args.batch_events,
            flow_store=args.flow_store,
            # A killed durable capture must seal what it acknowledged.
            handle_signals=args.flow_store is not None,
        )
    except (OSError, PcapFormatError, ValueError, ImportError) as exc:
        # ValueError covers bad sizing knobs (--clist 0,
        # --batch-events 0) and a corrupt --flow-store directory
        # (StorageError); ImportError a --flow-store without numpy,
        # which the store needs and the capture does not.
        print(f"error: {exc}", file=sys.stderr)
        return 1

    flows = pipeline.tagged_flows
    tagged = [f for f in flows if f.fqdn]
    print(f"flows reconstructed : {len(flows)}")
    print(f"flows labeled       : {len(tagged)} "
          f"({len(tagged) / len(flows):.0%})"
          if flows else "flows labeled : 0")
    print(f"dns responses seen  : {pipeline.dns_sniffer.stats['decoded']}")
    print(f"resolver clients    : {pipeline.resolver.client_count}")
    top = Counter(f.fqdn for f in tagged).most_common(args.top)
    if top:
        print(f"\ntop {args.top} labels:")
        for fqdn, count in top:
            print(f"  {count:6d}  {fqdn}")

    pipeline.close()
    if pipeline.flow_store is not None:
        stats = pipeline.flow_store.stats()
        print(
            f"\nflow store {stats['directory']}: {stats['rows']} rows in "
            f"{len(stats['segments'])} segments "
            f"({stats['bytes_on_disk']} bytes on disk)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
