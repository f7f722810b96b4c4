"""``repro-flowstore`` — inspect and maintain on-disk flow stores.

Subcommands:

* ``inspect DIR``        — manifest, per-segment rows/labels/bytes and
  totals (validates headers, sizes and CRCs on open);
* ``stats DIR``          — the same information plus per-segment
  pruning metadata, as machine-readable JSON;
* ``prune-report DIR``   — which segments a query with the given
  predicate (``--t0/--t1``, ``--fqdn``, ``--domain``, ``--server``,
  ``--client``, ``--protocol``) would scan vs skip — metadata
  arithmetic only, nothing is materialized;
* ``verify DIR``         — additionally materialize every segment
  (id-table consistency end to end) and recompute each footer's
  pruning metadata from the columns, failing on a footer
  that lies about its segment; exits non-zero when the store is
  degraded (quarantined segments, unplayable journal records);
* ``compact DIR``        — merge sealed segments (all of them, or only
  adjacent runs of segments below ``--small-rows``); rewrites always
  carry fresh metadata;

Every store-opening command accepts ``--strict`` to hard-fail on a
corrupt segment instead of quarantining it (the library default is
graceful degradation — see :meth:`FlowStore.health`).
* ``ingest-trace NAME DIR`` — build a standard simulation trace, run
  the sniffer pipeline over it and persist the tagged flows into
  ``DIR/NAME``, making the trace usable as a stored dataset source for
  ``repro-exp --flow-store DIR``.

Run as ``python -m repro.analytics.flowstore_cli``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analytics.shard import open_store, store_kind
from repro.analytics.storage import (
    FlowStore,
    QueryHint,
    SegmentMeta,
    StorageError,
    read_manifest,
)


def _open_existing(directory, strict: bool = False):
    """Open a store that must already exist.

    The opener itself creates missing directories (the writer-side
    behaviour); for read/maintenance commands a mistyped path must be
    an error, not a freshly-created empty store reported as healthy.
    ``strict=True`` (the ``--strict`` flag) restores hard-fail opens:
    a corrupt segment raises instead of being quarantined.

    A sharded root opens as a
    :class:`repro.analytics.shard.ShardCoordinator` over its shard
    stores; every flat-store subcommand then reports across all
    shards (``prune-report`` without opening any of them).
    """
    if not Path(directory).is_dir():
        raise StorageError(f"no flow store at {directory}")
    return open_store(directory, strict=strict)


def _print_health(health: dict) -> None:
    """One operator-facing summary line per degradation finding."""
    wal = health["wal"]
    if wal["recovered_rows"]:
        print(
            f"recovered  : {wal['recovered_rows']} rows "
            f"({wal['recovered_batches']} journal records) replayed "
            f"from tail.wal"
        )
    if wal["torn_bytes_dropped"]:
        print(
            f"journal    : dropped {wal['torn_bytes_dropped']} torn "
            f"trailing bytes (unacknowledged write)"
        )
    if wal["skipped_records"]:
        print(
            f"journal    : WARNING {wal['skipped_records']} journal "
            f"records could not be replayed"
        )
    for entry in health["quarantined_segments"]:
        print(
            f"quarantine : {entry['name']} — {entry['reason']}"
        )


def _cmd_inspect(args) -> int:
    store = _open_existing(args.directory, strict=args.strict)
    stats = store.stats()
    print(f"flow store : {stats['directory']}")
    print(f"format     : v{stats['format']}")
    if stats.get("sharded"):
        print(f"sharded    : {stats['shards']} shards "
              f"(routing by client address)")
    print(f"health     : {stats['health']['status']}")
    print(f"rows       : {stats['rows']} "
          f"(sealed {stats['sealed_rows']}, tail {stats['tail_rows']})")
    print(f"fqdns/slds : {stats['fqdns']} / {stats['slds']}")
    print(f"on disk    : {stats['bytes_on_disk']} bytes "
          f"in {len(stats['segments'])} segments")
    print(f"wal epoch  : {stats['wal_epoch']} "
          f"(generation {stats['generation']})")
    if stats["pinned_generations"]:
        pins = ", ".join(
            f"gen {pin['generation']} x{pin['readers']}"
            for pin in stats["pinned_generations"]
        )
        print(f"pinned     : {pins} "
              f"({stats['retired_pending']} retired files held)")
    _print_health(stats["health"])
    if stats["segments"]:
        print("\nsegments:")
        for segment in stats["segments"]:
            where = (
                f"shard-{segment['shard']:02d}/" if "shard" in segment
                else ""
            )
            print(
                f"  {where}{segment['name']}  "
                f"rows={segment['rows']:<10d}"
                f"labels={segment['labels']:<8d}bytes={segment['bytes']}"
            )
    return 0


def _cmd_stats(args) -> int:
    import json

    store = _open_existing(args.directory, strict=args.strict)
    print(json.dumps(store.stats(), indent=2))
    return 0


def _cmd_prune_report(args) -> int:
    store = _open_existing(args.directory, strict=args.strict)
    # A malformed predicate (half-given or inverted window, unknown
    # protocol) raises ValueError, which main() reports as exit 1.
    hint = QueryHint.from_mapping({
        "fqdn": args.fqdn, "sld": args.domain,
        "server": args.server, "client": args.client,
        "t0": args.t0, "t1": args.t1, "protocol": args.protocol,
    }, label="--{}".format)
    report = store.prune_report(hint)
    total_rows = report["scanned_rows"] + report["pruned_rows"]
    if report.get("sharded"):
        # Manifest-only coordinator report: no segment was opened, so
        # there is no live-tail row count (the unsealed rows live in
        # each shard's journal, never replayed for a report).
        for segment in report["segments"]:
            verdict = "scan " if segment["scan"] else "prune"
            print(
                f"  shard-{segment['shard']:02d}/{segment['name']}  "
                f"rows={segment['rows']:<10d}{verdict}"
            )
        print(
            f"would scan {report['scanned_segments']} of "
            f"{report['scanned_segments'] + report['pruned_segments']} "
            f"segments across {report['shards']} shards "
            f"({report['scanned_rows']} of {total_rows} sealed rows; "
            f"decided from manifests alone, live tails always scanned)"
        )
        return 0
    for segment in report["segments"]:
        verdict = "scan " if segment["scan"] else "prune"
        print(
            f"  {segment['name']}  rows={segment['rows']:<10d}{verdict}"
        )
    print(
        f"would scan {report['scanned_segments']} of "
        f"{report['scanned_segments'] + report['pruned_segments']} "
        f"segments ({report['scanned_rows']} of {total_rows} sealed "
        f"rows; {report['tail_rows']} live tail rows always scanned)"
    )
    return 0


def _verify_segment(reader) -> tuple[str, int, str]:
    """Materialize one segment and cross-check its footer metadata.

    Returns ``(name, rows, problem)`` — ``problem`` is empty when the
    segment is healthy, a description otherwise.  The id-table/enum
    validation happens inside ``database()``; the metadata check then
    recomputes the footer from the column blocks, so ranges or
    filters that a buggy rewrite narrowed are caught here rather than
    silently dropping rows from pruned queries.
    """
    rows = len(reader.database())
    reader.release()
    problem = ""
    if SegmentMeta.from_blocks(
        reader.read_blocks(), reader.labels
    ) != reader.meta:
        problem = "footer metadata does not match segment contents"
    return reader.name, rows, problem


def _verify_store(store: FlowStore,
                  prefix: str = "") -> tuple[int, int, int, dict]:
    """Verify one (opened) flat store end to end, then close it.

    Returns ``(n_segments, total_rows, bad, health)``.  On top of the
    per-segment footer recomputation (:func:`_verify_segment`) this
    cross-checks the *promoted* metadata copy each manifest entry
    carries against the segment footer — the copy is what
    manifest-only pruning (sharded ``prune-report``) trusts without
    opening the segment, so a drifted copy must fail verification.
    """
    results = [_verify_segment(reader) for reader in store.segments]
    promoted = {
        name: meta
        for name, _rows, meta in read_manifest(store.directory)["segments"]
    }
    total = 0
    bad = 0
    for (name, rows, problem), reader in zip(results, store.segments):
        if not problem and promoted.get(name) != reader.meta:
            problem = (
                "manifest metadata copy does not match segment footer"
            )
        if problem:
            bad += 1
            print(f"  {prefix}{name}: {rows} rows, ERROR: {problem}")
        else:
            print(f"  {prefix}{name}: {rows} rows ok, metadata ok")
        total += rows
    health = store.health()
    _print_health(health)
    store.close()
    return len(store.segments), total, bad, health


def _flat_stores(store, strict: bool):
    """``(flat store, display prefix)`` for each store to verify: the
    store itself, or — under a sharded root — every shard store in
    turn (each a complete FlowStore with its own manifest and
    journal), opened one at a time.  The coordinator is lazy, so
    nothing of it was started and nothing needs closing."""
    if not store.sharded:
        yield store, ""
        return
    for index in range(store.shards):
        directory = store.shard_directory(index)
        prefix = f"shard-{index:02d}/"
        if directory.is_dir():
            yield FlowStore(directory, strict=strict), prefix
        else:
            # A shard no ingest has reached yet: an empty store, fine.
            print(f"  {prefix}(empty shard, nothing sealed)")


def _cmd_verify(args) -> int:
    store = _open_existing(args.directory, strict=args.strict)
    n_segments = total = bad = 0
    quarantined = skipped = 0
    degraded = False
    for flat, prefix in _flat_stores(store, args.strict):
        segments, rows, store_bad, health = _verify_store(flat, prefix)
        n_segments += segments
        total += rows
        bad += store_bad
        degraded = degraded or health["status"] != "ok"
        quarantined += len(health["quarantined_segments"])
        skipped += health["wal"]["skipped_records"]
    if bad:
        print(
            f"error: {bad} of {n_segments} segments failed "
            f"metadata verification",
            file=sys.stderr,
        )
        return 1
    if degraded:
        # The surviving segments verified clean, but sealed data is
        # missing (quarantined segment / unplayable journal record) —
        # a verification pass must not report such a store healthy.
        print(
            f"error: store is degraded "
            f"({quarantined} quarantined "
            f"segments, {skipped} skipped "
            f"journal records)",
            file=sys.stderr,
        )
        return 1
    print(f"verified {n_segments} segments, {total} rows")
    return 0


def _cmd_compact(args) -> int:
    store = _open_existing(args.directory, strict=args.strict)
    before = store.counters()["segments"]
    removed = store.compact(small_rows=args.small_rows)
    after = store.counters()["segments"]
    store.close()
    across = f" across {store.shards} shards" if store.sharded else ""
    print(
        f"compacted {before} segments -> {after}{across} "
        f"({removed} files merged away)"
    )
    return 0


def _cmd_ingest_trace(args) -> int:
    import json
    import shutil

    from repro.experiments.datasets import DEFAULT_CLIST, DEFAULT_SEED, get_trace
    from repro.sniffer.pipeline import SnifferPipeline

    seed = DEFAULT_SEED if args.seed is None else args.seed
    # Everything that can refuse the run is checked before --force
    # deletes the existing dataset.
    if args.spill_rows <= 0:
        raise ValueError("--spill-rows must be positive")
    if args.shards is not None and args.shards <= 0:
        raise ValueError("--shards must be positive")
    directory = Path(args.directory) / args.trace
    existing = store_kind(directory) is not None
    if existing and not args.force:
        # Appending to an existing store would silently double every
        # flow count the experiments read.
        print(
            f"error: {directory} already holds a stored dataset; "
            f"re-run with --force to replace it",
            file=sys.stderr,
        )
        return 1
    trace = get_trace(args.trace, seed)
    if existing:
        shutil.rmtree(directory)
    store = open_store(
        directory, shards=args.shards, spill_rows=args.spill_rows
    )
    # Sidecar first, marked in-progress: a crash mid-ingest leaves a
    # store with committed segments but only part of the trace, and
    # repro-exp must refuse it rather than compute figures from a
    # fraction of the data.  The marker clears on success below.
    sidecar = directory / "DATASET.json"
    sidecar.write_text(
        json.dumps({"trace": args.trace, "seed": seed, "building": True})
        + "\n",
        encoding="utf-8",
    )
    pipeline = SnifferPipeline(
        clist_size=DEFAULT_CLIST, flow_store=store,
        # Everything streams to disk; keeping the tagged-flow list too
        # would grow the parent unboundedly on multi-day traces.
        retain_flows=False,
    )
    pipeline.process_trace(trace)
    pipeline.close()
    # Sidecar the provenance so repro-exp --flow-store can refuse a
    # store built from a different seed (and clear the building mark).
    sidecar.write_text(
        json.dumps({"trace": args.trace, "seed": seed}) + "\n",
        encoding="utf-8",
    )
    stats = store.stats()
    print(
        f"stored {stats['rows']} tagged flows of {args.trace} "
        f"(seed {seed}) in {len(stats['segments'])} segments at "
        f"{stats['directory']}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-flowstore",
        description="Inspect and maintain on-disk columnar flow stores.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _store_command(name: str, **kwargs):
        command = sub.add_parser(name, **kwargs)
        command.add_argument("directory", help="flow store directory")
        command.add_argument(
            "--strict", action="store_true",
            help="fail the open on a corrupt segment instead of "
                 "quarantining it",
        )
        return command

    inspect = _store_command(
        "inspect", help="summarize a store directory"
    )
    inspect.set_defaults(func=_cmd_inspect)

    stats = _store_command(
        "stats",
        help="store summary with per-segment pruning metadata, as JSON",
    )
    stats.set_defaults(func=_cmd_stats)

    prune_report = _store_command(
        "prune-report",
        help="which segments a query with this predicate would scan",
    )
    prune_report.add_argument(
        "--t0", type=float, default=None,
        help="window start (flow start time, seconds)",
    )
    prune_report.add_argument(
        "--t1", type=float, default=None,
        help="window end (exclusive)",
    )
    prune_report.add_argument(
        "--fqdn", default=None, help="exact label to probe"
    )
    prune_report.add_argument(
        "--domain", default=None, help="second-level domain to probe"
    )
    prune_report.add_argument(
        "--server", action="append", default=None,
        help="server address (dotted quad or u32) to probe; repeatable",
    )
    prune_report.add_argument(
        "--client", action="append", default=None,
        help="client address (dotted quad or u32) to probe; repeatable",
    )
    prune_report.add_argument(
        "--protocol", default=None,
        help="layer-7 protocol name to probe (e.g. TLS, HTTP, P2P)",
    )
    prune_report.set_defaults(func=_cmd_prune_report)

    verify = _store_command(
        "verify",
        help="materialize every segment (full validation, including "
             "recomputed pruning metadata); non-zero exit when the "
             "store is degraded",
    )
    verify.set_defaults(func=_cmd_verify)

    compact = _store_command(
        "compact", help="merge sealed segments"
    )
    compact.add_argument(
        "--small-rows", type=int, default=None, metavar="N",
        help="only merge adjacent runs of segments smaller than N rows "
             "(default: merge everything into one segment)",
    )
    compact.set_defaults(func=_cmd_compact)

    ingest = sub.add_parser(
        "ingest-trace",
        help="sniff a standard simulation trace into DIR/NAME",
    )
    ingest.add_argument("trace", help="trace name (e.g. EU1-FTTH)")
    ingest.add_argument("directory", help="stored-dataset root directory")
    ingest.add_argument(
        "--seed", type=int, default=None, help="dataset seed override"
    )
    ingest.add_argument(
        "--spill-rows", type=int, default=65536,
        help="rows per spilled segment (default 65536)",
    )
    ingest.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="persist as an N-shard store (client-address routing) "
             "instead of one flat FlowStore",
    )
    ingest.add_argument(
        "--force", action="store_true",
        help="replace an existing stored dataset instead of refusing",
    )
    ingest.set_defaults(func=_cmd_ingest_trace)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (StorageError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
