"""One batch pass in a fresh process.

``python -m benchmarks.e2e.child pcap_capture PCAP STORE PROBE`` and
``python -m benchmarks.e2e.child trace_to_tables EVENTS STORE PROBE PLAN``
run the program over generated files only, time just the regions the
workload names, and print one JSON object: the regions by name, each a
list of :mod:`benchmarks.e2e.pace` reports, the peak RSS of this
process, and the digests the parent checks against its oracle.
"""

from __future__ import annotations

import json
import resource
import sys

from benchmarks.e2e import pace
from benchmarks.e2e.oracle import (
    CLIST_SIZE,
    answer_digest,
    run_sweep,
    sweep_digest,
)
from benchmarks.e2e.workloads import read_batch_file

#: pcap_capture: fresh opens + query sets in the timed region (8 ms each).
OPENS = 8
#: trace_to_tables: cold opens + sweeps timed per pass (0.2 s each).
SWEEPS = 3


def _load(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _store_outcome(directory, probe: dict) -> dict:
    """Row counts, bytes and the answer digest of what the pass left on
    disk, read back through a fresh open."""
    from repro.analytics.storage import FlowStore

    store = FlowStore(directory)
    try:
        stats = store.stats()
        return {
            "rows": stats["rows"],
            "tagged": store.tagged_count,
            "segments": len(stats["segments"]),
            "bytes_on_disk": stats["bytes_on_disk"],
            "digest": answer_digest(store, probe),
        }
    finally:
        store.close()


def _first_answers(directory, probe: dict) -> dict:
    """``OPENS`` times a fresh ``FlowStore(DIR)`` plus the fixed query
    set, as one region: what someone who asks the store right after the
    pass waits for, ``OPENS`` times over.  The outcome's own open came
    first, so no import is left to pay for in here."""
    from repro.analytics.storage import FlowStore

    with pace.Pace() as region:
        for _ in range(OPENS):
            store = FlowStore(directory)
            answer_digest(store, probe)
            store.close()
    return region.report()


def pcap_capture(pcap, store_dir, probe_path) -> dict:
    """The ``repro-sniff --flow-store`` path, timed through the sealed
    tail."""
    from repro.sniffer.cli import sniff_pcap

    with pace.Pace() as capture:
        pipeline = sniff_pcap(pcap, clist_size=CLIST_SIZE, warmup=0.0,
                              flow_store=store_dir)
        pipeline.close()
    out = {"peak_rss_mb": _peak_rss_mb()}
    pipeline.flow_store.close()
    probe = _load(probe_path)
    out.update(_store_outcome(store_dir, probe))
    out["regions"] = {"capture": [capture.report()],
                      "first_answers": [_first_answers(store_dir, probe)]}
    return out


def trace_to_tables(events_path, store_dir, probe_path, plan_path) -> dict:
    """Phase A: event batches -> resolver + tagger -> durable store.
    Phase B: cold reopen plus the experiment sweep, ``SWEEPS`` times."""
    from repro.analytics.storage import FlowStore
    from repro.sniffer.eventcodec import decode_events
    from repro.sniffer.pipeline import SnifferPipeline

    plan = _load(plan_path)
    with pace.Pace() as phase_a:
        batches = read_batch_file(events_path)
        pipeline = SnifferPipeline(
            clist_size=CLIST_SIZE, warmup=0.0,
            flow_store=FlowStore(store_dir, spill_rows=plan["spill_rows"]),
            retain_flows=False,
        )
        pipeline.process_events(
            event for payload in batches for event in decode_events(payload)
        )
        pipeline.close()
    pipeline.flow_store.close()
    del pipeline, batches

    phase_b = []
    for _ in range(SWEEPS):
        with pace.Pace() as region:
            store = FlowStore(store_dir)
            answers = run_sweep(store, plan)
        phase_b.append(region.report())
        store.close()
    out = {
        "regions": {"phase_a": [phase_a.report()], "phase_b": phase_b},
        "peak_rss_mb": _peak_rss_mb(),
        "sweep_digest": sweep_digest(answers),
    }
    out.update(_store_outcome(store_dir, _load(probe_path)))
    return out


def main(argv) -> int:
    passes = {"pcap_capture": pcap_capture,
              "trace_to_tables": trace_to_tables}
    if len(argv) < 2 or argv[0] not in passes:
        print("usage: python -m benchmarks.e2e.child "
              "{pcap_capture|trace_to_tables} INPUT...", file=sys.stderr)
        return 2
    print(json.dumps(passes[argv[0]](*argv[1:]), sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
