"""The metric catalogue and the arithmetic every report shares.

Three vocabularies, kept apart on purpose:

* ``NAMED``: the end-to-end metrics ISSUE 11 names (plus
  ``first_answer_ms``), each produced by the workloads it applies to
  and printed by name with its unit;
* ``END_TO_END``: what ``BENCHMARK.json`` gates.  The contract wants
  every gated metric from every workload and never 0, so the gate is
  the three metrics every workload has plus the work each workload
  completes per second (``work_per_s``) and the wait its user sees
  (``wait_ms``).  ``GATE_SLOTS`` says which named metric that is on
  each workload; neither is ever worked out from the other;
* ``PER_LAYER``: the traced run's per-layer metrics.  A traced run
  prints all of them; one the workload does not exercise reads 0.
"""

from __future__ import annotations

import math
import statistics

#: name -> (unit, better)
NAMED = {
    "setup_s": ("s", "lower"),
    "capture_pkts_per_s": ("1/s", "higher"),
    "first_answer_ms": ("ms", "lower"),
    "ingest_events_per_s": ("1/s", "higher"),
    "sweep_s": ("s", "lower"),
    "query_p50_ms": ("ms", "lower"),
    "query_p99_ms": ("ms", "lower"),
    "queries_per_s": ("1/s", "higher"),
    "ingest_ack_p50_ms": ("ms", "lower"),
    "ingest_ack_p95_ms": ("ms", "lower"),
    "tag_hit_ratio": ("ratio", "higher"),
    "bytes_on_disk_per_flow": ("bytes", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "error_ratio": ("ratio", "lower"),
}

#: name -> (unit, better, bound).  Bounds: see README "Measured spread".
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "work_per_s": ("1/s", "higher", 0.25),
    "wait_ms": ("ms", "lower", 0.25),
    "bytes_on_disk_per_flow": ("bytes", "lower", 0.05),
    "peak_rss_mb": ("MB", "lower", 0.15),
}

#: workload -> the named metrics behind (work_per_s, wait_ms)
GATE_SLOTS = {
    "pcap_capture": ("capture_pkts_per_s", "first_answer_ms"),
    "trace_to_tables": ("ingest_events_per_s", "sweep_s"),
    "serve_read": ("queries_per_s", "query_p50_ms"),
    "serve_mixed": ("queries_per_s", "query_p50_ms"),
}

#: name -> (unit, better).  Counts with no better direction say "lower".
PER_LAYER = {
    "net.pcap.read_s": ("s", "lower"),
    "net.pcap.records": ("count", "lower"),
    "net.packet.decode_s": ("s", "lower"),
    "net.packet.decode_errors": ("count", "lower"),
    "dns.wire.decode_s": ("s", "lower"),
    "dns.wire.fastpath_ratio": ("ratio", "higher"),
    "sniffer.dns_sniffer.feed_s": ("s", "lower"),
    "sniffer.flow_sniffer.feed_s": ("s", "lower"),
    "sniffer.flow_sniffer.flows": ("count", "lower"),
    "sniffer.resolver.insert_s": ("s", "lower"),
    "sniffer.resolver.lookup_s": ("s", "lower"),
    "sniffer.resolver.hit_ratio": ("ratio", "higher"),
    "sniffer.resolver.replacements": ("count", "lower"),
    "sniffer.tagger.tag_s": ("s", "lower"),
    "sniffer.pipeline.packets_s": ("s", "lower"),
    "sniffer.pipeline.events_s": ("s", "lower"),
    "sniffer.pipeline.drain_s": ("s", "lower"),
    "sniffer.eventcodec.decode_s": ("s", "lower"),
    "sniffer.eventcodec.encode_s": ("s", "lower"),
    "sniffer.eventcodec.bytes_per_flow": ("bytes", "lower"),
    "sniffer.fanout.events_per_s": ("1/s", "higher"),
    "sniffer.fanout.ratio_vs_inline": ("ratio", "higher"),
    "sniffer.fanout.worker_skew": ("ratio", "lower"),
    "analytics.database.ingest_s": ("s", "lower"),
    "analytics.storage.ingest_s": ("s", "lower"),
    "analytics.storage.fsync_s": ("s", "lower"),
    "analytics.storage.fsync_count": ("count", "lower"),
    "analytics.storage.fsyncs_per_ack": ("ratio", "lower"),
    "analytics.storage.seal_s": ("s", "lower"),
    "analytics.storage.seals": ("count", "lower"),
    "analytics.storage.compact_s": ("s", "lower"),
    "analytics.storage.compact_bytes_rewritten": ("bytes", "lower"),
    "analytics.storage.write_amplification": ("ratio", "lower"),
    "analytics.storage.open_s": ("s", "lower"),
    "analytics.storage.read_bytes": ("bytes", "lower"),
    "analytics.storage.segment_reads": ("count", "lower"),
    "analytics.storage.segments_scanned": ("count", "lower"),
    "analytics.storage.segments_pruned": ("count", "higher"),
    "analytics.storage.point_ms": ("ms", "lower"),
    "analytics.storage.window_ms": ("ms", "lower"),
    "analytics.storage.agg_ms": ("ms", "lower"),
    "analytics.storage.parallel2_ratio_vs_serial": ("ratio", "higher"),
    "analytics.shard.sweep_ratio_vs_flat.inprocess": ("ratio", "higher"),
    "analytics.shard.sweep_ratio_vs_flat.process": ("ratio", "higher"),
    "analytics.temporal.fig4_s": ("s", "lower"),
    "analytics.temporal.fig5_s": ("s", "lower"),
    "analytics.spatial.alg2_s": ("s", "lower"),
    "analytics.content.tab5_s": ("s", "lower"),
    "analytics.trackers.tab8_s": ("s", "lower"),
    "analytics.trackers.fig11_s": ("s", "lower"),
    "analytics.tangle.fig3_s": ("s", "lower"),
    "serve.server.handle_point_ms": ("ms", "lower"),
    "serve.server.handle_window_ms": ("ms", "lower"),
    "serve.server.handle_agg_ms": ("ms", "lower"),
    "serve.server.handle_meta_ms": ("ms", "lower"),
    "serve.server.ingest_handle_ms": ("ms", "lower"),
    "serve.server.encode_share": ("ratio", "lower"),
    "serve.transport.point_ms": ("ms", "lower"),
    "serve.transport.window_ms": ("ms", "lower"),
    "serve.transport.agg_ms": ("ms", "lower"),
    "serve.transport.resp_bytes_p50": ("bytes", "lower"),
    "serve.http.point_p50_ms": ("ms", "lower"),
    "serve.http.window_p50_ms": ("ms", "lower"),
    "serve.http.agg_p50_ms": ("ms", "lower"),
    "serve.http.meta_p50_ms": ("ms", "lower"),
    # The tail percentiles and the ingest acks do not repeat well
    # enough to be contract gates (README, "Amendments"); they live here.
    "serve.http.query_p50_ms": ("ms", "lower"),
    "serve.http.query_p99_ms": ("ms", "lower"),
    "serve.http.ingest_ack_p50_ms": ("ms", "lower"),
    "serve.http.ingest_ack_p95_ms": ("ms", "lower"),
    "serve.admission.shed_total": ("count", "lower"),
    "serve.singleflight.coalesced_total": ("count", "lower"),
    "serve.deadline.exceeded_total": ("count", "lower"),
    "loadgen.late_p99_ms": ("ms", "lower"),
    "loadgen.cpu_share": ("ratio", "lower"),
    "bench.stage_sum_ratio": ("ratio", "lower"),
    "bench.trace_overhead_ratio": ("ratio", "lower"),
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of an unsorted list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100.0)) - 1]


def median_of(values) -> dict:
    """A sample's report: median, quartiles and sample count."""
    values = list(values)
    entry = {"value": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _mid, q3 = statistics.quantiles(values, n=4)
        entry.update(q1=q1, q3=q3)
    return entry


def fastest_slice(regions) -> float:
    """The fastest kernel slice any of a run's paced regions has seen."""
    return min(region["fastest_slice_s"] for region in regions)


def quiet_of(regions, fastest: float, convert=float) -> dict:
    """A paced region's report (:mod:`benchmarks.e2e.pace`) over its
    repetitions: the value is the median quiet time, ``units`` times the
    run's fastest kernel slice, through ``convert`` (seconds to a rate,
    to ms); the median plain wall-clock reading stands beside it."""
    entry = median_of(convert(region["units"] * fastest)
                      for region in regions)
    entry["wall"] = statistics.median(convert(region["wall_s"])
                                      for region in regions)
    return entry


def spread(values) -> float:
    """Inter-quartile distance as a share of the median: the
    contract's steadiness measure."""
    q1, _mid, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


def contract_metrics(workload: str, named: dict) -> dict:
    """The BENCHMARK.json end-to-end metrics of one finished run."""
    rate, wait = GATE_SLOTS[workload]
    to_ms = 1000.0 if NAMED[wait][0] == "s" else 1.0
    values = {name: named[name]["value"] for name in END_TO_END
              if name in named}
    values["work_per_s"] = named[rate]["value"]
    values["wait_ms"] = named[wait]["value"] * to_ms
    return {
        name: {"value": values[name], "unit": END_TO_END[name][0]}
        for name in END_TO_END
    }


def layer_metrics(measured: dict) -> dict:
    """Every per-layer metric, 0 where this workload measured none."""
    unknown = set(measured) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"uncatalogued per-layer metrics: {sorted(unknown)}")
    return {
        name: {"value": measured.get(name, 0), "unit": unit}
        for name, (unit, _better) in PER_LAYER.items()
    }


def format_table(rows) -> str:
    """``name  value unit  [q1 .. q3, n]`` lines."""
    lines = []
    for name, entry in rows:
        value = entry["value"]
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        line = f"  {name:<46} {text:>14} {entry['unit']}"
        if "wall" in entry:
            line += f"   wall clock {entry['wall']:.6g}"
        if "q1" in entry:
            line += f"   [q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}]"
        if "n" in entry:
            line += f"  n={entry['n']}"
        lines.append(line)
    return "\n".join(lines)
