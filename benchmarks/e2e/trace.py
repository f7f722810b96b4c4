"""The traced run: each workload replayed once, layer by layer.

Everything is measured from outside, by timing calls into the layers'
public functions; nothing in ``src/repro`` carries a span yet.  A
workload's composite call (what the untraced run times) runs first;
then the same inputs go through one stage at a time, the output of one
stage recorded and fed to the next, each call wrapped in a span
``{id, name, parent, request, start, end, kind, replays}``:

* ``composite``: the real call, the denominator of the ratios;
* ``stage``: one layer's share of the composite.  A stage that cannot
  help re-running a lower layer names it in ``replays``; its self time
  is its span minus what those lower stages took, so self times add up
  to the composite (``bench.stage_sum_ratio``);
* ``leg``: a side measurement (modular twins of inlined code, the
  in-memory database, the scale-out topologies); never in the sum.

Counts come from the same boundaries: a delegating counter-and-timer
swapped in for ``repro.analytics.storage._io`` (the seam
``tests/faultfs.py`` uses; every operation still performed, fsyncs
real), ``stats()``, ``ResolverStats``, ``DnsResponseSniffer.stats``
and ``/metrics``.
"""

from __future__ import annotations

import gc
import random
import shutil
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from benchmarks.e2e import loadgen, oracle, runner, workloads
from benchmarks.e2e.metrics import percentile

KERNELS = ("analytics.temporal.fig4", "analytics.temporal.fig5",
           "analytics.spatial.alg2", "analytics.content.tab5",
           "analytics.trackers.tab8", "analytics.trackers.fig11",
           "analytics.tangle.fig3")


def traced_request_count(seconds: float) -> int:
    """Requests replayed one by one in the serve legs: about as many
    as one connection gets through in ``seconds`` at today's latency."""
    return max(20, min(600, int(seconds * 22)))


class Tracer:
    """Spans in memory, written out when the run ends.

    The traced process also holds the generated inputs and the oracle,
    hundreds of thousands of live objects a fresh child never has, and
    every full collection would walk them (at the full scale phase A
    took 14 s in here against 6 s in the child).  Each top-level span
    therefore starts by freezing what is alive, so the collector sees
    the heap the program itself makes; :meth:`write` thaws it.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, kind: str = "stage", request=None,
             replays=()):
        parent = self._open[-1] if self._open else None
        if len(self._open) == 1:
            gc.freeze()
        if request is None and parent is not None:
            request = self.spans[parent]["request"]
        record = {"id": len(self.spans), "name": name, "parent": parent,
                  "request": request, "kind": kind,
                  "replays": list(replays), "start": time.perf_counter(),
                  "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time(self, name: str) -> float:
        """A span's time minus what its children cover: spans nested in
        it, and the lower stages it replays."""
        own = [s for s in self.spans if s["name"] == name]
        ids = {s["id"] for s in own}
        nested = sum(s["end"] - s["start"] for s in self.spans
                     if s["parent"] in ids and s["kind"] == "stage")
        replayed = sum(self.total(child)
                       for child in {c for s in own for c in s["replays"]})
        return self.total(name) - nested - replayed

    def stage_names(self) -> list[str]:
        return list(dict.fromkeys(
            s["name"] for s in self.spans if s["kind"] == "stage"
        ))

    def stage_sum_ratio(self, composites) -> float:
        whole = sum(self.total(name) for name in composites)
        parts = sum(self.self_time(name) for name in self.stage_names())
        return parts / whole if whole else 0.0

    def overhead_ratio(self, composites) -> float:
        whole = sum(self.total(name) for name in composites)
        traced = sum(self.total(name) for name in self.stage_names())
        return traced / whole if whole else 0.0

    def write(self, path) -> None:
        gc.unfreeze()
        workloads.dump_json(path, {"spans": self.spans})


class CountingIO:
    """Delegates every ``storage._io`` operation, counting and timing."""

    def __init__(self, real):
        self._real = real
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.bytes: Counter = Counter()

    def _timed(self, kind: str, size: int, operation, *args):
        start = time.perf_counter()
        try:
            return operation(*args)
        finally:
            self.seconds[kind] += time.perf_counter() - start
            self.calls[kind] += 1
            self.bytes[kind] += size

    def read_bytes(self, path):
        data = self._timed("read", 0, self._real.read_bytes, path)
        self.bytes["read"] += len(data)
        return data

    def read_block(self, path, offset, length):
        data = self._timed("read", 0, self._real.read_block, path, offset,
                           length)
        self.bytes["read"] += len(data)
        return data

    def write(self, handle, data):
        return self._timed("write", len(data), self._real.write, handle,
                           data)

    def fsync(self, fd):
        return self._timed("fsync", 0, self._real.fsync, fd)

    def fsync_dir(self, fd):
        return self._timed("fsync", 0, self._real.fsync_dir, fd)

    def replace(self, src, dst):
        return self._timed("replace", 0, self._real.replace, src, dst)

    def truncate(self, handle, size):
        return self._timed("truncate", 0, self._real.truncate, handle, size)

    def unlink(self, path):
        return self._timed("unlink", 0, self._real.unlink, path)


@contextmanager
def counting_io():
    from repro.analytics import storage

    counter = CountingIO(storage._io)
    storage._io = counter
    try:
        yield counter
    finally:
        storage._io = counter._real


@dataclass
class Traced:
    tracer: Tracer = field(default_factory=Tracer)
    measured: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, good: bool, route: str, body: str) -> None:
        self.attempted += 1
        if not good:
            self.failed += 1
            self.failures.append(
                loadgen.Failure(route, "mismatch", body).as_dict()
            )

    def close(self, composites) -> "Traced":
        self.measured["bench.stage_sum_ratio"] = (
            self.tracer.stage_sum_ratio(composites)
        )
        self.measured["bench.trace_overhead_ratio"] = (
            self.tracer.overhead_ratio(composites)
        )
        return self


# -- the durable write path, shared by three workloads ---------------------

def traced_store_write(traced: Traced, directory, batches,
                       spill_rows: Optional[int], compact_every: int = 0,
                       kind: str = "stage") -> None:
    """``ingest_batch`` per batch, ``flush`` at the end and (for
    serve_mixed) ``compact`` every ``compact_every`` batches, behind the
    counting seam.  A call during which the segment count rose paid for
    a seal; its time above the median plain call is the seal's."""
    from repro.analytics.storage import FlowStore

    tracer, measured = traced.tracer, traced.measured
    plain, sealing, seals, compact_written = [], [], 0, 0
    with counting_io() as io, tracer.span("analytics.storage.ingest", kind):
        store = FlowStore(directory, spill_rows=spill_rows)
        ack_fsyncs = 0
        for index, payload in enumerate(batches, 1):
            before, fsyncs = len(store.segments), io.calls["fsync"]
            start = time.perf_counter()
            store.ingest_batch(payload)
            took = time.perf_counter() - start
            ack_fsyncs += io.calls["fsync"] - fsyncs
            rose = len(store.segments) - before
            seals += rose
            (sealing if rose else plain).append(took)
            if compact_every and index % compact_every == 0:
                written = io.bytes["write"]
                with tracer.span("analytics.storage.compact", kind):
                    store.compact(65536)
                compact_written += io.bytes["write"] - written
        before = len(store.segments)
        start = time.perf_counter()
        store.flush()
        flush_s = time.perf_counter() - start
        seals += len(store.segments) - before
        store.close()
    typical = statistics.median(plain) if plain else 0.0
    user_bytes = sum(len(payload) for payload in batches)
    measured.update({
        "analytics.storage.ingest_s":
            tracer.total("analytics.storage.ingest")
            - tracer.total("analytics.storage.compact"),
        "analytics.storage.fsync_s": io.seconds["fsync"],
        "analytics.storage.fsync_count": io.calls["fsync"],
        "analytics.storage.fsyncs_per_ack":
            ack_fsyncs / len(batches) if batches else 0.0,
        "analytics.storage.seal_s":
            sum(max(0.0, took - typical) for took in sealing) + flush_s,
        "analytics.storage.seals": seals,
        "analytics.storage.write_amplification":
            io.bytes["write"] / user_bytes if user_bytes else 0.0,
    })
    if compact_every:
        measured["analytics.storage.compact_s"] = tracer.total(
            "analytics.storage.compact"
        )
        measured["analytics.storage.compact_bytes_rewritten"] = (
            compact_written
        )


def traced_encode(traced: Traced, flows, batch: int,
                  kind: str = "stage") -> list[bytes]:
    with traced.tracer.span("sniffer.eventcodec.encode", kind):
        batches = workloads.encode_batches(flows, batch)
    traced.measured["sniffer.eventcodec.encode_s"] = traced.tracer.total(
        "sniffer.eventcodec.encode"
    )
    traced.measured["sniffer.eventcodec.bytes_per_flow"] = (
        sum(map(len, batches)) / len(flows) if flows else 0.0
    )
    return batches


def traced_resolver(traced: Traced, observations, flows, kind: str):
    """``DnsResolver.insert`` over the recorded observations, then
    ``lookup_key`` over the flows' keys, on a resolver of their own."""
    from repro.sniffer.resolver import DnsResolver, fuse_key

    tracer = traced.tracer
    resolver = DnsResolver(clist_size=oracle.CLIST_SIZE)
    with tracer.span("sniffer.resolver.insert", kind):
        insert = resolver.insert
        for obs in observations:
            insert(obs.client_ip, obs.fqdn, obs.answers, obs.timestamp)
    keys = [fuse_key(f.fid.client_ip, f.fid.server_ip) for f in flows]
    with tracer.span("sniffer.resolver.lookup", kind):
        lookup = resolver.lookup_key
        for key in keys:
            lookup(key)
    traced.measured["sniffer.resolver.insert_s"] = tracer.total(
        "sniffer.resolver.insert"
    )
    traced.measured["sniffer.resolver.lookup_s"] = tracer.total(
        "sniffer.resolver.lookup"
    )


def report_resolver(traced: Traced, pipeline) -> None:
    """The composite run's own resolver counters."""
    stats = pipeline.resolver.stats
    traced.measured["sniffer.resolver.hit_ratio"] = stats.hit_ratio
    traced.measured["sniffer.resolver.replacements"] = stats.replacements


# -- pcap_capture ----------------------------------------------------------

def trace_pcap_capture(run: runner.Run) -> Traced:
    from repro.dns.wire import (
        DnsWireError,
        decode_message,
        decode_response_addresses,
    )
    from repro.net.packet import PacketDecodeError, decode_frame
    from repro.net.pcap import LINKTYPE_ETHERNET, PcapReader
    from repro.sniffer.cli import sniff_pcap
    from repro.sniffer.dns_sniffer import DnsResponseSniffer
    from repro.sniffer.flow_sniffer import FlowSniffer
    from repro.sniffer.pipeline import SnifferPipeline
    from repro.sniffer.resolver import DnsResolver
    from repro.sniffer.tagger import FlowTagger

    traced = Traced()
    tracer, measured = traced.tracer, traced.measured
    directory = runner.fresh_dir(run.work_dir / "input")
    pcap = directory / "capture.pcap"
    workloads.write_pcap_input(pcap, run.seed, run.scale)
    expected = oracle.oracle_for_pcap(pcap)

    with tracer.span("trace:pcap_capture", "root", request="pass-1"):
        with tracer.span("composite.sniff_pcap", "composite"):
            pipeline = sniff_pcap(str(pcap), clist_size=oracle.CLIST_SIZE,
                                  warmup=0.0,
                                  flow_store=directory / "composite-store")
            pipeline.close()
        store = pipeline.flow_store
        traced.check(len(store) == expected.rows
                     and oracle.answer_digest(store, expected.probe)
                     == expected.digest,
                     "composite", "store differs from the oracle")
        store.close()
        report_resolver(traced, pipeline)
        dns_stats = pipeline.dns_sniffer.stats
        measured["dns.wire.fastpath_ratio"] = (
            dns_stats["fast_path"] / max(dns_stats["decoded"], 1)
        )

        with tracer.span("net.pcap.read"), open(pcap, "rb") as handle:
            reader = PcapReader(handle)
            with_ethernet = reader.linktype == LINKTYPE_ETHERNET
            records = list(reader)
        packets, errors = [], 0
        with tracer.span("net.packet.decode"):
            for record in records:
                try:
                    packets.append(decode_frame(
                        record.timestamp, record.data,
                        with_ethernet=with_ethernet,
                    ))
                except PacketDecodeError:
                    errors += 1
        dns_packets, other_packets = [], []
        for packet in packets:
            udp = packet.udp
            is_dns = udp is not None and 53 in (udp.src_port, udp.dst_port)
            (dns_packets if is_dns else other_packets).append(packet)
        with tracer.span("dns.wire.decode"):
            for packet in dns_packets:
                try:
                    if decode_response_addresses(packet.payload) is None:
                        decode_message(packet.payload)
                except DnsWireError:
                    pass
        resolver = DnsResolver(clist_size=oracle.CLIST_SIZE)
        sniffer = DnsResponseSniffer(resolver)
        with tracer.span("sniffer.dns_sniffer.feed",
                         replays=("dns.wire.decode",
                                  "sniffer.resolver.insert")):
            observations = [
                seen for seen in map(sniffer.feed_packet, dns_packets)
                if seen is not None
            ]
        flow_sniffer = FlowSniffer()
        with tracer.span("sniffer.flow_sniffer.feed"):
            flows = [
                done for done in map(flow_sniffer.feed, other_packets)
                if done is not None
            ]
            last_ts = packets[-1].timestamp if packets else 0.0
            for flow in flow_sniffer.flush():
                flow.end = max(flow.end, last_ts)
                flows.append(flow)
        traced_resolver(traced, observations, flows, "stage")
        tagger = FlowTagger(resolver, warmup=0.0)
        with tracer.span("sniffer.tagger.tag",
                         replays=("sniffer.resolver.lookup",)):
            for flow in flows:
                tagger.tag(flow)
        # The packet loop around those three: its self time is the glue.
        loop = SnifferPipeline(clist_size=oracle.CLIST_SIZE, warmup=0.0)
        with tracer.span("sniffer.pipeline.packets",
                         replays=("sniffer.dns_sniffer.feed",
                                  "sniffer.flow_sniffer.feed",
                                  "sniffer.tagger.tag")):
            loop.process_packets(packets)
        batches = traced_encode(traced, flows, workloads.BATCH_EVENTS)
        # sniff_pcap(flow_store=DIR) opens the store with its default
        # spill budget, so this stage does too.
        traced_store_write(traced, directory / "stage-store", batches,
                           spill_rows=None)

    measured.update({
        "net.pcap.read_s": tracer.total("net.pcap.read"),
        "net.pcap.records": len(records),
        "net.packet.decode_s": tracer.total("net.packet.decode"),
        "net.packet.decode_errors": errors,
        "dns.wire.decode_s": tracer.total("dns.wire.decode"),
        "sniffer.dns_sniffer.feed_s":
            tracer.self_time("sniffer.dns_sniffer.feed"),
        "sniffer.flow_sniffer.feed_s":
            tracer.total("sniffer.flow_sniffer.feed"),
        "sniffer.flow_sniffer.flows": len(flows),
        "sniffer.tagger.tag_s": tracer.self_time("sniffer.tagger.tag"),
        "sniffer.pipeline.packets_s":
            tracer.self_time("sniffer.pipeline.packets"),
    })
    return traced.close(["composite.sniff_pcap"])


# -- trace_to_tables -------------------------------------------------------

def _timed_sweep(tracer: Tracer, name: str, open_store, plan) -> str:
    """Cold open plus the sweep as one ``leg``; returns its digest."""
    with tracer.span(name, "leg"):
        store = open_store()
        try:
            return oracle.sweep_digest(oracle.run_sweep(store, plan))
        finally:
            store.close()


def trace_trace_to_tables(run: runner.Run) -> Traced:
    from repro.analytics.database import FlowDatabase
    from repro.analytics.shard import ShardCoordinator
    from repro.analytics.storage import FlowStore
    from repro.net.flow import DnsObservation
    from repro.sniffer.eventcodec import decode_events
    from repro.sniffer.pipeline import SnifferPipeline
    from repro.sniffer.tagger import FlowTagger

    traced = Traced()
    tracer, measured = traced.tracer, traced.measured
    scale = run.scale
    directory = runner.fresh_dir(run.work_dir / "input")
    with runner.no_gc():
        world = workloads.build_world(run.seed, scale)
        events = workloads.make_events(
            world, random.Random(run.seed), scale.events,
            scale.store_hours * 3600.0,
        )
        batches = workloads.encode_batches(events)
        plan = dict(world.describe(), spill_rows=scale.spill_rows)
        expected = oracle.oracle_for_events(events)
        expected.sweep_digest = oracle.expected_sweep_digest(
            list(expected.database), plan
        )
    del events
    flat_dir = directory / "composite-store"

    def pipeline_with(store=None, **kwargs):
        return SnifferPipeline(clist_size=oracle.CLIST_SIZE, warmup=0.0,
                               flow_store=store, **kwargs)

    with tracer.span("trace:trace_to_tables", "root", request="pass-1"):
        # The composite: what the child times, phase A then phase B.
        with tracer.span("composite.phase_a", "composite"):
            pipeline = pipeline_with(
                FlowStore(flat_dir, spill_rows=scale.spill_rows),
                retain_flows=False,
            )
            pipeline.process_events(
                event for payload in batches
                for event in decode_events(payload)
            )
            pipeline.close()
        pipeline.flow_store.close()
        report_resolver(traced, pipeline)
        with tracer.span("composite.phase_b", "composite"):
            store = FlowStore(flat_dir)
            flat_digest = oracle.sweep_digest(oracle.run_sweep(store, plan))
        traced.check(len(store) == expected.rows
                     and oracle.answer_digest(store, expected.probe)
                     == expected.digest,
                     "composite", "store differs from the oracle")
        traced.check(flat_digest == expected.sweep_digest, "composite",
                     "sweep differs from the oracle")
        store.close()

        # Phase A, stage by stage.
        with tracer.span("sniffer.eventcodec.decode"):
            decoded = [decode_events(payload) for payload in batches]
        stream = [event for chunk in decoded for event in chunk]
        del decoded
        inline = pipeline_with()
        with tracer.span("sniffer.pipeline.events"):
            flows = inline.process_events(stream)
        inline_stats = inline.resolver.stats
        tagged_batches = traced_encode(traced, flows,
                                       workloads.BATCH_EVENTS)
        traced_store_write(traced, directory / "stage-store",
                           tagged_batches, scale.spill_rows)
        # The same loop draining into a store: what it takes beyond the
        # three stages above is the pipeline's own chunking and glue.
        with tracer.span("sniffer.pipeline.with_store",
                         replays=("sniffer.pipeline.events",
                                  "sniffer.eventcodec.encode",
                                  "analytics.storage.ingest")):
            durable = pipeline_with(
                FlowStore(directory / "drain-store",
                          spill_rows=scale.spill_rows),
                retain_flows=False,
            )
            durable.process_events(stream)
            durable.close()
        durable.flow_store.close()

        # Phase B, stage by stage, on a cold store behind the seam.
        with counting_io() as io:
            with tracer.span("analytics.storage.open"):
                store = FlowStore(flat_dir)
            oracle.run_sweep(store, plan, span=tracer.span)
            scan = store.stats()["scan_stats"]
            store.close()
        measured.update({
            "analytics.storage.open_s":
                tracer.total("analytics.storage.open"),
            "analytics.storage.read_bytes": io.bytes["read"],
            "analytics.storage.segment_reads": io.calls["read"],
            "analytics.storage.segments_scanned": scan["segments_scanned"],
            "analytics.storage.segments_pruned": scan["segments_pruned"],
        })
        for kernel in KERNELS:
            measured[f"{kernel}_s"] = tracer.total(kernel)

        # Legs: the modular twins of what the fused loop inlines.
        observations = [e for e in stream if e.__class__ is DnsObservation]
        traced_resolver(traced, observations, flows, "leg")
        tagger = FlowTagger(inline.resolver, warmup=0.0)
        with tracer.span("sniffer.tagger.tag", "leg"):
            for flow in flows:
                tagger.tag(flow)
        measured["sniffer.tagger.tag_s"] = (
            tracer.total("sniffer.tagger.tag")
            - tracer.total("sniffer.resolver.lookup")
        )
        with tracer.span("analytics.database.ingest", "leg"):
            memory = FlowDatabase()
            for payload in tagged_batches:
                memory.ingest_batch(payload)

        # Scale-out legs: same answers first, then the ratios.
        fanout = pipeline_with(processes=2)
        try:
            with tracer.span("sniffer.fanout.events", "leg"):
                fanout.process_events(stream)
        finally:
            fanout.close()
        report = fanout.fanout_report
        # Two half-size Clists evict differently from one; labels are
        # only comparable while nothing was evicted.
        traced.check(
            report.flows == len(flows) and (
                inline_stats.overwrites > 0
                or report.tagged_flows == inline_stats.hits
            ),
            "sniffer.fanout", "fan-out tagged differently from inline",
        )
        serial = _timed_sweep(
            tracer, "analytics.storage.sweep_serial",
            lambda: FlowStore(flat_dir), plan,
        )
        parallel = _timed_sweep(
            tracer, "analytics.storage.sweep_parallel2",
            lambda: FlowStore(flat_dir, parallel=2), plan,
        )
        traced.check(serial == parallel == flat_digest,
                     "analytics.storage.parallel",
                     "parallel=2 sweep differs from serial")
        shard_dir = directory / "shards"
        sharded = ShardCoordinator(shard_dir, shards=2,
                                   spill_rows=scale.spill_rows)
        for payload in tagged_batches:
            sharded.ingest_batch(payload)
        sharded.close()
        for backend in ("inprocess", "process"):
            digest = _timed_sweep(
                tracer, f"analytics.shard.sweep_{backend}",
                lambda: ShardCoordinator(shard_dir, backend=backend), plan,
            )
            traced.check(digest == flat_digest, f"analytics.shard.{backend}",
                         "sharded sweep differs from the flat store's")
            measured[f"analytics.shard.sweep_ratio_vs_flat.{backend}"] = (
                tracer.total("analytics.storage.sweep_serial")
                / tracer.total(f"analytics.shard.sweep_{backend}")
            )

    events_s = tracer.total("sniffer.pipeline.events")
    fanout_s = tracer.total("sniffer.fanout.events")
    workers = report.worker_events or [0]
    measured.update({
        "sniffer.eventcodec.decode_s":
            tracer.total("sniffer.eventcodec.decode"),
        "sniffer.pipeline.events_s": events_s,
        "sniffer.pipeline.drain_s":
            tracer.total("sniffer.pipeline.with_store") - events_s,
        "analytics.database.ingest_s":
            tracer.total("analytics.database.ingest"),
        "sniffer.fanout.events_per_s": len(stream) / fanout_s,
        "sniffer.fanout.ratio_vs_inline": events_s / fanout_s,
        "sniffer.fanout.worker_skew":
            max(workers) / (sum(workers) / len(workers) or 1),
        "analytics.storage.parallel2_ratio_vs_serial":
            tracer.total("analytics.storage.sweep_serial")
            / tracer.total("analytics.storage.sweep_parallel2"),
    })
    return traced.close(["composite.phase_a", "composite.phase_b"])


# -- the serve workloads ---------------------------------------------------

def _direct_call(snapshot, route: str, params: dict):
    """The snapshot call behind a route, without routing or JSON."""
    if route == "servers-for-fqdn":
        return snapshot.servers_for_fqdn(params["fqdn"])
    if route == "rows-for-fqdn":
        return snapshot.rows_for_fqdn(params["fqdn"])
    if route == "servers-for-domain":
        return snapshot.servers_for_domain(params["sld"])
    if route == "rows-in-window":
        return snapshot.rows_in_window(float(params["t0"]),
                                       float(params["t1"]))
    if route == "len":
        return len(snapshot)
    if route == "tagged-count":
        return snapshot.tagged_count
    return getattr(snapshot, route.replace("-", "_"))()


def _class_medians(tracer: Tracer, name: str) -> dict:
    by_class: dict[str, list[float]] = {}
    for span in tracer.spans:
        if span["name"].startswith(name + "."):
            by_class.setdefault(span["name"].rsplit(".", 1)[1], []).append(
                (span["end"] - span["start"]) * 1000.0
            )
    return {cls: statistics.median(values)
            for cls, values in by_class.items()}


def report_window(traced: Traced, window: dict, daemon) -> None:
    """Per-class medians, the tails and the daemon's own counters from
    an untraced window inside the traced run."""
    measured = traced.measured
    summary = loadgen.query_summary(window)
    failures = summary["failures"]
    ingest = window["ingest_log"]
    if ingest is not None:
        failures += ingest.failures
        acks = [ack * 1000.0 for _late, ack in ingest.acks]
        traced.attempted += len(acks)
        measured["serve.http.ingest_ack_p50_ms"] = percentile(acks, 50)
        measured["serve.http.ingest_ack_p95_ms"] = percentile(acks, 95)
        measured["loadgen.late_p99_ms"] = percentile(
            [late * 1000.0 for late, _ack in ingest.acks], 99
        )
    traced.attempted += summary["n"] + len(failures)
    traced.failed += len(failures)
    traced.failures += [f.as_dict() for f in failures]
    measured["serve.http.query_p50_ms"] = summary["p50_ms"]
    measured["serve.http.query_p99_ms"] = summary["p99_ms"]
    for cls, stats in summary["by_class"].items():
        measured[f"serve.http.{cls}_p50_ms"] = stats["p50_ms"]
    measured["serve.transport.resp_bytes_p50"] = summary["resp_bytes_p50"]
    measured["loadgen.cpu_share"] = window["cpu_share"]
    totals = daemon.counter_totals(runner.SERVE_COUNTERS)
    measured["serve.admission.shed_total"] = totals["serve_shed_total"]
    measured["serve.singleflight.coalesced_total"] = (
        totals["serve_coalesced_total"]
    )
    measured["serve.deadline.exceeded_total"] = (
        totals["serve_deadline_exceeded_total"]
    )


def traced_query_legs(traced: Traced, daemon, store_dir, requests) -> None:
    """The same requests three ways: over HTTP on one keep-alive
    connection, through ``ServeApp.handle()`` in process, and straight
    on a pinned snapshot."""
    from repro.analytics.storage import FlowStore
    from repro.serve.server import ServeApp

    tracer, measured = traced.tracer, traced.measured
    conn = daemon.connect()
    try:
        for index, request in enumerate(requests):
            with tracer.span(f"serve.http.{request.cls}", "composite",
                             request=f"req-{index}"):
                conn.request("GET", request.path)
                response = conn.getresponse()
                body = response.read()
            traced.check(response.status == 200, request.route,
                         body[:200].decode("utf-8", "replace"))
    finally:
        conn.close()
    store = FlowStore(store_dir)
    app = ServeApp(store)
    try:
        # One whole-store query first: both legs start as warm as the
        # daemon was.
        app.handle("GET", "/query/fqdn-server-counts", {})
        for index, request in enumerate(requests):
            split = urlsplit(request.path)
            params = parse_qs(split.query, keep_blank_values=True)
            with tracer.span(f"serve.server.handle.{request.cls}",
                             request=f"req-{index}",
                             replays=(f"analytics.storage.{request.cls}",)):
                status = app.handle("GET", split.path, params)[0]
            traced.check(status == 200, request.route, "handle() failed")
        scan_before = store.stats()["scan_stats"]
        with counting_io() as io:
            for index, request in enumerate(requests):
                params = loadgen.request_params(request)
                with tracer.span(f"analytics.storage.{request.cls}",
                                 request=f"req-{index}"):
                    with store.pin() as snapshot:
                        _direct_call(snapshot, request.route, params)
        scan = store.stats()["scan_stats"]
    finally:
        store.close()
    http = _class_medians(tracer, "serve.http")
    handle = _class_medians(tracer, "serve.server.handle")
    direct = _class_medians(tracer, "analytics.storage")
    for cls in ("point", "window", "agg", "meta"):
        if cls not in http:
            continue
        measured[f"serve.server.handle_{cls}_ms"] = handle[cls]
        if cls != "meta":
            measured[f"analytics.storage.{cls}_ms"] = direct[cls]
            measured[f"serve.transport.{cls}_ms"] = http[cls] - handle[cls]
    if handle.get("agg"):
        measured["serve.server.encode_share"] = (
            (handle["agg"] - direct["agg"]) / handle["agg"]
        )
    measured.update({
        "analytics.storage.read_bytes": io.bytes["read"],
        "analytics.storage.segment_reads": io.calls["read"],
        "analytics.storage.segments_scanned":
            scan["segments_scanned"] - scan_before["segments_scanned"],
        "analytics.storage.segments_pruned":
            scan["segments_pruned"] - scan_before["segments_pruned"],
    })


def _serve_ratios(traced: Traced, untraced_p50: float) -> Traced:
    """For a served request the stages are the handler (its snapshot
    call inside it) and the transport around it, which is defined as
    what HTTP adds; so the sum explains the HTTP time by construction
    and the ratio only says how well medians stand for the whole."""
    tracer = traced.tracer
    http = [s for s in tracer.spans if s["name"].startswith("serve.http.")]
    whole = sum(s["end"] - s["start"] for s in http)
    transport = {
        cls: traced.measured.get(f"serve.transport.{cls}_ms", 0.0) / 1000.0
        for cls in ("point", "window", "agg", "meta")
    }
    handled = sum(
        s["end"] - s["start"] for s in tracer.spans
        if s["name"].startswith("serve.server.handle.")
    )
    parts = handled + sum(
        transport[s["name"].rsplit(".", 1)[1]] for s in http
    )
    traced.measured["bench.stage_sum_ratio"] = parts / whole if whole else 0
    traced_p50 = percentile(
        [(s["end"] - s["start"]) * 1000.0 for s in http], 50
    )
    traced.measured["bench.trace_overhead_ratio"] = (
        traced_p50 / untraced_p50 if untraced_p50 else 0.0
    )
    return traced


def trace_serve_read(run: runner.Run) -> Traced:
    traced = Traced()
    directory = runner.fresh_dir(run.work_dir / "input")
    with runner.no_gc():
        inputs = runner.serve_setup(run, directory, mixed=False)
    daemon = inputs.daemon
    try:
        with traced.tracer.span("trace:serve_read", "root", request="run"):
            window = loadgen.run_window(
                daemon, inputs.requests, run.scale.warmup_s, run.seconds,
                query_connections=2,
            )
            report_window(traced, window, daemon)
            copy = directory / "store-copy"
            shutil.copytree(inputs.store_dir, copy)
            traced_query_legs(
                traced, daemon, copy,
                inputs.requests[:traced_request_count(run.seconds)],
            )
    finally:
        daemon.stop()
    return _serve_ratios(traced,
                         traced.measured["serve.http.query_p50_ms"])


def trace_serve_mixed(run: runner.Run) -> Traced:
    from repro.analytics.storage import FlowStore
    from repro.serve.server import ServeApp

    traced = Traced()
    tracer, measured = traced.tracer, traced.measured
    scale = run.scale
    directory = runner.fresh_dir(run.work_dir / "input")
    with runner.no_gc():
        inputs = runner.serve_setup(run, directory, mixed=True)
    daemon = inputs.daemon
    copies = [directory / f"store-copy-{n}" for n in range(3)]
    for copy in copies:
        shutil.copytree(inputs.store_dir, copy)
    try:
        with tracer.span("trace:serve_mixed", "root", request="run"):
            window = loadgen.run_window(
                daemon, inputs.requests, scale.warmup_s, run.seconds,
                query_connections=1, ingest_batches=inputs.ingest_batches,
                ingest_interval=workloads.INGEST_INTERVAL_S,
            )
            report_window(traced, window, daemon)
            traced_query_legs(
                traced, daemon, copies[0],
                inputs.requests[:traced_request_count(run.seconds) // 2],
            )
            # The write side: the POST bodies through handle(), then
            # straight into a store with the daemon's compaction beat.
            traced_encode(traced, inputs.ingest_flows, scale.ingest_flows,
                          kind="leg")
            store = FlowStore(copies[1], spill_rows=scale.spill_rows)
            app = ServeApp(store)
            try:
                for index, payload in enumerate(inputs.ingest_batches):
                    with tracer.span("serve.server.ingest_handle", "leg",
                                     request=f"post-{index}"):
                        status = app.handle("POST", "/ingest", {},
                                            payload)[0]
                    traced.check(status == 200, "/ingest",
                                 "handle() refused the batch")
            finally:
                store.close()
            measured["serve.server.ingest_handle_ms"] = statistics.median(
                tracer.durations("serve.server.ingest_handle")
            ) * 1000.0
            traced_store_write(
                traced, copies[2], inputs.ingest_batches, scale.spill_rows,
                compact_every=max(1, round(2.0 / workloads.INGEST_INTERVAL_S)),
                kind="leg",
            )
    finally:
        daemon.stop()
    return _serve_ratios(traced, measured["serve.http.query_p50_ms"])


TRACERS = {
    "pcap_capture": trace_pcap_capture,
    "trace_to_tables": trace_trace_to_tables,
    "serve_read": trace_serve_read,
    "serve_mixed": trace_serve_mixed,
}
