"""End-to-end wiring of the real-time sniffer (Fig. 1 of the paper).

Two ingestion paths exist:

* the **packet path** runs on captured frames.  Its entry is
  :meth:`SnifferPipeline.process_frames` — the capture loop, fed the raw
  ``(timestamp, data)`` tuples of :meth:`PcapReader.frames
  <repro.net.pcap.PcapReader.frames>`: one scalar
  :func:`~repro.net.packet.parse_frame` per frame, port-53 UDP payloads
  to the DNS decoder and the resolver, TCP segments and other datagrams
  to the flow sniffer as scalars, no per-frame object.
  :meth:`SnifferPipeline.process_packets` is the same for decoded
  :class:`~repro.net.packet.Packet` objects (the object API); both are
  thin loops over one parser, one DNS decode, one TCP state machine and
  one UDP aggregator, and both hand what those produce to the same two
  sinks;
* the **event path** (:meth:`SnifferPipeline.process_events`) consumes
  already-structured :class:`DnsObservation` / :class:`FlowRecord`
  objects in timestamp order — this is the fast path used for the large
  synthetic traces, exercising exactly the same resolver/tagger logic.

Both paths produce the labeled flow list that feeds the off-line
analyzer.

The event path dispatches on exact type (``event.__class__ is ...``)
instead of per-event ``isinstance`` and, when no policy enforcer is
installed, runs a fused loop with the resolver lookup and tagger
bookkeeping inlined — the per-event constant factor is what
decides whether the sniffer keeps up with the wire (Sec. 3.1.1; FlowDNS
makes the same observation at ISP scale).  Statistics produced by the
fused loop are identical to the modular path.

With ``processes > 1`` the event path fans the resolver+tagger work out
to a pool of worker processes (:mod:`repro.sniffer.fanout`): events are
partitioned by client IP, cross the process boundary as compact binary
batches, and come back as merged statistics.  In that mode the pipeline
aggregates — per-flow records are tallied where they are tagged rather
than materialised, so ``tagged_flows`` stays empty and the run's merged
counters land in :attr:`tagger` ``.stats`` and :attr:`fanout_report`.
The packet path, a policy enforcer and a flow store all need the
per-flow records, so they run in-process only.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, islice
from typing import Callable, Iterable, Optional, Union

from repro.net.flow import DnsObservation, FlowRecord, Protocol
from repro.net.packet import Packet, PacketDecodeError, parse_frame
from repro.sniffer.dns_sniffer import DnsResponseSniffer
from repro.sniffer.eventcodec import BatchEncoder, CodecError, decode_events
from repro.sniffer.fanout import (
    FanoutPipeline,
    FanoutReport,
    install_shutdown_signals,
)
from repro.sniffer.flow_sniffer import FlowSniffer
from repro.sniffer.policy import PolicyEnforcer
from repro.sniffer.resolver import DnsResolver
from repro.sniffer.tagger import FlowTagger

Event = Union[DnsObservation, FlowRecord]


class SnifferPipeline:
    """DN-Hunter's real-time component, assembled.

    Args:
        clist_size: resolver circular-list capacity ``L`` (total budget,
            split evenly across workers with ``processes > 1``).
        warmup: statistics warm-up window in seconds (paper: 5 min).
        policy: optional :class:`PolicyEnforcer`; when present, DNS
            responses pre-install decisions and each tagged flow gets a
            verdict.
        processes: when > 1, fan the event path's resolver+tagger work
            out to this many worker processes split by client low octet
            (Sec. 3.1.1's load-balancing note; see
            :mod:`repro.sniffer.fanout`).  The pipeline then
            aggregates: merged statistics instead of a materialised
            labeled-flow list.  Refused together with ``policy`` or
            ``flow_store``, and by the packet path.
        batch_events: events per fan-out batch (``processes > 1``); with
            a ``flow_store``, the tagged flows per store batch and
            mid-run drain.
        flow_store: durable-ingest mode — an opened store (flat or
            sharded) or a directory path, opened with
            :func:`repro.analytics.shard.open_store`.  After every
            processing call the tagged flows emitted since the previous
            call stream into the store as binary batches; :meth:`close`
            seals the store's live tail to disk.
        retain_flows: with ``False`` (requires ``flow_store``), flows
            already drained into the store are dropped from
            ``tagged_flows`` — the multi-day capture mode, where the
            store bounds memory and the in-process list must not grow
            forever.
    """

    def __init__(
        self,
        clist_size: int = 100_000,
        warmup: float = 300.0,
        policy: Optional[PolicyEnforcer] = None,
        processes: int = 1,
        batch_events: int = 8192,
        flow_store=None,
        retain_flows: bool = True,
    ):
        if not retain_flows and flow_store is None:
            raise ValueError(
                "retain_flows=False discards tagged flows; it needs a "
                "flow_store to stream them into first"
            )
        if clist_size <= 0:
            raise ValueError("clist_size must be positive")
        if processes <= 0:
            raise ValueError("processes must be positive")
        if batch_events <= 0:
            raise ValueError("batch_events must be positive")
        if processes > 1 and (policy is not None or flow_store is not None):
            raise ValueError(
                "policy enforcement and a flow store need per-flow "
                "records in-process; not supported with processes > 1"
            )
        # Open (and possibly create on disk) the store only after every
        # sizing knob validated — a rejected construction must not
        # leave a plausible empty store directory behind.
        if flow_store is not None and not hasattr(flow_store, "ingest_batch"):
            from repro.analytics.shard import open_store

            flow_store = open_store(flow_store)
        self.clist_size = clist_size
        self.processes = processes
        self.batch_events = batch_events
        self.fanout_report: Optional[FanoutReport] = None
        self._fanout: Optional[FanoutPipeline] = None
        self._fanout_baseline: Optional[FanoutReport] = None
        if processes > 1:
            # The real resolvers live in the workers; the in-process one
            # is a 1-slot stub that only satisfies the sniffer/tagger
            # wiring, so a paper-scale clist is not allocated twice.
            clist_size = 1
        self.resolver = DnsResolver(clist_size=clist_size)
        self.dns_sniffer = DnsResponseSniffer(self.resolver)
        self.flow_sniffer = FlowSniffer()
        self.tagger = FlowTagger(self.resolver, warmup=warmup)
        self.policy = policy
        self.tagged_flows: list[FlowRecord] = []
        self.blocked_flows: list[FlowRecord] = []
        #: Raw frames :meth:`process_frames` was handed, and how many of
        #: them the frame parser refused (and the loop skipped).
        self.frame_stats = {"frames": 0, "decode_errors": 0}
        self._emitted_flows = 0  # emit_tagged_batches drain cursor
        # Payloads emitted for the store but not yet handed to it (a
        # failed ingest_batch leaves the rest of its window here).
        self._unstored: list[bytes] = []
        self.flow_store = flow_store
        self.retain_flows = retain_flows
        #: Optional observability hook, called as ``hook(batches,
        #: rows)`` after every non-empty store drain — ``repro-serve``
        #: wires it to its ingest-rate metrics.  Must not raise.
        self.store_drain_hook: Optional[Callable[[int, int], None]] = None
        # Durable runs drain mid-stream (every ~batch_events tagged
        # flows), so one multi-day processing call keeps spilling to
        # disk instead of deferring all durability — and all memory —
        # to the end of the call.
        self._drain_every = batch_events if flow_store is not None else 0

    # -- packet path ------------------------------------------------------

    def process_frames(
        self, frames: Iterable[tuple[float, bytes]], with_ethernet: bool = True
    ) -> list[FlowRecord]:
        """Run the full sniffer over raw ``(timestamp, data)`` frames —
        what :meth:`repro.net.pcap.PcapReader.frames` yields; return the
        tagged flows.

        This is the capture loop: one scalar parse per frame, port-53
        UDP to the DNS decoder and the resolver, everything else to the
        flow sniffer, no per-frame object.  A frame the parser refuses
        is counted in :attr:`frame_stats` and skipped.
        """
        parse = parse_frame
        feed_segment = self.flow_sniffer.feed_segment
        feed_datagram = self.flow_sniffer.feed_datagram
        feed_dns, finish = self._packet_sinks()
        seen = refused = 0
        last_ts = 0.0
        try:
            for timestamp, data in frames:
                seen += 1
                try:
                    (src, dst, proto, sport, dport, flags,
                     start, end) = parse(data, with_ethernet)
                except PacketDecodeError:
                    refused += 1
                    continue
                last_ts = timestamp
                if proto == 6:  # TCP
                    completed = feed_segment(
                        timestamp, src, dst, sport, dport, flags, end - start
                    )
                    if completed is not None:
                        finish(completed)
                elif sport == 53 or dport == 53:
                    feed_dns(timestamp, dst, data[start:end])
                else:
                    feed_datagram(
                        timestamp, src, dst, sport, dport, end - start
                    )
        finally:
            self.frame_stats["frames"] += seen
            self.frame_stats["decode_errors"] += refused
        return self._end_of_capture(last_ts)

    def process_packets(self, packets: Iterable[Packet]) -> list[FlowRecord]:
        """The same over decoded :class:`Packet` objects (the object API:
        :func:`~repro.net.packet.decode_frame` output or hand-built
        packets); return the tagged flows."""
        feed_flow = self.flow_sniffer.feed
        feed_dns, finish = self._packet_sinks()
        last_ts = 0.0
        for packet in packets:
            last_ts = packet.timestamp
            udp = packet.udp
            if udp is not None and (
                udp.src_port == 53 or udp.dst_port == 53
            ):
                feed_dns(last_ts, packet.ipv4.dst, packet.payload)
                continue
            completed = feed_flow(packet)
            if completed is not None:
                finish(completed)
        return self._end_of_capture(last_ts)

    def _packet_sinks(self):
        """``(feed_dns, finish)`` for the two packet loops: where a
        port-53 payload and a completed flow go — the resolver and the
        tagger.  Raises ``ValueError`` with ``processes > 1``: the
        packet path runs in-process only."""
        if self.processes > 1:
            raise ValueError(
                "the packet path runs in-process; processes > 1 fans "
                "out the event path only"
            )
        insert = self.resolver.insert
        decode = self.dns_sniffer.decode_payload
        policy = self.policy

        def feed_dns(timestamp, client_ip, payload):
            # client_ip is the frame's destination: responses flow
            # server -> client.
            decoded = decode(payload)
            if decoded is not None:
                fqdn, addresses, ttl = decoded
                insert(client_ip, fqdn, addresses, timestamp)
                if policy is not None:
                    policy.on_dns_response(DnsObservation(
                        timestamp, client_ip, fqdn, addresses, ttl
                    ))

        return feed_dns, self._finish_flow

    def _end_of_capture(self, last_ts: float) -> list[FlowRecord]:
        """Close what the flow sniffer still holds and drain into the
        store."""
        for record in self.flow_sniffer.flush():
            record.end = max(record.end, last_ts)
            self._finish_flow(record)
        self._store_drain()
        return self.tagged_flows

    # -- event path -------------------------------------------------------

    def process_events(self, events: Iterable[Event]) -> list[FlowRecord]:
        """Run the resolver+tagger over structured events in time order."""
        if self._drain_every:
            # Chunk the stream so the event loops stay branch-free on
            # their hot path while the store still receives (and can
            # spill) every few batches' worth of tagged flows.  The
            # chunk is a lazy slice, never a list: an event the loop is
            # done with is garbage at once instead of being kept alive
            # (and aged into the old GC generation) until the drain.
            events = iter(events)
            rest = self._drain_every * 4 - 1
            for first in events:
                self._process_events_dispatch(
                    chain((first,), islice(events, rest))
                )
                self._store_drain()
            return self.tagged_flows
        flows = self._process_events_dispatch(events)
        self._store_drain()
        return flows

    def process_batches(self, payloads: Iterable[bytes]) -> list[FlowRecord]:
        """:meth:`process_events` over eventcodec batches, in order."""
        return self.process_events(
            event for payload in payloads
            for event in decode_events(payload)
        )

    def _process_events_dispatch(
        self, events: Iterable[Event]
    ) -> list[FlowRecord]:
        if self.processes > 1:
            fanout = self._fanout_pipeline()
            fanout.feed_events(events)
            self._absorb_report(fanout.collect())
            return self.tagged_flows
        if self.policy is not None:
            return self._process_events_modular(events)
        return self._process_events_flat(events)

    def _process_events_modular(
        self, events: Iterable[Event]
    ) -> list[FlowRecord]:
        """General event loop: policy hooks apply."""
        feed = self.dns_sniffer.feed_observation
        finish = self._finish_flow
        policy = self.policy
        for event in events:
            cls = event.__class__
            if cls is DnsObservation:
                observation = feed(event)
                if observation is not None and policy is not None:
                    policy.on_dns_response(observation)
            elif cls is FlowRecord:
                finish(event)
            elif isinstance(event, DnsObservation):
                observation = feed(event)
                if observation is not None and policy is not None:
                    policy.on_dns_response(observation)
            elif isinstance(event, FlowRecord):
                finish(event)
            else:
                raise TypeError(
                    f"unsupported event type {type(event).__name__}"
                )
        return self.tagged_flows

    def _process_events_flat(
        self, events: Iterable[Event]
    ) -> list[FlowRecord]:
        """Fully-fused loop over a plain depth-0 :class:`DnsResolver`.

        The resolver's insert and lookup bodies are inlined with their
        state held in locals — one exact-type check and straight dict
        work per event, no function call in the steady state.  The logic
        mirrors ``DnsResolver.insert`` line for line (the differential
        tests hold this path and the modular one to identical labels and
        statistics).  All state is flushed back to the shared objects in
        a ``finally`` block, so the structures stay consistent even when
        the event source raises; a subclassed or foreign event flushes
        and hands the remaining stream to the modular loop.
        """
        events = iter(events)  # the modular bail-out resumes mid-stream
        resolver = self.resolver
        clist_size = resolver.clist_size
        key_to_burn = resolver._key_to_burn
        kget = key_to_burn.get
        ksetdefault = key_to_burn.setdefault
        fqdns = resolver._fqdns
        inserted_at = resolver._inserted_at
        floor = resolver._floor
        burned = floor + clist_size
        sweep = resolver._sweep
        sweep_at = resolver._sweep_at
        responses = resolver._responses
        answer_count = resolver._answers
        replacements = resolver._replacements
        lookups = resolver._lookups
        hits = resolver._hits
        tagger = self.tagger
        warmup = tagger.warmup
        trace_start = tagger.trace_start
        append = self.tagged_flows.append
        dns_cls = DnsObservation
        flow_cls = FlowRecord
        empty_answers = 0
        warmup_skipped = 0
        hit_protocols: list[Protocol] = []
        miss_protocols: list[Protocol] = []
        hit_append = hit_protocols.append
        miss_append = miss_protocols.append
        bail_event = None
        try:
            for event in events:
                cls = event.__class__
                if cls is dns_cls:
                    answers = event.answers
                    n = len(answers)
                    if not n:
                        # The DNS sniffer drops empty responses before
                        # they reach the resolver, so they count only
                        # against the sniffer, never the resolver.
                        empty_answers += 1
                        continue
                    responses += 1
                    answer_count += n
                    # -- DnsResolver.insert, inlined -----------------
                    burned += 1
                    floor += 1
                    if burned == sweep_at:
                        sweep_at = sweep(burned)
                    slot = burned % clist_size
                    fqdns[slot] = event.fqdn
                    inserted_at[slot] = event.timestamp
                    base = event.client_ip << 32
                    for server_ip in answers:
                        key = base | server_ip
                        old = ksetdefault(key, burned)
                        if old != burned:
                            key_to_burn[key] = burned
                            if old > floor:
                                replacements += 1
                elif cls is flow_cls:
                    fid = event.fid
                    # -- DnsResolver.lookup, inlined -----------------
                    lookups += 1
                    b = kget((fid.client_ip << 32) | fid.server_ip)
                    if b is None or b <= floor:
                        fqdn = None
                    else:
                        hits += 1
                        fqdn = fqdns[b % clist_size]
                    event.fqdn = fqdn
                    start = event.start
                    if trace_start is None:
                        trace_start = start
                    if start - trace_start < warmup:
                        warmup_skipped += 1
                    elif fqdn is None:
                        miss_append(event.protocol)
                    else:
                        hit_append(event.protocol)
                    append(event)
                else:
                    bail_event = event
                    break
        finally:
            resolver._floor = floor
            resolver._sweep_at = sweep_at
            resolver._responses = responses
            resolver._answers = answer_count
            resolver._replacements = replacements
            resolver._lookups = lookups
            resolver._hits = hits
            self._flush_tag_state(
                trace_start, warmup_skipped, empty_answers,
                hit_protocols, miss_protocols,
            )
        if bail_event is not None:
            self._process_event_generic(bail_event)
            return self._process_events_modular(events)
        return self.tagged_flows

    def _flush_tag_state(
        self,
        trace_start: Optional[float],
        warmup_skipped: int,
        empty_answers: int,
        hit_protocols: list[Protocol],
        miss_protocols: list[Protocol],
    ) -> None:
        """Merge the flat loop's local tag/sniffer accumulators back into
        the shared statistics (runs once per loop, off the hot path)."""
        if empty_answers:
            self.dns_sniffer.stats["empty_answers"] += empty_answers
        tagger = self.tagger
        tagger.trace_start = trace_start
        tagger.stats.warmup_skipped += warmup_skipped
        for bucket, protocols in (
            (tagger.stats.hits, hit_protocols),
            (tagger.stats.misses, miss_protocols),
        ):
            if protocols:
                for protocol, count in Counter(protocols).items():
                    bucket[protocol] = bucket.get(protocol, 0) + count

    def _process_event_generic(self, event) -> None:
        """Handle one event of non-exact type (subclass or foreign)."""
        if isinstance(event, DnsObservation):
            self.dns_sniffer.feed_observation(event)
        elif isinstance(event, FlowRecord):
            self._finish_flow(event)
        else:
            raise TypeError(
                f"unsupported event type {type(event).__name__}"
            )

    def process_trace(self, trace) -> list[FlowRecord]:
        """Convenience: run the event path over a simulation trace object.

        Accepts any object exposing ``iter_events()``.
        """
        return self.process_events(trace.iter_events())

    # -- fan-out plumbing --------------------------------------------------

    def _fanout_pipeline(self) -> FanoutPipeline:
        """The pipeline's worker pool, started lazily and kept across
        calls so resolver state persists exactly as it does in-process
        (a chunked event stream labels like a single stream).  Workers
        are daemons; call :meth:`close` for a deterministic shutdown."""
        if self._fanout is None:
            self._fanout = FanoutPipeline(
                processes=self.processes,
                clist_size=self.clist_size,
                warmup=self.tagger.warmup,
                batch_events=self.batch_events,
            )
        return self._fanout.start()

    def _store_drain(self) -> None:
        """Stream tagged flows emitted since the last drain into the
        attached flow store (durable-ingest mode; no-op otherwise).
        With ``retain_flows=False`` the drained prefix is dropped from
        the in-process list, so a multi-day run stays bounded by the
        store's spill budget instead of growing one record per flow.

        A payload whose ``ingest_batch`` raises is not retried — the
        store may have committed it before failing (a seal after the
        journal write) — but the payloads after it stay pending for
        the next drain or :meth:`close`, and the error propagates."""
        if self.flow_store is None:
            return
        unstored = self._unstored
        batches = rows = 0
        rejected = None
        try:
            # Loop until the window is empty: a rejected flow ends one
            # emit early, and the flows after it still belong to this
            # drain.
            while unstored or self._emitted_flows < len(self.tagged_flows):
                if not unstored:
                    try:
                        unstored += self.emit_tagged_batches(
                            self.batch_events
                        )
                    except CodecError as exc:
                        rejected = rejected or exc
                    continue
                rows += self.flow_store.ingest_batch(unstored.pop(0))
                batches += 1
        finally:
            if batches and self.store_drain_hook is not None:
                self.store_drain_hook(batches, rows)
            if not self.retain_flows and self._emitted_flows:
                # Emitted flows live on in their payloads.
                del self.tagged_flows[:self._emitted_flows]
                self._emitted_flows = 0
        if rejected is not None:
            raise rejected

    def install_signal_handlers(self, signals=None) -> None:
        """Close the pipeline gracefully on SIGTERM/SIGINT (drain the
        tagged flows into the attached flow store, seal its tail and
        journal, or reap fan-out workers), then re-deliver the signal so
        the process exits with the correct status — see
        :func:`repro.sniffer.fanout.install_shutdown_signals`."""
        install_shutdown_signals(self.close, signals)

    def close(self) -> None:
        """Drain into the flow store and seal it, or shut down the
        fan-out worker pool.

        With a ``flow_store`` attached, any not-yet-drained tagged
        flows are streamed in and the store's live tail is sealed, even
        when the drain fails.  With ``processes > 1`` the merged
        statistics (``tagger.stats``, :attr:`fanout_report`) survive
        the shutdown, and a later processing call restarts the pool
        with fresh worker state.
        """
        if self.flow_store is not None:
            try:
                self._store_drain()
            finally:
                self.flow_store.flush()
        self._close_fanout()

    def _close_fanout(self) -> None:
        if self._fanout is not None:
            self._fanout.close()
            self._fanout = None
            # A restarted pool reports from zero again; the absorb delta
            # must restart with it.
            self._fanout_baseline = None

    def _absorb_report(self, report: FanoutReport) -> None:
        """Fold a merged fan-out report into the shared statistics so
        ``hit_counts_by_protocol`` and friends work unchanged.

        Worker reports are cumulative over the pool's lifetime, so only
        the delta against the previously absorbed report is added;
        :attr:`fanout_report` always holds the current pool's cumulative
        totals.
        """
        previous = self._fanout_baseline
        stats = self.tagger.stats
        for bucket, merged, before in (
            (stats.hits, report.tag_stats.hits,
             previous.tag_stats.hits if previous else {}),
            (stats.misses, report.tag_stats.misses,
             previous.tag_stats.misses if previous else {}),
        ):
            for protocol, count in merged.items():
                delta = count - before.get(protocol, 0)
                if delta:
                    bucket[protocol] = bucket.get(protocol, 0) + delta
        stats.warmup_skipped += report.tag_stats.warmup_skipped - (
            previous.tag_stats.warmup_skipped if previous else 0
        )
        self.dns_sniffer.stats["empty_answers"] += report.empty_answers - (
            previous.empty_answers if previous else 0
        )
        self.fanout_report = report
        self._fanout_baseline = report

    # -- flow-database feed ------------------------------------------------

    def emit_tagged_batches(self, batch_events: int = 8192):
        """Tagged flows as eventcodec batches — the Flow Database feed.

        Returns the payloads ``FlowDatabase.ingest_batch`` absorbs.
        Each call emits only the flows tagged since the previous call,
        so a periodic emit→ingest loop stores every flow exactly once.
        The batches hold ``batch_events`` flows each, encoded from the
        new tail of the in-memory ``tagged_flows``.  A ``processes > 1``
        pipeline keeps no per-flow records, so it emits nothing.

        A flow the codec rejects is passed over once: the call returns
        the payloads of the flows before it, the next call raises its
        ``CodecError`` and the one after that goes on past it, so no
        other flow is lost or emitted twice.

        With a ``flow_store`` attached the pipeline drains this same
        cursor itself (that is how the store receives the flows), so a
        caller's own emit loop sees only what the store has not
        already absorbed — usually nothing.  Query the store instead;
        it holds every tagged flow exactly once.
        """
        payloads: list[bytes] = []
        encoder = BatchEncoder()
        add_flow = encoder.add_flow
        pending = self.tagged_flows[self._emitted_flows:]
        for pos in range(0, len(pending), batch_events):
            try:
                for flow in pending[pos:pos + batch_events]:
                    add_flow(flow)
            except CodecError:
                done = pos + encoder.n_flows   # the rejected flow's place
                if not done:
                    self._emitted_flows += 1
                    raise
                if encoder.n_flows:
                    payloads.append(encoder.take())
                self._emitted_flows += done
                return payloads
            payloads.append(encoder.take())
        self._emitted_flows += len(pending)
        return payloads

    # -- shared -----------------------------------------------------------

    def _finish_flow(self, flow: FlowRecord) -> None:
        self.tagger.tag(flow)
        if self.policy is not None:
            decision = self.policy.decide(flow)
            if not decision.allows:
                self.blocked_flows.append(flow)
                return
        self.tagged_flows.append(flow)
        if self._drain_every and (
            len(self.tagged_flows) - self._emitted_flows
            >= self._drain_every
        ):
            # Packet path / modular loop mid-run durability: spill to
            # the store every ~batch_events tagged flows.
            self._store_drain()

    def hit_counts_by_protocol(self) -> dict[Protocol, tuple[int, int]]:
        """(hits, total) per protocol after warm-up."""
        out = {}
        for protocol in Protocol:
            total = self.tagger.stats.total(protocol)
            if total:
                out[protocol] = (self.tagger.stats.hit_count(protocol), total)
        return out
