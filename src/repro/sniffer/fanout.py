"""Multi-process shard fan-out for the sniffer event path.

The fused single-interpreter loop (PR 1) tops out at ~1M events/s; this
module is the next lever named by the ROADMAP: partition events by
client IP across N worker processes, each running the fused
resolver+tagger loop over its own shard, fed by the compact binary
batches of :mod:`repro.sniffer.eventcodec` so a batch crosses the
process boundary as one buffer instead of N pickled objects.  FlowDNS
(Maghsoudlou et al.) applies the same recipe to correlate DNS and flow
streams at ISP scale.

Sharding uses :func:`repro.sniffer.sharding.shard_of` — the client
address' low octet, the paper's Sec. 3.1.1 odd/even example generalised
to N — so a client's DNS responses and flows always land on the same
worker and the merged statistics are identical to a single-process run
(eviction-free regime; once per-worker Clists wrap, each worker evicts
in its own FIFO order rather than the global one).

Events stream in as they arrive (:meth:`feed_events` and friends);
per-worker batches are bounded by ``max_pending`` in-flight batches
(workers ack each batch, the parent blocks before exceeding the bound —
a bounded queue with explicit backpressure), :meth:`collect` snapshots
merged statistics without stopping, :meth:`close` shuts down cleanly.

Workers keep per-shard :class:`DnsResolver` state plus tag counters and
return only counters — flow records are tallied where they are tagged,
never shipped back.  The pool is a statistics engine: nothing it tags
reaches a flow store (durable ingest runs in-process).

The worker's consume loop lifts whole batch columns into vectorised
``numpy`` code when numpy imports (key fusion, warm-up masks) and falls
back to pure ``struct`` otherwise — the capture side must run without
numpy; both paths replay the exact event interleaving recorded by the
codec flags, so statistics match the fused in-process loop bit for bit.
"""

from __future__ import annotations

import multiprocessing
import struct
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.net.flow import DnsObservation, FlowRecord, Protocol
from repro.sniffer.eventcodec import (
    BatchEncoder,
    BatchView,
    CodecError,
    DNS_HOT,
    FLOW_HOT,
    PROTOCOLS,
    encode_events,
)
from repro.sniffer.resolver import DnsResolver, ResolverStats
from repro.sniffer.sharding import shard_of
from repro.sniffer.tagger import TagStats

try:  # numpy accelerates the batch-column precompute; optional.
    import numpy as _np
except ImportError:  # pragma: no cover - the CI image ships numpy
    _np = None

_N_PROTO = len(PROTOCOLS)
_TS = struct.Struct("<d")

# Parent -> worker frame opcodes (first byte of every frame).
_OP_BATCH = b"B"      # + batch buffer; worker acks
_OP_TRACE = b"T"      # + f64 trace start hint; worker acks
_OP_RESET = b"R"      # drop all state; worker acks
_OP_FLUSH = b"F"      # worker replies with its report (pickled dict)
_OP_STOP = b"S"       # worker exits; no reply
_ACK = b"A"


class FanoutError(RuntimeError):
    """A worker process died or the pool was used out of order."""


def install_shutdown_signals(close, signals=None) -> None:
    """Run ``close()`` when a termination signal arrives, then die by it.

    The graceful-shutdown contract for daemon-style capture runs: on
    SIGTERM/SIGINT the pipeline drains its workers and seals the flow
    store's tail and journal, and only then is the signal re-delivered
    under its previous disposition — so the process still terminates
    with the correct signal status for supervisors (systemd, shell job
    control) and a second signal during a hung close is not swallowed.
    Main-thread only, like any :func:`signal.signal` call.
    """
    import os
    import signal as signal_module

    if signals is None:
        signals = (signal_module.SIGTERM, signal_module.SIGINT)
    previous_handlers = {}

    def _handler(signum, frame):
        previous = previous_handlers.get(signum)
        if not callable(previous) and previous not in (
            signal_module.SIG_DFL, signal_module.SIG_IGN
        ):
            # A non-Python handler (or None) cannot be reinstalled;
            # fall back to the default disposition.
            previous = signal_module.SIG_DFL
        try:
            close()
        finally:
            signal_module.signal(signum, previous)
            os.kill(os.getpid(), signum)

    for signum in signals:
        previous_handlers[signum] = signal_module.getsignal(signum)
        signal_module.signal(signum, _handler)


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


def _check_dns_blocks(view: BatchView, n_answers: int, name_bytes: int):
    """The hot records must consume the answer and name blocks exactly
    (a slice past the end would come back short, not raise)."""
    if (
        n_answers * 4 != len(view.dns_answers)
        or name_bytes != len(view.dns_names)
    ):
        raise CodecError("DNS blocks disagree with the hot records")


class _WorkerState:
    """Per-worker resolver + tag counters and the batch consume loop.

    ``use_numpy`` picks the batch-column precompute: the vectorised one
    (the worker process passes it whenever numpy imports) or the
    pure-``struct`` one.
    """

    def __init__(self, clist_size: int, warmup: float, use_numpy: bool):
        self.resolver = DnsResolver(clist_size=clist_size)
        self.warmup = warmup
        self.use_numpy = use_numpy
        self.trace_start: Optional[float] = None
        self.hit_counts = [0] * _N_PROTO
        self.miss_counts = [0] * _N_PROTO
        self.warmup_skipped = 0
        self.empty_answers = 0
        self.events = 0
        self.flows = 0

    # -- batch-column precompute ------------------------------------------

    def _flow_columns(self, view: BatchView):
        """(fused keys, in-warm-up flags, protocol indexes) per flow."""
        if self.use_numpy:
            hot = _np.frombuffer(view.flow_hot, dtype=_FLOW_DT)
            starts = hot["start"]
            if self.trace_start is None:
                self.trace_start = float(starts[0])
            keys = ((hot["client"].astype(_np.uint64) << 32)
                    | hot["server"]).tolist()
            warm = ((starts - self.trace_start) < self.warmup).tolist()
            return keys, warm, hot["proto"].tolist()
        clients, servers, starts, protos = zip(
            *FLOW_HOT.iter_unpack(view.flow_hot)
        )
        if self.trace_start is None:
            self.trace_start = starts[0]
        trace_start = self.trace_start
        warmup = self.warmup
        keys = [(c << 32) | s for c, s in zip(clients, servers)]
        warm = [(s - trace_start) < warmup for s in starts]
        return keys, warm, protos

    def _dns_columns(self, view: BatchView):
        """(fused answer keys, answer counts, timestamps, name offsets)."""
        if self.use_numpy:
            hot = _np.frombuffer(view.dns_hot, dtype=_DNS_DT)
            n_arr = hot["n"]
            _check_dns_blocks(view, int(n_arr.sum()), int(hot["fl"].sum()))
            answers = _np.frombuffer(view.dns_answers, dtype="<u4")
            keys = ((_np.repeat(hot["client"].astype(_np.uint64), n_arr)
                     << 32) | answers.astype(_np.uint64)).tolist()
            offsets = _np.empty(len(hot) + 1, dtype=_np.int64)
            offsets[0] = 0
            _np.cumsum(hot["fl"], out=offsets[1:])
            return (keys, n_arr.tolist(), hot["ts"].tolist(),
                    offsets.tolist())
        clients, timestamps, counts, name_lens = zip(
            *DNS_HOT.iter_unpack(view.dns_hot)
        )
        _check_dns_blocks(view, sum(counts), sum(name_lens))
        answers = struct.unpack(
            f"<{len(view.dns_answers) // 4}I", view.dns_answers
        )
        keys = []
        append = keys.append
        a_pos = 0
        for client, n in zip(clients, counts):
            base = client << 32
            for server in answers[a_pos:a_pos + n]:
                append(base | server)
            a_pos += n
        offsets = [0]
        total = 0
        for length in name_lens:
            total += length
            offsets.append(total)
        return keys, list(counts), list(timestamps), offsets

    # -- the consume loop --------------------------------------------------

    def consume(self, buf) -> None:
        """Replay one batch through the fused resolver+tagger loop.

        Mirrors ``SnifferPipeline._process_events_flat`` — resolver
        state in locals, identical insert/lookup bodies — over codec
        columns instead of event objects.  Labels are kept as the raw
        UTF-8 name bytes and never decoded (the worker reports counters
        only); lookup results and every counter match the in-process
        loop exactly.
        """
        view = BatchView(buf)
        if view.n_flows:
            fkeys, fwarm, fproto = self._flow_columns(view)
        else:
            fkeys = fwarm = fproto = ()
        if view.n_dns:
            dkeys, dcounts, dtimes, name_offs = self._dns_columns(view)
            names = bytes(view.dns_names)
        else:
            dkeys = dcounts = dtimes = ()
            name_offs = (0,)
            names = b""

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
        hits = resolver._hits
        hit_counts = self.hit_counts
        miss_counts = self.miss_counts
        warmup_skipped = self.warmup_skipped
        empty = 0
        fpos = dpos = kpos = 0
        try:
            for flag in bytes(view.flags):
                if flag:
                    # -- DNS response: DnsResolver.insert, inlined ------
                    n = dcounts[dpos]
                    if not n:
                        # Empty responses stop at the sniffer, exactly
                        # like the in-process fused loop.
                        empty += 1
                        dpos += 1
                        continue
                    responses += 1
                    answer_count += n
                    burned += 1
                    floor += 1
                    if burned == sweep_at:
                        sweep_at = sweep(burned)
                    slot = burned % clist_size
                    fqdns[slot] = names[name_offs[dpos]:name_offs[dpos + 1]]
                    inserted_at[slot] = dtimes[dpos]
                    dpos += 1
                    stop = kpos + n
                    for key in dkeys[kpos:stop]:
                        old = ksetdefault(key, burned)
                        if old != burned:
                            key_to_burn[key] = burned
                            if old > floor:
                                replacements += 1
                    kpos = stop
                else:
                    # -- flow: DnsResolver.lookup + tagger, inlined -----
                    b = kget(fkeys[fpos])
                    if b is None or b <= floor:
                        if fwarm[fpos]:
                            warmup_skipped += 1
                        else:
                            miss_counts[fproto[fpos]] += 1
                    else:
                        hits += 1
                        if fwarm[fpos]:
                            warmup_skipped += 1
                        else:
                            hit_counts[fproto[fpos]] += 1
                    fpos += 1
        finally:
            resolver._floor = floor
            resolver._sweep_at = sweep_at
            resolver._responses = responses
            resolver._answers = answer_count
            resolver._replacements = replacements
            resolver._lookups += fpos
            resolver._hits = hits
            self.warmup_skipped = warmup_skipped
            self.empty_answers += empty
            self.events += fpos + dpos
            self.flows += fpos

    def report(self) -> dict:
        stats = self.resolver.stats
        return {
            "resolver": (
                stats.responses, stats.answers, stats.lookups,
                stats.hits, stats.replacements, stats.overwrites,
            ),
            "hit_counts": list(self.hit_counts),
            "miss_counts": list(self.miss_counts),
            "warmup_skipped": self.warmup_skipped,
            "empty_answers": self.empty_answers,
            "events": self.events,
            "flows": self.flows,
        }


if _np is not None:
    # Unaligned little-endian views of the codec's packed hot blocks.
    _FLOW_DT = _np.dtype(
        {"names": ["client", "server", "start", "proto"],
         "formats": ["<u4", "<u4", "<f8", "u1"],
         "offsets": [0, 4, 8, 16], "itemsize": FLOW_HOT.size})
    _DNS_DT = _np.dtype(
        {"names": ["client", "ts", "n", "fl"],
         "formats": ["<u4", "<f8", "u1", "<u2"],
         "offsets": [0, 4, 12, 13], "itemsize": DNS_HOT.size})


def _worker_main(conn, clist_size: int, warmup: float) -> None:
    """Worker process loop: frames in, acks/reports out."""
    use_numpy = _np is not None
    state = _WorkerState(clist_size, warmup, use_numpy)
    try:
        while True:
            try:
                frame = conn.recv_bytes()
            except EOFError:
                return
            op = frame[:1]
            if op == _OP_BATCH:
                state.consume(memoryview(frame)[1:])
                conn.send_bytes(_ACK)
            elif op == _OP_TRACE:
                if state.trace_start is None:
                    (state.trace_start,) = _TS.unpack_from(frame, 1)
                conn.send_bytes(_ACK)
            elif op == _OP_FLUSH:
                conn.send(state.report())
            elif op == _OP_RESET:
                state = _WorkerState(clist_size, warmup, use_numpy)
                conn.send_bytes(_ACK)
            elif op == _OP_STOP:
                return
            else:
                raise FanoutError(f"unknown frame opcode {op!r}")
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


@dataclass
class FanoutReport:
    """Merged statistics from all workers after a fan-out run."""

    processes: int
    events: int
    flows: int
    resolver_stats: ResolverStats
    tag_stats: TagStats
    empty_answers: int
    worker_events: list[int] = field(default_factory=list)

    @property
    def tagged_flows(self) -> int:
        """Flows that received a label (== resolver lookup hits)."""
        return self.resolver_stats.hits

    def hit_counts_by_protocol(self) -> dict[Protocol, tuple[int, int]]:
        out = {}
        for protocol in Protocol:
            total = self.tag_stats.total(protocol)
            if total:
                out[protocol] = (self.tag_stats.hit_count(protocol), total)
        return out


class FanoutPipeline:
    """Partition events across worker processes, merge their statistics.

    Args:
        processes: worker count (the shard count).
        clist_size: total Clist budget, split evenly across workers.
        warmup: statistics warm-up window in seconds.
        batch_events: events buffered per shard before a batch is
            encoded and dispatched.
        max_pending: bound on unacknowledged batches per worker — the
            streaming mode's queue depth; :meth:`feed` blocks when a
            worker falls this far behind.
        start_method: multiprocessing start method (default ``fork``
            where available — workers inherit the warm interpreter).
    """

    def __init__(
        self,
        processes: int = 2,
        clist_size: int = 100_000,
        warmup: float = 300.0,
        batch_events: int = 8192,
        max_pending: int = 4,
        start_method: Optional[str] = None,
    ):
        if processes <= 0:
            raise ValueError("processes must be positive")
        if batch_events <= 0:
            raise ValueError("batch_events must be positive")
        if max_pending <= 0:
            raise ValueError("max_pending must be positive")
        self.processes = processes
        self.clist_size = clist_size
        self.warmup = warmup
        self.batch_events = batch_events
        self.max_pending = max_pending
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self.start_method = start_method
        self._encoders = [BatchEncoder() for _ in range(processes)]
        self._conns: list = []
        self._procs: list = []
        self._pending = [0] * processes
        self._trace_start: Optional[float] = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def started(self) -> bool:
        return bool(self._procs)

    def start(self) -> "FanoutPipeline":
        """Spawn the worker pool (idempotent)."""
        if self.started:
            return self
        ctx = multiprocessing.get_context(self.start_method)
        per_worker = max(1, self.clist_size // self.processes)
        for index in range(self.processes):
            parent, child = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_worker_main,
                args=(child, per_worker, self.warmup),
                name=f"fanout-worker-{index}",
                daemon=True,
            )
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)
        return self

    def close(self) -> None:
        """Stop all workers and reap them (idempotent)."""
        if not self.started:
            return
        for index, conn in enumerate(self._conns):
            try:
                while self._pending[index]:
                    conn.recv_bytes()
                    self._pending[index] -= 1
                conn.send_bytes(_OP_STOP)
            except (OSError, EOFError, BrokenPipeError):
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=5)
        self._conns = []
        self._procs = []
        self._pending = [0] * self.processes
        self._trace_start = None
        # Unflushed events must not leak into a later start()/collect().
        self._encoders = [BatchEncoder() for _ in range(self.processes)]

    def __enter__(self) -> "FanoutPipeline":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- frame plumbing ----------------------------------------------------

    def _worker_failed(self, index: int, cause: BaseException) -> FanoutError:
        proc = self._procs[index]
        proc.join(timeout=1)
        return FanoutError(
            f"fan-out worker {index} died "
            f"(exitcode {proc.exitcode}): {cause!r}"
        )

    def _recv_ack(self, index: int) -> None:
        try:
            reply = self._conns[index].recv_bytes()
        except (EOFError, OSError) as exc:
            raise self._worker_failed(index, exc) from exc
        if reply != _ACK:  # pragma: no cover - protocol bug guard
            raise FanoutError(f"worker {index} sent {reply!r}, wanted ack")
        self._pending[index] -= 1

    def _send_frame(self, index: int, frame) -> None:
        while self._pending[index] >= self.max_pending:
            self._recv_ack(index)
        try:
            self._conns[index].send_bytes(frame)
        except (BrokenPipeError, OSError) as exc:
            raise self._worker_failed(index, exc) from exc
        self._pending[index] += 1

    def _require_started(self) -> None:
        if not self.started:
            raise FanoutError("pool not started; call start() first")

    def send_encoded(self, shard: int, payload: bytes) -> None:
        """Dispatch an already-encoded codec batch to one worker.

        This is the pre-encoded ingest path: callers that persist or
        pre-shard binary batches (and the benchmark harness) push them
        here without touching event objects.
        """
        self._require_started()
        self._send_frame(shard, _OP_BATCH + payload)

    def set_trace_start(self, timestamp: float) -> None:
        """Broadcast the global first-flow timestamp to all workers.

        Workers seeing only their shard would otherwise anchor the
        warm-up window at their own first flow; the hint keeps the
        warm-up accounting identical to a single-process run.  The feed
        path sends it automatically; pre-encoded ingest must call it."""
        self._require_started()
        if self._trace_start is None:
            self._trace_start = timestamp
            frame = _OP_TRACE + _TS.pack(timestamp)
            for index in range(self.processes):
                self._send_frame(index, frame)

    def _dispatch(self, shard: int) -> None:
        encoder = self._encoders[shard]
        if len(encoder):
            self.send_encoded(shard, encoder.take())

    # -- feeding -----------------------------------------------------------

    def feed_dns(self, client_ip: int, fqdn: str, answers,
                 timestamp: float = 0.0, ttl: int = 300,
                 useless: bool = False) -> None:
        """Route one decoded DNS response to its shard."""
        self._require_started()
        shard = shard_of(client_ip, self.processes)
        encoder = self._encoders[shard]
        encoder.add_dns_fields(client_ip, fqdn, answers, timestamp,
                               ttl, useless)
        if len(encoder) >= self.batch_events:
            self._dispatch(shard)

    def feed_flow(self, flow: FlowRecord) -> None:
        """Route one reconstructed flow to its shard."""
        self._require_started()
        if self._trace_start is None:
            self.set_trace_start(flow.start)
        shard = shard_of(flow.fid.client_ip, self.processes)
        encoder = self._encoders[shard]
        encoder.add_flow(flow)
        if len(encoder) >= self.batch_events:
            self._dispatch(shard)

    def feed(self, event) -> None:
        """Route one event (DNS observation or flow record)."""
        if isinstance(event, DnsObservation):
            self.feed_dns(event.client_ip, event.fqdn, event.answers,
                          event.timestamp, event.ttl, event.useless)
        elif isinstance(event, FlowRecord):
            self.feed_flow(event)
        else:
            raise TypeError(
                f"unsupported event type {type(event).__name__}"
            )

    def feed_events(self, events: Iterable) -> None:
        for event in events:
            self.feed(event)

    def flush(self) -> None:
        """Dispatch all partially-filled shard batches."""
        self._require_started()
        for shard in range(self.processes):
            self._dispatch(shard)

    # -- collection --------------------------------------------------------

    def collect(self) -> FanoutReport:
        """Flush, then merge every worker's statistics (non-destructive:
        workers keep their state and the stream may continue)."""
        self.flush()
        for index, conn in enumerate(self._conns):
            while self._pending[index]:
                self._recv_ack(index)
            try:
                conn.send_bytes(_OP_FLUSH)
            except (BrokenPipeError, OSError) as exc:
                raise self._worker_failed(index, exc) from exc
        reports = []
        for index, conn in enumerate(self._conns):
            try:
                reports.append(conn.recv())
            except (EOFError, OSError) as exc:
                raise self._worker_failed(index, exc) from exc
        return self._merge(reports)

    def reset(self) -> None:
        """Drop all worker state (a fresh pipeline without respawning)."""
        self._require_started()
        self._trace_start = None
        for index in range(self.processes):
            self._encoders[index] = BatchEncoder()
            self._send_frame(index, _OP_RESET)
        for index in range(self.processes):
            while self._pending[index]:
                self._recv_ack(index)

    def _merge(self, reports: list[dict]) -> FanoutReport:
        resolver_stats = ResolverStats()
        tag_stats = TagStats()
        empty_answers = 0
        events = 0
        flows = 0
        worker_events = []
        for report in reports:
            resolver_stats.merge(ResolverStats(*report["resolver"]))
            for index, count in enumerate(report["hit_counts"]):
                if count:
                    protocol = PROTOCOLS[index]
                    tag_stats.hits[protocol] = (
                        tag_stats.hits.get(protocol, 0) + count
                    )
            for index, count in enumerate(report["miss_counts"]):
                if count:
                    protocol = PROTOCOLS[index]
                    tag_stats.misses[protocol] = (
                        tag_stats.misses.get(protocol, 0) + count
                    )
            tag_stats.warmup_skipped += report["warmup_skipped"]
            empty_answers += report["empty_answers"]
            events += report["events"]
            flows += report["flows"]
            worker_events.append(report["events"])
        return FanoutReport(
            processes=self.processes,
            events=events,
            flows=flows,
            resolver_stats=resolver_stats,
            tag_stats=tag_stats,
            empty_answers=empty_answers,
            worker_events=worker_events,
        )

    # -- pre-encoded ingest helpers ---------------------------------------

    @staticmethod
    def encode_shards(
        events: Iterable, processes: int, batch_events: int = 8192
    ) -> list[list[bytes]]:
        """Partition an event stream and encode per-shard batch buffers.

        The returned payloads are what :meth:`send_encoded` consumes —
        the interpreter-independent ingest format that can be prepared
        once (or persisted) and drained many times.
        """
        if processes <= 0:
            raise ValueError("processes must be positive")
        shards: list[list] = [[] for _ in range(processes)]
        for event in events:
            if isinstance(event, DnsObservation):
                shards[shard_of(event.client_ip, processes)].append(event)
            elif isinstance(event, FlowRecord):
                shards[
                    shard_of(event.fid.client_ip, processes)
                ].append(event)
            else:
                raise TypeError(
                    f"unsupported event type {type(event).__name__}"
                )
        return [
            [
                encode_events(shard[pos:pos + batch_events])
                for pos in range(0, len(shard), batch_events)
            ]
            for shard in shards
        ]
