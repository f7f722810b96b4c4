"""Sharded Flow Database: a scatter-gather coordinator over N FlowStores.

One :class:`FlowStore` scales until a single directory's segment scan —
or a single Python process — becomes the bottleneck.  This module
splits the store horizontally instead: a :class:`ShardRouter` assigns
every ingested event to one of *N* shards by client address (the
paper's natural per-user partition, Sec. 3.1.1), each shard is a full
:class:`FlowStore` — WAL, quarantine, snapshot pins and footer
metadata all intact — and a :class:`ShardCoordinator` fans every query
out to all shards and merges the partial results **bit-identically**
to one flat store holding the same rows.

Topology::

    ShardCoordinator(root/)           SHARDS.json   (fixed topology)
      |- shard-00/                    a complete FlowStore
      |    |- MANIFEST.json  tail.wal  seg-*.fseg  quarantine/
      |- shard-01/
      |- ...

:func:`open_store` opens either kind of directory (and
:func:`store_kind` tells them apart); no other module looks at the
topology or manifest file names.

Two execution backends share one op protocol (:func:`_shard_execute`):

* ``backend="inprocess"`` keeps all N stores in this process — the
  default, zero extra moving parts;
* ``backend="process"`` runs one OS process per shard over a duplex
  pipe (the ``repro.sniffer.fanout`` discipline), which doubles as a
  process-pool rescue for ``parallel=N`` deployments where the GIL
  makes the flat store's thread pool useless.

Merge contract
--------------

The coordinator's global row space is the shard-major concatenation
``shard-00 rows ++ shard-01 rows ++ ...``.  Every query result equals
the same query against one flat ``FlowStore`` that ingested the rows
in that shard-major order (the differential suite in
``tests/test_shard_differential.py`` enforces this property).  Two sharding-specific caveats:

* global row indices are positions in the concatenation, so they are
  stable only while no ingest runs (a flat store only ever appends at
  the end; a sharded one grows every shard's slice in place);
* interned fqdn/sld ids follow *query-time* first-appearance order
  over the shard-major label tables, which equals the flat store's
  order once the store is quiescent.  Under interleaved multi-round
  ingest the id *assignment* may differ while every id↔label mapping
  stays consistent — compare name-keyed surfaces in that regime.

Manifest-only pruning
---------------------

``prune_report`` answers "which segments would this hint scan" from
the shards' ``MANIFEST.json`` files alone: the v2 manifest carries a
verified copy of every segment footer's pruning metadata
(:meth:`SegmentMeta.from_manifest`), so the report opens **zero**
segment files — the backend is not even started.  That is what makes
the report safe to run against a store another process is serving.
"""

from __future__ import annotations

import json
import multiprocessing
import threading
from array import array
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.analytics.database import FlowDatabase
from repro.analytics.queries import (
    INTERNS,
    QUERIES,
    Query,
    QuerySurface,
    split_rows,
)
from repro.analytics.storage import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    SHARDS_NAME,
    FlowStore,
    QueryHint,
    StorageError,
    _checked_sizing,
    _write_file_atomic,
    read_manifest,
)
from repro.net.flow import FlowRecord
from repro.sniffer.eventcodec import BatchEncoder, decode_events
from repro.sniffer.sharding import shard_of

SHARDS_FORMAT = 1


class ShardError(StorageError):
    """A shard backend failed structurally (dead worker, bad reply)."""


# ---------------------------------------------------------------------------
# routing


class ShardRouter:
    """Deterministic event→shard assignment on the client address.

    Routes on the low client-address byte
    (:func:`repro.sniffer.sharding.shard_of` — the same hash the live
    capture fan-out uses, so a sniffer shard and a store shard can be
    pinned one-to-one).
    """

    __slots__ = ("shards",)

    def __init__(self, shards: int):
        if not isinstance(shards, int) or shards < 1:
            raise StorageError(f"shards must be a positive int, not {shards!r}")
        self.shards = shards

    def shard_for(self, event) -> int:
        """Shard index of one :class:`FlowRecord` / :class:`DnsObservation`."""
        client_ip = (
            event.fid.client_ip if isinstance(event, FlowRecord)
            else event.client_ip
        )
        return shard_of(client_ip, self.shards)

    def split_flows(self, flows: Iterable[FlowRecord]) -> list[list[FlowRecord]]:
        """Partition a flow iterable into per-shard lists, order kept."""
        out: list[list[FlowRecord]] = [[] for _ in range(self.shards)]
        for flow in flows:
            out[self.shard_for(flow)].append(flow)
        return out

    def split_batch(self, payload) -> list[bytes]:
        """Re-encode one eventcodec batch into per-shard batches.

        Event order within a shard is preserved; an empty shard gets a
        valid zero-event batch (``ingest_batch`` of it is a no-op).
        """
        encoders = [BatchEncoder() for _ in range(self.shards)]
        for event in decode_events(payload):
            encoders[self.shard_for(event)].add(event)
        return [encoder.take() for encoder in encoders]

    def config(self) -> dict:
        return {
            "format": SHARDS_FORMAT,
            "shards": self.shards,
            "by": "client",
        }


# ---------------------------------------------------------------------------
# the per-shard op protocol (shared by both backends)

# Every table query is a worker op by name: the worker runs the store's
# own executor and replies with the merged partial *unfinished*, in
# shard-local ids and rows, for the coordinator to lift and merge once
# more.  Besides those, only these lifecycle ops (dispatched to the
# FlowStore method of the same name) and "ping" are accepted — the
# worker never getattr()s an arbitrary request string.
_LIFECYCLE_OPS = frozenset({
    "add_all", "ingest_batch", "flush", "compact", "stats", "health",
    "counters",
})


def _shard_execute(store: FlowStore, op: str, args: tuple,
                   known_fqdns: int) -> dict:
    """Run one op against one shard store and describe the outcome.

    Every reply piggybacks the shard's label-table growth since the
    coordinator's last sync (``known_fqdns`` is the length it has
    already absorbed) plus the current row count — the coordinator
    needs both to remap shard-local ids and to place the shard's slice
    in the global row space (``"ping"`` asks for nothing else).  The
    label capture runs *after* the op, so any label the op itself
    interned (a live tail sync) is already included.
    """
    query = QUERIES.get(op)
    if query is not None:
        result = store._partial(query, args)
    elif op in _LIFECYCLE_OPS:
        result = getattr(store, op)(*args)
    elif op == "ping":
        result = None
    else:
        raise StorageError(f"unknown shard op {op!r}")
    return {
        "result": result,
        "new_fqdns": store._label_tables()._fqdn_names[known_fqdns:],
        "n_rows": len(store),
    }


# ---------------------------------------------------------------------------
# backends


class _InProcessBackend:
    """All N shard stores live in this process; requests run serially
    in shard order (each store still applies its own ``parallel``
    thread pool to its own segments)."""

    kind = "inprocess"

    def __init__(self, directories: Sequence[Path], store_kwargs: dict):
        self.stores: list[FlowStore] = []
        try:
            for directory in directories:
                self.stores.append(FlowStore(directory, **store_kwargs))
        except BaseException:
            self.close()
            raise

    def request_all(self, requests: Sequence[tuple],
                    token=None) -> list[dict]:
        replies = []
        for store, request in zip(self.stores, requests):
            if token is not None:
                token.check()
            replies.append(_shard_execute(store, *request))
            if token is not None:
                token.note_done()
        return replies

    def close(self) -> None:
        for store in self.stores:
            store.close()
        self.stores = []


def _shard_worker_main(conn, directory: str, store_kwargs: dict) -> None:
    """One shard's process: open the store, answer ops until EOF/stop.

    Startup is handshaked — ``("ready", None)`` or ``("fatal", msg)`` —
    so an open failure (e.g. ``strict=True`` over a quarantined shard)
    surfaces as a :class:`ShardError` in the parent instead of a bare
    dead pipe.  A ``None`` request is the stop signal: seal the tail,
    close the store, acknowledge, exit.
    """
    store = None
    try:
        try:
            store = FlowStore(directory, **store_kwargs)
        except Exception as exc:
            conn.send(("fatal", f"{type(exc).__name__}: {exc}"))
            return
        conn.send(("ready", None))
        while True:
            try:
                request = conn.recv()
            except EOFError:
                return
            if request is None:
                store.close()
                store = None
                try:
                    conn.send(("ok", None))
                except OSError:
                    pass
                return
            try:
                reply = ("ok", _shard_execute(store, *request))
            except Exception as exc:
                reply = ("err", f"{type(exc).__name__}: {exc}")
            conn.send(reply)
    finally:
        if store is not None:
            try:
                store.close()
            except Exception:
                pass
        conn.close()


class _ProcessBackend:
    """One OS process per shard over a duplex pipe (the ``fanout``
    worker discipline): pickled ``(op, args, known_fqdns)``
    requests down, ``("ok", reply)`` / ``("err", message)`` up.

    ``fork`` is preferred when available: a forked worker starts from
    the parent's imported modules instead of importing numpy and the
    store again."""

    kind = "process"

    def __init__(self, directories: Sequence[Path], store_kwargs: dict,
                 start_method: Optional[str] = None):
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        ctx = multiprocessing.get_context(start_method)
        self._procs: list = []
        self._conns: list = []
        try:
            for index, directory in enumerate(directories):
                parent, child = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=_shard_worker_main,
                    args=(child, str(directory), dict(store_kwargs)),
                    name=f"flowstore-shard-{index:02d}",
                    daemon=True,
                )
                proc.start()
                child.close()
                self._procs.append(proc)
                self._conns.append(parent)
            for index, conn in enumerate(self._conns):
                try:
                    status, payload = conn.recv()
                except EOFError:
                    raise self._dead(index) from None
                if status != "ready":
                    raise ShardError(f"shard {index}: {payload}")
        except BaseException:
            self.close()
            raise

    def _dead(self, index: int) -> ShardError:
        exitcode = self._procs[index].exitcode
        return ShardError(
            f"shard worker {index} died (exitcode {exitcode})"
        )

    def request_all(self, requests: Sequence[tuple],
                    token=None) -> list[dict]:
        if token is not None:
            token.check()  # nothing is sent for an expired request
        for conn, request in zip(self._conns, requests):
            try:
                conn.send(request)
            except OSError as exc:
                raise ShardError(f"shard pipe broken: {exc}") from exc
        replies: list = []
        first_error: Optional[str] = None
        cancelled: Optional[Exception] = None
        # Drain every pipe before raising, so neither a failed shard
        # nor a cancelled request can desynchronize the request/reply
        # framing of the others.
        for index, conn in enumerate(self._conns):
            try:
                status, payload = conn.recv()
            except EOFError:
                raise self._dead(index) from None
            if status == "err":
                if first_error is None:
                    first_error = f"shard {index}: {payload}"
                replies.append(None)
            else:
                replies.append(payload)
            if token is not None and cancelled is None:
                token.note_done()
                try:
                    token.check()
                except Exception as exc:  # re-raised once drained
                    cancelled = exc
        if first_error is not None:
            raise ShardError(first_error)
        if cancelled is not None:
            raise cancelled
        return replies

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(None)
                try:
                    conn.recv()
                except EOFError:
                    pass
            except OSError:
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=5)
        self._procs = []
        self._conns = []


_BACKENDS = {"inprocess": _InProcessBackend, "process": _ProcessBackend}


# ---------------------------------------------------------------------------
# serve-layer pinning


class CoordinatorSnapshot(QuerySurface):
    """The coordinator's answer to :meth:`FlowStore.pin`.

    A flat store's snapshot freezes the segment list; the coordinator
    delegates every read to the live coordinator instead — each fanned
    query still executes over per-shard :meth:`_view` captures, so a
    single query is internally consistent, but two reads through one
    snapshot may observe different generations if ingest runs between
    them.  That weaker isolation is exactly what the serve layer's
    per-request pin can tolerate (one query per pin).

    What the snapshot does own is the request's :attr:`cancel_token`
    (the :class:`StoreSnapshot` protocol): every table query issued
    through it fans out under that token.
    """

    __slots__ = ("_coordinator", "cancel_token")

    def __init__(self, coordinator: "ShardCoordinator"):
        self._coordinator = coordinator
        self.cancel_token = None

    def _partial(self, query: Query, args: tuple):
        return self._coordinator._partial(query, args, self.cancel_token)

    def __getattr__(self, name):
        return getattr(self._coordinator, name)

    @property
    def released(self) -> bool:
        return False

    def close(self) -> None:
        return None

    def __enter__(self) -> "CoordinatorSnapshot":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# the coordinator


class ShardCoordinator(QuerySurface):
    """Scatter-gather façade over N shard FlowStores (see module doc).

    Construction is cheap and lazy: shard stores (or worker processes)
    start on the first fanned operation, so metadata-only paths —
    :meth:`prune_report` above all — never open a single segment file.
    The public query surface is the one generated from the query table
    (:mod:`repro.analytics.queries`); :meth:`_partial` is the table's
    executor for sources = shards, applying to per-shard partials the
    very lift and merge the flat store applies to per-segment ones.
    """

    #: Duck-typing discriminator for callers (CLI, serve) that treat a
    #: flat FlowStore and a coordinator through one variable.
    sharded = True

    def __init__(self, directory, shards: Optional[int] = None,
                 backend: str = "inprocess",
                 start_method: Optional[str] = None,
                 spill_rows: Optional[int] = None,
                 spill_bytes: Optional[int] = None,
                 parallel: Optional[int] = None,
                 wal: bool = True,
                 strict: bool = False):
        if backend not in _BACKENDS:
            raise StorageError(
                f"unknown shard backend {backend!r} "
                f"(expected one of {tuple(_BACKENDS)})"
            )
        # The shard stores open lazily (and, with backend="process", in
        # another process): reject a bad sizing knob here, before the
        # topology file exists, with the error FlowStore would raise.
        _checked_sizing(spill_rows, spill_bytes, parallel)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.router = self._load_or_create_topology(shards)
        self.shards = self.router.shards
        self.backend_kind = backend
        self._start_method = start_method
        self._store_kwargs = {
            "spill_rows": spill_rows,
            "spill_bytes": spill_bytes,
            "parallel": parallel,
            "wal": wal,
            "strict": strict,
        }
        self._backend = None
        self._closed = False
        self._lock = threading.RLock()
        # Coordinator-global label tables: one FlowDatabase used purely
        # as an interner, fed shard-major so quiescent id order matches
        # the flat oracle's.  _fqdn_maps[k][local_id] -> global id.
        self._interns = FlowDatabase()
        self._fqdn_maps = [array("i") for _ in range(self.shards)]
        self._rows = [0] * self.shards

    # -- topology ----------------------------------------------------------

    def _load_or_create_topology(self, shards) -> ShardRouter:
        path = self.directory / SHARDS_NAME
        if path.exists():
            try:
                config = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                raise StorageError(
                    f"unreadable shard topology {path}: {exc}"
                ) from exc
            if (
                not isinstance(config, dict)
                or config.get("format") != SHARDS_FORMAT
            ):
                raise StorageError(f"unsupported shard topology {path}")
            # Client address is the only routing key: every append to a
            # root routed any other way would land in the wrong shard,
            # so such a root is refused, not reinterpreted.
            if config.get("by", "client") != "client":
                raise StorageError(
                    f"store at {self.directory} routes by "
                    f"{config.get('by')!r}; only 'client' is supported"
                )
            router = ShardRouter(config.get("shards"))
            # The on-disk topology is authoritative: rows were routed
            # with it, so opening with different parameters would
            # silently misroute every future ingest.
            if shards is not None and shards != router.shards:
                raise StorageError(
                    f"store at {self.directory} has {router.shards} "
                    f"shards, not {shards}"
                )
            return router
        if shards is None:
            raise StorageError(
                f"no shard topology at {path}; pass shards=N to create one"
            )
        if (self.directory / MANIFEST_NAME).exists():
            raise StorageError(
                f"{self.directory} already holds a flat store; it "
                f"cannot become a sharded root"
            )
        router = ShardRouter(shards)
        payload = json.dumps(router.config(), indent=2) + "\n"
        _write_file_atomic(path, [payload.encode("utf-8")], "shard topology")
        return router

    def shard_directory(self, index: int) -> Path:
        return self.directory / f"shard-{index:02d}"

    # -- fan plumbing ------------------------------------------------------

    def _ensure_backend(self):
        if self._closed:
            raise StorageError("coordinator is closed")
        if self._backend is None:
            directories = [
                self.shard_directory(k) for k in range(self.shards)
            ]
            factory = _BACKENDS[self.backend_kind]
            if self.backend_kind == "process":
                self._backend = factory(
                    directories, self._store_kwargs, self._start_method
                )
            else:
                self._backend = factory(directories, self._store_kwargs)
        return self._backend

    def _absorb(self, index: int, reply: dict) -> None:
        """Fold one shard reply's label growth and row count into the
        coordinator tables (shard-major callers preserve global
        first-appearance order)."""
        self._rows[index] = reply["n_rows"]
        intern = self._interns._intern_fqdn  # interns the label's sld too
        self._fqdn_maps[index].extend(map(intern, reply["new_fqdns"]))

    def _fan(self, op: str, args: tuple = (),
             per_shard_args: Optional[Sequence[tuple]] = None,
             token=None) -> list:
        """Send one op to every shard, absorb replies in shard order,
        return the per-shard results (shard order).

        ``token`` is a query's cancellation token (see
        ``_StoreReadMixin.cancel_token``): checked at every shard
        boundary in-process, before fan-out and after each gathered
        reply over worker pipes, with one unit of partial-work
        accounting per shard."""
        with self._lock:
            backend = self._ensure_backend()
            if token is not None:
                token.note_scheduled(self.shards)
            requests = [
                (
                    op,
                    per_shard_args[k] if per_shard_args is not None else args,
                    len(self._fqdn_maps[k]),
                )
                for k in range(self.shards)
            ]
            replies = backend.request_all(requests, token)
            results = []
            for index, reply in enumerate(replies):
                self._absorb(index, reply)
                results.append(reply["result"])
            return results

    def _bases(self) -> list[int]:
        return list(accumulate(self._rows[:-1], initial=0))

    def _partial(self, query: Query, args: tuple, token=None):
        """One table query over the shards: every worker runs the
        query through its own store executor, and its merged partial
        is lifted through the shard's id map and base row and merged
        again here (``QuerySurface._query`` finishes it)."""
        with self._lock:
            if query.scope is INTERNS:
                self._fan("ping", token=token)
                return query.kernel(self._interns, *args)
            rows = query.rows(args)
            if rows is None:
                parts = self._fan(query.name, args, token=token)
            else:
                split = split_rows(rows, self._bases(), sum(self._rows))
                parts = self._fan(query.name, per_shard_args=[
                    query.with_rows(args, local) for local in split
                ], token=token)
            if query.lift is not None:
                bases = self._bases()
                parts = [
                    query.lift(part, self._fqdn_maps[index], bases[index])
                    for index, part in enumerate(parts)
                ]
            return query.merge(parts)

    # -- ingestion ---------------------------------------------------------

    def add(self, flow: FlowRecord) -> None:
        """Insert one flow into its home shard."""
        target = self.router.shard_for(flow)
        self._fan("add_all", per_shard_args=[
            ([flow] if k == target else [],) for k in range(self.shards)
        ])

    def add_all(self, flows: Iterable[FlowRecord]) -> None:
        """Route and insert a flow iterable (one fan, order kept
        within each shard)."""
        split = self.router.split_flows(flows)
        self._fan("add_all", per_shard_args=[(split[k],)
                                             for k in range(self.shards)])

    def ingest_batch(self, payload) -> int:
        """Split one eventcodec batch across the shards; returns the
        total number of flows ingested."""
        payloads = self.router.split_batch(payload)
        counts = self._fan("ingest_batch", per_shard_args=[
            (payloads[k],) for k in range(self.shards)
        ])
        return sum(counts)

    def flush(self) -> list:
        """Seal every shard's tail; per-shard new segment names
        (``None`` where a tail was empty)."""
        return self._fan("flush")

    def compact(self, small_rows: Optional[int] = None) -> int:
        """Compact every shard; total segments removed."""
        return sum(self._fan("compact", (small_rows,)))

    def close(self) -> None:
        with self._lock:
            if self._backend is not None:
                self._backend.close()
                self._backend = None
            self._closed = True

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- pinning (serve-layer surface) -------------------------------------

    def pin(self) -> CoordinatorSnapshot:
        return CoordinatorSnapshot(self)

    def unpin(self, snapshot: CoordinatorSnapshot) -> None:
        return None

    # -- health / stats / prune reporting ----------------------------------

    def _merge_wal(self, reports: Sequence[dict]) -> dict:
        """Key-wise sum of the numeric journal-recovery counters (bools
        OR together; non-numeric detail stays per-shard)."""
        wal: dict = {"enabled": self._store_kwargs["wal"],
                     "epoch": 0, "shards": self.shards}
        for report in reports:
            for key, value in report.items():
                if key == "enabled":
                    continue
                if key == "epoch":
                    wal["epoch"] = max(wal["epoch"], value)
                elif isinstance(value, bool):
                    wal[key] = bool(wal.get(key)) or value
                elif isinstance(value, (int, float)):
                    wal[key] = wal.get(key, 0) + value
        return wal

    def _merge_health(self, parts: Sequence[dict]) -> dict:
        """Per-shard :meth:`FlowStore.health` payloads as one of the
        same shape: degraded if *any* shard is."""
        degraded = any(part["status"] != "ok" for part in parts)
        return {
            "status": "degraded" if degraded else "ok",
            "strict": self._store_kwargs["strict"],
            "quarantined_segments": [
                dict(entry, shard=index)
                for index, part in enumerate(parts)
                for entry in part["quarantined_segments"]
            ],
            "wal": self._merge_wal([part["wal"] for part in parts]),
            "tmp_files_swept": sum(p["tmp_files_swept"] for p in parts),
        }

    def health(self) -> dict:
        """Aggregated self-diagnosis plus each shard's status."""
        parts = self._fan("health")
        return dict(
            self._merge_health(parts), sharded=True, shards=self.shards,
            per_shard=[part["status"] for part in parts],
        )

    def version(self) -> Optional[tuple]:
        """The in-process shards' :meth:`FlowStore.version`\\ s; None
        when saying would cost a round trip per shard (processes)."""
        if self.backend_kind != "inprocess":
            return None
        with self._lock:
            stores = self._ensure_backend().stores
            return tuple(store.version() for store in stores)

    def counters(self) -> dict[str, int]:
        """:meth:`FlowStore.counters` merged key-wise over one fan of
        the shards: sums, except ``wal_epoch`` (the maximum, as in
        :meth:`stats`)."""
        parts = self._fan("counters")
        merged = {key: sum(part[key] for part in parts) for key in parts[0]}
        merged["wal_epoch"] = max(part["wal_epoch"] for part in parts)
        return merged

    def stats(self) -> dict:
        """Aggregate inspection summary plus the full per-shard
        payloads (``repro-flowstore stats`` on a sharded root)."""
        parts = self._fan("stats")
        segments = []
        for index, part in enumerate(parts):
            for entry in part["segments"]:
                segments.append(dict(entry, shard=index))

        def total(key: str) -> int:
            return sum(part[key] for part in parts)

        with self._lock:
            fqdns = len(self._interns._fqdn_names)
            slds = len(self._interns._sld_names)
        return {
            "directory": str(self.directory),
            "format": FORMAT_VERSION,
            "sharded": True,
            "shards": self.shards,
            "backend": self.backend_kind,
            "parallel": self._store_kwargs["parallel"],
            "health": self._merge_health(
                [part["health"] for part in parts]
            ),
            "segments": segments,
            "sealed_rows": total("sealed_rows"),
            "tail_rows": total("tail_rows"),
            "rows": total("rows"),
            "fqdns": fqdns,
            "slds": slds,
            "bytes_on_disk": total("bytes_on_disk"),
            "wal_epoch": max(part["wal_epoch"] for part in parts),
            "generation": total("generation"),
            "pinned_generations": [],
            "retired_pending": total("retired_pending"),
            "scan_stats": {
                key: sum(part["scan_stats"][key] for part in parts)
                for key in ("queries", "segments_scanned", "segments_pruned")
            },
            "per_shard": parts,
        }

    def prune_report(self, hint: QueryHint) -> dict:
        """Which sealed segments (across all shards) a query carrying
        ``hint`` would scan — decided from manifest bytes alone.

        Unlike every other coordinator read this never starts the
        backend: the v2 manifest's verified footer copy
        (:meth:`SegmentMeta.from_manifest`) feeds ``hint.admits``
        directly, so no segment file — not even a header — is opened.
        ``tail_rows`` is therefore ``None``: unsealed rows live in the
        journal, which the report never replays.
        """
        per_shard = []
        segments_flat = []
        scanned_rows = pruned_rows = 0
        for index in range(self.shards):
            manifest = read_manifest(self.shard_directory(index))
            segments = []
            for name, n_rows, meta in manifest["segments"]:
                admitted = hint.admits(meta)
                segments.append({
                    "name": name, "rows": n_rows,
                    "scan": admitted, "shard": index,
                })
                if admitted:
                    scanned_rows += n_rows
                else:
                    pruned_rows += n_rows
            per_shard.append({
                "directory": str(self.shard_directory(index)),
                "shard": index,
                "segments": segments,
                "scanned_segments": sum(1 for s in segments if s["scan"]),
                "pruned_segments": sum(
                    1 for s in segments if not s["scan"]
                ),
            })
            segments_flat.extend(segments)
        return {
            "directory": str(self.directory),
            "sharded": True,
            "shards": self.shards,
            "segments": segments_flat,
            "scanned_segments": sum(1 for s in segments_flat if s["scan"]),
            "pruned_segments": sum(
                1 for s in segments_flat if not s["scan"]
            ),
            "scanned_rows": scanned_rows,
            "pruned_rows": pruned_rows,
            "tail_rows": None,
            "per_shard": per_shard,
        }


def store_kind(directory) -> Optional[str]:
    """``"sharded"`` / ``"flat"`` for a directory holding a committed
    store of that kind, ``None`` for anything else (missing, empty, or
    a flat store that never sealed a segment)."""
    directory = Path(directory)
    if (directory / SHARDS_NAME).exists():
        return "sharded"
    if (directory / MANIFEST_NAME).exists():
        return "flat"
    return None


def open_store(directory, *, shards: Optional[int] = None,
               backend: str = "inprocess", **store_knobs):
    """Open (or create) the durable store at ``directory`` — the one
    place that decides between a flat :class:`FlowStore` and a
    :class:`ShardCoordinator`.

    A sharded root opens as a coordinator (``shards`` must agree with
    its topology when given); ``shards=N`` on a directory without a
    store creates an N-shard root, routed by client address;
    everything else is a flat store, for which ``backend`` means
    nothing.  ``store_knobs`` are :class:`FlowStore`'s (``spill_rows``,
    ``spill_bytes``, ``parallel``, ``wal``, ``strict``), applied to the
    flat store or to every shard.
    """
    if shards is None and store_kind(directory) != "sharded":
        return FlowStore(directory, **store_knobs)
    return ShardCoordinator(
        directory, shards=shards, backend=backend, **store_knobs,
    )
