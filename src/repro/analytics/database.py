"""The labeled-flows database (the "Flow Database" of Fig. 1), columnar.

The seed implementation (retained as
:mod:`repro.analytics.database_reference`) kept one Python list of
:class:`FlowRecord` objects and answered every analytics question by
walking per-flow objects.  At the traffic volumes the ROADMAP targets
that layout makes the analyzer the bottleneck: every domain-tree,
temporal or content query pays a Python-level attribute walk per flow.

This engine stores flows as **columns** instead:

* :class:`FlowColumns` — parallel ``array`` columns (zero-copy viewable
  by numpy) for client/server address, ports, transport, start/end,
  layer-7 protocol index, byte counters and packets;
* **interned id tables** — each distinct lowercased FQDN and
  second-level domain gets a small integer id; per-flow labels are one
  ``int32`` column, and grouped analytics (domain trees, tracker
  timelines, Tab. 5/8 rollups) aggregate by id instead of re-hashing
  and re-tokenizing strings per flow;
* **index arrays** — the by-fqdn/by-sld/by-server/by-port indexes map to
  packed ``array("I")`` row-index arrays rather than lists of object
  references.

The public query surface of the seed store is preserved verbatim —
``query_by_*`` still return :class:`FlowRecord` lists (records ingested
as objects are returned as-is; records ingested from binary batches are
materialized lazily, once, on first touch) — and a set of grouped
aggregation methods is exposed on top for the vectorized analytics in
:mod:`repro.analytics.temporal`, ``spatial``, ``domain_tree``,
``trackers``, ``content``, ``tags``, ``tangle`` and ``wordcloud``.

Ingestion has two paths:

* :meth:`FlowDatabase.add` — one :class:`FlowRecord` object at a time
  (the seed API, used by tests and small tools);
* :meth:`FlowDatabase.ingest_batch` — one eventcodec flow batch
  (:mod:`repro.sniffer.eventcodec`) absorbed column-wise with **no
  per-record object churn**: the sniffer/fan-out side emits tagged-flow
  batches (``SnifferPipeline.emit_tagged_batches`` or
  ``FanoutPipeline(collect_flows=True)``) and this store lifts the hot
  blocks straight into its columns.  This closes the sniffer→database
  arrow of Fig. 1 in the same throughput class as the event loop.

All aggregations use numpy when importable and fall back to pure-Python
loops over the same columns otherwise (the ``array``/``struct`` idiom of
:mod:`repro.sniffer.fanout`).  Addresses are IPv4 ``u32`` exactly as in
the resolver and the codec.
"""

from __future__ import annotations

import math
import struct
from array import array
from typing import Iterable, Iterator, Optional, Sequence

from repro.dns.name import second_level_domain
from repro.net.flow import FiveTuple, FlowRecord, Protocol, TransportProto
from repro.sniffer.eventcodec import (
    BatchView,
    CodecError,
    FLOW_COLD,
    FLOW_HOT,
    PROTOCOL_INDEX,
    PROTOCOLS,
    STR_LEN,
)

_TRANSPORTS = frozenset(int(t) for t in TransportProto)

try:  # numpy accelerates grouped aggregation; optional.
    import numpy as _np
except ImportError:  # pragma: no cover - the CI image ships numpy
    _np = None

_NONE_STR = 0xFFFF
_NO_COLD_STRINGS = STR_LEN.pack(_NONE_STR) * 2   # cert_name, true_fqdn: None
_EMPTY_ROWS: tuple[int, ...] = ()

if _np is not None:
    # Unaligned little-endian views of the codec's packed flow blocks.
    _HOT_DT = _np.dtype(
        {"names": ["client", "server", "start", "proto"],
         "formats": ["<u4", "<u4", "<f8", "u1"],
         "offsets": [0, 4, 8, 16], "itemsize": FLOW_HOT.size})
    _COLD_DT = _np.dtype(
        {"names": ["sport", "dport", "transport", "end", "up", "down",
                   "pkts"],
         "formats": ["<u2", "<u2", "u1", "<f8", "<u8", "<u8", "<u4"],
         "offsets": [0, 2, 4, 5, 13, 21, 29], "itemsize": FLOW_COLD.size})


class FlowColumns:
    """Parallel per-flow columns (struct-of-arrays layout).

    Each attribute is one column over all flows in insertion order.
    The eleven :attr:`VALUES` columns and ``fqdn_id`` are ``array``s
    numpy can view zero-copy via ``numpy.frombuffer``; ``fqdn_id`` is
    ``-1`` for untagged flows and otherwise an id into the owning
    database's interned FQDN table.  The three string columns —
    original-case label, certificate name, ground-truth FQDN — are
    plain lists of ``Optional[str]``.
    """

    #: The fixed-width value columns: what one codec flow record, or
    #: the numeric blocks of a segment file, fill.
    VALUES = (
        "client_ip", "server_ip", "src_port", "dst_port", "transport",
        "start", "end", "protocol", "bytes_up", "bytes_down", "packets",
    )
    __slots__ = VALUES + ("fqdn_id", "raw_fqdn", "cert_name", "true_fqdn")

    def __init__(self) -> None:
        self.client_ip = array("I")
        self.server_ip = array("I")
        self.src_port = array("H")
        self.dst_port = array("H")
        self.transport = array("B")
        self.start = array("d")
        self.end = array("d")
        self.protocol = array("B")   # index into PROTOCOLS
        self.bytes_up = array("Q")
        self.bytes_down = array("Q")
        self.packets = array("I")
        self.fqdn_id = array("i")    # -1 = untagged
        self.raw_fqdn: list[Optional[str]] = []
        self.cert_name: list[Optional[str]] = []
        self.true_fqdn: list[Optional[str]] = []

    def __len__(self) -> int:
        return len(self.start)

    def problem(self, finite: bool) -> Optional[str]:
        """Why these rows cannot be materialized as records — a
        protocol index outside ``PROTOCOLS``, a transport byte that is
        no ``TransportProto`` or, with ``finite``, a NaN/inf timestamp
        — or ``None``.  The one check behind both column loaders: a
        codec batch (reported as ``CodecError`` while the store is
        still untouched) and a segment file (``StorageError``; v1
        segments predate the finite rule, so they pass ``False``)."""
        if not len(self):
            return None
        if _np is not None:
            view = _np.frombuffer
            if int(view(self.protocol, _np.uint8).max()) >= len(PROTOCOLS):
                return "protocol index out of range"
            if not _np.isin(
                view(self.transport, _np.uint8), list(_TRANSPORTS)
            ).all():
                return "invalid transport protocol number"
            if finite and not (
                _np.isfinite(view(self.start, _np.float64)).all()
                and _np.isfinite(view(self.end, _np.float64)).all()
            ):
                return "non-finite flow timestamp"
            return None
        if max(self.protocol) >= len(PROTOCOLS):
            return "protocol index out of range"
        if not _TRANSPORTS.issuperset(self.transport):
            return "invalid transport protocol number"
        if finite and not (
            all(map(math.isfinite, self.start))
            and all(map(math.isfinite, self.end))
        ):
            return "non-finite flow timestamp"
        return None


def _native(values, dtype):
    """Contiguous native-endian bytes of a numpy array slice."""
    return _np.ascontiguousarray(values, dtype=dtype).tobytes()


def finite_bounds(values) -> tuple[float, float]:
    """(min, max) over the *finite* entries of a float column; the
    empty convention ``(inf, -inf)`` when none are.

    The one rule behind ``time_span()`` and the segment footers'
    time ranges.  Current ingestion rejects non-finite timestamps, but
    v1 (PR4-era) segments predate that check: a NaN would poison
    ``min``/``max`` differently per code path, while ranges over the
    finite values stay sound — a NaN start compares False against
    every window, so the row can never match a window query the range
    might prune.
    """
    if _np is not None:
        column = (
            values if isinstance(values, _np.ndarray)
            else _np.frombuffer(values, _np.float64)
        )
        finite = column[_np.isfinite(column)]
        if len(finite):
            return float(finite.min()), float(finite.max())
        return float("inf"), float("-inf")
    lo, hi = float("inf"), float("-inf")
    for value in values:
        if math.isfinite(value):
            if value < lo:
                lo = value
            if value > hi:
                hi = value
    return lo, hi


def _decode_flow_columns(view: BatchView) -> FlowColumns:
    """The value columns of a batch's packed hot/cold flow blocks."""
    cols = FlowColumns()
    if _np is not None:
        hot = _np.frombuffer(view.flow_hot, dtype=_HOT_DT)
        cold = _np.frombuffer(view.flow_cold, dtype=_COLD_DT)
        cols.client_ip.frombytes(_native(hot["client"], _np.uint32))
        cols.server_ip.frombytes(_native(hot["server"], _np.uint32))
        cols.start.frombytes(_native(hot["start"], _np.float64))
        cols.protocol.frombytes(_native(hot["proto"], _np.uint8))
        cols.src_port.frombytes(_native(cold["sport"], _np.uint16))
        cols.dst_port.frombytes(_native(cold["dport"], _np.uint16))
        cols.transport.frombytes(_native(cold["transport"], _np.uint8))
        cols.end.frombytes(_native(cold["end"], _np.float64))
        cols.bytes_up.frombytes(_native(cold["up"], _np.uint64))
        cols.bytes_down.frombytes(_native(cold["down"], _np.uint64))
        cols.packets.frombytes(_native(cold["pkts"], _np.uint32))
        return cols
    for (client, server, start, proto), (
        sport, dport, transport, end, up, down, pkts
    ) in zip(
        FLOW_HOT.iter_unpack(view.flow_hot),
        FLOW_COLD.iter_unpack(view.flow_cold),
    ):
        cols.client_ip.append(client)
        cols.server_ip.append(server)
        cols.start.append(start)
        cols.protocol.append(proto)
        cols.src_port.append(sport)
        cols.dst_port.append(dport)
        cols.transport.append(transport)
        cols.end.append(end)
        cols.bytes_up.append(up)
        cols.bytes_down.append(down)
        cols.packets.append(pkts)
    return cols


def servers_per_bin(pairs, bin_seconds: float) -> list[tuple[float, int]]:
    """Deduped ``(bin_index, server_ip)`` pairs → distinct servers per
    bin as ``(bin_start, count)``, gap-filled from the first to the
    last active bin.  Distinct counts do not merge across sources; the
    pairs do, so this is the last step wherever the pairs came from."""
    per_bin: dict[int, int] = {}
    for bin_index, _server in pairs:
        per_bin[bin_index] = per_bin.get(bin_index, 0) + 1
    if not per_bin:
        return []
    return [
        (index * bin_seconds, per_bin.get(index, 0))
        for index in range(min(per_bin), max(per_bin) + 1)
    ]


def sld_stats(per_fqdn, fqdn_sld) -> list[tuple[int, int, int]]:
    """``(fqdn_id, flows)`` totals → per-organization ``(sld_id, flows,
    distinct_fqdns)``, sorted, through the ``fqdn id → sld id`` table
    (each fqdn id appears once)."""
    flow_counts: dict[int, int] = {}
    fqdn_counts: dict[int, int] = {}
    for fqdn_id, flows in per_fqdn:
        sld_id = fqdn_sld[fqdn_id]
        flow_counts[sld_id] = flow_counts.get(sld_id, 0) + flows
        fqdn_counts[sld_id] = fqdn_counts.get(sld_id, 0) + 1
    return [
        (sld_id, count, fqdn_counts[sld_id])
        for sld_id, count in sorted(flow_counts.items())
    ]


class FlowDatabase:
    """Columnar indexed store of tagged flow records.

    Only tagged flows enter the domain indexes; untagged flows are kept
    (they matter for hit-ratio accounting) but are invisible to
    domain-keyed queries, matching the paper's design where the analyzer
    operates on labeled flows.

    The durable, disk-backed variant with the same query surface is
    :class:`repro.analytics.storage.FlowStore` (sharded:
    :class:`repro.analytics.shard.ShardCoordinator`); construct those
    directly.
    """

    def __init__(self) -> None:
        self.columns = FlowColumns()
        # Lazily-materialized record cache: object-ingested rows hold
        # the original record, batch-ingested rows start as None.
        self._records: list[Optional[FlowRecord]] = []
        # True while every row of _records holds a real record (no
        # batch-ingested rows pending lazy materialization) — lets
        # _materialize skip the per-row None check entirely, which is
        # the bulk of a record query on an object-ingested store.
        self._all_records = True
        # Interned id tables.
        self._fqdn_names: list[str] = []            # id -> lowercased FQDN
        self._fqdn_ids: dict[str, int] = {}
        self._fqdn_sld = array("i")                 # fqdn id -> sld id
        self._sld_names: list[str] = []
        self._sld_ids: dict[str, int] = {}
        self._sld_fqdns: list[array] = []           # sld id -> fqdn ids
        # Label bytes as they arrive in a batch -> (fqdn id, text);
        # None is the untagged slot.
        self._raw_cache: dict[Optional[bytes], tuple] = {None: (-1, None)}
        # Row-index arrays.
        self._by_fqdn: dict[int, array] = {}        # fqdn id -> rows
        self._by_sld: dict[int, array] = {}         # sld id -> rows
        self._by_server: dict[int, array] = {}
        self._by_port: dict[int, array] = {}
        self._tagged = array("I")                   # rows with a label
        # Incremental statistics (no full scans on access).
        self._protocol_counts = [0] * len(PROTOCOLS)
        self._min_start = float("inf")
        self._max_end = float("-inf")

    # -- interning ---------------------------------------------------------

    def _intern_fqdn(self, lowered: str) -> int:
        """Id of ``lowered`` (a lowercased FQDN), creating it if new."""
        fqdn_id = self._fqdn_ids.get(lowered)
        if fqdn_id is None:
            fqdn_id = len(self._fqdn_names)
            self._fqdn_ids[lowered] = fqdn_id
            self._fqdn_names.append(lowered)
            sld = second_level_domain(lowered)
            sld_id = self._sld_ids.get(sld)
            if sld_id is None:
                sld_id = len(self._sld_names)
                self._sld_ids[sld] = sld_id
                self._sld_names.append(sld)
                self._by_sld[sld_id] = array("I")
                self._sld_fqdns.append(array("i"))
            self._fqdn_sld.append(sld_id)
            self._sld_fqdns[sld_id].append(fqdn_id)
            self._by_fqdn[fqdn_id] = array("I")
        return fqdn_id

    def fqdn_label(self, fqdn_id: int) -> str:
        """The lowercased FQDN behind an interned id."""
        return self._fqdn_names[fqdn_id]

    def sld_label(self, sld_id: int) -> str:
        """The second-level domain behind an interned id."""
        return self._sld_names[sld_id]

    def sld_of_fqdn(self, fqdn_id: int) -> int:
        """Interned sld id of an interned FQDN id."""
        return self._fqdn_sld[fqdn_id]

    # -- ingestion ---------------------------------------------------------

    def add(self, flow: FlowRecord) -> None:
        """Insert one flow record and index it.

        The columnar store enforces the codec's field ranges (u32
        addresses/packets, u16 ports, u64 byte counters) — the ranges
        every wire-derived flow satisfies.  An out-of-range record is
        rejected atomically with ``ValueError`` *before* any column is
        touched; the parallel arrays can never desynchronize.
        """
        fid = flow.fid
        proto_idx = PROTOCOL_INDEX.get(flow.protocol)
        if proto_idx is None:
            raise ValueError(f"unknown protocol {flow.protocol!r}")
        if not (math.isfinite(flow.start) and math.isfinite(flow.end)):
            # A NaN/inf timestamp would poison the incremental min/max
            # statistics and the durable store's segment time ranges —
            # window pruning could then silently drop valid rows.
            raise ValueError("non-finite flow timestamp")
        fqdn = flow.fqdn
        lowered = fqdn.lower() if fqdn else None
        try:
            # Validate-before-mutate: the codec structs share the
            # columns' exact ranges and raise without side effects.
            FLOW_HOT.pack(fid.client_ip, fid.server_ip, flow.start,
                          proto_idx)
            FLOW_COLD.pack(fid.src_port, fid.dst_port, fid.proto,
                           flow.end, flow.bytes_up, flow.bytes_down,
                           flow.packets)
        except struct.error as exc:
            raise ValueError(f"flow field out of range: {exc}") from exc
        row = len(self._records)
        cols = self.columns
        cols.client_ip.append(fid.client_ip)
        cols.server_ip.append(fid.server_ip)
        cols.src_port.append(fid.src_port)
        cols.dst_port.append(fid.dst_port)
        cols.transport.append(fid.proto)
        cols.start.append(flow.start)
        cols.end.append(flow.end)
        cols.protocol.append(proto_idx)
        cols.bytes_up.append(flow.bytes_up)
        cols.bytes_down.append(flow.bytes_down)
        cols.packets.append(flow.packets)
        self._protocol_counts[proto_idx] += 1
        if fqdn:
            fqdn_id = self._intern_fqdn(lowered)
            self._by_fqdn[fqdn_id].append(row)
            self._by_sld[self._fqdn_sld[fqdn_id]].append(row)
            self._tagged.append(row)
        else:
            fqdn_id = -1
        cols.fqdn_id.append(fqdn_id)
        cols.raw_fqdn.append(fqdn)
        cols.cert_name.append(flow.cert_name)
        cols.true_fqdn.append(flow.true_fqdn)
        self._records.append(flow)
        index = self._by_server.get(fid.server_ip)
        if index is None:
            index = self._by_server[fid.server_ip] = array("I")
        index.append(row)
        index = self._by_port.get(fid.dst_port)
        if index is None:
            index = self._by_port[fid.dst_port] = array("I")
        index.append(row)
        if flow.start < self._min_start:
            self._min_start = flow.start
        if flow.end > self._max_end:
            self._max_end = flow.end

    def add_all(self, flows: Iterable[FlowRecord]) -> None:
        """Insert many flow records."""
        add = self.add
        for flow in flows:
            add(flow)

    @classmethod
    def from_flows(cls, flows: Iterable[FlowRecord]) -> "FlowDatabase":
        """Build a database from an iterable of flows."""
        database = cls()
        database.add_all(flows)
        return database

    @classmethod
    def from_columns(
        cls, columns: FlowColumns, fqdn_names: Sequence[str]
    ) -> "FlowDatabase":
        """Adopt ready-made rows (a materialized segment): ``columns``
        complete, its ``fqdn_id`` column holding ``-1`` or an id into
        ``fqdn_names`` — the distinct lowercased labels in
        first-appearance order.  The database takes ownership of
        ``columns`` and builds its intern tables, indexes and
        statistics from them.  Enum validity
        (:meth:`FlowColumns.problem`) and the id range are the caller's
        checks; ragged columns or a repeated name are ``ValueError``."""
        database = cls()
        for name in fqdn_names:
            database._intern_fqdn(name)
        n = len(columns)
        if len(database._fqdn_names) != len(fqdn_names) or any(
            len(getattr(columns, name)) != n for name in columns.__slots__
        ):
            raise ValueError("inconsistent flow columns")
        database.columns = columns
        database._records = [None] * n
        database._all_records = not n
        database._index_rows(0)
        return database

    # -- batch ingestion (the sniffer→database deployment format) ---------

    def ingest_batch(self, payload) -> int:
        """Absorb one eventcodec batch of tagged flows, column-wise.

        ``payload`` is an encoded batch as produced by
        ``SnifferPipeline.emit_tagged_batches`` /
        ``FanoutPipeline(collect_flows=True)`` (or any
        :func:`repro.sniffer.eventcodec.encode_events` call).  Flow
        blocks are lifted straight into the columns — no
        :class:`FlowRecord` objects are created; queries materialize
        records lazily on first touch.  DNS records in the batch are
        ignored (the Flow Database stores flows).  Returns the number of
        flows ingested.

        Ingestion is atomic with respect to malformed input: it is
        :meth:`parse_batch` (every block validated into locals,
        ``CodecError`` on truncation, bad UTF-8 or an out-of-range
        field) followed by :meth:`commit_batch`, so a rejected batch
        leaves the store exactly as it was.
        """
        return self.commit_batch(self.parse_batch(payload))

    def parse_batch(self, payload):
        """Validate one batch without touching any shared structure.

        Returns the token :meth:`commit_batch` takes — valid only until
        the next commit on this database.  The durable store journals
        a batch between the two, so a payload that cannot be ingested
        never reaches the WAL.
        """
        view = BatchView(payload)
        if not view.n_flows:
            return None
        chunk = _decode_flow_columns(view)
        problem = chunk.problem(finite=True)
        if problem:
            raise CodecError(problem)
        return chunk, self._parse_flow_strings(view, view.n_flows)

    def commit_batch(self, parsed) -> int:
        """Apply a :meth:`parse_batch` result (cannot fail partway);
        returns the number of flows ingested."""
        if parsed is None:
            return 0
        chunk, strings = parsed
        n = len(chunk)
        base = len(self._records)
        cols = self.columns
        for name in FlowColumns.VALUES:
            getattr(cols, name).extend(getattr(chunk, name))
        self._commit_flow_strings(*strings)
        self._records.extend([None] * n)
        self._all_records = False
        self._index_rows(base)
        return n

    @classmethod
    def from_batches(cls, payloads: Iterable) -> "FlowDatabase":
        """Build a database from encoded tagged-flow batches."""
        database = cls()
        for payload in payloads:
            database.ingest_batch(payload)
        return database

    def _parse_flow_strings(
        self, view: BatchView, n: int
    ) -> tuple[list, dict, list, list]:
        """Validate and decode the per-flow string block into locals.

        Returns ``(labels, new_labels, cert_names, true_fqdns)``:
        per flow the fqdn slot's raw bytes (``None`` = untagged), the
        decoded text of every distinct label the raw-bytes cache has
        not seen yet (first-appearance order — the commit phase interns
        each once), and the two cold strings.  Raises
        :class:`~repro.sniffer.eventcodec.CodecError` on truncation or
        bad UTF-8 — without touching any shared state.
        """
        # One bytes copy up front: slicing/unpacking bytes is cheaper
        # than going through the memoryview per field.
        flow_str = bytes(view.flow_str)
        unpack = STR_LEN.unpack_from
        raw_cache = self._raw_cache
        labels: list[Optional[bytes]] = []
        new_labels: dict[bytes, str] = {}
        cold: list[Optional[str]] = []   # cert_name, true_fqdn, ...
        label_append = labels.append
        cold_append = cold.append
        pos = 0
        try:
            for _ in range(n):
                (length,) = unpack(flow_str, pos)
                pos += 2
                if length == _NONE_STR:
                    label_append(None)
                else:
                    raw = flow_str[pos:pos + length]
                    pos += length
                    if raw not in raw_cache and raw not in new_labels:
                        new_labels[raw] = raw.decode("utf-8")
                    label_append(raw)
                if flow_str[pos:pos + 4] == _NO_COLD_STRINGS:
                    # What the sniffer emits: neither cold string set.
                    pos += 4
                    cold_append(None)
                    cold_append(None)
                    continue
                for _ in range(2):
                    (length,) = unpack(flow_str, pos)
                    pos += 2
                    if length == _NONE_STR:
                        cold_append(None)
                    else:
                        cold_append(
                            flow_str[pos:pos + length].decode("utf-8")
                        )
                        pos += length
        except struct.error as exc:
            raise CodecError(f"truncated flow_str block: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise CodecError(f"bad UTF-8 in flow_str: {exc}") from exc
        if pos > len(flow_str):
            # A slice past the end comes back short instead of raising.
            raise CodecError("truncated flow_str block")
        return labels, new_labels, cold[0::2], cold[1::2]

    def _commit_flow_strings(
        self, labels: list, new_labels: dict, cert_names: list,
        true_fqdns: list,
    ) -> None:
        """Intern and append parsed string entries (cannot fail)."""
        raw_cache = self._raw_cache
        for raw, text in new_labels.items():
            raw_cache[raw] = (
                self._intern_fqdn(text.lower()) if text else -1, text
            )
        entries = [raw_cache[raw] for raw in labels]
        cols = self.columns
        cols.fqdn_id.extend(
            array("i", [fqdn_id for fqdn_id, _text in entries])
        )
        cols.raw_fqdn.extend([text for _fqdn_id, text in entries])
        cols.cert_name.extend(cert_names)
        cols.true_fqdn.extend(true_fqdns)

    def _index_rows(self, base: int) -> None:
        """Fold rows ``[base, len)`` of the columns into the protocol
        counts, the finite ``min_start`` / ``max_end``
        (:func:`finite_bounds`), the by-server / by-port / by-fqdn /
        by-sld indexes and the tagged-row list — the one builder
        behind batch ingest and segment materialization
        (:meth:`add` keeps the same steps inline, per record)."""
        cols = self.columns
        n = len(cols)
        if base >= n:
            return
        if _np is None:
            by_server, by_port = self._by_server, self._by_port
            by_fqdn, by_sld = self._by_fqdn, self._by_sld
            fqdn_sld = self._fqdn_sld
            tagged = self._tagged
            protocol_counts = self._protocol_counts
            server_col, port_col = cols.server_ip, cols.dst_port
            fqdn_col, proto_col = cols.fqdn_id, cols.protocol
            for row in range(base, n):
                protocol_counts[proto_col[row]] += 1
                index = by_server.get(server_col[row])
                if index is None:
                    index = by_server[server_col[row]] = array("I")
                index.append(row)
                index = by_port.get(port_col[row])
                if index is None:
                    index = by_port[port_col[row]] = array("I")
                index.append(row)
                fqdn_id = fqdn_col[row]
                if fqdn_id >= 0:
                    by_fqdn[fqdn_id].append(row)
                    by_sld[fqdn_sld[fqdn_id]].append(row)
                    tagged.append(row)
            starts, ends = cols.start[base:], cols.end[base:]
        else:
            counts = _np.bincount(
                _np.frombuffer(cols.protocol, _np.uint8)[base:],
                minlength=len(PROTOCOLS),
            )
            for index, count in enumerate(counts.tolist()):
                self._protocol_counts[index] += count
            rows = _np.arange(base, n, dtype=_np.uint32)
            self._extend_index(
                self._by_server,
                _np.frombuffer(cols.server_ip, _np.uint32)[base:], rows,
            )
            self._extend_index(
                self._by_port,
                _np.frombuffer(cols.dst_port, _np.uint16)[base:], rows,
            )
            ids = _np.frombuffer(cols.fqdn_id, _np.int32)[base:]
            mask = ids >= 0
            if mask.any():
                tagged_rows = rows[mask]
                tagged_ids = ids[mask]
                self._tagged.frombytes(_native(tagged_rows, _np.uint32))
                self._extend_index(self._by_fqdn, tagged_ids, tagged_rows)
                sld_map = _np.frombuffer(self._fqdn_sld, dtype=_np.int32)
                self._extend_index(
                    self._by_sld, sld_map[tagged_ids], tagged_rows
                )
            starts = _np.frombuffer(cols.start, _np.float64)[base:]
            ends = _np.frombuffer(cols.end, _np.float64)[base:]
        self._min_start = min(self._min_start, finite_bounds(starts)[0])
        self._max_end = max(self._max_end, finite_bounds(ends)[1])

    @staticmethod
    def _extend_index(index: dict, keys, rows) -> None:
        """Group ``rows`` by ``keys`` and append each group to its index
        array, creating missing keys in first-appearance order (so the
        ``servers()``/``ports()`` listings match the row store's)."""
        order = _np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        sorted_rows = rows[order]
        bounds = _np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
        starts = [0, *bounds.tolist()]
        ends = [*bounds.tolist(), len(sorted_keys)]
        # Stable sort keeps rows ascending within a group, so the first
        # row of each group is that key's first appearance.
        groups = sorted(range(len(starts)), key=lambda g: sorted_rows[starts[g]])
        for group in groups:
            lo, hi = starts[group], ends[group]
            key = int(sorted_keys[lo])
            arr = index.get(key)
            if arr is None:
                arr = index[key] = array("I")
            arr.frombytes(_native(sorted_rows[lo:hi], _np.uint32))

    # -- record materialization -------------------------------------------

    def _record(self, row: int) -> FlowRecord:
        record = self._records[row]
        if record is None:
            cols = self.columns
            record = FlowRecord(
                fid=FiveTuple(
                    client_ip=cols.client_ip[row],
                    server_ip=cols.server_ip[row],
                    src_port=cols.src_port[row],
                    dst_port=cols.dst_port[row],
                    proto=TransportProto(cols.transport[row]),
                ),
                start=cols.start[row],
                end=cols.end[row],
                protocol=PROTOCOLS[cols.protocol[row]],
                bytes_up=cols.bytes_up[row],
                bytes_down=cols.bytes_down[row],
                packets=cols.packets[row],
                fqdn=cols.raw_fqdn[row],
                cert_name=cols.cert_name[row],
                true_fqdn=cols.true_fqdn[row],
            )
            self._records[row] = record
        return record

    def _materialize(self, rows) -> list[FlowRecord]:
        if self._all_records:
            records = self._records
            return [records[row] for row in rows]
        record = self._record
        return [record(row) for row in rows]

    # -- row-index views (what the vectorized analytics consume) ----------

    def rows_for_fqdn(self, fqdn: str) -> Sequence[int]:
        """Row indices of flows labeled exactly ``fqdn`` (do not mutate)."""
        fqdn_id = self._fqdn_ids.get(fqdn.lower())
        return self._by_fqdn[fqdn_id] if fqdn_id is not None else _EMPTY_ROWS

    def rows_for_domain(self, sld: str) -> Sequence[int]:
        """Row indices of flows under second-level domain ``sld``."""
        sld_id = self._sld_ids.get(sld.lower())
        return self._by_sld[sld_id] if sld_id is not None else _EMPTY_ROWS

    def rows_for_port(self, dst_port: int) -> Sequence[int]:
        """Row indices of flows to destination port ``dst_port``."""
        return self._by_port.get(dst_port, _EMPTY_ROWS)

    def rows_for_servers(self, servers: Iterable[int]) -> Sequence[int]:
        """Concatenated row indices for an address set (deduped)."""
        out = array("I")
        by_server = self._by_server
        for server in dict.fromkeys(servers):
            index = by_server.get(server)
            if index is not None:
                out.extend(index)
        return out

    def rows_in_window(self, t0: float, t1: float) -> Sequence[int]:
        """Row indices of flows whose *start* falls in ``[t0, t1)``.

        The per-time-bin analytics (Figs. 3-5, 11) bin flows by start
        time; this is the matching row selector, and the primitive the
        durable store prunes segments against (a segment whose
        ``[min_start, max_start]`` misses the window is skipped
        without touching its columns).
        """
        start_col = self.columns.start
        n = len(start_col)
        if not n or t1 <= t0:
            return _EMPTY_ROWS
        if _np is not None:
            starts = _np.frombuffer(start_col, _np.float64)
            hits = _np.flatnonzero((starts >= t0) & (starts < t1))
            out = array("I")
            out.frombytes(_native(hits, _np.uint32))
            return out
        return array("I", (
            row for row in range(n) if t0 <= start_col[row] < t1
        ))

    def tagged_rows(self) -> Sequence[int]:
        """Row indices of every labeled flow (do not mutate)."""
        return self._tagged

    # -- core queries (what Algorithms 2-4 call) --------------------------

    def query_by_fqdn(self, fqdn: str) -> list[FlowRecord]:
        """Flows labeled exactly ``fqdn``."""
        return self._materialize(self.rows_for_fqdn(fqdn))

    def query_by_domain(self, sld: str) -> list[FlowRecord]:
        """Flows whose label falls under second-level domain ``sld``."""
        return self._materialize(self.rows_for_domain(sld))

    def query_by_servers(self, servers: Iterable[int]) -> list[FlowRecord]:
        """Flows to any address in ``servers`` (duplicates ignored)."""
        return self._materialize(self.rows_for_servers(servers))

    def query_by_port(self, dst_port: int) -> list[FlowRecord]:
        """Flows to destination port ``dst_port``."""
        return self._materialize(self.rows_for_port(dst_port))

    def query_in_window(self, t0: float, t1: float) -> list[FlowRecord]:
        """Flows starting in ``[t0, t1)``, in row order."""
        return self._materialize(self.rows_in_window(t0, t1))

    # -- aggregate views ---------------------------------------------------

    def fqdns(self) -> list[str]:
        """All distinct labels seen."""
        return list(self._fqdn_names)

    def slds(self) -> list[str]:
        """All distinct second-level domains seen."""
        return list(self._sld_names)

    def servers(self) -> list[int]:
        """All distinct server addresses seen."""
        return list(self._by_server)

    def ports(self) -> list[int]:
        """All distinct destination ports seen."""
        return list(self._by_port)

    def _unique_servers(self, rows) -> set[int]:
        if not len(rows):
            return set()
        if _np is not None:
            column = _np.frombuffer(self.columns.server_ip, _np.uint32)
            taken = column[_np.frombuffer(rows, _np.uint32)]
            return set(_np.unique(taken).tolist())
        column = self.columns.server_ip
        return {column[row] for row in rows}

    def servers_for_fqdn(self, fqdn: str) -> set[int]:
        """Distinct serverIPs observed delivering ``fqdn``."""
        return self._unique_servers(self.rows_for_fqdn(fqdn))

    def servers_for_domain(self, sld: str) -> set[int]:
        """Distinct serverIPs observed for the whole organization."""
        return self._unique_servers(self.rows_for_domain(sld))

    def fqdns_for_servers(self, servers: Iterable[int]) -> set[str]:
        """Distinct labels delivered by the given server addresses."""
        return self.fqdns_for_rows(self.rows_for_servers(servers))

    def fqdns_for_rows(self, rows) -> set[str]:
        """Distinct labels among the flows of a row-index set."""
        if not len(rows):
            return set()
        names = self._fqdn_names
        if _np is not None:
            column = _np.frombuffer(self.columns.fqdn_id, _np.int32)
            ids = column[_np.frombuffer(rows, _np.uint32)]
            return {
                names[fqdn_id]
                for fqdn_id in _np.unique(ids).tolist()
                if fqdn_id >= 0
            }
        column = self.columns.fqdn_id
        return {
            names[fqdn_id]
            for fqdn_id in {column[row] for row in rows}
            if fqdn_id >= 0
        }

    def fqdns_for_domain(self, sld: str) -> set[str]:
        """Distinct FQDNs under one second-level domain."""
        sld_id = self._sld_ids.get(sld.lower())
        if sld_id is None:
            return set()
        names = self._fqdn_names
        return {names[fqdn_id] for fqdn_id in self._sld_fqdns[sld_id]}

    # -- grouped aggregations (vectorized analytics backends) --------------

    def _take(self, column, rows):
        """numpy gather of ``column`` at ``rows`` (numpy path only)."""
        dtype = {
            "I": _np.uint32, "H": _np.uint16, "B": _np.uint8,
            "d": _np.float64, "Q": _np.uint64, "i": _np.int32,
        }[column.typecode]
        return _np.frombuffer(column, dtype)[
            _np.frombuffer(rows, _np.uint32)
            if isinstance(rows, array) else rows
        ]

    def _tagged_subset(self, rows):
        """(rows', fqdn_ids') restricted to labeled flows (numpy path)."""
        rows = (
            _np.frombuffer(rows, _np.uint32)
            if isinstance(rows, array) else _np.asarray(rows, _np.uint32)
        )
        ids = _np.frombuffer(self.columns.fqdn_id, _np.int32)[rows]
        mask = ids >= 0
        return rows[mask], ids[mask]

    def _fqdn_pair_counts(
        self, column, rows
    ) -> list[tuple[int, int, int]]:
        """Deduped ``(fqdn_id, column_value, flow_count)`` groups over
        the labeled flows of ``rows`` — the shared grouping core of
        :meth:`fqdn_server_counts` / :meth:`fqdn_client_counts`."""
        if rows is None:
            rows = self._tagged
        if not len(rows):
            return []
        if _np is not None:
            rows, ids = self._tagged_subset(rows)
            values = _np.frombuffer(column, _np.uint32)[rows]
            # ids < 2^31 and values < 2^32, so the packed key fits a
            # signed int64 without overflow.
            key = (ids.astype(_np.int64) << 32) | values.astype(_np.int64)
            unique, counts = _np.unique(key, return_counts=True)
            return list(zip(
                (unique >> 32).tolist(),
                (unique & 0xFFFFFFFF).tolist(),
                counts.tolist(),
            ))
        counts: dict[tuple[int, int], int] = {}
        fqdn_col = self.columns.fqdn_id
        for row in rows:
            fqdn_id = fqdn_col[row]
            if fqdn_id >= 0:
                pair = (fqdn_id, column[row])
                counts[pair] = counts.get(pair, 0) + 1
        return sorted(
            (fqdn_id, value, count)
            for (fqdn_id, value), count in counts.items()
        )

    def fqdn_server_counts(
        self, rows=None
    ) -> list[tuple[int, int, int]]:
        """Deduped ``(fqdn_id, server_ip, flow_count)`` groups.

        Grouping all labeled flows of ``rows`` (default: the whole
        store) by interned label and server collapses the per-flow work
        of the domain-tree/spatial/tangle analytics into one pass per
        *distinct* pair.
        """
        return self._fqdn_pair_counts(self.columns.server_ip, rows)

    def fqdn_client_counts(
        self, rows=None
    ) -> list[tuple[int, int, int]]:
        """Deduped ``(fqdn_id, client_ip, flow_count)`` groups.

        The Eq. 1 scorers (service tags, word cloud, token ranking)
        need per-client flow counts per label; tokenization then runs
        once per distinct FQDN instead of once per flow.
        """
        return self._fqdn_pair_counts(self.columns.client_ip, rows)

    def fqdn_flow_byte_totals(
        self, rows=None
    ) -> list[tuple[int, int, int, int]]:
        """Per-label ``(fqdn_id, flows, bytes_up, bytes_down)`` totals
        (Tab. 8-style rollups) over the labeled flows of ``rows``."""
        if rows is None:
            rows = self._tagged
        if not len(rows):
            return []
        if _np is not None:
            rows, ids = self._tagged_subset(rows)
            unique, inverse, counts = _np.unique(
                ids, return_inverse=True, return_counts=True
            )
            up = _np.bincount(
                inverse,
                weights=self._take(self.columns.bytes_up, rows),
            )
            down = _np.bincount(
                inverse,
                weights=self._take(self.columns.bytes_down, rows),
            )
            return [
                (int(fqdn_id), int(count), int(u), int(d))
                for fqdn_id, count, u, d in zip(
                    unique.tolist(), counts.tolist(),
                    up.tolist(), down.tolist(),
                )
            ]
        totals: dict[int, list[int]] = {}
        cols = self.columns
        for row in rows:
            fqdn_id = cols.fqdn_id[row]
            if fqdn_id < 0:
                continue
            bucket = totals.get(fqdn_id)
            if bucket is None:
                bucket = totals[fqdn_id] = [0, 0, 0]
            bucket[0] += 1
            bucket[1] += cols.bytes_up[row]
            bucket[2] += cols.bytes_down[row]
        return sorted(
            (fqdn_id, flows, up, down)
            for fqdn_id, (flows, up, down) in totals.items()
        )

    def server_flow_counts(self, rows=None) -> dict[int, int]:
        """Flow count per serverIP over ``rows`` (default: all flows)."""
        if rows is None:
            if _np is not None:
                servers = _np.frombuffer(self.columns.server_ip, _np.uint32)
                unique, counts = _np.unique(servers, return_counts=True)
                return dict(zip(unique.tolist(), counts.tolist()))
            rows = range(len(self._records))
        if not len(rows):
            return {}
        if _np is not None and isinstance(rows, (array, _np.ndarray)):
            servers = self._take(self.columns.server_ip, rows)
            unique, counts = _np.unique(servers, return_counts=True)
            return dict(zip(unique.tolist(), counts.tolist()))
        counts: dict[int, int] = {}
        column = self.columns.server_ip
        for row in rows:
            server = column[row]
            counts[server] = counts.get(server, 0) + 1
        return counts

    def unique_servers_per_bin(
        self, sld: str, bin_seconds: float
    ) -> list[tuple[float, int]]:
        """Fig. 4 series: distinct serverIPs per time bin for one 2LD,
        gap-filled from the first to the last active bin."""
        rows = self.rows_for_domain(sld)
        if _np is not None and len(rows):
            starts = self._take(self.columns.start, rows)
            servers = self._take(self.columns.server_ip, rows)
            bins = _np.floor_divide(starts, bin_seconds).astype(_np.int64)
            lo = int(bins.min())
            hi = int(bins.max())
            pair = ((bins - lo) << 32) | servers.astype(_np.int64)
            per_bin = _np.bincount(
                (_np.unique(pair) >> 32), minlength=hi - lo + 1
            )
            return [
                ((lo + index) * bin_seconds, int(count))
                for index, count in enumerate(per_bin.tolist())
            ]
        return servers_per_bin(
            self.bin_server_pairs(rows, bin_seconds), bin_seconds
        )

    def server_bins_for_fqdn(
        self, fqdn: str, bin_seconds: float
    ) -> list[tuple[int, int]]:
        """Deduped ``(bin_index, server_ip)`` pairs for one FQDN, sorted
        by bin — the Sec. 4.1 track-over-time feed."""
        return self.bin_server_pairs(self.rows_for_fqdn(fqdn), bin_seconds)

    def bin_server_pairs(
        self, rows, bin_seconds: float
    ) -> list[tuple[int, int]]:
        """Deduped ``(bin_index, server_ip)`` pairs over ``rows`` —
        the per-segment primitive behind the on-disk store's
        :meth:`unique_servers_per_bin` merge (distinct-server counts
        cannot merge across segments; the pairs can)."""
        if not len(rows):
            return []
        if _np is not None:
            starts = self._take(self.columns.start, rows)
            servers = self._take(self.columns.server_ip, rows)
            bins = _np.floor_divide(starts, bin_seconds).astype(_np.int64)
            lo = int(bins.min())
            keys = _np.unique(
                ((bins - lo) << 32) | servers.astype(_np.int64)
            )
            return [
                (int(key >> 32) + lo, int(key & 0xFFFFFFFF))
                for key in keys.tolist()
            ]
        start_col = self.columns.start
        server_col = self.columns.server_ip
        pairs = {
            (int(start_col[row] // bin_seconds), server_col[row])
            for row in rows
        }
        return sorted(pairs)

    def fqdn_bin_pairs(
        self, bin_seconds: float, rows=None
    ) -> list[tuple[int, int]]:
        """Deduped ``(fqdn_id, bin_index)`` activity pairs over the
        labeled flows of ``rows`` (Fig. 11 timelines)."""
        if rows is None:
            rows = self._tagged
        if not len(rows):
            return []
        if _np is not None:
            rows, ids = self._tagged_subset(rows)
            if not len(ids):
                return []
            starts = self._take(self.columns.start, rows)
            bins = _np.floor_divide(starts, bin_seconds).astype(_np.int64)
            lo = int(bins.min())
            keys = _np.unique((ids.astype(_np.int64) << 32) | (bins - lo))
            return [
                (int(key >> 32), int(key & 0xFFFFFFFF) + lo)
                for key in keys.tolist()
            ]
        pairs = set()
        fqdn_col = self.columns.fqdn_id
        start_col = self.columns.start
        for row in rows:
            fqdn_id = fqdn_col[row]
            if fqdn_id >= 0:
                pairs.add((fqdn_id, int(start_col[row] // bin_seconds)))
        return sorted(pairs)

    def fqdn_first_seen(self, rows=None) -> dict[int, float]:
        """Earliest flow start per interned label over ``rows``."""
        if rows is None:
            rows = self._tagged
        if not len(rows):
            return {}
        if _np is not None:
            rows, ids = self._tagged_subset(rows)
            if not len(ids):
                return {}
            starts = self._take(self.columns.start, rows)
            order = _np.argsort(ids, kind="stable")
            sorted_ids = ids[order]
            sorted_starts = starts[order]
            bounds = _np.flatnonzero(sorted_ids[1:] != sorted_ids[:-1]) + 1
            group_starts = _np.concatenate(([0], bounds))
            mins = _np.minimum.reduceat(sorted_starts, group_starts)
            return {
                int(sorted_ids[index]): float(value)
                for index, value in zip(
                    group_starts.tolist(), mins.tolist()
                )
            }
        first: dict[int, float] = {}
        fqdn_col = self.columns.fqdn_id
        start_col = self.columns.start
        for row in rows:
            fqdn_id = fqdn_col[row]
            if fqdn_id < 0:
                continue
            start = start_col[row]
            if fqdn_id not in first or start < first[fqdn_id]:
                first[fqdn_id] = start
        return first

    def server_fqdn_bin_triples(
        self, bin_seconds: float, rows=None
    ) -> list[tuple[int, int, int]]:
        """Deduped ``(server_ip, fqdn_id, bin_index)`` triples over the
        labeled flows of ``rows`` — the Fig. 5 active-FQDNs feed."""
        if rows is None:
            rows = self._tagged
        if not len(rows):
            return []
        if _np is not None:
            rows, ids = self._tagged_subset(rows)
            if not len(ids):
                return []
            starts = self._take(self.columns.start, rows)
            servers = self._take(self.columns.server_ip, rows)
            bins = _np.floor_divide(starts, bin_seconds).astype(_np.int64)
            lo = int(bins.min())
            n_bins = int(bins.max()) - lo + 1
            n_ids = len(self._fqdn_names)
            if n_ids * n_bins <= 1 << 31:
                # (fqdn, bin) packs into the low 32 bits: one sort-
                # unique over uint64 keys instead of a structured
                # (void) unique.  The key must be unsigned — a server
                # address >= 2^31 shifted into the high bits would
                # overflow a signed int64 and come back negative.
                combo = ids.astype(_np.uint64) * _np.uint64(n_bins) + (
                    (bins - lo).astype(_np.uint64)
                )
                key = (
                    servers.astype(_np.uint64) << _np.uint64(32)
                ) | combo
                unique = _np.unique(key)
                combos = (unique & _np.uint64(0xFFFFFFFF)).astype(
                    _np.int64
                )
                return list(zip(
                    (unique >> _np.uint64(32)).astype(_np.int64).tolist(),
                    (combos // n_bins).tolist(),
                    (combos % n_bins + lo).tolist(),
                ))
            stacked = _np.empty(
                len(rows),
                dtype=[("s", _np.uint32), ("f", _np.int32),
                       ("b", _np.int64)],
            )
            stacked["s"] = servers
            stacked["f"] = ids
            stacked["b"] = bins
            unique = _np.unique(stacked)
            return list(zip(
                unique["s"].tolist(), unique["f"].tolist(),
                unique["b"].tolist(),
            ))
        triples = set()
        cols = self.columns
        for row in rows:
            fqdn_id = cols.fqdn_id[row]
            if fqdn_id >= 0:
                triples.add((
                    cols.server_ip[row], fqdn_id,
                    int(cols.start[row] // bin_seconds),
                ))
        return sorted(triples)

    def sld_flow_stats(
        self, rows
    ) -> list[tuple[int, int, int]]:
        """Per-organization ``(sld_id, flows, distinct_fqdns)`` over the
        labeled flows of ``rows`` (the Tab. 5 ranking feed)."""
        if not len(rows):
            return []
        if _np is not None:
            rows, ids = self._tagged_subset(rows)
            if not len(ids):
                return []
            sld_map = _np.frombuffer(self._fqdn_sld, dtype=_np.int32)
            slds = sld_map[ids]
            unique, counts = _np.unique(slds, return_counts=True)
            flow_counts = dict(zip(unique.tolist(), counts.tolist()))
            pair = (slds.astype(_np.int64) << 32) | ids.astype(_np.int64)
            fqdn_counts = _np.unique(_np.unique(pair) >> 32,
                                     return_counts=True)
            distinct = dict(zip(fqdn_counts[0].tolist(),
                                fqdn_counts[1].tolist()))
            return [
                (sld_id, flow_counts[sld_id], distinct[sld_id])
                for sld_id in flow_counts
            ]
        return sld_stats(
            (
                (fqdn_id, flows) for fqdn_id, flows, _up, _down
                in self.fqdn_flow_byte_totals(rows)
            ),
            self._fqdn_sld,
        )

    # -- stats -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[FlowRecord]:
        record = self._record
        return (record(row) for row in range(len(self._records)))

    @property
    def tagged_count(self) -> int:
        """Number of flows carrying a label (maintained incrementally)."""
        return len(self._tagged)

    def count_by_protocol(self) -> dict[Protocol, int]:
        """Flow counts per layer-7 protocol (maintained incrementally)."""
        return {
            PROTOCOLS[index]: count
            for index, count in enumerate(self._protocol_counts)
            if count
        }

    def time_span(self) -> tuple[float, float]:
        """(earliest start, latest end), tracked during ingestion."""
        if not self._records:
            return (0.0, 0.0)
        return (self._min_start, self._max_end)
