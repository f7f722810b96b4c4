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
  references.  Ingestion folds only the statistics (protocol counts,
  tagged rows, time span); an index is built, and later extended over
  new rows, the first time a query asks for it
  (:meth:`FlowDatabase._index`), so a segment materialized for a
  grouped sweep or a tail batch sealed unqueried never pays for one.

The public query surface of the seed store is preserved verbatim —
``query_by_*`` still return :class:`FlowRecord` lists (records ingested
as objects are returned as-is; records ingested from binary batches are
materialized lazily, once, on first touch) — and a set of grouped
aggregation methods is exposed on top for the vectorized analytics in
:mod:`repro.analytics.temporal`, ``spatial``, ``domain_tree``,
``trackers``, ``content``, ``tags``, ``tangle`` and ``wordcloud``.
Each of those is a *kernel* that returns one packed :class:`Groups`
(key columns then value columns, no tuple per group) plus a ``finish``
that unpacks it; the query table runs the kernel per source, lifts and
merges the packed partials (:meth:`Groups.lifted` /
:meth:`Groups.merged`) and finishes once, and the in-memory method is
the same two halves back to back.

Ingestion has two paths:

* :meth:`FlowDatabase.add` — one :class:`FlowRecord` object at a time
  (the seed API, used by tests and small tools);
* :meth:`FlowDatabase.ingest_batch` — one eventcodec flow batch
  (:mod:`repro.sniffer.eventcodec`) absorbed column-wise with **no
  per-record object churn**: the sniffer emits tagged-flow batches
  (``SnifferPipeline.emit_tagged_batches``) and this store lifts the
  hot blocks straight into its columns.  This closes the sniffer→database
  arrow of Fig. 1 in the same throughput class as the event loop.

Every aggregation, decode and index build has one body, in numpy — a
hard dependency of the analyzer, unlike the stdlib-only capture side
(:mod:`repro.sniffer`).  Addresses are IPv4 ``u32`` exactly as in the
resolver and the codec.
"""

from __future__ import annotations

import inspect
import json
import math
import struct
import threading
from array import array
from functools import wraps
from typing import Iterable, Iterator, Optional, Sequence

import numpy as _np

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

# Transport byte -> member: what ``FlowColumns.problem`` accepts and
# what ``_record`` rebuilds ``fid.proto`` from, with no enum call.
_TRANSPORTS = {int(member): member for member in TransportProto}

_NONE_STR = 0xFFFF
_NO_COLD_STRINGS = STR_LEN.pack(_NONE_STR) * 2   # cert_name, true_fqdn: None
_EMPTY_ROWS: tuple[int, ...] = ()

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
#: ``array`` typecode of a column → the numpy dtype viewing it.
_DTYPES = {
    "I": _np.uint32, "H": _np.uint16, "B": _np.uint8,
    "d": _np.float64, "Q": _np.uint64, "i": _np.int32,
}


class FlowColumns:
    """Parallel per-flow columns (struct-of-arrays layout).

    Each attribute is one column over all flows in insertion order.
    The eleven :attr:`VALUES` columns and ``fqdn_id`` are ``array``s
    numpy can view zero-copy via ``numpy.frombuffer``; ``fqdn_id`` is
    ``-1`` for untagged flows and otherwise an id into the owning
    database's interned FQDN table.  The three string columns —
    original-case label, certificate name, ground-truth FQDN — are
    lists of ``Optional[str]`` (a materialized segment's: read-only
    object arrays).
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

    def problem(self) -> Optional[str]:
        """Why these rows cannot be materialized as records — a
        protocol index outside ``PROTOCOLS``, a transport byte that is
        no ``TransportProto`` or a NaN/inf timestamp — or ``None``.
        The one check behind both column loaders: a codec batch
        (reported as ``CodecError`` while the store is still
        untouched) and a segment file (``StorageError``)."""
        if not len(self):
            return None
        view = _np.frombuffer
        if int(view(self.protocol, _np.uint8).max()) >= len(PROTOCOLS):
            return "protocol index out of range"
        if not _np.isin(
            view(self.transport, _np.uint8), list(_TRANSPORTS)
        ).all():
            return "invalid transport protocol number"
        if not (
            _np.isfinite(view(self.start, _np.float64)).all()
            and _np.isfinite(view(self.end, _np.float64)).all()
        ):
            return "non-finite flow timestamp"
        return None


def _native(values, dtype):
    """Contiguous native-endian bytes of a numpy array slice."""
    return _np.ascontiguousarray(values, dtype=dtype).tobytes()


def _row_index(rows):
    """``rows`` as a numpy ``uint32`` index (a view over an ``array``)."""
    if isinstance(rows, array):
        return _np.frombuffer(rows, _np.uint32)
    return _np.asarray(rows, _np.uint32)


def _decode_flow_columns(view: BatchView) -> FlowColumns:
    """The value columns of a batch's packed hot/cold flow blocks."""
    cols = FlowColumns()
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


#: The longest gap-filled series anything builds.  Gap filling is the
#: one place a result is not bounded by its input (two flows an hour
#: apart at ``bin_seconds=1e-5`` span 360M bins), so every series —
#: Fig. 4, Fig. 5, :class:`~repro.analytics.temporal.TimeBins` — asks
#: :func:`series_bins` for its length before anything is allocated.
#: Not a parameter: 1M bins is 19 years of 10-minute bins.
MAX_SERIES_BINS = 1_000_000


def series_bins(lo: int, hi: int, bin_seconds: float) -> int:
    """Length of the gap-filled series from bin ``lo`` to bin ``hi``;
    ``ValueError`` past :data:`MAX_SERIES_BINS` (enforced here only)."""
    if hi - lo >= MAX_SERIES_BINS:
        raise ValueError(
            f"bin_seconds={bin_seconds!r} asks for a series of "
            f"{hi - lo + 1} bins; the limit is {MAX_SERIES_BINS}"
        )
    return hi - lo + 1


#: ``reduce`` of :meth:`Groups.merged` → the ufunc that folds a group.
_REDUCE = {"sum": _np.add, "min": _np.minimum}


def _grouped_keys(keys, permute: bool):
    """Group the rows of equal-length numpy key columns: ``(order,
    starts, group_keys)`` — a permutation that sorts the rows
    lexicographically by key, the offset in it of each run of equal
    keys, and the distinct keys column-wise.  Keys whose value ranges
    multiply to under 2^63 are packed into one ``int64`` and take a
    single unstable sort — of the values alone when no value column
    has to follow (``permute`` false; ``order`` is then ``None`` and
    the keys are unpacked again); anything wider takes ``lexsort``."""
    packed, spans, width = None, [], 1
    for key in keys:
        lo = int(key.min())
        span = int(key.max()) - lo + 1
        spans.append((lo, span))
        width *= span
        if width >= 1 << 63:
            packed = None
            break
        part = key.astype(_np.int64) - lo
        packed = part if packed is None else packed * span + part
    if packed is None:
        order = _np.lexsort(keys[::-1])
        ordered = [key[order] for key in keys]
    elif permute:
        order = _np.argsort(packed)
        ordered = [packed[order]]
    else:
        order = None
        ordered = [_np.sort(packed)]
    differs = ordered[0][1:] != ordered[0][:-1]
    for key in ordered[1:]:
        differs |= key[1:] != key[:-1]
    starts = _np.concatenate(([0], _np.flatnonzero(differs) + 1))
    if order is not None:
        first = order[starts]
        return order, starts, [key[first] for key in keys]
    rest, group_keys = ordered[0][starts], []
    for lo, span in reversed(spans):
        rest, part = _np.divmod(rest, span)
        group_keys.append(part + lo)
    return None, starts, group_keys[::-1]


class Groups:
    """The packed partial every grouped aggregation carries: ``k`` key
    columns then value columns, one numpy array each, rows unique by
    key (the empty partial holds no column at all).

    Partials stay packed through :meth:`lifted` and :meth:`merged` —
    also across a shard worker's pipe, they pickle — and become tuples
    once, in :meth:`tuples` / :meth:`mapping` (the query table's
    ``finish``) — or never: a served answer is written from the
    columns (:meth:`to_json`).  An analysis that regroups them asks
    for the partial itself (``database.groups(name, ...)``) and stays
    on columns: :meth:`mapped`, :meth:`where`, :meth:`column` back
    into :meth:`of`, and :meth:`values` for the one list it reports.
    """

    __slots__ = ("k", "columns")

    def __init__(self, k: int, columns: tuple = ()):
        self.k = k
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Groups) and self.tuples() == other.tuples()

    @classmethod
    def of(cls, k: int, *columns, count: bool = False,
           reduce: str = "sum") -> "Groups":
        """Raw rows given column-wise (numpy arrays) folded into
        groups; keys may repeat.  ``count`` makes the group's row count
        the first value column."""
        if not len(columns[0]):
            return cls(0)
        return cls(k, cls._folded(columns, k, reduce, count))

    def lifted(self, column: int, id_map) -> "Groups":
        """These groups with the ids of one column replaced by
        ``id_map[id]`` (rows stay distinct when the map is injective,
        as a source's fqdn id map is)."""
        if not len(self):
            return self
        table = (
            _np.frombuffer(id_map, _np.int32) if isinstance(id_map, array)
            else _np.asarray(id_map)
        )
        columns = list(self.columns)
        columns[column] = table[columns[column]]
        return Groups(self.k, tuple(columns))

    def mapped(self, column: int, function) -> "Groups":
        """These rows with one column replaced by ``function(value)``
        (an integer), called once per distinct value in ascending
        order.  A function that is not injective leaves equal keys
        behind: fold the columns again with :meth:`of`."""
        if not len(self):
            return self
        distinct, inverse = _np.unique(
            self.columns[column], return_inverse=True
        )
        columns = list(self.columns)
        columns[column] = _np.array(
            [function(value) for value in distinct.tolist()]
        )[inverse]
        return Groups(self.k, tuple(columns))

    def where(self, column: int, values) -> "Groups":
        """The rows whose ``column`` holds one of ``values``."""
        if not len(self):
            return self
        mask = _np.isin(self.columns[column], list(values))
        return Groups(self.k, tuple(c[mask] for c in self.columns))

    def column(self, index: int):
        """One column in the form :meth:`of` takes back — opaque; read
        it with :meth:`values`."""
        return self.columns[index] if self.columns else _np.empty(0)

    def values(self, index: int) -> list:
        """One column as a plain list of Python scalars."""
        return self.column(index).tolist()

    @staticmethod
    def merged(parts, reduce: str = "sum") -> "Groups":
        """``parts`` folded into one: rows sorted by key, the value
        columns of equal keys reduced (``"sum"`` or ``"min"``; with no
        value column this is a dedupe).  Associative; a part need not
        be unique by key itself.  Integer sums are exact: a column
        whose total could pass 2^63 is summed as Python ints
        (``dtype=object``) instead of wrapping."""
        parts = [part for part in parts if len(part)]
        if not parts:
            return Groups(0)
        k = parts[0].k
        return Groups(k, Groups._folded([
            _np.concatenate(column) if len(parts) > 1 else column[0]
            for column in zip(*(part.columns for part in parts))
        ], k, reduce))

    @staticmethod
    def _folded(columns, k: int, reduce: str, count: bool = False) -> tuple:
        """The fold behind :meth:`of` and :meth:`merged`."""
        order, starts, out = _grouped_keys(columns[:k], len(columns) > k)
        if count:
            out.append(_np.diff(starts, append=len(columns[0])))
        ufunc = _REDUCE[reduce]
        for values in columns[k:]:
            values = values[order]
            if (
                reduce == "sum" and values.dtype.kind in "iu"
                and int(values.max()) * len(values) >= 1 << 63
            ):
                values = values.astype(object)
            out.append(ufunc.reduceat(values, starts))
        return tuple(out)

    def tuples(self) -> list:
        """One tuple per group, columns in order."""
        return list(zip(*(column.tolist() for column in self.columns)))

    def mapping(self) -> dict:
        """``{key: value}`` of single-key, single-value groups."""
        return dict(zip(*(column.tolist() for column in self.columns)))

    def to_json(self) -> str:
        """``[[k…, v…], …]``: the text ``json.dumps`` writes for
        :meth:`tuples`, without a tuple per group — integer columns
        are interleaved and written by one ``%d`` template."""
        if not len(self) or any(
            column.dtype.kind not in "iuO" for column in self.columns
        ):
            return json.dumps(self.tuples())
        width = len(self.columns)
        flat = [None] * (width * len(self))
        for index, column in enumerate(self.columns):
            flat[index::width] = column.tolist()
        row = "[" + ", ".join(["%d"] * width) + "]"
        return "[" + ", ".join([row] * len(self)) % tuple(flat) + "]"


def _binned(bin_seconds: float, starts, *columns) -> list:
    """``columns`` followed by the time-bin index of each start;
    ``ValueError`` when an index would not fit an ``int64``."""
    bins = _np.floor_divide(starts, bin_seconds)
    if len(bins) and not (
        bins.min() >= -2.0 ** 63 and bins.max() < 2.0 ** 63
    ):
        raise ValueError(
            f"bin_seconds={bin_seconds!r} puts a time-bin index outside "
            f"the int64 range"
        )
    return [*columns, bins.astype(_np.int64)]


def _grouped(finish):
    """A public grouped aggregation in the two halves the query table
    runs (:mod:`repro.analytics.queries`): the decorated body is the
    per-source *kernel* and returns packed :class:`Groups` in the
    database's local ids; ``finish(groups, interns, *args)`` unpacks
    them once, at the end.  The method is finish-of-kernel over this
    one database, so its annotation and docstring describe the
    unpacked form."""
    def decorate(kernel):
        signature = inspect.signature(kernel)

        @wraps(kernel)
        def method(self, *args, **kwargs):
            if kwargs:
                args = signature.bind(self, *args, **kwargs).args[1:]
            return finish(kernel(self, *args), self, *args)
        method.kernel, method.finish = kernel, finish
        return method
    return decorate


def _tuples(groups: Groups, _interns, *_args) -> list:
    return groups.tuples()


def _mapping(groups: Groups, _interns, *_args) -> dict:
    return groups.mapping()


def gap_filled(counts: dict, bin_seconds: float) -> list[tuple[float, int]]:
    """``{bin_index: count}`` as ``(bin_start, count)`` from the first
    to the last bin, a missing bin counting 0 (:func:`series_bins`
    long; no bin, no series)."""
    if not counts:
        return []
    lo = min(counts)
    return [
        ((lo + index) * bin_seconds, counts.get(lo + index, 0))
        for index in range(series_bins(lo, max(counts), bin_seconds))
    ]


def distinct_per_bin(pairs: Groups,
                     bin_seconds: float) -> list[tuple[float, int]]:
    """Deduped ``(bin_index, member)`` groups → distinct members per
    bin as ``(bin_start, count)``, gap-filled from the first to the
    last active bin (:func:`gap_filled`).  Distinct counts do not
    merge across sources; the pairs do, so this is the last step
    wherever the pairs came from: servers of a 2LD (Fig. 4), FQDNs of
    a CDN (Fig. 5)."""
    return gap_filled(
        Groups.of(1, pairs.column(0), count=True).mapping(), bin_seconds
    )


def sld_stats(per_fqdn: Groups, interns, *_rows) -> list[tuple[int, int, int]]:
    """``(fqdn_id; flows)`` groups → per-organization ``(sld_id, flows,
    distinct_fqdns)``, sorted, through ``interns``' ``fqdn id → sld
    id`` table (each fqdn id appears once)."""
    # Through a copy, not a view: the table grows under concurrent
    # interning, and an array cannot grow while it exports a buffer.
    per_sld = per_fqdn.lifted(0, interns._fqdn_sld[:])
    return [
        (sld_id, flows, fqdns) for sld_id, fqdns, flows in Groups.of(
            1, per_sld.column(0), per_sld.column(1), count=True
        ).tuples()
    ]


class _RowIndex:
    """One index of a :class:`FlowDatabase`: key → the key's rows,
    ascending (an ``array("I")``; do not mutate), keys in
    first-appearance order.  :meth:`add` appends an extension's rows,
    grouped by key, to one array and gives a new key only where its
    rows lie there (``start << 32 | stop``, an ``int``: no container
    per key); :meth:`get` cuts a key's array the first time it is asked
    for.  Two readers cutting one key at once store equal arrays."""

    __slots__ = ("_rows", "_grouped")

    def __init__(self):
        self._rows: dict = {}           # key -> array, or a span of _grouped
        self._grouped = array("I")

    def __iter__(self):
        return iter(self._rows)

    def get(self, key, default=None):
        rows = self._rows.get(key, default)
        if type(rows) is int:
            rows = self._rows[key] = (
                self._grouped[rows >> 32:rows & 0xFFFFFFFF]
            )
        return rows

    def gather(self, keys: Iterable) -> array:
        """The rows of each of ``keys`` in turn (a key the index lacks
        adds none), without cutting an array per key."""
        out, grouped = array("I"), self._grouped
        for rows in map(self._rows.get, keys):
            if type(rows) is int:
                out.extend(grouped[rows >> 32:rows & 0xFFFFFFFF])
            elif rows is not None:
                out.extend(rows)
        return out

    def add(self, keys, rows, starts) -> None:
        """Take one extension: ``rows`` (``uint32``, ascending within a
        group) grouped by key, group *g* starting at ``starts[g]`` with
        key ``keys[g]``.  Keys new to the index join in the order of
        their first rows; a key it holds already gets its rows
        appended."""
        offset = len(self._grouped)
        self._grouped.frombytes(rows.tobytes())
        bounds = _np.append(starts, len(rows)).astype(_np.uint64) + offset
        where = (bounds[:-1] << _np.uint64(32)) | bounds[1:]
        # A group's first row is its key's first appearance.
        order = _np.argsort(rows[starts])
        fresh = dict(zip(keys[order].tolist(), where[order].tolist()))
        for key in self._rows.keys() & fresh.keys():
            span = fresh.pop(key)
            rows = self._rows[key] = self.get(key)
            rows.extend(self._grouped[span >> 32:span & 0xFFFFFFFF])
        self._rows.update(fresh)


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
        # Label bytes as they arrive in a batch -> fqdn id, and -> text;
        # None is the untagged slot.  A store's global table resolves
        # its segments' label-table entries through the same two.
        self._raw_ids: dict[Optional[bytes], int] = {None: -1}
        self._raw_texts: dict[Optional[bytes], Optional[str]] = {None: None}
        # Row-index arrays (key -> rows), built on first use: per index
        # the rows it covers so far, extended through _index() only.
        self._indexes = {
            "fqdn": _RowIndex(), "sld": _RowIndex(),
            "server": _RowIndex(), "port": _RowIndex(),
        }
        self._indexed = dict.fromkeys(self._indexes, 0)
        self._index_lock = threading.Lock()
        # Incremental statistics (no full scans on access).
        self._tagged = array("I")                   # rows with a label
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
            self._fqdn_sld.append(sld_id)
        return fqdn_id

    def fqdn_label(self, fqdn_id: int) -> str:
        """The lowercased FQDN behind an interned id."""
        return self._fqdn_names[fqdn_id]

    def sld_label(self, sld_id: int) -> str:
        """The second-level domain behind an interned id."""
        return self._sld_names[sld_id]

    # -- ingestion ---------------------------------------------------------

    def add(self, flow: FlowRecord) -> None:
        """Insert one flow record.

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
            self._tagged.append(row)
        else:
            fqdn_id = -1
        cols.fqdn_id.append(fqdn_id)
        cols.raw_fqdn.append(fqdn)
        cols.cert_name.append(flow.cert_name)
        cols.true_fqdn.append(flow.true_fqdn)
        self._records.append(flow)
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
        cls, columns: FlowColumns, interns: "FlowDatabase", fqdn_map,
    ) -> "FlowDatabase":
        """Adopt ready-made rows (a materialized segment): ``columns``
        complete, its ``fqdn_id`` column holding ``-1`` or a local id —
        a position in ``fqdn_map``, which maps the distinct names of
        the rows, in first-appearance order, onto ``interns``' ids.
        The database takes ownership of ``columns``, takes its label
        tables from ``interns``' through that map — field for field
        what interning the names one by one gives, sharing ``interns``'
        ``str`` objects, without reading a name — and folds the
        statistics (indexes wait for their first reader).  Enum
        validity (:meth:`FlowColumns.problem`) and the id range are the
        caller's checks; ragged columns or a repeated id are
        ``ValueError``."""
        database = cls()
        n = len(columns)
        if len(set(fqdn_map)) != len(fqdn_map) or any(
            len(getattr(columns, name)) != n for name in columns.__slots__
        ):
            raise ValueError("inconsistent flow columns")
        # interns' sld id of each name (through a copy, see sld_stats),
        # renumbered in first-appearance order.
        slds, first, inverse = _np.unique(
            _np.frombuffer(interns._fqdn_sld[:], _np.int32)[
                _np.frombuffer(fqdn_map, _np.int32)
            ],
            return_index=True, return_inverse=True,
        )
        order = _np.argsort(first)
        local = _np.empty(len(order), _np.int32)
        local[order] = _np.arange(len(order), dtype=_np.int32)
        names = list(map(interns._fqdn_names.__getitem__, fqdn_map))
        database._fqdn_names = names
        database._fqdn_ids = dict(zip(names, range(len(names))))
        database._fqdn_sld.frombytes(local[inverse].tobytes())
        database._sld_names = list(
            map(interns._sld_names.__getitem__, slds[order].tolist())
        )
        database._sld_ids = dict(
            zip(database._sld_names, range(len(order)))
        )
        database.columns = columns
        database._records = [None] * n
        database._all_records = not n
        database._fold_statistics(0)
        return database

    # -- batch ingestion (the sniffer→database deployment format) ---------

    def ingest_batch(self, payload) -> int:
        """Absorb one eventcodec batch of tagged flows, column-wise.

        ``payload`` is an encoded batch as produced by
        ``SnifferPipeline.emit_tagged_batches`` (or any
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
        problem = chunk.problem()
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
        self._fold_statistics(base)
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
        raw_ids = self._raw_ids
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
                    if raw not in raw_ids and raw not in new_labels:
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
        raw_ids, raw_texts = self._raw_ids, self._raw_texts
        for raw, text in new_labels.items():
            raw_ids[raw] = self._intern_fqdn(text.lower()) if text else -1
            raw_texts[raw] = text
        cols = self.columns
        cols.fqdn_id.extend(array("i", list(map(raw_ids.__getitem__, labels))))
        cols.raw_fqdn.extend(map(raw_texts.__getitem__, labels))
        cols.cert_name.extend(cert_names)
        cols.true_fqdn.extend(true_fqdns)

    def _fold_statistics(self, base: int) -> None:
        """Fold rows ``[base, len)`` of the columns into what
        ``count_by_protocol`` / ``tagged_count`` / ``time_span`` answer
        from — the protocol counts, the tagged-row list and
        ``min_start`` / ``max_end`` — behind
        batch ingest and segment materialization (:meth:`add` folds
        its one record inline)."""
        cols = self.columns
        n = len(cols)
        if base >= n:
            return
        counts = _np.bincount(
            _np.frombuffer(cols.protocol, _np.uint8)[base:],
            minlength=len(PROTOCOLS),
        )
        for index, count in enumerate(counts.tolist()):
            self._protocol_counts[index] += count
        ids = _np.frombuffer(cols.fqdn_id, _np.int32)[base:]
        self._tagged.frombytes(
            _native(_np.flatnonzero(ids >= 0) + base, _np.uint32)
        )
        starts = _np.frombuffer(cols.start, _np.float64)[base:]
        ends = _np.frombuffer(cols.end, _np.float64)[base:]
        self._min_start = min(self._min_start, float(starts.min()))
        self._max_end = max(self._max_end, float(ends.max()))

    def _index(self, which: str) -> _RowIndex:
        """The by-``which`` index (``"fqdn"`` / ``"sld"`` / ``"server"``
        / ``"port"``: key → ascending rows), brought up to date over
        every row first — the one way any reader reaches an index, so
        an index no query asks for is never built.

        Double-checked under the database's own lock: sealed segments
        are read lock-free by serve threads and the ``parallel`` pool,
        and exactly one of them extends.  Rows are only ever *added*
        under the owning store's mutex, which its tail readers hold
        too, so the row count cannot move under a reader."""
        n = len(self._records)
        if self._indexed[which] < n:
            with self._index_lock:
                if self._indexed[which] < n:
                    self._extend_index(which, self._indexed[which], n)
                    self._indexed[which] = n
        return self._indexes[which]

    def _extend_index(self, which: str, base: int, n: int) -> None:
        """Append rows ``[base, n)`` to one index: each key's rows
        ascending, missing keys created in first-appearance order (so
        the ``servers()`` / ``ports()`` listings match the row
        store's whatever order the indexes were first asked in).  One
        sort groups the rows; :meth:`_RowIndex.add` takes them."""
        index = self._indexes[which]
        cols = self.columns
        column = {"server": cols.server_ip, "port": cols.dst_port}.get(
            which, cols.fqdn_id
        )
        keys = _np.frombuffer(column, _DTYPES[column.typecode])[base:n]
        rows = _np.arange(base, n, dtype=_np.uint64)
        if column is cols.fqdn_id:
            mask = keys >= 0
            keys, rows = keys[mask], rows[mask]
            if which == "sld":
                keys = _np.frombuffer(self._fqdn_sld, _np.int32)[keys]
        if not len(keys):
            return
        # One sort of (key, row) packed into a u64 groups the rows by
        # key and keeps them ascending within a group.
        packed = _np.sort((keys.astype(_np.uint64) << _np.uint64(32)) | rows)
        sorted_keys = packed >> _np.uint64(32)
        starts = _np.concatenate(
            ([0], _np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1)
        )
        index.add(
            sorted_keys[starts],
            (packed & _np.uint64(0xFFFFFFFF)).astype(_np.uint32), starts,
        )

    # -- record materialization -------------------------------------------

    def _record(self, row: int) -> FlowRecord:
        record = self._records[row]
        if record is None:
            cols = self.columns
            record = FlowRecord(
                FiveTuple(
                    cols.client_ip[row], cols.server_ip[row],
                    cols.src_port[row], cols.dst_port[row],
                    _TRANSPORTS[cols.transport[row]],
                ),
                cols.start[row], cols.end[row],
                PROTOCOLS[cols.protocol[row]],
                cols.bytes_up[row], cols.bytes_down[row], cols.packets[row],
                cols.raw_fqdn[row], cols.cert_name[row], cols.true_fqdn[row],
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
        return self._index("fqdn").get(fqdn_id, _EMPTY_ROWS)

    def rows_for_domain(self, sld: str) -> Sequence[int]:
        """Row indices of flows under second-level domain ``sld``."""
        sld_id = self._sld_ids.get(sld.lower())
        return self._index("sld").get(sld_id, _EMPTY_ROWS)

    def rows_for_port(self, dst_port: int) -> Sequence[int]:
        """Row indices of flows to destination port ``dst_port``."""
        return self._index("port").get(dst_port, _EMPTY_ROWS)

    def rows_for_servers(self, servers: Iterable[int]) -> Sequence[int]:
        """Concatenated row indices for an address set (deduped)."""
        return self._index("server").gather(dict.fromkeys(servers))

    def rows_in_window(self, t0: float, t1: float) -> Sequence[int]:
        """Row indices of flows whose *start* falls in ``[t0, t1)``.

        The per-time-bin analytics (Figs. 3-5, 11) bin flows by start
        time; this is the matching row selector, and the primitive the
        durable store prunes segments against (a segment whose
        ``[min_start, max_start]`` misses the window is skipped
        without touching its columns).
        """
        if not len(self.columns) or t1 <= t0:
            return _EMPTY_ROWS
        starts = _np.frombuffer(self.columns.start, _np.float64)
        hits = _np.flatnonzero((starts >= t0) & (starts < t1))
        out = array("I")
        out.frombytes(_native(hits, _np.uint32))
        return out

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
        return list(self._index("server"))

    def ports(self) -> list[int]:
        """All distinct destination ports seen."""
        return list(self._index("port"))

    def _unique_servers(self, rows) -> set[int]:
        if not len(rows):
            return set()
        column = _np.frombuffer(self.columns.server_ip, _np.uint32)
        taken = column[_np.frombuffer(rows, _np.uint32)]
        return set(_np.unique(taken).tolist())

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
        column = _np.frombuffer(self.columns.fqdn_id, _np.int32)
        ids = column[_np.frombuffer(rows, _np.uint32)]
        return {
            names[fqdn_id]
            for fqdn_id in _np.unique(ids).tolist()
            if fqdn_id >= 0
        }

    def fqdns_for_domain(self, sld: str) -> set[str]:
        """Distinct FQDNs under one second-level domain."""
        sld_id = self._sld_ids.get(sld.lower())
        if sld_id is None:
            return set()
        names = self._fqdn_names
        # Through a copy, not a view (see sld_stats).
        members = _np.flatnonzero(
            _np.frombuffer(self._fqdn_sld[:], _np.int32) == sld_id
        )
        return {names[fqdn_id] for fqdn_id in members.tolist()}

    # -- grouped aggregations (vectorized analytics backends) --------------
    #
    # Each kernel selects its raw key/value columns and folds them with
    # Groups.of.  See _grouped for how the public method and the query
    # table share a kernel.

    def groups(self, name: str, *args) -> Groups:
        """The packed partial of the grouped aggregation ``name`` — its
        kernel half, what the method of that name would go on to
        unpack — for an analysis that regroups it with
        :class:`Groups` operations instead of walking tuples.
        ``KeyError`` for any other name."""
        kernel = getattr(getattr(FlowDatabase, name, None), "kernel", None)
        if kernel is None:
            raise KeyError(f"{name!r} is not a grouped aggregation")
        return kernel(self, *args)

    def _select(self, rows, *columns) -> list:
        """The values of ``columns`` at ``rows`` (``None`` = every
        row), column-wise, as numpy arrays."""
        views = [
            _np.frombuffer(column, _DTYPES[column.typecode])
            for column in columns
        ]
        if rows is None:
            return views
        rows = _row_index(rows)
        return [view[rows] for view in views]

    def _labeled(self, rows, *columns) -> list:
        """:meth:`_select` over the labeled flows among ``rows``
        (``None`` = all of them, masked rather than gathered), their fqdn
        ids as the first column."""
        selected = self._select(rows, self.columns.fqdn_id, *columns)
        mask = selected[0] >= 0
        return selected if mask.all() else [c[mask] for c in selected]

    def _fqdn_pair_counts(self, column, rows) -> Groups:
        """``(fqdn_id, column_value; flow_count)`` over the labeled
        flows of ``rows`` — the shared grouping core of
        :meth:`fqdn_server_counts` / :meth:`fqdn_client_counts`."""
        ids, values = self._labeled(rows, column)
        return Groups.of(2, ids, values, count=True)

    @_grouped(_tuples)
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

    @_grouped(_tuples)
    def fqdn_client_counts(
        self, rows=None
    ) -> list[tuple[int, int, int]]:
        """Deduped ``(fqdn_id, client_ip, flow_count)`` groups.

        The Eq. 1 scorers (service tags, word cloud, token ranking)
        need per-client flow counts per label; tokenization then runs
        once per distinct FQDN instead of once per flow.
        """
        return self._fqdn_pair_counts(self.columns.client_ip, rows)

    @_grouped(_tuples)
    def fqdn_flow_byte_totals(
        self, rows=None
    ) -> list[tuple[int, int, int, int]]:
        """Per-label ``(fqdn_id, flows, bytes_up, bytes_down)`` totals
        (Tab. 8-style rollups) over the labeled flows of ``rows``."""
        ids, up, down = self._labeled(
            rows, self.columns.bytes_up, self.columns.bytes_down
        )
        return Groups.of(1, ids, up, down, count=True)

    @_grouped(_mapping)
    def server_flow_counts(self, rows=None) -> dict[int, int]:
        """Flow count per serverIP over ``rows`` (default: all flows)."""
        (servers,) = self._select(rows, self.columns.server_ip)
        return Groups.of(1, servers, count=True)

    def _bin_server_pairs(self, rows, bin_seconds: float) -> Groups:
        """Deduped ``(bin_index, server_ip)`` over ``rows`` — distinct-
        server counts cannot merge across sources; these pairs can."""
        servers, bins = _binned(bin_seconds, *self._select(
            rows, self.columns.start, self.columns.server_ip
        ))
        return Groups.of(2, bins, servers)

    @_grouped(lambda pairs, _interns, _sld, bin_seconds:
              distinct_per_bin(pairs, bin_seconds))
    def unique_servers_per_bin(
        self, sld: str, bin_seconds: float
    ) -> list[tuple[float, int]]:
        """Fig. 4 series: distinct serverIPs per time bin for one 2LD,
        gap-filled from the first to the last active bin (at most
        :data:`MAX_SERIES_BINS` long, else ``ValueError``)."""
        return self._bin_server_pairs(self.rows_for_domain(sld), bin_seconds)

    @_grouped(_tuples)
    def server_bins_for_fqdn(
        self, fqdn: str, bin_seconds: float
    ) -> list[tuple[int, int]]:
        """Deduped ``(bin_index, server_ip)`` pairs for one FQDN, sorted
        by bin — the Sec. 4.1 track-over-time feed."""
        return self._bin_server_pairs(self.rows_for_fqdn(fqdn), bin_seconds)

    @_grouped(_tuples)
    def fqdn_bin_pairs(
        self, bin_seconds: float, rows=None
    ) -> list[tuple[int, int]]:
        """Deduped ``(fqdn_id, bin_index)`` activity pairs over the
        labeled flows of ``rows`` (Fig. 11 timelines)."""
        ids, starts = self._labeled(rows, self.columns.start)
        return Groups.of(2, *_binned(bin_seconds, starts, ids))

    @_grouped(_mapping)
    def fqdn_first_seen(self, rows=None) -> dict[int, float]:
        """Earliest flow start per interned label over ``rows``."""
        ids, starts = self._labeled(rows, self.columns.start)
        return Groups.of(1, ids, starts, reduce="min")

    @_grouped(_tuples)
    def server_fqdn_bin_triples(
        self, bin_seconds: float, rows=None
    ) -> list[tuple[int, int, int]]:
        """Deduped ``(server_ip, fqdn_id, bin_index)`` triples over the
        labeled flows of ``rows`` — the Fig. 5 active-FQDNs feed."""
        ids, servers, starts = self._labeled(
            rows, self.columns.server_ip, self.columns.start
        )
        return Groups.of(3, *_binned(bin_seconds, starts, servers, ids))

    @_grouped(sld_stats)
    def sld_flow_stats(
        self, rows
    ) -> list[tuple[int, int, int]]:
        """Per-organization ``(sld_id, flows, distinct_fqdns)`` over the
        labeled flows of ``rows`` (the Tab. 5 ranking feed) — counted
        per fqdn by the kernel, grouped by organization at the end."""
        (ids,) = self._labeled(rows)
        return Groups.of(1, ids, count=True)

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
