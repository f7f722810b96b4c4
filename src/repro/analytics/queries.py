"""The query table: every flow-database query, defined once.

The paper's Fig. 1 ends in one flow database that every off-line
analytic queries.  Here that database exists as an in-memory
:class:`~repro.analytics.database.FlowDatabase`, as a durable
:class:`~repro.analytics.storage.FlowStore` (sealed segments plus a
live tail), as a :class:`~repro.analytics.shard.ShardCoordinator` over
N such stores, and behind ``repro-serve``'s HTTP routes.  All of them
answer the same questions; this module is the one place a question is
written down.  Each :class:`Query` in :data:`QUERIES` carries

``params``
    the public method's arguments, and — for routed queries — how each
    is read from an HTTP parameter mapping;
``hint``
    the :class:`QueryHint` a store matches against segment footers to
    skip segments that cannot contribute;
``kernel``
    the per-source computation over one ``FlowDatabase`` (a sealed
    segment, the live tail, or a whole in-memory database), in that
    source's *local* fqdn ids and row numbers.  The grouped
    aggregations all return one value type, the packed
    :class:`~repro.analytics.database.Groups` (key columns then value
    columns; numpy arrays, no tuple per group);
``lift``
    the translation of a kernel result into the enclosing row/id space
    (remap local fqdn ids through the source's id map —
    ``Groups.lifted`` for a grouped aggregation — offset local rows by
    the source's base);
``merge``
    an associative combination of lifted partials: row or record
    concatenation, server-major chunks, union, first-seen order, the
    summary folds — and ``Groups.merged`` (dedupe, sum or min by key)
    for every grouped aggregation.  A merged partial has the shape of
    a kernel result, so it lifts and merges again one level up: a
    shard worker returns its merged partial *unfinished* (``Groups``
    pickle) and the coordinator lifts it through the shard's id map
    and row base;
``finish``
    the last step, which cannot be merged: pairs → gap-filled per-bin
    counts, per-fqdn totals → per-organization stats, and for every
    grouped aggregation the one place its tuples (or dict) are made.
    Kernel and ``finish`` of a grouped aggregation are the two halves
    of the ``FlowDatabase`` method of the same name;
``shape``
    the JSON payload of the query's ``/query/<route>`` endpoint
    (``None`` = not served over HTTP): a ``dict`` of the finished
    result, which the server encodes — except on a ``packed`` route,
    whose shape takes the merged partial itself (``Groups``, never
    unpacked) and returns the encoded body.

Executors live with the sources they know: ``_StoreReadMixin._partial``
(sources = segments + tail) and ``ShardCoordinator._partial`` (sources
= shards).  :class:`QuerySurface` turns either into the public method
surface, generated from the table, so a query cannot exist on one
surface only.
"""

from __future__ import annotations

import inspect
import math
from array import array
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import Callable, Optional

import numpy as np

from repro.analytics import database as _dbmod
from repro.net.ip import ip_from_str, ip_to_str
from repro.sniffer.eventcodec import PROTOCOLS

__all__ = [
    "QUERIES", "Param", "Query", "QueryHint", "QuerySurface",
    "database_summary", "offset_rows", "split_rows",
]


# ---------------------------------------------------------------------------
# reading user-supplied parameter mappings (HTTP query strings, CLI flags)


def _read(mapping, name: str, convert: Optional[Callable] = None,
          label: Callable = "{}".format) -> list:
    """Every value of one user-supplied parameter, converted: absent or
    ``None`` is no value, a scalar is one (``parse_qs`` hands lists,
    argparse hands scalars).  ``ValueError`` names the parameter."""
    values = mapping.get(name)
    if values is None:
        return []
    if not isinstance(values, (list, tuple)):
        values = [values]
    try:
        return [
            value if convert is None else convert(value) for value in values
        ]
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"bad {label(name)!r}: {exc}") from exc


def _one(mapping, name: str, convert: Optional[Callable] = None,
         required: bool = False, label: Callable = "{}".format):
    """Single-valued parameter (``None`` when absent and optional)."""
    values = _read(mapping, name, convert, label)
    if len(values) > 1:
        raise ValueError(f"parameter {label(name)!r} given more than once")
    if not values and required:
        raise ValueError(f"missing required parameter {label(name)!r}")
    return values[0] if values else None


def parse_address(value) -> int:
    """Server/client address: dotted quad or bare u32."""
    if isinstance(value, str) and "." in value:
        return ip_from_str(value)
    value = int(value)
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"{value} is not a u32 address")
    return value


_PROTOCOL_BY_VALUE = {p.value: i for i, p in enumerate(PROTOCOLS)}


def parse_protocol(text: str) -> int:
    """Layer-7 protocol name (any case) → index into ``PROTOCOLS``."""
    index = _PROTOCOL_BY_VALUE.get(text.lower())
    if index is None:
        raise ValueError(
            f"unknown protocol {text!r} "
            f"(one of {sorted(_PROTOCOL_BY_VALUE)})"
        )
    return index


def _positive_float(text) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise ValueError("must be positive and finite")
    return value


class QueryHint:
    """What a query is looking for — matched against a segment's
    :class:`~repro.analytics.storage.SegmentMeta` to decide whether a
    sealed segment can be skipped.  A ``None`` field constrains
    nothing; a manifest entry whose metadata copy is missing or
    malformed (``meta`` ``None``) is never pruned."""

    __slots__ = ("fqdn", "sld", "servers", "clients", "window", "protocol")

    def __init__(
        self, fqdn=None, sld=None, servers=None, clients=None,
        window=None, protocol=None,
    ):
        self.fqdn = fqdn            # lowercased label
        self.sld = sld              # lowercased second-level domain
        self.servers = servers      # iterable of u32 addresses
        self.clients = clients      # iterable of u32 addresses
        self.window = window        # (t0, t1) over flow start
        self.protocol = protocol    # index into PROTOCOLS

    @classmethod
    def from_mapping(cls, mapping,
                     label: Callable = "{}".format) -> "QueryHint":
        """Build a hint from the user-facing vocabulary ``fqdn`` /
        ``sld`` / ``server`` / ``client`` (repeatable) / ``t0`` + ``t1``
        / ``protocol`` — an HTTP parameter mapping or a dict of CLI
        flag values.  Raises ``ValueError`` on a malformed value, a
        half-given or inverted window, or an unknown protocol name;
        ``label`` renders a parameter name in those messages (the CLI
        passes ``"--{}".format``)."""
        fqdn = _one(mapping, "fqdn", label=label)
        sld = _one(mapping, "sld", label=label)
        t0 = _one(mapping, "t0", float, label=label)
        t1 = _one(mapping, "t1", float, label=label)
        if (t0 is None) != (t1 is None):
            raise ValueError(
                f"{label('t0')} and {label('t1')} must be given together"
            )
        if t0 is not None:
            # An inverted window is always a caller bug: every
            # segment's metadata "proves" no row can match, so a prune
            # report would happily show a 100% prune.
            _ordered_window(t0, t1, label)
        return cls(
            fqdn=fqdn.lower() if fqdn else None,
            sld=sld.lower() if sld else None,
            servers=_read(mapping, "server", parse_address, label) or None,
            clients=_read(mapping, "client", parse_address, label) or None,
            window=(t0, t1) if t0 is not None else None,
            protocol=_one(mapping, "protocol", parse_protocol, label=label),
        )

    def admits(self, meta) -> bool:
        """False only when ``meta`` *proves* the segment cannot hold a
        matching row."""
        if meta is None:
            return True
        if self.window is not None and not meta.may_overlap_window(
            *self.window
        ):
            return False
        if self.fqdn is not None and not meta.may_contain_fqdn(self.fqdn):
            return False
        if self.sld is not None and not meta.may_contain_sld(self.sld):
            return False
        if self.servers is not None and not any(
            meta.may_contain_server(server) for server in self.servers
        ):
            return False
        if self.clients is not None and not any(
            meta.may_contain_client(client) for client in self.clients
        ):
            return False
        if self.protocol is not None and not meta.may_contain_protocol(
            self.protocol
        ):
            return False
        return True


def _ordered_window(t0: float, t1: float,
                    label: Callable = "{}".format) -> None:
    if t0 > t1:
        raise ValueError(f"{label('t0')} must be <= {label('t1')}")


# ---------------------------------------------------------------------------
# row-space plumbing shared by every executor


def offset_rows(rows, base: int) -> array:
    """``rows + base`` as a fresh packed array."""
    out = array("I")
    if len(rows):
        out.frombytes(
            _dbmod._native(_dbmod._row_index(rows) + base, np.uint32)
        )
    return out


def split_rows(rows, bases: list, total: int) -> list:
    """Partition global row indices into per-source local rows, given
    each source's base row and the total row count (sources are
    contiguous).  Rows past ``total`` are dropped."""
    out = [array("I") for _ in bases]
    if rows is None or not len(rows):
        return out
    taken = _dbmod._row_index(rows)
    taken = taken[taken < total]
    which = np.searchsorted(
        np.asarray(bases, np.int64), taken, side="right"
    ) - 1
    for index, base in enumerate(bases):
        mask = which == index
        if mask.any():
            out[index].frombytes(
                _dbmod._native(taken[mask] - base, np.uint32)
            )
    return out


def database_summary(db) -> dict:
    """The cheap whole-source statistics of one database — the shape
    ``SegmentReader.summary()`` computes from four column blocks
    without materializing the segment."""
    return {
        "min_start": db._min_start,
        "max_end": db._max_end,
        "protocol_counts": list(db._protocol_counts),
        "tagged_rows": len(db._tagged),
    }


# ---------------------------------------------------------------------------
# lifts: a source-local partial → the enclosing id/row space


def _lift_rows(rows, _fqdn_map, base):
    return offset_rows(rows, base)


def _lift_row_chunks(chunks, _fqdn_map, base):
    return {key: offset_rows(rows, base) for key, rows in chunks.items()}


def _lift_ids(column: int) -> Callable:
    """Lift of a grouped aggregation: local fqdn ids in one key column
    of the packed partial → the enclosing id space."""
    return lambda groups, fqdn_map, _base: groups.lifted(column, fqdn_map)


# ---------------------------------------------------------------------------
# merges: associative combinations of lifted partials (source order)


def _concat_rows(parts) -> array:
    out = array("I")
    for part in parts:
        out.extend(part)
    return out


def _concat_records(parts) -> list:
    return list(chain.from_iterable(parts))


def _concat_chunks(parts) -> dict:
    """Server-major chunks: per key, the sources' chunks concatenated
    in source order (row arrays or record lists alike)."""
    merged: dict = {}
    for part in parts:
        for key, chunk in part.items():
            seen = merged.get(key)
            if seen is None:
                merged[key] = chunk[:]
            else:
                seen.extend(chunk)
    return merged


def _union(parts) -> set:
    return set().union(*parts)


def _first_seen_order(parts) -> list:
    return list(dict.fromkeys(chain.from_iterable(parts)))


def _sum_columns(parts) -> list:
    # An empty list is the identity: a store with no sources merges
    # to one, and it must not truncate the zip one level up.
    return [sum(column) for column in zip(*filter(None, parts))]


#: Grouped aggregations: packed partials concatenated, sorted by key,
#: equal keys folded (see :class:`~repro.analytics.database.Groups`).
_merged = _dbmod.Groups.merged


def _merge_span(parts) -> tuple:
    rows, lo, hi = 0, float("inf"), float("-inf")
    for part_rows, start, end in parts:
        rows += part_rows
        lo = min(lo, start)
        hi = max(hi, end)
    return rows, lo, hi


# ---------------------------------------------------------------------------
# kernels and finishers that are more than one method call


def _row_chunks(db, servers) -> dict:
    by_server = db._index("server")
    return {
        server: by_server[server] for server in servers
        if server in by_server
    }


def _record_chunks(db, servers) -> dict:
    by_server = db._index("server")
    return {
        server: db._materialize(by_server[server]) for server in servers
        if server in by_server
    }


def _probe_order(empty: Callable) -> Callable:
    """Finish server-major chunks: concatenate in probe order."""
    def finish(chunks, _interns, servers):
        out = empty()
        for server in servers:
            chunk = chunks.get(server)
            if chunk is not None:
                out.extend(chunk)
        return out
    return finish


def _finish_protocols(totals, _interns) -> dict:
    return {
        PROTOCOLS[index]: count
        for index, count in enumerate(totals) if count
    }


def _span(rows, summary) -> tuple:
    if not rows:
        return 0, float("inf"), float("-inf")
    summary = summary()
    return rows, summary["min_start"], summary["max_end"]


def _finish_span(span, _interns) -> tuple:
    rows, lo, hi = span
    return (lo, hi) if rows else (0.0, 0.0)


# ---------------------------------------------------------------------------
# JSON shapes of the served routes


def _shape_rows(rows) -> dict:
    return {"rows": list(rows)}


def _shape_servers(servers) -> dict:
    servers = sorted(servers)
    return {
        "servers": servers,
        "servers_dotted": [ip_to_str(s) for s in servers],
    }


def _shape_groups(key: str) -> Callable:
    """Shape of a ``packed`` route: the body ``{key: [[k…, v…], …]}``
    written from the columns of the merged partial."""
    return lambda groups: ('{"%s": %s}' % (key, groups.to_json())).encode()


# ---------------------------------------------------------------------------
# the table

_REQUIRED = inspect.Parameter.empty


@dataclass(frozen=True, slots=True)
class Param:
    """One argument of a query's public method.  ``http`` names the
    HTTP parameter it is read from (``None`` = never user-supplied —
    such a parameter needs a ``default``), ``parse`` converts one raw
    value, ``many`` collects a repeatable parameter into a list, and
    ``normalize`` canonicalizes a caller-supplied value before any
    kernel (or worker pipe) sees it."""

    name: str
    http: Optional[str] = None
    parse: Optional[Callable] = None
    many: bool = False
    default: object = _REQUIRED
    normalize: Optional[Callable] = None

    def read(self, mapping):
        if self.http is None:
            return self.default
        if not self.many:
            return _one(mapping, self.http, self.parse, required=True)
        values = _read(mapping, self.http, self.parse)
        if not values:
            raise ValueError(
                f"at least one {self.http!r} parameter required"
            )
        return values


FQDN = Param("fqdn", "fqdn")
SLD = Param("sld", "sld")
PORT = Param("dst_port", "port", int)
T0 = Param("t0", "t0", float)
T1 = Param("t1", "t1", float)
BIN = Param("bin_seconds", "bin", _positive_float)
#: Probe addresses, deduplicated in first-appearance order (the
#: server-major result order) and held as a list so they pickle.
SERVERS = Param("servers", "server", parse_address, many=True,
                normalize=lambda servers: list(dict.fromkeys(servers)))
#: A global row selection: every executor splits it into per-source
#: local rows before the kernel runs.  ``None`` selects every row.
ROWS = Param("rows", default=None)
ROWS_REQUIRED = Param("rows")

#: Kernel over one FlowDatabase per source (segments, tail, shards).
SOURCES = "sources"
#: Kernel over ``(row_count, summary_thunk)`` per source — sealed
#: segments answer from header + :meth:`SegmentReader.summary` and are
#: never materialized.
SUMMARY = "summary"
#: Kernel over the surface's global intern tables; no per-source work.
INTERNS = "interns"


@dataclass(slots=True)
class Query:
    """One row of the table (see the module docstring).  ``kernel``
    defaults to the ``FlowDatabase`` method of the same name — for a
    grouped aggregation (``grouped``) to its two halves, the packed
    kernel and the ``finish`` that unpacks it; ``check`` validates
    parsed HTTP arguments against each other; ``packed`` routes the
    merged partial, not the finished result, to ``shape``."""

    name: str
    doc: str
    params: tuple = ()
    scope: str = SOURCES
    hint: Optional[Callable] = None
    kernel: Optional[Callable] = None
    lift: Optional[Callable] = None
    merge: Optional[Callable] = None
    finish: Optional[Callable] = None
    check: Optional[Callable] = None
    shape: Optional[Callable] = None
    packed: bool = False
    grouped: bool = field(init=False, default=False)
    rows_index: Optional[int] = field(init=False, default=None)
    signature: inspect.Signature = field(init=False, default=None)

    def __post_init__(self):
        if self.kernel is None:
            method = getattr(_dbmod.FlowDatabase, self.name)
            self.kernel = getattr(method, "kernel", method)
            self.grouped = self.kernel is not method
            if self.finish is None:
                self.finish = getattr(method, "finish", None)
        for index, param in enumerate(self.params):
            if param.name == "rows":
                self.rows_index = index
        positional = inspect.Parameter.POSITIONAL_OR_KEYWORD
        self.signature = inspect.Signature([
            inspect.Parameter("self", positional),
            *(
                inspect.Parameter(param.name, positional,
                                  default=param.default)
                for param in self.params
            ),
        ])

    @property
    def route(self) -> str:
        return self.name.replace("_", "-")

    def bind(self, args: tuple, kwargs: dict) -> tuple:
        """The positional arguments of one public call, defaults
        filled in (``TypeError`` as a real method would raise it)."""
        if kwargs or len(args) != len(self.params):
            bound = self.signature.bind(None, *args, **kwargs)
            bound.apply_defaults()
            args = bound.args[1:]
        return args

    def normalize(self, args: tuple) -> tuple:
        return tuple(
            arg if param.normalize is None else param.normalize(arg)
            for param, arg in zip(self.params, args)
        )

    def parse(self, mapping) -> tuple:
        """Method arguments from an HTTP parameter mapping
        (``ValueError`` on a missing, repeated or malformed value)."""
        args = tuple(param.read(mapping) for param in self.params)
        if self.check is not None:
            self.check(*args)
        return args

    def rows(self, args: tuple):
        """The global row selection among ``args`` (``None`` = every
        row, or the query takes no selection)."""
        return None if self.rows_index is None else args[self.rows_index]

    def with_rows(self, args: tuple, rows) -> tuple:
        """``args`` with the row selection (if any) replaced by ``rows``."""
        at = self.rows_index
        return args if at is None else args[:at] + (rows,) + args[at + 1:]


def _hint_fqdn(fqdn, *_):
    return QueryHint(fqdn=fqdn.lower())


def _hint_sld(sld, *_):
    return QueryHint(sld=sld.lower())


def _hint_servers(servers):
    return QueryHint(servers=servers)


def _hint_window(t0, t1):
    return QueryHint(window=(t0, t1))


_TABLE = (
    # -- row-index views ---------------------------------------------------
    Query("rows_for_fqdn",
          "Global row indices of flows labeled exactly ``fqdn``.",
          (FQDN,), hint=_hint_fqdn, lift=_lift_rows, merge=_concat_rows,
          shape=_shape_rows),
    Query("rows_for_domain",
          "Global row indices of flows under second-level domain ``sld``.",
          (SLD,), hint=_hint_sld, lift=_lift_rows, merge=_concat_rows,
          shape=_shape_rows),
    Query("rows_for_port",
          "Global row indices of flows to destination port ``dst_port``.",
          (PORT,), lift=_lift_rows, merge=_concat_rows, shape=_shape_rows),
    Query("rows_in_window",
          "Global row indices of flows whose *start* falls in "
          "``[t0, t1)`` — segments whose start range misses the window "
          "are pruned via their footer metadata.",
          (T0, T1), hint=_hint_window, lift=_lift_rows, merge=_concat_rows,
          check=_ordered_window, shape=_shape_rows),
    Query("rows_for_servers",
          "Concatenated global row indices for an address set "
          "(deduped).  Execution is source-major — one pass, pruned by "
          "the per-segment server-address range — but the output stays "
          "server-major: probe order outermost, row order within one "
          "server.",
          (SERVERS,), hint=_hint_servers, kernel=_row_chunks,
          lift=_lift_row_chunks, merge=_concat_chunks,
          finish=_probe_order(lambda: array("I"))),
    Query("tagged_rows",
          "Global row indices of every labeled flow.",
          lift=_lift_rows, merge=_concat_rows),
    # -- record queries ----------------------------------------------------
    Query("query_by_fqdn",
          "Flows labeled exactly ``fqdn``, in global row order.",
          (FQDN,), hint=_hint_fqdn, merge=_concat_records),
    Query("query_by_domain",
          "Flows whose label falls under second-level domain ``sld``.",
          (SLD,), hint=_hint_sld, merge=_concat_records),
    Query("query_by_servers",
          "Flows to any address in ``servers`` (duplicates ignored); "
          "server-major like :meth:`rows_for_servers`.",
          (SERVERS,), hint=_hint_servers, kernel=_record_chunks,
          merge=_concat_chunks, finish=_probe_order(list)),
    Query("query_by_port",
          "Flows to destination port ``dst_port``.",
          (PORT,), merge=_concat_records),
    Query("query_in_window",
          "Flows starting in ``[t0, t1)``, in global row order.",
          (T0, T1), hint=_hint_window, merge=_concat_records),
    Query("all_records",
          "Every flow, in global row order (``iter(store)``).",
          kernel=list, merge=_concat_records),
    # -- listings ----------------------------------------------------------
    Query("fqdns",
          "All distinct labels, in global first-appearance order.",
          scope=INTERNS, shape=lambda names: {"fqdns": names}),
    Query("slds",
          "All distinct second-level domains seen.",
          scope=INTERNS, shape=lambda names: {"slds": names}),
    Query("fqdns_for_domain",
          "Distinct FQDNs under one second-level domain.",
          (SLD,), scope=INTERNS),
    Query("servers",
          "All distinct server addresses, first-appearance order.",
          merge=_first_seen_order),
    Query("ports",
          "All distinct destination ports, first-appearance order.",
          merge=_first_seen_order),
    # -- aggregate views ---------------------------------------------------
    Query("servers_for_fqdn",
          "Distinct serverIPs observed delivering ``fqdn``.",
          (FQDN,), hint=_hint_fqdn, merge=_union, shape=_shape_servers),
    Query("servers_for_domain",
          "Distinct serverIPs observed for the whole organization.",
          (SLD,), hint=_hint_sld, merge=_union, shape=_shape_servers),
    Query("fqdns_for_servers",
          "Distinct labels delivered by the given server addresses.",
          (SERVERS,), hint=_hint_servers, merge=_union,
          shape=lambda names: {"fqdns": sorted(names)}),
    Query("fqdns_for_rows",
          "Distinct labels among the flows of a global row-index set.",
          (ROWS_REQUIRED,), merge=_union),
    # -- grouped aggregations ----------------------------------------------
    Query("fqdn_server_counts",
          "Deduped ``(fqdn_id, server_ip, flow_count)`` groups (global "
          "ids) over the labeled flows of ``rows``, sorted.",
          (ROWS,), lift=_lift_ids(0), merge=_merged,
          shape=_shape_groups("groups"), packed=True),
    Query("fqdn_client_counts",
          "Deduped ``(fqdn_id, client_ip, flow_count)`` groups (global "
          "ids) over the labeled flows of ``rows``, sorted.",
          (ROWS,), lift=_lift_ids(0), merge=_merged,
          shape=_shape_groups("groups"), packed=True),
    Query("fqdn_flow_byte_totals",
          "Per-label ``(fqdn_id, flows, bytes_up, bytes_down)`` totals "
          "over the labeled flows of ``rows``, sorted by id.",
          (ROWS,), lift=_lift_ids(0), merge=_merged,
          shape=_shape_groups("groups"), packed=True),
    Query("server_flow_counts",
          "Flow count per serverIP over ``rows`` (default: all flows).",
          (ROWS,), merge=_merged,
          shape=_shape_groups("counts"), packed=True),
    Query("unique_servers_per_bin",
          "Fig. 4 series: distinct serverIPs per time bin for one 2LD, "
          "gap-filled from the first to the last active bin — "
          "``(bin, server)`` pairs are deduped across sources before "
          "counting (distinct counts do not merge; the pairs do).",
          (SLD, BIN), hint=_hint_sld, merge=_merged,
          shape=lambda series: {"series": [[t, n] for t, n in series]}),
    Query("server_bins_for_fqdn",
          "Deduped ``(bin_index, server_ip)`` pairs for one FQDN, "
          "sorted by bin — the Sec. 4.1 track-over-time feed.",
          (FQDN, BIN), hint=_hint_fqdn, merge=_merged),
    Query("fqdn_bin_pairs",
          "Deduped ``(fqdn_id, bin_index)`` activity pairs (global "
          "ids) over the labeled flows of ``rows`` (Fig. 11 timelines).",
          (BIN, ROWS), lift=_lift_ids(0), merge=_merged),
    Query("fqdn_first_seen",
          "Earliest flow start per (global) interned label over "
          "``rows``.",
          (ROWS,), lift=_lift_ids(0),
          merge=partial(_merged, reduce="min")),
    Query("server_fqdn_bin_triples",
          "Deduped ``(server_ip, fqdn_id, bin_index)`` triples over the "
          "labeled flows of ``rows`` — the Fig. 5 active-FQDNs feed.",
          (BIN, ROWS), lift=_lift_ids(1), merge=_merged),
    Query("sld_flow_stats",
          "Per-organization ``(sld_id, flows, distinct_fqdns)`` over "
          "the labeled flows of ``rows`` (global sld ids, sorted) — "
          "merged per fqdn, grouped by organization at the end.",
          (ROWS_REQUIRED,), lift=_lift_ids(0), merge=_merged),
    # -- stats (segment summaries + live tail; nothing materialized) -------
    Query("len",
          "Total rows (``len(store)``).",
          scope=SUMMARY, kernel=lambda rows, _summary: rows, merge=sum,
          shape=lambda rows: {"rows": rows}),
    Query("tagged_count",
          "Number of flows carrying a label.",
          scope=SUMMARY,
          kernel=lambda _rows, summary: summary()["tagged_rows"],
          merge=sum, shape=lambda rows: {"tagged_rows": rows}),
    Query("count_by_protocol",
          "Flow counts per layer-7 protocol.",
          scope=SUMMARY,
          kernel=lambda _rows, summary: summary()["protocol_counts"],
          merge=_sum_columns, finish=_finish_protocols,
          shape=lambda counts: {
              "counts": {
                  protocol.value: count
                  for protocol, count in counts.items()
              },
          }),
    Query("time_span",
          "(earliest start, latest end) across all rows; ``(0.0, 0.0)`` "
          "when empty.",
          scope=SUMMARY, kernel=_span, merge=_merge_span,
          finish=_finish_span,
          shape=lambda span: {"t0": span[0], "t1": span[1]}),
)

#: name → :class:`Query`, in table order.
QUERIES: dict = {query.name: query for query in _TABLE}


# ---------------------------------------------------------------------------
# the public method surface, generated from the table


class QuerySurface:
    """The FlowDatabase query surface over some set of sources.

    A host class provides ``_partial(query, args)`` — run the query's
    kernel over every source, lift and merge, and return the merged
    partial *unfinished* — plus ``_interns``, the global id tables
    (``_label_tables()`` returns them current).  Every public query
    method is generated from :data:`QUERIES` below and, like ``len()``,
    ``iter()`` and ``tagged_count``, funnels through :meth:`_query`.
    """

    __slots__ = ()

    def _query(self, query: Query, args: tuple):
        args = query.normalize(args)
        partial = self._partial(query, args)
        if query.finish is None:
            return partial
        return query.finish(partial, self._interns, *args)

    def groups(self, name: str, *args):
        """The packed partial of the grouped aggregation ``name`` over
        every source — ``Groups`` in global ids, merged, unfinished:
        what the method of that name would go on to unpack — for an
        analysis that regroups it with ``Groups`` operations
        (``FlowDatabase.groups`` is the in-memory twin).  ``KeyError``
        for any other name."""
        query = QUERIES.get(name)
        if query is None or not query.grouped:
            raise KeyError(f"{name!r} is not a grouped aggregation")
        return self._partial(query, query.normalize(query.bind(args, {})))

    def _label_tables(self):
        return self._interns

    def _label(self, table: str, index: int):
        """One entry of a global id table.  The tables are append-only
        and hold every id a query has handed out, so an id inside the
        table is answered without ``_label_tables()`` — which on a
        store takes the mutex the writer holds and re-syncs the tail;
        only a miss (an id interned since the last query) pays that."""
        entries = getattr(self._interns, table)
        if not 0 <= index < len(entries):
            entries = getattr(self._label_tables(), table)
        return entries[index]

    def fqdn_label(self, fqdn_id: int) -> str:
        """The lowercased FQDN behind a (global) interned id."""
        return self._label("_fqdn_names", fqdn_id)

    def sld_label(self, sld_id: int) -> str:
        """The second-level domain behind a (global) interned id."""
        return self._label("_sld_names", sld_id)

    def sld_of_fqdn(self, fqdn_id: int) -> int:
        """Global sld id of a global FQDN id."""
        return self._label("_fqdn_sld", fqdn_id)

    def __len__(self) -> int:
        return self._query(QUERIES["len"], ())

    def __iter__(self):
        return iter(self._query(QUERIES["all_records"], ()))

    @property
    def tagged_count(self) -> int:
        """Number of flows carrying a label."""
        return self._query(QUERIES["tagged_count"], ())


def _surface_method(query: Query) -> Callable:
    def method(self, *args, **kwargs):
        return self._query(query, query.bind(args, kwargs))

    method.__name__ = query.name
    method.__qualname__ = f"QuerySurface.{query.name}"
    method.__doc__ = query.doc
    method.__signature__ = query.signature
    return method


for _query in _TABLE:
    if _query.name not in ("len", "all_records", "tagged_count"):
        setattr(QuerySurface, _query.name, _surface_method(_query))
del _query
