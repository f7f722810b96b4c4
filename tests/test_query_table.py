"""The query table is the one definition of every flow-database query.

Conformance: for every entry of :data:`repro.analytics.queries.QUERIES`
the in-memory ``FlowDatabase`` method, the table pipeline run over that
database as a single source (kernel → lift → merge → finish), a
multi-segment + live-tail ``FlowStore``, a pinned ``StoreSnapshot``, a
``ShardCoordinator`` (in-process for several shard counts, one worker
process per shard for one) and — where the entry is routed — the
``ServeApp.handle()`` JSON all give the same answer, which also matches
the retained seed store (``database_reference``) wherever the seed has
the method.

Completeness: the table's names are exactly the public query methods
of ``FlowDatabase`` (same signatures), every surface exposes all of
them, and the worker-op allowlist and the HTTP route table are the
table — so a query can no longer be added to one surface only.

Merge contract (property): partials of arbitrary source splits merge
associatively to the single-source answer — the packed ``Groups``
partials of the grouped aggregations included, with integer, float and
overflowing (``dtype=object``) value columns and across a pickle round
trip.

Tail consistency (regression): a label interned between view capture
and the tail step must not break any entry.

Series limit (regression): a gap-filled series longer than
``MAX_SERIES_BINS`` is refused on every surface before it is allocated.

Served bytes (differential): every routed entry's HTTP body equals
``json.dumps(twin(result), sort_keys=True)`` byte for byte, the twin
being the shape functions as PR 21 served them (kept here) — the four
``packed`` routes write their body from the columns
(``Groups.to_json``), the four row routes from the row column
(``queries._rows_json``, held to ``json.dumps`` at every digit-count
boundary of a ``uint32``), and neither must be tellable from the rest; on
generated stores (empty, one group, tail only, sealed + tail, sums
past 2^53 and past 2^64).

Label lookups (regression): ``fqdn_label`` / ``sld_label`` answer
from the append-only tables without the store mutex.
"""

import inspect
import json
import os
import pickle
import subprocess
import sys
import threading
from array import array
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.analytics.database as database_module
from repro.analytics import queries
from repro.analytics.database import FlowDatabase, Groups
from repro.analytics.database_reference import (
    FlowDatabase as ReferenceDatabase,
)
from repro.analytics.queries import (
    INTERNS,
    QUERIES,
    SUMMARY,
    QuerySurface,
    database_summary,
    split_rows,
)
from repro.analytics.shard import (
    CoordinatorSnapshot,
    ShardCoordinator,
    _shard_execute,
)
from repro.analytics.storage import (
    FlowStore,
    StorageError,
    StoreSnapshot,
)
from repro.net.flow import FiveTuple, FlowRecord, Protocol, TransportProto
from repro.net.ip import ip_to_str
from repro.serve.server import ServeApp

#: Public FlowDatabase attributes that are not queries: ingestion, id
#: lookups (answered from the intern tables, never merged) and
#: ``groups``, the accessor for a grouped aggregation's packed partial.
NOT_QUERIES = {
    "add", "add_all", "from_flows", "from_columns", "ingest_batch",
    "parse_batch", "commit_batch", "from_batches", "fqdn_label",
    "sld_label", "groups",
}
#: The grouped aggregations: their partials travel as packed ``Groups``.
GROUPED = {
    "fqdn_server_counts", "fqdn_client_counts", "fqdn_flow_byte_totals",
    "server_flow_counts", "unique_servers_per_bin", "server_bins_for_fqdn",
    "fqdn_bin_pairs", "fqdn_first_seen", "server_fqdn_bin_triples",
    "sld_flow_stats",
}
#: Table entries reached through the data model rather than by name.
DUNDERS = {"len": "__len__", "all_records": "__iter__"}
#: FlowDatabase returns these grouped lists in engine order; every
#: merged surface returns them sorted.
SORTED_WHEN_MERGED = {
    "fqdn_server_counts", "fqdn_client_counts", "fqdn_flow_byte_totals",
    "sld_flow_stats",
}


def _twin_rows(rows) -> dict:
    return {"rows": list(rows)}


def _twin_servers(servers) -> dict:
    servers = sorted(servers)
    return {
        "servers": servers,
        "servers_dotted": [ip_to_str(s) for s in servers],
    }


def _twin_groups(groups) -> dict:
    return {"groups": [list(group) for group in groups]}


#: Route shapes as PR 21 served them — the retained twin of
#: ``Query.shape``: result of the public method → JSON payload, which
#: the server then wrote with ``json.dumps(payload, sort_keys=True)``.
TWIN_SHAPES = {
    "rows_for_fqdn": _twin_rows,
    "rows_for_domain": _twin_rows,
    "rows_for_port": _twin_rows,
    "rows_in_window": _twin_rows,
    "fqdns": lambda names: {"fqdns": names},
    "slds": lambda names: {"slds": names},
    "servers_for_fqdn": _twin_servers,
    "servers_for_domain": _twin_servers,
    "fqdns_for_servers": lambda names: {"fqdns": sorted(names)},
    "fqdn_server_counts": _twin_groups,
    "fqdn_client_counts": _twin_groups,
    "fqdn_flow_byte_totals": _twin_groups,
    "server_flow_counts": lambda counts: {
        "counts": [[server, n] for server, n in counts.items()],
    },
    "unique_servers_per_bin": lambda series: {
        "series": [[t, n] for t, n in series],
    },
    "len": lambda rows: {"rows": rows},
    "tagged_count": lambda rows: {"tagged_rows": rows},
    "count_by_protocol": lambda counts: {
        "counts": {
            protocol.value: count for protocol, count in counts.items()
        },
    },
    "time_span": lambda span: {"t0": span[0], "t1": span[1]},
}


def _twin_body(name: str, result) -> bytes:
    return json.dumps(TWIN_SHAPES[name](result), sort_keys=True).encode()


def _flow(i: int) -> FlowRecord:
    fqdn = (
        None, "www.Example.com", "cdn.example.net", "a.b.tracker.org",
        "www.example.com", "", "static.example.com",
    )[i % 7]
    return FlowRecord(
        fid=FiveTuple(5 + i % 7, 40 + i % 9, 1024 + i,
                      (80, 443, 8080)[i % 3], TransportProto.TCP),
        start=float(i * 3 % 97),
        end=float(i * 3 % 97) + 2.0,
        protocol=(Protocol.HTTP, Protocol.TLS, Protocol.P2P)[i % 3],
        bytes_up=10 + i,
        bytes_down=1000 + i,
        packets=4,
        fqdn=fqdn,
        cert_name="cert.example.com" if i % 3 == 0 else None,
        true_fqdn="true.example.com" if i % 5 == 0 else None,
    )


def _big_flow(i: int) -> FlowRecord:
    """``_flow`` with byte counters whose per-label sums pass 2^64."""
    flow = _flow(i)
    flow.bytes_up = 2**64 - 1 - i
    flow.bytes_down = 2**63 + i
    return flow


def _wide_flow(i: int) -> FlowRecord:
    """``_flow`` with byte counters past 2^53 (no float holds their
    sums) that still add up inside a ``uint64``."""
    flow = _flow(i)
    flow.bytes_up = 2**53 + 1 + i
    flow.bytes_down = 2**55 + i
    return flow


def _call(surface, name: str, args: tuple):
    """One table entry through a surface's *public* API."""
    if name == "len":
        return len(surface)
    if name == "all_records":
        return list(surface)
    if name == "tagged_count":
        return surface.tagged_count
    return getattr(surface, name)(*args)


def _canon(name: str, value):
    if name.startswith("rows_") or name == "tagged_rows":
        return list(value)  # array("I"), or FlowDatabase's () for none
    if name in SORTED_WHEN_MERGED:
        return sorted(value)
    return value


def _cases(mem: FlowDatabase) -> list[tuple[str, tuple]]:
    """(entry name, args) — at least one case per table entry, the
    row-selecting entries both whole-store and over a window."""
    window = mem.rows_in_window(10.0, 60.0)
    servers = [41, 47, 41, 999, 44]
    cases = [
        ("rows_for_fqdn", ("www.Example.com",)),
        ("rows_for_fqdn", ("absent.example.org",)),
        ("rows_for_domain", ("example.com",)),
        ("rows_for_port", (443,)),
        ("rows_in_window", (10.0, 60.0)),
        ("rows_in_window", (60.0, 10.0)),
        ("rows_for_servers", (servers,)),
        ("tagged_rows", ()),
        ("query_by_fqdn", ("www.example.com",)),
        ("query_by_domain", ("example.net",)),
        ("query_by_servers", (servers,)),
        ("query_by_port", (8080,)),
        ("query_in_window", (10.0, 60.0)),
        ("all_records", ()),
        ("fqdns", ()),
        ("slds", ()),
        ("fqdns_for_domain", ("Example.com",)),
        ("fqdns_for_domain", ("absent.org",)),
        ("servers", ()),
        ("ports", ()),
        ("servers_for_fqdn", ("www.example.com",)),
        ("servers_for_domain", ("example.com",)),
        ("fqdns_for_servers", (servers,)),
        ("fqdns_for_rows", (window,)),
        ("unique_servers_per_bin", ("example.com", 10.0)),
        ("unique_servers_per_bin", ("absent.org", 10.0)),
        ("server_bins_for_fqdn", ("www.example.com", 10.0)),
        ("sld_flow_stats", (window,)),
        ("sld_flow_stats", (mem.tagged_rows(),)),
        ("len", ()),
        ("tagged_count", ()),
        ("count_by_protocol", ()),
        ("time_span", ()),
    ]
    for rows in (None, window):
        cases += [
            ("fqdn_server_counts", (rows,)),
            ("fqdn_client_counts", (rows,)),
            ("fqdn_flow_byte_totals", (rows,)),
            ("server_flow_counts", (rows,)),
            ("fqdn_first_seen", (rows,)),
            ("fqdn_bin_pairs", (10.0, rows)),
            ("server_fqdn_bin_triples", (10.0, rows)),
        ]
    assert {name for name, _args in cases} == set(QUERIES)
    return cases


def _single_source(query, db: FlowDatabase, args: tuple):
    """The table pipeline with ``db`` as the only source."""
    args = query.normalize(args)
    if query.scope is INTERNS:
        merged = query.kernel(db, *args)
    elif query.scope is SUMMARY:
        merged = query.merge([
            query.kernel(len(db), partial(database_summary, db))
        ])
    else:
        part = query.kernel(db, *args)
        if query.lift is not None:
            part = query.lift(part, range(len(db.fqdns())), 0)
        merged = query.merge([part])
    if query.finish is None:
        return merged
    return query.finish(merged, db, *args)


def _http_params(query, args: tuple) -> dict:
    params = {}
    for param, arg in zip(query.params, args):
        if param.http is not None:
            values = arg if param.many else [arg]
            params[param.http] = [str(value) for value in values]
    return params


def _assert_conforms(surfaces: dict, mem: FlowDatabase, app=None,
                     reference=None) -> None:
    for name, args in _cases(mem):
        query = QUERIES[name]
        expected = _canon(name, _call(mem, name, args))
        assert _canon(name, _single_source(query, mem, args)) == (
            expected
        ), f"{name}{args}: table pipeline over one source"
        answers = []
        for label, surface in surfaces.items():
            got = _call(surface, name, args)
            assert _canon(name, got) == expected, f"{name}{args}: {label}"
            if name in SORTED_WHEN_MERGED:
                assert got == sorted(got), f"{name}{args}: {label} order"
            answers.append(got)
        if reference is not None and hasattr(
            ReferenceDatabase, DUNDERS.get(name, name)
        ):
            assert _call(reference, name, args) == expected, (
                f"{name}{args}: seed reference"
            )
        if app is None or query.shape is None or (
            query.rows(args) is not None
        ):
            continue
        status, _ctype, payload, _headers = app.handle(
            "GET", f"/query/{query.route}", _http_params(query, args)
        )
        if name == "rows_in_window" and args[0] > args[1]:
            assert status == 400  # HTTP refuses an inverted window
            continue
        assert status == 200, payload
        # The served bytes are the twin's shape of the direct answer.
        assert payload == _twin_body(name, answers[0]), (
            f"{name}{args}: HTTP"
        )


def _flat_store(directory, flows, spill_rows=9, compacted=False,
                **kwargs) -> FlowStore:
    """Several sealed segments (``compacted``: rewritten as one) plus a
    live (unsealed) tail."""
    store = FlowStore(directory, spill_rows=spill_rows, **kwargs)
    store.add_all(flows[:-5])
    store.flush()
    if compacted:
        store.compact()
    store.add_all(flows[-5:])
    assert len(store._segments) >= (1 if compacted else 2)
    assert len(store._tail)
    return store


class TestConformance:
    @pytest.mark.parametrize("compacted", [False, True],
                             ids=["segments", "compacted"])
    def test_flat_store_snapshot_and_http(self, tmp_path, compacted):
        flows = [_flow(i) for i in range(64)]
        mem = FlowDatabase.from_flows(flows)
        reference = ReferenceDatabase.from_flows(flows)
        store = _flat_store(tmp_path / "flat", flows, compacted=compacted)
        parallel = _flat_store(tmp_path / "par", flows, parallel=2,
                               compacted=compacted)
        with store.pin() as snap:
            _assert_conforms(
                {"store": store, "snapshot": snap,
                 "parallel": parallel},
                mem, app=ServeApp(store), reference=reference,
            )
        store.close()
        parallel.close()

    @pytest.mark.parametrize("shards", [1, 3])
    def test_inprocess_coordinator_and_http(self, tmp_path, shards):
        flows = [_flow(i) for i in range(64)]
        coord = ShardCoordinator(
            tmp_path / "sharded", shards=shards, spill_rows=7
        )
        coord.add_all(flows[:-9])
        coord.flush()
        coord.add_all(flows[-9:])  # live tails
        # The coordinator's row space is shard-major.
        tails = coord.router.split_flows(flows[-9:])
        sealed = coord.router.split_flows(flows[:-9])
        ordered = [
            flow for index in range(shards)
            for flow in sealed[index] + tails[index]
        ]
        mem = FlowDatabase.from_flows(ordered)
        with coord.pin() as snap:
            _assert_conforms(
                {"coordinator": coord, "snapshot": snap},
                mem, app=ServeApp(coord),
            )
        coord.close()

    def test_process_backend(self, tmp_path):
        flows = [_flow(i) for i in range(64)]
        built = ShardCoordinator(
            tmp_path / "sharded", shards=2, spill_rows=7
        )
        built.add_all(flows)
        built.close()  # seals: a worker's tail would not be shared
        coord = ShardCoordinator(tmp_path / "sharded", backend="process")
        ordered = [
            flow for part in coord.router.split_flows(flows)
            for flow in part
        ]
        try:
            _assert_conforms(
                {"process-coordinator": coord},
                FlowDatabase.from_flows(ordered),
            )
        finally:
            coord.close()


class TestCompleteness:
    def test_table_is_exactly_the_flowdatabase_query_surface(self):
        public = {
            name for name, value in vars(FlowDatabase).items()
            if not name.startswith("_")
            and (callable(value)
                 or isinstance(value, (property, classmethod)))
        }
        assert public - NOT_QUERIES == set(QUERIES) - set(DUNDERS)
        for dunder in DUNDERS.values():
            assert dunder in vars(FlowDatabase)

    def test_signatures_match_flowdatabase(self):
        for name, query in QUERIES.items():
            if name in DUNDERS or name == "tagged_count":
                assert query.params == ()
                continue
            want = inspect.signature(getattr(FlowDatabase, name))
            got = query.signature
            assert list(got.parameters) == list(want.parameters), name
            for param in want.parameters.values():
                assert got.parameters[param.name].default == (
                    param.default
                ), (name, param.name)

    @pytest.mark.parametrize("surface", [
        FlowStore, StoreSnapshot, ShardCoordinator, CoordinatorSnapshot,
    ])
    def test_every_surface_exposes_every_entry(self, surface):
        assert issubclass(surface, QuerySurface)
        for name in QUERIES:
            attr = DUNDERS.get(name, name)
            # Generated once, on QuerySurface — never re-implemented.
            assert getattr(surface, attr) is getattr(QuerySurface, attr)

    @pytest.mark.parametrize("surface", [
        FlowStore, StoreSnapshot, ShardCoordinator, CoordinatorSnapshot,
    ])
    def test_packed_accessor_is_generated_once(self, surface):
        """``groups`` comes from ``QuerySurface`` alone."""
        assert surface.groups is QuerySurface.groups
        assert {name for name, query in QUERIES.items() if query.grouped} == (
            GROUPED
        )

    def test_packed_accessor_is_the_unfinished_partial(self, tmp_path):
        flows = [_flow(i) for i in range(60)]
        mem = FlowDatabase.from_flows(flows)
        store = FlowStore(tmp_path / "store", spill_rows=13)
        store.add_all(flows)
        coord = ShardCoordinator(tmp_path / "sharded", shards=2,
                                 spill_rows=13)
        coord.add_all(flows)
        for name, args in _cases(mem):
            query = QUERIES[name]
            for surface in (mem, store, coord):
                if name not in GROUPED:
                    # Not a row array, not a record list: refused.
                    with pytest.raises(KeyError, match=name):
                        surface.groups(name, *args)
                    continue
                packed = surface.groups(name, *args)
                assert isinstance(packed, Groups), name
                interns = mem if surface is mem else surface._interns
                assert query.finish(
                    packed, interns, *query.normalize(args)
                ) == _call(surface, name, args), name
        for surface in (mem, store, coord):
            for bogus in ("no_such_query", "_partial", "close", "add"):
                with pytest.raises(KeyError):
                    surface.groups(bogus)
        # A trailing default fills in like the method's.
        for surface in (mem, store, coord):
            assert surface.groups("fqdn_bin_pairs", 10.0) == (
                surface.groups("fqdn_bin_pairs", 10.0, None)
            )
        coord.close()
        store.close()

    def test_routes_and_worker_ops_are_the_table(self, tmp_path):
        store = FlowStore(tmp_path / "store")
        store.add_all(_flow(i) for i in range(12))
        app = ServeApp(store)
        assert set(app.query_routes) == {
            query.route for query in QUERIES.values()
            if query.shape is not None
        }
        for name, query in QUERIES.items():
            if query.scope is INTERNS:
                continue  # answered from the coordinator's own tables
            args = tuple(
                {"fqdn": "www.example.com", "sld": "example.com",
                 "dst_port": 443, "t0": 0.0, "t1": 50.0,
                 "servers": [41], "bin_seconds": 10.0,
                 "rows": array("I", [0, 3])}[param.name]
                for param in query.params
            )
            reply = _shard_execute(store, name, args, 0)
            assert reply["n_rows"] == 12
            assert reply["new_fqdns"] == store.fqdns()
        with pytest.raises(StorageError):
            _shard_execute(store, "_partial", (), 0)
        with pytest.raises(StorageError):
            _shard_execute(store, "close", (), 0)
        store.close()


def _assert_split_merges(n_flows: int, cuts: list, make_flow) -> dict:
    """Slice a flow list into sources at arbitrary cut points (empty
    sources included), lift each source's partial, and merge in every
    grouping: all equal — also after a pickle round trip of the parts —
    and finish to the unsplit database's answer.  Returns each grouped
    aggregation's flat merged partial (of its first case: the
    whole-store one where it has one)."""
    flows = [make_flow(i) for i in range(n_flows)]
    mem = FlowDatabase.from_flows(flows)
    bounds = sorted({0, n_flows, *(cut % (n_flows + 1) for cut in cuts)})
    sources = [
        FlowDatabase.from_flows(flows[lo:hi])
        for lo, hi in zip(bounds, bounds[1:])
    ] or [FlowDatabase()]
    interns = FlowDatabase()
    maps = [
        array("i", map(interns._intern_fqdn, db.fqdns())) for db in sources
    ]
    bases = bounds[:-1] or [0]
    packed = {}
    for name, args in _cases(mem):
        query = QUERIES[name]
        if query.scope is INTERNS:
            continue
        args = query.normalize(args)
        local_args = [args] * len(sources)
        if query.rows(args) is not None:
            split = split_rows(query.rows(args), bases, n_flows)
            local_args = [query.with_rows(args, rows) for rows in split]
        parts = []
        for db, fqdn_map, base, call in zip(
            sources, maps, bases, local_args
        ):
            if query.scope is SUMMARY:
                part = query.kernel(
                    len(db), partial(database_summary, db)
                )
            else:
                part = query.kernel(db, *call)
                if query.lift is not None:
                    part = query.lift(part, fqdn_map, base)
            parts.append(part)
        flat = query.merge(list(parts))
        left = query.merge([query.merge(parts[:1]), *parts[1:]])
        right = query.merge([*parts[:-1], query.merge(parts[-1:])])
        nested = query.merge([
            query.merge(parts[:2]), query.merge(parts[2:]),
        ])
        assert flat == left == right == nested, name
        if name in GROUPED:
            assert all(isinstance(part, Groups) for part in parts), name
            piped = [pickle.loads(pickle.dumps(part)) for part in parts]
            assert piped == parts and query.merge(piped) == flat, name
            # An empty part anywhere is the identity.
            assert query.merge([Groups(0), *parts, Groups(0)]) == flat
            # Written from the columns, the text of the tuples.
            for groups in (flat, *parts):
                assert groups.to_json() == json.dumps(
                    [list(row) for row in groups.tuples()]
                ), name
            packed.setdefault(name, flat)
        result = flat if query.finish is None else (
            query.finish(flat, interns, *args)
        )
        assert _canon(name, result) == _canon(
            name, _call(mem, name, args)
        ), name
    assert set(packed) == GROUPED
    return packed


class TestMergeContract:
    @settings(deadline=None)  # budget set by the hypothesis profile
    @given(
        st.integers(min_value=0, max_value=60),
        st.lists(st.integers(min_value=0, max_value=60), max_size=3),
    )
    def test_any_split_merges_associatively_to_one_source(
        self, n_flows, cuts
    ):
        packed = _assert_split_merges(n_flows, cuts, _flow)
        first_seen = packed["fqdn_first_seen"]
        if len(first_seen):   # the float value column
            assert first_seen.columns[1].dtype.kind == "f"

    @settings(deadline=None, max_examples=25)
    @given(
        st.integers(min_value=8, max_value=40),
        st.lists(st.integers(min_value=0, max_value=40), max_size=3),
    )
    def test_overflowing_sums_merge_exactly(self, n_flows, cuts):
        """Byte counters near 2^64: the packed sums switch to Python
        ints (``dtype=object``) instead of wrapping, in the kernel and
        in every merge."""
        packed = _assert_split_merges(n_flows, cuts, _big_flow)
        totals = packed["fqdn_flow_byte_totals"]
        assert totals.columns[2].dtype == object
        flows = [_big_flow(i) for i in range(n_flows)]
        assert sum(up for _id, _n, up, _down in totals.tuples()) == sum(
            flow.bytes_up for flow in flows if flow.fqdn
        )

    @settings(deadline=None, max_examples=10)
    @given(
        st.integers(min_value=6, max_value=60),
        st.integers(min_value=2, max_value=11),
        st.integers(min_value=1, max_value=3),
    )
    def test_random_store_shapes(self, tmp_path_factory, n_flows,
                                 spill_rows, shards):
        tmp_path = tmp_path_factory.mktemp("table")
        flows = [_flow(i) for i in range(n_flows)]
        coord = ShardCoordinator(
            tmp_path / "sharded", shards=shards, spill_rows=spill_rows
        )
        coord.add_all(flows)
        ordered = [
            flow for part in coord.router.split_flows(flows)
            for flow in part
        ]
        flat = FlowStore(tmp_path / "flat", spill_rows=spill_rows,
                         wal=False)
        flat.add_all(ordered)
        _assert_conforms(
            {"flat": flat, "coordinator": coord},
            FlowDatabase.from_flows(ordered),
        )
        coord.close()
        flat.close()


class TestServedBytes:
    @settings(deadline=None, max_examples=25)
    @given(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=2, max_value=17),
        st.booleans(),
        st.sampled_from([_flow, _wide_flow, _big_flow]),
    )
    @example(0, 9, True, _flow)       # empty store
    @example(2, 9, False, _flow)      # one group, tail only
    @example(2, 2, True, _big_flow)   # one group, sealed, dtype=object
    @example(40, 7, False, _wide_flow)  # sealed + tail, sums past 2^53
    def test_every_route_serves_the_twins_bytes(
        self, tmp_path_factory, n_flows, spill_rows, flush, make_flow,
    ):
        flows = [make_flow(i) for i in range(n_flows)]
        store = FlowStore(tmp_path_factory.mktemp("served"),
                          spill_rows=spill_rows, wal=False)
        store.add_all(flows)
        if flush:
            store.flush()
        _assert_conforms(
            {"store": store}, FlowDatabase.from_flows(flows),
            app=ServeApp(store),
        )
        store.close()

    def test_the_twin_covers_the_route_table(self):
        assert set(TWIN_SHAPES) == {
            name for name, query in QUERIES.items()
            if query.shape is not None
        }
        assert {
            name for name, query in QUERIES.items() if query.packed
        } == {
            "fqdn_server_counts", "fqdn_client_counts",
            "fqdn_flow_byte_totals", "server_flow_counts",
        }


#: Digit-count boundaries of a ``uint32`` row id, both sides of each.
_ROW_EDGES = sorted(
    {0, 2**32 - 1} | {10**k + d for k in range(1, 10) for d in (-1, 0)}
)


class TestRowBodies:
    """The row routes' body is written from the row column
    (``queries._rows_json``), not by ``json.dumps`` of a list."""

    @settings(max_examples=200)
    @given(st.lists(
        st.sampled_from(_ROW_EDGES) | st.integers(0, 2**32 - 1),
        max_size=60,
    ))
    @example([])
    @example(_ROW_EDGES)
    @example([7, 7, 3, 10, 3])      # unsorted, repeated: as
    # ``rows_for_servers`` returns them for overlapping servers
    def test_the_encoder_writes_what_json_dumps_writes(self, rows):
        assert queries._rows_json(array("I", rows)) == (
            json.dumps(rows).encode()
        )
        assert queries._shape_rows(array("I", rows)) == _twin_body(
            "rows_in_window", array("I", rows)
        )

    @pytest.mark.parametrize("sharded", [False, True],
                             ids=["flat", "sharded"])
    def test_every_row_route_serves_the_parent_s_bytes(
        self, tmp_path, sharded
    ):
        """Row ids past four digits, from sealed segments and a tail,
        on a flat store and an in-process sharded root."""
        flows = [_flow(i) for i in range(1_100)]
        if sharded:
            store = ShardCoordinator(tmp_path / "root", shards=2,
                                     spill_rows=300)
        else:
            store = FlowStore(tmp_path / "root", spill_rows=300)
        store.add_all(flows)
        app = ServeApp(store)
        cases = [
            ("rows_for_fqdn", ("www.example.com",)),
            ("rows_for_domain", ("example.com",)),
            ("rows_for_port", (443,)),
            ("rows_in_window", (0.0, 100.0)),
            ("rows_in_window", (50.0, 50.0)),
        ]
        for name, args in cases:
            query = QUERIES[name]
            rows = getattr(store, name)(*args)
            status, _ctype, body, _headers = app.handle(
                "GET", f"/query/{query.route}", _http_params(query, args)
            )
            assert status == 200
            assert body == _twin_body(name, rows), (name, args)
        assert max(store.rows_in_window(0.0, 100.0)) >= 1_000
        store.close()


class _IngestingToken:
    """A cancellation token whose every ``check()`` lands one flow with
    a never-seen FQDN in the store — the worst-timed concurrent ingest:
    after the pass captured its view, before its tail step."""

    def __init__(self, store: FlowStore):
        self.store = store
        self.added = 0

    def check(self) -> None:
        self.added += 1
        flow = _flow(self.added)
        flow.fqdn = f"fresh{self.added}.ingest.example"
        self.store.add(flow)

    def note_scheduled(self, count: int) -> None:
        pass

    def note_done(self) -> None:
        pass


class TestTailStepConsistency:
    def test_label_interned_mid_pass_breaks_no_entry(self, tmp_path):
        """Regression: the tail kernel used to run with the id map
        synced at view capture, so a label interned in between raised
        ``IndexError`` in every id-remapping aggregation (seen as HTTP
        500s beside live ingest)."""
        flows = [_flow(i) for i in range(40)]
        store = FlowStore(tmp_path / "store", spill_rows=10_000)
        store.add_all(flows[:30])
        store.flush()
        store.add_all(flows[30:])
        token = _IngestingToken(store)
        for name, args in _cases(FlowDatabase.from_flows(flows)):
            with store.pin() as snap:
                snap.cancel_token = token
                before = token.added
                result = _call(snap, name, args)
            if QUERIES[name].scope not in (INTERNS, SUMMARY):
                assert token.added > before, name  # the race happened
            if name == "fqdn_first_seen" and args == (None,):
                # Every id in the answer resolves, the fresh ones too.
                labels = {store.fqdn_label(fqdn_id) for fqdn_id in result}
                assert f"fresh{token.added}.ingest.example" in labels
        assert len(store) == 40 + token.added
        store.close()



class TestSeriesLimit:
    """Regression: gap filling is the one place a query's output is not
    bounded by its input.  Two labeled flows an hour apart at
    ``bin=1e-5`` used to ask numpy for a 2.68 GiB ``bincount`` (in
    memory) or build 360M tuples in ``finish`` (a store) — one request
    could take ``repro-serve`` down, unseen by admission control."""

    FLOWS = [
        FlowRecord(
            fid=FiveTuple(7, 40 + i, 1024 + i, 443, TransportProto.TCP),
            start=start, end=start + 1.0, protocol=Protocol.TLS,
            bytes_up=1, bytes_down=1, packets=1, fqdn="www.example.com",
        )
        for i, start in enumerate((0.0, 3600.0))
    ]

    def test_refused_before_allocating_on_every_surface(self, tmp_path):
        limit = str(database_module.MAX_SERIES_BINS)
        mem = FlowDatabase.from_flows(self.FLOWS)
        store = FlowStore(tmp_path / "store")
        store.add(self.FLOWS[0])
        store.flush()
        store.add(self.FLOWS[1])   # one sealed segment + the tail
        for surface in (mem, store):
            with pytest.raises(ValueError, match=limit):
                surface.unique_servers_per_bin("example.com", 1e-5)
        status, _ctype, payload, _headers = ServeApp(store).handle(
            "GET", "/query/unique-servers-per-bin",
            {"sld": ["example.com"], "bin": ["0.00001"]},
        )
        assert status == 400 and limit in json.loads(payload)["error"]
        # An hour of one-second bins is an ordinary request.
        series = store.unique_servers_per_bin("example.com", 1.0)
        assert series == mem.unique_servers_per_bin("example.com", 1.0)
        assert len(series) == 3601
        store.close()

    @pytest.mark.parametrize("name", [
        "fqdn_bin_pairs", "server_bins_for_fqdn", "server_fqdn_bin_triples",
    ])
    def test_bin_index_past_int64_is_refused(self, tmp_path, name):
        """Regression: at ``bin_seconds=1e-300`` the flow at 3600 s
        has bin index 3.6e303, which the ``int64`` cast wrapped to
        -2^63 (a numpy RuntimeWarning, and a wrong answer)."""
        store = FlowStore(tmp_path / "store")
        store.add(self.FLOWS[0])
        store.flush()
        store.add(self.FLOWS[1])
        args = ("www.example.com",) if name == "server_bins_for_fqdn" else ()
        for surface in (FlowDatabase.from_flows(self.FLOWS), store):
            with pytest.raises(ValueError, match="int64"):
                getattr(surface, name)(*args, 1e-300)
        store.close()

    @pytest.mark.parametrize("bin_seconds, error", [
        ("inf", "finite"), ("1e-300", "int64"),
    ])
    def test_series_route_refuses_a_bin_with_no_valid_index(
        self, tmp_path, bin_seconds, error
    ):
        """Regression: ``bin=inf`` answered 200 with a NaN bin start
        (not JSON), and ``bin=1e-300`` a 400 counting the wrapped
        bins ("9223372036854775809 bins")."""
        store = FlowStore(tmp_path / "store")
        store.add_all(self.FLOWS)
        status, _ctype, payload, _headers = ServeApp(store).handle(
            "GET", "/query/unique-servers-per-bin",
            {"sld": ["example.com"], "bin": [bin_seconds]},
        )
        assert status == 400 and error in json.loads(payload)["error"]
        store.close()

    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(database_module, "MAX_SERIES_BINS", 3601)
        mem = FlowDatabase.from_flows(self.FLOWS)
        assert len(mem.unique_servers_per_bin("example.com", 1.0)) == 3601
        monkeypatch.setattr(database_module, "MAX_SERIES_BINS", 3600)
        with pytest.raises(ValueError, match="3601 bins"):
            mem.unique_servers_per_bin("example.com", 1.0)

    #: Fig. 5 and Fig. 14 over the same two flows / two DNS responses,
    #: in a child whose address space ends 1 GiB above what the imports
    #: mapped: the 360M-entry series (a ``range`` comprehension in
    #: ``fqdns_per_cdn_series`` and ``TimeBins.series``, a 2.7 GiB
    #: ``bincount`` in ``TimeBins.add_many``) dies of ``MemoryError``
    #: there instead of taking the machine along.
    CHILD = """
import os, resource, sys
import repro.analytics.database as database
import repro.analytics.temporal as temporal
from repro.net.flow import (DnsObservation, FiveTuple, FlowRecord,
                            Protocol, TransportProto)
from repro.orgdb.ipdb import IpOrganizationDb

flows = [
    FlowRecord(fid=FiveTuple(7, 40 + i, 1024 + i, 443, TransportProto.TCP),
               start=start, end=start + 1.0, protocol=Protocol.TLS,
               bytes_up=1, bytes_down=1, packets=1, fqdn="www.example.com")
    for i, start in enumerate((0.0, 3600.0))
]
db = database.FlowDatabase.from_flows(flows)
ipdb = IpOrganizationDb()
ipdb.add_range(0, 1000, "cdn")
responses = [DnsObservation(flow.start, 7, "www.example.com") for flow in flows]
try:
    with open("/proc/self/statm") as statm:
        mapped = int(statm.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
except OSError:
    mapped = 2 << 30
_soft, hard = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, (mapped + (1 << 30), hard))
for ask in (
    lambda: temporal.fqdns_per_cdn_series(db, ipdb, ["cdn"], 1e-5),
    lambda: temporal.dns_response_rate(responses, 1e-5).series(),
):
    try:
        ask()
    except ValueError as exc:
        assert str(database.MAX_SERIES_BINS) in str(exc), exc
    else:
        sys.exit("a 360M-bin series was built")
hour = temporal.fqdns_per_cdn_series(db, ipdb, ["cdn"], 1.0)["cdn"]
assert len(hour) == 3601 and hour[0] == (0.0, 1) and hour[1] == (1.0, 0)
assert len(temporal.dns_response_rate(responses, 1.0).series()) == 3601
"""

    def test_fig5_and_fig14_series_are_refused_too(self):
        pytest.importorskip("resource")
        done = subprocess.run(
            [sys.executable, "-c", self.CHILD],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert done.returncode == 0, done.stderr[-2000:]


class TestLabelLookups:
    def test_known_ids_resolve_while_the_store_mutex_is_held(self,
                                                             tmp_path):
        """Regression: every label lookup took the store mutex and
        re-synced the tail map — thousands of times per sweep, each
        queued behind the writer beside ingest."""
        store = FlowStore(tmp_path / "store", spill_rows=10_000)
        store.add_all(_flow(i) for i in range(30))
        store.flush()
        store.add_all(_flow(i) for i in range(30, 40))
        slds = store.slds()
        ids = list(store.fqdn_first_seen())   # the last query
        expected = [FlowDatabase.fqdn_label(store._interns, i) for i in ids]
        held, release = threading.Event(), threading.Event()

        def hold():
            with store._mutex:
                held.set()
                release.wait(30)

        def look_up():
            answers.append([store.fqdn_label(i) for i in ids])
            answers.append([store.sld_label(j) for j in range(len(slds))])

        answers: list = []
        holder = threading.Thread(target=hold)
        reader = threading.Thread(target=look_up)
        holder.start()
        try:
            assert held.wait(10)
            reader.start()
            reader.join(10)
            assert not reader.is_alive(), "label lookup waited on the mutex"
        finally:
            release.set()
            holder.join(10)
        assert answers[0] == expected
        assert answers[1] == list(slds)
        # An id interned by a commit after the last query: a miss, so
        # the lookup syncs the tail map and still resolves it.
        fresh = _flow(1)
        fresh.fqdn = "Fresh.After-Query.example"
        known = len(store._interns._fqdn_names)
        known_sld = len(store._interns._sld_names)
        store.add(fresh)
        assert len(store._interns._fqdn_names) == known
        assert store.fqdn_label(known) == "fresh.after-query.example"
        assert store.sld_label(known_sld) == "after-query.example"
        with pytest.raises(IndexError):
            store.fqdn_label(known + 1)
        store.close()
