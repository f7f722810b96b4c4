"""The analyses that regroup a packed partial, against per-flow loops.

Fig. 3 (``tangle``), Fig. 5 (``temporal``) and Fig. 11 (``trackers``)
ask a database for the packed ``Groups`` partial of a grouped
aggregation (``database.groups(name, ...)``) and regroup it with
``Groups`` operations instead of walking the tuples ``finish`` makes.
The system benchmark's sweep oracle runs the *same* functions over an
in-memory database, so a wrong consumer would agree with itself; here
each figure is recomputed from the flow list by a loop written in this
file (Fig. 11: ``TrackerActivityAnalysis.observe`` per flow, the seed
path) and every surface must return exactly that — the in-memory
``FlowDatabase``, a ``FlowStore`` with three or more segments and a
live tail, a 2-shard coordinator on both backends — as plain ``int`` /
``float`` values with identical JSON.

Also here: the merge-contract cases of the ``Groups`` operations the
consumers use (``mapped`` / ``where`` / ``column`` / ``values``), and
the label binding of a segment (``SegmentReader.bind`` +
``FlowDatabase.from_columns`` adopting its label tables from the
store's global ones) against interning every name from scratch.
"""

import json
import pickle
import struct
from array import array
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import storage
from repro.analytics.database import FlowDatabase, Groups
from repro.analytics.shard import ShardCoordinator
from repro.analytics.storage import (
    FlowStore,
    SegmentReader,
    StorageError,
    write_segment,
)
from repro.analytics.tangle import fanin_distribution, fanout_distribution
from repro.analytics.temporal import (
    fqdns_per_cdn_series,
    total_fqdns_per_cdns,
)
from repro.analytics.trackers import TrackerActivityAnalysis
from repro.experiments import fig5 as fig5_experiment
from repro.net.flow import FiveTuple, FlowRecord, Protocol, TransportProto
from repro.orgdb.ipdb import IpOrganizationDb
from test_query_table import _assert_conforms
from test_query_table import _flow as _query_flow


#: Untagged (``None`` and ``""``), mixed case collapsing to one name,
#: tracker and non-tracker names, names sharing a 2LD, a name that is
#: its own 2LD, a non-ASCII label.
LABELS = (
    None, "", "www.Example.com", "www.example.com", "WWW.EXAMPLE.COM",
    "cdn.example.net", "a.Tracker.org", "open.tracker.org", "tracker.org",
    "announce.b.co.uk", "x.appspot.com", "torrent.ünï.example.com",
)
#: Two organizations whose names lowercase alike, one more, and
#: addresses nobody owns (44, 60+).
ORGS = ((40, 43, "Akamai"), (45, 47, "AKAMAI"), (50, 55, "Amazon"))
SERVERS = (40, 41, 43, 44, 45, 47, 50, 55, 60, 4_000_000_000)
#: Asked-for CDNs: a repeat in another case, and one with no server.
CDNS = ("akamai", "Amazon", "AKAMAI", "edgecast")
BINS = (600.0, 37.5, 4 * 3600.0)


def _ipdb() -> IpOrganizationDb:
    ipdb = IpOrganizationDb()
    for start, end, name in ORGS:
        ipdb.add_range(start, end, name)
    return ipdb


@st.composite
def flow_lists(draw, max_size=60):
    """Flows whose starts are negative and fractional too — quarter
    seconds, so a bin edge is exact in every arithmetic."""
    picks = draw(st.lists(
        st.tuples(
            st.sampled_from(LABELS), st.sampled_from(SERVERS),
            st.integers(min_value=-40_000, max_value=400_000),
            st.integers(min_value=1, max_value=5),
        ),
        max_size=max_size,
    ))
    return [
        FlowRecord(
            fid=FiveTuple(client, server, 1024 + index, 443,
                          TransportProto.TCP),
            start=quarters / 4.0, end=quarters / 4.0 + 1.0,
            protocol=Protocol.TLS, bytes_up=10, bytes_down=100, packets=2,
            fqdn=label,
        )
        for index, (label, server, quarters, client) in enumerate(picks)
    ]


def _fixed_flows(n: int) -> list[FlowRecord]:
    """A deterministic list touching every label, server and sign."""
    return [
        FlowRecord(
            fid=FiveTuple(1 + i % 4, SERVERS[i * 7 % len(SERVERS)],
                          1024 + i, 443, TransportProto.TCP),
            start=(i * 911 % 9000 - 1500) / 4.0,
            end=(i * 911 % 9000 - 1500) / 4.0 + 1.0,
            protocol=Protocol.TLS, bytes_up=10, bytes_down=100, packets=2,
            fqdn=LABELS[i * 5 % len(LABELS)],
        )
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# the figures, per flow


def _gap_filled(bins: dict, bin_seconds: float) -> list:
    if not bins:
        return []
    return [
        [index * bin_seconds, len(bins.get(index, ()))]
        for index in range(min(bins), max(bins) + 1)
    ]


def _reference(flows, ipdb, bin_seconds: float) -> dict:
    """Fig. 3 / 5 / 11 from one loop over the flows."""
    servers_of, fqdns_of = defaultdict(set), defaultdict(set)
    wanted = list(dict.fromkeys(cdn.lower() for cdn in CDNS))
    active = {cdn: defaultdict(set) for cdn in wanted}
    hosted = {cdn: set() for cdn in wanted}
    tracker = TrackerActivityAnalysis(bin_seconds=bin_seconds)
    for flow in flows:
        tracker.observe(flow)
        if not flow.fqdn:
            continue
        name, server = flow.fqdn.lower(), flow.fid.server_ip
        servers_of[name].add(server)
        fqdns_of[server].add(name)
        owner = ipdb.lookup(server)
        if owner is not None and owner.lower() in active:
            hosted[owner.lower()].add(name)
            active[owner.lower()][int(flow.start // bin_seconds)].add(name)
    return {
        "fig3": [sorted(map(len, servers_of.values())),
                 sorted(map(len, fqdns_of.values()))],
        "fig5": {cdn: _gap_filled(active[cdn], bin_seconds)
                 for cdn in wanted},
        "fig5_totals": {cdn: len(hosted[cdn]) for cdn in wanted},
        "fig11": _timelines(tracker),
    }


def _timelines(tracker: TrackerActivityAnalysis) -> dict:
    return {
        "max_bin": tracker._max_bin,
        "services": {
            timeline.service: [timeline.first_seen,
                               sorted(timeline.active_bins)]
            for timeline in tracker.timelines()
        },
    }


def _analyses(database, ipdb, bin_seconds: float) -> dict:
    """The same figures through the consumers under test."""
    tracker = TrackerActivityAnalysis(bin_seconds=bin_seconds)
    tracker.observe_database(database)
    totals = total_fqdns_per_cdns(database, ipdb, CDNS)
    return {
        "fig3": [list(fanout_distribution(database).values),
                 list(fanin_distribution(database).values)],
        "fig5": fqdns_per_cdn_series(database, ipdb, CDNS, bin_seconds),
        "fig5_totals": totals,
        "fig11": _timelines(tracker),
    }


def _assert_plain(value, path="result") -> None:
    """Every leaf is exactly ``int`` / ``float`` / ``str`` — a numpy
    scalar would change digests and JSON."""
    if isinstance(value, dict):
        for key, item in value.items():
            assert type(key) is str, (path, key)
            _assert_plain(item, f"{path}[{key!r}]")
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _assert_plain(item, f"{path}[{index}]")
    else:
        assert type(value) in (int, float, str), (path, type(value))


def _assert_same(result: dict, expected: dict, surface: str) -> None:
    _assert_plain(result, surface)
    # Fig. 5 answers in asked-for order; Fig. 11 ties sort by arrival.
    assert list(result["fig5"]) == list(expected["fig5"]), surface
    assert json.dumps(result, sort_keys=True) == json.dumps(
        expected, sort_keys=True
    ), surface


def _flat_store(directory, flows, spill_rows: int) -> FlowStore:
    """Sealed segments + a live tail holding the last flow."""
    store = FlowStore(directory, spill_rows=spill_rows)
    store.add_all(flows[:-1])
    store.flush()
    store.add_all(flows[-1:])
    return store


def _check_surfaces(tmp_path, flows, bin_seconds, backends):
    ipdb = _ipdb()
    expected = _reference(flows, ipdb, bin_seconds)
    mem = FlowDatabase.from_flows(flows)
    _assert_same(_analyses(mem, ipdb, bin_seconds), expected, "memory")
    spill_rows = max(2, (len(flows) - 1) // 3)
    store = _flat_store(tmp_path / "flat", flows, spill_rows)
    if len(flows) >= 8:
        assert len(store.segments) >= 3 and len(store._tail) == 1
    _assert_same(_analyses(store, ipdb, bin_seconds), expected, "store")
    with store.pin() as snapshot:
        _assert_same(
            _analyses(snapshot, ipdb, bin_seconds), expected, "snapshot"
        )
    store.close()
    reopened = FlowStore(tmp_path / "flat")
    _assert_same(_analyses(reopened, ipdb, bin_seconds), expected, "cold")
    reopened.close()
    for backend in backends:
        built = ShardCoordinator(
            tmp_path / backend, shards=2, spill_rows=spill_rows,
        )
        built.add_all(flows)
        if backend == "process":
            # Sealed, then reopened one process per shard.
            built.close()
            built = ShardCoordinator(tmp_path / backend, backend="process")
        _assert_same(_analyses(built, ipdb, bin_seconds), expected, backend)
        built.close()


class TestFiguresOnEverySurface:
    @settings(deadline=None)
    @given(flow_lists(), st.sampled_from(BINS))
    def test_equal_to_per_flow_loops(self, tmp_path_factory, flows,
                                     bin_seconds):
        tmp_path = tmp_path_factory.mktemp("consumers")
        _check_surfaces(tmp_path, flows, bin_seconds, ("inprocess",))

    @pytest.mark.parametrize("n_flows", [0, 1, 90])
    def test_both_shard_backends(self, tmp_path, n_flows):
        _check_surfaces(
            tmp_path, _fixed_flows(n_flows), 600.0, ("inprocess", "process")
        )

    def test_experiment_totals_come_from_one_pass(self, monkeypatch):
        """``repro-exp fig5`` asked for the whole store once per CDN;
        the totals are one packed pass now, same numbers."""
        mem = FlowDatabase.from_flows(_fixed_flows(90))
        passes = []
        original = FlowDatabase.groups

        def counting(self, name, *args):
            passes.append(name)
            return original(self, name, *args)

        monkeypatch.setattr(FlowDatabase, "groups", counting)
        totals = total_fqdns_per_cdns(mem, _ipdb(), fig5_experiment.CDNS)
        assert passes == ["fqdn_server_counts"]
        assert list(totals) == list(fig5_experiment.CDNS)
        expected = _reference(_fixed_flows(90), _ipdb(), 600.0)["fig5_totals"]
        assert totals["akamai"] == expected["akamai"] > 0
        assert totals["amazon"] == expected["amazon"] > 0
        assert totals["edgecast"] == 0


# ---------------------------------------------------------------------------
# Groups operations (the TestMergeContract cases of test_query_table.py)


def _packed(rows, k: int) -> Groups:
    """``rows`` as the instance a kernel would have made."""
    if not rows:
        return Groups(0)
    return Groups.of(k, *(np.asarray(column, np.int64)
                          for column in zip(*rows)))


row_lists = st.lists(
    st.tuples(st.integers(-5, 40), st.integers(0, 6), st.integers(-9, 9)),
    max_size=40,
)


class TestGroupsOperations:
    @settings(deadline=None)
    @given(row_lists, st.sets(st.integers(0, 6)), st.integers(1, 5))
    def test_arrays_equal_loops(self, rows, keep, modulus):
        """Each operation equals a loop over the rows, also chained and
        through a pickle."""
        def code(value):
            return value % modulus        # not injective
        groups = _packed(rows, 2)
        base = sorted(set((a, b) for a, b, _c in rows))
        sums = defaultdict(int)
        for a, b, c in rows:
            sums[a, b] += c
        assert groups.tuples() == [key + (sums[key],) for key in base]
        base = groups.tuples()
        for index in range(3):
            assert groups.values(index) == [r[index] for r in base]
        kept = groups.where(1, keep)
        assert kept.tuples() == [r for r in base if r[1] in keep]
        calls = []
        mapped = groups.mapped(0, lambda v: calls.append(v) or code(v))
        assert calls == sorted({row[0] for row in base})
        assert mapped.tuples() == [(code(a), b, c) for a, b, c in base]
        refolded = Groups.of(
            2, mapped.column(0), mapped.column(1), mapped.column(2)
        )
        sums = defaultdict(int)
        for a, b, c in base:
            sums[code(a), b] += c
        assert refolded.tuples() == [
            key + (total,) for key, total in sorted(sums.items())
        ]
        counted = Groups.of(1, kept.column(1), count=True)
        assert counted.mapping() == {
            b: sum(1 for r in base if r[1] == b)
            for b in keep if any(r[1] == b for r in base)
        }
        for part in (kept, mapped, refolded, counted):
            assert pickle.loads(pickle.dumps(part)) == part
            for index in range(len(part.tuples()[0]) if len(part) else 0):
                assert all(
                    type(value) is int for value in part.values(index)
                )

    def test_empty_and_single_row(self):
        empty = Groups(0)
        assert pickle.loads(pickle.dumps(empty)) == empty
        assert empty.mapped(0, abs) is empty
        assert len(empty.where(0, {1})) == 0
        assert len(empty.column(0)) == 0 and empty.values(1) == []
        assert empty.tuples() == [] and empty.mapping() == {}
        assert empty.to_json() == "[]"
        assert len(Groups.of(1, empty.column(0), count=True)) == 0
        one = _packed([(3, 1, 7)], 2)
        assert one.where(0, ()).tuples() == []
        assert one.where(0, {3: "x"}).tuples() == [(3, 1, 7)]
        nothing = one.where(1, [2])
        assert nothing.mapped(0, abs).tuples() == []
        assert nothing.values(2) == []
        assert len(Groups.of(2, nothing.column(1), nothing.column(0))) == 0
        assert one.mapped(2, lambda v: v * 2).tuples() == [(3, 1, 14)]


class TestPackedAccessor:
    def test_in_memory_and_store_hand_out_the_same_partial(self, tmp_path):
        flows = _fixed_flows(60)
        mem = FlowDatabase.from_flows(flows)
        store = _flat_store(tmp_path / "store", flows, 13)
        for name, args in (
            ("fqdn_server_counts", ()), ("fqdn_first_seen", (None,)),
            ("fqdn_bin_pairs", (600.0,)),
            ("server_fqdn_bin_triples", (600.0, None)),
            ("unique_servers_per_bin", ("example.com", 600.0)),
        ):
            packed = store.groups(name, *args)
            assert isinstance(packed, Groups)
            assert packed == mem.groups(name, *args), name
            finished = getattr(mem, name)(*args)
            if isinstance(finished, dict):
                assert packed.mapping() == finished
            elif name != "unique_servers_per_bin":
                assert packed.tuples() == sorted(finished)
        store.close()


# ---------------------------------------------------------------------------
# label binding: a segment's tables adopted from the store's global ones


label_tables = st.lists(
    st.sampled_from(LABELS + ("Example.COM", "b.co.uk", "x.b.co.uk", "com")),
    max_size=30,
)
LABEL_FIELDS = (
    "_fqdn_names", "_fqdn_ids", "_fqdn_sld", "_sld_names", "_sld_ids",
)


def _labeled_flows(labels) -> list[FlowRecord]:
    return [
        FlowRecord(
            fid=FiveTuple(7, 40 + index % 3, 1024 + index, 443,
                          TransportProto.TCP),
            start=float(index), end=float(index) + 1.0,
            protocol=Protocol.TLS, bytes_up=1, bytes_down=1, packets=1,
            fqdn=label,
        )
        for index, label in enumerate(labels)
    ]


class TestLabelBinding:
    @settings(deadline=None)
    @given(label_tables, label_tables)
    def test_adoption_equals_interning_from_scratch(
        self, tmp_path_factory, labels, seen_before
    ):
        """Whatever the store's global table already holds, the bound
        segment materializes with the label tables a database fed its
        rows one by one has — every field, every listing order — while
        sharing the global table's ``str`` objects."""
        path = tmp_path_factory.mktemp("bind") / "seg-00000001.fseg"
        scratch = FlowDatabase.from_flows(_labeled_flows(labels))
        write_segment(path, scratch)
        interns = FlowDatabase()
        for name in seen_before:
            if name:
                interns._intern_fqdn(name.lower())
        reader = SegmentReader.open(path)
        reader.bind(interns)
        adopted = reader.database()
        unbound = SegmentReader.open(path).database()
        for db in (adopted, unbound):
            for field in LABEL_FIELDS:
                assert getattr(db, field) == getattr(scratch, field), field
            assert db.fqdns() == scratch.fqdns()
            assert db.slds() == scratch.slds()
            assert list(db) == list(scratch)
            for sld in scratch.slds() + ["absent.org"]:
                assert db.fqdns_for_domain(sld) == (
                    scratch.fqdns_for_domain(sld)
                )
                assert list(db.rows_for_domain(sld)) == list(
                    scratch.rows_for_domain(sld)
                )
            assert db.sld_flow_stats(db.tagged_rows()) == (
                scratch.sld_flow_stats(scratch.tagged_rows())
            )
        assert [
            interns.fqdn_label(global_id) for global_id in reader.fqdn_map
        ] == scratch.fqdns()
        assert all(
            local is interns._fqdn_names[global_id]
            for local, global_id in zip(
                adopted._fqdn_names, reader.fqdn_map
            )
        )

    def test_from_columns_refuses_inconsistent_tables(self):
        mem = FlowDatabase.from_flows(_labeled_flows(["a.example.com"]))
        with pytest.raises(ValueError):
            FlowDatabase.from_columns(mem.columns, mem, array("i", [0, 0]))
        mem.columns.raw_fqdn.append(None)
        with pytest.raises(ValueError):
            FlowDatabase.from_columns(mem.columns, mem, array("i", [0]))

    def test_reopened_store_equals_one_that_never_closed(self, tmp_path):
        """open → ingest → seal → compact → reopen, step by step: the
        id maps and the answers are those of a store that stayed
        open."""
        flows = _fixed_flows(120)
        ipdb = _ipdb()
        kept = FlowStore(tmp_path / "kept", spill_rows=10_000)
        cycled = FlowStore(tmp_path / "cycled", spill_rows=10_000)

        def step(action):
            nonlocal cycled
            for store in (kept, cycled):
                action(store)
            cycled.close()          # seals, like the flush it follows
            kept.flush()
            cycled = FlowStore(tmp_path / "cycled", spill_rows=10_000)
            assert [list(r.fqdn_map) for r in cycled.segments] == [
                list(r.fqdn_map) for r in kept.segments
            ]
            assert cycled.fqdns() == kept.fqdns()
            assert cycled.slds() == kept.slds()
            assert _analyses(cycled, ipdb, 600.0) == _analyses(
                kept, ipdb, 600.0
            )
            assert list(cycled) == list(kept)

        step(lambda store: store.add_all(flows[:30]))
        step(lambda store: store.add_all(flows[30:70]))
        step(lambda store: store.add_all(flows[70:100]))
        step(lambda store: store.compact(small_rows=35))
        step(lambda store: store.add_all(flows[100:]))
        step(lambda store: store.compact())
        assert len(kept.segments) == 1
        _assert_same(
            _analyses(cycled, ipdb, 600.0),
            _reference(flows, ipdb, 600.0), "cycled",
        )
        kept.close()
        cycled.close()


# ---------------------------------------------------------------------------
# the cold read: label tables resolved once, by raw bytes


#: Per sealed segment (10 rows each) and the live tail, the labels its
#: rows cycle through: a name first seen in a later segment, one name
#: in three cases over three segments, the untagged ``""`` next to
#: ``None``, a non-ASCII name in two cases, and names only the tail has.
COLD_PLAN = (
    ("www.Example.com", None, "", "cdn.example.net"),
    ("WWW.EXAMPLE.COM", "münchen.example.com", "static.example.com", None),
    ("a.b.tracker.org", "www.example.com", "", "Cdn.Example.Net"),
    ("MÜNCHEN.example.com", "www.Example.com", "late.example.net"),
    ("tail.example.com", "München.Example.com", None, "a.b.tracker.org"),
)


def _cold_flows() -> list[FlowRecord]:
    flows = []
    for part, labels in enumerate(COLD_PLAN):
        for at in range(10 if part < 4 else 6):
            flow = _query_flow(len(flows))
            flow.fqdn = labels[at % len(labels)]
            flows.append(flow)
    return flows


def _cold_store(directory) -> FlowStore:
    """Four sealed segments and a live tail, the tail ingested as a
    codec batch (so its labels go through the raw-bytes cache too)."""
    flows = _cold_flows()
    store = FlowStore(directory, spill_rows=10)
    store.add_all(flows[:40])
    store.ingest_batch(storage._encode_flow_batch(flows[40:]))
    assert len(store.segments) == 4 and len(store._tail) == 6
    return store


class TestColdRead:
    def test_every_query_equals_the_in_memory_database(self, tmp_path):
        """Open, then reopened from disk (the tail replayed from the
        journal): every table entry answers as ``from_flows`` does,
        with one global id per name whatever its case and each row
        keeping its own."""
        flows = _cold_flows()
        mem = FlowDatabase.from_flows(flows)
        store = _cold_store(tmp_path)
        _assert_conforms({"open": store}, mem)
        del store                   # no close: the tail stays journaled
        reopened = FlowStore(tmp_path, spill_rows=10)
        assert len(reopened.segments) == 4 and len(reopened._tail) == 6
        _assert_conforms({"reopened": reopened}, mem)
        assert reopened.fqdns() == mem.fqdns()
        assert reopened.fqdns().count("www.example.com") == 1
        assert "münchen.example.com" in reopened.fqdns()
        assert [flow.fqdn for flow in reopened] == [
            flow.fqdn for flow in flows
        ]
        # The untagged "" is a table entry of two segments, with no id.
        assert [b"" in reader._raw_labels for reader in reopened.segments] \
            == [True, False, True, False]
        reopened.close()

    def test_each_raw_entry_is_resolved_once(self, tmp_path, monkeypatch):
        """A reopen probes every label-table entry once: an entry an
        earlier segment bound is not decoded or interned again, and a
        case variant is one more raw entry on the same id."""
        _cold_store(tmp_path).close()
        calls = []
        intern = FlowDatabase._intern_fqdn
        monkeypatch.setattr(
            FlowDatabase, "_intern_fqdn",
            lambda db, name: calls.append(name) or intern(db, name),
        )
        store = FlowStore(tmp_path, spill_rows=10)
        entries = {
            raw for reader in store.segments for raw in reader._raw_labels
        }
        assert sorted(calls) == sorted(
            raw.decode().lower() for raw in entries if raw
        )
        assert set(store._interns._raw_ids) == entries | {None}
        for reader in store.segments:
            assert reader.labels == tuple(
                raw.decode() for raw in reader._raw_labels
            )
            # Known entries share the store's str objects.
            assert all(
                text is store._interns._raw_texts[raw]
                for raw, text in zip(reader._raw_labels, reader.labels)
            )
        store.close()

    def test_ids_stay_stable_through_reopen_ingest_and_seal(
        self, tmp_path, monkeypatch
    ):
        """Reopen, ingest batches whose labels the open already
        resolved (and one it did not), seal: the global ids and their
        order do not move, the sealed tail binds through the map it
        was given without interning a name, and a second reopen binds
        every segment to the same ids."""
        _cold_store(tmp_path).close()
        store = FlowStore(tmp_path, spill_rows=1000)
        names = store.fqdns()
        ids = dict(store._interns._fqdn_ids)
        again = _cold_flows()[:20]
        again[3].fqdn = "only.in.the.new.batch.example.org"
        store.ingest_batch(storage._encode_flow_batch(again))
        store.fqdns()                           # syncs the tail's map
        tail_map = store._tail_map
        grown = store.fqdns()
        assert grown == names + ["only.in.the.new.batch.example.org"]
        interned = []
        intern = FlowDatabase._intern_fqdn
        monkeypatch.setattr(
            FlowDatabase, "_intern_fqdn",
            lambda db, name: interned.append(name) or intern(db, name),
        )
        store.flush()
        sealed = store.segments[-1]
        assert sealed.fqdn_map is tail_map
        assert store.fqdns() == grown
        assert not set(interned) - set(grown)   # looked up, never added
        assert {name: store._interns._fqdn_ids[name] for name in names} \
            == ids
        assert [store.fqdn_label(g) for g in sealed.fqdn_map] == (
            sealed.database().fqdns()
        )
        maps = [list(reader.fqdn_map) for reader in store.segments]
        store.close()
        reopened = FlowStore(tmp_path, spill_rows=1000)
        assert reopened.fqdns() == grown
        assert [list(r.fqdn_map) for r in reopened.segments] == maps
        reopened.close()

    def test_a_reader_nobody_bound_binds_itself(self, tmp_path):
        _cold_store(tmp_path).close()
        store = FlowStore(tmp_path)
        expected = [list(reader.database()) for reader in store.segments]
        store.close()
        for reader, rows in zip(store.segments, expected):
            alone = SegmentReader.open(reader.path)
            assert alone.fqdn_map is None
            assert list(alone.database()) == rows
            assert alone.fqdn_map is not None
            assert alone._interns.fqdns() == alone.database().fqdns()


class TestCorruptLabelTables:
    """A damaged table or id column behind a *valid* CRC (the file is
    rewritten whole): tables are refused when the segment is opened,
    ids when it is materialized — where they always were."""

    LABEL_IDS = storage._N_NUMERIC
    LABEL_TABLE = storage._N_NUMERIC + storage._N_ID

    def _rewritten(self, tmp_path, damage, n_labels=None):
        path = tmp_path / "seg-00000001.fseg"
        write_segment(path, FlowDatabase.from_flows(_labeled_flows(
            ["one.example.com", "two.example.com", "three.example.com"]
        )))
        good = SegmentReader.open(path)
        blocks = good.read_blocks()
        damage(blocks)
        storage._write_segment_file(
            path, good.n_rows, blocks,
            good.n_labels if n_labels is None else n_labels,
            good.n_certs, good.n_trues,
        )
        return path

    @pytest.mark.parametrize("damage, n_labels, message", [
        (lambda b, t: b.__setitem__(t, b[t][:-3]), None,
         "truncated label table entry"),
        (lambda b, t: b.__setitem__(t, b[t] + b"\x01"), None,
         "trailing bytes"),
        (lambda b, t: None, 4, "truncated label table"),
        (lambda b, t: b.__setitem__(t, b[t] + b"\x02\x00"), 4,
         "truncated label table"),
        # Bad UTF-8 in the *middle* entry of three.
        (lambda b, t: b.__setitem__(
            t, b[t].replace(b"two.example.com", b"two.\xff\xfeample.com")),
         None, "bad UTF-8 in label table"),
    ])
    def test_table_damage_is_refused_at_open(self, tmp_path, damage,
                                             n_labels, message):
        path = self._rewritten(
            tmp_path, lambda blocks: damage(blocks, self.LABEL_TABLE),
            n_labels,
        )
        with pytest.raises(StorageError, match=message):
            SegmentReader.open(path)
        (tmp_path / "MANIFEST.json").write_text(json.dumps(
            {"format": 2, "segments": [{"name": path.name, "rows": 3}]}
        ))
        with pytest.raises(StorageError, match=message):
            FlowStore(tmp_path, strict=True)
        store = FlowStore(tmp_path)         # default: quarantined
        assert len(store) == 0 and store.health()["status"] == "degraded"
        store.close()

    @staticmethod
    def _entry_by_entry(raw: bytes, count: int, what: str) -> list[str]:
        """The walk the one-pass split replaced: decode each entry in
        turn; the first fault in entry order is the error."""
        out, pos = [], 0
        try:
            for _ in range(count):
                if pos + 4 > len(raw):
                    raise StorageError(f"truncated {what} table")
                (length,) = struct.unpack_from("<I", raw, pos)
                pos += 4
                if pos + length > len(raw):
                    raise StorageError(f"truncated {what} table entry")
                out.append(str(raw[pos:pos + length], "utf-8"))
                pos += length
        except UnicodeDecodeError as exc:
            raise StorageError(f"bad UTF-8 in {what} table: {exc}") from exc
        if pos != len(raw):
            raise StorageError(f"{what} table has trailing bytes")
        return out

    @settings(deadline=None, max_examples=400)
    @given(
        st.lists(st.binary(max_size=5) | st.text(max_size=3).map(str.encode),
                 max_size=5),
        st.integers(min_value=0, max_value=7), st.binary(max_size=6),
        st.integers(min_value=-1, max_value=40),
    )
    def test_split_faults_like_decoding_entry_by_entry(
        self, entries, count, garbage, cut
    ):
        """Valid entries, stray bytes, a cut anywhere, a count off either
        way: the same entries or the same error, message and all."""
        raw = b"".join(
            struct.pack("<I", len(entry)) + entry for entry in entries
        ) + garbage
        if cut >= 0:
            raw = raw[:cut]
        try:
            expected = self._entry_by_entry(raw, count, "label")
        except StorageError as exc:
            with pytest.raises(StorageError) as caught:
                storage._split_table(raw, count, "label")
            assert str(caught.value) == str(exc)
        else:
            split = storage._split_table(raw, count, "label")
            assert [entry.decode() for entry in split] == expected

    @pytest.mark.parametrize("offset, what", [
        (0, "label"), (1, "cert"), (2, "true-fqdn"),
    ])
    @pytest.mark.parametrize("bad_id", [-2, 3])
    def test_id_out_of_range_is_refused_at_materialization(
        self, tmp_path, bad_id, offset, what
    ):
        def damage(blocks):
            column = self.LABEL_IDS + offset
            ids = storage._from_le("i", blocks[column])
            ids[1] = bad_id
            blocks[column] = storage._le(ids)

        path = self._rewritten(tmp_path, damage)
        reader = SegmentReader.open(path)      # tables are fine
        reader.bind(FlowDatabase())
        with pytest.raises(StorageError, match=f"^{what} id out of table"):
            reader.database()
        assert not reader.resident
