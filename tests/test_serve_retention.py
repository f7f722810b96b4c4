"""Retention: a finished answer outlives its flight until the store's
version moves (PR 24).

Single-flight used to share an execution only between *concurrent*
identical queries; now the finished flight's encoded body is kept,
stamped with ``store.version()``, and handed to a later identical
query while the version stands still.  What must hold:

* **one execution** — N sequential identical requests on a quiet store
  run the route once and return the *same* ``bytes`` object N times;
* **exactness** — whatever interleaving of ingest, seal, compaction and
  repeated requests, a served body equals what a daemon that keeps
  nothing (budget 0) answers at that moment (the state machine below,
  over a flat store and a two-shard in-process coordinator, for every
  route with a ``shape``);
* **nothing doubtful is kept** — an answer computed across a version
  change, an error, a 4xx/5xx, a 504; and a shed request never reaches
  the table;
* **bounded** — the byte budget holds after every call, the answer
  cheapest to recompute per byte goes first (GreedyDual-Size, costs
  injected through a patched ``thread_time``), a keep at a new version
  drops every older answer, the lazy-deletion heap stays within twice
  the live answers, the per-answer charge matches what ``tracemalloc``
  sees, and a body over the budget is served but not kept;
* **opt-out by construction** — a sharded root whose shards are worker
  processes cannot say its version without a round trip: ``version()``
  is ``None`` and every request executes.
"""

from __future__ import annotations

import gc
import json
import shutil
import sys
import tempfile
import threading
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.analytics.database import FlowDatabase
from repro.analytics.queries import QUERIES
from repro.analytics.shard import ShardCoordinator
from repro.analytics.storage import FlowStore
from repro.serve.admission import AdmissionController, RouteClassLimits
from repro.serve import singleflight
from repro.serve.server import ServeApp
from repro.serve.singleflight import (
    _ENTRY_BYTES,
    RETAIN_BYTES,
    REUSED,
    SingleFlight,
)
from repro.sniffer.eventcodec import encode_events
from test_query_table import _cases, _flow, _http_params


def _requests() -> list[tuple[str, dict]]:
    """One ``(route, params)`` per query-table case that HTTP serves —
    every route with a ``shape``, the inverted window's 400 included."""
    mem = FlowDatabase.from_flows([_flow(i) for i in range(40)])
    requests = []
    for name, args in _cases(mem):
        query = QUERIES[name]
        request = (query.route, _http_params(query, args))
        if (query.shape is not None and query.rows(args) is None
                and request not in requests):
            requests.append(request)
    assert {route for route, _params in requests} == {
        query.route for query in QUERIES.values()
        if query.shape is not None
    }
    return requests


REQUESTS = _requests()


def _get(app: ServeApp, route: str, params: dict, headers=None):
    status, _ctype, body, _headers = app.handle(
        "GET", f"/query/{route}", params, headers=headers
    )
    return status, body


def _count_executions(app: ServeApp, route: str) -> list:
    """Wrap one route so every execution appends to the returned list."""
    executions = []
    original = app.query_routes[route]

    def counted(snap, params):
        executions.append(threading.get_ident())
        return original(snap, params)

    app.query_routes[route] = counted
    return executions


def _open(directory, spill_rows: int, sharded: bool = False):
    """A flat store, or a two-shard in-process coordinator — whose
    version is the tuple of its shards'."""
    if sharded:
        return ShardCoordinator(directory, shards=2, spill_rows=spill_rows)
    return FlowStore(directory, spill_rows=spill_rows)


#: The two roots whose answers a daemon keeps.
ROOTS = pytest.mark.parametrize("sharded", [False, True],
                                ids=["flat", "sharded"])


def _quiet_store(directory, sharded: bool = False):
    """Sealed segments plus a live tail, nothing moving."""
    store = _open(directory, 9, sharded)
    store.add_all(_flow(i) for i in range(40))
    if sharded:
        assert all(
            shard._segments and len(shard._tail)
            for shard in store._ensure_backend().stores
        )
    else:
        assert len(store._segments) >= 2 and len(store._tail)
    return store


# ---------------------------------------------------------------------------
# (a) one execution, one bytes object
# ---------------------------------------------------------------------------


@ROOTS
def test_sequential_identical_requests_execute_once(tmp_path, sharded):
    n = 5
    store = _quiet_store(tmp_path / "store", sharded)
    app = ServeApp(store)
    executions = {
        route: _count_executions(app, route)
        for route in {route for route, _params in REQUESTS}
    }
    for route, params in REQUESTS:
        before = len(executions[route])
        reused = app.m_reused.value(route=route)
        answers = [_get(app, route, params) for _ in range(n)]
        status, body = answers[0]
        if status != 200:
            # An error is recomputed every time.
            assert len(executions[route]) == before + n
            continue
        assert len(executions[route]) == before + 1, route
        # Not merely equal: the bytes the leader encoded.
        assert all(
            again == 200 and kept is body for again, kept in answers
        ), route
        assert app.m_reused.value(route=route) == reused + n - 1
    assert app.m_coalesced.samples() == []  # nobody was concurrent
    count, held = app.singleflight.retained()
    assert count == sum(
        1 for route, params in REQUESTS
        if _get(app, route, params)[0] == 200
    ) > len(app.query_routes)
    assert 0 < held <= RETAIN_BYTES
    store.close()


# ---------------------------------------------------------------------------
# (b) the state machine: served == fresh, whatever happened in between
# ---------------------------------------------------------------------------


class RetentionMachine(RuleBasedStateMachine):
    """Real ``FlowStore``, real ``ServeApp``; the oracle is a second
    app over the same store that keeps nothing."""

    sharded = False

    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="retention-")
        self.store = _open(self.directory, 23, self.sharded)
        self.app = ServeApp(self.store)
        self.fresh = ServeApp(self.store)
        self.fresh.singleflight.retain_bytes = 0
        self.next_flow = 0

    def teardown(self):
        self.store.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    @rule(count=st.integers(1, 12))
    def ingest(self, count):
        flows = [_flow(self.next_flow + i) for i in range(count)]
        self.next_flow += count
        status, _ctype, body, _headers = self.app.handle(
            "POST", "/ingest", {}, encode_events(flows)
        )
        assert (status, json.loads(body)) == (200, {"rows": count})

    @rule()
    def flush(self):
        self.store.flush()

    @rule(small_rows=st.sampled_from([None, 24, 60]))
    def compact(self, small_rows):
        self.store.compact(small_rows)

    @rule(index=st.integers(0, len(REQUESTS) - 1),
          times=st.integers(1, 3))
    def request(self, index, times):
        route, params = REQUESTS[index]
        for _ in range(times):
            served = _get(self.app, route, params)
            assert served == _get(self.fresh, route, params), (
                route, params, self.store.version(),
            )


class ShardedRetentionMachine(RetentionMachine):
    sharded = True


_machine_settings = settings(
    max_examples=20, stateful_step_count=40, deadline=None
)
TestRetentionMachine = RetentionMachine.TestCase
TestRetentionMachine.settings = _machine_settings
TestShardedRetentionMachine = ShardedRetentionMachine.TestCase
TestShardedRetentionMachine.settings = _machine_settings


@ROOTS
def test_the_machine_s_worst_case_by_hand(tmp_path, sharded):
    """The directed version: the same requests after an acknowledged
    ingest, a seal and a compaction never see the answer kept before —
    ``rows-in-window`` included, whose global row ids can only be
    trusted for the member set they were computed over."""
    store = _open(tmp_path / "store", 1000, sharded)
    app, fresh = ServeApp(store), ServeApp(store)
    fresh.singleflight.retain_bytes = 0
    steps = [
        lambda: store.add_all(_flow(i) for i in range(30)),
        store.flush,
        lambda: app.ingest(encode_events(
            [_flow(i) for i in range(30, 45)]
        )),
        store.flush,
        store.compact,
        lambda: store.add(_flow(45)),
    ]
    versions = set()
    for step in steps:
        step()
        assert store.version() not in versions
        versions.add(store.version())
        for route, params in REQUESTS:
            first = _get(app, route, params)
            assert first == _get(fresh, route, params), route
            assert _get(app, route, params) == first
    assert sum(
        value for _s, _l, value in app.m_reused.samples()
    ) > 0
    store.close()


# ---------------------------------------------------------------------------
# (c) an ingest acknowledged during the compute
# ---------------------------------------------------------------------------


def test_answer_computed_across_an_ack_is_returned_but_not_kept(tmp_path):
    store = _quiet_store(tmp_path / "store")
    app = ServeApp(store)
    entered, release = threading.Event(), threading.Event()
    executions = []
    original = app.query_routes["fqdn-server-counts"]

    def held(snap, params):
        executions.append(1)
        if len(executions) == 1:
            entered.set()
            assert release.wait(timeout=30)
        return original(snap, params)

    app.query_routes["fqdn-server-counts"] = held
    answers = []
    worker = threading.Thread(target=lambda: answers.append(
        _get(app, "fqdn-server-counts", {})
    ))
    worker.start()
    assert entered.wait(timeout=30)
    # The leader holds its pinned snapshot; the ack lands meanwhile.
    status, _ctype, body, _headers = app.handle(
        "POST", "/ingest", {}, encode_events([_flow(100)])
    )
    assert (status, json.loads(body)) == (200, {"rows": 1})
    release.set()
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert answers[0][0] == 200      # its caller got the answer...
    assert app.singleflight.retained() == (0, 0)   # ...nobody else will
    fresh = ServeApp(store)
    fresh.singleflight.retain_bytes = 0
    again = _get(app, "fqdn-server-counts", {})
    assert len(executions) == 2
    assert again == _get(fresh, "fqdn-server-counts", {})
    assert app.m_reused.samples() == []
    # Quiet now: this one is kept.
    assert _get(app, "fqdn-server-counts", {})[1] is again[1]
    assert len(executions) == 2
    store.close()


# ---------------------------------------------------------------------------
# (d) errors are never kept; the gate comes first
# ---------------------------------------------------------------------------


class TestNothingDoubtfulIsKept:
    def test_a_400_is_recomputed(self, tmp_path):
        store = _quiet_store(tmp_path / "store")
        app = ServeApp(store)
        executions = _count_executions(app, "rows-in-window")
        params = {"t0": ["5"], "t1": ["1"]}
        for _ in range(3):
            status, body = _get(app, "rows-in-window", params)
            assert status == 400
            assert "t0 must be <= t1" in json.loads(body)["error"]
        assert len(executions) == 3
        assert app.singleflight.retained() == (0, 0)
        store.close()

    def test_a_504_is_not_kept_and_a_kept_answer_needs_no_budget(
        self, tmp_path
    ):
        store = _quiet_store(tmp_path / "store")
        app = ServeApp(store)
        executions = _count_executions(app, "fqdn-server-counts")
        expired = {"X-Request-Deadline": "1e-9"}
        for _ in range(2):
            status, body = _get(app, "fqdn-server-counts", {}, expired)
            assert status == 504, body
        assert len(executions) == 2
        assert app.singleflight.retained() == (0, 0)
        assert app.m_deadline_exceeded.value(
            route="/query/fqdn-server-counts"
        ) == 2
        # Under a sane budget the query executes and is kept...
        status, body = _get(app, "fqdn-server-counts", {})
        assert status == 200 and len(executions) == 3
        # ...and a kept answer costs no scan, so no budget can run out
        # on it: the deadline header is still parsed (a bad one is a
        # 400), but there is nothing left to cancel.
        status, again = _get(app, "fqdn-server-counts", {}, expired)
        assert (status, again is body) == (200, True)
        status, _body = _get(app, "fqdn-server-counts", {},
                             {"X-Request-Deadline": "never"})
        assert status == 400
        assert len(executions) == 3
        store.close()

    def test_a_leader_that_raises_leaves_nothing(self, tmp_path):
        store = _quiet_store(tmp_path / "store")
        app = ServeApp(store)
        original = app.query_routes["len"]
        calls = []

        def flaky(snap, params):
            calls.append(1)
            if len(calls) <= 2:
                raise RuntimeError("kernel blew up")
            return original(snap, params)

        app.query_routes["len"] = flaky
        for _ in range(2):
            status, body = _get(app, "len", {})
            assert status == 500
            assert "kernel blew up" in json.loads(body)["error"]
            assert app.singleflight.retained() == (0, 0)
        assert _get(app, "len", {}) == (200, b'{"rows": 40}')
        assert len(calls) == 3
        store.close()

    def test_a_shed_request_never_reaches_the_table(self, tmp_path):
        store = _quiet_store(tmp_path / "store")
        app = ServeApp(store, admission=AdmissionController({
            "query": RouteClassLimits(1, 0, 0.0),
            "ingest": RouteClassLimits(1, 0, 0.0),
        }))
        status, kept = _get(app, "len", {})
        assert status == 200
        assert app.singleflight.retained()[0] == 1
        entered, release = threading.Event(), threading.Event()
        original = app.query_routes["fqdns"]

        def slow(snap, params):
            entered.set()
            assert release.wait(timeout=30)
            return original(snap, params)

        app.query_routes["fqdns"] = slow
        holder = threading.Thread(
            target=lambda: _get(app, "fqdns", {})
        )
        holder.start()
        try:
            assert entered.wait(timeout=30)
            # The answer is sitting in the table, and the caller is
            # still refused: admission runs before the lookup.
            status, body = _get(app, "len", {})
            assert status == 503
            assert json.loads(body)["error"] == "overloaded"
            assert app.m_reused.samples() == []
        finally:
            release.set()
            holder.join(timeout=30)
        status, body = _get(app, "len", {})
        assert (status, body is kept) == (200, True)
        store.close()


# ---------------------------------------------------------------------------
# (e) the byte budget
# ---------------------------------------------------------------------------


class TestByteBudget:
    #: ``rows-for-fqdn`` of a label nobody has: a distinct key per
    #: ``i``, one body for all of them, so every answer charges the same.
    EMPTY = b'{"rows": []}'
    COST = len(EMPTY) + _ENTRY_BYTES

    def _ask(self, app, i):
        status, body = _get(app, "rows-for-fqdn",
                            {"fqdn": [f"absent{i}.example.org"]})
        assert (status, body) == (200, self.EMPTY)
        return body

    @staticmethod
    def _index(fqdn: str) -> int:
        """``i`` of the name :meth:`_ask` asks for."""
        return int(fqdn.removeprefix("absent").split(".")[0])

    def _priced(self, app, monkeypatch):
        """Charge each execution of ``rows-for-fqdn`` the CPU seconds
        ``prices[i]`` says, through the clock single-flight reads, and
        log which ``i`` executed."""
        clock, prices, executed = [0.0], {}, []
        monkeypatch.setattr(singleflight.time, "thread_time",
                            lambda: clock[0])
        original = app.query_routes["rows-for-fqdn"]

        def priced(snap, params):
            i = self._index(params["fqdn"][0])
            executed.append(i)
            clock[0] += prices[i]
            return original(snap, params)

        app.query_routes["rows-for-fqdn"] = priced
        return prices, executed

    def _kept(self, app):
        """The ``i`` of every kept answer; a key is ``(route,
        (("fqdn", (name,)),))``."""
        return sorted(
            self._index(params[0][1][0])
            for _route, params in app.singleflight._kept
        )

    def test_greedy_dual_keeps_what_costs_most_to_recompute(
        self, tmp_path, monkeypatch
    ):
        store = _quiet_store(tmp_path / "store")
        app = ServeApp(store)
        budget = app.singleflight.retain_bytes = 4 * self.COST + 7
        prices, executed = self._priced(app, monkeypatch)
        prices.update({0: 8.0, 1: 1.0, 2: 6.0, 3: 2.5, 4: 3.0, 5: 4.0,
                       6: 0.25, 8: 6.0, 9: 6.0, 10: 6.0, 11: 6.0})
        bodies = {i: self._ask(app, i) for i in range(4)}
        assert executed == [0, 1, 2, 3]
        assert app.singleflight.retained() == (4, 4 * self.COST)
        metrics = app.render_metrics()
        assert "serve_retained_answers 4" in metrics
        assert f"serve_retained_bytes {4 * self.COST}" in metrics
        # Every answer charges the same, so priority follows price: a
        # fifth pushes out the cheapest (1), whatever its age, and
        # raises the floor to its priority.
        self._ask(app, 4)
        assert self._kept(app) == [0, 2, 3, 4]
        for i in (0, 2):
            assert self._ask(app, i) is bodies[i]
        # A reuse renews an answer at the raised floor: 3 (2.5 over a
        # floor of 1) now outranks 4 (3 over a floor of 0)...
        self._ask(app, 3)
        assert executed == [0, 1, 2, 3, 4]
        # ...so the next keep pushes out 4, which never was asked again.
        self._ask(app, 5)
        assert self._kept(app) == [0, 2, 3, 5]
        # A one-off cheaper than everything kept is served, kept, and
        # the first to go: it displaces nothing.
        self._ask(app, 6)
        assert self._kept(app) == [0, 2, 3, 5]
        # The floor only rises, so an answer nobody asks for again
        # ages out however costly it was: 0, the dearest, goes last.
        for i, gone in ((8, 3), (9, 5), (10, 2), (11, 0)):
            self._ask(app, i)
            assert gone not in self._kept(app), i
        assert self._kept(app) == [8, 9, 10, 11]
        assert app.singleflight.retained() == (4, 4 * self.COST)
        assert app.singleflight.retained()[1] <= budget
        assert app.m_evicted.value(reason="budget") == 7
        assert app.m_evicted.value(reason="version") == 0
        store.close()

    def test_a_new_version_drops_every_older_answer(self, tmp_path):
        store = _quiet_store(tmp_path / "store")
        app = ServeApp(store)
        for i in range(3):
            self._ask(app, i)
        assert app.singleflight.retained() == (3, 3 * self.COST)
        store.add(_flow(40))
        # Nothing kept at the older version is served...
        executions = _count_executions(app, "rows-for-fqdn")
        self._ask(app, 0)
        assert len(executions) == 1
        # ...and the first keep at the new one drops all of it.
        assert app.singleflight.retained() == (1, self.COST)
        metrics = app.render_metrics()
        assert 'serve_retained_evicted_total{reason="version"} 3' in metrics
        assert 'serve_retained_evicted_total{reason="budget"} 0' in metrics
        store.close()

    def test_a_body_over_the_budget_is_served_and_not_kept(
        self, tmp_path
    ):
        store = _quiet_store(tmp_path / "store")
        app, fresh = ServeApp(store), ServeApp(store)
        fresh.singleflight.retain_bytes = 0
        status, body = _get(fresh, "fqdn-server-counts", {})
        app.singleflight.retain_bytes = len(body) + _ENTRY_BYTES - 1
        executions = _count_executions(app, "fqdn-server-counts")
        small = _get(app, "len", {})[1]
        for _ in range(2):
            assert _get(app, "fqdn-server-counts", {}) == (200, body)
        assert len(executions) == 2
        # The small answer beside it was not evicted to make room.
        assert _get(app, "len", {})[1] is small
        assert app.singleflight.retained() == (
            1, len(small) + _ENTRY_BYTES
        )
        assert app.m_evicted.value(reason="budget") == 0
        store.close()

    def test_the_charge_per_answer_is_what_the_answer_holds(
        self, tmp_path
    ):
        """``serve_retained_bytes`` against ``tracemalloc``'s growth
        over ~2k distinct tiny answers, each asked the way the
        transport asks it (a fresh path and parameter per request)."""
        store = _quiet_store(tmp_path / "store")
        app = ServeApp(store)
        for i in range(50):     # the store's and the app's lazy state
            self._ask(app, -1 - i)
        n = 2000
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            _count, held = app.singleflight.retained()
            for i in range(n):
                app.handle("GET", "/query/" + "rows-for-fqdn",
                           {"fqdn": [f"absent{i}.example.org"]})
            gc.collect()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        count, charged = app.singleflight.retained()
        assert count == n + 50
        grown = sum(
            stat.size_diff for stat in after.compare_to(before, "filename")
        )
        assert 0.75 <= grown / (charged - held) <= 1.25, (
            grown / n, (charged - held) / n,
        )
        store.close()

    def test_budget_zero_never_reads_the_version(self, tmp_path):
        store = _quiet_store(tmp_path / "store")
        app = ServeApp(store)
        app.singleflight.retain_bytes = 0
        reads = []
        store.version = lambda: reads.append(1)
        executions = _count_executions(app, "len")
        for _ in range(3):
            assert _get(app, "len", {})[0] == 200
        assert (len(executions), reads) == (3, [])
        store.close()


# ---------------------------------------------------------------------------
# (f) sharded roots
# ---------------------------------------------------------------------------


class TestShardedRoots:
    def _coordinator(self, tmp_path, backend):
        coord = ShardCoordinator(tmp_path / "sharded", shards=2,
                                 spill_rows=9, backend=backend)
        coord.add_all(_flow(i) for i in range(40))
        return coord

    def test_process_shards_cannot_say_so_every_request_executes(
        self, tmp_path
    ):
        coord = self._coordinator(tmp_path, "process")
        try:
            assert coord.version() is None
            app = ServeApp(coord)
            executions = _count_executions(app, "fqdn-server-counts")
            bodies = {
                _get(app, "fqdn-server-counts", {}) for _ in range(4)
            }
            assert len(bodies) == 1 and len(executions) == 4
            assert app.singleflight.retained() == (0, 0)
            assert app.m_reused.samples() == []
        finally:
            coord.close()

    def test_inprocess_shards_answer_with_every_shard_s_version(
        self, tmp_path
    ):
        coord = self._coordinator(tmp_path, "inprocess")
        try:
            app, fresh = ServeApp(coord), ServeApp(coord)
            fresh.singleflight.retain_bytes = 0
            executions = _count_executions(app, "fqdn-server-counts")
            first = _get(app, "fqdn-server-counts", {})
            assert _get(app, "fqdn-server-counts", {})[1] is first[1]
            assert len(executions) == 1
            # One row into one shard moves one component of the tuple.
            before = coord.version()
            coord.add(_flow(41))
            after = coord.version()
            assert sum(a != b for a, b in zip(before, after)) == 1
            moved = _get(app, "fqdn-server-counts", {})
            assert len(executions) == 2
            assert moved == _get(fresh, "fqdn-server-counts", {})
            assert moved != first
        finally:
            coord.close()


# ---------------------------------------------------------------------------
# the table itself: invariants, and under contention
# ---------------------------------------------------------------------------


class TestTableInvariants:
    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(0, 6 * (_ENTRY_BYTES + 300)),
        st.lists(st.tuples(
            st.integers(0, 11),             # key
            st.integers(0, 2 * _ENTRY_BYTES),  # body length
            st.integers(0, 50),             # CPU microseconds
            st.booleans(),                  # the version moves first
        ), max_size=120),
    )
    def test_inside_the_budget_and_never_at_another_version(
        self, budget, calls
    ):
        flight = SingleFlight()
        flight.retain_bytes = budget
        clock, version = [0.0], [0]
        with mock.patch.object(singleflight.time, "thread_time",
                               lambda: clock[0]):
            for key, length, micros, moves in calls:
                version[0] += moves
                at = version[0]

                def compute():
                    clock[0] += micros * 1e-6
                    return b"%d@%d." % (key, at) + b"." * length

                value, _how = flight.do(key, compute,
                                        version=lambda: version[0])
                assert value.startswith(b"%d@%d." % (key, version[0]))
                count, held = flight.retained()
                assert held <= budget
                assert held == sum(
                    len(kept[0]) + _ENTRY_BYTES
                    for kept in flight._kept.values()
                )
                assert len(flight._heap) <= (
                    2 * count + singleflight._HEAP_SLACK
                )

    def test_the_heap_stays_bounded_under_reuse(self):
        flight = SingleFlight()
        for key in range(20):
            flight.do(key, lambda: b"x" * 100, version=lambda: 1)
        for step in range(10_000):
            _value, how = flight.do(step * 7 % 20, lambda: b"",
                                    version=lambda: 1)
            assert how == REUSED
            assert len(flight._heap) <= 2 * 20 + singleflight._HEAP_SLACK
        assert flight.retained() == (20, 20 * (100 + _ENTRY_BYTES))


# ---------------------------------------------------------------------------
# the table under contention
# ---------------------------------------------------------------------------


def test_kept_answers_stay_exact_and_accounted_under_contention():
    """More workers than cores, a 10 µs switch interval, a version
    that keeps moving: a reused value must be the one computed *at* a
    version its caller could have read, and the byte accounting must
    not lose an update."""
    flight = SingleFlight()
    flight.retain_bytes = 6 * (_ENTRY_BYTES + 8)
    clock = [0]
    stop = threading.Event()
    failures = []
    reused = [0]

    def version():
        return clock[0]

    def compute():
        seen = clock[0]
        time.sleep(0)       # invite a switch between read and return
        return b"%08d" % seen

    def worker(rank):
        i = 0
        while not stop.is_set():
            i += 1
            before = clock[0]
            value, how = flight.do((rank + i) % 9, compute,
                                   version=version)
            after = clock[0]
            if how == REUSED:
                reused[0] += 1
            if how is not True and not before <= int(value) <= after:
                failures.append((before, value, after, how))

    def mover():
        while not stop.is_set():
            clock[0] += 1
            time.sleep(0.002)

    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=worker, args=(rank,))
               for rank in range(8)] + [threading.Thread(target=mover)]
    try:
        for thread in threads:
            thread.start()
        time.sleep(1.0)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        sys.setswitchinterval(saved)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert reused[0] > 0
    count, held = flight.retained()
    assert held == sum(
        len(value) + _ENTRY_BYTES for value, *_ in flight._kept.values()
    ) == count * (_ENTRY_BYTES + 8)
    assert held <= flight.retain_bytes
    assert flight.in_flight() == 0
