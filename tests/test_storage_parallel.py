"""Parallel per-segment analytics must be bit-identical to serial.

``FlowStore(parallel=N)`` fans the surviving per-segment kernels out
over a thread pool and merges the partials in segment order, so every
grouped aggregation, record query and row-index view has to come back
**bit-identical** — same values, same ordering — to the serial pass
(N=1) and to the in-memory columnar store, for N=1, 2 and 4, including
stores holding empty segments and a live unsealed tail, with pruning
skipping segments on both sides.

A segment's indexes are built by whichever reader asks first: threads
released together onto fresh segments must each get the serial answer
while every index is extended exactly once, and a reader beside a
committing writer never sees the tail's index short or doubled.
"""

import sys
import threading
from array import array
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics.database import FlowDatabase
from repro.analytics.storage import (
    FlowStore,
    SegmentReader,
)
from repro.net.flow import FiveTuple, FlowRecord, Protocol, TransportProto
from repro.sniffer.eventcodec import encode_events

PARALLELISMS = (1, 2, 4)


def _flow(i: int) -> FlowRecord:
    fqdn = (
        None, "www.Example.com", "cdn.example.net", "a.b.tracker.org",
        "www.example.com", "",
    )[i % 6]
    return FlowRecord(
        fid=FiveTuple(5 + i % 7, 40 + i % 9, 1024 + i,
                      (80, 443)[i % 2], TransportProto.TCP),
        start=float(i * 3 % 97),
        end=float(i * 3 % 97) + 2.0,
        protocol=(Protocol.HTTP, Protocol.TLS)[i % 2],
        bytes_up=10 + i,
        bytes_down=1000 + i,
        packets=4,
        fqdn=fqdn,
        cert_name="cert.example.com" if i % 3 == 0 else None,
        true_fqdn="true.example.com" if i % 5 == 0 else None,
    )


def _inject_empty_segment(directory) -> None:
    """Commit a zero-row segment mid-manifest the way a pathological
    writer could: it must be inert for every query at every N."""
    store = FlowStore(directory)
    name = store._writer.write(FlowDatabase())
    reader = SegmentReader.open(store.directory / name)
    reader.bind(store._interns)
    store._segments.append(reader)
    store._write_manifest()


def _store_with_everything(tmp_path, n_flows=60, live_tail=True):
    """Sealed segments + one empty segment + (optionally) a live tail."""
    directory = tmp_path / "store"
    store = FlowStore(directory, spill_rows=9)
    flows = [_flow(i) for i in range(n_flows)]
    sealed = flows if not live_tail else flows[:n_flows - 5]
    store.add_all(sealed)
    store.close()
    _inject_empty_segment(directory)
    return directory, flows


def _open(directory, flows, n, live_tail, **kwargs):
    # wal=False: these tests open several live instances of the same
    # directory side by side, each adding its own copy of the tail —
    # with the journal on, each later open would (correctly) replay the
    # earlier instance's durable tail and double the rows.  Parallelism
    # identity is about the query path, not durability.
    store = FlowStore(directory, parallel=n, wal=False, **kwargs)
    if live_tail:
        store.add_all(flows[len(flows) - 5:])  # no flush: stays live
    return store


def _assert_bit_identical(store, serial, mem):
    """Every grouped aggregation in the query surface, plus record and
    row-index views — compared with plain ``==`` (values *and*
    ordering)."""
    assert store.fqdn_server_counts() == serial.fqdn_server_counts()
    assert store.fqdn_server_counts() == sorted(mem.fqdn_server_counts())
    assert store.fqdn_client_counts() == serial.fqdn_client_counts()
    assert store.fqdn_flow_byte_totals() == serial.fqdn_flow_byte_totals()
    assert store.server_flow_counts() == serial.server_flow_counts()
    assert store.fqdn_first_seen() == serial.fqdn_first_seen()
    assert store.fqdn_bin_pairs(10.0) == serial.fqdn_bin_pairs(10.0)
    assert store.server_fqdn_bin_triples(10.0) == (
        serial.server_fqdn_bin_triples(10.0)
    )
    assert store.unique_servers_per_bin("example.com", 10.0) == (
        serial.unique_servers_per_bin("example.com", 10.0)
    )
    assert store.server_bins_for_fqdn("www.example.com", 10.0) == (
        serial.server_bins_for_fqdn("www.example.com", 10.0)
    )
    rows = store.rows_for_servers(serial.servers())
    serial_rows = serial.rows_for_servers(serial.servers())
    assert list(rows) == list(serial_rows)
    assert store.sld_flow_stats(rows) == serial.sld_flow_stats(
        serial_rows
    )
    assert store.fqdns_for_rows(rows) == serial.fqdns_for_rows(
        serial_rows
    )
    window_rows = store.rows_in_window(10.0, 60.0)
    assert list(window_rows) == list(serial.rows_in_window(10.0, 60.0))
    assert store.fqdn_server_counts(window_rows) == (
        serial.fqdn_server_counts(window_rows)
    )
    assert store.query_by_fqdn("www.example.com") == (
        serial.query_by_fqdn("www.example.com")
    )
    assert store.query_by_domain("example.net") == (
        serial.query_by_domain("example.net")
    )
    assert store.query_by_servers(serial.servers()[:5]) == (
        serial.query_by_servers(serial.servers()[:5])
    )
    assert store.query_by_port(443) == serial.query_by_port(443)
    assert store.query_in_window(10.0, 60.0) == (
        serial.query_in_window(10.0, 60.0)
    )
    assert list(store.tagged_rows()) == list(serial.tagged_rows())
    assert store.fqdns() == serial.fqdns()
    assert store.slds() == serial.slds()
    assert store.tagged_count == serial.tagged_count
    assert store.count_by_protocol() == serial.count_by_protocol()
    assert store.time_span() == serial.time_span()


class TestParallelDifferential:
    @pytest.mark.parametrize("live_tail", [False, True])
    @pytest.mark.parametrize("n", PARALLELISMS)
    def test_parallel_equals_serial_full_surface(
        self, tmp_path, n, live_tail
    ):
        directory, flows = _store_with_everything(
            tmp_path, live_tail=live_tail
        )
        serial = _open(directory, flows, 1, live_tail)
        store = _open(directory, flows, n, live_tail)
        mem = FlowDatabase.from_flows(flows)
        assert len(store.segments) >= 5  # incl. the empty segment
        _assert_bit_identical(store, serial, mem)
        # The window and fqdn cases ran with pruning skipping segments.
        assert store.stats()["scan_stats"]["segments_pruned"] > 0
        store.close()
        serial.close()

    def test_parallel_validation(self, tmp_path):
        with pytest.raises(ValueError):
            FlowStore(tmp_path / "s", parallel=0)
        assert FlowStore(tmp_path / "db", parallel=3).parallel == 3

    def test_pool_is_lazy_and_survives_close(self, tmp_path):
        directory, flows = _store_with_everything(
            tmp_path, live_tail=False
        )
        store = FlowStore(directory, parallel=2)
        assert store._pool is None
        first = store.fqdn_server_counts()
        assert store._pool is not None
        store.close()
        assert store._pool is None
        assert store.fqdn_server_counts() == first  # usable after close


class TestParallelProperty:
    @settings(deadline=None, max_examples=20)
    @given(
        st.integers(min_value=0, max_value=80),
        st.integers(min_value=1, max_value=11),
        st.sampled_from(PARALLELISMS),
    )
    def test_random_shapes(self, tmp_path_factory, n_flows, spill_rows, n):
        """Random store shapes (segment count, tail size) stay
        bit-identical between serial and parallel execution."""
        tmp_path = tmp_path_factory.mktemp("par")
        flows = [_flow(i) for i in range(n_flows)]
        store = FlowStore(tmp_path / "store", spill_rows=spill_rows)
        store.add_all(flows)  # tail may or may not be live here
        serial = FlowStore(tmp_path / "store")
        serial._tail.add_all(flows[len(serial):])
        parallel_store = FlowStore(tmp_path / "store", parallel=n)
        parallel_store._tail.add_all(flows[len(parallel_store):])
        assert parallel_store.fqdn_server_counts() == (
            serial.fqdn_server_counts()
        )
        assert parallel_store.fqdn_flow_byte_totals() == (
            serial.fqdn_flow_byte_totals()
        )
        assert parallel_store.server_flow_counts() == (
            serial.server_flow_counts()
        )
        assert list(parallel_store.tagged_rows()) == list(
            serial.tagged_rows()
        )
        rows = parallel_store.rows_in_window(5.0, 50.0)
        assert list(rows) == list(serial.rows_in_window(5.0, 50.0))
        assert parallel_store.sld_flow_stats(rows) == (
            serial.sld_flow_stats(array("I", rows))
        )


@contextmanager
def _eager_switching():
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(saved)


def _race(ask, threads: int = 8) -> list:
    """``ask()`` on ``threads`` threads released together by a barrier
    (more threads than cores, eager switching); their answers."""
    barrier = threading.Barrier(threads)
    answers: list = []

    def run():
        barrier.wait(30)
        answers.append(ask())

    workers = [threading.Thread(target=run) for _ in range(threads)]
    with _eager_switching():
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(60)
    assert not any(worker.is_alive() for worker in workers)
    assert len(answers) == threads
    return answers


def _index_queries(surface, servers):
    return (
        list(surface.rows_for_servers(servers)),
        surface.servers_for_domain("example.com"),
        list(surface.rows_for_port(443)),
    )


@pytest.fixture
def extensions(monkeypatch):
    """Every ``FlowDatabase._extend_index`` call, as ``(database id,
    index name)`` counts."""
    calls: Counter = Counter()
    extend = FlowDatabase._extend_index

    def counting(self, which, base, n):
        calls[id(self), which] += 1
        return extend(self, which, base, n)

    monkeypatch.setattr(FlowDatabase, "_extend_index", counting)
    return calls


class TestIndexesOnFirstUse:
    def test_threads_on_one_fresh_segment(self, tmp_path, extensions):
        flows = [_flow(i) for i in range(600)]
        store = FlowStore(tmp_path / "store", spill_rows=10_000)
        store.add_all(flows)
        store.close()                       # one sealed segment
        mem = FlowDatabase.from_flows(flows)
        servers = mem.servers()[:5]
        expected = _index_queries(mem, servers)
        extensions.clear()
        (reader,) = FlowStore(tmp_path / "store").segments
        database = reader.database()        # fresh: no index built yet
        assert not extensions
        answers = _race(lambda: _index_queries(database, servers))
        assert all(answer == expected for answer in answers)
        assert extensions == {
            (id(database), which): 1 for which in ("server", "sld", "port")
        }

    def test_threads_on_a_parallel_store(self, tmp_path, extensions):
        directory, flows = _store_with_everything(tmp_path, live_tail=False)
        serial = FlowStore(directory)
        servers = serial.servers()[:5]
        expected = _index_queries(serial, servers)
        extensions.clear()
        store = FlowStore(directory, parallel=4)
        # Resident but unindexed: the race below is over the indexes,
        # not over who materializes a segment.
        databases = {
            id(reader.database()): reader.n_rows for reader in store.segments
        }
        assert not extensions
        answers = _race(lambda: _index_queries(store, servers))
        assert all(answer == expected for answer in answers)
        # Exactly once per index per segment that holds a row (the
        # by-port scan is never pruned, so it reaches every one).
        assert set(extensions.values()) == {1}
        assert {db for db, which in extensions if which == "port"} == {
            db for db, rows in databases.items() if rows
        }
        assert {db for db, _which in extensions} <= set(databases)
        store.close()
        serial.close()

    def test_reader_beside_a_committing_writer(self, tmp_path):
        """Every flow matches every probe, so whatever batch-aligned
        prefix a read lands on, the answer is ``range(k * batch)``:
        never short within a batch, never a row twice."""
        batch, batches = 16, 40
        payloads = [
            encode_events([
                FlowRecord(
                    fid=FiveTuple(5, 40, 1024 + i, 443, TransportProto.TCP),
                    start=float(i), end=float(i) + 1.0,
                    protocol=Protocol.TLS, bytes_up=1, bytes_down=1,
                    packets=1, fqdn=f"h{i % 3}.example.com",
                )
                for i in range(at * batch, (at + 1) * batch)
            ])
            for at in range(batches)
        ]
        store = FlowStore(tmp_path / "store", spill_rows=10**6)
        done = threading.Event()
        seen: list = []
        failures: list = []

        def read():
            asks = (
                lambda: store.rows_for_port(443),
                lambda: store.rows_for_domain("example.com"),
                lambda: store.rows_for_servers([40]),
            )
            turn = 0
            while not failures:
                finished = done.is_set()
                rows = list(asks[turn % 3]())
                turn += 1
                if rows != list(range(len(rows))) or len(rows) % batch:
                    failures.append(rows)
                seen.append(len(rows))
                if finished:
                    return

        reader = threading.Thread(target=read)
        with _eager_switching():
            reader.start()
            for payload in payloads:
                assert store.ingest_batch(payload) == batch
            done.set()
            reader.join(60)
        assert not reader.is_alive() and not failures
        assert seen == sorted(seen) and seen[-1] == batch * batches
        store.close()
