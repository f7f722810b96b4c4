"""Crash-consistency and graceful-degradation suite for FlowStore.

The durability contract under test (ISSUE 6): for a spill+compact+WAL
workload, a simulated crash at **every** injected write/fsync/rename/
truncate/unlink point, followed by a clean reopen, yields a store
whose full query surface is bit-identical to an uncrashed in-memory
store holding the acknowledged prefix of the submitted flows — no
acknowledged row lost, no phantom row, no partial batch visible.
`tests/faultfs.py` provides the injected I/O layer; the crash model is
documented there.

The degradation half: a corrupt/missing segment quarantines (the
store opens, serves every surviving row exactly, and reports itself
degraded) instead of failing the open; torn WAL records and stale
journal epochs are dropped without touching acknowledged data;
transient OSErrors retry with bounded backoff; directory-fsync
failures are fatal unless the platform genuinely cannot do it.
"""

from __future__ import annotations

import errno
import os
import shutil

import pytest

from faultfs import CrashError, FaultFS, inject
from repro.analytics import storage
from repro.analytics.database import FlowDatabase
from repro.analytics.flowstore_cli import main as flowstore_main
from repro.analytics.storage import (
    FlowStore,
    StorageError,
    TailJournal,
    WAL_NAME,
    _encode_flow_batch,
)
from repro.net.flow import FiveTuple, FlowRecord, Protocol, TransportProto


@pytest.fixture
def no_sleep(monkeypatch):
    """Patch the retry backoff delay out; returns the recorded delays."""
    delays: list[float] = []
    monkeypatch.setattr(storage, "_sleep", delays.append)
    return delays


def _flow(i: int) -> FlowRecord:
    fqdn = (
        None, "www.Example.com", "cdn.example.net", "a.b.tracker.org",
        "www.example.com",
    )[i % 5]
    return FlowRecord(
        fid=FiveTuple(5 + i % 7, 40 + i % 9, 1024 + i,
                      (80, 443)[i % 2], TransportProto.TCP),
        start=float(i * 3 % 89),
        end=float(i * 3 % 89) + 2.0,
        protocol=(Protocol.HTTP, Protocol.TLS)[i % 2],
        bytes_up=10 + i,
        bytes_down=1000 + i,
        packets=4,
        fqdn=fqdn,
        cert_name="cert.example.com" if i % 3 == 0 else None,
        true_fqdn="true.example.com" if i % 5 == 0 else None,
    )


def _assert_equivalent(store, flows) -> None:
    """The recovered store's full query surface vs an uncrashed
    in-memory database holding exactly ``flows``."""
    mem = FlowDatabase.from_flows(flows)
    assert len(store) == len(mem)
    assert list(store) == list(mem)
    assert store.fqdns() == mem.fqdns()
    assert store.slds() == mem.slds()
    assert store.tagged_count == mem.tagged_count
    assert store.count_by_protocol() == mem.count_by_protocol()
    assert store.time_span() == mem.time_span()
    assert store.fqdn_server_counts() == sorted(mem.fqdn_server_counts())
    assert store.query_by_domain("example.com") == (
        mem.query_by_domain("example.com")
    )
    assert store.query_by_port(443) == mem.query_by_port(443)
    assert store.query_in_window(10.0, 60.0) == (
        mem.query_in_window(10.0, 60.0)
    )


# ---------------------------------------------------------------------------
# the exhaustive crash sweep
# ---------------------------------------------------------------------------

#: The spill+compact+WAL workload, as (kind, flow-count) units.  Sized
#: so every storage mechanism fires at least once: single adds, raw
#: batch ingest, chunked add_all (spill_rows=8 makes its 12 flows span
#: two journal chunks), explicit flush, compaction of multiple sealed
#: segments, and a final unsealed tail that only the journal protects.
_SPILL_ROWS = 8
_UNITS = (
    ("ingest", 6),
    ("add", 1),
    ("ingest", 5),       # crosses spill_rows -> first spill
    ("add_all", 12),     # two 8-row journal chunks, spills again
    ("flush", 0),
    ("ingest", 7),
    ("compact", 0),      # seals the 7, then merges every segment
    ("add_all", 5),
    ("add", 1),
    ("close", 0),        # seals the final tail
)
_ALL_FLOWS = [_flow(i) for i in range(sum(n for _kind, n in _UNITS))]


def _unit_flows() -> list[list[FlowRecord]]:
    out = []
    cursor = 0
    for _kind, count in _UNITS:
        out.append(_ALL_FLOWS[cursor:cursor + count])
        cursor += count
    return out


def _allowed_partials(kind: str, count: int) -> tuple[int, ...]:
    """Row counts a crash *inside* one unit may leave visible.

    add/ingest_batch are atomic (all or nothing); add_all applies one
    journal chunk at a time, so any chunk boundary is a legal crash
    state; flush/compact/close add no rows.
    """
    if kind == "add_all":
        boundaries = list(range(0, count, _SPILL_ROWS)) + [count]
        return tuple(sorted(set(boundaries)))
    return (0, count)


def _run_workload(directory, progress: list[int]) -> None:
    """Run the workload; after each acknowledged unit, record the
    cumulative acknowledged row count in ``progress``."""
    units = _unit_flows()
    store = FlowStore(directory, spill_rows=_SPILL_ROWS)
    acked = 0
    for (kind, _count), flows in zip(_UNITS, units):
        if kind == "ingest":
            store.ingest_batch(_encode_flow_batch(flows))
        elif kind == "add":
            store.add(flows[0])
        elif kind == "add_all":
            store.add_all(flows)
        elif kind == "flush":
            store.flush()
        elif kind == "compact":
            store.compact()
        elif kind == "close":
            store.close()
        acked += len(flows)
        progress.append(acked)


def _preserve_on_failure(directory, label: str) -> None:
    """Copy the crashed store (WAL and quarantine included) for the CI
    artifact upload when REPRO_CRASH_ARTIFACTS is set."""
    root = os.environ.get("REPRO_CRASH_ARTIFACTS")
    if not root or not os.path.isdir(str(directory)):
        return
    target = os.path.join(root, label)
    os.makedirs(root, exist_ok=True)
    shutil.copytree(directory, target, dirs_exist_ok=True)


def _verify_crash_state(directory, acked_rows: int, in_flight) -> None:
    """Reopen without faults; assert no acknowledged row was lost and
    no partial unit state is visible."""
    store = FlowStore(directory)
    try:
        health = store.health()
        # A pure crash never corrupts committed data: nothing may be
        # quarantined and every journal record must replay.
        assert health["quarantined_segments"] == []
        assert health["wal"]["skipped_records"] == 0
        kind, count = in_flight if in_flight is not None else ("", 0)
        allowed = {
            acked_rows + partial
            for partial in _allowed_partials(kind, count)
        }
        rows = len(store)
        assert rows in allowed, (
            f"recovered {rows} rows; acknowledged {acked_rows}, "
            f"allowed {sorted(allowed)} (in-flight {kind})"
        )
        _assert_equivalent(store, _ALL_FLOWS[:rows])
    finally:
        store.close()


def _sweep(tmp_path, torn: bool) -> None:
    progress: list[int] = []
    dry = FaultFS(real_fsync=False)
    with inject(dry):
        _run_workload(tmp_path / "dry", progress)
    total = dry.ops
    assert total > 60, "workload exercises too few injection points"
    assert progress[-1] == len(_ALL_FLOWS)
    _verify_crash_state(tmp_path / "dry", len(_ALL_FLOWS), None)

    for point in range(total):
        directory = tmp_path / f"crash-{point}"
        progress = []
        fs = FaultFS(crash_at=point, torn=torn, real_fsync=False)
        crashed = False
        with inject(fs):
            try:
                _run_workload(directory, progress)
            except CrashError:
                crashed = True
        assert crashed, f"op {point} of {total} did not fire"
        acked_units = len(progress)
        acked_rows = progress[-1] if progress else 0
        in_flight = (
            _UNITS[acked_units] if acked_units < len(_UNITS) else None
        )
        try:
            _verify_crash_state(directory, acked_rows, in_flight)
        except BaseException:
            _preserve_on_failure(
                directory, f"crash-{point}-torn{int(torn)}"
            )
            raise
        shutil.rmtree(directory)


class TestCrashSweep:
    """A simulated crash at every single injection point."""

    @pytest.mark.parametrize("torn", (False, True),
                             ids=("clean-cut", "torn-write"))
    def test_every_injection_point(self, tmp_path, torn):
        _sweep(tmp_path, torn)


# ---------------------------------------------------------------------------
# directed WAL recovery tests
# ---------------------------------------------------------------------------


class TestTailJournal:
    def _unsealed_store(self, tmp_path, batches=(4, 3, 5)):
        """A store whose rows live only in the journal (no flush)."""
        directory = tmp_path / "store"
        store = FlowStore(directory, spill_rows=10_000)
        cursor = 0
        counts = []
        for count in batches:
            store.ingest_batch(_encode_flow_batch(
                _ALL_FLOWS[cursor:cursor + count]
            ))
            cursor += count
            counts.append(cursor)
        store._wal.close()  # release the fd; the tail stays unsealed
        return directory, counts

    def test_unclosed_store_recovers_every_acknowledged_row(
        self, tmp_path
    ):
        directory, counts = self._unsealed_store(tmp_path)
        store = FlowStore(directory)
        health = store.health()
        assert health["wal"]["recovered_rows"] == counts[-1]
        assert health["wal"]["recovered_batches"] == len(counts)
        assert health["status"] == "ok"
        _assert_equivalent(store, _ALL_FLOWS[:counts[-1]])
        store.close()
        # After a clean close the rows are sealed; nothing replays.
        reopened = FlowStore(directory)
        assert reopened.health()["wal"]["recovered_rows"] == 0
        _assert_equivalent(reopened, _ALL_FLOWS[:counts[-1]])
        reopened.close()

    def test_every_truncation_point_recovers_a_batch_prefix(
        self, tmp_path
    ):
        """Cut the journal at every byte offset: recovery must yield
        exactly the acknowledged batches whose frames survived whole —
        bit-identical to an uncrashed store of that prefix."""
        directory, counts = self._unsealed_store(tmp_path)
        wal_path = directory / WAL_NAME
        whole = wal_path.read_bytes()
        header = storage._WAL_HEADER.size
        allowed = {header: 0}
        # Reconstruct each frame's end offset -> cumulative row count.
        pos = header
        for rows in counts:
            length = storage._WAL_FRAME.unpack_from(whole, pos)[0]
            pos += storage._WAL_FRAME.size + length
            allowed[pos] = rows
        assert pos == len(whole)
        boundaries = sorted(allowed)
        for cut in range(header, len(whole)):
            wal_path.write_bytes(whole[:cut])
            store = FlowStore(directory)
            # The rows of every frame wholly inside the cut survive.
            expected = allowed[
                max(b for b in boundaries if b <= cut)
            ]
            assert len(store) == expected, f"cut at byte {cut}"
            torn = store.health()["wal"]["torn_bytes_dropped"]
            assert torn == (0 if cut in allowed else
                            cut - max(b for b in boundaries if b <= cut))
            store._wal.close()
        # Differential check on one mid-frame cut (cheap spot check of
        # content, not just counts).
        wal_path.write_bytes(whole[:boundaries[2] + 3])
        store = FlowStore(directory)
        _assert_equivalent(store, _ALL_FLOWS[:allowed[boundaries[2]]])
        store._wal.close()

    def test_journaling_resumes_after_torn_truncation(self, tmp_path):
        directory, counts = self._unsealed_store(tmp_path)
        wal_path = directory / WAL_NAME
        wal_path.write_bytes(wal_path.read_bytes()[:-3])
        store = FlowStore(directory)
        assert len(store) == counts[-2]
        store.add(_flow(500))
        store._wal.close()
        reopened = FlowStore(directory)
        assert len(reopened) == counts[-2] + 1
        reopened.close()

    def test_stale_epoch_journal_is_discarded_not_double_counted(
        self, tmp_path, monkeypatch
    ):
        """Crash between the manifest commit and the journal reset of a
        seal: the journal's rows already live in the committed segment
        and must not replay on top of it."""
        directory = tmp_path / "store"
        store = FlowStore(directory, spill_rows=10_000)
        store.ingest_batch(_encode_flow_batch(_ALL_FLOWS[:9]))
        monkeypatch.setattr(
            TailJournal, "reset",
            lambda self, epoch: (_ for _ in ()).throw(
                CrashError("crash before journal reset")
            ),
        )
        with pytest.raises(CrashError):
            store.flush()
        monkeypatch.undo()
        store._wal.close()
        # The segment is committed AND the full journal survived at the
        # old epoch — recovery must pick exactly one copy.
        reopened = FlowStore(directory)
        assert len(reopened) == 9
        assert reopened.health()["wal"]["stale_dropped"] is True
        assert not (directory / WAL_NAME).exists()
        _assert_equivalent(reopened, _ALL_FLOWS[:9])
        reopened.close()

    def test_wal_disabled_still_replays_an_inherited_journal(
        self, tmp_path
    ):
        directory, counts = self._unsealed_store(tmp_path)
        store = FlowStore(directory, wal=False)
        assert len(store) == counts[-1]
        # The journal survives until its rows are sealed...
        assert (directory / WAL_NAME).exists()
        store.flush()
        # ...and only then is it dropped (journal-less from here on).
        assert not (directory / WAL_NAME).exists()
        store.close()
        reopened = FlowStore(directory)
        _assert_equivalent(reopened, _ALL_FLOWS[:counts[-1]])
        assert reopened.health()["wal"]["recovered_rows"] == 0
        reopened.close()

    def test_unplayable_journal_record_is_skipped_and_reported(
        self, tmp_path, capsys
    ):
        directory, counts = self._unsealed_store(tmp_path, batches=(4,))
        journal = TailJournal(directory / WAL_NAME, epoch=0)
        journal.append(b"CRC-valid frame, not an eventcodec batch")
        journal.append(_encode_flow_batch(_ALL_FLOWS[4:6]))
        journal.close()
        store = FlowStore(directory)
        health = store.health()
        # The garbage record never acknowledged (its ingest would have
        # raised); the records around it replay fine.
        assert len(store) == 6
        assert health["wal"]["skipped_records"] == 1
        assert health["status"] == "degraded"
        store._wal.close()
        assert flowstore_main(["verify", str(directory)]) == 1
        assert "degraded" in capsys.readouterr().err

    def test_garbage_journal_header_is_dropped(self, tmp_path):
        directory = tmp_path / "store"
        directory.mkdir()
        (directory / WAL_NAME).write_bytes(b"not a journal at all")
        store = FlowStore(directory)
        assert len(store) == 0
        assert store.health()["wal"]["torn_bytes_dropped"] == 20
        assert not (directory / WAL_NAME).exists()
        store.close()


# ---------------------------------------------------------------------------
# graceful degradation: quarantine
# ---------------------------------------------------------------------------


class TestQuarantine:
    def _sealed_store(self, tmp_path):
        directory = tmp_path / "store"
        store = FlowStore(directory, spill_rows=8)
        store.add_all(_ALL_FLOWS[:24])
        store.close()
        segments = sorted(directory.glob("seg-*.fseg"))
        assert len(segments) == 3
        return directory, segments

    def _surviving_flows(self, victim: int = 1):
        # Segments hold rows 0-7, 8-15, 16-23.
        return _ALL_FLOWS[:8 * victim] + _ALL_FLOWS[8 * victim + 8:24]

    @pytest.mark.parametrize("index", [0, 1, 2],
                             ids=["first", "middle", "last"])
    def test_corrupt_segment_quarantined_not_fatal(self, tmp_path, index):
        directory, segments = self._sealed_store(tmp_path)
        victim = segments[index]
        raw = bytearray(victim.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        victim.write_bytes(bytes(raw))
        store = FlowStore(directory)
        health = store.health()
        assert health["status"] == "degraded"
        assert [q["name"] for q in health["quarantined_segments"]] \
            == [victim.name]
        assert "CRC" in health["quarantined_segments"][0]["reason"]
        # Moved aside, bytes preserved for post-mortem.
        assert not victim.exists()
        assert (directory / "quarantine" / victim.name).exists()
        _assert_equivalent(store, self._surviving_flows(index))
        store.close()

    def test_missing_segment_quarantined(self, tmp_path):
        directory, segments = self._sealed_store(tmp_path)
        segments[1].unlink()
        store = FlowStore(directory)
        health = store.health()
        assert health["status"] == "degraded"
        assert health["quarantined_segments"][0]["name"] == (
            segments[1].name
        )
        _assert_equivalent(store, self._surviving_flows())
        store.close()

    def test_quarantine_is_recorded_and_reopen_is_stable(self, tmp_path):
        import json

        directory, segments = self._sealed_store(tmp_path)
        segments[1].write_bytes(b"FSG1 but not really")
        FlowStore(directory).close()
        manifest = json.loads(
            (directory / "MANIFEST.json").read_text()
        )
        assert [q["name"] for q in manifest["quarantined"]] == (
            [segments[1].name]
        )
        assert segments[1].name not in [
            entry["name"] for entry in manifest["segments"]
        ]
        # Second open: already quarantined, still degraded, no
        # duplicate entries, identical answers.
        store = FlowStore(directory)
        health = store.health()
        assert len(health["quarantined_segments"]) == 1
        _assert_equivalent(store, self._surviving_flows())
        # Ingest into a degraded store keeps working.
        store.add(_flow(900))
        store.close()
        reopened = FlowStore(directory)
        assert len(reopened) == len(self._surviving_flows()) + 1
        assert len(
            reopened.health()["quarantined_segments"]
        ) == 1
        reopened.close()

    def test_strict_restores_hard_fail(self, tmp_path):
        directory, segments = self._sealed_store(tmp_path)
        segments[0].write_bytes(segments[0].read_bytes()[:32])
        with pytest.raises(StorageError):
            FlowStore(directory, strict=True)
        # The failed strict open must not have moved the file.
        assert segments[0].exists()

    def test_verify_cli_exits_nonzero_and_stats_reports(
        self, tmp_path, capsys
    ):
        directory, segments = self._sealed_store(tmp_path)
        segments[2].write_bytes(segments[2].read_bytes()[:40])
        assert flowstore_main(["verify", str(directory)]) == 1
        captured = capsys.readouterr()
        assert "degraded" in captured.err
        assert segments[2].name in captured.out
        import json

        assert flowstore_main(["stats", str(directory)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["health"]["status"] == "degraded"
        assert payload["health"]["quarantined_segments"][0]["name"] == (
            segments[2].name
        )


# ---------------------------------------------------------------------------
# tmp sweep, retry/backoff, directory-fsync semantics
# ---------------------------------------------------------------------------


class TestHygieneAndRetry:
    def test_orphaned_tmp_files_swept_at_open(self, tmp_path):
        directory = tmp_path / "store"
        store = FlowStore(directory, spill_rows=4)
        store.add_all(_ALL_FLOWS[:6])
        store.close()
        (directory / "seg-00000099.fseg.tmp").write_bytes(b"torn spill")
        (directory / "MANIFEST.json.tmp").write_bytes(b"torn manifest")
        reopened = FlowStore(directory)
        assert reopened.health()["tmp_files_swept"] == 2
        assert not list(directory.glob("*.tmp"))
        assert len(reopened) == 6
        reopened.close()

    def test_transient_eintr_retries_then_succeeds(
        self, tmp_path, no_sleep
    ):
        fs = FaultFS(flaky={"fsync": [2, errno.EINTR]})
        with inject(fs):
            store = FlowStore(tmp_path / "store", spill_rows=100)
            store.add(_flow(0))
        assert len(no_sleep) == 2      # two backoffs, then success
        store._wal.close()
        reopened = FlowStore(tmp_path / "store")
        assert len(reopened) == 1
        reopened.close()

    def test_enospc_escalates_on_first_attempt(self, tmp_path, no_sleep):
        """A full volume is not transient: the write must fail once —
        no 4-attempt/70 ms backoff ladder in front of the governor —
        and every later recovery probe must fail just as fast."""
        fs = FaultFS(persistent={"write": errno.ENOSPC})
        with inject(fs):
            store = FlowStore(tmp_path / "store", spill_rows=100)
            before = fs.counts["write"]
            with pytest.raises(OSError) as excinfo:
                store.add(_flow(0))
            assert excinfo.value.errno == errno.ENOSPC
            assert fs.counts["write"] == before + 1   # one attempt
            with pytest.raises(OSError):
                store.add(_flow(1))    # the half-open probe equivalent
            assert fs.counts["write"] == before + 2   # still one each
        assert no_sleep == []          # zero backoff
        store._wal.close()

    def test_edquot_escalates_on_first_attempt(self, tmp_path, no_sleep):
        fs = FaultFS(persistent={"fsync": errno.EDQUOT})
        with inject(fs):
            store = FlowStore(tmp_path / "store", spill_rows=100)
            before = fs.counts["fsync"]
            with pytest.raises(OSError) as excinfo:
                store.add(_flow(0))
            assert excinfo.value.errno == errno.EDQUOT
            assert fs.counts["fsync"] == before + 1    # one attempt
        assert no_sleep == []
        store._wal.close()

    def test_persistent_enospc_escalates_without_data_loss(
        self, tmp_path, no_sleep
    ):
        directory = tmp_path / "store"
        FlowStore(directory, spill_rows=100).add(_flow(0))
        fs = FaultFS(persistent={"write": errno.ENOSPC})
        with inject(fs):
            store = FlowStore(directory, spill_rows=100)
            with pytest.raises(OSError):
                store.add(_flow(1))
        store._wal.close()
        # The failed row was never acknowledged; the acknowledged one
        # survives untouched.
        reopened = FlowStore(directory)
        assert len(reopened) == 1
        reopened.close()

    def test_non_transient_error_is_not_retried(self, tmp_path, no_sleep):
        fs = FaultFS(persistent={"write": errno.EIO})
        with inject(fs):
            store = FlowStore(tmp_path / "store", spill_rows=100)
            with pytest.raises(OSError):
                store.add(_flow(0))
        assert no_sleep == []          # EIO must escalate immediately
        store._wal.close()

    def test_dir_fsync_enotsup_is_benign(self, tmp_path):
        fs = FaultFS(persistent={"fsync_dir": errno.ENOTSUP})
        with inject(fs):
            store = FlowStore(tmp_path / "store", spill_rows=4)
            store.add_all(_ALL_FLOWS[:6])
            store.close()
        assert fs.counts["fsync_dir"] > 0
        reopened = FlowStore(tmp_path / "store")
        assert len(reopened) == 6
        reopened.close()

    def test_dir_fsync_real_failure_escalates(self, tmp_path, no_sleep):
        fs = FaultFS(persistent={"fsync_dir": errno.EIO})
        with inject(fs):
            store = FlowStore(tmp_path / "store", spill_rows=4)
            with pytest.raises(OSError):
                store.add_all(_ALL_FLOWS[:6])
        store._wal.close()
