"""Durable-ingest wiring: pipeline → store → CLIs → experiments.

The tentpole claim is end-to-end: tagged flows stream out of the
in-process sniffer as binary batches, spill
to segments on disk, and the reopened directory serves the analytics
and the experiment runner with answers identical to the in-memory
path.

The CLIs are exercised both in-process (``main(argv)``, fast) and as
real ``python -m`` subprocesses — the latter never depends on
installed console-script entry points, so CLI coverage holds in a
plain source checkout.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analytics.database import FlowDatabase
from repro.analytics.flowstore_cli import main as flowstore_main
from repro.analytics.storage import FlowStore
from repro.net.flow import DnsObservation, FiveTuple, FlowRecord, Protocol, TransportProto
from repro.net.ip import ip_from_str
from repro.sniffer.pipeline import SnifferPipeline

_SRC = Path(__file__).resolve().parent.parent / "src"


def _run_module(module: str, *args: str) -> subprocess.CompletedProcess:
    """Run a repro CLI exactly as documented: ``python -m <module>``.

    ``PYTHONPATH`` points at the source tree explicitly, so this works
    in a checkout without any installed entry points (and therefore
    cannot silently skip).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def _tree(directory: Path) -> dict:
    """Every path under ``directory`` with its bytes (None: a dir)."""
    return {
        path: path.read_bytes() if path.is_file() else None
        for path in directory.rglob("*")
    }


def _events(n_clients=6, flows_per_client=30):
    """A tiny deterministic event stream: DNS then flows per client."""
    events = []
    timestamp = 0.0
    for client in range(1, n_clients + 1):
        server = 0x0A000000 + client
        events.append(DnsObservation(
            timestamp=timestamp,
            client_ip=client,
            fqdn=f"host{client}.example{client % 3}.com",
            answers=[server],
        ))
        for index in range(flows_per_client):
            timestamp += 1.0
            events.append(FlowRecord(
                fid=FiveTuple(client, server, 1024 + index, 443,
                              TransportProto.TCP),
                start=timestamp,
                end=timestamp + 0.5,
                protocol=Protocol.TLS,
                bytes_up=100,
                bytes_down=1000,
                packets=4,
            ))
    return events


class TestPipelineDurableIngest:
    def test_single_process_spills_and_reopens(self, tmp_path):
        events = _events()
        pipeline = SnifferPipeline(
            clist_size=1000, warmup=0.0, batch_events=64,
            flow_store=FlowStore(tmp_path / "store", spill_rows=32),
        )
        pipeline.process_events(events)
        pipeline.close()
        mem = FlowDatabase.from_flows(pipeline.tagged_flows)
        reopened = FlowStore(tmp_path / "store")
        assert len(reopened.segments) >= 2
        assert len(reopened) == len(mem)
        assert reopened.tagged_count == mem.tagged_count
        assert reopened.fqdns() == mem.fqdns()
        assert reopened.fqdn_server_counts() == mem.fqdn_server_counts()
        assert reopened.count_by_protocol() == mem.count_by_protocol()
        assert reopened.time_span() == mem.time_span()
        assert list(reopened) == list(mem)

    def test_retain_flows_false_bounds_the_in_process_list(self, tmp_path):
        """Multi-day mode: drained flows leave tagged_flows, the store
        still receives every flow exactly once."""
        events = _events()
        pipeline = SnifferPipeline(
            clist_size=1000, warmup=0.0, batch_events=32,
            flow_store=FlowStore(tmp_path / "store", spill_rows=32),
            retain_flows=False,
        )
        half = len(events) // 2
        pipeline.process_events(events[:half])
        assert len(pipeline.tagged_flows) < half  # drained prefix dropped
        pipeline.process_events(events[half:])
        pipeline.close()
        single = SnifferPipeline(clist_size=1000, warmup=0.0)
        single.process_events(events)
        reopened = FlowStore(tmp_path / "store")
        assert len(reopened) == len(single.tagged_flows)
        assert reopened.tagged_count == sum(
            1 for flow in single.tagged_flows if flow.fqdn
        )

    def test_retain_flows_false_requires_flow_store(self):
        with pytest.raises(ValueError):
            SnifferPipeline(retain_flows=False)

    def test_single_call_commits_segments_mid_stream(self, tmp_path):
        """One long processing call must not defer all durability to
        its end: by the time the stream's last event is produced,
        earlier flows are already committed (visible to a reopen)."""
        events = _events()
        pipeline = SnifferPipeline(
            clist_size=1000, warmup=0.0, batch_events=8,
            flow_store=FlowStore(tmp_path / "store", spill_rows=16),
        )
        committed_mid_stream = []

        def stream():
            for index, event in enumerate(events):
                if index == len(events) - 1:
                    committed_mid_stream.append(
                        len(FlowStore(tmp_path / "store"))
                    )
                yield event

        pipeline.process_events(stream())
        pipeline.close()
        assert committed_mid_stream[0] > 0
        assert len(FlowStore(tmp_path / "store")) == len(
            pipeline.tagged_flows
        )

    def test_incremental_drains_store_each_flow_once(self, tmp_path):
        events = _events()
        half = len(events) // 2
        pipeline = SnifferPipeline(
            clist_size=1000, warmup=0.0,
            flow_store=tmp_path / "store",  # path form opens a store
        )
        pipeline.process_events(events[:half])
        pipeline.process_events(events[half:])
        pipeline.close()
        reopened = FlowStore(tmp_path / "store")
        assert len(reopened) == len(pipeline.tagged_flows)


class TestFlowDatabaseConstructor:
    def test_plain_constructor_is_the_only_one(self):
        """``FlowDatabase()`` is the in-memory store and nothing else;
        the durable stores are constructed by their own names."""
        import inspect

        assert not inspect.signature(FlowDatabase).parameters
        database = FlowDatabase()
        assert type(database) is FlowDatabase
        assert len(database) == 0


class TestFlowstoreCli:
    def _seed_store(self, tmp_path):
        store = FlowStore(tmp_path / "store", spill_rows=16)
        pipeline = SnifferPipeline(
            clist_size=1000, warmup=0.0, batch_events=32,
            flow_store=store,
        )
        pipeline.process_events(_events())
        pipeline.close()
        return tmp_path / "store"

    def test_inspect_and_verify(self, tmp_path, capsys):
        directory = self._seed_store(tmp_path)
        assert flowstore_main(["inspect", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "rows" in out and "seg-00000001.fseg" in out
        assert flowstore_main(["verify", str(directory)]) == 0
        assert "verified" in capsys.readouterr().out

    def test_compact_subcommand(self, tmp_path, capsys):
        directory = self._seed_store(tmp_path)
        before = len(FlowStore(directory).segments)
        assert before >= 2
        assert flowstore_main(["compact", str(directory)]) == 0
        assert "compacted" in capsys.readouterr().out
        store = FlowStore(directory)
        assert len(store.segments) == 1
        assert len(store) == sum(s.n_rows for s in store.segments)

    def test_corrupt_store_errors_cleanly(self, tmp_path, capsys):
        """--strict restores the PR5 hard-fail; the default open
        quarantines the corrupt segment, reports degraded health, and
        verify exits non-zero on it."""
        directory = self._seed_store(tmp_path)
        segment = sorted(directory.glob("seg-*.fseg"))[0]
        segment.write_bytes(segment.read_bytes()[:20])
        assert flowstore_main(
            ["inspect", "--strict", str(directory)]
        ) == 1
        assert "error:" in capsys.readouterr().err
        assert flowstore_main(["inspect", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "health     : degraded" in out
        assert segment.name in out
        assert flowstore_main(["verify", str(directory)]) == 1
        assert "degraded" in capsys.readouterr().err

    def test_missing_directory_is_an_error_not_an_empty_store(
        self, tmp_path, capsys
    ):
        """A mistyped path must not be silently created and reported
        as a healthy empty store by the read-only commands."""
        missing = tmp_path / "typo"
        for command in ("inspect", "stats", "prune-report", "verify",
                        "compact"):
            assert flowstore_main([command, str(missing)]) == 1
            assert "no flow store" in capsys.readouterr().err
            assert not missing.exists()

    def test_stats_emits_machine_readable_metadata(
        self, tmp_path, capsys
    ):
        directory = self._seed_store(tmp_path)
        assert flowstore_main(["stats", str(directory)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] == sum(
            segment["rows"] for segment in payload["segments"]
        )
        for segment in payload["segments"]:
            meta = segment["meta"]
            assert meta["min_start"] <= meta["max_start"]
            assert meta["fqdn_filter_bits"] >= 64

    def test_prune_report_subcommand(self, tmp_path, capsys):
        directory = self._seed_store(tmp_path)
        assert flowstore_main([
            "prune-report", str(directory),
            "--t0", "1e9", "--t1", "2e9",
        ]) == 0
        out = capsys.readouterr().out
        assert "would scan 0 of" in out  # window beyond the trace
        assert flowstore_main([
            "prune-report", str(directory), "--fqdn", "host1.example1.com",
        ]) == 0
        assert "would scan" in capsys.readouterr().out
        # Protocol probe: the synthetic stream is pure TLS, so a P2P
        # probe prunes every segment and an unknown name is an error.
        assert flowstore_main([
            "prune-report", str(directory), "--protocol", "p2p",
        ]) == 0
        assert "would scan 0 of" in capsys.readouterr().out
        assert flowstore_main([
            "prune-report", str(directory), "--protocol", "NOPE",
        ]) == 1
        assert "unknown protocol" in capsys.readouterr().err
        # --t0 without --t1 is a usage error, not a silent full scan.
        assert flowstore_main([
            "prune-report", str(directory), "--t0", "5",
        ]) == 1
        assert "together" in capsys.readouterr().err
        # Regression: an inverted window is a usage error too, not a
        # report that happily "prunes" 100% of the store.
        assert flowstore_main([
            "prune-report", str(directory), "--t0", "5", "--t1", "1",
        ]) == 1
        assert "--t0 must be <= --t1" in capsys.readouterr().err

    def test_prune_report_takes_dotted_and_repeated_addresses(
        self, tmp_path, capsys
    ):
        """``--server`` / ``--client`` parse as ``/prune-report`` and
        :meth:`QueryHint.from_mapping` do: dotted quad or u32, any
        number of times."""
        directory = tmp_path / "store"
        store = FlowStore(directory)
        for server in ("10.0.0.1", "10.0.0.2", "10.0.0.3"):
            store.add(FlowRecord(
                fid=FiveTuple(ip_from_str("192.168.0.7"),
                              ip_from_str(server), 1024, 443,
                              TransportProto.TCP),
                start=1.0, end=2.0, protocol=Protocol.TLS, bytes_up=1,
                bytes_down=1, packets=1, fqdn="a.example.com",
            ))
            store.flush()
        store.close()

        def scanned(*flags):
            assert flowstore_main(
                ["prune-report", str(directory), *flags]
            ) == 0
            return capsys.readouterr().out.splitlines()[-1]

        assert "would scan 1 of 3" in scanned("--server", "10.0.0.1")
        assert "would scan 2 of 3" in scanned(
            "--server", "10.0.0.1", "--server", str(ip_from_str("10.0.0.3"))
        )
        assert "would scan 3 of 3" in scanned("--client", "192.168.0.7")
        assert "would scan 0 of 3" in scanned("--client", "192.168.0.8")

class TestStoredDatasetSource:
    @pytest.fixture()
    def stored_root(self, tmp_path):
        from repro.experiments import datasets

        yield tmp_path / "datasets"
        datasets.set_stored_root(None)

    def test_ingest_trace_then_experiments_ride_the_store(
        self, stored_root, capsys
    ):
        from repro.experiments import datasets

        assert flowstore_main([
            "ingest-trace", "EU1-FTTH", str(stored_root),
            "--spill-rows", "4096",
        ]) == 0
        assert "stored" in capsys.readouterr().out
        datasets.set_stored_root(stored_root)
        result = datasets.get_result("EU1-FTTH")
        assert isinstance(result.database, FlowStore)
        datasets.set_stored_root(None)
        mem = datasets.get_result("EU1-FTTH")
        assert isinstance(mem.database, FlowDatabase)
        # The analytics layer sees identical data either way.
        from repro.analytics.tangle import (
            fanin_distribution,
            fanout_distribution,
        )

        datasets.set_stored_root(stored_root)
        stored = datasets.get_result("EU1-FTTH")
        # Store-served results skip the sniffer run; it only happens
        # lazily if an experiment asks for pipeline statistics.
        assert stored._pipeline is None
        assert fanout_distribution(stored.database).values == (
            fanout_distribution(mem.database).values
        )
        assert fanin_distribution(stored.database).values == (
            fanin_distribution(mem.database).values
        )
        assert stored.pipeline.tagger.stats.hits  # lazy run works

    def test_missing_store_falls_back_to_memory(self, stored_root):
        from repro.experiments import datasets

        stored_root.mkdir(parents=True, exist_ok=True)
        datasets.set_stored_root(stored_root)
        result = datasets.get_result("EU1-FTTH")
        assert isinstance(result.database, FlowDatabase)

    def test_seed_mismatch_falls_back_to_memory(self, stored_root, capsys):
        """A store ingested with one seed must not serve a request for
        another — that would silently mix two datasets."""
        from repro.experiments import datasets

        assert flowstore_main([
            "ingest-trace", "EU1-FTTH", str(stored_root),
        ]) == 0
        capsys.readouterr()
        datasets.set_stored_root(stored_root)
        assert datasets.stored_database("EU1-FTTH") is not None
        assert datasets.stored_database("EU1-FTTH", seed=99) is None

    def test_building_marker_rejects_partial_store(self, stored_root):
        """A crash mid-ingest leaves the sidecar marked building; such
        a store must not serve experiments."""
        import json as json_mod

        from repro.experiments import datasets

        directory = stored_root / "EU1-FTTH"
        store = FlowStore(directory, spill_rows=4)
        store.add_all(
            FlowRecord(
                fid=FiveTuple(1, 2, 3, 443, TransportProto.TCP),
                start=float(i), end=float(i), protocol=Protocol.TLS,
                bytes_up=1, bytes_down=1, packets=1,
                fqdn="a.example.com",
            )
            for i in range(9)
        )
        store.close()
        (directory / "DATASET.json").write_text(json_mod.dumps({
            "trace": "EU1-FTTH", "seed": 7, "building": True,
        }))
        datasets.set_stored_root(stored_root)
        assert datasets.stored_database("EU1-FTTH") is None

    def test_ingest_trace_refuses_rerun_without_force(
        self, stored_root, capsys
    ):
        assert flowstore_main([
            "ingest-trace", "EU1-FTTH", str(stored_root),
        ]) == 0
        rows = len(FlowStore(stored_root / "EU1-FTTH"))
        assert flowstore_main([
            "ingest-trace", "EU1-FTTH", str(stored_root),
        ]) == 1
        assert "--force" in capsys.readouterr().err
        assert len(FlowStore(stored_root / "EU1-FTTH")) == rows
        assert flowstore_main([
            "ingest-trace", "EU1-FTTH", str(stored_root), "--force",
        ]) == 0
        assert len(FlowStore(stored_root / "EU1-FTTH")) == rows

    @pytest.mark.parametrize("bad", [
        ["--spill-rows", "0"], ["--shards", "0"], ["--shards", "-2"],
    ], ids=["spill-rows-0", "shards-0", "shards-negative"])
    def test_refused_force_keeps_the_stored_dataset(
        self, stored_root, capsys, bad
    ):
        """--force replaces a dataset only once the new run is sure to
        start: a refused invocation leaves it byte-identical."""
        assert flowstore_main([
            "ingest-trace", "US-3G", str(stored_root),
        ]) == 0
        before = _tree(stored_root)
        capsys.readouterr()
        assert flowstore_main([
            "ingest-trace", "US-3G", str(stored_root), "--force", *bad,
        ]) == 1
        assert "must be positive" in capsys.readouterr().err
        assert _tree(stored_root) == before


class TestSnifferCliFlowStore:
    @pytest.fixture(scope="class")
    def capture_records(self):
        from repro.simulation import build_trace

        return build_trace("EU1-FTTH", seed=19).to_packets(max_flows=60)

    def test_pcap_flow_store_flag(self, tmp_path, capsys, capture_records):
        from repro.net.pcap import write_pcap
        from repro.sniffer.cli import main as sniff_main

        pcap = tmp_path / "capture.pcap"
        write_pcap(str(pcap), capture_records)
        code = sniff_main([
            str(pcap), "--warmup", "0", "--flow-store",
            str(tmp_path / "store"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "flow store" in out
        store = FlowStore(tmp_path / "store")
        assert len(store) >= 1
        assert store.tagged_count >= 1
        assert store.fqdns()  # labels made it to disk

    def test_truncated_capture_keeps_every_whole_record(
        self, tmp_path, capsys, capture_records
    ):
        """A capture cut mid-record (the writer was killed) is stored
        exactly like the same file trimmed to its last whole record;
        the cut is still reported and still fails the run."""
        from repro.net.pcap import write_pcap
        from repro.sniffer.cli import main as sniff_main

        whole = tmp_path / "whole.pcap"
        write_pcap(str(whole), capture_records)
        data = whole.read_bytes()
        (tmp_path / "cut.pcap").write_bytes(data[:-7])
        (tmp_path / "trimmed.pcap").write_bytes(
            data[:-(16 + len(capture_records[-1].data))]
        )

        def sniff(name):
            code = sniff_main([
                str(tmp_path / f"{name}.pcap"), "--warmup", "0",
                "--flow-store", str(tmp_path / f"{name}.store"),
            ])
            with FlowStore(tmp_path / f"{name}.store") as store:
                return code, capsys.readouterr().err, len(store)

        code, err, rows = sniff("trimmed")
        assert (code, err) == (0, "") and rows >= 1
        code, err, cut_rows = sniff("cut")
        assert code == 1
        assert (
            f"warning: capture truncated after "
            f"{len(capture_records) - 1} frames"
            in err
        )
        assert "error: truncated pcap record body" in err
        assert cut_rows == rows

    @pytest.mark.parametrize("content", [b"not a pcap, not even close....",
                                         b"\xd4\xc3\xb2\xa1\x02\x00"])
    def test_no_pcap_header_no_store_directory(
        self, tmp_path, capsys, content
    ):
        from repro.sniffer.cli import main as sniff_main

        bad = tmp_path / "bad.pcap"
        bad.write_bytes(content)
        assert sniff_main([
            str(bad), "--flow-store", str(tmp_path / "store"),
        ]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "store").exists()

    def test_batch_events_zero_is_rejected(self, tmp_path, capsys):
        from repro.net.pcap import write_pcap
        from repro.sniffer.cli import main as sniff_main

        pcap = tmp_path / "empty.pcap"
        write_pcap(str(pcap), [])
        assert sniff_main([
            str(pcap), "--batch-events", "0",
            "--flow-store", str(tmp_path / "store"),
        ]) == 1
        assert "batch_events must be positive" in capsys.readouterr().err
        assert not (tmp_path / "store").exists()

    def test_processes_flag_is_gone(self, tmp_path, capsys):
        """The capture runs in-process only: ``--processes`` is an
        unknown flag, refused before the store directory exists."""
        from repro.net.pcap import write_pcap
        from repro.sniffer.cli import main as sniff_main

        pcap = tmp_path / "empty.pcap"
        write_pcap(str(pcap), [])
        with pytest.raises(SystemExit) as exit_info:
            sniff_main([
                "--processes", "2", str(pcap),
                "--flow-store", str(tmp_path / "store"),
            ])
        assert exit_info.value.code == 2
        assert "--processes" in capsys.readouterr().err
        assert not (tmp_path / "store").exists()


class TestRunnerFlowStoreFlag:
    def test_runner_accepts_flow_store(self, tmp_path, capsys):
        from repro.experiments import datasets
        from repro.experiments.runner import main as runner_main

        assert flowstore_main([
            "ingest-trace", "EU1-FTTH", str(tmp_path / "root"),
        ]) == 0
        capsys.readouterr()
        try:
            code = runner_main([
                "--flow-store", str(tmp_path / "root"), "table6",
            ])
        finally:
            datasets.set_stored_root(None)
        assert code == 0
        assert "Table 6" in capsys.readouterr().out

    def test_list_does_not_leak_stored_root(self, tmp_path):
        """`runner list --flow-store DIR` must not leave the global
        stored root set for later in-process callers."""
        from repro.experiments import datasets
        from repro.experiments.runner import main as runner_main

        assert runner_main([
            "--flow-store", str(tmp_path / "nowhere"), "list",
        ]) == 0
        assert datasets._STORED_ROOT is None


class TestModuleCliInvocation:
    """The CLIs run as ``python -m`` subprocesses — no installed entry
    points required, so these assertions can never be skipped."""

    def _store_dir(self, tmp_path):
        store = FlowStore(tmp_path / "store", spill_rows=16)
        pipeline = SnifferPipeline(
            clist_size=1000, warmup=0.0, batch_events=32,
            flow_store=store,
        )
        pipeline.process_events(_events())
        pipeline.close()
        return tmp_path / "store"

    def test_flowstore_cli_inspect_verify_stats(self, tmp_path):
        directory = str(self._store_dir(tmp_path))
        result = _run_module(
            "repro.analytics.flowstore_cli", "inspect", directory
        )
        assert result.returncode == 0, result.stderr
        assert "seg-00000001.fseg" in result.stdout
        result = _run_module(
            "repro.analytics.flowstore_cli", "verify", directory
        )
        assert result.returncode == 0, result.stderr
        assert "verified" in result.stdout
        result = _run_module(
            "repro.analytics.flowstore_cli", "stats", directory
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["segments"]

    def test_flowstore_cli_prune_report_and_errors(self, tmp_path):
        directory = str(self._store_dir(tmp_path))
        result = _run_module(
            "repro.analytics.flowstore_cli", "prune-report", directory,
            "--t0", "1e9", "--t1", "2e9",
        )
        assert result.returncode == 0, result.stderr
        assert "would scan 0 of" in result.stdout
        result = _run_module(
            "repro.analytics.flowstore_cli", "inspect",
            str(tmp_path / "missing"),
        )
        assert result.returncode == 1
        assert "no flow store" in result.stderr

    def test_experiments_runner_module(self):
        result = _run_module("repro.experiments.runner", "list")
        assert result.returncode == 0, result.stderr
        assert "table6" in result.stdout

    def test_sniffer_cli_module(self):
        result = _run_module("repro.sniffer.cli", "--help")
        assert result.returncode == 0, result.stderr
        assert "--flow-store" in result.stdout


def test_manifest_is_human_readable(tmp_path):
    store = FlowStore(tmp_path / "store", spill_rows=4)
    store.add_all(
        FlowRecord(
            fid=FiveTuple(1, 2, 3, 443, TransportProto.TCP),
            start=float(i), end=float(i), protocol=Protocol.TLS,
            bytes_up=1, bytes_down=1, packets=1, fqdn="a.example.com",
        )
        for i in range(9)
    )
    store.close()
    manifest = json.loads(
        (tmp_path / "store" / "MANIFEST.json").read_text()
    )
    assert manifest["format"] == 2
    assert [entry["name"] for entry in manifest["segments"]] == [
        "seg-00000001.fseg", "seg-00000002.fseg", "seg-00000003.fseg",
    ]
    # The manifest carries a summary of each footer's pruning metadata
    # (ranges/mask/filter sizes; the bitmaps live only in the footer).
    for entry in manifest["segments"]:
        meta = entry["meta"]
        assert meta["min_start"] <= meta["max_start"]
        assert meta["protocol_mask"] > 0
        assert meta["fqdn_filter_bits"] >= 64


def test_manifest_meta_round_trips_the_footer(tmp_path):
    """The promoted manifest copy must decode back to the exact
    footer — this is what lets the shard coordinator prune from
    manifest bytes alone."""
    from repro.analytics.storage import SegmentMeta

    store = FlowStore(tmp_path / "store", spill_rows=4)
    store.add_all(
        FlowRecord(
            fid=FiveTuple(i, 2 + i, 3, 443, TransportProto.TCP),
            start=float(i), end=float(i), protocol=Protocol.TLS,
            bytes_up=1, bytes_down=1, packets=1,
            fqdn=f"h{i}.example{i % 2}.org",
        )
        for i in range(9)
    )
    store.close()
    manifest = json.loads(
        (tmp_path / "store" / "MANIFEST.json").read_text()
    )
    store = FlowStore(tmp_path / "store")
    by_name = {reader.name: reader for reader in store._segments}
    for entry in manifest["segments"]:
        rebuilt = SegmentMeta.from_manifest(entry["meta"])
        assert rebuilt is not None
        assert rebuilt == by_name[entry["name"]].meta
    store.close()
    # Malformed/legacy entries degrade to "unprunable", never crash.
    assert SegmentMeta.from_manifest(None) is None
    assert SegmentMeta.from_manifest({"min_start": 0.0}) is None
    legacy = dict(manifest["segments"][0]["meta"])
    del legacy["fqdn_filter"]
    assert SegmentMeta.from_manifest(legacy) is None
    tampered = dict(manifest["segments"][0]["meta"])
    tampered["sld_filter"] = "!!!not base64!!!"
    assert SegmentMeta.from_manifest(tampered) is None


class TestStatsSealRace:
    """Regression: ``stats()``/``prune_report()`` used to walk the
    live ``self._segments`` list without the store mutex — a
    concurrent seal could tear the payload (segment listing computed
    at one instant, ``sealed_rows`` summed at another)."""

    def _spin_writer(self, store, n_rows):
        import threading

        def writer():
            for i in range(n_rows):
                store.add(FlowRecord(
                    fid=FiveTuple(i % 7, 10 + i % 5, 3, 443,
                                  TransportProto.TCP),
                    start=float(i), end=float(i) + 0.5,
                    protocol=Protocol.TLS, bytes_up=1, bytes_down=1,
                    packets=1, fqdn=f"h{i % 11}.example.com",
                ))

        thread = threading.Thread(target=writer)
        thread.start()
        return thread

    def test_stats_never_tears_under_a_seal_loop(self, tmp_path):
        from repro.analytics.storage import QueryHint

        store = FlowStore(tmp_path / "store", spill_rows=1, wal=False)
        # Every I/O call in a seal gives up the GIL and, at the default
        # 5 ms switch interval, waits that long to get it back from the
        # CPU-bound poller below; a short interval lets the writer's
        # 400 seals interleave with the polls without the convoy.
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        thread = self._spin_writer(store, 400)
        try:
            while thread.is_alive():
                payload = store.stats()
                listed = sum(s["rows"] for s in payload["segments"])
                assert payload["sealed_rows"] == listed
                assert payload["rows"] == (
                    payload["sealed_rows"] + payload["tail_rows"]
                )
                report = store.prune_report(QueryHint(window=(0.0, 1e9)))
                names = [s["name"] for s in report["segments"]]
                assert len(names) == len(set(names))
                assert report["scanned_rows"] + report["pruned_rows"] == sum(
                    s["rows"] for s in report["segments"]
                )
        finally:
            thread.join()
            sys.setswitchinterval(switch_interval)
        final = store.stats()
        assert final["rows"] == 400
        store.close()
