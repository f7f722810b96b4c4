"""Smoke test of the system benchmark (collected by the tier-1 run).

Runs all four workloads and their traced runs at ``--smoke`` sizes and
checks the shape of what comes out, never a timing: every workload and
metric ``BENCHMARK.json`` names is emitted with its unit, spans nest,
and a wrong oracle digest becomes ``error_ratio`` > 0, not an
exception.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest

from benchmarks.e2e import cli, metrics, workloads

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)

#: The ISSUE-named metrics each workload must print.
EXPECTED_NAMED = {
    "pcap_capture": {"capture_pkts_per_s", "first_answer_ms",
                     "tag_hit_ratio"},
    "trace_to_tables": {"ingest_events_per_s", "sweep_s", "tag_hit_ratio"},
    "serve_read": {"query_p50_ms", "query_p99_ms", "queries_per_s"},
    "serve_mixed": {"query_p50_ms", "query_p99_ms", "queries_per_s",
                    "ingest_ack_p50_ms", "ingest_ack_p95_ms"},
}
EVERYWHERE = {"setup_s", "bytes_on_disk_per_flow", "peak_rss_mb",
              "error_ratio"}


def smoke_args(work_dir, **overrides) -> argparse.Namespace:
    settings = dict(smoke=True, seed=7, seconds=None, trace=0,
                    work_dir=Path(work_dir))
    settings.update(overrides)
    return argparse.Namespace(**settings)


def test_benchmark_json_names_the_catalogue():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        workloads.WORKLOADS
    )
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"])
        for m in BENCHMARK["end_to_end"]
    } == metrics.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    } == metrics.PER_LAYER
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert BENCHMARK["run_seconds"] == workloads.STANDARD.seconds


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_emits_every_end_to_end_metric(workload, tmp_path, capsys):
    record = cli.run_one(smoke_args(tmp_path), workload)
    assert record["failed"] == 0, record["failures"]
    assert record["attempted"] >= 1 and record["correct"]
    assert {
        name: entry["unit"] for name, entry in record["metrics"].items()
    } == {name: unit for name, (unit, _b, _d) in metrics.END_TO_END.items()}
    assert all(entry["value"] > 0 for entry in record["metrics"].values())
    named = record["named"]
    assert EVERYWHERE | EXPECTED_NAMED[workload] <= set(named)
    for name, entry in named.items():
        assert entry["unit"] == metrics.NAMED[name][0]
    assert "sha256" in next(iter(record["inputs"].values()))
    # The printed form ends with the contract's JSON line.
    cli.print_record(record)
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload, tmp_path):
    record = cli.run_one(smoke_args(tmp_path, trace=1), workload)
    assert record["failed"] == 0, record["failures"]
    assert {
        name: entry["unit"] for name, entry in record["metrics"].items()
    } == {name: unit for name, (unit, _b) in metrics.PER_LAYER.items()}
    assert record["metrics"]["bench.stage_sum_ratio"]["value"] > 0
    assert record["metrics"]["bench.trace_overhead_ratio"]["value"] > 0
    spans = json.loads(Path(record["spans"]).read_text())["spans"]
    assert Path(record["spans"]).name == f"trace-{workload}.json"
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"]
            assert span["end"] <= parent["end"]
            assert span["request"] is not None


def test_wrong_oracle_digest_counts_as_failures(tmp_path):
    record = cli.run_one(smoke_args(tmp_path), "trace_to_tables",
                         corrupt_oracle=True)
    assert record["failed"] == record["attempted"] >= 1
    assert not record["correct"]
    assert record["named"]["error_ratio"]["value"] > 0
    assert {f["status"] for f in record["failures"]} == {"digest"}


def test_same_seed_gives_byte_identical_inputs():
    # The pcap is held to the same rule by tests/test_simulation_traces
    # (seeded traces) and tests/test_net_pcap (the writer).
    import random

    scale = workloads.SMOKE

    def generated(seed):
        world = workloads.build_world(seed, scale)
        rng = random.Random(seed)
        events = workloads.make_events(world, rng, 2000, 3600.0)
        flows = workloads.make_tagged_flows(world, rng, 2000, 0.0, 3600.0)
        requests = workloads.make_requests(world, rng, 50, 0.0, 3600.0)
        return (workloads.bytes_digest(workloads.encode_batches(events)),
                workloads.bytes_digest(workloads.encode_batches(flows)),
                requests)

    assert generated(3) == generated(3)
    assert generated(3)[:2] != generated(4)[:2]


def test_durable_rows_follow_the_acked_batches_not_a_prefix(tmp_path):
    import random

    from benchmarks.e2e import loadgen, runner
    from repro.analytics.storage import FlowStore

    world = workloads.build_world(5, workloads.SMOKE)
    rng = random.Random(5)
    preload = workloads.make_tagged_flows(world, rng, 500, 0.0, 3600.0)
    posted = workloads.make_tagged_flows(world, rng, 400, 3600.0, 3840.0)
    posts = workloads.encode_batches(posted, 100)
    # POST 1 was refused; POST 3 was applied but its answer got lost.
    workloads.build_store(
        tmp_path / "store",
        workloads.encode_batches(preload) + [posts[0], posts[2], posts[3]],
        spill_rows=4096,
    )
    inputs = runner.ServeInputs(preload, tmp_path / "store", [],
                                ingest_flows=posted)
    log = loadgen.IngestLog(acked=[0, 2], unanswered=[3])
    store = FlowStore(tmp_path / "store")
    try:
        assert runner.durable_flows(store, inputs, log, 100) == (
            preload + posted[:100] + posted[200:]
        )
        log = loadgen.IngestLog(acked=[0, 2], unanswered=[1, 3])
        assert len(runner.durable_flows(store, inputs, log, 100)) == 800
    finally:
        store.close()
