"""The four workloads, untraced: this is where the end-to-end metrics
come from.

Each ``run_*`` sets its inputs up from the seed (``scale.setups`` times
over, the median being ``setup_s``), drives the program through files
and HTTP only, checks what came back against the oracle and returns a
:class:`Outcome`.  Set-up and the batch passes compute, so they are
timed as quiet time (:mod:`benchmarks.e2e.pace`); the serve windows
mostly wait and are timed plainly.  A failed operation (non-200, dropped connection,
wrong answer, lost acked row, digest unlike the oracle's) is counted
and listed, never retried.
"""

from __future__ import annotations

import gc
import json
import math
import random
import shutil
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from benchmarks.e2e import loadgen, oracle, pace, workloads
from benchmarks.e2e.child import OPENS
from benchmarks.e2e.metrics import (
    NAMED,
    fastest_slice,
    median_of,
    percentile,
    quiet_of,
)

MIXED_DAEMON_ARGS = ("--compact-small", "65536", "--compact-interval", "2")
SERVE_COUNTERS = ("serve_shed_total", "serve_coalesced_total",
                  "serve_deadline_exceeded_total")
#: A run may not outlast the contract's 180 s whatever --seconds says.
MAX_PASSES = 64


@dataclass
class Run:
    """One invocation's settings."""

    workload: str
    scale: workloads.Scale
    seed: int
    seconds: float
    work_dir: Path
    #: Self-test: hand the checks a wrong oracle digest; every checked
    #: operation must then count as failed instead of raising.
    corrupt_oracle: bool = False


@dataclass
class Outcome:
    named: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list = field(default_factory=list)
    inputs: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)

    def put(self, name: str, entry) -> None:
        if not isinstance(entry, dict):
            entry = {"value": entry}
        entry["unit"] = NAMED[name][0]
        self.named[name] = entry

    def fail(self, route: str, status, body: str) -> None:
        self.failures.append(
            loadgen.Failure(route, str(status), body).as_dict()
        )

    @property
    def failed(self) -> int:
        """One operation can fail two checks; it fails once."""
        return min(len(self.failures), self.attempted)

    def finish(self) -> "Outcome":
        self.put("error_ratio", self.failed / max(self.attempted, 1))
        return self


@contextmanager
def no_gc():
    """Generating a few hundred thousand records is twice as fast
    without the cycle collector walking them; nothing here cycles."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def repeat_setup(run: Run, setup):
    """Run ``setup(directory) -> (product, undo)`` ``scale.setups``
    times, each in a fresh directory; returns the paced regions and the
    last repetition's product.  Every repetition but the last is undone
    (a started daemon is stopped) outside the timing."""
    regions, product = [], None
    for repetition in range(run.scale.setups):
        directory = fresh_dir(run.work_dir / "input")
        with pace.Pace() as region, no_gc():
            product, undo = setup(directory)
        regions.append(region.report())
        if undo is not None and repetition < run.scale.setups - 1:
            undo()
    return regions, product


# -- batch workloads -------------------------------------------------------

def run_child(workload: str, *inputs) -> tuple[dict, str]:
    """One pass in a fresh interpreter; ``({}, why)`` when it failed."""
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e.child", workload,
         *map(str, inputs)],
        capture_output=True, text=True, env=loadgen.child_env(),
        timeout=170,
    )
    if done.returncode != 0:
        return {}, f"exit {done.returncode}: {done.stderr[-300:]}"
    return json.loads(done.stdout.splitlines()[-1]), ""


def batch_passes(run: Run, out: Outcome, expected: oracle.Oracle,
                 *inputs) -> list[dict]:
    """Passes until ``run.seconds`` are spent (at least
    ``scale.min_passes``), each checked against the oracle."""
    digest = "0" * 64 if run.corrupt_oracle else expected.digest
    passes = []
    deadline = time.perf_counter() + run.seconds
    while len(passes) < MAX_PASSES and (
        out.attempted < run.scale.min_passes
        or time.perf_counter() < deadline
    ):
        store_dir = run.work_dir / "pass-store"
        shutil.rmtree(store_dir, ignore_errors=True)
        out.attempted += 1
        result, why = run_child(run.workload, inputs[0], store_dir,
                                *inputs[1:])
        if not result:
            out.fail("child", "crashed", why)
            continue
        passes.append(result)
        if result["rows"] != expected.rows:
            out.fail("pass", "rows",
                     f"{result['rows']} rows, oracle {expected.rows}")
        elif result["digest"] != digest:
            out.fail("pass", "digest", "answer digest differs from oracle")
        elif expected.sweep_digest not in (None,
                                           result.get("sweep_digest")):
            out.fail("pass", "sweep", "sweep digest differs from oracle")
    shutil.rmtree(run.work_dir / "pass-store", ignore_errors=True)
    if not passes:
        raise RuntimeError(f"no pass completed: {out.failures[-1]}")
    return passes


def regions_of(passes: list[dict], name: str) -> list[dict]:
    return [region for p in passes for region in p["regions"][name]]


def report_store(out: Outcome, passes: list[dict]) -> None:
    last = passes[-1]
    out.put("tag_hit_ratio", last["tagged"] / last["rows"])
    out.put("bytes_on_disk_per_flow", last["bytes_on_disk"] / last["rows"])
    out.put("peak_rss_mb", median_of(p["peak_rss_mb"] for p in passes))
    out.detail["segments"] = last["segments"]
    out.detail["passes"] = [p["regions"] for p in passes]


def run_pcap_capture(run: Run) -> Outcome:
    out = Outcome()

    def setup(directory: Path):
        pcap = directory / "capture.pcap"
        frames = workloads.write_pcap_input(pcap, run.seed, run.scale)
        return (pcap, frames), None

    setups, (pcap, frames) = repeat_setup(run, setup)
    out.inputs["pcap"] = {"sha256": workloads.file_digest(pcap),
                          "frames": frames, "bytes": pcap.stat().st_size}
    expected = oracle.oracle_for_pcap(pcap)
    probe = pcap.with_name("probe.json")
    workloads.dump_json(probe, expected.probe)
    passes = batch_passes(run, out, expected, pcap, probe)
    captures = regions_of(passes, "capture")
    answers = regions_of(passes, "first_answers")
    fastest = fastest_slice(setups + captures + answers)
    out.put("setup_s", quiet_of(setups, fastest))
    out.put("capture_pkts_per_s",
            quiet_of(captures, fastest, lambda seconds: frames / seconds))
    out.put("first_answer_ms",
            quiet_of(answers, fastest,
                     lambda seconds: seconds * 1000.0 / OPENS))
    report_store(out, passes)
    out.detail["oracle"] = {"rows": expected.rows,
                            "tag_hit_ratio": expected.tag_hit_ratio}
    return out.finish()


def run_trace_to_tables(run: Run) -> Outcome:
    out = Outcome()
    scale = run.scale

    def setup(directory: Path):
        world = workloads.build_world(run.seed, scale)
        events = workloads.make_events(
            world, random.Random(run.seed), scale.events,
            scale.store_hours * 3600.0,
        )
        path = directory / "events.bin"
        workloads.write_batch_file(path, workloads.encode_batches(events))
        plan = dict(world.describe(), spill_rows=scale.spill_rows)
        workloads.dump_json(directory / "plan.json", plan)
        return (path, events, plan), None

    setups, (path, events, plan) = repeat_setup(run, setup)
    out.inputs["events"] = {"sha256": workloads.file_digest(path),
                            "events": len(events),
                            "bytes": path.stat().st_size}
    with no_gc():
        expected = oracle.oracle_for_events(events)
        expected.sweep_digest = oracle.expected_sweep_digest(
            list(expected.database), plan
        )
    probe = path.with_name("probe.json")
    workloads.dump_json(probe, expected.probe)
    passes = batch_passes(run, out, expected, path, probe,
                          path.with_name("plan.json"))
    phase_a = regions_of(passes, "phase_a")
    phase_b = regions_of(passes, "phase_b")
    fastest = fastest_slice(setups + phase_a + phase_b)
    out.put("setup_s", quiet_of(setups, fastest))
    out.put("ingest_events_per_s",
            quiet_of(phase_a, fastest,
                     lambda seconds: len(events) / seconds))
    out.put("sweep_s", quiet_of(phase_b, fastest))
    report_store(out, passes)
    out.detail["oracle"] = {"rows": expected.rows,
                            "tag_hit_ratio": expected.tag_hit_ratio}
    return out.finish()


# -- serve workloads -------------------------------------------------------

@dataclass
class ServeInputs:
    flows: list
    store_dir: Path
    requests: list
    store_sha256: str = ""
    ingest_flows: list = field(default_factory=list)
    ingest_batches: list = field(default_factory=list)
    daemon: loadgen.Daemon = None


def serve_setup(run: Run, directory: Path, mixed: bool) -> ServeInputs:
    """Generate the flows, preload the store through the program's own
    ingest path, start the daemon and make it load every segment once
    (one whole-store query), so the window starts warm."""
    scale = run.scale
    rng = random.Random(run.seed)
    world = workloads.build_world(run.seed, scale)
    span = scale.store_hours * 3600.0
    flows = workloads.make_tagged_flows(world, rng, scale.store_flows,
                                        0.0, span)
    inputs = ServeInputs(
        flows, directory / "store",
        workloads.make_requests(world, rng, 4096, 0.0, span),
    )
    batches = workloads.encode_batches(flows)
    inputs.store_sha256 = workloads.bytes_digest(batches)
    workloads.build_store(inputs.store_dir, batches, scale.spill_rows)
    daemon_args = ["--spill-rows", str(scale.spill_rows)]
    if mixed:
        posts = int((scale.warmup_s + run.seconds)
                    / workloads.INGEST_INTERVAL_S) + 2
        # Ingested time runs on past the preload, a minute per batch.
        inputs.ingest_flows = workloads.make_tagged_flows(
            world, rng, posts * scale.ingest_flows, span,
            span + 60.0 * posts,
        )
        inputs.ingest_batches = workloads.encode_batches(
            inputs.ingest_flows, scale.ingest_flows
        )
        daemon_args += MIXED_DAEMON_ARGS
    inputs.daemon = loadgen.Daemon(inputs.store_dir, daemon_args)
    try:
        inputs.daemon.get_json("/query/fqdn-server-counts")
    except BaseException:
        inputs.daemon.stop(signal.SIGKILL)
        raise
    return inputs


def check_kept(run: Run, out: Outcome, logs, answers, final=None) -> None:
    """Compare every kept response with the oracle.  On a store that is
    being ingested into (``final`` = the oracle of what it ended up
    holding) only answers that later rows cannot change are exact
    (windows inside the preload); a point answer must lie between the
    preload's and the final store's."""
    for log in logs:
        for request, body in log.kept:
            params = loadgen.request_params(request)
            expected = answers.expected(request.route, params)
            try:
                payload = json.loads(body)
            except ValueError:
                out.fail(request.route, "200", "body is not JSON")
                continue
            if run.corrupt_oracle:
                expected = {"corrupted": True}
            if expected is None:
                continue
            if final is None or request.cls == "window":
                good = oracle.payload_matches(request.route, expected,
                                              payload)
            elif request.cls == "point":
                key = next(iter(expected))
                upper = final.expected(request.route, params)[key]
                got = payload.get(key)
                good = (isinstance(got, list)
                        and set(expected[key]) <= set(got) <= set(upper))
            else:
                continue
            if not good:
                out.fail(request.route, "200", "answer differs from oracle")


def report_queries(out: Outcome, window: dict) -> None:
    summary = loadgen.query_summary(window)
    out.failures.extend(f.as_dict() for f in summary["failures"])
    out.attempted += summary["n"] + len(summary["failures"])
    if not summary["n"]:
        raise RuntimeError(f"no query succeeded: {out.failures[:3]}")
    for name, key in (("query_p50_ms", "p50_ms"), ("query_p99_ms", "p99_ms"),
                      ("queries_per_s", "per_s")):
        out.put(name, {"value": summary[key], "n": summary["n"]})
    out.detail["by_class"] = summary["by_class"]
    out.detail["loadgen_cpu_share"] = window["cpu_share"]


def report_daemon(out: Outcome, daemon: loadgen.Daemon) -> None:
    out.put("peak_rss_mb", daemon.peak_rss_mb())
    out.detail["serve_counters"] = daemon.counter_totals(SERVE_COUNTERS)


def store_input(inputs: ServeInputs, answers) -> dict:
    """Provenance of the preloaded store: the batches it was built from
    and the oracle's answer digest over its fixed query set."""
    database = answers.database
    return {
        "flows": len(inputs.flows),
        "sha256": inputs.store_sha256,
        "answer_digest": oracle.answer_digest(
            database, oracle.make_probe(database)
        ),
    }


def run_serve_read(run: Run) -> Outcome:
    out = Outcome()

    def setup(directory: Path):
        inputs = serve_setup(run, directory, mixed=False)
        return inputs, inputs.daemon.stop

    setups, inputs = repeat_setup(run, setup)
    daemon = inputs.daemon
    try:
        out.put("setup_s", quiet_of(setups, fastest_slice(setups)))
        with no_gc():
            answers = oracle.ServedAnswers(inputs.flows)
        window = loadgen.run_window(
            daemon, inputs.requests, run.scale.warmup_s, run.seconds,
            query_connections=2,
        )
        report_queries(out, window)
        check_kept(run, out, window["query_logs"], answers)
        rows = daemon.get_json("/query/len")["rows"]
        stats = daemon.get_json("/stats")
        report_daemon(out, daemon)
    finally:
        code = daemon.stop()
    out.attempted += 1
    if rows != len(inputs.flows) or code != -signal.SIGTERM:
        out.fail("/query/len", code, f"{rows} rows served, "
                 f"{len(inputs.flows)} preloaded")
    out.put("bytes_on_disk_per_flow",
            stats["bytes_on_disk"] / stats["sealed_rows"])
    out.inputs["store"] = store_input(inputs, answers)
    out.detail["segments"] = len(stats["segments"])
    return out.finish()


def run_serve_mixed(run: Run) -> Outcome:
    from repro.analytics.storage import FlowStore

    out = Outcome()
    scale = run.scale

    def setup(directory: Path):
        inputs = serve_setup(run, directory, mixed=True)
        return inputs, inputs.daemon.stop

    setups, inputs = repeat_setup(run, setup)
    daemon = inputs.daemon
    try:
        out.put("setup_s", quiet_of(setups, fastest_slice(setups)))
        with no_gc():
            answers = oracle.ServedAnswers(inputs.flows)
        window = loadgen.run_window(
            daemon, inputs.requests, scale.warmup_s, run.seconds,
            query_connections=1, ingest_batches=inputs.ingest_batches,
            ingest_interval=workloads.INGEST_INTERVAL_S,
        )
        report_queries(out, window)
        ingest = window["ingest_log"]
        report_daemon(out, daemon)
    finally:
        # No drain, no seal: what was acknowledged must already be safe.
        daemon.stop(signal.SIGKILL)
    out.failures.extend(f.as_dict() for f in ingest.failures)
    out.attempted += len(ingest.acks) + len(ingest.failures)
    if not ingest.acks:
        raise RuntimeError(f"no ingest was acknowledged: {out.failures[:3]}")
    acks = [ack * 1000.0 for _late, ack in ingest.acks]
    out.put("ingest_ack_p50_ms", {"value": percentile(acks, 50),
                                  "n": len(acks)})
    out.put("ingest_ack_p95_ms", {"value": percentile(acks, 95),
                                  "n": len(acks)})
    out.detail["loadgen_late_p99_ms"] = percentile(
        [late * 1000.0 for late, _ack in ingest.acks], 99
    )
    out.detail["acks_ms"] = acks

    # Durability: reopen what SIGKILL left.  It must hold the preload
    # and every acked batch, in the order sent, and answer like the
    # oracle's copy of exactly those rows.
    out.attempted += 1
    store = FlowStore(inputs.store_dir)
    try:
        durable = durable_flows(store, inputs, ingest, scale.ingest_flows)
        with no_gc():
            final = oracle.ServedAnswers(durable)
        stats = store.stats()
        probe = oracle.make_probe(final.database)
        want = oracle.answer_digest(final.database, probe)
        if run.corrupt_oracle:
            want = "0" * 64
        if stats["rows"] != len(durable):
            out.fail("reopen", "rows", f"{stats['rows']} rows after "
                     f"SIGKILL, {len(durable)} acknowledged")
        elif oracle.answer_digest(store, probe) != want:
            out.fail("reopen", "digest", "answer digest differs from oracle")
    finally:
        store.close()
    check_kept(run, out, window["query_logs"], answers, final=final)
    out.put("bytes_on_disk_per_flow",
            stats["bytes_on_disk"] / stats["sealed_rows"])
    out.inputs["store"] = store_input(inputs, answers)
    out.detail.update(acked_batches=len(ingest.acked),
                      unanswered_batches=len(ingest.unanswered),
                      segments_after=len(stats["segments"]))
    return out.finish()


def durable_flows(store, inputs: ServeInputs, ingest: loadgen.IngestLog,
                  size: int) -> list:
    """The rows the reopened ``store`` must hold, in its row order: the
    preload, then every acked batch.  A refused batch must be absent.
    A POST whose connection dropped before the answer may have been
    applied or not; a batch is journaled whole, so whether the store
    has its first flow decides."""
    posted = inputs.ingest_flows

    def applied(index: int) -> bool:
        start = posted[index * size].start
        return bool(store.query_in_window(
            start, math.nextafter(start, math.inf)
        ))

    held = sorted(ingest.acked + list(filter(applied, ingest.unanswered)))
    return inputs.flows + [
        flow for index in held
        for flow in posted[index * size:(index + 1) * size]
    ]


RUNNERS = {
    "pcap_capture": run_pcap_capture,
    "trace_to_tables": run_trace_to_tables,
    "serve_read": run_serve_read,
    "serve_mixed": run_serve_mixed,
}
