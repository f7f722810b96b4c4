"""Command line of the system benchmark.

``python benchmarks/e2e/run.py --workload NAME --seed N --seconds S
--trace 0|1`` is the form ``BENCHMARK.json`` names; ``PYTHONPATH=src
python -m benchmarks.e2e`` is the same program.  Every run prints its
metrics by name with their units and ends with one JSON line: the
end-to-end metrics of the contract (``--trace 0``) or every per-layer
metric (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from benchmarks.e2e import metrics, runner, workloads

REPO_ROOT = Path(__file__).resolve().parents[2]
#: The contract lets the benchmark write inside its checkout only.
DEFAULT_WORK_DIR = REPO_ROOT / ".bench_work"
#: Runs per workload in one set of --check-agreement: the contract's.
RUNS_PER_SET = 10


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="System benchmark: pcap -> durable store -> served "
                    "answer.",
    )
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of every generated input (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default 15; 1 "
                             "with --smoke)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="traced run: replay the workload layer by "
                             "layer, write trace-<workload>.json, print "
                             "the per-layer table")
    parser.add_argument("--smoke", action="store_true",
                        help="the smoke test's sizes: seconds, not minutes")
    parser.add_argument("--work-dir", type=Path, default=DEFAULT_WORK_DIR,
                        help="where stores and inputs live (default "
                             f"{DEFAULT_WORK_DIR.name}/ in the checkout)")
    parser.add_argument("--check-agreement", action="store_true",
                        help=f"run every workload 2 x {RUNS_PER_SET} "
                             "times and compare the two sets' medians "
                             "with the bounds")
    return parser


def run_one(args, workload: str, corrupt_oracle: bool = False) -> dict:
    """One run of one workload; returns the result record.
    ``corrupt_oracle`` is the self-test the smoke test runs: the checks
    get a wrong oracle digest, every checked operation must count as
    failed and nothing may raise."""
    scale = workloads.SMOKE if args.smoke else workloads.STANDARD
    work_dir = args.work_dir / f"run-{os.getpid()}-{workload}"
    run = runner.Run(
        workload=workload, scale=scale, seed=args.seed,
        seconds=args.seconds if args.seconds is not None else scale.seconds,
        work_dir=runner.fresh_dir(work_dir),
        corrupt_oracle=corrupt_oracle,
    )
    record = {
        "workload": workload, "seed": args.seed, "scale": scale.name,
        "seconds": run.seconds, "traced": bool(args.trace),
        "environment": workloads.environment(args.work_dir),
    }
    try:
        if args.trace:
            from benchmarks.e2e import trace

            traced = trace.TRACERS[workload](run)
            spans_path = args.work_dir / f"trace-{workload}.json"
            traced.tracer.write(spans_path)
            record.update(
                metrics=metrics.layer_metrics(traced.measured),
                attempted=max(traced.attempted, 1), failed=traced.failed,
                failures=traced.failures, spans=str(spans_path),
            )
        else:
            outcome = runner.RUNNERS[workload](run)
            record.update(
                named=outcome.named,
                metrics=metrics.contract_metrics(workload, outcome.named),
                attempted=outcome.attempted,
                failed=outcome.failed,
                failures=outcome.failures, inputs=outcome.inputs,
                detail=outcome.detail,
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    record["correct"] = record["failed"] == 0
    kind = "trace-result" if args.trace else "result"
    workloads.dump_json(args.work_dir / f"{kind}-{workload}.json", record)
    return record


def print_record(record: dict) -> None:
    env = record["environment"]
    print(f"== {record['workload']}  seed {record['seed']}  scale "
          f"{record['scale']}  {record['seconds']:g} s"
          f"{'  traced' if record['traced'] else ''}")
    print(f"   nproc {env['nproc']}  python {env['python']}  numpy "
          f"{env['numpy']}  fs {env['filesystem']}  load1 "
          f"{env['load1_at_start']}  ({env['note']})")
    if "warning" in env:
        print(f"   WARNING: {env['warning']}")
    if record["traced"]:
        rows = [(name, entry) for name, entry in record["metrics"].items()
                if entry["value"]]
        print(f"   per-layer metrics measured by this workload "
              f"(spans: {record['spans']}):")
    else:
        rows = list(record["named"].items())
        print("   end-to-end metrics:")
    print(metrics.format_table(rows))
    if not record["traced"]:
        print("   contract metrics:")
        print(metrics.format_table(record["metrics"].items()))
    print(f"   attempted {record['attempted']}  failed {record['failed']}")
    by_kind: dict[tuple, int] = {}
    for failure in record["failures"]:
        key = (failure["route"], failure["status"], failure["body"][:160])
        by_kind[key] = by_kind.get(key, 0) + 1
    for (route, status, body), count in sorted(by_kind.items()):
        print(f"   FAILED x{count}: {route} -> {status}: {body}")
    # The contract's last line.
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"], "metrics": record["metrics"],
    }), flush=True)


# -- agreement check -------------------------------------------------------

def _contract_run(args, workload: str, seed: int) -> dict:
    """One fresh-process run the way the driver makes it; returns the
    metrics of its last line."""
    command = [
        sys.executable, str(Path(__file__).with_name("run.py")),
        "--workload", workload, "--seed", str(seed), "--trace", "0",
        "--work-dir", str(args.work_dir),
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}: {done.stderr[-400:]}")
    result = json.loads(done.stdout.splitlines()[-1])
    print(f"   {workload} seed {seed}: failed "
          f"{result['failed']}/{result['attempted']}", flush=True)
    return result["metrics"]


def check_agreement(args) -> int:
    """Two sets of ``RUNS_PER_SET`` runs per workload of the same code
    must agree within the bounds: each metric's spread inside a set,
    and the two medians whichever is the worse one.  The sets are
    interleaved, a pair of runs per seed with the order alternating,
    so that a machine that drifts does not pass for a disagreement."""
    sets: tuple[dict, dict] = ({}, {})
    for workload in workloads.WORKLOADS:
        for index in range(RUNS_PER_SET):
            for which in ((0, 1), (1, 0))[index % 2]:
                result = _contract_run(args, workload, args.seed + index)
                for name, entry in result.items():
                    sets[which].setdefault((workload, name), []).append(
                        entry["value"]
                    )
    workloads.dump_json(args.work_dir / "agreement.json", [
        {f"{workload} {name}": values for (workload, name), values
         in one_set.items()}
        for one_set in sets
    ])
    disagreements = 0
    print(f"{'workload':<16} {'metric':<24} {'median 1':>12} "
          f"{'median 2':>12} {'apart':>7} {'spread 1':>9} "
          f"{'spread 2':>9} {'bound':>6}")
    for workload in workloads.WORKLOADS:
        for name, (_unit, _better, bound) in metrics.END_TO_END.items():
            one, two = (values[workload, name] for values in sets)
            m1, m2 = statistics.median(one), statistics.median(two)
            apart = abs(m2 - m1) / min(m1, m2)
            spreads = [metrics.spread(one), metrics.spread(two)]
            bad = apart > bound or (
                name != "setup_s" and max(spreads) > bound
            )
            disagreements += bad
            print(f"{workload:<16} {name:<24} {m1:>12.6g} {m2:>12.6g} "
                  f"{apart:>7.3f} {spreads[0]:>9.3f} {spreads[1]:>9.3f} "
                  f"{bound:>6.2f}{'  DISAGREE' if bad else ''}")
    print(f"{disagreements} disagreement(s)")
    return 1 if disagreements else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.work_dir.mkdir(parents=True, exist_ok=True)
    if args.check_agreement:
        return check_agreement(args)
    selected = [args.workload] if args.workload else workloads.WORKLOADS
    for workload in selected:
        print_record(run_one(args, workload))
    return 0
