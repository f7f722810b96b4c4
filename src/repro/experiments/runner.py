"""Experiment registry and command-line entry point.

``repro-exp list`` shows every experiment; ``repro-exp table5`` runs
one; ``repro-exp all`` sweeps the lot and prints each regenerated
table/figure.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.analytics.storage import StorageError
from repro.experiments import (
    dimensioning,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8,
    table9,
)
from repro.experiments.result import ExperimentResult

REGISTRY = {
    "table1": table1.run,
    "table2": table2.run,
    "table3": table3.run,
    "table4": table4.run,
    "table5": table5.run,
    "table6": table6.run,
    "table7": table7.run,
    "table8": table8.run,
    "table9": table9.run,
    "fig3": fig3.run,
    "fig4": fig4.run,
    "fig5": fig5.run,
    "fig6": fig6.run,
    "fig7": fig7.run,
    "fig8": fig8.run,
    "fig9": fig9.run,
    "fig10": fig10.run,
    "fig11": fig11.run,
    "fig12": fig12.run,
    "fig13": fig13.run,
    "fig14": fig14.run,
    "dimensioning": dimensioning.run,
}


def run_experiment(exp_id: str, **kwargs) -> ExperimentResult:
    """Run one experiment by id."""
    try:
        runner = REGISTRY[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {sorted(REGISTRY)}"
        ) from None
    return runner(**kwargs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-exp",
        description="Regenerate tables/figures of the DN-Hunter paper.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (e.g. table2, fig12), 'list', or 'all'",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="override the dataset seed",
    )
    parser.add_argument(
        "--flow-store", metavar="DIR", default=None,
        help="serve experiment databases from the stored flow-store "
             "root at DIR (one store per trace name, as written by "
             "repro-flowstore ingest-trace); traces without a store "
             "fall back to the in-memory build",
    )
    parser.add_argument(
        "--shards", metavar="BACKEND", default=None,
        choices=("inprocess", "process"),
        help="with --flow-store: open sharded stored datasets "
             "(directories built by repro-flowstore ingest-trace "
             "--shards N) with the given backend — 'inprocess' keeps "
             "all shards in this process, 'process' runs one worker "
             "process per shard",
    )
    args = parser.parse_args(argv)
    if args.shards is not None and args.flow_store is None:
        parser.error("--shards requires --flow-store")
    if args.experiment == "list":
        # Before the stored root is set: listing reads no dataset, and
        # an early return here must not leak the global root past the
        # reset in the finally below.
        for exp_id in REGISTRY:
            print(exp_id)
        return 0
    if args.flow_store is not None:
        from repro.experiments.datasets import set_stored_root

        set_stored_root(args.flow_store, shard_backend=args.shards)
    targets = list(REGISTRY) if args.experiment == "all" else [args.experiment]
    try:
        return _run_targets(targets, args)
    finally:
        if args.flow_store is not None:
            # Drops the stored-dataset cache and closes the opened
            # stores (shutting their shard workers).
            from repro.experiments.datasets import set_stored_root

            set_stored_root(None)


def _run_targets(targets: list[str], args) -> int:
    for exp_id in targets:
        kwargs = {}
        if args.seed is not None and exp_id not in (
            "table8", "fig6", "fig10", "fig11"
        ):
            kwargs["seed"] = args.seed
        started = time.time()
        try:
            result = run_experiment(exp_id, **kwargs)
        except KeyError as exc:
            print(exc, file=sys.stderr)
            return 2
        except (OSError, StorageError) as exc:
            # A corrupt --flow-store segment or unreadable store must
            # fail like the other CLIs do — a clear message, not a
            # traceback.  Deliberately narrow: a ValueError from an
            # experiment kernel is a bug and should keep its traceback.
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(result)
        print(f"[{exp_id} completed in {time.time() - started:.1f}s]\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
