"""The root command line: experiments, scenario files, restore, sweeps.

Run it as ``python -m repro.cli``.  A leading ``sweep`` argument
routes to the fleet subcommands in :mod:`repro.cli.sweep`; everything
else is the experiment harness.

Besides the registered experiments, ``--scenario file.json`` runs a
scenario defined purely in JSON through the declarative
:mod:`repro.scenario` layer (churn × policy × protocol × observers).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.experiments.registry import all_experiments, run_experiment


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "sweep":
        from repro.cli.sweep import main as sweep_main

        return sweep_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="Reproduce the paper's tables and figures.  "
        "(Multi-host sweep execution lives under the `sweep` "
        "subcommand: `... sweep {run,worker,reduce,status} --help`.)",
    )
    parser.add_argument(
        "experiment_ids",
        nargs="*",
        help="experiment ids to run (e.g. EXP-01 EXP-06)",
    )
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument(
        "--full",
        action="store_true",
        help="use the full (EXPERIMENTS.md) parameters instead of quick mode",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="also write each experiment's rows to DIR/<EXP-ID>.csv",
    )
    parser.add_argument(
        "--scenario",
        metavar="FILE",
        default=None,
        help="run a JSON-defined scenario (see repro.scenario) instead of "
        "a registered experiment",
    )
    parser.add_argument(
        "--sweep",
        metavar="FILE",
        default=None,
        help="run a JSON-defined parameter sweep (a SweepSpec document, "
        "see repro.sweep) and print its cell values as JSON; honors "
        "--jobs/--store",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for replication sweeps inside experiments "
        "(default 1 = sequential; results are bit-identical either way)",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="content-addressed sweep result store: cells are persisted "
        "to DIR, and cells already in DIR are served instead of re-run "
        "(a fully warm store executes zero cells)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="service plane: dump resumable simulation checkpoints into "
        "DIR (combine with --checkpoint-every; restore with --restore)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="service plane: checkpoint cadence in completed rounds "
        "(needs --checkpoint-dir)",
    )
    parser.add_argument(
        "--restore",
        metavar="PATH",
        default=None,
        help="resume a checkpointed scenario session from a checkpoint "
        "file (or the most advanced ckpt-*.json in a directory) and run "
        "it to its horizon",
    )
    args = parser.parse_args(argv)

    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.checkpoint_every is not None and args.checkpoint_every < 0:
        parser.error("--checkpoint-every must be >= 0")
    if args.checkpoint_every and args.checkpoint_dir is None:
        parser.error("--checkpoint-every needs --checkpoint-dir DIR")

    if args.scenario is not None and args.sweep is not None:
        parser.error("--scenario and --sweep are mutually exclusive")

    if args.restore is not None:
        if (
            args.experiment_ids
            or args.all
            or args.full
            or args.csv
            or args.scenario is not None
            or args.sweep is not None
            or args.jobs is not None
            or args.store is not None
        ):
            parser.error(
                "--restore cannot be combined with experiment ids, "
                "--all, --full, --csv, --scenario, --sweep, or the "
                "sweep flags (--jobs/--store)"
            )
        return run_restore(
            args.restore,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir,
        )

    if args.scenario is not None:
        if (
            args.experiment_ids
            or args.all
            or args.full
            or args.csv
            or args.jobs is not None
            or args.store is not None
        ):
            parser.error(
                "--scenario cannot be combined with experiment ids, "
                "--all, --full, --csv, or the sweep flags "
                "(--jobs/--store)"
            )
        return run_scenario_file(
            args.scenario,
            seed=args.seed,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir,
        )

    if args.sweep is not None:
        if args.experiment_ids or args.all or args.full or args.csv:
            parser.error(
                "--sweep cannot be combined with experiment ids, "
                "--all, --full, or --csv"
            )
        return run_sweep_file(
            args.sweep,
            jobs=args.jobs,
            store=args.store,
        )

    if args.list or (not args.experiment_ids and not args.all):
        for experiment in all_experiments():
            print(
                f"{experiment.experiment_id}: {experiment.title}"
                f"  [{experiment.paper_reference}]"
            )
        return 0

    ids = (
        [e.experiment_id for e in all_experiments()]
        if args.all
        else args.experiment_ids
    )
    failures = 0
    for experiment_id in ids:
        result = run_experiment(
            experiment_id,
            quick=not args.full,
            seed=args.seed,
            jobs=args.jobs,
            store=args.store,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir,
        )
        print(result.to_text())
        if args.csv:
            path = result.write_csv(args.csv)
            print(f"csv: {path}")
        print()
        if not result.passed():
            failures += 1
    if failures:
        print(f"{failures} experiment(s) had failing verdict entries")
    return 1 if failures else 0


def run_sweep_file(
    path: str,
    jobs: int | None = None,
    store: str | None = None,
) -> int:
    """Run one JSON sweep document and print its cell values as JSON."""
    from pathlib import Path

    from repro.sweep import SweepSpec, run_sweep

    sweep = SweepSpec.from_json(Path(path).read_text(encoding="utf-8"))

    result = run_sweep(sweep, jobs=jobs, store=store)
    failures = result.failures
    print(f"sweep: {path}", file=sys.stderr)
    print(
        f"cells: {len(result.cells)} "
        f"(executed {result.executed}, cached {result.from_cache}, "
        f"failed {len(failures)})",
        file=sys.stderr,
    )
    for cell_result in failures:
        print(
            f"FAILED cell {cell_result.index} "
            f"{dict(cell_result.cell.overrides)!r}:\n{cell_result.error}",
            file=sys.stderr,
        )
    if not failures:
        # The machine-readable payload (stdout): canonical grid order.
        print(json.dumps(result.values(), indent=2, default=str))
    return 1 if failures else 0


def run_scenario_file(
    path: str,
    seed: int | None = None,
    checkpoint_every: int | None = None,
    checkpoint_dir: str | None = None,
) -> int:
    """Run one JSON scenario document and print its report."""
    from repro.scenario import Simulation, load_scenario_document

    document = load_scenario_document(path)
    spec = document.spec
    # The file's own seed wins; the CLI seed fills in when absent.
    if spec.seed is None and seed is not None:
        spec = spec.with_(seed=seed)

    print(f"scenario: {path}")
    print(spec.to_json())
    simulation = Simulation(
        spec,
        observers=document.observers,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
    )
    simulation.run()
    return _report_session(simulation, flood=document.should_flood)


def run_restore(
    source: str,
    checkpoint_every: int | None = None,
    checkpoint_dir: str | None = None,
) -> int:
    """Resume a checkpointed session and run it to its spec horizon.

    Cadence checkpoints go to *checkpoint_dir*, else to the spec's or
    the ambient directory, else next to the checkpoint restored from.
    """
    from repro.scenario import Simulation
    from repro.service.options import current_service_options, use_service_options

    fallback = None
    if current_service_options().checkpoint_dir is None:
        path = Path(source)
        fallback = str(path if path.is_dir() else path.parent)
    with use_service_options(checkpoint_dir=fallback):
        simulation = Simulation.restore(
            source,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir,
        )
    print(f"restored: {simulation.restored_from}")
    print(
        f"resuming at t={simulation.network.now:g} "
        f"({simulation.rounds_completed} rounds already run, "
        f"horizon {simulation.spec.horizon:g})"
    )
    print(simulation.spec.to_json())
    simulation.run()
    return _report_session(
        simulation, flood=simulation.spec.protocol is not None
    )


def _report_session(simulation, flood: bool) -> int:
    """Print a finished session's report (shared by run and restore)."""
    flood_failed = False
    if flood:
        result = simulation.flood()
        status = (
            f"completed in {result.completion_round} rounds"
            if result.completed
            else ("extinct" if result.extinct else "incomplete")
        )
        flood_failed = not result.completed
        print(
            f"flooding [{simulation.spec.protocol}]: {status}; "
            f"informed {result.final_informed}/{result.final_network_size} "
            f"(peak {result.max_informed})"
        )
    observations = simulation.results()
    if observations:
        print("observers:")
        print(json.dumps(observations, indent=2, sort_keys=True, default=str))
    print(
        f"network: {simulation.network.num_alive()} alive at "
        f"t={simulation.network.now:g} ({simulation.rounds_completed} rounds run)"
    )
    # Mirror the experiment runner's contract: exit 1 when the scenario's
    # broadcast did not complete, so CI can gate on JSON scenarios.
    return 1 if flood_failed else 0


if __name__ == "__main__":
    sys.exit(main())
