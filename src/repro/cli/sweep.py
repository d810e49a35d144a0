"""``sweep`` subcommands: the fleet lifecycle from a terminal.

Thin argparse adapters over :mod:`repro.api.sweeps` — one subcommand
per API call:

``sweep run SPEC --store DIR [--workers N]``
    :func:`~repro.api.run_fleet`: submit, drain with N local worker
    processes, reduce, write the artifact.  ``--workers 1`` is the
    sequential baseline every other execution shape must match byte
    for byte.

``sweep worker SPEC --store DIR``
    :func:`~repro.api.run_worker`: claim and execute pending cells
    until none are claimable.  Start one per terminal/host against a
    shared store; each prints what it did.

``sweep reduce SPEC --store DIR [--timeout S]``
    :func:`~repro.api.collect`: poll the store until the grid is
    complete, then write ``<store>/sweeps/<key>.json`` and print its
    digest.

``sweep status SPEC --store DIR``
    :func:`~repro.api.sweep_status`: a read-only census (exit 0 when
    complete, 1 while cells remain — pollable from shell loops).

``sweep gc --store DIR [--yes]``
    :func:`~repro.api.gc_store`: prune result cells no submitted
    ``sweeps/*.spec.json`` can reach.  Dry-run by default (prints the
    JSON summary of what *would* go); ``--yes`` deletes and reports
    the reclaimed bytes.

``SPEC`` is either a JSON sweep document (a file path) or the bare
64-hex sweep key of an already-submitted sweep — workers on other
hosts need only the key and the shared store.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from repro.api import (
    DEFAULT_CLAIM_BATCH,
    collect,
    gc_store,
    load_submission,
    run_fleet,
    run_worker,
    sweep_status,
)
from repro.errors import ConfigurationError, SweepError
from repro.sweep import DEFAULT_CLAIM_TTL, SweepSpec
from repro.sweep.artifact import artifact_path

_KEY_RE = re.compile(r"[0-9a-f]{64}")


def _resolve_spec(source: str) -> SweepSpec | str:
    """A SPEC operand: an on-disk sweep document, or a bare sweep key."""
    path = Path(source)
    if path.exists():
        return SweepSpec.from_json(path.read_text(encoding="utf-8"))
    if _KEY_RE.fullmatch(source):
        return source  # the API rehydrates it via load_submission
    raise SweepError(
        f"SPEC {source!r} is neither a readable sweep document nor a "
        "64-hex sweep key"
    )


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "spec",
        metavar="SPEC",
        help="JSON sweep document, or the 64-hex key of a submitted sweep",
    )
    sub.add_argument(
        "--store",
        metavar="DIR",
        required=True,
        help="shared content-addressed result store (all hosts point here)",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli sweep",
        description="Fleet-scale sweep execution against a shared store.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_p = commands.add_parser(
        "run", help="submit, execute with N local workers, and reduce"
    )
    _add_common(run_p)
    run_p.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="local worker processes (default 1 = sequential)",
    )
    run_p.add_argument(
        "--ttl", type=float, default=DEFAULT_CLAIM_TTL, metavar="S",
        help="cell claim time-to-live in seconds "
        f"(default {DEFAULT_CLAIM_TTL:g})",
    )
    run_p.add_argument(
        "--values", action="store_true",
        help="print the cell values (canonical order) instead of the "
        "artifact summary",
    )
    run_p.add_argument(
        "--claim-batch", type=int, default=DEFAULT_CLAIM_BATCH, metavar="K",
        help="cells each worker claims per grid scan "
        f"(default {DEFAULT_CLAIM_BATCH})",
    )

    worker_p = commands.add_parser(
        "worker", help="claim and execute pending cells of one sweep"
    )
    _add_common(worker_p)
    worker_p.add_argument(
        "--ttl", type=float, default=DEFAULT_CLAIM_TTL, metavar="S",
        help="claim time-to-live; must exceed the slowest cell "
        f"(default {DEFAULT_CLAIM_TTL:g})",
    )
    worker_p.add_argument(
        "--max-cells", type=int, default=None, metavar="N",
        help="execute at most N cells, then return (preemptible workers)",
    )
    worker_p.add_argument(
        "--wait", type=float, default=None, metavar="S",
        help="when nothing is claimable but cells remain, keep rescanning "
        "for up to S seconds (takes over expired claims) instead of "
        "returning immediately",
    )
    worker_p.add_argument(
        "--host", default=None, metavar="ID",
        help="claim owner identity (default: hostname:pid)",
    )
    worker_p.add_argument(
        "--claim-batch", type=int, default=DEFAULT_CLAIM_BATCH, metavar="K",
        help="cells claimed per grid scan — bulk claims amortize store "
        f"scans across a fleet (default {DEFAULT_CLAIM_BATCH})",
    )

    reduce_p = commands.add_parser(
        "reduce", help="wait for a complete grid, then write the artifact"
    )
    _add_common(reduce_p)
    reduce_p.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="give up after S seconds of polling (default: wait forever; "
        "0 demands completeness right now)",
    )
    reduce_p.add_argument(
        "--poll", type=float, default=0.5, metavar="S",
        help="seconds between store scans while waiting (default 0.5)",
    )

    status_p = commands.add_parser(
        "status", help="report done/claimed/pending cell counts"
    )
    _add_common(status_p)
    status_p.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the census as JSON on stdout",
    )

    gc_p = commands.add_parser(
        "gc", help="prune cells unreachable from any submitted sweep"
    )
    gc_p.add_argument(
        "--store",
        metavar="DIR",
        required=True,
        help="shared content-addressed result store to clean",
    )
    gc_p.add_argument(
        "--yes", action="store_true",
        help="actually delete (default: dry-run, print what would go)",
    )

    args = parser.parse_args(argv)
    try:
        if args.command == "gc":
            return _cmd_gc(args)
        spec = _resolve_spec(args.spec)
        return _COMMANDS[args.command](args, spec)
    except (SweepError, ConfigurationError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _cmd_run(args: argparse.Namespace, spec: SweepSpec | str) -> int:
    sweep = load_submission(args.store, spec).sweep if isinstance(spec, str) else spec
    result = run_fleet(
        sweep,
        args.store,
        workers=args.workers,
        ttl=args.ttl,
        claim_batch=args.claim_batch,
    )
    print(
        f"sweep {result.key[:12]}… complete: {len(result.values)} cells, "
        f"{args.workers} worker(s)",
        file=sys.stderr,
    )
    if args.values:
        print(json.dumps(list(result.values), indent=2))
    else:
        print(
            json.dumps(
                {
                    "key": result.key,
                    "digest": result.digest,
                    "artifact": str(artifact_path(args.store, result.key)),
                    "cells": len(result.values),
                },
                indent=2,
            )
        )
    return 0


def _cmd_worker(args: argparse.Namespace, spec: SweepSpec | str) -> int:
    report = run_worker(
        args.store,
        spec,
        host=args.host,
        ttl=args.ttl,
        max_cells=args.max_cells,
        wait=args.wait,
        claim_batch=args.claim_batch,
    )
    print(
        f"worker {report.host} on sweep {report.key[:12]}…: "
        f"executed {len(report.executed)}, cached {report.cached}, "
        f"lost {report.lost_claims} claim race(s), "
        f"{len(report.failures)} failure(s) in {report.elapsed:.2f}s",
        file=sys.stderr,
    )
    for index, error in report.failures:
        print(f"FAILED cell {index}:\n{error}", file=sys.stderr)
    return 1 if report.failures else 0


def _cmd_reduce(args: argparse.Namespace, spec: SweepSpec | str) -> int:
    result = collect(
        args.store,
        spec,
        timeout=args.timeout,
        poll=args.poll,
    )
    print(
        json.dumps(
            {
                "key": result.key,
                "digest": result.digest,
                "artifact": str(artifact_path(args.store, result.key)),
                "cells": len(result.values),
            },
            indent=2,
        )
    )
    return 0


def _cmd_status(args: argparse.Namespace, spec: SweepSpec | str) -> int:
    status = sweep_status(args.store, spec)
    if args.as_json:
        print(
            json.dumps(
                {
                    "key": status.key,
                    "total": status.total,
                    "done": status.done,
                    "claimed": status.claimed,
                    "pending": status.pending,
                    "complete": status.complete,
                },
                indent=2,
            )
        )
    else:
        print(
            f"sweep {status.key[:12]}…: {status.done}/{status.total} done, "
            f"{status.claimed} claimed, {status.pending} pending"
        )
    return 0 if status.complete else 1


def _cmd_gc(args: argparse.Namespace) -> int:
    summary = gc_store(args.store, yes=args.yes)
    if not args.yes and summary["unreachable_cells"]:
        print(
            f"dry-run: {summary['unreachable_cells']} unreachable cell(s), "
            f"{summary['reclaimed_bytes']} bytes — pass --yes to delete",
            file=sys.stderr,
        )
    print(json.dumps(summary, indent=2))
    return 0


# gc is dispatched before SPEC resolution (it has no SPEC operand).
_COMMANDS = {
    "run": _cmd_run,
    "worker": _cmd_worker,
    "reduce": _cmd_reduce,
    "status": _cmd_status,
}


if __name__ == "__main__":
    sys.exit(main())
