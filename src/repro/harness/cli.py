"""``repro-figure`` — run paper experiments from the command line.

Examples::

    repro-figure --list
    repro-figure fig3
    repro-figure all --jobs 4 --timings
    repro-figure all --jobs 1 --no-cache   # the strictly sequential path

Figures are executed as a deduplicated cell sweep
(:mod:`repro.harness.runner`): by default cells fan out over
``os.cpu_count()`` worker processes and completed cells are cached under
``.repro-cache/``, so an interrupted ``all`` resumes where it stopped.
Output is merged in spec order and is byte-identical whatever ``--jobs``
is. ``--profile-engine`` profiles each cell where it runs and appends
each figure's merged profile to its report; it composes with every other
flag but bypasses the result cache, since a cached cell has no profile.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .figures import CELL_MODEL, figure_ids
from .runner import DEFAULT_CACHE_DIR, add_axis_flags, axis_kwargs, run_sweep

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-figure",
        description=(
            "Reproduce the evaluation of 'To Infinity and Beyond: "
            "Time-Warped Network Emulation' (NSDI 2006)."
        ),
    )
    parser.add_argument(
        "figures",
        nargs="*",
        help="experiment ids to run (e.g. fig3 table1), or 'all'",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments"
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        help="also write each experiment's table to DIR/<id>.csv",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        default=None,
        help="worker processes for the cell sweep (default: cpu count; "
             "1 = run every cell in-process, no pool)",
    )
    parser.add_argument(
        "--timings",
        action="store_true",
        help="print a per-cell wall-clock / peak-RSS / engine-event table "
             "after the sweep",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=DEFAULT_CACHE_DIR,
        help=f"content-addressed result cache (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the result cache",
    )
    parser.add_argument(
        "--profile-engine",
        action="store_true",
        help="append an event-engine profile (events/sec, heap stats, "
             "per-component histogram) to each experiment's report; "
             "implies --no-cache",
    )
    parser.add_argument(
        "--impair",
        metavar="SPEC",
        help="impairment spec for experiments with an impairment axis "
             "(e.g. ext4): kind[:key=value,...] — "
             "'bernoulli:rate=0.01,seed=7', 'gilbert:rate=0.01,burst=4', "
             "'reorder:rate=0.05,hold=0.002', 'duplicate:rate=0.01', "
             "'corrupt:rate=0.01'; outages and delay steps are "
             "--schedule, not --impair",
    )
    parser.add_argument(
        "--trace",
        metavar="SPEC",
        help="attach a flight recorder to every traceable cell: "
             "point[:key=value,...] with point one of bottleneck/reverse/"
             "receiver — e.g. 'bottleneck:kinds=tx+rx+drop,tcp=1,"
             "capacity=65536'; recordings land in --trace-dir as one "
             "JSONL per figure",
    )
    parser.add_argument(
        "--trace-dir",
        metavar="DIR",
        default="traces",
        help="directory for --trace recordings (default: traces)",
    )
    add_axis_flags(parser)
    return parser


def _report(result, args: argparse.Namespace) -> int:
    """Print one figure (and write its CSV); 1 if a check failed, else 0."""
    print(result.render())
    if args.csv:
        os.makedirs(args.csv, exist_ok=True)
        print(f"  csv: {result.write_csv(args.csv)}")
    print()
    return 0 if result.all_passed else 1


def _parse_specs(args: argparse.Namespace):
    """Parse every axis flag up front: the trace spec and the
    :func:`~repro.harness.runner.axis_kwargs`.

    ``--impair`` is only validated here (figures take it as a string),
    so a malformed spec of any kind fails before a cell runs.
    """
    from ..simnet.impairments import ImpairmentSpec
    from ..trace.spec import TraceSpec

    axes = axis_kwargs(args)
    if args.impair is not None:
        ImpairmentSpec.parse(args.impair)
    trace = None if args.trace is None else TraceSpec.parse(args.trace)
    return trace, axes


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.list or not args.figures:
        print("available experiments:")
        for figure_id, model in CELL_MODEL.items():
            summary = model.description.strip().partition("\n")[0]
            print(f"  {figure_id:10s} {summary}")
        return 0
    requested = figure_ids() if args.figures == ["all"] else args.figures
    for figure_id in requested:
        if figure_id not in CELL_MODEL:
            print(f"unknown figure {figure_id!r}; use --list", file=sys.stderr)
            return 2
    # A cached cell has no profile, so --profile-engine runs every cell.
    use_cache = not (args.no_cache or args.profile_engine)
    cache_dir = args.cache_dir if use_cache else None
    try:
        trace_spec, axes = _parse_specs(args)
        outcome = run_sweep(
            requested,
            jobs=args.jobs,
            impair=args.impair,
            cache_dir=cache_dir,
            collect_timings=args.timings or args.profile_engine,
            trace=trace_spec,
            **axes,
        )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    if args.profile_engine:
        from ..stats.engineprof import render

        for result in outcome.figures:
            result.engine_profile = render(outcome.profiles[result.figure_id])
    failures = sum(_report(result, args) for result in outcome.figures)
    if trace_spec is not None:
        from ..trace.events import save_jsonl

        os.makedirs(args.trace_dir, exist_ok=True)
        by_figure: dict = {}
        for figure_id, key, events in outcome.traces:
            by_figure.setdefault(figure_id, []).append((key, events))
        for figure_id, cells in by_figure.items():
            path = os.path.join(args.trace_dir, f"{figure_id}.jsonl")
            merged = [event for _, cell_events in cells
                      for event in cell_events]
            extra = [{"cell": key} for key, cell_events in cells
                     for _ in cell_events]
            save_jsonl(merged, path, extra=extra)
            print(f"  trace: {path} ({len(merged)} events, "
                  f"{len(cells)} cell(s))")
    # Deliberately free of wall time and job count: stdout is byte-identical
    # for any --jobs value (those diagnostics live in the --timings table).
    print(outcome.cache_summary())
    if args.timings:
        print()
        print(outcome.timings_table())
    if failures:
        print(f"{failures} experiment(s) had failing checks", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
