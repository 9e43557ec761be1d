"""Parallel sweep execution with a deterministic, bit-exact merge.

The full evaluation is a sweep over **cells**: one cell is a (figure,
runner, parameters) tuple — a single deterministic simulation such as "the
fig3 bulk-TCP point at RTT 40 ms, TDF 10". Cells are independent by
construction (each runner builds its own ``Network``/``Simulator``, seeds
its own RNGs, and returns a picklable result dataclass), so they can
execute in any order, in any process, and produce bit-identical results.
This module exploits that:

* :class:`CellSpec` — a picklable description of one cell, enumerated per
  figure by :mod:`repro.harness.figures`;
* :func:`run_sweep` — the one way a figure runs: fans unique cells out
  over a ``ProcessPoolExecutor`` (``--jobs N``; ``--jobs 1`` runs them
  in-process, in spec order) and then **merges in spec order**: figures
  are assembled from the result mapping exactly as a sequential run would
  build them, so reports, acceptance checks, and CSV exports are
  byte-identical whatever the parallelism;
* :func:`apply_axes` — threads the sweep axes (``--trace``, ``--shards``,
  ``--fidelity``, ``--schedule``) into each cell whose runner's signature
  takes them (:func:`accepts`), and is the one place an axis is refused;
  :func:`add_axis_flags` / :func:`axis_kwargs` are the one command-line
  form of ``--shards``/``--fidelity``/``--schedule`` (``repro-figure``
  and ``repro-trace capture`` both use them);
* :class:`ResultCache` — a content-addressed on-disk cache
  (``.repro-cache/``), keyed by a hash of the cell spec plus the package
  version, so re-running ``all`` after an interrupt — or after editing
  one figure's parameters — re-executes only the stale cells;
* :class:`CellTiming` — per-cell wall-clock / peak-RSS / engine-profile
  accounting behind ``repro-figure --timings`` and ``--profile-engine``.

Determinism argument, in one paragraph: a cell's result depends only on
its spec (the runner's keyword arguments), never on wall-clock time,
scheduling, or sibling cells — the simulators inside are seeded and
event-driven, and the golden tests pin their outputs across processes.
Dedup/caching are keyed on a canonical serialisation of that spec, so two
equal specs (e.g. fig7's and fig8's shared web sweep) are *the same cell*
and may share one execution. Parallelism therefore changes wall-clock
only; ``tests/harness/test_runner.py`` pins ``--jobs N`` == ``--jobs 1``
bit-exact on representative figures.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import inspect
import os
import pickle
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..parallel.shard import DEFAULT_DELAY_SALT
from ..simnet.errors import ConfigurationError
from ..simnet.schedule import ScheduleSpec
from ..trace.spec import TraceSpec
from .report import FigureResult, Table

__all__ = [
    "AXES",
    "CellSpec",
    "CellTiming",
    "FigureCells",
    "ResultCache",
    "SweepOutcome",
    "accepts",
    "add_axis_flags",
    "apply_axes",
    "axis_kwargs",
    "canonical",
    "execute_cell",
    "run_sweep",
    "DEFAULT_CACHE_DIR",
]

#: Bump to invalidate every cached result (cache format / semantics change).
#: 2: BulkFlowResult gained ``trace_events`` (schema-1 pickles lack it).
#: 3: BitTorrentResult gained tracker/connection counters and
#:    ``trace_events``; swarm protocol changes (announce retry, Have
#:    suppression) invalidated old swarm results anyway.
#: 4: BulkFlowResult / BitTorrentResult gained ``shard_stats`` (schema-3
#:    pickles lack the field and would break attribute access on merge).
#: 5: cells gained the ``fidelity`` axis (hybrid fluid/packet engine);
#:    tokens for fidelity-capable runners now cover the new kwarg, and
#:    results carry ``fluid.*`` counters schema-4 pickles lack.
#: 6: BulkFlowResult / BitTorrentResult gained ``realtime_stats``
#:    (schema-5 pickles lack the field and would break attribute access).
CACHE_SCHEMA = 6

#: Default on-disk cache location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: An engine profile: :meth:`repro.stats.engineprof.EngineProfiler.snapshot`.
Profile = Dict[str, Any]


def _package_version() -> str:
    """The repro package version (lazy: the package may still be importing
    this module when it is first loaded)."""
    import repro

    return getattr(repro, "__version__", "0")


# ------------------------------------------------------------------ cell specs


@dataclass
class CellSpec:
    """One independently-executable unit of a figure sweep.

    ``figure_id``/``key`` address the result during merge; ``runner`` names
    an entry point in :data:`repro.harness.experiments.RUNNERS` and
    ``kwargs`` are its keyword arguments. Everything must be picklable
    (plain values or frozen dataclasses like ``NetworkProfile`` /
    ``ImpairmentSpec``) so a cell can cross a process boundary and be
    canonically hashed for the cache.
    """

    figure_id: str
    key: str
    runner: str
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def token(self) -> str:
        """Content hash identifying this cell's *work* (not its address).

        The figure id and key are deliberately excluded: two figures that
        enumerate an identical (runner, kwargs) pair — fig7 and fig8 share
        their web sweep — map to the same token and share one execution
        and one cache entry. The package version is mixed in so a release
        that changes simulation behaviour never reuses stale results.
        """
        payload = "|".join(
            (str(CACHE_SCHEMA), _package_version(), self.runner,
             canonical(self.kwargs))
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def canonical(value: Any) -> str:
    """A deterministic, content-complete serialisation for hashing.

    Supports the value types cell kwargs are built from: primitives,
    lists/tuples, string-keyed dicts (sorted), and dataclasses (fields in
    declaration order, recursing). Anything else is rejected loudly — an
    unhashable kwarg must not silently poison the cache key.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return repr(value)
    if isinstance(value, float):
        return repr(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        inner = ",".join(
            f"{f.name}={canonical(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"{type(value).__qualname__}({inner})"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical(item) for item in value) + "]"
    if isinstance(value, dict):
        items = sorted(value.items())
        return "{" + ",".join(f"{k!r}:{canonical(v)}" for k, v in items) + "}"
    raise TypeError(
        f"cell kwargs must be canonically hashable; got {type(value).__name__}"
    )


@dataclass(frozen=True)
class FigureCells:
    """A figure's two-phase form: enumerate cells, then assemble results.

    ``enumerate()`` returns the figure's :class:`CellSpec` list (taking the
    ``--impair`` string when the figure has that axis); ``assemble()``
    receives ``{cell key: runner result}`` and builds the
    :class:`FigureResult` exactly as the sequential path always did.
    Pure-computation figures (table1) enumerate zero cells.
    ``description`` says what the figure shows; its first line is the
    ``repro-figure --list`` entry.
    """

    enumerate: Callable[..., List[CellSpec]]
    assemble: Callable[..., FigureResult]
    description: str = ""

    @property
    def has_impair_axis(self) -> bool:
        """Whether ``enumerate`` takes an ``impair`` parameter — the rule
        :func:`accepts` applies to runners."""
        return "impair" in inspect.signature(self.enumerate).parameters

    def cells(self, impair: Optional[str] = None) -> List[CellSpec]:
        if self.has_impair_axis:
            return self.enumerate(impair)
        return self.enumerate()

    def build(self, results: Mapping[str, Any],
              impair: Optional[str] = None) -> FigureResult:
        if self.has_impair_axis:
            return self.assemble(results, impair)
        return self.assemble(results)


# ------------------------------------------------------------------ execution


def execute_cell(spec: CellSpec,
                 profile: bool = False) -> Tuple[Any, Optional[Profile]]:
    """Run one cell in this process; returns (result, engine profile).

    With ``profile=True`` the cell runs under its own
    :class:`~repro.stats.engineprof.EngineProfiler` and its
    :meth:`~repro.stats.engineprof.EngineProfiler.snapshot` is returned
    (profiling never perturbs results). Do not profile from inside an
    outer :func:`~repro.stats.engineprof.profiled` block — the engine has
    a single default-profiler slot.
    """
    from .experiments import RUNNERS

    try:
        fn = RUNNERS[spec.runner]
    except KeyError:
        raise KeyError(
            f"unknown cell runner {spec.runner!r}; known: {', '.join(RUNNERS)}"
        ) from None
    if not profile:
        return fn(**spec.kwargs), None
    from ..stats.engineprof import profiled

    with profiled() as profiler:
        value = fn(**spec.kwargs)
    snapshot = profiler.snapshot()
    # Sharded cells run their engines in worker processes the in-process
    # profiler cannot observe; the workers report their executed-event
    # counts through ``shard_stats``, so fold those in.
    for stats in getattr(value, "shard_stats", None) or []:
        snapshot["events"] += stats["events_processed"]
    return value, snapshot


def _peak_rss_kib() -> int:
    """This process' peak resident set size, in KiB (0 if unavailable)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - reported in bytes
        peak //= 1024
    return int(peak)


def _pool_task(spec: CellSpec,
               profile: bool) -> Tuple[Any, float, int, Optional[Profile]]:
    """Timed cell execution: (result, wall s, peak RSS KiB, profile).

    Top-level so a pool worker can unpickle it; ``--jobs 1`` calls it
    in-process.
    """
    started = time.perf_counter()
    value, profile_snapshot = execute_cell(spec, profile=profile)
    wall = time.perf_counter() - started
    return value, wall, _peak_rss_kib(), profile_snapshot


# --------------------------------------------------------------------- cache


class ResultCache:
    """Content-addressed pickle cache for cell results.

    One file per token under ``directory``; writes are atomic
    (tmp + rename) so an interrupted sweep never leaves a truncated entry
    — a corrupt or unreadable file is simply a miss. The token already
    encodes the cache schema and package version; nothing else is trusted.
    """

    def __init__(self, directory: str = DEFAULT_CACHE_DIR) -> None:
        self.directory = str(directory)
        self.hits = 0
        self.misses = 0

    def _path(self, token: str) -> str:
        return os.path.join(self.directory, token + ".pkl")

    def load(self, token: str) -> Tuple[bool, Any]:
        """(hit?, value). Never raises on a bad entry — it's a miss."""
        try:
            with open(self._path(token), "rb") as handle:
                value = pickle.load(handle)
        except (OSError, pickle.PickleError, EOFError, AttributeError,
                ImportError, IndexError):
            self.misses += 1
            return False, None
        self.hits += 1
        return True, value

    def store(self, token: str, value: Any) -> None:
        os.makedirs(self.directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, self._path(token))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


# --------------------------------------------------------------------- sweep


@dataclass
class CellTiming:
    """Per-cell accounting surfaced by ``repro-figure --timings``."""

    figure_id: str
    key: str
    token: str
    cached: bool
    wall_s: float = 0.0
    #: Peak RSS of the executing process *at cell completion*, KiB. With a
    #: long-lived pool worker this is a high-water mark, not a per-cell
    #: allocation — it answers "how big did the worker get", which is the
    #: capacity-planning question.
    peak_rss_kib: int = 0
    #: The cell's :meth:`~repro.stats.engineprof.EngineProfiler.snapshot`
    #: (None when not profiled or cached).
    profile: Optional[Profile] = None
    #: Flight-recorder events the cell captured (None unless traced).
    recorder_events: Optional[int] = None

    @property
    def events(self) -> Optional[int]:
        """Engine events the cell executed (None when not profiled)."""
        return None if self.profile is None else self.profile["events"]


@dataclass
class SweepOutcome:
    """Everything ``run_sweep`` produced, already merged in spec order."""

    figures: List[FigureResult]
    timings: List[CellTiming]
    cells_total: int
    cells_cached: int
    cells_executed: int
    jobs: int
    wall_s: float
    #: Per traced cell, ``(figure_id, key, trace events)`` in spec order —
    #: the deterministic merge order, independent of ``--jobs``.
    traces: List[Tuple[str, str, List[Any]]] = field(default_factory=list)
    #: Per figure id, with ``collect_timings``: the merged engine profile
    #: of the figure's executed cells (unique tokens, spec order; cached
    #: cells excluded).
    profiles: Dict[str, Profile] = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(figure.all_passed for figure in self.figures)

    def cache_summary(self) -> str:
        """One stable line for logs and the CI cache-hit smoke check."""
        if self.cells_total == 0:
            return "cells: 0 unique"
        share = 100.0 * self.cells_cached / self.cells_total
        return (
            f"cells: {self.cells_total} unique, {self.cells_cached} cached "
            f"({share:.1f}%), {self.cells_executed} executed"
        )

    def timings_table(self) -> str:
        """The per-cell timing table (spec order), rendered."""
        traced = any(t.recorder_events is not None for t in self.timings)
        columns = ["figure", "cell", "wall (s)", "peak RSS (MiB)", "events"]
        if traced:
            columns.append("recorder")
        columns.append("source")
        table = Table(
            columns,
            title=f"Per-cell timings ({self.jobs} job(s), "
                  f"{self.wall_s:.1f} s sweep wall)",
        )
        for timing in self.timings:
            row = [
                timing.figure_id,
                timing.key,
                f"{timing.wall_s:.2f}" if not timing.cached else "-",
                f"{timing.peak_rss_kib / 1024:.1f}" if timing.peak_rss_kib
                else "-",
                f"{timing.events:,}" if timing.events is not None else "-",
            ]
            if traced:
                row.append(
                    f"{timing.recorder_events:,}"
                    if timing.recorder_events is not None else "-"
                )
            row.append("cache" if timing.cached else "run")
            table.add_row(*row)
        executed = [t for t in self.timings if not t.cached]
        events = sum(t.events or 0 for t in executed)
        lines = [table.render()]
        if executed:
            busy = sum(t.wall_s for t in executed)
            lines.append(
                f"  executed {len(executed)} cell(s): {busy:.1f} s of "
                f"simulation across {self.jobs} job(s), "
                f"{events:,} engine events"
            )
        return "\n".join(lines)


#: The sweep axes, each a runner keyword: axis -> (the value that leaves
#: a cell as it is, the adjective a refusal uses).
AXES: Dict[str, Tuple[Any, str]] = {
    "trace": (None, "traceable"),
    "shards": (1, "shardable"),
    "fidelity": ("packet", "fluid-capable"),
    "schedule": (None, "schedule-capable"),
    "delay_salt": (None, "saltable"),
}


def add_axis_flags(parser: argparse.ArgumentParser) -> None:
    """Declare the runner-axis flags ``--shards``, ``--fidelity`` and
    ``--schedule``; :func:`axis_kwargs` reads them back."""
    parser.add_argument(
        "--shards", type=int, metavar="N", default=1,
        help="split each shardable cell across N worker processes with the "
             "conservative sharded engine (default: 1 = single-process); "
             "each cell then uses N processes, so budget jobs*shards "
             "against the core count",
    )
    parser.add_argument(
        "--fidelity", choices=("packet", "hybrid"), default="packet",
        help="engine fidelity for fluid-capable cells: 'packet' (default, "
             "bit-exact golden behaviour) or 'hybrid' (steady-state bulk "
             "flows advance in a coarse-stepped fluid model and fall back "
             "to packet level around loss, startup, tail and impairments; "
             "statistically equivalent, far fewer engine events)",
    )
    parser.add_argument(
        "--schedule", metavar="SPEC",
        help="drive every schedule-capable cell's dynamic link from a "
             "virtual-time schedule: kind[:key=value,...] with kind one "
             "of leo/csv — e.g. 'leo:period=2.0,count=3,outage=0.05,"
             "amp=0.5,dip=0.6' (synthesized handovers) or "
             "'csv:path=traces/starlink.csv' (rows "
             "t_s,delay_s[,bandwidth_bps[,up]])",
    )


def axis_kwargs(args: argparse.Namespace) -> Dict[str, Any]:
    """The :func:`apply_axes` keywords for the flags of
    :func:`add_axis_flags`; a bad value raises one-line ``ValueError``."""
    if args.shards < 1:
        raise ValueError(f"--shards must be >= 1: {args.shards}")
    schedule = (None if args.schedule is None
                else ScheduleSpec.parse(args.schedule))
    return {"shards": args.shards, "fidelity": args.fidelity,
            "schedule": schedule}


@functools.lru_cache(maxsize=None)
def accepts(runner: str, axis: str) -> bool:
    """Whether the runner named ``runner`` takes the keyword ``axis``.

    The runner's own signature is the one source of axis capability. It
    is read when a sweep or capture is planned, once per pair, and never
    on a runner's call path.
    """
    from .experiments import RUNNERS

    return axis in inspect.signature(RUNNERS[runner]).parameters


def apply_axes(cells: List[CellSpec], label: str, every_cell: bool = False,
               **axes: Any) -> List[CellSpec]:
    """Thread each requested axis into every cell whose runner takes it.

    ``axes`` maps names from :data:`AXES` to values; an axis at its
    neutral value is not requested. A rewritten cell is a *different*
    cell from its plain twin (the token covers kwargs), so traced,
    sharded, hybrid or scheduled results never alias plain cache
    entries. A value the cell already carries is overridden (ext6 bakes
    in its own schedule; ``--schedule`` replays the figure against the
    user's). A sharded cell whose runner takes ``delay_salt`` and names
    none runs with :data:`~repro.parallel.shard.DEFAULT_DELAY_SALT`.

    Every axis refusal is raised here, as one :class:`ConfigurationError`
    naming, per axis, what could not take it. A sweep refuses an axis
    that no cell of the figure ``label`` takes; ``every_cell=True``
    (``repro-trace capture``) also refuses an axis any cell cannot take.
    """
    from .experiments import RUNNERS

    requested = {axis: value for axis, value in axes.items()
                 if value != AXES[axis][0]}
    refused: Dict[str, List[str]] = {axis: [] for axis in requested}
    out: List[CellSpec] = []
    for spec in cells:
        kwargs = dict(spec.kwargs)
        for axis, value in requested.items():
            if accepts(spec.runner, axis):
                kwargs[axis] = value
            else:
                refused[axis].append(spec.key)
        if ("shards" in requested and accepts(spec.runner, "shards")
                and accepts(spec.runner, "delay_salt")):
            kwargs.setdefault("delay_salt", DEFAULT_DELAY_SALT)
        out.append(CellSpec(spec.figure_id, spec.key, spec.runner, kwargs))
    problems = []
    for axis, keys in refused.items():
        word = AXES[axis][1]
        if every_cell and keys:
            problem = f"cell(s) not {word}: {', '.join(keys)}"
        elif len(keys) == len(cells):
            problem = f"experiment {label!r} has no {word} cells"
        else:
            continue
        capable = ", ".join(sorted(r for r in RUNNERS if accepts(r, axis)))
        problems.append(f"{problem} ({word} runners: {capable})")
    if problems:
        raise ConfigurationError("; ".join(problems))
    return out


def _recorder_events(spec: CellSpec, value: Any) -> Optional[int]:
    """Captured-event count for a traced cell's result (None if untraced)."""
    if spec.kwargs.get("trace") is None:
        return None
    return len(getattr(value, "trace_events", []) or [])


def _resolve_jobs(jobs: Optional[int]) -> int:
    if jobs is None:
        return os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"--jobs must be >= 1: {jobs}")
    return jobs


def run_sweep(
    figure_ids: List[str],
    jobs: Optional[int] = None,
    impair: Optional[str] = None,
    cache_dir: Optional[str] = DEFAULT_CACHE_DIR,
    collect_timings: bool = False,
    trace: Optional[TraceSpec] = None,
    shards: int = 1,
    fidelity: str = "packet",
    schedule: Optional[Any] = None,
) -> SweepOutcome:
    """Execute figures as a deduplicated cell sweep and merge in spec order.

    ``jobs=None`` uses ``os.cpu_count()``; ``jobs=1`` runs every cell
    sequentially in this process (no pool, no pickling). ``cache_dir=None``
    disables the on-disk cache. The returned figures are in ``figure_ids``
    order and byte-identical to a sequential run. ``collect_timings``
    profiles every executed cell and merges each figure's profiles into
    ``SweepOutcome.profiles``; a cell two figures share counts in both.

    ``trace``, ``shards``, ``fidelity`` and ``schedule`` are the sweep
    axes, threaded into each cell by :func:`apply_axes`; a figure where
    no cell takes a requested axis is refused before any cell runs.
    Traced recordings come back in ``SweepOutcome.traces`` in spec order
    — worker completion order never leaks into the merge, so the traces
    are ``--jobs``-independent. A sharded cell occupies ``shards``
    processes, multiplying with ``--jobs``: budget ``jobs * shards``
    against the machine's cores. Hybrid cells are statistically
    equivalent to packet level (gated by
    :func:`repro.harness.validate.compare_metrics`), not bit-identical.
    """
    from .figures import CELL_MODEL

    started = time.perf_counter()
    jobs = _resolve_jobs(jobs)
    per_figure: Dict[str, List[CellSpec]] = {}
    unique: Dict[str, CellSpec] = {}
    for figure_id in figure_ids:
        try:
            model = CELL_MODEL[figure_id]
        except KeyError:
            raise KeyError(
                f"unknown figure {figure_id!r}; known: "
                + ", ".join(CELL_MODEL)
            ) from None
        if impair is not None and not model.has_impair_axis:
            raise ValueError(f"experiment {figure_id!r} has no --impair axis")
        cells = apply_axes(model.cells(impair), figure_id, trace=trace,
                           shards=shards, fidelity=fidelity,
                           schedule=schedule)
        per_figure[figure_id] = cells
        for spec in cells:
            unique.setdefault(spec.token(), spec)

    cache = ResultCache(cache_dir) if cache_dir is not None else None
    results: Dict[str, Any] = {}
    timing_by_token: Dict[str, CellTiming] = {}
    pending: List[CellSpec] = []
    for token, spec in unique.items():
        if cache is not None:
            hit, value = cache.load(token)
            if hit:
                results[token] = value
                timing_by_token[token] = CellTiming(
                    spec.figure_id, spec.key, token, cached=True,
                    recorder_events=_recorder_events(spec, value),
                )
                continue
        pending.append(spec)

    def finish(spec: CellSpec, value: Any, wall: float, rss: int,
               profile: Optional[Profile]) -> None:
        token = spec.token()
        results[token] = value
        timing_by_token[token] = CellTiming(
            spec.figure_id, spec.key, token, cached=False, wall_s=wall,
            peak_rss_kib=rss, profile=profile,
            recorder_events=_recorder_events(spec, value),
        )
        if cache is not None:
            cache.store(token, value)

    if pending and jobs > 1:
        # Submission in spec order; completion order is irrelevant because
        # results are merged by token.
        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            futures = {
                pool.submit(_pool_task, spec, collect_timings): spec
                for spec in pending
            }
            for future in as_completed(futures):
                finish(futures[future], *future.result())
    else:
        for spec in pending:
            finish(spec, *_pool_task(spec, collect_timings))

    figures = [
        CELL_MODEL[figure_id].build(
            {spec.key: results[spec.token()] for spec in per_figure[figure_id]},
            impair,
        )
        for figure_id in figure_ids
    ]
    timings = [timing_by_token[token] for token in unique]
    executed = sum(1 for t in timings if not t.cached)
    traces: List[Tuple[str, str, List[Any]]] = []
    if trace is not None:
        # Deterministic merge, same shape as the figures: per-figure spec
        # order, whatever order the pool completed cells in.
        for figure_id in figure_ids:
            for spec in per_figure[figure_id]:
                if spec.kwargs.get("trace") is not None:
                    value = results[spec.token()]
                    traces.append((
                        figure_id, spec.key,
                        list(getattr(value, "trace_events", []) or []),
                    ))
    profiles: Dict[str, Profile] = {}
    if collect_timings:
        from ..stats.engineprof import merge

        for figure_id in figure_ids:
            tokens = dict.fromkeys(spec.token()
                                   for spec in per_figure[figure_id])
            profiles[figure_id] = merge(
                timing_by_token[token].profile for token in tokens
                if not timing_by_token[token].cached
            )
    return SweepOutcome(
        figures=figures,
        timings=timings,
        cells_total=len(unique),
        cells_cached=len(unique) - executed,
        cells_executed=executed,
        jobs=jobs,
        wall_s=time.perf_counter() - started,
        traces=traces,
        profiles=profiles,
    )
