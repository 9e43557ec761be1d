"""Engine profiling — events/sec, heap hygiene, per-component histograms.

Every figure of the paper is regenerated by replaying millions of events
through :class:`repro.simnet.engine.Simulator`, so engine throughput is the
lever on end-to-end benchmark wall-clock. This module makes that throughput
(and the heap-hygiene machinery that protects it) observable:

* **events/sec** — executed events per wall-clock second while profiled;
* **heap statistics** — live events, raw heap length, peak heap length,
  compaction sweeps, dead entries reaped (aggregated over every simulator
  the profiler is attached to);
* **per-component histogram** — executed events bucketed by callback
  (``Interface._finish_transmit``, ``TcpSocket._on_rto``, …), which is how
  a regression announces *where* the event budget went.

Attach explicitly to one simulator::

    profiler = EngineProfiler()
    sim.attach_profiler(profiler)
    sim.run()
    print(profiler.render())

or profile everything an experiment runner builds internally::

    with profiled() as profiler:
        run_figure("fig3")
    print(profiler.render())

Profiling adds one branch plus one dict update per executed event while
attached, and exactly nothing when not — figures are bit-identical with
and without it (the profiler never touches event order or timing).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Mapping, Optional

from ..simnet.engine import Simulator, set_default_profiler

__all__ = ["EngineProfiler", "NAMESPACES", "merge", "profiled", "render"]

#: Counter namespaces reported in their own sections, in render order:
#: (snapshot key, counter prefix, render heading). Each is published into
#: a simulator's ``counters`` by the subsystem that owns it and is empty
#: when that subsystem did not run:
#:
#: * ``shard.`` — the sharded engine's barrier accounting (full rounds,
#:   lookahead windows and ``windows_per_round``, cross-shard messages,
#:   blocked time), published per worker when a sharded run completes
#:   (:meth:`repro.parallel.shard.ShardContext.stats`);
#: * ``fluid.`` — the hybrid engine's mode transitions (``entries`` /
#:   ``exits`` / per-reason ``exit.*``), fallbacks, ``steps``,
#:   ``events_saved`` and byte-conservation ledger
#:   (:class:`repro.simnet.fluid.FluidManager`);
#: * ``realtime.`` — the wall-clock driver's pacing health (events
#:   paced, ``deadline_miss``, ``max_slip_ms``, ``busy_frac``, catch-up
#:   re-anchors, live-ingress injections)
#:   (:class:`repro.realtime.driver.RealtimeDriver`).
#:
#: Every other counter (drop taxonomy, TCP accounting) renders under
#: "counters".
NAMESPACES = (
    ("shard", "shard.", "shard barrier"),
    ("fluid", "fluid.", "fluid fast path"),
    ("realtime", "realtime.", "realtime pacing"),
)


class EngineProfiler:
    """Aggregating event-loop profiler; attach via ``sim.attach_profiler``.

    One profiler may observe several simulators (a figure sweep constructs
    one per run); counters aggregate across all of them. Attaching mid-
    ``run()`` takes effect at the next ``run()`` call — the loop binds its
    profiler once at entry.
    """

    def __init__(self) -> None:
        self.events = 0
        #: Executed events keyed by callback qualname.
        self.by_component: Dict[str, int] = {}
        self.sims: List[Simulator] = []
        self._t0 = time.perf_counter()

    # Called by the engine ------------------------------------------------

    def on_attach(self, sim: Simulator) -> None:
        """Engine callback when attached to a simulator."""
        if sim not in self.sims:
            self.sims.append(sim)

    def _record(self, fn) -> None:
        """Engine callback per executed event, given the event's callback
        (hot when attached)."""
        self.events += 1
        key = getattr(fn, "__qualname__", repr(fn))
        by = self.by_component
        by[key] = by.get(key, 0) + 1

    # Reporting ------------------------------------------------------------

    @property
    def wall_s(self) -> float:
        """Wall-clock seconds since the profiler was created."""
        return time.perf_counter() - self._t0

    def counters(self) -> Dict[str, int]:
        """Named engine counters (drop taxonomy, TCP accounting) merged
        across every attached simulator, sorted by key for stable output."""
        merged: Dict[str, int] = {}
        for sim in self.sims:
            _add(merged, sim.counters)
        return dict(sorted(merged.items()))

    def namespace(self, prefix: str) -> Dict[str, int]:
        """The counters under ``prefix`` (e.g. ``"fluid."``), prefix cut."""
        return _namespace(self.counters(), prefix)

    def snapshot(self) -> Dict[str, object]:
        """All counters as one plain dict (JSON-friendly).

        ``by_component`` is in first-seen order; only :func:`render` ranks
        it, so :func:`merge` of per-run snapshots breaks count ties
        exactly as one profiler spanning the same runs would.
        """
        sims = self.sims
        totals = {
            "events": self.events,
            "wall_s": self.wall_s,
            "simulators": len(sims),
            "live_events": sum(sim.pending() for sim in sims),
            "heap_len": sum(sim.heap_len() for sim in sims),
            "compactions": sum(sim.compactions for sim in sims),
            "dead_entries_reaped": sum(
                sim.dead_entries_reaped for sim in sims
            ),
        }
        max_heap_len = max((sim.max_heap_len for sim in sims), default=0)
        return _snapshot(totals, max_heap_len, self.counters(),
                         dict(self.by_component))

    def render(self, top: int = 12) -> str:
        """Human-readable profile (the harness appends this to reports)."""
        return render(self.snapshot(), top)


#: Snapshot keys that add up across runs.
_SUMMED = ("events", "wall_s", "simulators", "live_events", "heap_len",
           "compactions", "dead_entries_reaped")


def _add(into: Dict[str, int], counts: Mapping[str, int]) -> None:
    for key, value in counts.items():
        into[key] = into.get(key, 0) + value


def _namespace(counters: Mapping[str, int], prefix: str) -> Dict[str, int]:
    return {
        key[len(prefix):]: value
        for key, value in counters.items()
        if key.startswith(prefix)
    }


def _snapshot(totals: Mapping[str, float], max_heap_len: int,
              counters: Dict[str, int],
              by_component: Dict[str, int]) -> Dict[str, object]:
    """The snapshot dict, keys in their pinned order."""
    snap: Dict[str, object] = {
        key: _namespace(counters, prefix) for key, prefix, _ in NAMESPACES
    }
    events, wall = totals["events"], totals["wall_s"]
    snap.update({
        "events": events,
        "wall_s": wall,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "simulators": totals["simulators"],
        "live_events": totals["live_events"],
        "heap_len": totals["heap_len"],
        "max_heap_len": max_heap_len,
        "compactions": totals["compactions"],
        "dead_entries_reaped": totals["dead_entries_reaped"],
        "counters": counters,
        "by_component": by_component,
    })
    return snap


def merge(snapshots: Iterable[Mapping[str, object]]) -> Dict[str, object]:
    """Fold :meth:`EngineProfiler.snapshot` dicts into one, in order.

    Counts, counters and wall time add; ``max_heap_len`` takes the
    maximum; events/sec is recomputed from the summed wall time. Folding
    the snapshots of consecutive runs equals one profiler spanning them
    in every key but ``wall_s`` and ``events_per_sec``. No snapshots
    merge to a zero profile.
    """
    totals = dict.fromkeys(_SUMMED, 0)
    max_heap_len = 0
    counters: Dict[str, int] = {}
    by_component: Dict[str, int] = {}
    for snap in snapshots:
        for key in _SUMMED:
            totals[key] += snap[key]
        max_heap_len = max(max_heap_len, snap["max_heap_len"])
        _add(counters, snap["counters"])
        _add(by_component, snap["by_component"])
    return _snapshot(totals, max_heap_len, dict(sorted(counters.items())),
                     by_component)


def render(snapshot: Mapping[str, object], top: int = 12) -> str:
    """Human-readable profile of a snapshot, components ranked by count
    (a stable sort: ties keep first-seen order)."""
    snap = snapshot
    lines = [
        "engine profile:",
        f"  events executed   {snap['events']:>12,}",
        f"  wall time         {snap['wall_s']:>12.3f} s",
        f"  events/sec        {snap['events_per_sec']:>12,.0f}",
        f"  simulators        {snap['simulators']:>12}",
        f"  peak heap length  {snap['max_heap_len']:>12,}",
        f"  compactions       {snap['compactions']:>12,}",
        f"  dead entries      {snap['dead_entries_reaped']:>12,}",
    ]
    sections = [(heading, snap[key]) for key, _, heading in NAMESPACES]
    prefixes = tuple(prefix for _, prefix, _ in NAMESPACES)
    sections.append(("counters", {
        k: v for k, v in snap["counters"].items()
        if not k.startswith(prefixes)
    }))
    for heading, section in sections:
        if section:
            lines.append(f"  {heading}:")
            width = max(len(k) for k in section)
            for name, count in section.items():
                lines.append(f"    {name:<{width}}  {count:>10,}")
    ranked = sorted(snap["by_component"].items(), key=lambda item: item[1],
                    reverse=True)[:top]
    if ranked:
        lines.append(f"  top {len(ranked)} components:")
        width = max(len(name) for name, _ in ranked)
        for name, count in ranked:
            share = count / snap["events"] if snap["events"] else 0.0
            lines.append(f"    {name:<{width}}  {count:>10,}  ({share:5.1%})")
    return "\n".join(lines)


@contextmanager
def profiled(
    profiler: Optional[EngineProfiler] = None,
) -> Iterator[EngineProfiler]:
    """Profile every Simulator constructed inside the ``with`` block.

    Experiment runners build simulators internally; this installs the
    profiler as the engine's default so each new simulator auto-attaches.
    The default is always cleared on exit, even on error.
    """
    profiler = profiler if profiler is not None else EngineProfiler()
    set_default_profiler(profiler)
    try:
        yield profiler
    finally:
        set_default_profiler(None)
