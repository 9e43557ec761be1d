"""The real-time engine driver: pace event execution against the wall clock.

The batch engine's contract is "execute events in timestamp order, as fast
as possible". This driver adds exactly one thing on top — *when* — and
deliberately nothing else: it never schedules, cancels, re-keys, or reorders
an event. Every event still executes through :meth:`Simulator.run`, so a
run under the driver is event-for-event identical to a batch run of the
same configuration (pinned by ``tests/realtime/test_batch_guard.py``); the
driver is an observer and a pacer, never a mutator.

Deadline arithmetic
-------------------
The engine queue stores *physical* timestamps, and a dilated component's
virtual deadline ``t`` is converted to physical ``t * TDF`` (piecewise, per
TDF epoch) before it is scheduled — see :mod:`repro.core.clock`. Binding
the physical timeline to the wall clock therefore realises the paper's
mapping ``wall = t * TDF + offset`` for free, runtime TDF changes included:
a ``set_tdf`` epoch re-anchors the virtual→physical line, but events keep
their physical firing times (exactly as pending hardware timers did in the
Xen implementation), so the driver needs no epoch bookkeeping at all.
``offset`` is anchored at the first :meth:`RealtimeDriver.run` call and
only ever moves under the ``drop`` catch-up policy.

Pacing loop
-----------
For the next due timestamp the driver sleeps in bounded quanta (polling any
attached ingress sources, which may land an *earlier* event — the loop
re-peeks after every quantum), then busy-spins the final
``spin_threshold_s`` so sub-millisecond deadlines are not at the mercy of
the OS sleep granularity. Lateness measured at execution is the event's
**slip**; slip beyond ``miss_threshold_s`` is a **deadline miss**, counted,
optionally traced (one ``realtime``/``slip`` flight-recorder event per
miss), and handed to the catch-up policy:

``run`` (run-to-catch-up, default)
    Deadlines stay anchored; the driver executes flat-out until the
    backlog drains. Total virtual time is preserved — the emulation is
    temporarily late but never loses schedule.
``drop`` (drop-to-now)
    The offset is re-anchored so the *current* event is on time; the lost
    wall time is never made up. Slip stops cascading — every subsequent
    event is judged against the new anchor — at the cost of the emulation
    finishing late by the sum of the drops.

Observability: per-run counters are published into ``sim.counters`` under
the ``realtime.`` namespace (``deadline_miss`` / ``max_slip_ms`` /
``busy_frac`` …), which :class:`repro.stats.engineprof.EngineProfiler`
splits into its own report section; richer detail lives on
:attr:`RealtimeDriver.stats`.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..simnet.engine import Simulator
from ..simnet.errors import ConfigurationError, SchedulingError

__all__ = ["CATCHUP_POLICIES", "RealtimeConfig", "RealtimeStats", "RealtimeDriver"]

#: Catch-up policies when the driver falls behind the wall clock.
CATCHUP_POLICIES = ("run", "drop")

#: Longest single sleep the loop takes with no ingress sources attached,
#: so ``stop()`` from another thread is honoured promptly.
_MAX_SLEEP_S = 0.05


@dataclass(frozen=True)
class RealtimeConfig:
    """Knobs of the pacing loop.

    Parameters
    ----------
    spin_threshold_s:
        Busy-spin (instead of sleeping) once the deadline is this close.
        OS sleeps are only ~1 ms accurate; spinning the last stretch gives
        sub-millisecond deadlines their precision. 0 disables spinning.
    miss_threshold_s:
        Slip beyond this is a deadline miss (counted, traced, and handed
        to the catch-up policy). Slip *below* it still accumulates in the
        stats — the threshold classifies, it does not filter.
    catchup:
        ``"run"`` (run-to-catch-up) or ``"drop"`` (drop-to-now); see the
        module docstring.
    io_poll_interval_s:
        Sleep quantum while ingress sources are attached — the bound on
        how stale an external datagram can go unnoticed during a long
        inter-event gap.
    """

    spin_threshold_s: float = 0.0005
    miss_threshold_s: float = 0.005
    catchup: str = "run"
    io_poll_interval_s: float = 0.002

    def __post_init__(self) -> None:
        if self.catchup not in CATCHUP_POLICIES:
            raise ConfigurationError(
                f"unknown catchup policy {self.catchup!r}: "
                f"expected one of {CATCHUP_POLICIES}"
            )
        if self.spin_threshold_s < 0:
            raise ConfigurationError("spin_threshold_s must be >= 0")
        if self.miss_threshold_s <= 0:
            raise ConfigurationError("miss_threshold_s must be positive")
        if self.io_poll_interval_s <= 0:
            raise ConfigurationError("io_poll_interval_s must be positive")


@dataclass
class RealtimeStats:
    """Cumulative pacing accounting across every ``run()`` call."""

    #: Deadline batches executed (one per distinct due timestamp).
    batches: int = 0
    #: Engine events executed under the driver.
    events: int = 0
    #: Batches whose slip exceeded the miss threshold.
    deadline_misses: int = 0
    #: Worst slip observed, seconds.
    max_slip_s: float = 0.0
    #: Sum of all slips (for the mean), seconds.
    total_slip_s: float = 0.0
    #: Wall time spent inside ``sim.run`` executing events.
    busy_s: float = 0.0
    #: Wall time spent sleeping toward deadlines.
    sleep_s: float = 0.0
    #: Wall time spent busy-spinning the final approach.
    spin_s: float = 0.0
    #: Total wall time spent inside ``run()``.
    wall_s: float = 0.0
    #: Times the ``drop`` policy re-anchored the offset.
    catchup_drops: int = 0
    #: Datagrams injected by polled ingress sources.
    injected: int = 0

    @property
    def miss_rate(self) -> float:
        """Deadline misses per executed batch (0 when nothing ran)."""
        return self.deadline_misses / self.batches if self.batches else 0.0

    @property
    def busy_frac(self) -> float:
        """Fraction of wall time spent executing events (the headroom
        gauge: sustained pacing needs busy_frac well below 1)."""
        return self.busy_s / self.wall_s if self.wall_s else 0.0

    @property
    def mean_slip_s(self) -> float:
        return self.total_slip_s / self.batches if self.batches else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Picklable summary (rides experiment result dataclasses)."""
        return {
            "batches": self.batches,
            "events": self.events,
            "deadline_misses": self.deadline_misses,
            "miss_rate": self.miss_rate,
            "max_slip_s": self.max_slip_s,
            "mean_slip_s": self.mean_slip_s,
            "busy_s": self.busy_s,
            "sleep_s": self.sleep_s,
            "spin_s": self.spin_s,
            "wall_s": self.wall_s,
            "busy_frac": self.busy_frac,
            "catchup_drops": self.catchup_drops,
            "injected": self.injected,
        }


class RealtimeDriver:
    """Pace a :class:`Simulator` against a monotonic wall clock.

    Parameters
    ----------
    sim:
        The engine to pace. The driver owns *when* ``sim.run`` is called,
        never what it executes.
    config:
        Pacing knobs; defaults to :class:`RealtimeConfig()`.
    recorder:
        Optional :class:`~repro.trace.recorder.FlightRecorder`; when set,
        every deadline miss records one ``realtime``/``slip`` trace event
        (so ``repro-trace diff``/``summarize`` can localize where pacing
        broke down).
    name:
        Site label on slip trace events.
    """

    def __init__(
        self,
        sim: Simulator,
        config: Optional[RealtimeConfig] = None,
        recorder: Any = None,
        name: str = "realtime",
    ) -> None:
        self.sim = sim
        self.config = config if config is not None else RealtimeConfig()
        self.recorder = recorder
        self.name = name
        self.stats = RealtimeStats()
        #: wall = physical + offset; anchored at the first run() call.
        self._offset: Optional[float] = None
        self._sources: List[Any] = []
        self._stop = False
        self._running = False

    # ------------------------------------------------------------- io sources

    def add_source(self, source: Any) -> Any:
        """Attach an ingress source (``poll() -> int``, e.g. a
        :class:`~repro.realtime.ingress.UdpGateway`); polled every sleep
        quantum and while idle. Returns the source for chaining."""
        self._sources.append(source)
        return source

    def _poll_sources(self) -> int:
        injected = 0
        for source in self._sources:
            injected += source.poll()
        if injected:
            self.stats.injected += injected
        return injected

    def _sync_idle_clock(self, horizon: Optional[float]) -> None:
        """Advance the engine clock through event-free idle time.

        ``wall = physical + offset`` must hold *between* events too: an
        ingress datagram arriving after an idle stretch has to be injected
        at the wall-equivalent virtual instant, not at the last executed
        event's timestamp — a reply scheduled from a stale ``now`` would
        be due in the past and egress immediately, erasing the emulated
        RTT for any client that connects late. The advance executes
        nothing: it is clamped to the run horizon and skipped entirely
        when a pending event is already due.
        """
        target = _time.monotonic() - self._offset
        if horizon is not None and target > horizon:
            target = horizon
        if target <= self.sim.now:
            return
        next_time = self.sim.peek_time()
        if next_time is not None and target >= next_time:
            return
        self.sim.run(until=target)

    # ------------------------------------------------------------ wall mapping

    def wall_deadline(self, physical_time: float) -> Optional[float]:
        """Monotonic-clock instant ``physical_time`` is due at (None until
        the first ``run()`` anchors the offset)."""
        if self._offset is None:
            return None
        return physical_time + self._offset

    # --------------------------------------------------------------- main loop

    def stop(self) -> None:
        """Ask the pacing loop to return after the current quantum.

        Safe to call from another thread (the loop re-checks a flag every
        bounded sleep); the engine itself is never interrupted mid-event.
        """
        self._stop = True
        self.sim.stop()

    def run(self, until: Optional[float] = None) -> RealtimeStats:
        """Execute due events at their wall deadlines.

        Parameters
        ----------
        until:
            Physical horizon, exactly as :meth:`Simulator.run` — but the
            driver also *holds the pace* through trailing idle time, so a
            warmup advance and the measurement advance that follows stay
            on one continuous schedule. ``None`` runs until the queue
            drains (or, with ingress sources attached, until
            :meth:`stop` — a live service has no natural horizon).

        Returns the cumulative :attr:`stats` for convenience.
        """
        if self._running:
            raise SchedulingError("realtime driver is already running")
        sim = self.sim
        config = self.config
        stats = self.stats
        monotonic = _time.monotonic
        perf = _time.perf_counter
        sleep = _time.sleep
        spin_threshold = config.spin_threshold_s
        quantum = config.io_poll_interval_s
        entry = monotonic()
        if self._offset is None:
            self._offset = entry - sim.now
        self._stop = False
        self._running = True
        try:
            while not self._stop:
                next_time = sim.peek_time()
                if next_time is not None and (
                    until is None or next_time <= until
                ):
                    target = next_time
                    is_event = True
                elif until is not None:
                    target = until
                    is_event = False
                elif self._sources:
                    # Live service, queue idle: wait for ingress traffic.
                    sleep(quantum)
                    stats.sleep_s += quantum
                    self._sync_idle_clock(until)
                    self._poll_sources()
                    continue
                else:
                    break
                deadline = target + self._offset
                remaining = deadline - monotonic()
                if remaining > spin_threshold:
                    # Coarse approach: bounded sleeps, re-evaluating after
                    # each (an ingress poll may land an earlier event, and
                    # stop() must not wait out a long gap).
                    chunk = min(remaining - spin_threshold, _MAX_SLEEP_S)
                    if self._sources:
                        chunk = min(chunk, quantum)
                    sleep(chunk)
                    stats.sleep_s += chunk
                    if self._sources:
                        self._sync_idle_clock(until)
                        self._poll_sources()
                    continue
                if remaining > 0:
                    # Final approach: spin to the deadline.
                    spin_start = monotonic()
                    while monotonic() < deadline:
                        pass
                    stats.spin_s += monotonic() - spin_start
                if not is_event:
                    # Horizon reached on schedule: advance the clock and
                    # hand control back without consuming any event.
                    sim.run(until=until)
                    break
                slip = monotonic() - deadline
                if slip < 0.0:
                    slip = 0.0
                stats.total_slip_s += slip
                if slip > stats.max_slip_s:
                    stats.max_slip_s = slip
                if slip > config.miss_threshold_s:
                    stats.deadline_misses += 1
                    if self.recorder is not None:
                        self.recorder.record_realtime(
                            "slip", target, site=self.name, value=slip,
                            reason=config.catchup,
                        )
                    if config.catchup == "drop":
                        # Drop-to-now: this event becomes "on time"; the
                        # lost wall time is abandoned rather than chased.
                        self._offset += slip
                        stats.catchup_drops += 1
                before = sim.events_processed
                busy_start = perf()
                sim.run(until=target)
                stats.busy_s += perf() - busy_start
                stats.events += sim.events_processed - before
                stats.batches += 1
        finally:
            self._running = False
            stats.wall_s += monotonic() - entry
            self._publish_counters()
        return stats

    # ------------------------------------------------------------- observability

    def _publish_counters(self) -> None:
        """Surface pacing health in the engine's counter namespace.

        Overwrites (rather than accumulates): the stats are already
        cumulative across ``run()`` calls, and one driver paces one
        engine. ``max_slip_ms`` / ``busy_frac`` are gauges, not counts —
        they ride the same dict for engineprof's report section.
        """
        stats = self.stats
        counters = self.sim.counters
        counters["realtime.batches"] = stats.batches
        counters["realtime.events"] = stats.events
        counters["realtime.deadline_miss"] = stats.deadline_misses
        counters["realtime.max_slip_ms"] = round(stats.max_slip_s * 1000, 3)
        counters["realtime.busy_frac"] = round(stats.busy_frac, 4)
        counters["realtime.catchup_drops"] = stats.catchup_drops
        counters["realtime.injected"] = stats.injected

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RealtimeDriver({self.name!r}, batches={self.stats.batches}, "
            f"misses={self.stats.deadline_misses}, "
            f"max_slip={self.stats.max_slip_s * 1000:.3f} ms)"
        )
