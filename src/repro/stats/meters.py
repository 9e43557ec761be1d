"""Measurement instruments that read a (possibly dilated) clock.

Meters are the in-guest measurement tools — the emulated ``iperf -i`` /
application timers. They deliberately take a :class:`Clock` rather than the
simulator so that a meter inside a dilated VM reports rates per *virtual*
second, exactly as instrumentation inside a dilated Xen guest did.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..simnet.clock import Clock
from .summary import Summary

__all__ = ["ThroughputMeter", "IntervalRecorder", "LatencyMeter"]


class ThroughputMeter:
    """Counts bytes and reports rates over the local clock's time."""

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self.started_at = clock.now()
        self.bytes = 0
        self._last_mark_time = self.started_at
        self._last_mark_bytes = 0

    def add(self, n_bytes: int) -> None:
        """Account ``n_bytes`` delivered now."""
        self.bytes += n_bytes

    @property
    def elapsed(self) -> float:
        """Local seconds since the meter was created."""
        return self.clock.now() - self.started_at

    def rate_bps(self) -> float:
        """Average rate since creation, bits per local second."""
        elapsed = self.elapsed
        if elapsed <= 0:
            return 0.0
        return self.bytes * 8 / elapsed

    def interval_rate_bps(self) -> float:
        """Rate since the previous call to this method (interval report).

        A zero-width interval (two reads at the same local instant) reports
        0.0 **without consuming the marks** — bytes delivered at that
        instant stay attributed to the next real interval, so the sum of
        interval deltas always equals the meter's total.
        """
        now = self.clock.now()
        interval = now - self._last_mark_time
        if interval <= 0:
            return 0.0
        delta = self.bytes - self._last_mark_bytes
        self._last_mark_time = now
        self._last_mark_bytes = self.bytes
        return delta * 8 / interval


class IntervalRecorder:
    """Records event timestamps and exposes interarrival gaps (local time)."""

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self.timestamps: List[float] = []

    def mark(self) -> None:
        """Record one event at the current local time."""
        self.timestamps.append(self.clock.now())

    def interarrivals(self) -> List[float]:
        """Gaps between consecutive recorded events."""
        return [b - a for a, b in zip(self.timestamps, self.timestamps[1:])]

    def __len__(self) -> int:
        return len(self.timestamps)


class LatencyMeter:
    """Start/stop timing of operations keyed by an id, in local seconds."""

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self._open: dict = {}
        self.summary = Summary()
        self.samples: List[float] = []
        #: Unfinished timings discarded by a ``start()`` on the same key.
        #: Each one is a measurement that silently vanished — an operation
        #: that was started, never stopped, and then restarted — so callers
        #: auditing in-flight losses can reconcile start/stop counts.
        self.overwrites = 0

    def start(self, key) -> None:
        """Begin timing ``key`` (overwrites an unfinished timing).

        The discarded timing, if any, is counted in :attr:`overwrites`
        rather than dropped without trace.
        """
        if key in self._open:
            self.overwrites += 1
        self._open[key] = self.clock.now()

    def stop(self, key) -> Optional[float]:
        """Finish timing ``key``; returns the latency or None if unknown."""
        started = self._open.pop(key, None)
        if started is None:
            return None
        latency = self.clock.now() - started
        self.summary.add(latency)
        self.samples.append(latency)
        return latency

    def abandon(self, key) -> None:
        """Forget the unfinished timing of ``key`` without taking a
        sample (an operation that failed); unknown keys are ignored."""
        self._open.pop(key, None)

    @property
    def in_flight(self) -> int:
        """Operations started but not yet stopped."""
        return len(self._open)

    def __repr__(self) -> str:
        return (
            f"LatencyMeter(samples={len(self.samples)}, "
            f"in_flight={self.in_flight}, overwrites={self.overwrites})"
        )
