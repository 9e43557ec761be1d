"""Clock abstraction — how components observe time and set timers.

Every time-sensitive component in the library (TCP retransmission timers,
application think times, measurement intervals) talks to a :class:`Clock`,
never to the simulator directly. This indirection is the hook where the
paper's contribution plugs in: an undilated component gets a
:class:`PhysicalClock`, a component inside a dilated VM gets a
:class:`repro.core.clock.DilatedClock`, and neither can tell the difference.

The contract:

* :meth:`Clock.now` returns *local* time — physical seconds for a physical
  clock, virtual (guest-perceived) seconds for a dilated one.
* :meth:`Clock.call_in` / :meth:`Clock.call_at` take deadlines expressed in
  local time and translate them to physical engine events.
"""

from __future__ import annotations

import abc
from typing import Callable

from .engine import Event, Simulator
from .errors import SchedulingError

__all__ = ["Clock", "PhysicalClock"]


class Clock(abc.ABC):
    """Interface through which components read time and schedule work."""

    @abc.abstractmethod
    def now(self) -> float:
        """Current local time in seconds."""

    @abc.abstractmethod
    def call_in(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run ``fn`` after ``delay`` local seconds; returns a cancellable handle."""

    @abc.abstractmethod
    def call_at(self, when: float, fn: Callable[[], None]) -> Event:
        """Run ``fn`` at absolute local time ``when``."""

    @abc.abstractmethod
    def to_physical(self, local_time: float) -> float:
        """Map a local timestamp to physical engine time."""

    @abc.abstractmethod
    def to_local(self, physical_time: float) -> float:
        """Map a physical engine timestamp to local time."""

    # The reschedule fast path: re-key an existing event instead of
    # cancelling it and allocating a new one. Subclasses whose call_in
    # arithmetic differs from ``to_physical(now() + delay)`` MUST override
    # :meth:`reschedule_in` with the exact same float operations as their
    # ``call_in`` — a one-ulp difference in a deadline changes event order
    # and breaks bit-exact determinism against the allocate-per-arm path.

    def reschedule_in(self, event: Event, delay: float) -> Event:
        """Re-arm ``event`` to fire ``delay`` local seconds from now.

        Equivalent to cancelling it and calling :meth:`call_in` with the
        same callback, including tie-breaking order, but without the Event
        and closure allocations. Works on fired and cancelled events too.
        """
        if not delay >= 0:  # also refuses NaN
            raise SchedulingError(f"negative or NaN timer delay: {delay}")
        event.reschedule(self.to_physical(self.now() + delay))
        return event

    def reschedule_at(self, event: Event, when: float) -> Event:
        """Re-arm ``event`` to fire at absolute local time ``when``."""
        event.reschedule(self.to_physical(when))
        return event


class PhysicalClock(Clock):
    """The identity clock: local time *is* physical time.

    Used by undilated hosts, routers, and all baseline-configuration runs.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim

    def now(self) -> float:
        return self.sim.now

    def call_in(self, delay: float, fn: Callable[[], None]) -> Event:
        return self.sim.schedule(delay, fn)

    def call_at(self, when: float, fn: Callable[[], None]) -> Event:
        return self.sim.call_at(when, fn)

    def to_physical(self, local_time: float) -> float:
        return local_time

    def to_local(self, physical_time: float) -> float:
        return physical_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PhysicalClock(now={self.sim.now:.6f})"
