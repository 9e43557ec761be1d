"""Dilated clocks — the mechanism at the heart of the paper.

In the original system, Xen's paravirtual time interface was modified so a
guest's every source of time (timer interrupts, jiffies, TSC reads,
``gettimeofday``) advanced at ``1/TDF`` of the physical rate. Here the same
effect is achieved by giving a guest a :class:`DilatedClock` instead of a
:class:`~repro.simnet.clock.PhysicalClock`: components read ``now()`` and
set timers in *virtual* seconds, and the clock translates to and from the
engine's physical timeline.

The mapping is piecewise linear and anchored at *epochs*: changing the TDF
at runtime (the paper's §"implementation" notes the hypercall that allows
this) re-anchors the line at the current instant, so virtual time is always
continuous and strictly increasing.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, List, Tuple

from ..simnet.clock import Clock
from ..simnet.engine import Event, Simulator
from ..simnet.errors import ConfigurationError, SchedulingError
from .tdf import TDF, TdfLike, as_tdf

__all__ = ["DilatedClock"]


class DilatedClock(Clock):
    """A clock whose local ("virtual") time runs at ``1/TDF`` physical rate.

    Parameters
    ----------
    sim:
        The physical-time engine.
    tdf:
        Initial dilation factor.
    virtual_origin:
        Virtual time corresponding to the instant of construction (guests
        usually boot at virtual time zero regardless of when they start
        physically).
    """

    def __init__(
        self, sim: Simulator, tdf: TdfLike = 1, virtual_origin: float = 0.0
    ) -> None:
        self.sim = sim
        self._tdf = as_tdf(tdf)
        #: ``float(tdf)`` of the current epoch. Every ``now`` and every
        #: relative deadline uses it, so it is converted once per epoch
        #: rather than from the Fraction on each call.
        self._rate = float(self._tdf)
        self._physical_epoch = sim.now
        self._virtual_epoch = virtual_origin
        #: History of (physical_time, virtual_time, tdf) anchors, newest last.
        #: Kept so traces recorded before a TDF change can still be mapped.
        self._epochs: List[Tuple[float, float, TDF]] = [
            (self._physical_epoch, self._virtual_epoch, self._tdf)
        ]
        #: Optional :class:`repro.trace.recorder.FlightRecorder`; records a
        #: ``clock``/``epoch`` event on every runtime TDF change.
        self.recorder = None
        #: Label used as the trace event's site (set by attach_clock).
        self.trace_label = ""

    # ------------------------------------------------------------- conversions

    @property
    def tdf(self) -> TDF:
        """The dilation factor currently in effect."""
        return self._tdf

    def now(self) -> float:
        """Current virtual time.

        Physical time never runs backwards and every epoch is anchored at
        the instant it began, so the newest epoch is always the one in
        effect: this is :meth:`to_local` of ``sim.now`` without the epoch
        search, with the same float operations in the same order.
        """
        return (self._virtual_epoch
                + (self.sim._now - self._physical_epoch) / self._rate)

    def to_local(self, physical_time: float) -> float:
        """Map physical → virtual using the epoch in effect at that instant."""
        physical_epoch, virtual_epoch, tdf = self._epoch_for_physical(physical_time)
        return virtual_epoch + (physical_time - physical_epoch) / float(tdf.value)

    def to_physical(self, local_time: float) -> float:
        """Map virtual → physical using the epoch in effect at that instant."""
        physical_epoch, virtual_epoch, tdf = self._epoch_for_virtual(local_time)
        return physical_epoch + (local_time - virtual_epoch) * float(tdf.value)

    def to_local_exact(self, physical_time: float) -> Fraction:
        """Physical → virtual in exact rational arithmetic.

        ``Fraction(float)`` is exact and the TDF is a fraction, so the
        mapping through the epoch history introduces no rounding at all:
        ``to_physical_exact(to_local_exact(p)) == Fraction(p)`` for any
        TDF (7/3 included) and any number of runtime epoch changes. The
        trace subsystem uses this to re-express recorded timestamps in
        another time base without drift.
        """
        anchor = self._epoch_for_physical(float(physical_time))
        physical_epoch, virtual_epoch, tdf = anchor
        return Fraction(virtual_epoch) + (
            Fraction(physical_time) - Fraction(physical_epoch)
        ) / tdf.value

    def to_physical_exact(self, local_time: float) -> Fraction:
        """Virtual → physical in exact rational arithmetic (see above)."""
        anchor = self._epoch_for_virtual(float(local_time))
        physical_epoch, virtual_epoch, tdf = anchor
        return Fraction(physical_epoch) + (
            Fraction(local_time) - Fraction(virtual_epoch)
        ) * tdf.value

    def _epoch_for_physical(self, physical_time: float) -> Tuple[float, float, TDF]:
        for anchor in reversed(self._epochs):
            if physical_time >= anchor[0] - 1e-15:
                return anchor
        return self._epochs[0]

    def _epoch_for_virtual(self, virtual_time: float) -> Tuple[float, float, TDF]:
        for anchor in reversed(self._epochs):
            if virtual_time >= anchor[1] - 1e-15:
                return anchor
        return self._epochs[0]

    # --------------------------------------------------------------- scheduling

    def call_in(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run ``fn`` after ``delay`` *virtual* seconds."""
        if not delay >= 0:  # also refuses NaN
            raise SchedulingError(f"negative or NaN virtual delay: {delay}")
        return self.sim.schedule(delay * self._rate, fn)

    def call_at(self, when: float, fn: Callable[[], None]) -> Event:
        """Run ``fn`` at absolute *virtual* time ``when``."""
        return self.sim.call_at(self.to_physical(when), fn)

    def reschedule_in(self, event: Event, delay: float) -> Event:
        """Re-arm ``event`` after ``delay`` *virtual* seconds.

        Mirrors :meth:`call_in`'s arithmetic exactly (TDF-scaled relative
        delay, not an absolute virtual deadline) so a rescheduled timer
        fires at the bit-identical physical instant a cancel-and-recreate
        would have — the determinism contract of the fast path.
        """
        if not delay >= 0:  # also refuses NaN
            raise SchedulingError(f"negative or NaN virtual delay: {delay}")
        event.reschedule(self.sim._now + delay * self._rate)
        return event

    # ------------------------------------------------------------- dynamic TDF

    def set_tdf(self, tdf: TdfLike) -> None:
        """Change the dilation factor, re-anchoring at the current instant.

        Virtual time is continuous across the change and remains strictly
        increasing; only its *rate* changes. Timers already scheduled keep
        their physical firing times (exactly as pending hardware timers did
        in the Xen implementation — the paper notes this as a caveat of
        changing TDF mid-run).
        """
        new_tdf = as_tdf(tdf)
        if new_tdf == self._tdf:
            return
        old_tdf = self._tdf
        now_physical = self.sim.now
        now_virtual = self.to_local(now_physical)
        self._physical_epoch = now_physical
        self._virtual_epoch = now_virtual
        self._tdf = new_tdf
        self._rate = float(new_tdf)
        self._epochs.append((now_physical, now_virtual, new_tdf))
        if self.recorder is not None:
            self.recorder.record_epoch(
                self, now_physical, now_virtual, old_tdf, new_tdf
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DilatedClock(tdf={self._tdf!r}, virtual_now={self.now():.6f})"
