"""Schedule-driven dynamic links: delay/bandwidth/liveness vs *virtual* time.

Real deployments — LEO constellations, mobile edges — have links whose
delay, capacity and liveness change continuously; dilation equivalence on
a *static* topology says nothing about that regime. This module drives any
:class:`~repro.simnet.link.Link` from a piecewise schedule indexed by
**virtual** time: the same perceived trace is replayed under every TDF by
scaling both the application instants and the values (delays stretch,
bandwidths shrink), exactly as :func:`repro.core.dilation.physical_for`
scales a static configuration. That the dilated runs still agree on the
virtual axis is the interesting new claim the ext6 experiment tests.

Three layers:

* :class:`ScheduleEntry` — one step of the piecewise function.
* :class:`LinkSchedule` — applies entries (physical at this layer) to both
  directions of a link via one engine timer per entry, armed at
  construction so a scheduled run is deterministic and identical at any
  shard count (every worker holds the full topology and arms the same
  timers at the same instants).
* :class:`ScheduleSpec` — the frozen, declarative, **virtual**-time form:
  the harness' ``--schedule`` axis, loadable from timestamped CSV traces
  (the Starlink-emulator format) or synthesized LEO handover patterns.

Interplay with the rest of simnet:

* **FIFO:** a delay decrease cannot reorder a pipe — the NIC clamps each
  arrival to the previous packet's (dummynet semantics).
* **Bandwidth:** a rate change never re-times a serialisation already in
  progress; the in-flight packet finishes at the old rate and the new
  rate applies from the next dequeue (the wire hold is computed when
  transmission starts).
* **Sharding:** a scheduled link may cross a shard cut; the partition's
  lookahead is derived from :attr:`LinkSchedule.min_delay_s` (the minimum
  over the whole schedule), not the delay at partition time.
* **Fluid:** a scheduled link is not ``fluid_transparent`` while a change
  is pending — a closed-form hold would integrate straight across the
  discontinuity.
* **Liveness:** ``up=False`` entries drop egress packets with reason
  ``"down"``; unlike :meth:`~repro.simnet.topology.Network.fail_link`
  they do *not* reroute — a handover outage is a dark pipe, not a
  topology change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

from .engine import Simulator
from .errors import ConfigurationError
from .grammar import number, split_spec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .link import Link

__all__ = [
    "ScheduleEntry",
    "LinkSchedule",
    "ScheduleSpec",
    "load_trace",
    "synthesize_leo",
]


@dataclass(frozen=True)
class ScheduleEntry:
    """One piecewise step: fields left ``None`` keep their current value."""

    at_s: float
    delay_s: Optional[float] = None
    bandwidth_bps: Optional[float] = None
    up: Optional[bool] = None


def load_trace(path: str) -> Tuple[ScheduleEntry, ...]:
    """Parse a timestamped CSV trace into schedule entries.

    Row grammar (an optional non-numeric header row and ``#`` comment /
    blank lines are skipped)::

        t_s,delay_s[,bandwidth_bps[,up]]

    Empty cells keep the previous value; ``up`` accepts ``0/1``,
    ``true/false``, ``up/down``; numbers must be finite. A
    :class:`ScheduleSpec` also checks the rows as a schedule (ordered
    instants, delay and bandwidth ranges) when it is made. This is the
    same shape the Starlink-emulator feeds Mininet — one latency sample
    per timestamp — with optional capacity and
    liveness columns. Every problem, an unreadable file included, raises
    :class:`ConfigurationError` naming the file (and ``:line``).
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, ValueError) as error:
        raise ConfigurationError(
            f"cannot read schedule trace {path!r}: {error}"
        ) from None
    entries: List[ScheduleEntry] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cells = [cell.strip() for cell in line.split(",")]
        where = f"{path}:{lineno}"
        if not entries and lineno <= 2:
            try:
                float(cells[0])
            except ValueError:
                continue  # header row
        at = number("timestamp", cells[0], where)
        delay = (number("delay", cells[1], where)
                 if len(cells) > 1 and cells[1] else None)
        bandwidth = (number("bandwidth", cells[2], where)
                     if len(cells) > 2 and cells[2] else None)
        up: Optional[bool] = None
        if len(cells) > 3 and cells[3]:
            up = _LIVENESS.get(cells[3].lower())
            if up is None:
                raise ConfigurationError(
                    f"{where}: bad liveness {cells[3]!r} "
                    "(use 0/1, true/false, up/down)"
                )
        entries.append(ScheduleEntry(at, delay, bandwidth, up))
    if not entries:
        raise ConfigurationError(f"trace {path!r} contains no entries")
    return tuple(entries)


def _check_entries(
    entries: Sequence[ScheduleEntry],
) -> Tuple[ScheduleEntry, ...]:
    """Refuse an entry list no link could follow; return it as a tuple.

    The one validity check of a schedule, shared by :class:`ScheduleSpec`
    (a CSV trace is refused where it is named) and :class:`LinkSchedule`:
    at least one entry, finite non-negative instants in strictly
    increasing order, delays finite and non-negative, bandwidths finite
    and positive. Every guard is written so that NaN fails it.
    """
    ordered = tuple(entries)
    if not ordered:
        raise ConfigurationError("a LinkSchedule needs at least one entry")
    for prev, entry in zip(ordered, ordered[1:]):
        if not entry.at_s > prev.at_s:
            raise ConfigurationError(
                f"schedule times must be strictly increasing: "
                f"{prev.at_s} then {entry.at_s}"
            )
    for entry in ordered:
        if not 0 <= entry.at_s < math.inf:
            raise ConfigurationError(
                f"schedule times must be finite and non-negative: "
                f"{entry.at_s}"
            )
        if entry.delay_s is not None and not 0 <= entry.delay_s < math.inf:
            raise ConfigurationError(
                f"scheduled delay must be non-negative: {entry.delay_s}"
            )
        if (entry.bandwidth_bps is not None
                and not 0 < entry.bandwidth_bps < math.inf):
            raise ConfigurationError(
                f"scheduled bandwidth must be positive: {entry.bandwidth_bps}"
            )
    return ordered


#: ``up`` column tokens of a CSV trace.
_LIVENESS = {"1": True, "true": True, "up": True,
             "0": False, "false": False, "down": False}


#: Delay multipliers cycled per LEO handover (scaled by the spec's
#: amplitude): high elevation after re-acquisition, then a near pass,
#: then intermediate — includes both increases and *decreases* so the
#: FIFO clamp and shard lookahead are genuinely exercised.
_LEO_CYCLE = (1.0, -0.5, 0.5, 0.0)


def synthesize_leo(
    base_delay_s: float,
    period_s: float,
    count: int,
    outage_s: float,
    amplitude: float = 0.5,
    bandwidth_bps: Optional[float] = None,
    dip: float = 1.0,
) -> Tuple[ScheduleEntry, ...]:
    """A deterministic LEO handover pattern.

    Every ``period_s`` seconds the link goes dark for ``outage_s`` and
    re-acquires with its one-way delay stepped to
    ``base * (1 + amplitude * c)`` where ``c`` cycles through
    ``(1, -0.5, 0.5, 0)`` — alternating far and near satellites. When
    ``bandwidth_bps`` is given and ``dip < 1``, every other handover also
    lands on a ``dip``-fraction capacity beam (restored on the next).
    Purely a function of its arguments: the same spec synthesizes the
    same trace in every worker and at every TDF.
    """
    if period_s <= 0:
        raise ConfigurationError(f"period_s must be positive: {period_s}")
    if not 0 < outage_s < period_s:
        raise ConfigurationError(
            f"outage_s ({outage_s}) must be positive and shorter than the "
            f"period ({period_s})"
        )
    if not 0 <= amplitude < 2:
        raise ConfigurationError(f"amplitude must be in [0, 2): {amplitude}")
    if count < 1:
        raise ConfigurationError(f"count must be >= 1: {count}")
    entries: List[ScheduleEntry] = []
    for index in range(count):
        switch_at = (index + 1) * period_s
        factor = 1.0 + amplitude * _LEO_CYCLE[index % len(_LEO_CYCLE)]
        bandwidth = None
        if bandwidth_bps is not None and dip != 1.0:
            bandwidth = bandwidth_bps * (dip if index % 2 == 0 else 1.0)
        entries.append(ScheduleEntry(switch_at, up=False))
        entries.append(ScheduleEntry(
            switch_at + outage_s,
            delay_s=base_delay_s * factor,
            bandwidth_bps=bandwidth,
            up=True,
        ))
    return tuple(entries)


class LinkSchedule:
    """Applies a piecewise schedule to both directions of one link.

    Entries are **physical** seconds/bps at this layer
    (:meth:`ScheduleSpec.build` scales virtual-time specs by the TDF).
    One engine timer per entry is armed at construction; updates are
    plain attribute assignments on the two interfaces, so a scheduled
    run is exactly as deterministic as an unscheduled one.
    """

    def __init__(
        self,
        sim: Simulator,
        link: "Link",
        entries: Sequence[ScheduleEntry],
    ) -> None:
        ordered = _check_entries(entries)
        if ordered[0].at_s < sim.now:
            raise ConfigurationError(
                f"schedule entry at {ordered[0].at_s} is in the past "
                f"(now {sim.now})"
            )
        self.sim = sim
        self.link = link
        self.entries = ordered
        self.applied = 0
        self._ifaces = (link.a_to_b, link.b_to_a)
        for iface in self._ifaces:
            if iface.schedule is not None:
                raise ConfigurationError(
                    f"interface {iface.name!r} already has a schedule"
                )
        #: Minimum one-way delay across the whole run — the initial
        #: configuration and every scheduled step. Partition lookahead
        #: must be derived from this, not the delay at partition time.
        self.min_delay_s = min(
            min(iface.delay_s for iface in self._ifaces),
            min(
                (e.delay_s for e in ordered if e.delay_s is not None),
                default=float("inf"),
            ),
        )
        for iface in self._ifaces:
            iface.schedule = self
        self._timers = [
            sim.call_at(entry.at_s, self._apply, entry) for entry in ordered
        ]

    @property
    def change_pending(self) -> bool:
        """True while any entry is still in the future; consulted by
        :meth:`~repro.simnet.nic.Interface.fluid_transparent` so the fluid
        fast path never integrates across a discontinuity."""
        return self.applied < len(self.entries)

    def _apply(self, entry: ScheduleEntry) -> None:
        for iface in self._ifaces:
            if entry.delay_s is not None:
                iface.delay_s = entry.delay_s
            if entry.bandwidth_bps is not None:
                # Never re-times a serialisation in progress: the wire
                # hold was computed when transmission started; the new
                # rate applies from the next dequeue.
                iface.bandwidth_bps = entry.bandwidth_bps
            if entry.up is not None:
                iface.up = entry.up
        self.applied += 1

    def cancel(self) -> None:
        """Cancel remaining timers and release the interfaces."""
        for timer in self._timers:
            if timer.active:
                timer.cancel()
        self._timers = []
        self.applied = len(self.entries)
        for iface in self._ifaces:
            iface.schedule = None


#: Spec kinds understood by :meth:`ScheduleSpec.build`.
_KINDS = ("leo", "csv")

#: ``--schedule`` options holding one float, by field name.
_FLOAT_OPTIONS = {"period": "period_s", "outage": "outage_s",
                  "amp": "amplitude", "dip": "dip"}


@dataclass(frozen=True)
class ScheduleSpec:
    """A declarative, TDF-portable schedule — the ``--schedule`` axis.

    Time-valued fields are **virtual** seconds: :meth:`build` multiplies
    application instants and delays by the TDF and divides bandwidths,
    so the same spec replays the same *perceived* trace under every
    dilation factor. Frozen (and built from canonical-able field types)
    so the sweep runner's content-addressed cache hashing works
    unchanged — a scheduled cell is a different cell from its static
    twin. Note the ``csv`` kind hashes the *path*, not the file contents;
    regenerate the cache directory when a trace file changes in place.

    The string form (``parse``) mirrors ``--impair``::

        leo                                   # default handover pattern
        leo:period=2.0,count=3,outage=0.05,amp=0.5,dip=0.6
        csv:path=traces/starlink.csv
    """

    kind: str
    #: LEO: virtual seconds between handovers.
    period_s: float = 2.0
    #: LEO: number of handovers.
    count: int = 3
    #: LEO: virtual seconds of darkness per handover.
    outage_s: float = 0.05
    #: LEO: delay-step amplitude (fraction of the base delay).
    amplitude: float = 0.5
    #: LEO: capacity fraction on every other beam (1.0 = no dips).
    dip: float = 1.0
    #: CSV: trace file path (rows ``t_s,delay_s[,bandwidth_bps[,up]]``).
    path: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"unknown schedule kind {self.kind!r}; known: {_KINDS}"
            )
        if not all(math.isfinite(value) for value in (
                self.period_s, self.outage_s, self.amplitude, self.dip)):
            raise ConfigurationError(
                f"schedule values must be finite (no NaN or inf): {self}"
            )
        if self.kind == "csv":
            if not self.path:
                raise ConfigurationError("csv schedule needs path=<trace file>")
            # The trace is read and checked where the spec is made, so a
            # bad file is refused before any cell (or worker) runs.
            _check_entries(load_trace(self.path))
        else:
            if self.period_s <= 0:
                raise ConfigurationError(
                    f"period must be positive: {self.period_s}"
                )
            if self.count < 1:
                raise ConfigurationError(f"count must be >= 1: {self.count}")
            if not 0 < self.outage_s < self.period_s:
                raise ConfigurationError(
                    f"outage ({self.outage_s}) must be positive and shorter "
                    f"than the period ({self.period_s})"
                )
            if not 0 <= self.amplitude < 2:
                raise ConfigurationError(
                    f"amp must be in [0, 2): {self.amplitude}"
                )
            if not 0 < self.dip <= 1:
                raise ConfigurationError(
                    f"dip must be in (0, 1]: {self.dip}"
                )

    @classmethod
    def parse(cls, text: str) -> "ScheduleSpec":
        """Parse the CLI form ``kind[:key=value,...]``.

        Every malformed item raises :class:`ConfigurationError` naming
        it.
        """
        kind, options = split_spec(text, "schedule")
        kwargs: dict = {}
        for key, value in options:
            if key in _FLOAT_OPTIONS:
                kwargs[_FLOAT_OPTIONS[key]] = number(key, value, "schedule")
            elif key == "count":
                kwargs["count"] = number(key, value, "schedule", int)
            elif key == "path":
                kwargs["path"] = value
            else:
                raise ConfigurationError(
                    f"unknown schedule option {key!r} in {text!r}; "
                    "known: period, count, outage, amp, dip, path"
                )
        return cls(kind=kind, **kwargs)

    def virtual_entries(
        self,
        base_delay_s: float,
        base_bandwidth_bps: Optional[float] = None,
    ) -> Tuple[ScheduleEntry, ...]:
        """The virtual-time entry list this spec describes.

        ``base_delay_s``/``base_bandwidth_bps`` are the link's *perceived*
        parameters, used as the reference the LEO pattern steps around;
        CSV traces carry absolute values and ignore them.
        """
        if self.kind == "csv":
            return load_trace(self.path)
        return synthesize_leo(
            base_delay_s,
            period_s=self.period_s,
            count=self.count,
            outage_s=self.outage_s,
            amplitude=self.amplitude,
            bandwidth_bps=base_bandwidth_bps,
            dip=self.dip,
        )

    def build(self, link: "Link", tdf: object = 1) -> LinkSchedule:
        """Materialise the schedule on ``link``, scaled to ``tdf``.

        The link's current (physical) parameters divided by the TDF give
        the perceived base the virtual entries are generated against;
        each entry is then mapped back to physical: instants and delays
        × TDF, bandwidths ÷ TDF.
        """
        from ..core.tdf import as_tdf

        factor = float(as_tdf(tdf).value)
        iface = link.a_to_b
        virtual = self.virtual_entries(
            iface.delay_s / factor, iface.bandwidth_bps * factor
        )
        scaled = tuple(
            ScheduleEntry(
                at_s=entry.at_s * factor,
                delay_s=None if entry.delay_s is None else entry.delay_s * factor,
                bandwidth_bps=(
                    None if entry.bandwidth_bps is None
                    else entry.bandwidth_bps / factor
                ),
                up=entry.up,
            )
            for entry in virtual
        )
        return LinkSchedule(iface.sim, link, scaled)

    def horizon_s(self) -> float:
        """Last virtual instant the schedule touches (for run sizing)."""
        if self.kind == "csv":
            return load_trace(self.path)[-1].at_s
        return self.count * self.period_s + self.outage_s
