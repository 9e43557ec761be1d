"""``TraceSpec`` — a picklable recorder configuration for the cell model.

``repro-figure --trace <spec>`` and ``repro-trace capture`` thread one of
these through :class:`~repro.harness.runner.CellSpec` kwargs into the
runner (:func:`~repro.harness.experiments.run_bulk` and
:func:`~repro.harness.experiments.run_bittorrent`), which builds a
:class:`~repro.trace.recorder.FlightRecorder` from it inside the worker
process and returns the captured events in its result dataclass. Like
:class:`~repro.simnet.impairments.ImpairmentSpec`, it is a frozen
dataclass so the runner's canonical cache hashing works unchanged — a
traced cell is a *different* cell from its untraced twin.

Spec grammar (mirrors ``--impair``)::

    point[:key=value,...]

    bottleneck                           # data-direction bottleneck egress
    bottleneck:kinds=tx+rx,capacity=4096
    receiver:tcp=1,timers=1

``point`` is where the packet recorder attaches: ``bottleneck`` (the
data-direction bottleneck egress — the canonical observation point),
``reverse`` (the ACK direction), or ``receiver`` (the first receiver's
ingress link). ``kinds`` is a ``+``-separated subset of
enqueue/tx/rx/drop; ``tcp=1`` additionally instruments the first sender's
socket; ``timers=1`` records every executed engine event (high volume —
the ring bounds it); ``capacity`` sizes the ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..simnet.errors import ConfigurationError
from ..simnet.grammar import flag, number, split_spec

__all__ = ["TraceSpec", "TRACE_POINTS"]

TRACE_POINTS = ("bottleneck", "reverse", "receiver")


@dataclass(frozen=True)
class TraceSpec:
    """Recorder configuration carried inside a cell spec."""

    point: str = "bottleneck"
    kinds: Tuple[str, ...] = ("enqueue", "tx", "rx", "drop")
    capacity: int = 1 << 16
    #: Also instrument the first sender's TCP socket (state/rexmit/cwnd).
    tcp: bool = False
    #: Also record one event per executed engine event.
    timers: bool = False

    def __post_init__(self) -> None:
        if self.point not in TRACE_POINTS:
            raise ConfigurationError(
                f"unknown trace point {self.point!r}; "
                f"choose from {', '.join(TRACE_POINTS)}"
            )
        if self.capacity < 1:
            raise ConfigurationError(
                f"trace capacity must be positive: {self.capacity}"
            )
        bad = [k for k in self.kinds if k not in ("enqueue", "tx", "rx", "drop")]
        if bad:
            raise ConfigurationError(f"unknown packet kinds: {', '.join(bad)}")

    @classmethod
    def parse(cls, text: str) -> "TraceSpec":
        """Parse the CLI grammar; raises ``ConfigurationError`` with a hint."""
        point, options = split_spec(text, "trace")
        kwargs = {}
        for key, value in options:
            if key == "kinds":
                kwargs["kinds"] = tuple(value.split("+"))
            elif key == "capacity":
                kwargs["capacity"] = number(key, value, "trace", int)
            elif key in ("tcp", "timers"):
                kwargs[key] = flag(key, value, "trace")
            else:
                raise ConfigurationError(
                    f"unknown trace option {key!r}; "
                    "known: kinds, capacity, tcp, timers"
                )
        return cls(point=point, **kwargs)
    def canonical_string(self) -> str:
        """Round-trippable one-liner (used in filenames and reports)."""
        parts = [f"kinds={'+'.join(self.kinds)}", f"capacity={self.capacity}"]
        if self.tcp:
            parts.append("tcp=1")
        if self.timers:
            parts.append("timers=1")
        return f"{self.point}:{','.join(parts)}"
