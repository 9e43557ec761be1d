"""Composable, seed-deterministic network impairments.

The paper's validation matters most where the network is *imperfect*: a
dilated guest must reproduce the scaled baseline's behaviour under packet
loss, burstiness, reordering and outages — not just on clean pipes. This
module is the emulator's netem/dummynet-style impairment layer: a chain of
stages attached to an :class:`~repro.simnet.nic.Interface` that every
egress packet passes through before queueing.

Stages
------
* :class:`BernoulliLoss` — i.i.d. loss with probability ``rate``.
* :class:`GilbertElliott` — two-state (good/bad) burst loss; the classic
  model for correlated loss on wireless/edge paths.
* :class:`Reorder` — holds selected packets back for ``hold_s`` seconds so
  later packets overtake them (netem's delay-jitter reordering).
* :class:`Duplicate` — injects a copy of selected packets.
* :class:`Corrupt` — flips the packet's ``corrupted`` flag; the receiving
  transport detects it (checksum) and discards, so corruption is visible
  as loss *plus* the wasted wire time.
* :class:`LinkFlap` — scheduled outage windows driven by engine timers;
  packets sent while down are dropped with reason ``"flap"``.

Determinism
-----------
Every probabilistic stage draws from an injected ``random.Random`` (or a
``seed``). Decisions are made **per packet in arrival order**, never from
the clock, so a dilated run and its scaled baseline — which present the
identical packet sequence — see the identical loss/reorder/duplication
pattern. Time-valued knobs (``hold_s``, flap windows) are physical
seconds; :meth:`ImpairmentSpec.build` scales virtual-time specs by the TDF
exactly as :func:`repro.core.dilation.physical_for` scales delays.

An interface with no chain attached pays one attribute check per packet
and schedules zero extra events — clean-path runs stay bit-identical.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

from .engine import Simulator
from .errors import ConfigurationError
from .grammar import number, split_spec
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .nic import Interface

__all__ = [
    "Impairment",
    "BernoulliLoss",
    "GilbertElliott",
    "Reorder",
    "Duplicate",
    "Corrupt",
    "LinkFlap",
    "Handover",
    "FunctionLoss",
    "ImpairmentChain",
    "ImpairmentSpec",
]

#: Stage verdicts. ``None`` means pass; otherwise a tuple whose head is one
#: of these kinds (see :meth:`ImpairmentChain.send_through`).
_DROP = "drop"
_HOLD = "hold"
_DUP = "dup"


def _make_rng(rng: Optional[random.Random], seed: int) -> random.Random:
    return rng if rng is not None else random.Random(seed)


class Impairment:
    """One stage of an impairment chain.

    ``apply`` returns ``None`` to pass the packet unchanged, or a verdict
    tuple: ``("drop", reason)``, ``("hold", delay_s)``, or ``("dup",)``.
    Stages may also mutate the packet in place (corruption does).

    Stages additionally get lifecycle callbacks from
    :meth:`~repro.simnet.nic.Interface.set_impairments`: ``attach`` when
    the containing chain is installed on an egress, ``detach`` when it is
    replaced or cleared. Stages that arm engine timers (:class:`LinkFlap`,
    :class:`Handover`) defer arming to ``attach`` — a chain that is built
    but never attached must schedule nothing — and cancel on ``detach``.
    """

    #: Drop-taxonomy reason this stage charges (overridden per class).
    reason = "loss"

    def apply(self, packet: Packet) -> Optional[tuple]:  # pragma: no cover
        raise NotImplementedError

    def attach(self, iface: "Interface") -> None:
        """Lifecycle hook: the chain was installed on ``iface``'s egress."""

    def detach(self, iface: "Interface") -> None:
        """Lifecycle hook: the chain was removed from ``iface``'s egress."""


class BernoulliLoss(Impairment):
    """Independent (memoryless) loss: each packet dropped with ``rate``."""

    reason = "loss"

    def __init__(self, rate: float, rng: Optional[random.Random] = None,
                 seed: int = 0) -> None:
        if not 0 <= rate <= 1:
            raise ConfigurationError(f"loss rate must be in [0, 1]: {rate}")
        self.rate = rate
        self._rng = _make_rng(rng, seed)
        self.dropped = 0

    def apply(self, packet: Packet) -> Optional[tuple]:
        if self._rng.random() < self.rate:
            self.dropped += 1
            return (_DROP, self.reason)
        return None


class GilbertElliott(Impairment):
    """Two-state burst-loss model (Gilbert 1960 / Elliott 1963).

    The channel alternates between a *good* state (loss probability
    ``loss_good``, usually 0) and a *bad* state (``loss_bad``, usually 1).
    Per packet the stage first decides loss from the current state, then
    transitions: good→bad with ``p_enter_bad``, bad→good with
    ``p_exit_bad``. Long-run statistics (with ``loss_good=0``,
    ``loss_bad=1``):

    * stationary loss rate = ``p_enter_bad / (p_enter_bad + p_exit_bad)``
    * mean loss-burst length = ``1 / p_exit_bad`` packets
    """

    reason = "loss"

    def __init__(
        self,
        p_enter_bad: float,
        p_exit_bad: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
        rng: Optional[random.Random] = None,
        seed: int = 0,
    ) -> None:
        for name, p in (("p_enter_bad", p_enter_bad), ("p_exit_bad", p_exit_bad),
                        ("loss_good", loss_good), ("loss_bad", loss_bad)):
            if not 0 <= p <= 1:
                raise ConfigurationError(f"{name} must be in [0, 1]: {p}")
        if p_exit_bad == 0:
            raise ConfigurationError("p_exit_bad=0 would trap the bad state")
        self.p_enter_bad = p_enter_bad
        self.p_exit_bad = p_exit_bad
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self._rng = _make_rng(rng, seed)
        self.bad = False
        self.dropped = 0

    @classmethod
    def from_loss_rate(
        cls,
        loss_rate: float,
        mean_burst: float = 4.0,
        rng: Optional[random.Random] = None,
        seed: int = 0,
    ) -> "GilbertElliott":
        """A model with the given stationary loss rate and mean burst length.

        Solves the two-state stationary equations for ``loss_good=0``,
        ``loss_bad=1`` — the configuration whose *average* matches a
        Bernoulli channel of the same rate while concentrating the losses
        in bursts of ``mean_burst`` packets.
        """
        if not 0 < loss_rate < 1:
            raise ConfigurationError(f"loss_rate must be in (0, 1): {loss_rate}")
        if mean_burst < 1:
            raise ConfigurationError(f"mean_burst must be >= 1: {mean_burst}")
        p_exit = 1.0 / mean_burst
        p_enter = loss_rate * p_exit / (1.0 - loss_rate)
        return cls(p_enter, p_exit, rng=rng, seed=seed)

    def apply(self, packet: Packet) -> Optional[tuple]:
        rng = self._rng
        if self.bad:
            lost = rng.random() < self.loss_bad
            if rng.random() < self.p_exit_bad:
                self.bad = False
        else:
            lost = rng.random() < self.loss_good
            if rng.random() < self.p_enter_bad:
                self.bad = True
        if lost:
            self.dropped += 1
            return (_DROP, self.reason)
        return None


class Reorder(Impairment):
    """Delay-jitter hold-back reordering.

    Selected packets are held for ``hold_s`` extra seconds before entering
    the egress queue, letting packets sent after them overtake — netem's
    reordering mechanism. ``hold_s`` must exceed the packet spacing for
    visible reordering. ``hold_s`` is physical seconds at this layer;
    specs written in virtual time are scaled by
    :meth:`ImpairmentSpec.build`.
    """

    reason = "reorder"

    def __init__(self, rate: float, hold_s: float,
                 rng: Optional[random.Random] = None, seed: int = 0) -> None:
        if not 0 <= rate <= 1:
            raise ConfigurationError(f"reorder rate must be in [0, 1]: {rate}")
        if not 0 <= hold_s < math.inf:  # also refuses NaN
            raise ConfigurationError(
                f"hold_s must be finite and non-negative: {hold_s}"
            )
        self.rate = rate
        self.hold_s = hold_s
        self._rng = _make_rng(rng, seed)
        self.held = 0

    def apply(self, packet: Packet) -> Optional[tuple]:
        if self._rng.random() < self.rate:
            self.held += 1
            return (_HOLD, self.hold_s)
        return None


class Duplicate(Impairment):
    """Packet duplication: selected packets are enqueued twice."""

    reason = "duplicate"

    def __init__(self, rate: float, rng: Optional[random.Random] = None,
                 seed: int = 0) -> None:
        if not 0 <= rate <= 1:
            raise ConfigurationError(f"duplicate rate must be in [0, 1]: {rate}")
        self.rate = rate
        self._rng = _make_rng(rng, seed)
        self.duplicated = 0

    def apply(self, packet: Packet) -> Optional[tuple]:
        if self._rng.random() < self.rate:
            self.duplicated += 1
            return (_DUP,)
        return None


class Corrupt(Impairment):
    """Payload corruption, checksum-visible at the receiver.

    The packet still occupies wire time and queue space; the receiving
    transport stack detects the bad checksum and silently discards it
    (counted as ``checksum_drops`` on the stack), exactly like a real NIC
    delivering a frame whose TCP checksum fails.
    """

    reason = "corrupt"

    def __init__(self, rate: float, rng: Optional[random.Random] = None,
                 seed: int = 0) -> None:
        if not 0 <= rate <= 1:
            raise ConfigurationError(f"corrupt rate must be in [0, 1]: {rate}")
        self.rate = rate
        self._rng = _make_rng(rng, seed)
        self.corrupted = 0

    def apply(self, packet: Packet) -> Optional[tuple]:
        if self._rng.random() < self.rate:
            self.corrupted += 1
            packet.corrupted = True
        return None


class LinkFlap(Impairment):
    """Scheduled outage windows driven by engine timers.

    ``windows`` is a sequence of ``(down_at, up_at)`` physical times. One
    timer per edge is armed when the chain is first attached to an
    interface — never at construction, so a chain that is built but never
    installed leaks no engine events and does not skew ``pending()`` —
    and every armed timer is cancelled when the last attachment is
    removed. While down, every packet through the stage is dropped with
    reason ``"flap"`` — in-flight packets already past the transmitter
    still arrive, as on a real cut.
    """

    reason = "flap"

    def __init__(self, sim: Simulator,
                 windows: Sequence[Tuple[float, float]]) -> None:
        self.down = False
        self.transitions = 0
        for down_at, up_at in windows:
            if not -math.inf < down_at < up_at < math.inf:  # refuses NaN
                raise ConfigurationError(
                    "flap window must be finite with up_at > down_at: "
                    f"({down_at}, {up_at})"
                )
        self.sim = sim
        self.windows: Tuple[Tuple[float, float], ...] = tuple(
            (down_at, up_at) for down_at, up_at in windows
        )
        self._timers: List[object] = []
        self._attached = 0

    def attach(self, iface: "Interface") -> None:
        self._attached += 1
        if self._attached == 1:
            now = self.sim.now
            for down_at, up_at in self.windows:
                # Edges already in the past (chain installed mid-run) are
                # skipped rather than rejected: the stage simply starts in
                # whatever state the remaining edges imply.
                if down_at >= now:
                    self._timers.append(self.sim.call_at(down_at, self._go_down))
                if up_at >= now:
                    self._timers.append(self.sim.call_at(up_at, self._go_up))

    def detach(self, iface: "Interface") -> None:
        self._attached -= 1
        if self._attached == 0:
            for timer in self._timers:
                if timer.active:
                    timer.cancel()
            self._timers.clear()

    def _go_down(self) -> None:
        self.down = True
        self.transitions += 1

    def _go_up(self) -> None:
        self.down = False
        self.transitions += 1

    def apply(self, packet: Packet) -> Optional[tuple]:
        if self.down:
            return (_DROP, self.reason)
        return None


class Handover(Impairment):
    """LEO-style satellite switch: outage + delay step + reorder burst.

    At each instant in ``times`` the egress goes dark for ``outage_s``
    (packets dropped with reason ``"handover"``) and then re-acquires
    with the interface's propagation delay stepped to the next value in
    ``delays`` (cycled; empty keeps the delay unchanged). Optionally the
    first ``burst`` packets after re-acquisition are each held ``hold_s``
    — the reorder burst real constellations show while the new path's
    queue drains. A delay *decrease* at a switch cannot reorder the pipe
    itself: the NIC clamps arrivals FIFO per direction.

    The stage needs its interface to step the delay, so timers are armed
    on attach and cancelled on detach; one stage serves exactly one
    attachment point (build a fresh chain per interface, as with every
    stateful stage). Times and delays are physical seconds at this layer;
    :meth:`ImpairmentSpec.build` scales virtual-second specs by the TDF.
    """

    reason = "handover"

    def __init__(
        self,
        sim: Simulator,
        times: Sequence[float],
        outage_s: float,
        delays: Sequence[float] = (),
        burst: int = 0,
        hold_s: float = 0.0,
    ) -> None:
        # Every guard is written so that NaN fails it.
        if not 0 < outage_s < math.inf:
            raise ConfigurationError(
                f"outage_s must be finite and positive: {outage_s}"
            )
        if not 0 <= hold_s < math.inf:
            raise ConfigurationError(
                f"hold_s must be finite and non-negative: {hold_s}"
            )
        if burst < 0:
            raise ConfigurationError(f"burst must be non-negative: {burst}")
        ordered = tuple(float(t) for t in times)
        if not all(math.isfinite(t) for t in ordered) or any(
            b <= a for a, b in zip(ordered, ordered[1:])
        ):
            raise ConfigurationError(
                f"handover times must be finite and strictly increasing: "
                f"{ordered}"
            )
        if not all(0 <= d < math.inf for d in delays):
            raise ConfigurationError(
                f"delays must be finite and non-negative: {delays}"
            )
        self.sim = sim
        self.times = ordered
        self.outage_s = outage_s
        self.delays = tuple(float(d) for d in delays)
        self.burst = burst
        self.hold_s = hold_s
        self.down = False
        self.handovers = 0
        self._burst_left = 0
        self._delay_index = 0
        self._iface: Optional["Interface"] = None
        self._timers: List[object] = []

    def attach(self, iface: "Interface") -> None:
        if self._iface is not None:
            raise ConfigurationError(
                "a Handover stage serves one interface; build one chain "
                "per attachment point"
            )
        self._iface = iface
        now = self.sim.now
        for at in self.times:
            if at >= now:
                self._timers.append(self.sim.call_at(at, self._switch))

    def detach(self, iface: "Interface") -> None:
        self._iface = None
        for timer in self._timers:
            if timer.active:
                timer.cancel()
        self._timers.clear()

    def _switch(self) -> None:
        self.down = True
        self.handovers += 1
        self._timers.append(
            self.sim.call_at(self.sim.now + self.outage_s, self._acquire)
        )

    def _acquire(self) -> None:
        self.down = False
        iface = self._iface
        if iface is not None and self.delays:
            iface.delay_s = self.delays[self._delay_index % len(self.delays)]
            self._delay_index += 1
        self._burst_left = self.burst

    def apply(self, packet: Packet) -> Optional[tuple]:
        if self.down:
            return (_DROP, self.reason)
        if self._burst_left > 0 and self.hold_s > 0:
            self._burst_left -= 1
            return (_HOLD, self.hold_s)
        return None


class FunctionLoss(Impairment):
    """The stage behind :meth:`Interface.set_loss`: drop every packet for
    which ``fn(packet)`` is true, charged as ``"injected"``."""

    reason = "injected"

    def __init__(self, fn) -> None:
        self.fn = fn

    def apply(self, packet: Packet) -> Optional[tuple]:
        if self.fn(packet):
            return (_DROP, self.reason)
        return None


class ImpairmentChain:
    """An ordered pipeline of stages attached to one interface's egress.

    Stages run in order per packet. A drop or hold verdict consumes the
    packet (remaining stages are skipped — a held packet re-enters the
    queue directly, not the chain, so it cannot be held twice); duplicate
    verdicts enqueue a fresh-uid clone immediately after the original.
    """

    def __init__(self, stages: Optional[Sequence[Impairment]] = None) -> None:
        self.stages: List[Impairment] = list(stages or [])

    def add(self, stage: Impairment) -> "ImpairmentChain":
        """Append a stage; returns self for chaining."""
        self.stages.append(stage)
        return self

    def attach(self, iface: "Interface") -> None:
        """Forward the install lifecycle event to every stage."""
        for stage in self.stages:
            stage.attach(iface)

    def detach(self, iface: "Interface") -> None:
        """Forward the removal lifecycle event to every stage."""
        for stage in self.stages:
            stage.detach(iface)

    def send_through(self, iface: "Interface", packet: Packet) -> None:
        """Run ``packet`` through the stages, then into the egress queue."""
        copies = 0
        for stage in self.stages:
            verdict = stage.apply(packet)
            if verdict is None:
                continue
            kind = verdict[0]
            if kind == _DROP:
                iface._drop(packet, verdict[1])
                return
            if kind == _HOLD:
                iface.sim.schedule_transient(verdict[1], iface._enqueue, packet)
                return
            if kind == _DUP:
                copies += 1
        iface._enqueue(packet)
        for _ in range(copies):
            iface._enqueue(_clone(packet))


def _clone(packet: Packet) -> Packet:
    """A wire-identical copy with a fresh uid (traces see two packets)."""
    return Packet(
        src=packet.src,
        dst=packet.dst,
        protocol=packet.protocol,
        size_bytes=packet.size_bytes,
        payload=packet.payload,
        flow_id=packet.flow_id,
        ttl=packet.ttl,
        created_at=packet.created_at,
        ecn_capable=packet.ecn_capable,
        ce=packet.ce,
        corrupted=packet.corrupted,
    )


#: Spec kinds understood by :meth:`ImpairmentSpec.build`.
_KINDS = (
    "bernoulli", "gilbert", "reorder", "duplicate", "corrupt", "flap",
    "handover",
)


#: ``--impair`` options holding one float, by field name.
_FLOAT_OPTIONS = {"rate": "rate", "burst": "burst", "hold": "hold_s",
                  "every": "every_s", "outage": "outage_s"}


@dataclass(frozen=True)
class ImpairmentSpec:
    """A declarative, TDF-portable impairment description.

    Time-valued fields (``hold_s``, ``windows``) are **virtual** seconds:
    :meth:`build` multiplies them by the TDF so a dilated run impairs the
    physically-stretched path at the same *perceived* instants as its
    baseline. Probability fields are per-packet and need no scaling.

    The string form (``parse``) is the harness' ``--impair`` axis::

        bernoulli:rate=0.01,seed=7
        gilbert:rate=0.01,burst=4
        reorder:rate=0.05,hold=0.002
        flap:windows=1.0-1.5/3.0-3.2
        handover:every=2.0,count=3,outage=0.05,delays=0.03+0.05,hold=0.004

    ``handover`` switches satellites every ``every`` virtual seconds,
    ``count`` times: each switch is a brief outage plus a delay step to
    the next value in ``delays`` (cycled), optionally followed by a
    reorder burst of ``int(burst)`` packets held ``hold`` seconds each
    (``hold=0`` disables the burst).
    """

    kind: str
    rate: float = 0.01
    burst: float = 4.0
    hold_s: float = 0.0
    windows: Tuple[Tuple[float, float], ...] = field(default_factory=tuple)
    seed: int = 1
    #: Handover cadence: virtual seconds between satellite switches.
    every_s: float = 0.0
    #: Handover count: number of switches over the run.
    count: int = 0
    #: Handover outage: virtual seconds of darkness per switch.
    outage_s: float = 0.05
    #: Handover delay steps: virtual one-way delays cycled per switch.
    delays: Tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"unknown impairment kind {self.kind!r}; known: {_KINDS}"
            )
        values = (self.rate, self.burst, self.hold_s, self.every_s,
                  self.outage_s, *self.delays,
                  *(edge for window in self.windows for edge in window))
        if not all(math.isfinite(value) for value in values):
            raise ConfigurationError(
                f"impairment values must be finite (no NaN or inf): {self}"
            )
        if self.kind == "handover":
            if self.every_s <= 0:
                raise ConfigurationError(
                    "handover needs every=<seconds between switches> > 0"
                )
            if self.count < 1:
                raise ConfigurationError(
                    "handover needs count=<number of switches> >= 1"
                )
            if not 0 < self.outage_s < self.every_s:
                raise ConfigurationError(
                    f"handover outage ({self.outage_s}) must be positive and "
                    f"shorter than the cadence ({self.every_s})"
                )
        # Each stage's constructor is the one range check, so a spec is
        # refused where it is written, not inside the cell that builds it.
        # No stage touches its engine before attach (LinkFlap and Handover
        # arm timers there), so this throwaway chain gets none: a
        # Simulator here would join any active profiler's count.
        self.build(None)  # type: ignore[arg-type]

    @classmethod
    def parse(cls, text: str) -> "ImpairmentSpec":
        """Parse the CLI form ``kind[:key=value,...]``.

        Every malformed item raises :class:`ConfigurationError` naming it.
        """
        kind, options = split_spec(text, "impairment")
        kwargs: dict = {}
        for key, value in options:
            if key in _FLOAT_OPTIONS:
                kwargs[_FLOAT_OPTIONS[key]] = number(key, value, "impairment")
            elif key in ("seed", "count"):
                kwargs[key] = number(key, value, "impairment", int)
            elif key == "delays":
                kwargs["delays"] = tuple(
                    number(key, d, "impairment") for d in value.split("+") if d
                )
            elif key == "windows":
                pairs = []
                for window in value.split("/"):
                    down, _, up = window.partition("-")
                    pairs.append((number(key, down, "impairment"),
                                  number(key, up, "impairment")))
                kwargs["windows"] = tuple(pairs)
            else:
                raise ConfigurationError(
                    f"unknown impairment option {key!r} in {text!r}"
                )
        return cls(kind=kind, **kwargs)

    def build(self, sim: Simulator, tdf: object = 1) -> ImpairmentChain:
        """Materialise a chain for one interface, scaled to ``tdf``.

        Construct one chain per interface per run: stages carry RNG and
        model state that must not be shared between attachment points.
        """
        from ..core.tdf import as_tdf

        factor = float(as_tdf(tdf).value)
        if self.kind == "bernoulli":
            stage: Impairment = BernoulliLoss(self.rate, seed=self.seed)
        elif self.kind == "gilbert":
            stage = GilbertElliott.from_loss_rate(
                self.rate, mean_burst=self.burst, seed=self.seed
            )
        elif self.kind == "reorder":
            stage = Reorder(self.rate, self.hold_s * factor, seed=self.seed)
        elif self.kind == "duplicate":
            stage = Duplicate(self.rate, seed=self.seed)
        elif self.kind == "corrupt":
            stage = Corrupt(self.rate, seed=self.seed)
        elif self.kind == "flap":
            scaled = tuple(
                (down * factor, up * factor) for down, up in self.windows
            )
            stage = LinkFlap(sim, scaled)
        else:  # handover
            stage = Handover(
                sim,
                times=tuple(
                    (index + 1) * self.every_s * factor
                    for index in range(self.count)
                ),
                outage_s=self.outage_s * factor,
                delays=tuple(d * factor for d in self.delays),
                burst=int(self.burst) if self.hold_s > 0 else 0,
                hold_s=self.hold_s * factor,
            )
        return ImpairmentChain([stage])
