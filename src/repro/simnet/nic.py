"""Network interfaces: serialisation, egress queueing, and delivery.

An :class:`Interface` is one direction-capable attachment point of a node.
Its transmit path models exactly what a physical NIC plus its drop-tail (or
RED) buffer does:

1. an arriving packet is appended to the egress queue (or dropped by the
   discipline);
2. when the transmitter is idle it dequeues the head packet and holds the
   wire for ``size_bits / bandwidth`` seconds (serialisation);
3. the packet then propagates for ``delay`` seconds and is delivered to the
   peer interface's node.

Serialisation and propagation always happen in **physical time** — that is
the point of the reproduction: the wire does not know about dilation; only
the guests' perception of it changes.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from .engine import Simulator
from .errors import ConfigurationError
from .impairments import FunctionLoss, ImpairmentChain
from .packet import Packet
from .queues import DropTailQueue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .node import Node

__all__ = ["Interface", "TapFn"]

#: Signature of a packet observer: (event kind, interface, packet, drop
#: reason). The reason is the taxonomy reason for a "drop" and ``None``
#: for every other kind; the physical time is ``interface.sim.now``.
TapFn = Callable[[str, "Interface", Packet, Optional[str]], None]


class Interface:
    """One endpoint of a point-to-point link."""

    def __init__(
        self,
        sim: Simulator,
        node: "Node",
        bandwidth_bps: float,
        delay_s: float,
        queue: Optional[DropTailQueue] = None,
        name: str = "",
        jitter_s: float = 0.0,
        jitter_rng: Optional["random.Random"] = None,
    ) -> None:
        # The range rule a link schedule's entries follow, checked once
        # here so a bad value never reaches the per-packet arithmetic;
        # every guard is written so that NaN fails it.
        if not 0 < bandwidth_bps < math.inf:
            raise ConfigurationError(
                f"bandwidth must be positive and finite: {bandwidth_bps}"
            )
        if not 0 <= delay_s < math.inf:
            raise ConfigurationError(
                f"delay must be non-negative and finite: {delay_s}"
            )
        if not 0 <= jitter_s:
            raise ConfigurationError(f"jitter must be non-negative: {jitter_s}")
        if not jitter_s <= delay_s:
            raise ConfigurationError(
                "jitter may not exceed the base delay (it would need "
                "negative propagation)"
            )
        self.sim = sim
        self.node = node
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        #: netem-style delay variation: each packet's propagation is
        #: ``delay ± U(0, jitter)``. Deterministic via the injected RNG.
        #: Note packets may be reordered when jitter exceeds the packet
        #: spacing, exactly as with netem.
        self.jitter_s = jitter_s
        self._jitter_rng = jitter_rng
        self.queue = queue if queue is not None else DropTailQueue()
        self.name = name or f"{node.name}-if"
        self.peer: Optional["Interface"] = None
        #: The wire holds a packet (serialisation in progress).
        self._busy = False
        #: A packet was queued behind the busy wire since the queue was
        #: last found empty. While False the queue is known to be empty,
        #: so a finished transmission idles the wire without polling it.
        self._backlog = False
        #: Packet observers (a flight recorder's ``record_packet``, a
        #: FlowMonitor, a test tap), called in attachment order.
        self._taps: List[TapFn] = []
        #: True once an observer is attached: each packet-event site pays
        #: this one check and nothing else when none is, so determinism
        #: pins and engine benchmarks are unchanged.
        self._observed = False
        #: Optional impairment pipeline (loss models, reordering,
        #: duplication, corruption); ``None`` costs one attribute
        #: check per packet and schedules no events.
        self._impairments: Optional[ImpairmentChain] = None
        #: Administrative state: a downed interface drops everything
        #: (set via Network.fail_link / restore_link).
        self.up = True
        #: Unified drop taxonomy: reason -> count. Every egress drop on
        #: this interface lands here under exactly one reason — "down"
        #: (administratively down), "injected" (a :meth:`set_loss`
        #: predicate), "queue" (discipline rejected it), "shaper" (a wrapping
        #: ShapedInterface's backlog overflowed), or an impairment-stage
        #: reason ("loss", "reorder"…). Mirrored into
        #: ``sim.counters["drop.<reason>"]`` for engine-wide summaries.
        self.drops: Dict[str, int] = {}
        #: Bytes successfully put on the wire (serialised), for utilisation.
        self.tx_bytes = 0
        self.tx_packets = 0
        self.rx_bytes = 0
        self.rx_packets = 0
        #: Cross-shard egress: when the peer interface lives in another
        #: worker process, the sharded runner installs a
        #: :class:`repro.parallel.shard.ShardChannel` here and finished
        #: transmissions are handed to it (with the propagation delay
        #: already applied) instead of being scheduled on the local engine.
        #: ``None`` — the only state in a single-process run — costs one
        #: attribute check per transmitted packet.
        self.egress_channel = None
        #: Optional :class:`repro.simnet.schedule.LinkSchedule` driving this
        #: interface's delay/bandwidth/liveness as a function of time (set
        #: by the schedule on attach). Consulted by
        #: :meth:`fluid_transparent` and :meth:`min_delay_s`.
        self.schedule = None
        #: The two per-packet engine callbacks, bound once: reading
        #: ``self._finish_transmit`` as an argument builds a new bound
        #: method object for every packet event.
        self._finish_transmit_fn = self._finish_transmit
        self._deliver_fn = self._deliver
        #: FIFO horizon: the latest arrival instant this direction has
        #: handed to the propagation pipe. A mid-run *decrease* of
        #: ``delay_s`` (a schedule step) must not
        #: let a later packet overtake one already in flight — dummynet
        #: clamps each arrival to the previous packet's, and so do we.
        #: Jittered interfaces are exempt: netem-style jitter reorders by
        #: design (pinned by test_jitter_can_reorder_packets).
        self._fifo_horizon_s = 0.0

    def connect(self, peer: "Interface") -> None:
        """Bind the remote endpoint; both directions are bound symmetrically."""
        self.peer = peer
        peer.peer = self

    def add_tap(self, tap: TapFn) -> None:
        """Attach a packet observer, called on 'enqueue', 'tx', 'rx' and
        'drop' (see :data:`TapFn`). Any number may observe one interface;
        attaching the same observer again is a no-op."""
        if tap not in self._taps:
            self._taps.append(tap)
        self._observed = True

    def _observe(self, kind: str, packet: Packet,
                 reason: Optional[str] = None) -> None:
        """Report one packet event to every observer."""
        for tap in self._taps:
            tap(kind, self, packet, reason)

    def set_loss(self, loss_fn: Optional[Callable[[Packet], bool]]) -> None:
        """Drop every packet for which ``loss_fn(packet)`` is true.

        Drops are charged as ``"injected"``. This installs a one-stage
        impairment chain (:class:`~repro.simnet.impairments.FunctionLoss`),
        so it **replaces any chain** attached with :meth:`set_impairments`;
        ``None`` clears it.
        """
        self.set_impairments(
            None if loss_fn is None
            else ImpairmentChain([FunctionLoss(loss_fn)])
        )

    def set_impairments(self, chain: Optional[ImpairmentChain]) -> None:
        """Attach (or clear, with ``None``) an impairment pipeline on this
        egress, replacing any chain already there."""
        self._impairments = chain

    def fluid_transparent(self) -> bool:
        """True when this egress is a pure delay+bandwidth+droptail pipe.

        The fluid fast path (:mod:`repro.simnet.fluid`) may only model a
        hop it can express in closed form: no impairment chain (a
        :meth:`set_loss` predicate included), observer or jitter (all
        per-packet decisions), no cross-shard egress channel (those
        packets must really cross the boundary inside the lookahead
        window), no schedule change still pending (a closed-form hold
        would integrate straight across the discontinuity), and a
        drop-tail queue. Re-checked every fluid
        step, so installing any of these mid-run demotes the flows riding
        this hop back to packet level.
        """
        return (
            self.up
            and self.egress_channel is None
            and self._impairments is None
            and not self._taps
            and self.jitter_s == 0
            and (self.schedule is None or not self.schedule.change_pending)
            and getattr(self.queue, "fluid_transparent", False)
        )

    def min_delay_s(self) -> float:
        """Conservative minimum propagation delay this egress can exhibit.

        Static interfaces: the base delay minus the worst-case jitter
        excursion. Scheduled interfaces additionally take the minimum over
        every delay the schedule will ever apply — a partition's lookahead
        must hold for the entire run, not just the initial configuration,
        so :func:`~repro.simnet.topology.partition_network` derives cut
        lookahead from this, not from ``delay_s``.
        """
        delay = self.delay_s
        if self.schedule is not None:
            delay = min(delay, self.schedule.min_delay_s)
        return delay - self.jitter_s

    @property
    def down_drops(self) -> int:
        """Packets dropped because the interface was administratively down."""
        return self.drops.get("down", 0)

    @property
    def injected_losses(self) -> int:
        """Packets dropped by a :meth:`set_loss` predicate."""
        return self.drops.get("injected", 0)

    @property
    def total_drops(self) -> int:
        """All egress drops on this interface, every reason included."""
        return sum(self.drops.values())

    def _drop(self, packet: Packet, reason: str) -> None:
        """Charge one drop to the taxonomy and the engine-wide counters."""
        self.drops[reason] = self.drops.get(reason, 0) + 1
        counters = self.sim.counters
        key = "drop." + reason
        counters[key] = counters.get(key, 0) + 1
        if self._observed:
            self._observe("drop", packet, reason)

    def send(self, packet: Packet) -> None:
        """Entry point for the node: queue the packet and kick the transmitter."""
        if self.peer is None:
            raise ConfigurationError(f"interface {self.name} is not connected")
        if self.up and self._impairments is None:
            self._enqueue(packet)
        elif not self.up:
            self._drop(packet, "down")
        else:
            self._impairments.send_through(self, packet)

    def _enqueue(self, packet: Packet) -> None:
        """Post-impairment path: offer to the discipline, kick the wire.

        Held (reordered) packets re-enter here directly so a packet passes
        the impairment chain exactly once.
        """
        if not self.queue.offer(packet):
            self._drop(packet, "queue")
            return
        if self._observed:
            self._observe("enqueue", packet)
        if self._busy:
            self._backlog = True
            return
        # Idle wire: the packet just accepted is the head. Its
        # serialisation completion is computable up front, so one
        # transient event (bound method + argument, no closure, no
        # Event object) carries it to the end of the wire hold.
        self._busy = True
        packet = self.queue.poll()
        self.sim.schedule_transient(
            packet.size_bytes * 8.0 / self.bandwidth_bps,
            self._finish_transmit_fn,
            packet,
        )

    def _finish_transmit(self, packet: Packet) -> None:
        self.tx_bytes += packet.size_bytes
        self.tx_packets += 1
        if self._observed:
            self._observe("tx", packet)
        if self._jitter_rng is not None and self.jitter_s > 0:
            # Jitter reorders by design (netem semantics) — no clamp.
            delay = self.delay_s + self._jitter_rng.uniform(
                -self.jitter_s, self.jitter_s
            )
            arrival = self.sim._now + delay
        else:
            # FIFO per direction: clamp the arrival to the previous
            # packet's so a mid-run delay decrease cannot let this packet
            # overtake one still propagating (dummynet does the same).
            # Under a constant delay the clamp never binds, keeping the
            # static-path schedule bit-identical.
            arrival = self.sim._now + self.delay_s
            if arrival < self._fifo_horizon_s:
                arrival = self._fifo_horizon_s
            self._fifo_horizon_s = arrival
        if self.egress_channel is not None:
            # The peer lives in another shard: ship (arrival time, packet)
            # to its engine. Jitter/clamping happened above, sender-side,
            # so the arrival time is final and deterministic.
            self.egress_channel.send(arrival, packet)
        else:
            self.sim.schedule_transient_at(arrival, self.peer._deliver_fn, packet)
        # The delivery above is scheduled before the next wire hold, so
        # same-instant ties keep their order.
        if self._backlog:
            packet = self.queue.poll()
            if packet is not None:
                self.sim.schedule_transient(
                    packet.size_bytes * 8.0 / self.bandwidth_bps,
                    self._finish_transmit_fn,
                    packet,
                )
                return
            self._backlog = False
        self._busy = False

    def _deliver(self, packet: Packet) -> None:
        self.rx_bytes += packet.size_bytes
        self.rx_packets += 1
        if self._observed:
            self._observe("rx", packet)
        self.node.receive(packet, self)

    def utilisation(self, elapsed_s: float) -> float:
        """Fraction of ``elapsed_s`` spent serialising (approximate)."""
        if elapsed_s <= 0:
            return 0.0
        return min(1.0, (self.tx_bytes * 8.0) / (self.bandwidth_bps * elapsed_s))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Interface({self.name}, {self.bandwidth_bps:.0f}bps, {self.delay_s}s)"
