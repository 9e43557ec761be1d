"""Queueing disciplines for link egress buffers.

Two disciplines are provided, matching what the paper's testbed used via
dummynet/netem:

* :class:`DropTailQueue` — bounded FIFO, drops arrivals when full.
* :class:`REDQueue` — Random Early Detection (Floyd & Jacobson 1993) with
  the standard EWMA average-queue estimator and linear drop probability
  between ``min_th`` and ``max_th``.

Queues are passive containers: the :class:`~repro.simnet.nic.Interface`
drains them as the link becomes free. Both disciplines count accepted
and dropped packets for the statistics layer.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Optional

from .errors import ConfigurationError
from .packet import Packet

__all__ = ["QueueStats", "DropTailQueue", "REDQueue"]


class QueueStats:
    """Counters shared by all queue disciplines."""

    def __init__(self) -> None:
        self.enqueued_packets = 0
        self.dropped_packets = 0

    @property
    def drop_rate(self) -> float:
        """Fraction of arriving packets that were dropped."""
        arrivals = self.enqueued_packets + self.dropped_packets
        if arrivals == 0:
            return 0.0
        return self.dropped_packets / arrivals


class DropTailQueue:
    """A bounded FIFO that drops arrivals once ``capacity_packets`` is reached.

    Capacity may alternatively be expressed in bytes (``capacity_bytes``);
    if both are given, whichever limit is hit first causes the drop.
    """

    #: Drop-tail is the one discipline the fluid fast path can model in
    #: closed form (occupancy = window minus BDP, overflow = loss); any
    #: other discipline keeps its flows packet-level. See
    #: :mod:`repro.simnet.fluid`.
    fluid_transparent = True

    def __init__(
        self,
        capacity_packets: Optional[int] = 100,
        capacity_bytes: Optional[int] = None,
    ) -> None:
        if capacity_packets is None and capacity_bytes is None:
            raise ConfigurationError("queue needs at least one capacity limit")
        if capacity_packets is not None and capacity_packets <= 0:
            raise ConfigurationError("capacity_packets must be positive")
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ConfigurationError("capacity_bytes must be positive")
        self.capacity_packets = capacity_packets
        self.capacity_bytes = capacity_bytes
        self.stats = QueueStats()
        self._items: deque[Packet] = deque()
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def byte_length(self) -> int:
        """Bytes currently queued."""
        return self._bytes

    def offer(self, packet: Packet) -> bool:
        """Try to enqueue; returns ``False`` (and counts a drop) when full."""
        size = packet.size_bytes
        if (
            self.capacity_packets is not None
            and len(self._items) >= self.capacity_packets
        ) or (
            self.capacity_bytes is not None
            and self._bytes + size > self.capacity_bytes
        ):
            self.stats.dropped_packets += 1
            return False
        self._items.append(packet)
        self._bytes += size
        self.stats.enqueued_packets += 1
        return True

    def poll(self) -> Optional[Packet]:
        """Dequeue the head packet, or ``None`` when empty."""
        if not self._items:
            return None
        packet = self._items.popleft()
        self._bytes -= packet.size_bytes
        return packet


class REDQueue:
    """Random Early Detection.

    Not ``fluid_transparent``: RED's probabilistic early drops depend on
    per-packet arrival history, which the fluid model cannot reproduce.

    The average queue length is tracked with an exponentially weighted
    moving average updated on every arrival. Between ``min_th`` and
    ``max_th`` packets, arrivals are dropped with probability rising
    linearly to ``max_p``; beyond ``max_th`` every arrival is dropped.
    The ``count``-based correction from the original paper (spacing drops
    roughly uniformly) is implemented, as is the paper's *idle-time decay*:
    when a packet arrives at an empty queue, the average is aged as if
    ``idle / mean_packet_time_s`` small packets had passed — without this,
    the average stays high after a drain and RED keeps early-dropping an
    empty queue (classic implementation bug). Supply ``clock`` (anything
    with a ``now`` attribute or method — a Simulator works) and
    ``mean_packet_time_s`` (the link's typical serialisation time) to
    enable it.

    The RNG is injected for determinism; experiments construct it from the
    experiment seed so dilated and baseline runs see identical drop choices.
    """

    def __init__(
        self,
        capacity_packets: int = 200,
        min_th: float = 20.0,
        max_th: float = 80.0,
        max_p: float = 0.1,
        weight: float = 0.002,
        rng: Optional[random.Random] = None,
        clock: Optional[object] = None,
        mean_packet_time_s: Optional[float] = None,
        ecn_marking: bool = False,
    ) -> None:
        if not 0 < min_th < max_th <= capacity_packets:
            raise ConfigurationError(
                f"need 0 < min_th < max_th <= capacity "
                f"(got {min_th}, {max_th}, {capacity_packets})"
            )
        if not 0 < max_p <= 1:
            raise ConfigurationError("max_p must be in (0, 1]")
        self.capacity_packets = capacity_packets
        self.min_th = min_th
        self.max_th = max_th
        self.max_p = max_p
        self.weight = weight
        self.stats = QueueStats()
        self._rng = rng if rng is not None else random.Random(0)
        self._clock = clock
        self._mean_packet_time_s = mean_packet_time_s
        #: RFC 3168 mode: probabilistic "drops" become CE marks for
        #: ECN-capable packets (hard overflow still drops).
        self.ecn_marking = ecn_marking
        self.marked_packets = 0
        self._idle_since: Optional[float] = None
        self._items: deque[Packet] = deque()
        self._bytes = 0
        self._avg = 0.0
        self._count = -1  # packets since last early drop

    def __len__(self) -> int:
        return len(self._items)

    @property
    def byte_length(self) -> int:
        return self._bytes

    @property
    def average_queue(self) -> float:
        """Current EWMA estimate of the queue length in packets."""
        return self._avg

    def _now(self) -> Optional[float]:
        if self._clock is None:
            return None
        now = getattr(self._clock, "now")
        return now() if callable(now) else now

    def _update_average(self) -> None:
        if (
            not self._items
            and self._idle_since is not None
            and self._mean_packet_time_s
        ):
            now = self._now()
            if now is not None:
                idle_packets = (now - self._idle_since) / self._mean_packet_time_s
                self._avg *= (1 - self.weight) ** max(0.0, idle_packets)
            self._idle_since = None
        self._avg = (1 - self.weight) * self._avg + self.weight * len(self._items)

    def _early_drop(self) -> bool:
        if self._avg < self.min_th:
            self._count = -1
            return False
        if self._avg >= self.max_th:
            self._count = 0
            return True
        self._count += 1
        base_p = self.max_p * (self._avg - self.min_th) / (self.max_th - self.min_th)
        denominator = 1 - self._count * base_p
        probability = base_p / denominator if denominator > 0 else 1.0
        if self._rng.random() < probability:
            self._count = 0
            return True
        return False

    def offer(self, packet: Packet) -> bool:
        """RED arrival processing: maybe early-drop (or CE-mark), else enqueue."""
        self._update_average()
        if len(self._items) >= self.capacity_packets:
            self.stats.dropped_packets += 1
            return False
        if self._early_drop():
            if self.ecn_marking and packet.ecn_capable:
                packet.ce = True
                self.marked_packets += 1
            else:
                self.stats.dropped_packets += 1
                return False
        self._items.append(packet)
        self._bytes += packet.size_bytes
        self.stats.enqueued_packets += 1
        return True

    def poll(self) -> Optional[Packet]:
        if not self._items:
            return None
        packet = self._items.popleft()
        self._bytes -= packet.size_bytes
        if not self._items:
            self._idle_since = self._now()
        return packet
