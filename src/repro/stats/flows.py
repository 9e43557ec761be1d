"""Per-flow accounting across many observation points.

A :class:`FlowMonitor` is the emulator's flow-level instrument (think
``nfdump``/ns-3's FlowMonitor): attach it to any number of interfaces and
it aggregates per-``flow_id`` byte/packet/drop counters plus first/last
observation times. Times are mapped through an optional clock, so a
monitor owned by a dilated guest reports virtual timings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from ..simnet.clock import Clock
from ..simnet.nic import Interface
from ..simnet.packet import Packet

__all__ = ["FlowStats", "FlowMonitor"]

#: Label under which packets without a flow_id are accumulated.
UNLABELLED = "<unlabelled>"


@dataclass
class FlowStats:
    """Counters for one flow id."""

    flow_id: str
    rx_packets: int = 0
    rx_bytes: int = 0
    tx_packets: int = 0
    tx_bytes: int = 0
    drops: int = 0
    dropped_bytes: int = 0
    first_seen: Optional[float] = None
    last_seen: Optional[float] = None

    def duration(self) -> float:
        """Seconds between first and last observation (0 if single event)."""
        if self.first_seen is None or self.last_seen is None:
            return 0.0
        return self.last_seen - self.first_seen

    def rx_rate_bps(self) -> float:
        """Average received rate over the observed lifetime."""
        span = self.duration()
        if span <= 0:
            return 0.0
        return self.rx_bytes * 8 / span


class FlowMonitor:
    """Aggregates per-flow statistics from interface taps."""

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock = clock
        self.flows: Dict[str, FlowStats] = {}
        #: Interfaces under observation (each once, in watch order) and
        #: the packet kinds observed on each.
        self.interfaces: Dict[Interface, Set[str]] = {}
        #: TCP sockets registered via :meth:`track_socket`.
        self.sockets: List[object] = []

    def watch(self, interface: Interface,
              kinds: Iterable[str] = ("rx", "tx", "drop")) -> None:
        """Start observing an interface; may be called on many.

        Watching an interface again widens the kinds observed there. Every
        watch attaches the same observer, so the interface ignores the
        repeat and each packet is still counted once.
        """
        self.interfaces.setdefault(interface, set()).update(kinds)
        interface.add_tap(self._tap)

    def _tap(self, kind: str, interface: Interface, packet: Packet,
             reason: Optional[str]) -> None:
        if kind in self.interfaces[interface]:
            self._observe(kind, interface.sim.now, packet)

    def _observe(self, kind: str, time: float, packet: Packet) -> None:
        flow_id = packet.flow_id if packet.flow_id is not None else UNLABELLED
        stats = self.flows.get(flow_id)
        if stats is None:
            stats = FlowStats(flow_id=flow_id)
            self.flows[flow_id] = stats
        local = self.clock.to_local(time) if self.clock is not None else time
        if stats.first_seen is None:
            stats.first_seen = local
        stats.last_seen = local
        if kind == "rx":
            stats.rx_packets += 1
            stats.rx_bytes += packet.size_bytes
        elif kind == "tx":
            stats.tx_packets += 1
            stats.tx_bytes += packet.size_bytes
        elif kind == "drop":
            stats.drops += 1
            stats.dropped_bytes += packet.size_bytes

    def flow(self, flow_id: str) -> FlowStats:
        """Stats for one flow (KeyError if never observed)."""
        return self.flows[flow_id]

    def top_by_rx_bytes(self, n: int = 10) -> List[FlowStats]:
        """The n heaviest flows by received volume."""
        return sorted(
            self.flows.values(), key=lambda s: -s.rx_bytes
        )[:n]

    def total_drops(self) -> int:
        """Drops across every observed flow."""
        return sum(stats.drops for stats in self.flows.values())

    # Drop taxonomy and TCP accounting ---------------------------------

    def interface_drops(self) -> Dict[str, Dict[str, int]]:
        """Per-interface drop taxonomy (``{iface name: {reason: count}}``).

        Reasons are the NIC taxonomy: "down", "injected", "queue", plus
        impairment-stage reasons ("loss", "reorder", "duplicate",
        "corrupt"). Interfaces with no drops map to
        ``{}``.
        """
        return {iface.name: dict(iface.drops) for iface in self.interfaces}

    def drops_by_reason(self) -> Dict[str, int]:
        """The taxonomy aggregated across every watched interface."""
        totals: Dict[str, int] = {}
        for iface in self.interfaces:
            for reason, count in iface.drops.items():
                totals[reason] = totals.get(reason, 0) + count
        return totals

    def track_socket(self, sock: object) -> None:
        """Register a TCP socket for retransmission accounting."""
        self.sockets.append(sock)

    def tcp_summary(self) -> Dict[str, int]:
        """Retransmission/dupack accounting summed over tracked sockets.

        Keys mirror ``TcpSocket.info()``: retransmits, timeouts,
        dupacks_received, fast_retransmits, fast_recoveries.
        """
        keys = ("retransmits", "timeouts", "dupacks_received",
                "fast_retransmits", "fast_recoveries")
        totals = {key: 0 for key in keys}
        for sock in self.sockets:
            for key in keys:
                totals[key] += getattr(sock, key, 0)
        return totals
