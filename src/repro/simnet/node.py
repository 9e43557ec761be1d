"""Nodes — hosts and routers of the emulated network.

A :class:`Node` owns interfaces, a static routing table, and a registry of
protocol handlers. When a packet addressed to the node arrives, it is handed
to the handler registered for ``packet.protocol``; packets addressed
elsewhere are forwarded (router behaviour).

The node also carries the :class:`~repro.simnet.clock.Clock` that every
protocol stack and application on the node must use. Making the node the
single source of the clock is what lets the VMM dilate an entire guest by
swapping one object.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Protocol

from .clock import Clock, PhysicalClock
from .engine import Simulator
from .errors import AddressError, RoutingError
from .nic import Interface
from .packet import Packet

__all__ = ["Node", "ProtocolHandler"]


class ProtocolHandler(Protocol):
    """Anything able to consume packets delivered to a node."""

    def deliver(self, packet: Packet) -> None:  # pragma: no cover - protocol
        ...


class Node:
    """A host or router identified by a unique name (its address)."""

    def __init__(self, sim: Simulator, name: str, clock: Optional[Clock] = None) -> None:
        self.sim = sim
        self.name = name
        #: The clock every stack/app on this node observes. Replaced by the
        #: VMM with a DilatedClock when the node becomes a dilated guest.
        self.clock: Clock = clock if clock is not None else PhysicalClock(sim)
        self.interfaces: list[Interface] = []
        #: destination address -> egress interface
        self.routes: Dict[str, Interface] = {}
        self._protocols: Dict[str, ProtocolHandler] = {}
        #: Packets that arrived for a protocol nobody registered.
        self.unhandled_packets = 0
        #: Transit packets dropped for lack of a route (e.g. after a link
        #: failure partitions the topology) — routers drop, hosts raise.
        self.no_route_drops = 0

    # ------------------------------------------------------------------ wiring

    def add_interface(self, interface: Interface) -> None:
        """Attach an interface created by the topology layer."""
        self.interfaces.append(interface)

    def register_protocol(self, protocol: str, handler: ProtocolHandler) -> None:
        """Bind a transport stack (or raw sink) to a protocol tag."""
        if protocol in self._protocols:
            raise AddressError(f"protocol {protocol!r} already registered on {self.name}")
        self._protocols[protocol] = handler

    def protocol(self, name: str) -> ProtocolHandler:
        """Look up a registered protocol handler."""
        try:
            return self._protocols[name]
        except KeyError:
            raise AddressError(f"no protocol {name!r} on node {self.name}") from None

    def set_route(self, destination: str, interface: Interface) -> None:
        """Install a static route (normally done by the routing layer)."""
        self.routes[destination] = interface

    # --------------------------------------------------------------- data path

    def send(self, packet: Packet) -> None:
        """Originate a packet from this node.

        A missing route at the *origin* is a host configuration error and
        raises; in-transit packets that lose their route (link failure) are
        dropped like a real router drops them.
        """
        packet.created_at = self.sim.now
        if packet.dst == self.name:
            # Loopback: deliver without touching the wire.
            self.sim.schedule(0.0, self.receive, packet, None)
            return
        interface = self.routes.get(packet.dst)
        if interface is None:
            raise RoutingError(f"{self.name}: no route to {packet.dst}")
        interface.send(packet)

    def receive(
        self, packet: Packet, arriving_interface: Optional[Interface]
    ) -> None:
        """Called by an interface when a packet arrives: hand it to the
        protocol registered for it, or forward it one hop closer."""
        if packet.dst == self.name:
            handler = self._protocols.get(packet.protocol)
            if handler is None:
                self.unhandled_packets += 1
                return
            handler.deliver(packet)
            return
        packet.hop()
        interface = self.routes.get(packet.dst)
        if interface is None:
            self.no_route_drops += 1
            return
        interface.send(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.name}, ifaces={len(self.interfaces)})"
