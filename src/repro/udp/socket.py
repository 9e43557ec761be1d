"""Datagram sockets.

UDP in this emulator is what the BitTorrent tracker protocol and probe
tools ride on: unreliable, unordered (within what the network does),
message-oriented. A :class:`UdpSocket` is bound to a port on one node;
datagrams carry a byte size plus an arbitrary Python payload object.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from ..simnet.errors import AddressError
from ..simnet.node import Node
from ..simnet.packet import IP_HEADER_BYTES, Packet

__all__ = ["Datagram", "UdpSocket", "UdpStack", "UDP_HEADER_BYTES"]

#: UDP header size charged on every datagram.
UDP_HEADER_BYTES = 8

_datagram_ids = itertools.count(1)


@dataclass
class Datagram:
    """One UDP payload as seen by the application."""

    src_addr: str
    src_port: int
    dst_port: int
    size_bytes: int
    payload: Any = None
    uid: int = field(default_factory=lambda: next(_datagram_ids))


class UdpSocket:
    """A bound datagram endpoint."""

    def __init__(
        self,
        stack: "UdpStack",
        port: int,
        on_datagram: Optional[Callable[["UdpSocket", Datagram], None]] = None,
    ) -> None:
        self.stack = stack
        self.port = port
        self.on_datagram = on_datagram
        self.datagrams_sent = 0
        self.datagrams_received = 0
        self._closed = False

    @property
    def node(self) -> Node:
        return self.stack.node

    def sendto(
        self,
        remote_addr: str,
        remote_port: int,
        size_bytes: int,
        payload: Any = None,
        flow_id: Optional[str] = None,
    ) -> None:
        """Fire one datagram at a remote endpoint (no delivery guarantee)."""
        if self._closed:
            raise AddressError("socket is closed")
        if size_bytes < 0:
            raise AddressError(f"datagram size must be non-negative: {size_bytes}")
        datagram = Datagram(
            src_addr=self.node.name,
            src_port=self.port,
            dst_port=remote_port,
            size_bytes=size_bytes,
            payload=payload,
        )
        # Positional: keyword matching costs as much as the construction.
        packet = Packet(self.node.name, remote_addr, "udp",
                        IP_HEADER_BYTES + UDP_HEADER_BYTES + size_bytes,
                        datagram, flow_id)
        self.datagrams_sent += 1
        self.node.send(packet)

    def close(self) -> None:
        """Release the port."""
        if not self._closed:
            self._closed = True
            self.stack.release(self.port)

    def _deliver(self, datagram: Datagram) -> None:
        self.datagrams_received += 1
        if self.on_datagram is not None:
            self.on_datagram(self, datagram)


class UdpStack:
    """Per-node UDP layer: the ``"udp"`` protocol handler."""

    EPHEMERAL_BASE = 49152

    def __init__(self, node: Node) -> None:
        self.node = node
        self._sockets: Dict[int, UdpSocket] = {}
        self._next_ephemeral = self.EPHEMERAL_BASE
        node.register_protocol("udp", self)
        #: Datagrams that arrived for an unbound port.
        self.dropped_unbound = 0
        #: Datagrams discarded for failing checksum validation.
        self.checksum_drops = 0

    def bind(
        self,
        port: Optional[int] = None,
        on_datagram: Optional[Callable[[UdpSocket, Datagram], None]] = None,
    ) -> UdpSocket:
        """Bind a port (ephemeral when ``port`` is None)."""
        if port is None:
            port = self._allocate_port()
        if port in self._sockets:
            raise AddressError(f"{self.node.name}: UDP port {port} already bound")
        sock = UdpSocket(self, port, on_datagram)
        self._sockets[port] = sock
        return sock

    def _allocate_port(self) -> int:
        for _ in range(65536 - self.EPHEMERAL_BASE):
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral >= 65536:
                self._next_ephemeral = self.EPHEMERAL_BASE
            if port not in self._sockets:
                return port
        raise AddressError(f"{self.node.name}: UDP ports exhausted")

    def release(self, port: int) -> None:
        """Unbind a port."""
        self._sockets.pop(port, None)

    def deliver(self, packet: Packet) -> None:
        """Protocol-handler entry point."""
        if packet.corrupted:
            self.checksum_drops += 1
            counters = self.node.sim.counters
            counters["drop.checksum"] = counters.get("drop.checksum", 0) + 1
            return
        datagram = packet.payload
        if not isinstance(datagram, Datagram):
            raise AddressError(f"non-UDP payload delivered to UdpStack: {packet!r}")
        sock = self._sockets.get(datagram.dst_port)
        if sock is None:
            self.dropped_unbound += 1
            return
        sock._deliver(datagram)
