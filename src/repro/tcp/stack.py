"""Per-node TCP layer: port space, listeners, and connection demux.

One :class:`TcpStack` is registered on a node as its ``"tcp"`` protocol
handler. It owns the port namespace, accepts SYNs on listening ports by
spawning server sockets, routes arriving segments to the right connection
by ``(local_port, remote_addr, remote_port)``, and answers strays with RST
— the same responsibilities the kernel's TCP layer has above the device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..simnet.errors import AddressError
from ..simnet.node import Node
from ..simnet.packet import IP_HEADER_BYTES, Packet
from .options import TcpOptions
from .segment import Segment, segment_wire_bytes
from .socket import LISTEN, TcpSocket

__all__ = ["TcpStack", "Listener"]

#: First ephemeral port (IANA suggested range).
EPHEMERAL_BASE = 49152

ConnectionKey = Tuple[int, str, int]


@dataclass
class Listener:
    """A passive open: spawns a server socket per incoming SYN."""

    port: int
    on_accept: Callable[[TcpSocket], None]
    options: Optional[TcpOptions] = None
    socket_callbacks: Optional[Dict[str, Any]] = None


class TcpStack:
    """The TCP protocol handler for one node."""

    def __init__(self, node: Node, default_options: Optional[TcpOptions] = None) -> None:
        self.node = node
        self.default_options = default_options if default_options is not None else TcpOptions()
        self._connections: Dict[ConnectionKey, TcpSocket] = {}
        self._listeners: Dict[int, Listener] = {}
        #: Local-port refcounts over ``_connections`` — ``allocate_port``
        #: must answer "is this port free?" in O(1); scanning the demux
        #: table made every active open O(connections), which is quadratic
        #: across a swarm-sized node's connection setup storm.
        self._ports_in_use: Dict[int, int] = {}
        self._next_ephemeral = EPHEMERAL_BASE
        node.register_protocol("tcp", self)
        #: Stray segments answered with RST (observability).
        self.resets_sent = 0
        #: Segments discarded for failing checksum validation (packets a
        #: Corrupt impairment stage flagged in flight).
        self.checksum_drops = 0

    # ------------------------------------------------------------------- ports

    def allocate_port(self) -> int:
        """Hand out the next free ephemeral port."""
        for _ in range(65536 - EPHEMERAL_BASE):
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral >= 65536:
                self._next_ephemeral = EPHEMERAL_BASE
            if port not in self._listeners and port not in self._ports_in_use:
                return port
        raise AddressError(f"{self.node.name}: ephemeral ports exhausted")

    def _bind_connection(self, key: ConnectionKey, sock: TcpSocket) -> None:
        self._connections[key] = sock
        self._ports_in_use[key[0]] = self._ports_in_use.get(key[0], 0) + 1

    def _unbind_connection(self, key: ConnectionKey) -> None:
        if self._connections.pop(key, None) is None:
            return
        count = self._ports_in_use.get(key[0], 0) - 1
        if count <= 0:
            self._ports_in_use.pop(key[0], None)
        else:
            self._ports_in_use[key[0]] = count

    # ----------------------------------------------------------------- opening

    def listen(
        self,
        port: int,
        on_accept: Callable[[TcpSocket], None],
        options: Optional[TcpOptions] = None,
        **socket_callbacks: Any,
    ) -> Listener:
        """Passive open on ``port``.

        ``socket_callbacks`` (``on_data=…``, ``on_message=…``, ``on_close=…``,
        ``on_error=…``) are installed on every accepted socket.
        """
        if port in self._listeners:
            raise AddressError(f"{self.node.name}: port {port} already listening")
        listener = Listener(port, on_accept, options, socket_callbacks or None)
        self._listeners[port] = listener
        return listener

    def stop_listening(self, port: int) -> None:
        """Close a listener; established connections are unaffected."""
        self._listeners.pop(port, None)

    def connect(
        self,
        remote_addr: str,
        remote_port: int,
        local_port: Optional[int] = None,
        options: Optional[TcpOptions] = None,
        **callbacks: Any,
    ) -> TcpSocket:
        """Active open; returns the socket immediately (handshake proceeds
        in simulated time; use ``on_connected``)."""
        port = local_port if local_port is not None else self.allocate_port()
        key = (port, remote_addr, remote_port)
        if key in self._connections:
            raise AddressError(f"{self.node.name}: connection {key} already exists")
        sock = TcpSocket(
            self,
            local_port=port,
            remote_addr=remote_addr,
            remote_port=remote_port,
            options=options if options is not None else self.default_options,
            **callbacks,
        )
        self._bind_connection(key, sock)
        sock.open_active()
        return sock

    # -------------------------------------------------------------- demultiplex

    def deliver(self, packet: Packet) -> None:
        """Protocol-handler entry point from the node."""
        if packet.corrupted:
            # Checksum failure: silently discard, exactly like a kernel.
            # The sender only learns via dupacks or an RTO.
            self.checksum_drops += 1
            counters = self.node.sim.counters
            counters["drop.checksum"] = counters.get("drop.checksum", 0) + 1
            return
        segment = packet.payload
        if not isinstance(segment, Segment):
            raise AddressError(f"non-TCP payload delivered to TcpStack: {packet!r}")
        key = (segment.dst_port, packet.src, segment.src_port)
        sock = self._connections.get(key)
        if sock is not None:
            sock.handle_segment(segment, ce=packet.ce)
            return
        listener = self._listeners.get(segment.dst_port)
        if listener is not None and segment.syn and not segment.ack_flag:
            self._accept(listener, packet, segment)
            return
        if not segment.rst:
            self._send_reset(packet, segment)

    def _accept(self, listener: Listener, packet: Packet, segment: Segment) -> None:
        callbacks = dict(listener.socket_callbacks or {})
        sock = TcpSocket(
            self,
            local_port=listener.port,
            remote_addr=packet.src,
            remote_port=segment.src_port,
            options=listener.options if listener.options is not None else self.default_options,
            flow_id=packet.flow_id,
            **callbacks,
        )
        sock._accept_callback = listener.on_accept
        key = (listener.port, packet.src, segment.src_port)
        self._bind_connection(key, sock)
        sock.open_passive(segment)

    def _send_reset(self, packet: Packet, segment: Segment) -> None:
        self.resets_sent += 1
        reset = Segment(
            src_port=segment.dst_port,
            dst_port=segment.src_port,
            seq=segment.ack if segment.ack_flag else 0,
            ack=segment.end_seq,
            ack_flag=True,
            rst=True,
            window=0,
        )
        self.node.send(
            Packet(
                src=self.node.name,
                dst=packet.src,
                protocol="tcp",
                # A reset carries no payload and no options.
                size_bytes=IP_HEADER_BYTES + segment_wire_bytes(0),
                payload=reset,
            )
        )

    # ------------------------------------------------------------------ cleanup

    def forget(self, sock: TcpSocket) -> None:
        """Remove a closed socket from the demux table."""
        key = (sock.local_port, sock.remote_addr, sock.remote_port)
        self._unbind_connection(key)

    def connection_count(self) -> int:
        """Live connections (any state but CLOSED)."""
        return len(self._connections)

    def connection(
        self, local_port: int, remote_addr: str, remote_port: int
    ) -> Optional[TcpSocket]:
        """Look up one live connection by its demux key (or None).

        The fluid fast path uses this to find the receiving socket of a
        flow whose sender it is about to advance analytically.
        """
        return self._connections.get((local_port, remote_addr, remote_port))
