"""Live traffic ingress/egress: a real UDP socket bridged into the simulation.

The gateway is the emulation-mode boundary: an OS-level datagram socket on
one side, a simulated host's :class:`~repro.udp.socket.UdpStack` on the
other. An external client sends real UDP to the gateway's address; the
gateway injects the datagram into the simulated network *at the current
virtual instant* (stamped exactly via ``DilatedClock.to_local_exact``),
addressed to a configured simulated destination. Replies emitted by the
simulation toward that client travel back out of the same OS socket.

Because the :class:`~repro.realtime.driver.RealtimeDriver` holds virtual
time against the wall clock, the client observes genuine emulated network
latency: a datagram that crosses a 40 ms-RTT simulated link comes back
~40 ms·TDF of wall time later, and the echoed
:class:`GatewayPayload.ingress_virtual` stamp yields the exact virtual-time
latency sample without any payload matching.

NAT-style demultiplexing: each distinct external ``(ip, port)`` gets its
own ephemeral simulated UDP socket on the gateway node, so replies
addressed to that simulated port map back to the right external client —
the same trick a home router plays, one hash lookup per datagram.

Everything here is single-threaded: the OS socket is non-blocking and
drained by :meth:`UdpGateway.poll`, which the driver calls between engine
batches (and every sleep quantum). No asyncio, no locks, no cross-thread
engine access.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from ..core.clock import DilatedClock
from ..udp.socket import Datagram, UdpSocket, UdpStack

__all__ = ["GatewayPayload", "UdpGateway"]

#: Largest real datagram accepted in one recvfrom.
_MAX_DATAGRAM = 65535


@dataclass
class GatewayPayload:
    """Payload carried by an injected datagram through the simulation.

    ``ingress_virtual`` is the exact (rational) virtual instant the bytes
    entered the simulated world; an application that echoes the payload
    back intact lets the gateway compute the per-datagram virtual-time
    latency on egress with zero bookkeeping.
    """

    data: bytes
    ingress_virtual: Fraction
    ingress_physical: float


@dataclass
class GatewayStats:
    """Datagram accounting across the real/simulated boundary."""

    ingress_datagrams: int = 0
    ingress_bytes: int = 0
    egress_datagrams: int = 0
    egress_bytes: int = 0
    #: Real-socket send failures (client gone, buffer full) — egress is
    #: best-effort, exactly like the UDP it carries.
    egress_errors: int = 0


class UdpGateway:
    """Bridge a real UDP socket to a simulated host's UDP stack.

    Parameters
    ----------
    stack:
        The simulated gateway node's UDP layer; injected datagrams are sent
        *from* this node, replies *to* it egress to the external client.
    clock:
        The gateway node's dilated clock — stamps each ingress datagram's
        exact virtual instant and prices egress latency samples.
    target_addr / target_port:
        Simulated destination every injected datagram is addressed to
        (e.g. the echo server's node and port).
    bind:
        Real ``(host, port)`` to listen on; port 0 picks a free one —
        read the result from :attr:`address`.
    """

    def __init__(
        self,
        stack: UdpStack,
        clock: DilatedClock,
        target_addr: str,
        target_port: int,
        bind: Tuple[str, int] = ("127.0.0.1", 0),
    ) -> None:
        self.stack = stack
        self.clock = clock
        self.sim = stack.node.sim
        self.target_addr = target_addr
        self.target_port = target_port
        self.stats = GatewayStats()
        #: Virtual-time RTT samples, one per egressed GatewayPayload echo.
        self.virtual_latencies_s: List[float] = []
        #: external (ip, port) → simulated ephemeral socket for that client.
        self._clients: Dict[Tuple[str, int], UdpSocket] = {}
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self._sock.setblocking(False)
            self._sock.bind(bind)
        except OSError:
            self._sock.close()  # an unusable address must not leak the fd
            raise
        self._closed = False

    @property
    def address(self) -> Tuple[str, int]:
        """The real ``(host, port)`` external clients send to."""
        return self._sock.getsockname()

    # -------------------------------------------------------------- ingress

    def poll(self) -> int:
        """Drain the OS socket, injecting each datagram into the simulation.

        Returns the number of datagrams injected (the driver accumulates
        this into ``stats.injected``). Called between engine batches, so
        injection happens at the current — wall-paced — virtual instant.
        """
        if self._closed:
            return 0
        injected = 0
        recvfrom = self._sock.recvfrom
        while True:
            try:
                data, addr = recvfrom(_MAX_DATAGRAM)
            except BlockingIOError:
                break
            except OSError:
                break
            self._inject(data, addr)
            injected += 1
        return injected

    def _inject(self, data: bytes, addr: Tuple[str, int]) -> None:
        sim_sock = self._clients.get(addr)
        if sim_sock is None:
            # First datagram from this client: allocate its NAT mapping.
            sim_sock = self.stack.bind(
                on_datagram=lambda _sock, dgram, _addr=addr: self._egress(
                    dgram, _addr
                )
            )
            self._clients[addr] = sim_sock
        payload = GatewayPayload(
            data=data,
            ingress_virtual=self.clock.to_local_exact(self.sim.now),
            ingress_physical=self.sim.now,
        )
        self.stats.ingress_datagrams += 1
        self.stats.ingress_bytes += len(data)
        sim_sock.sendto(self.target_addr, self.target_port, len(data), payload)

    # --------------------------------------------------------------- egress

    def _egress(self, datagram: Datagram, addr: Tuple[str, int]) -> None:
        payload = datagram.payload
        if isinstance(payload, GatewayPayload):
            data = payload.data
            latency = self.clock.to_local_exact(self.sim.now) - payload.ingress_virtual
            self.virtual_latencies_s.append(float(latency))
        elif isinstance(payload, (bytes, bytearray)):
            data = bytes(payload)
        else:
            # Simulated traffic with no byte representation: egress a
            # zero-filled datagram of the simulated size so the client
            # still sees the packet's timing and length.
            data = b"\x00" * datagram.size_bytes
        if self._closed:
            return
        try:
            self._sock.sendto(data, addr)
        except OSError:
            self.stats.egress_errors += 1
            return
        self.stats.egress_datagrams += 1
        self.stats.egress_bytes += len(data)

    def close(self) -> None:
        """Release the OS socket and every NAT mapping."""
        if self._closed:
            return
        self._closed = True
        for sim_sock in self._clients.values():
            sim_sock.close()
        self._clients.clear()
        self._sock.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"UdpGateway({self.address!r} -> "
            f"{self.target_addr}:{self.target_port}, "
            f"in={self.stats.ingress_datagrams}, "
            f"out={self.stats.egress_datagrams})"
        )

