"""Packets — the unit of transfer on the emulated wire.

A :class:`Packet` models an IP datagram: addressing, a protocol tag used by
the receiving node to demultiplex (``"tcp"``, ``"udp"``…), a wire size in
bytes (headers included — this is what serialisation and queueing charge
for), and an opaque ``payload`` carrying the transport segment.

Packets are deliberately plain data: all behaviour lives in the links,
queues and protocol stacks that handle them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, List, Optional

__all__ = ["Packet", "PacketPool", "SHARED_POOL", "IP_HEADER_BYTES",
           "DEFAULT_TTL"]

#: Nominal IPv4 header size charged on every packet.
IP_HEADER_BYTES = 20

#: Hop limit; generous for the small topologies the benchmarks use but
#: finite so that routing loops fail loudly instead of spinning forever.
DEFAULT_TTL = 64

_packet_ids = itertools.count(1)


@dataclass(slots=True)
class Packet:
    """One datagram on the wire.

    Attributes
    ----------
    src, dst:
        Node addresses (strings — the library uses node names as addresses).
    protocol:
        Demux key on the destination node (``"tcp"``, ``"udp"``, …).
    size_bytes:
        Total wire size including all headers; links serialise and queues
        account in these bytes.
    payload:
        The transport-layer segment (e.g. :class:`repro.tcp.segment.Segment`).
    flow_id:
        Optional label used by traces and per-flow statistics.
    created_at:
        Physical time the packet entered the network (stamped by the sender).
    """

    src: str
    dst: str
    protocol: str
    size_bytes: int
    payload: Any = None
    flow_id: Optional[str] = None
    ttl: int = DEFAULT_TTL
    created_at: float = 0.0
    #: ECN (RFC 3168): sender declares ECN capability; an AQM queue may
    #: then set Congestion Experienced instead of dropping.
    ecn_capable: bool = False
    ce: bool = False
    #: Set by a Corrupt impairment stage; the receiving transport's
    #: checksum validation discards flagged packets.
    corrupted: bool = False
    uid: int = field(default_factory=_packet_ids.__next__)

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {self.size_bytes}")

    @property
    def size_bits(self) -> float:
        """Wire size in bits (what serialisation time is computed from)."""
        return self.size_bytes * 8.0

    def hop(self) -> None:
        """Consume one TTL hop; raises when the packet has looped too long."""
        self.ttl -= 1
        if self.ttl <= 0:
            from .errors import RoutingError

            raise RoutingError(
                f"TTL expired for packet {self.uid} ({self.src} -> {self.dst}); "
                "routing loop?"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(#{self.uid} {self.src}->{self.dst} {self.protocol} "
            f"{self.size_bytes}B flow={self.flow_id})"
        )


class PacketPool:
    """A freelist that recycles :class:`Packet` objects.

    High-rate datagram workloads (CBR cross traffic, tracker chatter)
    allocate and discard a packet per message; the pool lets the layer that
    *consumes* a packet hand the object back for the next send. Recycled
    packets always receive a **fresh** ``uid`` so traces and per-flow
    statistics still see distinct packets — only the object allocation is
    reused, never the identity.

    Release discipline: only release a packet once nothing holds a
    reference to it (taps copy fields, so after a protocol handler returns
    the packet is dead). Never release a packet whose ``payload`` is still
    in use unless the payload itself is owned elsewhere.
    """

    def __init__(self, max_size: int = 1024) -> None:
        self.max_size = max_size
        self._free: List[Packet] = []
        #: Allocations served from the freelist (observability).
        self.reused = 0

    def acquire(
        self,
        src: str,
        dst: str,
        protocol: str,
        size_bytes: int,
        payload: Any = None,
        flow_id: Optional[str] = None,
        ecn_capable: bool = False,
    ) -> Packet:
        """A packet with the given fields — recycled when one is free."""
        free = self._free
        if free:
            packet = free.pop()
            if size_bytes <= 0:
                raise ValueError(
                    f"packet size must be positive, got {size_bytes}"
                )
            packet.src = src
            packet.dst = dst
            packet.protocol = protocol
            packet.size_bytes = size_bytes
            packet.payload = payload
            packet.flow_id = flow_id
            packet.ttl = DEFAULT_TTL
            packet.created_at = 0.0
            packet.ecn_capable = ecn_capable
            packet.ce = False
            packet.corrupted = False
            packet.uid = next(_packet_ids)
            self.reused += 1
            return packet
        return Packet(
            src=src,
            dst=dst,
            protocol=protocol,
            size_bytes=size_bytes,
            payload=payload,
            flow_id=flow_id,
            ecn_capable=ecn_capable,
        )

    def release(self, packet: Packet) -> None:
        """Return a dead packet to the pool (drops the payload reference)."""
        if len(self._free) < self.max_size:
            packet.payload = None
            self._free.append(packet)


#: Process-wide pool used by layers with a clear consume point (UDP).
SHARED_POOL = PacketPool()
