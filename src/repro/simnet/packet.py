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
from typing import Any, Optional

__all__ = ["Packet", "IP_HEADER_BYTES", "DEFAULT_TTL"]

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
