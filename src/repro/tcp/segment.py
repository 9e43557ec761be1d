"""TCP segments.

Sequence numbers count bytes from an initial value of zero per connection
and are unbounded Python integers, so wraparound never occurs; SYN and FIN
each consume one sequence unit, exactly as in real TCP. Application data is
carried as a *byte count* plus optional message markers (see
:mod:`repro.tcp.buffers`): the emulator transfers stream lengths and
delivers application objects at the right stream offsets, without hauling
real payload bytes through memory.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, List, Tuple

__all__ = ["Segment", "TCP_HEADER_BYTES", "segment_wire_bytes"]

#: Nominal TCP header size (no options), charged on every segment.
TCP_HEADER_BYTES = 20

#: The timestamps option's canonical size (10 bytes + 2 of padding).
TIMESTAMP_OPTION_BYTES = 12

_segment_ids = itertools.count(1)


def segment_wire_bytes(length: int, sack_blocks: int = 0,
                       timestamps: bool = False) -> int:
    """Bytes a segment occupies inside the IP payload.

    The TCP header plus options plus ``length`` payload bytes. SACK blocks
    are charged as the real option is (2 + 8 per block); the timestamps
    option costs :data:`TIMESTAMP_OPTION_BYTES`. This is the definition of
    every size the stack puts on the wire and the fluid model predicts;
    the per-segment path (``TcpSocket._emit``) adds up the same terms
    inline, and ``test_emitted_segment_and_packet_fields`` pins the two
    to each other.
    """
    size = TCP_HEADER_BYTES + length
    if sack_blocks:
        size += 2 + 8 * sack_blocks
    if timestamps:
        size += TIMESTAMP_OPTION_BYTES
    return size


@dataclass(slots=True)
class Segment:
    """One TCP segment.

    Attributes
    ----------
    seq:
        Sequence number of the first byte (or of the SYN/FIN flag itself).
    ack:
        Cumulative acknowledgement — next byte expected by the sender of
        this segment. Only meaningful when ``ack_flag`` is set.
    window:
        Receiver's advertised window in bytes.
    length:
        Payload bytes carried (0 for pure ACKs and control segments).
    messages:
        Application message markers riding on this payload: a list of
        ``(stream_offset_end, message)`` pairs, delivered to the application
        once the receive stream passes each offset.
    """

    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    length: int = 0
    syn: bool = False
    fin: bool = False
    rst: bool = False
    ack_flag: bool = False
    window: int = 65535
    messages: List[Tuple[int, Any]] = field(default_factory=list)
    #: SACK option blocks: (start_seq, end_seq) ranges the receiver holds
    #: beyond the cumulative ACK (RFC 2018; at most 4 blocks fit).
    sack: Tuple[Tuple[int, int], ...] = ()
    #: ECN flags (RFC 3168): receiver echoes congestion (ECE) until the
    #: sender confirms the window reduction (CWR).
    ece: bool = False
    cwr: bool = False
    #: Timestamps option (RFC 7323): sender's clock at transmission and
    #: the echo of the peer's most recent timestamp. ``None`` when the
    #: connection does not use timestamps.
    ts_val: "float | None" = None
    ts_ecr: "float | None" = None
    uid: int = field(default_factory=_segment_ids.__next__)

    @property
    def seq_space(self) -> int:
        """Sequence space consumed: payload plus one for SYN and for FIN."""
        return self.length + (1 if self.syn else 0) + (1 if self.fin else 0)

    @property
    def end_seq(self) -> int:
        """Sequence number just past this segment."""
        return self.seq + self.seq_space

    @property
    def wire_bytes(self) -> int:
        """Bytes this segment occupies inside the IP payload."""
        return segment_wire_bytes(self.length, len(self.sack),
                                  self.ts_val is not None)

    def flags(self) -> str:
        """Human-readable flag string, tcpdump style."""
        parts = []
        if self.syn:
            parts.append("S")
        if self.fin:
            parts.append("F")
        if self.rst:
            parts.append("R")
        if self.ack_flag:
            parts.append(".")
        return "".join(parts) or "-"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Segment({self.src_port}>{self.dst_port} [{self.flags()}] "
            f"seq={self.seq} ack={self.ack} len={self.length} win={self.window})"
        )
