"""Stream buffers: counted bytes plus application message markers.

The emulator does not haul literal payload bytes through the network —
segments carry *lengths*. What applications actually exchange are Python
objects ("messages") pinned to stream offsets:

* the sender writes ``send(n_bytes, message=obj)``; the send buffer records
  that ``obj`` completes at stream offset ``written_so_far + n_bytes``;
* markers ride on the segment that carries the byte completing them
  (retransmissions re-attach them, so losses cannot lose a message);
* the receiver's reassembler delivers ``obj`` to the application exactly
  when the in-order stream passes that offset.

This gives byte-accurate TCP dynamics (windows, MSS boundaries, partial
delivery) with O(messages) memory instead of O(bytes).
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..simnet.errors import ProtocolError

__all__ = ["SendBuffer", "ReceiveAssembler"]

_offset = itemgetter(0)


class SendBuffer:
    """Outbound stream: how many bytes are queued and which messages ride on them."""

    __slots__ = ("stream_length", "_markers")

    def __init__(self) -> None:
        #: Total bytes the application has written so far (stream length).
        self.stream_length = 0
        #: Markers not yet acknowledged: sorted (offset_end, message).
        self._markers: List[Tuple[int, Any]] = []

    def write(self, n_bytes: int, message: Any = None) -> None:
        """Append ``n_bytes`` to the stream, optionally tagged with a message."""
        if n_bytes <= 0:
            raise ProtocolError(f"write size must be positive: {n_bytes}")
        self.stream_length += n_bytes
        if message is not None:
            self._markers.append((self.stream_length, message))

    def available_from(self, offset: int) -> int:
        """Unsent bytes at and beyond ``offset``."""
        return max(0, self.stream_length - offset)

    def markers_in(self, start: int, end: int) -> List[Tuple[int, Any]]:
        """Markers whose completing byte lies in ``(start, end]``.

        Called for every (re)transmission covering that range, so a lost
        segment's markers are re-attached to the retransmission. Offsets
        are strictly increasing (each write ends beyond the last), so the
        range is one slice found by two binary searches.
        """
        markers = self._markers
        if not markers:
            return []
        return markers[bisect_right(markers, start, key=_offset):
                       bisect_right(markers, end, key=_offset)]

    def release_through(self, offset: int) -> None:
        """Drop markers fully acknowledged at stream ``offset``."""
        markers = self._markers
        # The acknowledged markers are a prefix of the sorted list.
        if markers and markers[0][0] <= offset:
            del markers[:bisect_right(markers, offset, key=_offset)]

    @property
    def pending_markers(self) -> int:
        """Markers not yet acknowledged (observability)."""
        return len(self._markers)


class ReceiveAssembler:
    """Inbound stream reassembly: cumulative delivery plus out-of-order holding.

    Tracks byte ranges only. ``rcv_nxt`` is the next in-order byte expected.
    Out-of-order ranges are merged into a sorted list of disjoint
    ``(start, end)`` intervals; message markers wait in a dict keyed by
    their completing offset until the stream passes them.
    """

    __slots__ = ("buffer_size", "rcv_nxt", "bytes_delivered", "on_message",
                 "on_data", "_ooo", "_recent", "_pending_messages",
                 "_max_delivered_marker")

    def __init__(
        self,
        buffer_size: int,
        on_message: Optional[Callable[[Any], None]] = None,
        on_data: Optional[Callable[[int], None]] = None,
    ) -> None:
        if buffer_size <= 0:
            raise ProtocolError("receive buffer must be positive")
        self.buffer_size = buffer_size
        self.rcv_nxt = 0
        self.bytes_delivered = 0
        self.on_message = on_message
        self.on_data = on_data
        self._ooo: List[Tuple[int, int]] = []  # disjoint, sorted [start, end)
        #: Same intervals ordered most-recently-touched first (for SACK).
        self._recent: List[Tuple[int, int]] = []
        self._pending_messages: Dict[int, List[Any]] = {}
        #: Highest marker offset already handed to the application. Marker
        #: delivery is in offset order, so any arriving marker at or below
        #: this is a duplicate from a retransmission and must be ignored.
        self._max_delivered_marker = 0

    # ----------------------------------------------------------------- window

    @property
    def out_of_order_bytes(self) -> int:
        """Bytes parked beyond the in-order point."""
        return sum(end - start for start, end in self._ooo)

    def window(self) -> int:
        """Advertised receive window.

        Applications in this emulator consume delivered data as soon as it
        becomes in-order, so the in-order buffer is always empty and the
        full buffer is advertised. Out-of-order bytes need no accounting:
        the sender cannot legally place data more than one window beyond
        ``snd_una``, so they are bounded by this same value. A constant
        window also keeps the RFC 5681 duplicate-ACK test ("window
        unchanged") meaningful during loss recovery.
        """
        return self.buffer_size

    # ---------------------------------------------------------------- arrival

    def accept(
        self, seq: int, length: int, messages: List[Tuple[int, Any]]
    ) -> bool:
        """Process an arriving data range.

        Returns ``True`` if the segment advanced ``rcv_nxt`` (in-order
        progress), ``False`` for duplicates and out-of-order arrivals — the
        socket uses this to decide between a normal and an immediate
        duplicate ACK.
        """
        for offset, message in messages:
            if offset <= self._max_delivered_marker:
                continue  # duplicate copy from a retransmission
            pending = self._pending_messages.setdefault(offset, [])
            if not pending:
                pending.append(message)
        if length == 0:
            return False
        end = seq + length
        rcv_nxt = self.rcv_nxt
        if end <= rcv_nxt:
            self._flush_stale_messages()
            return False  # pure duplicate
        if seq > rcv_nxt:
            self._insert_ooo(seq, end)
            return False
        # In-order (possibly overlapping) data: advance past ``end`` and
        # absorb any out-of-order ranges that are now contiguous.
        ooo = self._ooo
        if ooo and ooo[0][0] <= end:
            # The held ranges are sorted and disjoint, so the ones the new
            # in-order point reaches are a prefix of the list.
            absorbed = 0
            for start, stop in ooo:
                if start > end:
                    break
                end = max(end, stop)
                absorbed += 1
            del ooo[:absorbed]
            survivors = set(ooo)
            self._recent = [iv for iv in self._recent if iv in survivors]
        delivered = end - rcv_nxt  # > 0: end passed rcv_nxt
        self.rcv_nxt = end
        self.bytes_delivered += delivered
        if self.on_data is not None:
            self.on_data(delivered)
        if self._pending_messages:
            self._deliver_messages()
        return True

    def _insert_ooo(self, start: int, end: int) -> None:
        span = end - start
        window = self.window()
        # The held bytes are summed only when the span alone passes the
        # window (never, for a segment): the sum is O(held ranges).
        if span > window and span > window + self.out_of_order_bytes:
            # Beyond what we advertised; a real stack would have trimmed at
            # the window edge. Trim here too.
            end = start + max(0, self.window())
            if end <= start:
                return
        ooo = self._ooo
        if ooo:
            last = ooo[-1]
            lo, hi = last
            if lo <= start <= hi:
                # The common case behind a hole: the data extends (or
                # repeats) the highest held range. The general merge below
                # would give the same lists: the ranges under it are
                # untouched, and the extended range, which holds the new
                # data, moves to the front of the recency order.
                grown = (lo, end if end > hi else hi)
                ooo[-1] = grown
                recent = self._recent
                if recent[0] == last:
                    recent[0] = grown
                else:
                    self._recent = [grown] + [iv for iv in recent if iv != last]
                return
        intervals = self._ooo + [(start, end)]
        intervals.sort()
        merged: List[Tuple[int, int]] = []
        for lo, hi in intervals:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        self._ooo = merged
        # Refresh recency: the interval now containing the new data moves to
        # the front (RFC 2018 requires the most recent block first, which is
        # how the sender learns the full extent of a wide loss burst).
        containing = next(iv for iv in merged if iv[0] <= start and end <= iv[1])
        merged_set = set(merged)
        self._recent = [containing] + [
            iv for iv in self._recent if iv in merged_set and iv != containing
        ]

    def sack_blocks(self, limit: int = 4):
        """Out-of-order ranges to advertise as SACK blocks (stream offsets).

        At most ``limit`` blocks fit in the TCP option space; per RFC 2018
        the block containing the most recently received data comes first,
        then the next most recent — so over successive ACKs the sender
        hears about every held range.
        """
        return list(self._recent[:limit])

    # --------------------------------------------------------------- messages

    def _deliver_messages(self) -> None:
        if self.on_message is None:
            self._drop_delivered_message_keys()
            return
        ready = sorted(off for off in self._pending_messages if off <= self.rcv_nxt)
        for offset in ready:
            self._max_delivered_marker = max(self._max_delivered_marker, offset)
            for message in self._pending_messages.pop(offset):
                self.on_message(message)

    def _flush_stale_messages(self) -> None:
        # A retransmission may carry markers for data we already passed.
        self._deliver_messages()

    def _drop_delivered_message_keys(self) -> None:
        for offset in [off for off in self._pending_messages if off <= self.rcv_nxt]:
            self._max_delivered_marker = max(self._max_delivered_marker, offset)
            del self._pending_messages[offset]
