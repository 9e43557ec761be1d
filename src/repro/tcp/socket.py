"""The TCP connection state machine.

A :class:`TcpSocket` implements the full connection lifecycle over the
:mod:`repro.simnet` substrate: three-way handshake, sliding-window data
transfer with congestion control (:mod:`repro.tcp.cc`), RFC 6298
retransmission timing (:mod:`repro.tcp.rtt`), fast retransmit / fast
recovery with NewReno partial-ACK handling, delayed ACKs, limited transmit
(RFC 3042), zero-window persist probes, and the FIN/TIME_WAIT teardown.

Every timer and timestamp flows through the owning node's clock. That is
the single point of contact with the paper's mechanism: run this exact
stack on a dilated node and all of its RTT measurements, RTO arming and
congestion-window pacing happen in virtual time.

The socket is callback-driven (the substrate has no threads):

* ``on_connected(sock)`` — handshake completed;
* ``on_data(sock, n)`` — ``n`` more in-order bytes delivered;
* ``on_message(sock, obj)`` — an application message marker passed;
* ``on_close(sock)`` — remote side finished sending (EOF);
* ``on_error(sock, exc)`` — reset, handshake failure, or too many RTOs.
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Optional, Sequence, Tuple

from ..simnet.engine import Event
from ..simnet.errors import ProtocolError
from ..simnet.node import Node
from ..simnet.packet import DEFAULT_TTL, IP_HEADER_BYTES, Packet
from .buffers import ReceiveAssembler, SendBuffer
from .cc import make_congestion_control
from .options import TcpOptions
from .rtt import RttEstimator
from .segment import TCP_HEADER_BYTES, TIMESTAMP_OPTION_BYTES, Segment

__all__ = ["TcpSocket", "CLOSED", "LISTEN", "SYN_SENT", "SYN_RCVD",
           "ESTABLISHED", "FIN_WAIT_1", "FIN_WAIT_2", "CLOSE_WAIT",
           "CLOSING", "LAST_ACK", "TIME_WAIT"]

CLOSED = "CLOSED"
LISTEN = "LISTEN"
SYN_SENT = "SYN_SENT"
SYN_RCVD = "SYN_RCVD"
ESTABLISHED = "ESTABLISHED"
FIN_WAIT_1 = "FIN_WAIT_1"
FIN_WAIT_2 = "FIN_WAIT_2"
CLOSE_WAIT = "CLOSE_WAIT"
CLOSING = "CLOSING"
LAST_ACK = "LAST_ACK"
TIME_WAIT = "TIME_WAIT"

#: Connection attempts / retransmissions before giving up (Linux: 15).
MAX_RETRIES = 15

#: IP plus TCP header bytes: the wire size of a segment with no payload
#: and no options (see :func:`~repro.tcp.segment.segment_wire_bytes`).
_TCP_IP_HEADER_BYTES = IP_HEADER_BYTES + TCP_HEADER_BYTES


def _merge_interval(ranges, start, end):
    """Insert [start, end) into a sorted disjoint interval list.

    Fast paths cover the overwhelmingly common cases on a hot ACK path:
    appending above the current top, and extending the top range.
    """
    if end <= start:
        return ranges
    if ranges:
        last_lo, last_hi = ranges[-1]
        if start > last_hi:
            ranges.append((start, end))
            return ranges
        if start >= last_lo and end >= last_hi:
            # Overlaps only the last range: extend it in place.
            ranges[-1] = (last_lo, max(last_hi, end))
            return ranges
        if last_lo <= start and end <= last_hi:
            return ranges  # already covered
    merged = []
    for lo, hi in ranges:
        if hi < start or lo > end:
            merged.append((lo, hi))
        else:
            start = min(start, lo)
            end = max(end, hi)
    merged.append((start, end))
    merged.sort()
    return merged


def _trim_below(ranges, floor):
    """Drop interval parts below ``floor`` (no-op fast path when clean)."""
    if not ranges or ranges[0][0] >= floor:
        return ranges
    trimmed = []
    for lo, hi in ranges:
        if hi <= floor:
            continue
        trimmed.append((max(lo, floor), hi))
    return trimmed


def _total_bytes(ranges):
    """Sum of interval lengths."""
    return sum(hi - lo for lo, hi in ranges)


def _covers(ranges, start, end):
    """Whether [start, end) is already inside one interval (O(log n))."""
    index = bisect.bisect_right(ranges, (start, float("inf"))) - 1
    return index >= 0 and ranges[index][0] <= start and end <= ranges[index][1]


class TcpSocket:
    """One endpoint of a TCP connection. Create via :class:`repro.tcp.stack.TcpStack`."""

    # A swarm holds thousands of sockets, and above ~29 attributes CPython
    # gives each instance a full dict (~1.6 KB) instead of an inline value
    # array, so every attribute any module assigns is a fixed slot.
    # ``__dict__`` stays as an escape hatch that plain runs never create:
    # the benchmark's span ledger (perfbench/ledger.py) replaces the
    # ``on_*`` and ``_accept_callback`` slots with class properties that
    # store into ``obj.__dict__``, and tests may patch instances.
    __slots__ = (
        "__dict__",
        "stack", "node", "local_port", "remote_addr", "remote_port",
        "options", "flow_id",
        "on_connected", "on_data", "on_message", "on_close", "on_error",
        "on_acked", "_accept_callback",
        "recorder", "_traced_cwnd",
        "_fluid",
        "state",
        "snd_una", "snd_nxt", "snd_wnd", "send_buffer", "cc", "rtt",
        "_rto_event", "_persist_event", "_retries", "_dupacks",
        "_in_recovery", "_recover", "_timed_seq", "_timed_at",
        "_fin_pending", "_fin_sent", "_high_water",
        "_scoreboard", "_rexmit_marks", "_scan_cursor", "_marks_bytes",
        "_ts_recent", "_last_ack_ts_ecr",
        "_ecn_echo", "_cwr_pending", "_ecn_recover",
        "assembler", "_remote_fin_stream", "_fin_received",
        "_segments_since_ack", "_delack_event",
        "segments_sent", "segments_received", "retransmits", "timeouts",
        "bytes_acked", "dupacks_received", "fast_retransmits",
        "fast_recoveries",
    )

    def __init__(
        self,
        stack: "Any",
        local_port: int,
        remote_addr: str,
        remote_port: int,
        options: Optional[TcpOptions] = None,
        on_connected: Optional[Callable[["TcpSocket"], None]] = None,
        on_data: Optional[Callable[["TcpSocket", int], None]] = None,
        on_message: Optional[Callable[["TcpSocket", Any], None]] = None,
        on_close: Optional[Callable[["TcpSocket"], None]] = None,
        on_error: Optional[Callable[["TcpSocket", Exception], None]] = None,
        on_acked: Optional[Callable[["TcpSocket", int], None]] = None,
        flow_id: Optional[str] = None,
    ) -> None:
        self.stack = stack
        self.node: Node = stack.node
        self.local_port = local_port
        self.remote_addr = remote_addr
        self.remote_port = remote_port
        self.options = options if options is not None else TcpOptions()
        self.flow_id = flow_id
        self.on_connected = on_connected
        self.on_data = on_data
        self.on_message = on_message
        self.on_close = on_close
        self.on_error = on_error
        #: Called as on_acked(sock, total_stream_bytes_acked) whenever new
        #: data is cumulatively acknowledged (sender-side progress hook).
        self.on_acked = on_acked
        #: The listener's ``on_accept``, set by the stack on server sockets
        #: and called once the handshake completes.
        self._accept_callback = None

        #: Optional :class:`repro.trace.recorder.FlightRecorder` observing
        #: state transitions, retransmits and cwnd changes. Default off;
        #: hot paths guard the hook with a single is-None check.
        self.recorder = None
        #: Last cwnd value reported to the recorder (dedups 'cwnd' events).
        self._traced_cwnd = -1.0

        #: Hybrid-fidelity state (a ``FluidSocketState``, see
        #: repro.simnet.fluid): ``None`` in packet mode; a FluidManager
        #: creates it on the socket's first new-data ACK.
        self._fluid = None

        self.state = CLOSED

        # ---- sender state (sequence space: SYN=0, data starts at 1)
        self.snd_una = 0
        self.snd_nxt = 0
        self.snd_wnd = self.options.receive_buffer  # until first ACK says otherwise
        self.send_buffer = SendBuffer()
        self.cc = make_congestion_control(self.options.flavor, self.options.mss)
        self.rtt = RttEstimator(
            initial_rto=self.options.initial_rto,
            min_rto=self.options.min_rto,
            max_rto=self.options.max_rto,
        )
        self._rto_event: Optional[Event] = None
        self._persist_event: Optional[Event] = None
        self._retries = 0
        self._dupacks = 0
        self._in_recovery = False
        self._recover = 0
        self._timed_seq: Optional[int] = None
        self._timed_at = 0.0
        self._fin_pending = False
        self._fin_sent = False
        #: Highest sequence ever sent; anything below is a retransmission.
        self._high_water = 0
        # ---- SACK scoreboard (RFC 6675-style recovery)
        # Both range lists are the shared empty tuple whenever they are
        # reset: most connections never see a SACK block or a recovery
        # episode, and an RTO resets them without allocating. Only a
        # non-empty list is ever mutated in place.
        #: Disjoint, sorted (start, end) seq ranges the peer has SACKed.
        self._scoreboard: Sequence[Tuple[int, int]] = ()
        #: Ranges retransmitted during the current recovery episode
        #: (appended in ascending order — see _scan_cursor).
        self._rexmit_marks: Sequence[Tuple[int, int]] = ()
        #: Hole-scan position: everything below it is sacked or already
        #: retransmitted this episode, so the per-segment hole search is
        #: O(scoreboard) instead of O(episode length^2).
        self._scan_cursor = 0
        #: Cached byte total of _rexmit_marks (kept >= snd_una), so _pipe
        #: is O(1) instead of re-summing the marks on every send decision.
        self._marks_bytes = 0
        # ---- timestamps (RFC 7323)
        #: Most recent TSval received from the peer, echoed on our ACKs.
        self._ts_recent: Optional[float] = None
        #: ts_ecr of the ACK currently being processed (RTTM sample source).
        self._last_ack_ts_ecr: Optional[float] = None
        # ---- ECN (RFC 3168)
        #: Receiver side: echo ECE on every ACK until the peer sends CWR.
        self._ecn_echo = False
        #: Sender side: set CWR on the next data segment after reducing.
        self._cwr_pending = False
        #: One window reduction per RTT: ECE is ignored until snd_una
        #: passes this point.
        self._ecn_recover = 0

        # ---- receiver state
        # The socket is its assembler's sink: the assembler calls the
        # ``on_data`` and ``on_message`` slots above as they stand when
        # data arrives.
        self.assembler = ReceiveAssembler(self.options.receive_buffer, sink=self)
        self._remote_fin_stream: Optional[int] = None
        self._fin_received = False
        self._segments_since_ack = 0
        self._delack_event: Optional[Event] = None

        # ---- statistics
        self.segments_sent = 0
        self.segments_received = 0
        self.retransmits = 0
        self.timeouts = 0
        self.bytes_acked = 0
        #: Cumulative duplicate ACKs seen (``_dupacks`` is the per-episode
        #: counter that resets; this one never does).
        self.dupacks_received = 0
        #: Fast retransmits fired on the third dupack (SACK or classic).
        self.fast_retransmits = 0
        #: Fast-recovery episodes entered (0 forever on Tahoe, whose
        #: response to the third dupack is a slow-start collapse instead).
        self.fast_recoveries = 0

    # ================================================================= helpers

    @property
    def clock(self):
        """The owning node's clock (virtual inside a dilated guest)."""
        return self.node.clock

    def _set_state(self, new_state: str) -> None:
        """Transition the connection state, tracing when a recorder is on.

        State changes are rare (a handful per connection), so the extra
        call is off every hot path; ``self.state = X`` assignment sites all
        route through here except ``__init__``.
        """
        if self.recorder is not None and new_state != self.state:
            self.recorder.record_tcp(
                "state", self, f"{self.state}->{new_state}"
            )
        self.state = new_state

    def _trace_cc(self, cause: str) -> None:
        """Record a cwnd change; callers guard with ``recorder is not None``."""
        cwnd = self.cc.cwnd
        if cwnd != self._traced_cwnd:
            self._traced_cwnd = cwnd
            self.recorder.record_tcp("cwnd", self, cause, value=float(cwnd))

    @property
    def mss(self) -> int:
        return self.options.mss

    @property
    def flight_size(self) -> int:
        """Sequence space in flight."""
        return self.snd_nxt - self.snd_una

    @property
    def bytes_received(self) -> int:
        """In-order payload bytes delivered to the application."""
        return self.assembler.bytes_delivered

    def _stream_offset(self, seq: int) -> int:
        """Map a data sequence number to a stream offset (SYN shifts by 1)."""
        return seq - 1

    # ================================================================== opening

    def open_active(self) -> None:
        """Client side: send the SYN."""
        if self.state != CLOSED:
            raise ProtocolError(f"cannot connect from state {self.state}")
        self._set_state(SYN_SENT)
        self.snd_una = 0
        self.snd_nxt = 1
        self._emit(seq=0, syn=True, ack_flag=False)
        self._arm_rto()

    def open_passive(self, syn: Segment) -> None:
        """Server side: a listener saw a SYN; reply SYN+ACK."""
        self._set_state(SYN_RCVD)
        self.snd_una = 0
        self.snd_nxt = 1
        self._emit(seq=0, syn=True, ack_flag=True)
        self._arm_rto()

    # ================================================================== sending

    def send(self, n_bytes: int, message: Any = None) -> None:
        """Queue ``n_bytes`` of application data, optionally tagged."""
        if self.state in (CLOSED, LISTEN, TIME_WAIT, LAST_ACK, CLOSING,
                          FIN_WAIT_1, FIN_WAIT_2):
            raise ProtocolError(f"cannot send in state {self.state}")
        if self._fin_pending:
            raise ProtocolError("cannot send after close()")
        self.send_buffer.write(n_bytes, message)
        if self.state == ESTABLISHED or self.state == CLOSE_WAIT:
            self._try_send()

    def send_message(self, message: Any, n_bytes: int) -> None:
        """Ergonomic alias: ``send(n_bytes, message=message)``."""
        self.send(n_bytes, message=message)

    def close(self) -> None:
        """Finish sending: FIN goes out once the buffer drains."""
        if self.state in (CLOSED, TIME_WAIT):
            return
        if self._fin_pending:
            return
        self._fin_pending = True
        if self.state == ESTABLISHED:
            self._set_state(FIN_WAIT_1)
        elif self.state == CLOSE_WAIT:
            self._set_state(LAST_ACK)
        elif self.state in (SYN_SENT, SYN_RCVD):
            # Handshake still in flight: queue the graceful close; the
            # transition to FIN_WAIT_1 happens once we are established.
            return
        self._try_send()

    def _fin_seq(self) -> int:
        return self.send_buffer.stream_length + 1

    def _try_send(self) -> None:
        """Transmit as much as windows allow; called at every opportunity."""
        if self.state not in (ESTABLISHED, CLOSE_WAIT, FIN_WAIT_1, LAST_ACK,
                              CLOSING):
            return
        # Nothing below calls back into the application (sends are
        # scheduled, never delivered synchronously), so the congestion
        # controller, the windows, snd_una, the options and the stream
        # length are fixed for the whole loop; only snd_nxt moves.
        # Stream offset = seq - 1 (see _stream_offset).
        mss = self.options.mss
        nagle = self.options.nagle
        stream_end = self.send_buffer.stream_length + 1
        window = min(self.cc.cwnd, self.snd_wnd)
        if self._fluid is not None:
            fluid = self._fluid
            if fluid.hold:
                # The fluid fast path owns (or is draining) this flow; it
                # hands the window back and calls us when packet mode
                # resumes.
                return
            if fluid.pace_window is not None:
                window = min(window, fluid.pace_window)
        dupacks = self._dupacks
        if (dupacks == 1 or dupacks == 2) and not self._in_recovery:
            # Limited transmit (RFC 3042): the two early dupacks let us
            # send one new segment each to keep the ACK clock running.
            window += dupacks * mss
        window = int(window)
        snd_una = self.snd_una
        snd_nxt = self.snd_nxt
        sent_any = False
        while True:
            available = stream_end - snd_nxt
            if available > 0:
                flight = snd_nxt - snd_una
                usable = window - flight
                if usable <= 0:
                    break
                chunk = min(available, mss, usable)
                if nagle and chunk < mss and flight > 0:
                    break
                self._emit_data(snd_nxt, chunk)
                snd_nxt += chunk
                self.snd_nxt = snd_nxt
                sent_any = True
                continue
            if (
                self._fin_pending
                and not self._fin_sent
                and snd_nxt == stream_end
                # Our FIN is all that's left; window always admits it.
            ):
                self._emit(snd_nxt, 0, False, True)
                self._fin_sent = True
                self.snd_nxt = snd_nxt + 1
                sent_any = True
            break
        if sent_any:
            self._arm_rto()
        elif (
            self.snd_wnd == 0
            and stream_end > self.snd_nxt
            and self.snd_nxt == self.snd_una
        ):
            self._arm_persist()

    def _emit_data(self, seq: int, length: int, retransmission: bool = False) -> None:
        offset = seq - 1  # _stream_offset, inlined on the per-segment path
        markers = self.send_buffer.markers_in(offset, offset + length)
        retransmission = retransmission or seq < self._high_water
        self._emit(seq, length, False, False, True, markers, retransmission)
        if not retransmission and self._timed_seq is None:
            self._timed_seq = seq + length
            self._timed_at = self.node.clock.now()

    def _emit(
        self,
        seq: int,
        length: int = 0,
        syn: bool = False,
        fin: bool = False,
        ack_flag: bool = True,
        messages: Sequence[Tuple[int, Any]] = (),
        retransmission: bool = False,
    ) -> None:
        # Runs once per segment sent, so it calls no helpers: the
        # cumulative ACK, the advertised window (ReceiveAssembler.window),
        # the wire size (segment_wire_bytes), the send and the delayed-ACK
        # disarm are inlined.
        options = self.options
        assembler = self.assembler
        sack_blocks = ()
        size = _TCP_IP_HEADER_BYTES + length
        if ack_flag:
            rcv_nxt = assembler.rcv_nxt
            ack = 1 + rcv_nxt
            fin_stream = self._remote_fin_stream
            if fin_stream is not None and rcv_nxt >= fin_stream:
                ack += 1  # the FIN itself
            if assembler._ooo and options.sack and not syn:
                # Out-of-order stream ranges, shifted into sequence space.
                sack_blocks = tuple(
                    (lo + 1, hi + 1) for lo, hi in assembler.sack_blocks()
                )
                if sack_blocks:
                    size += 2 + 8 * len(sack_blocks)
        else:
            ack = 0
        if options.ecn:
            cwr = length > 0 and self._cwr_pending
            if cwr:
                self._cwr_pending = False
            ece = self._ecn_echo and ack_flag
            # Only data packets are marked ECN-capable (RFC 3168 §6.1.1:
            # pure ACKs are not ECT).
            ect = length > 0
        else:
            cwr = ece = ect = False
        if options.timestamps:
            size += TIMESTAMP_OPTION_BYTES
            ts_val = self.node.clock.now()
            ts_ecr = self._ts_recent
        else:
            ts_val = ts_ecr = None
        # Positional in field order: matching sixteen keywords would cost
        # as much again as building the segment.
        segment = Segment(
            self.local_port,                                    # src_port
            self.remote_port,                                   # dst_port
            seq,                                                # seq
            ack,                                                # ack
            length,                                             # length
            syn,                                                # syn
            fin,                                                # fin
            False,                                              # rst
            ack_flag,                                           # ack_flag
            assembler.buffer_size,                              # window
            messages,                                           # messages
            sack_blocks,                                        # sack
            ece,                                                # ece
            cwr,                                                # cwr
            ts_val,                                             # ts_val
            ts_ecr,                                             # ts_ecr
        )
        if retransmission:
            self.retransmits += 1
            counters = self.node.sim.counters
            counters["tcp.retransmits"] = counters.get("tcp.retransmits", 0) + 1
            if self.recorder is not None:
                self.recorder.record_tcp(
                    "retransmit", self,
                    "syn" if syn else "fin" if fin else "data",
                    seq=seq, length=length,
                )
            if self._timed_seq is not None and seq < self._timed_seq <= seq + max(length, 1):
                self._timed_seq = None  # Karn: never sample a retransmission
        end_seq = seq + length + syn + fin  # Segment.end_seq, inlined
        if end_seq > self._high_water:
            self._high_water = end_seq
        self.segments_sent += 1
        # Positional in field order, as above.
        self.node.send(Packet(
            self.node.name,                                     # src
            self.remote_addr,                                   # dst
            "tcp",                                              # protocol
            size,                                               # size_bytes
            segment,                                            # payload
            self.flow_id,                                       # flow_id
            DEFAULT_TTL,                                        # ttl
            0.0,                                                # created_at
            ect,                                                # ecn_capable
        ))
        if ack_flag:
            # Any segment carrying our current ACK satisfies the
            # delayed-ACK duty.
            self._segments_since_ack = 0
            event = self._delack_event
            if event is not None:
                event.cancel()
                self._delack_event = None

    # ============================================================== timers: RTO
    #
    # A timer slot holds its Event only while it is armed: firing or
    # cancelling a timer sets the slot to None, so a slot that is not None
    # is live. Most connections sit idle with no timer armed, and a dead
    # Event kept for reuse would outweigh the rest of the socket's timer
    # state. Arming an empty slot calls call_in, whose deadline arithmetic
    # and fresh seq match a re-key's, so event order is unchanged.

    def _arm_rto(self) -> None:
        # Re-key the pending timer instead of cancel-and-recreate: the RTO
        # is re-armed on nearly every ACK, and this path is what used to
        # fill the engine heap with dead entries (and the allocator with
        # dead Events) on bulk transfers.
        event = self._rto_event
        if event is not None:
            self.node.clock.reschedule_in(event, self.rtt.rto)
        else:
            self._rto_event = self.node.clock.call_in(self.rtt.rto, self._on_rto)

    def _cancel_rto(self) -> None:
        event = self._rto_event
        if event is not None:
            event.cancel()
            self._rto_event = None

    def _on_rto(self) -> None:
        self._rto_event = None
        if self.state == CLOSED:
            return
        fluid = self.node.sim.fluid
        if fluid is not None:
            # A timeout mid-drain means the tail of the flight was lost;
            # release the hold so go-back-N below can actually retransmit.
            fluid.on_timeout(self)
        self._retries += 1
        self.timeouts += 1
        counters = self.node.sim.counters
        counters["tcp.timeouts"] = counters.get("tcp.timeouts", 0) + 1
        if self._retries > MAX_RETRIES:
            self._abort(ProtocolError("too many retransmission timeouts"))
            return
        self.rtt.backoff()
        self._timed_seq = None
        if self.state == SYN_SENT:
            self._emit(seq=0, syn=True, ack_flag=False, retransmission=True)
        elif self.state == SYN_RCVD:
            self._emit(seq=0, syn=True, ack_flag=True, retransmission=True)
        else:
            self.cc.on_retransmit_timeout(self.flight_size, self.clock.now())
            if self.recorder is not None:
                self._trace_cc("rto")
            self._in_recovery = False
            self._dupacks = 0
            # An RTO invalidates our faith in the scoreboard (RFC 6675 §5.1).
            self._scoreboard = ()
            self._rexmit_marks = ()
            self._marks_bytes = 0
            self._scan_cursor = self.snd_una
            # Go-back-N (RFC 5681 §5): rewind and let the ACK clock
            # fast-forward over ranges the receiver already buffered.
            self.snd_nxt = self.snd_una
            if self._fin_pending:
                self._fin_sent = self.snd_nxt > self._fin_seq()
            self._try_send()
        self._arm_rto()

    def _retransmit_first(self) -> None:
        """Resend the earliest unacknowledged chunk."""
        if self.snd_una == 0:
            # SYN unacked (shouldn't reach here outside handshake states).
            return
        first_offset = self._stream_offset(self.snd_una)
        if first_offset < self.send_buffer.stream_length:
            chunk = min(
                self.mss,
                self.send_buffer.stream_length - first_offset,
                max(self.snd_nxt - self.snd_una, 1),
            )
            self._emit_data(self.snd_una, chunk, retransmission=True)
        elif self._fin_sent and self.snd_una == self._fin_seq():
            self._emit(seq=self.snd_una, fin=True, ack_flag=True,
                       retransmission=True)

    # ======================================================== SACK recovery

    def _pipe(self) -> int:
        """RFC 6675 pipe estimate: bytes believed to be in the network.

        Bytes above the highest SACKed range are in flight; bytes below it
        that are not SACKed are presumed lost and count only if we have
        retransmitted them this recovery.
        """
        high_end = self._scoreboard[-1][1] if self._scoreboard else self.snd_una
        tail = max(0, self.snd_nxt - max(self.snd_una, high_end))
        return tail + self._marks_bytes

    def _next_hole_chunk(self):
        """The first presumed-lost range not yet retransmitted, or None.

        Scanning starts at ``_scan_cursor``; everything below it was either
        SACKed or retransmitted earlier in this episode (the cursor only
        moves forward within one recovery).
        """
        high_end = self._scoreboard[-1][1] if self._scoreboard else self.snd_una
        start = max(self.snd_una, self._scan_cursor)
        if high_end <= start:
            # Recovery entered on plain dupacks without SACK ranges (e.g.
            # pure reordering): retransmit the first segment once.
            if not self._rexmit_marks and self.snd_nxt > self.snd_una \
                    and self._scan_cursor <= self.snd_una:
                return (self.snd_una, min(self.snd_una + self.mss, self.snd_nxt))
            return None
        cursor = start
        next_sacked_start = high_end
        for lo, hi in self._scoreboard:
            if hi <= cursor:
                continue
            if lo > cursor:
                next_sacked_start = lo
                break
            cursor = hi
            if cursor >= high_end:
                return None
        if cursor >= high_end:
            return None
        return (cursor, min(cursor + self.mss, next_sacked_start, high_end))

    def _enter_sack_recovery(self) -> None:
        now = self.clock.now()
        self.cc.on_enter_recovery_sack(self.flight_size, now)
        if self.recorder is not None:
            self._trace_cc("enter-recovery")
        self.fast_recoveries += 1
        self._in_recovery = True
        self._recover = self.snd_nxt
        self._timed_seq = None
        self._rexmit_marks = ()
        self._marks_bytes = 0
        self._scan_cursor = self.snd_una
        # RFC 6675: the first lost segment is retransmitted immediately,
        # regardless of the pipe estimate.
        hole = self._next_hole_chunk()
        if hole is not None:
            self._retransmit_hole(hole)
        self._recovery_send()
        self._arm_rto()

    def _retransmit_hole(self, hole) -> None:
        seq, end = hole
        stream_end = self.send_buffer.stream_length
        data_end = min(end, stream_end + 1)
        if seq <= stream_end and data_end > seq:
            self._emit_data(seq, data_end - seq, retransmission=True)
        elif self._fin_sent and seq == self._fin_seq():
            self._emit(seq=seq, fin=True, ack_flag=True, retransmission=True)
        # Holes are visited in ascending order within an episode, so the
        # marks list stays sorted with O(1) appends.
        marks = self._rexmit_marks
        if marks and marks[-1][1] >= seq:
            last_lo, last_hi = marks[-1]
            new_hi = max(last_hi, end)
            self._marks_bytes += new_hi - last_hi
            marks[-1] = (last_lo, new_hi)
        else:
            if marks:
                marks.append((seq, end))
            else:
                self._rexmit_marks = [(seq, end)]
            self._marks_bytes += end - seq
        self._scan_cursor = max(self._scan_cursor, end)

    def _recovery_send(self) -> None:
        """Drive transmissions while the pipe is below cwnd (RFC 6675)."""
        if not self._in_recovery or not self.options.sack:
            return
        while self._pipe() + self.mss <= self.cc.cwnd:
            hole = self._next_hole_chunk()
            if hole is not None:
                self._retransmit_hole(hole)
                continue
            offset = self._stream_offset(self.snd_nxt)
            available = self.send_buffer.available_from(offset)
            usable_rwnd = self.snd_wnd - self.flight_size
            if available <= 0 or usable_rwnd <= 0:
                break
            chunk = min(available, self.mss, usable_rwnd)
            self._emit_data(self.snd_nxt, chunk)
            self.snd_nxt += chunk
        self._arm_rto()

    # ========================================================== timers: persist

    def _arm_persist(self) -> None:
        if self._persist_event is None:
            self._persist_event = self.clock.call_in(
                self.rtt.rto, self._on_persist
            )
        # else: already armed; leave its deadline alone.

    def _on_persist(self) -> None:
        self._persist_event = None
        if self.state == CLOSED or self.snd_wnd > 0:
            return
        offset = self._stream_offset(self.snd_nxt)
        if self.send_buffer.available_from(offset) > 0 and self.flight_size == 0:
            # One-byte window probe.
            self._emit_data(self.snd_nxt, 1)
            self.snd_nxt += 1
            self._arm_rto()
        self._arm_persist()

    # ============================================================ delayed ACKs

    def _schedule_ack(self) -> None:
        """In-order data arrived: ACK it now, or arm the delayed ACK."""
        options = self.options
        timeout = options.delayed_ack_timeout
        if timeout == 0:
            self._send_pure_ack()
            return
        pending = self._segments_since_ack + 1
        self._segments_since_ack = pending
        if pending >= options.ack_every:
            self._send_pure_ack()
            return
        if self._delack_event is None:
            self._delack_event = self.node.clock.call_in(timeout, self._on_delack)
        # else: a delayed ACK is already pending; leave its deadline alone.

    def _on_delack(self) -> None:
        self._delack_event = None
        if self.state != CLOSED and self._segments_since_ack > 0:
            self._send_pure_ack()

    def _send_pure_ack(self) -> None:
        self._emit(self.snd_nxt)

    # ============================================================= segment input

    def handle_segment(self, segment: Segment, ce: bool = False) -> None:
        """Entry point from the stack's demultiplexer.

        ``ce`` is the IP-layer Congestion Experienced mark of the carrying
        packet (set by an AQM queue in ECN-marking mode).
        """
        self.segments_received += 1
        if self.options.timestamps and segment.ts_val is not None:
            # Simplified RFC 7323 echo: remember the newest peer timestamp.
            if self._ts_recent is None or segment.ts_val >= self._ts_recent:
                self._ts_recent = segment.ts_val
        if self.options.ecn:
            if ce:
                self._ecn_echo = True
            if segment.cwr:
                self._ecn_echo = False
        if segment.rst:
            if self.state != CLOSED:
                self._abort(ProtocolError("connection reset by peer"))
            return
        _SEGMENT_HANDLERS[self.state](self, segment)

    def _segment_ignored(self, segment: Segment) -> None:
        pass

    def _segment_in_syn_sent(self, segment: Segment) -> None:
        if segment.syn and segment.ack_flag and segment.ack == 1:
            self.snd_una = 1
            self._retries = 0
            self._cancel_rto()
            # Their SYN occupies remote sequence 0; stream data begins at 1.
            self._set_state(FIN_WAIT_1 if self._fin_pending else ESTABLISHED)
            self.snd_wnd = segment.window
            self._send_pure_ack()
            if self.on_connected is not None:
                self.on_connected(self)
            self._try_send()
        elif segment.syn and not segment.ack_flag:
            # Simultaneous open: respond with SYN+ACK (rare; supported).
            self._set_state(SYN_RCVD)
            self._emit(seq=0, syn=True, ack_flag=True)

    def _segment_in_syn_rcvd(self, segment: Segment) -> None:
        if segment.syn and not segment.ack_flag:
            # Duplicate SYN: retransmitted handshake; re-send SYN+ACK.
            self._emit(seq=0, syn=True, ack_flag=True, retransmission=True)
            return
        if segment.ack_flag and segment.ack >= 1:
            self.snd_una = max(self.snd_una, 1)
            self._retries = 0
            self._cancel_rto()
            self._set_state(FIN_WAIT_1 if self._fin_pending else ESTABLISHED)
            self.snd_wnd = segment.window
            listener = self._accept_callback
            if listener is not None:
                listener(self)
            if self.on_connected is not None:
                self.on_connected(self)
            # The handshake-completing ACK may carry data or a FIN.
            if segment.length > 0 or segment.fin:
                self._segment_in_established_family(segment)
            else:
                self._try_send()

    def _segment_in_time_wait(self, segment: Segment) -> None:
        # Retransmitted FIN from the peer: re-ACK it.
        if segment.fin:
            self._send_pure_ack()

    # ------------------------------------------------------- established family

    def _segment_in_established_family(self, segment: Segment) -> None:
        if segment.syn:
            # Stray handshake retransmission; the ACK we send covers it.
            self._send_pure_ack()
            return
        if segment.ack_flag:
            self._process_ack(segment)
        length = segment.length
        if length > 0 or segment.messages:
            # Payload. RFC 5681: in-order data may be ACKed late;
            # out-of-order or duplicate data elicits an immediate ACK.
            if self.assembler.accept(segment.seq - 1, length, segment.messages):
                self._schedule_ack()
                if self._remote_fin_stream is not None:
                    self._maybe_consume_fin()
            else:
                self._send_pure_ack()
        if segment.fin:
            self._process_fin(segment)

    def _process_ack(self, segment: Segment) -> None:
        ack = segment.ack
        if ack > self._high_water:
            return  # acks data never sent; ignore
        self._last_ack_ts_ecr = (
            segment.ts_ecr if self.options.timestamps else None
        )
        # After a go-back-N rewind, valid ACKs may exceed snd_nxt.
        if segment.sack and self.options.sack:
            for lo, hi in segment.sack:
                # Most blocks repeat ranges we already hold; skip them in
                # O(log n) instead of paying the merge.
                if not _covers(self._scoreboard, lo, hi):
                    self._scoreboard = _merge_interval(self._scoreboard, lo, hi)
            self._scoreboard = _trim_below(self._scoreboard, self.snd_una)
        if (
            self.options.ecn
            and segment.ece
            and not self._in_recovery
            and self.snd_una >= self._ecn_recover
        ):
            # RFC 3168 §6.1.2: one window reduction per round trip.
            self.cc.on_ecn_congestion(self.flight_size, self.clock.now())
            if self.recorder is not None:
                self._trace_cc("ecn")
            self._ecn_recover = self.snd_nxt
            self._cwr_pending = True
        window_update = segment.window != self.snd_wnd
        self.snd_wnd = segment.window
        if self._persist_event is not None and self.snd_wnd > 0:
            self._persist_event.cancel()
            self._persist_event = None
            self._try_send()
        if ack > self.snd_una:
            self._process_new_ack(ack)
        elif (
            ack == self.snd_una
            and self.snd_nxt > ack
            and segment.length == 0
            and not segment.fin
            and not window_update
        ):
            self._process_dup_ack()
        elif window_update:
            self._try_send()

    def _process_new_ack(self, ack: int) -> None:
        acked = ack - self.snd_una
        self.snd_una = ack
        # After a go-back-N rewind the receiver may ack past snd_nxt.
        if ack > self.snd_nxt:
            self.snd_nxt = ack
        if self._scoreboard:
            self._scoreboard = _trim_below(self._scoreboard, ack)
        if self._rexmit_marks:
            trimmed = _trim_below(self._rexmit_marks, ack)
            if trimmed is not self._rexmit_marks:
                self._rexmit_marks = trimmed
                self._marks_bytes = _total_bytes(trimmed)
        self.bytes_acked += acked
        self._retries = 0
        self.send_buffer.release_through(ack - 1)  # _stream_offset(ack)
        now = self.node.clock.now()
        if (
            self.options.timestamps
            and self._last_ack_ts_ecr is not None
        ):
            # RTTM: every ACK advancing snd_una yields a sample, and the
            # echoed timestamp disambiguates retransmissions (no Karn
            # exclusion needed).
            sample = now - self._last_ack_ts_ecr
            if sample >= 0:
                self.rtt.observe(sample)
                self.cc.on_rtt_sample(sample, now)
            self._timed_seq = None
        elif self._timed_seq is not None and ack >= self._timed_seq:
            sample = now - self._timed_at
            self.rtt.observe(sample)
            self.cc.on_rtt_sample(sample, now)
            self._timed_seq = None
        if self._in_recovery:
            if ack >= self._recover:
                self._in_recovery = False
                self._dupacks = 0
                self._rexmit_marks = ()
                self._marks_bytes = 0
                self.cc.on_exit_recovery(now)
            elif self.options.sack:
                # The scoreboard drives retransmissions; partial ACKs just
                # open pipe space.
                self._recovery_send()
            else:
                # Partial ACK: NewReno retransmits the next hole and stays
                # in recovery; Reno/CUBIC exit on the first partial ACK.
                if self.options.flavor == "newreno":
                    self.cc.on_partial_ack(acked)
                    self._retransmit_first()
                else:
                    self._in_recovery = False
                    self._dupacks = 0
                    self.cc.on_exit_recovery(now)
        else:
            self._dupacks = 0
            self.cc.on_ack(acked, self.snd_nxt - ack, now)
        if self.recorder is not None:
            # One check covers every cc mutation on the ACK path (growth,
            # partial ack, recovery exit).
            self._trace_cc("ack")
        if self.snd_nxt > ack:
            self._arm_rto()
        else:
            self._cancel_rto()
        if self.on_acked is not None:
            # Stream bytes acked: sequence progress minus the SYN (and FIN).
            stream_acked = min(self.snd_una - 1, self.send_buffer.stream_length)
            self.on_acked(self, stream_acked)
        if self._fin_sent:
            self._after_fin_acked(ack)
        self._try_send()
        fluid = self.node.sim.fluid
        if fluid is not None:
            fluid.on_ack(self)

    def _process_dup_ack(self) -> None:
        fluid = self.node.sim.fluid
        if fluid is not None:
            # A duplicate ACK is loss evidence the fluid model cannot
            # express; hand the flow back before recovery state mutates.
            fluid.on_dupack(self)
        self._dupacks += 1
        self.dupacks_received += 1
        counters = self.node.sim.counters
        counters["tcp.dupacks"] = counters.get("tcp.dupacks", 0) + 1
        if self._in_recovery:
            if self.options.sack and self.cc.supports_fast_recovery:
                self._recovery_send()  # pipe shrank: maybe send more
            else:
                self.cc.on_dup_ack_in_recovery()
                if self.recorder is not None:
                    self._trace_cc("dupack")
                self._try_send()
            return
        if self._dupacks == 3:
            now = self.clock.now()
            self.fast_retransmits += 1
            if self.options.sack and self.cc.supports_fast_recovery:
                self._enter_sack_recovery()
                return
            self.cc.on_enter_recovery(self.flight_size, now)
            if self.recorder is not None:
                self._trace_cc("enter-recovery")
            self._timed_seq = None
            if self.cc.supports_fast_recovery:
                self.fast_recoveries += 1
                self._in_recovery = True
                self._recover = self.snd_nxt
            else:
                self._dupacks = 0  # Tahoe restarts slow start outright
            self._retransmit_first()
            self._arm_rto()
        else:
            self._try_send()  # limited transmit may release a segment

    def _after_fin_acked(self, ack: int) -> None:
        """Our FIN is out: move on if ``ack`` covers it."""
        if ack < self._fin_seq() + 1:
            return
        if self.state == FIN_WAIT_1:
            self._set_state(FIN_WAIT_2)
        elif self.state == CLOSING:
            self._enter_time_wait()
        elif self.state == LAST_ACK:
            self._become_closed()

    # -------------------------------------------------------------------- FIN

    def _process_fin(self, segment: Segment) -> None:
        fin_stream = self._stream_offset(segment.seq) + segment.length
        if self._remote_fin_stream is None:
            self._remote_fin_stream = fin_stream
        self._maybe_consume_fin()

    def _maybe_consume_fin(self) -> None:
        if self._fin_received:
            self._send_pure_ack()
            return
        assert self._remote_fin_stream is not None
        if self.assembler.rcv_nxt < self._remote_fin_stream:
            # Data before the FIN is still missing; ACK what we have.
            self._send_pure_ack()
            return
        self._fin_received = True
        if self.state == ESTABLISHED:
            self._set_state(CLOSE_WAIT)
        elif self.state == FIN_WAIT_1:
            # FIN and our FIN crossed; were we also acked?
            self._set_state(CLOSING)
        elif self.state == FIN_WAIT_2:
            self._enter_time_wait()
        self._send_pure_ack()
        if self.on_close is not None:
            self.on_close(self)

    # ---------------------------------------------------------------- teardown

    def _enter_time_wait(self) -> None:
        self._set_state(TIME_WAIT)
        self._cancel_rto()
        self.clock.call_in(2 * self.options.msl, self._become_closed)

    def _become_closed(self) -> None:
        if self.state == CLOSED:
            return
        self._set_state(CLOSED)
        self._cancel_rto()
        if self._persist_event is not None:
            self._persist_event.cancel()
            self._persist_event = None
        if self._delack_event is not None:
            self._delack_event.cancel()
            self._delack_event = None
        self.stack.forget(self)

    def _abort(self, error: Exception) -> None:
        already_closed = self.state == CLOSED
        self._become_closed()
        if not already_closed and self.on_error is not None:
            self.on_error(self, error)

    def info(self) -> dict:
        """A snapshot of connection state, in the spirit of ``ss -i``.

        All time quantities are in the connection's local (virtual) clock.
        """
        return {
            "state": self.state,
            "local": f"{self.node.name}:{self.local_port}",
            "remote": f"{self.remote_addr}:{self.remote_port}",
            "flavor": self.cc.name,
            "cwnd": self.cc.cwnd,
            "ssthresh": self.cc.ssthresh,
            "snd_una": self.snd_una,
            "snd_nxt": self.snd_nxt,
            "flight": self.flight_size,
            "snd_wnd": self.snd_wnd,
            "srtt": self.rtt.srtt,
            "rttvar": self.rtt.rttvar,
            "rto": self.rtt.rto,
            "in_recovery": self._in_recovery,
            "sacked_ranges": len(self._scoreboard),
            "segments_sent": self.segments_sent,
            "segments_received": self.segments_received,
            "retransmits": self.retransmits,
            "timeouts": self.timeouts,
            "dupacks_received": self.dupacks_received,
            "fast_retransmits": self.fast_retransmits,
            "fast_recoveries": self.fast_recoveries,
            "bytes_acked": self.bytes_acked,
            "bytes_received": self.bytes_received,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TcpSocket({self.node.name}:{self.local_port} -> "
            f"{self.remote_addr}:{self.remote_port} {self.state} "
            f"una={self.snd_una} nxt={self.snd_nxt} cwnd={self.cc.cwnd:.0f})"
        )


#: Connection state -> :meth:`TcpSocket.handle_segment`'s input handler.
_SEGMENT_HANDLERS = {
    CLOSED: TcpSocket._segment_ignored,
    LISTEN: TcpSocket._segment_ignored,
    SYN_SENT: TcpSocket._segment_in_syn_sent,
    SYN_RCVD: TcpSocket._segment_in_syn_rcvd,
    TIME_WAIT: TcpSocket._segment_in_time_wait,
    **dict.fromkeys(
        (ESTABLISHED, FIN_WAIT_1, FIN_WAIT_2, CLOSE_WAIT, CLOSING, LAST_ACK),
        TcpSocket._segment_in_established_family,
    ),
}
