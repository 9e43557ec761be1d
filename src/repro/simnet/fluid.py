"""Fluid flow-level fast path — hybrid-fidelity TCP emulation.

Packet-level emulation spends a handful of engine events on every segment
of every flow, which is exactly right while behaviour is *unpredictable*
(loss, recovery, competing traffic, impairments) and pure waste while a
bulk flow sits in steady state clocking one full window per RTT. This
module adds the fast path: a :class:`FluidManager` installed on a
:class:`~repro.simnet.engine.Simulator` watches ACK progress, and when a
flow satisfies the steady-state predicate it is *drained* (no new data
enters the network until the flight empties) and then switched to a
coarse-stepped fluid model that advances delivered bytes, cwnd and queue
occupancy analytically per interval — typically one event per
``min(rtt, 25 ms)`` of virtual time instead of ~6 per segment.

The abstraction switch is per flow and reversible. Any discontinuity the
closed form cannot express hands the flow back to packet level:

* **foreign traffic** — a transmit on any path interface while the fluid
  flow is silent means a competing flow arrived (detected via
  ``tx_packets`` snapshots, one integer compare per interface per step);
* **path change** — an impairment, tap, recorder, RED queue, link-down
  or cross-shard ``egress_channel`` appearing on the path
  (``Interface.fluid_transparent`` re-checked every step);
* **peer talkback** — the receiving application responding with data of
  its own (request/response traffic is never fluid);
* **state change** — close/FIN/RST progress on either socket;
* **tail** — the transfer approaching its end, so the final windows, FIN
  handshake and retransmissions (if any) run packet-level.

Loss is never modelled analytically: every real loss episode belongs to
the packet engine. The model tracks the bottleneck's occupancy (window
minus bandwidth-delay product) and hands the flow back *before* the
window reaches the overflow point (``loss-imminent``); packet level then
overflows the queue organically, pays the true recovery cost, and the
flow re-enters once the halved window clears the entry margin. The AIMD
sawtooth therefore alternates fluid climbs with real packet peaks, and
goodput keeps the convergence losses the packet baseline pays.

Byte conservation across the handoff is asserted, not assumed: bytes
acked at entry plus fluid-delivered bytes must equal bytes acked at exit,
and the receiver's reassembly cursor must agree — a mismatch raises and
bumps ``fluid.conservation_failures`` instead of silently skewing CDFs.

Everything here is opt-in. With no manager installed, ``sim.fluid`` is
``None`` and every socket hook is a single is-None check: packet-level
runs (and their goldens) are bit-exact with or without this module
imported.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from ..tcp.segment import segment_wire_bytes
from .packet import IP_HEADER_BYTES

__all__ = ["FluidManager", "FluidFlow", "FluidSocketState"]

#: RTT samples required before the model trusts srtt (timestamps-off
#: connections sample once per flight, so this is ~4 RTTs of history).
MIN_RTT_SAMPLES = 4

#: Coarse-step ceiling in virtual seconds. One step per RTT is enough for
#: the dynamics; the cap bounds staircase error in goodput measured over
#: short windows (25 ms against a 4 s measurement span is < 1%).
STEP_CAP_S = 0.025

#: Coarse-step floor — sub-half-millisecond RTTs step at this instead.
STEP_FLOOR_S = 0.0005

#: Exit to packet level when the remaining stream is within this many
#: effective windows (the tail, FIN handshake and any real loss there
#: deserve real packets).
TAIL_WINDOWS = 2.0
TAIL_MIN_MSS = 8

#: New-data ACKs a flow must clock packet-level after a fallback before
#: it may re-enter fluid mode (damps mode thrash under bursty cross
#: traffic, e.g. swarms).
COOLDOWN_ACKS = 32

#: Loss quiet period: no fluid entry within this many srtts of the last
#: retransmission or timeout. Convergence is often a multi-episode
#: process (a slow-start overshoot's ssthresh can land right back at the
#: overflow point); entering between episodes would cancel the follow-up
#: loss the packet baseline pays for, overstating goodput.
QUIET_RTTS = 8.0

#: Route-walk hop bound (defence against routing loops).
MAX_HOPS = 32

#: Overflow headroom in data packets: a flow may only *enter* fluid mode
#: with its window at least this far under the bottleneck overflow point,
#: and it *exits* (``loss-imminent``) once within EXIT_MARGIN_PKTS —
#: entry strictly tighter than exit so a freshly admitted flow cannot
#: bounce straight back out.
ENTRY_MARGIN_PKTS = 8
EXIT_MARGIN_PKTS = 4

#: With Nagle off, congestion avoidance interleaves full segments with
#: runts that absorb the fractional cwnd growth; they mature back into
#: full segments together once cumulative growth equals the post-loss
#: window, i.e. at cwnd = 2*ssthresh.  The maturation wave spawns a
#: fresh runt per pair in one RTT, nearly doubling the flight's packet
#: count, and it is this — not queue bytes — that overflows a
#: packet-bounded bottleneck queue.  Exit this many MSS of cwnd growth
#: *before* the wave so the packet engine replays the overflow (and the
#: chaotic drop mix that decides between clean SACK recovery and an
#: RTO cascade) natively.
WAVE_EXIT_MSS = 8.0

#: Shared by every record: ``float("-inf")`` would build a new float each.
_NEG_INF = float("-inf")


class FluidSocketState:
    """A socket's hybrid-fidelity bookkeeping, kept in its ``_fluid`` slot.

    Packet-mode sockets hold ``None`` there; :meth:`FluidManager.on_ack`
    creates the record on a socket's first new-data ACK, and a missing
    record reads as its defaults (no hold, no pacing cap, no loss seen).
    """

    __slots__ = ("hold", "pace_window", "cooldown", "loss_stat", "last_loss")

    def __init__(self) -> None:
        #: While the manager drains or owns this flow, no new data may
        #: enter the packet network; the socket's _try_send parks on it.
        self.hold = False
        #: After a fluid->packet handback the usable window is capped here
        #: while the manager's pacing timers re-open it over one srtt.
        self.pace_window: Optional[float] = None
        #: New-data ACKs remaining before fluid re-entry is considered.
        self.cooldown = 0
        #: Loss-quiet tracking for the fluid predicate: last observed
        #: (fast_retransmits, timeouts) pair and when it last changed.
        self.loss_stat = (0, 0)
        self.last_loss = _NEG_INF


def _held(sock) -> bool:
    """Whether a manager drains or owns ``sock``'s flow."""
    state = sock._fluid
    return state is not None and state.hold


def _path_constants(options, fwd: List, rev: List):
    """Wire sizes, physical base RTT and bottleneck of a traced path.

    Returns ``(data_wire, ack_wire, rtt_base_phys_s, bottleneck_iface)``.
    All quantities are physical; the BDP (bandwidth x base RTT) is
    TDF-invariant, so overflow geometry can be computed without the local
    clock's scale.
    """
    # Steady-state segments carry no SACK blocks: the fluid model holds
    # only loss-free flows.
    data_wire = IP_HEADER_BYTES + segment_wire_bytes(
        options.mss, timestamps=options.timestamps
    )
    ack_wire = IP_HEADER_BYTES + segment_wire_bytes(
        0, timestamps=options.timestamps
    )
    base_phys = 0.0
    bottleneck = fwd[0]
    for iface in fwd:
        base_phys += iface.delay_s + data_wire * 8.0 / iface.bandwidth_bps
        if iface.bandwidth_bps < bottleneck.bandwidth_bps:
            bottleneck = iface
    for iface in rev:
        base_phys += iface.delay_s + ack_wire * 8.0 / iface.bandwidth_bps
    return data_wire, ack_wire, base_phys, bottleneck


def _slots_full(count: int, tail_payload: int, tail_len: int,
                overhead: int, queued_wire: float) -> bool:
    """Loss-imminent slot check: does the queued excess occupy more than
    ``tail_len`` bottleneck queue slots?

    The bottleneck queue holds the most recently emitted segments (FIFO
    drain), so the slots it occupies are the fewest newest pipeline
    segments whose wire bytes cover ``queued_wire``. Each segment adds a
    positive payload plus the fixed ``overhead``, so that cover only grows
    walking back from the newest: more than ``tail_len`` segments are
    queued exactly when the pipeline holds more than ``tail_len`` of them
    and the newest ``tail_len`` (payload sum ``tail_payload`` plus their
    overhead) still fall short of ``queued_wire``. That is the answer a
    walk back over the pipeline gives, in one compare; the sums are
    integers far below 2**53, so comparing them with the float is exact.
    """
    return count > tail_len and tail_payload + tail_len * overhead < queued_wire


def _queue_cap_bytes(queue) -> float:
    """Bottleneck queue *byte* capacity (inf when not byte-bounded).

    The packet-count bound is handled separately: queue slots are consumed
    per packet regardless of size, and with Nagle off the segment stream
    mixes full-MSS packets with sub-MSS runts, so the queue overflows at
    far fewer bytes than ``capacity_packets x full_frame``.
    """
    cap = getattr(queue, "capacity_bytes", None)
    return float(cap) if cap is not None else float("inf")


class FluidFlow:
    """One TCP flow currently advanced by the fluid model.

    Owns the per-step closed form; the sockets' real state (``snd_una``,
    cwnd, RTT estimator, receive assembler) is advanced in place so the
    handback needs no state copy — packet level resumes exactly where the
    model left the connection.
    """

    def __init__(
        self,
        manager: "FluidManager",
        sock,
        peer,
        fwd: List,
        rev: List,
    ) -> None:
        self.manager = manager
        self.sock = sock
        self.peer = peer
        self.fwd = fwd
        self.rev = rev
        self.active = True

        options = sock.options
        self.mss = options.mss
        self.ack_every = max(1, options.ack_every)
        data_wire, ack_wire, base_phys, bottleneck = _path_constants(
            options, fwd, rev
        )
        self.data_wire = data_wire
        self.ack_wire = ack_wire
        self.bottleneck = bottleneck

        # Virtual-time path constants. Interfaces carry *physical* delays
        # and bandwidths; the local clock's scale k (physical seconds per
        # virtual second) converts them into the flow's own time base, so
        # the model is TDF-invariant by construction.
        clock = sock.clock
        now_v = clock.now()
        k = clock.to_physical(now_v + 1.0) - clock.to_physical(now_v)
        if k <= 0:  # pragma: no cover - defensive; clocks are monotone
            k = 1.0
        self.rtt_base_v = base_phys / k
        #: Bottleneck capacity in wire bytes per *virtual* second.
        self.cap_wire_v = bottleneck.bandwidth_bps / 8.0 * k
        #: Wire bytes the path itself holds (bandwidth-delay product);
        #: pipeline bytes beyond this sit in the bottleneck queue.
        self.bdp_wire = self.cap_wire_v * self.rtt_base_v
        self.queue_cap_bytes = _queue_cap_bytes(bottleneck.queue)
        self.queue_cap_pkts = bottleneck.queue.capacity_packets

        # Conservation ledger: entry cursor + every materialised delta.
        self.entry_una = sock.snd_una
        self.entry_rcv_nxt = peer.assembler.rcv_nxt
        self.delivered = 0
        self.steps = 0
        self._events_saved = 0.0

        # ACK-cycle pipeline (see _step). The packet engine, with Nagle
        # off, emits each ACK's freed bytes as full-MSS segments plus one
        # sub-MSS runt; the receiver counts *segments* toward its delayed
        # ACK, so runts nearly double the ACK rate per byte — and with it
        # the per-byte cwnd growth — versus the textbook one-ACK-per-
        # 2xMSS law. A closed form misses that by design; instead each
        # coarse step replays the engine's per-ACK arithmetic over the
        # interval (a few dozen integer ops per ACK against ~a dozen
        # heap-managed engine events). Seeded with one window in flight;
        # the segment-size orbit self-organises within an RTT exactly as
        # the engine's does.
        self._overhead = data_wire - self.mss
        self._init_pipeline(
            self.queue_cap_pkts - EXIT_MARGIN_PKTS
            if self.queue_cap_pkts is not None
            else None
        )
        self._seed_pipeline(int(self._window()))
        self._t_credit = 0.0

        self._snapshots: List[Tuple[object, int]] = [
            (iface, iface.tx_packets) for iface in fwd + rev
        ]
        self._dt = self._step_len()
        self._event = clock.call_in(self._dt, self._step)

    def _init_pipeline(self, pkt_margin: Optional[int]) -> None:
        """Empty the pipeline; the flow exits loss-imminent once the
        bottleneck queue holds ``pkt_margin`` of its segments (``None``:
        the queue has no packet bound)."""
        self._segq: deque = deque()
        self._flight_payload = 0
        self._flight_wire = 0
        self._pkt_margin = pkt_margin
        #: Payload sum of the newest ``_tail_len`` pipeline segments, for
        #: the O(1) slot check (see :func:`_slots_full`). Kept exact
        #: whenever the pipeline is longer than ``_tail_len`` — the only
        #: time the check reads it. Popping the front never touches the
        #: newest ``_tail_len`` of a longer pipeline, and once a pop leaves
        #: it shorter, the next push re-bases the sum on the whole flight.
        self._tail_len = max(pkt_margin - 1, 0) if pkt_margin is not None else 0
        self._tail_payload = 0

    def _seed_pipeline(self, window: int) -> None:
        mss = self.mss
        cc = self.sock.cc
        ssthresh = float(getattr(cc, "ssthresh", float("inf")))
        m0 = 0
        if (
            not self.sock.options.nagle
            and 0.0 < ssthresh < float("inf")
            and window > ssthresh
        ):
            # Congestion avoidance interleaves full segments with "mid"
            # runts that absorb the fractional cwnd growth each RTT, so
            # a runt's size encodes how far the window has climbed since
            # the loss that set ssthresh: m = mss * (W - S) / S.  Seeding
            # that phase matters — the runts all mature to full segments
            # together at W = 2*ssthresh, doubling the packet count in
            # one RTT and overflowing a packet-bounded queue exactly
            # where the engine does.  An all-full seed would restart the
            # maturation clock at entry and push the overflow (and the
            # whole sawtooth amplitude) past the packet engine's.
            m0 = min(int(mss * (window - ssthresh) / ssthresh), mss - 1)
        if m0 > 0:
            # The engine's runt sizes carry ~±45 B of phase noise from
            # delayed-ACK pairing drift; a uniform seed would mature the
            # whole wave in a single RTT and hand the packet engine an
            # unnaturally clean drop burst (tinies only, always a tidy
            # SACK recovery).  Deterministic per-index jitter staggers
            # maturation over a few RTTs like the real flight does.
            remaining = window
            index = 0
            while True:
                jitter = ((index * 2654435761) >> 8) % 91 - 45
                mid = min(max(m0 + jitter, 1), mss - 1)
                if remaining < mss + mid:
                    break
                self._push_segment(mss)
                self._push_segment(mid)
                remaining -= mss + mid
                index += 1
            while remaining >= mss:
                self._push_segment(mss)
                remaining -= mss
            if remaining > 0:
                self._push_segment(remaining)
            return
        full, runt = divmod(window, mss)
        for _ in range(full):
            self._push_segment(mss)
        if runt > 0 and (not self.sock.options.nagle or full == 0):
            self._push_segment(runt)

    def _push_segment(self, payload: int) -> None:
        """Emit one segment into the pipeline (``_step`` inlines this)."""
        q = self._segq
        q.append(payload)
        self._flight_payload += payload
        self._flight_wire += payload + self._overhead
        tail_len = self._tail_len
        if len(q) > tail_len:
            self._tail_payload += payload - q[-tail_len - 1]
        else:
            self._tail_payload = self._flight_payload

    # ------------------------------------------------------------- model

    def _window(self) -> float:
        """Effective window: cwnd capped by the peer's advertised window."""
        return min(self.sock.cc.cwnd, float(self.sock.snd_wnd))

    def _rtt_eff(self) -> float:
        """RTT including modelled bottleneck queueing delay (virtual s)."""
        q_wire = max(0.0, self._flight_wire - self.cap_wire_v * self.rtt_base_v)
        return self.rtt_base_v + q_wire / self.cap_wire_v

    def _step_len(self) -> float:
        return min(max(self._rtt_eff(), STEP_FLOOR_S), STEP_CAP_S)

    def _remaining(self) -> int:
        sock = self.sock
        return sock.send_buffer.stream_length - (sock.snd_una - 1)

    def _step(self) -> None:
        if not self.active:  # pragma: no cover - cancelled events don't fire
            return
        sock = self.sock
        manager = self.manager

        # Discontinuities first; none of these advance the model.
        if sock.state not in manager._SENDER_STATES or self.peer.state not in (
            manager._RECEIVER_STATES
        ):
            manager._exit(self, "state", fallback=True)
            return
        for iface, tx in self._snapshots:
            if iface.tx_packets != tx:
                manager._exit(self, "traffic", fallback=True)
                return
        for iface in self.fwd:
            if not iface.fluid_transparent():
                manager._exit(self, "path", fallback=True)
                return
        for iface in self.rev:
            if not iface.fluid_transparent():
                manager._exit(self, "path", fallback=True)
                return

        window = self._window()
        remaining = self._remaining()
        if remaining <= max(TAIL_WINDOWS * window, TAIL_MIN_MSS * self.mss):
            manager._exit(self, "tail", fallback=False)
            return

        # Advance the flow by replaying ACK cycles over the interval. One
        # cycle: `ack_every` pipeline segments reach the receiver, one
        # cumulative ACK returns, the real cc object grows, and the sender
        # emits the freed window as full segments plus (Nagle off) a runt
        # — the packet engine's exact per-ACK arithmetic, minus its
        # events. Cycle duration is the ACK-clock spacing: window-limited
        # (payload x rtt / window) or bottleneck-limited (wire bytes /
        # capacity), whichever binds — so runt header overhead eats wire
        # capacity here just as it does on the real link.
        cc = sock.cc
        mss = self.mss
        nagle = sock.options.nagle
        ack_every = self.ack_every
        overhead = self._overhead
        rtt_base_v = self.rtt_base_v
        cap_wire_v = self.cap_wire_v
        bdp_wire = self.bdp_wire
        budget = self._dt + self._t_credit
        byte_margin = (
            bdp_wire + self.queue_cap_bytes - EXIT_MARGIN_PKTS * self.data_wire
        )
        # Nothing below can move the peer's window or ssthresh, and only
        # this loop moves cwnd and the pipeline: all of them live in
        # locals until the single write-back after the loop.
        cwnd = cc.cwnd
        ssthresh = cc.ssthresh
        snd_wnd = float(sock.snd_wnd)
        pkt_margin = self._pkt_margin
        tail_len = self._tail_len
        wave_exit = None
        if pkt_margin is not None and not nagle:
            ss = float(ssthresh)
            if 0.0 < ss < float("inf") and cwnd >= ss:
                wave_exit = 2.0 * ss - WAVE_EXIT_MSS * mss
        flight_payload = self._flight_payload
        flight_wire = self._flight_wire
        tail = self._tail_payload
        t = 0.0
        delta = 0
        acks = 0
        segs = 0
        loss_imminent = False
        q = self._segq
        popleft = q.popleft
        push = q.append
        # Builtins cost a call each at this altitude: the pipeline length
        # is tracked in a local, and min/max are written as the compares
        # they perform (same operand on ties, so bit-identical).
        count = len(q)
        while t < budget:
            if count < ack_every or delta + 2 * mss > remaining:
                break
            p = 0
            for _ in range(ack_every):
                p += popleft()
            count -= ack_every
            segs += ack_every
            cycle_wire = p + ack_every * overhead
            flight_payload -= p
            flight_wire -= cycle_wire
            window = snd_wnd if snd_wnd < cwnd else cwnd
            clocked = p * rtt_base_v / window
            drained = cycle_wire / cap_wire_v
            t += drained if drained > clocked else clocked
            delta += p
            acks += 1
            if cwnd < ssthresh:
                # Slow start with appropriate byte counting (RFC 3465).
                cwnd += mss if mss < p else p
            else:
                cwnd += mss * mss / cwnd
            # Emit the freed window as full segments plus (Nagle off) one
            # runt: _push_segment, inlined on the locals.
            usable = int(snd_wnd if snd_wnd < cwnd else cwnd) - flight_payload
            while usable >= mss or (usable > 0 and not nagle):
                payload = mss if usable >= mss else usable
                push(payload)
                count += 1
                flight_payload += payload
                flight_wire += payload + overhead
                if count > tail_len:
                    tail += payload - q[-tail_len - 1]
                else:
                    tail = flight_payload
                usable -= payload
            # Loss-imminent: the pipeline is within the exit margin of the
            # bottleneck overflow point — by queue bytes, or by queue
            # *slots* (each packet occupies one slot whatever its size, so
            # the live segment mix sets the byte level at which a
            # packet-bounded queue fills). Packet level takes over,
            # overflows the queue organically and pays the true recovery
            # cost; the flow re-enters once the halved window clears the
            # entry margin.
            if flight_wire >= byte_margin:
                loss_imminent = True
                break
            if wave_exit is not None and cwnd >= wave_exit and snd_wnd > cwnd:
                # Runt maturation wave imminent (see WAVE_EXIT_MSS).
                loss_imminent = True
                break
            if pkt_margin is not None and _slots_full(
                count, tail, tail_len, overhead, flight_wire - bdp_wire
            ):
                loss_imminent = True
                break
        cc.cwnd = cwnd
        self._flight_payload = flight_payload
        self._flight_wire = flight_wire
        self._tail_payload = tail
        self._t_credit = min(max(budget - t, -STEP_CAP_S), STEP_CAP_S)

        if delta > 0:
            self._advance(delta)
        self.steps += 1
        counters = sock.node.sim.counters
        counters["fluid.steps"] = counters.get("fluid.steps", 0) + 1
        # Conservation is asserted on every step, not just at exit, so a
        # lossy handoff (or model bug) fails loudly even when the horizon
        # ends the run with the flow still in fluid mode.
        manager._assert_conserved(self, counters)

        if loss_imminent:
            manager._exit(self, "loss-imminent", fallback=False)
            return

        # RTT estimator keeps tracking the modelled path so RTO and the
        # handback pacing interval stay sane.
        sock.rtt.observe(self._rtt_eff())

        # Event-budget ledger: segments plus ACKs, each worth ~2 engine
        # events (transmit-finish + delivery) per hop, minus our 1 step.
        # Flushed into the counters incrementally so a flow that never
        # exits (horizon reached mid-fluid) still reports its savings.
        self._events_saved += (
            segs * 2.0 * len(self.fwd) + acks * 2.0 * len(self.rev) - 1.0
        )
        whole_saved = int(self._events_saved)
        if whole_saved > 0:
            counters["fluid.events_saved"] = (
                counters.get("fluid.events_saved", 0) + whole_saved
            )
            self._events_saved -= whole_saved

        # The receiving application may have responded to delivered
        # messages with data of its own — that traffic is real packets.
        peer = self.peer
        if peer.flight_size > 0 or peer.send_buffer.available_from(
            peer.snd_nxt - 1 if peer.snd_nxt > 0 else 0
        ) > 0:
            manager._exit(self, "talkback", fallback=True)
            return
        if not self.active:
            # A callback fired from _advance (app close, error) tore the
            # flow down already.
            return

        self._dt = self._step_len()
        sock.clock.reschedule_in(self._event, self._dt)

    def _advance(self, delta: int) -> None:
        """Materialise ``delta`` delivered bytes on both real sockets."""
        sock = self.sock
        peer = self.peer
        offset = sock.snd_una - 1
        end = offset + delta
        markers = sock.send_buffer.markers_in(offset, end)
        sock.snd_una += delta
        sock.snd_nxt = max(sock.snd_nxt, sock.snd_una)
        sock._high_water = max(sock._high_water, sock.snd_nxt)
        sock.bytes_acked += delta
        sock.send_buffer.release_through(end)
        self.delivered += delta
        # Receiver side: one in-order accept covering the interval carries
        # the message markers to the application at the right offsets.
        peer.assembler.accept(offset, delta, markers)
        if sock.on_acked is not None:
            stream_acked = min(
                sock.snd_una - 1, sock.send_buffer.stream_length
            )
            sock.on_acked(sock, stream_acked)



class FluidManager:
    """Per-simulator coordinator for the fluid fast path.

    Construct one against a simulator (``FluidManager(sim)``) *before*
    traffic starts and the TCP sockets on that simulator will consult it
    from their ACK path. The manager never forces a flow out of packet
    mode — it only promotes flows that satisfy the steady-state predicate
    and demotes them on the first discontinuity.
    """

    _SENDER_STATES = ("ESTABLISHED", "FIN_WAIT_1")
    _RECEIVER_STATES = ("ESTABLISHED",)

    def __init__(self, sim) -> None:
        self.sim = sim
        sim.fluid = self
        #: Flows currently advanced analytically, keyed by sender socket.
        self.flows: Dict[object, FluidFlow] = {}

    # ------------------------------------------------------- socket hooks

    def on_ack(self, sock) -> None:
        """Called by the socket after every new-data ACK it processes."""
        if sock in self.flows:
            return
        state = sock._fluid
        if state is None:
            state = sock._fluid = FluidSocketState()
        stat = (sock.fast_retransmits, sock.timeouts)
        if stat != state.loss_stat:
            state.loss_stat = stat
            state.last_loss = sock.clock.now()
        if state.hold:
            self._check_drain(sock)
            return
        if state.cooldown > 0:
            state.cooldown -= 1
            return
        if self._eligible(sock) is None:
            return
        # Steady state: park the sender and let the in-flight window
        # drain through real ACKs; _check_drain completes the switch.
        state.hold = True
        self._count("fluid.drains")
        self._check_drain(sock)

    def on_timeout(self, sock) -> None:
        """Called by the socket when its RTO fires (drain rescue path)."""
        if _held(sock) and sock not in self.flows:
            self._abort_drain(sock, "rto")

    def on_dupack(self, sock) -> None:
        """Called before the socket processes a duplicate ACK.

        Stale drops (e.g. from a handback burst just before re-entry) can
        dupack a flow that is back in fluid mode; the model cannot express
        loss, and letting recovery arithmetic run against the advanced
        ``snd_una`` would halve from a near-zero flight. Exit first so the
        episode plays out entirely at packet level.
        """
        flow = self.flows.get(sock)
        if flow is not None:
            self._exit(flow, "dupack", fallback=True)
        elif _held(sock):
            self._abort_drain(sock, "dupack")

    # --------------------------------------------------------- predicate

    def _eligible(self, sock) -> Optional[Tuple[object, List, List]]:
        """Steady-state predicate; returns (peer, fwd, rev) or None."""
        if sock.node.sim is not self.sim:
            return None
        if sock.state not in self._SENDER_STATES:
            return None
        cc = sock.cc
        if not getattr(type(cc), "supports_fluid", False):
            return None
        options = sock.options
        if options.ecn:
            return None
        if (
            sock._in_recovery
            or sock._dupacks
            or sock._retries
            or sock._scoreboard
            or sock._cwr_pending
        ):
            return None
        rtt = sock.rtt
        if rtt.srtt is None or rtt.samples < MIN_RTT_SAMPLES:
            return None
        if sock.clock.now() - sock._fluid.last_loss < QUIET_RTTS * rtt.srtt:
            return None  # let multi-episode convergence finish packet-level
        # Steady state means a smooth window trajectory: either the flow
        # is past slow start (a real loss episode set ssthresh), or the
        # peer's advertised window is the binding constraint (rwnd-limited
        # slow start inflates cwnd without ever touching the queue). A
        # pre-loss *congestion-limited* slow start stays packet-level: its
        # overshoot and recovery burst are exactly the discontinuity the
        # closed form cannot express, and skipping them would overstate
        # goodput against the packet baseline.
        if cc.cwnd < cc.ssthresh and float(sock.snd_wnd) > cc.cwnd:
            return None
        mss = options.mss
        if sock.snd_wnd < 2 * mss:
            return None
        window = min(cc.cwnd, float(sock.snd_wnd))
        offset_una = sock.snd_una - 1
        if offset_una < 0:
            return None
        remaining = sock.send_buffer.stream_length - offset_una
        if remaining < max(2 * TAIL_WINDOWS * window, 2 * TAIL_MIN_MSS * mss):
            return None
        if sock.send_buffer.available_from(offset_una) != remaining:
            return None  # app-limited: the model assumes a backlogged sender

        fwd = self._trace_path(sock.node, sock.remote_addr)
        if fwd is None:
            return None
        dst_node = fwd[-1].peer.node
        try:
            peer_stack = dst_node.protocol("tcp")
        except Exception:
            return None
        peer = peer_stack.connection(
            sock.remote_port, sock.node.name, sock.local_port
        )
        if peer is None or peer is sock:
            return None
        if peer.state not in self._RECEIVER_STATES:
            return None
        if _held(peer) or peer in self.flows:
            return None
        if peer.assembler._ooo:
            return None
        if peer.flight_size > 0 or peer._fin_pending:
            return None
        peer_offset = peer.snd_nxt - 1 if peer.snd_nxt > 0 else 0
        if peer.send_buffer.available_from(peer_offset) > 0:
            return None  # two-way data: never fluid
        rev = self._trace_path(dst_node, sock.node.name)
        if rev is None:
            return None
        # The window must sit well under the bottleneck overflow point:
        # flows at the cliff belong to packet level, which owns every real
        # loss episode (fluid hands back loss-imminent and re-enters after
        # recovery halves the window below this same margin). Occupancy is
        # estimated against the *worst-case* segment mix: with Nagle off
        # the steady stream pairs every full segment with a sub-MSS runt,
        # roughly doubling the packet count per byte — a window admitted
        # under a full-segment estimate would bounce straight back out of
        # a packet-bounded queue once the mix develops.
        data_wire, _, base_phys, bottleneck = _path_constants(options, fwd, rev)
        bdp_wire = bottleneck.bandwidth_bps / 8.0 * base_phys
        est_segs = int(window) // mss + 1
        if not options.nagle:
            est_segs = 2 * est_segs - 1
        wire_window = window + est_segs * (data_wire - mss)
        queued_wire = wire_window - bdp_wire
        if queued_wire > (
            _queue_cap_bytes(bottleneck.queue) - ENTRY_MARGIN_PKTS * data_wire
        ):
            return None
        cap_pkts = bottleneck.queue.capacity_packets
        if cap_pkts is not None and queued_wire > (
            (cap_pkts - ENTRY_MARGIN_PKTS) * (wire_window / est_segs)
        ):
            return None
        # Too close to the runt maturation wave (cwnd = 2*ssthresh, see
        # WAVE_EXIT_MSS): the flow would exit loss-imminent within a few
        # RTTs, wasting the drain.  Entry strictly tighter than exit.
        if cap_pkts is not None and not options.nagle:
            ssthresh = float(cc.ssthresh)
            if (
                0.0 < ssthresh < float("inf")
                and cc.cwnd >= ssthresh
                and float(sock.snd_wnd) > cc.cwnd
                and cc.cwnd >= (
                    2.0 * ssthresh - (WAVE_EXIT_MSS + ENTRY_MARGIN_PKTS) * mss
                )
            ):
                return None
        return peer, fwd, rev

    def _trace_path(self, src_node, dst_name: str) -> Optional[List]:
        """Hop-by-hop route walk; every interface must be transparent."""
        node = src_node
        ifaces: List = []
        for _ in range(MAX_HOPS):
            if node.name == dst_name:
                return ifaces if ifaces else None
            iface = node.routes.get(dst_name)
            if iface is None:
                return None
            if not iface.fluid_transparent():
                return None
            peer = iface.peer
            if peer is None:
                return None
            ifaces.append(iface)
            node = peer.node
        return None

    # ----------------------------------------------------- drain / enter

    def _check_drain(self, sock) -> None:
        if sock._in_recovery or sock._dupacks:
            self._abort_drain(sock, "recovery")
            return
        if sock.flight_size > 0:
            return  # still draining; the next ACK re-checks
        self._enter(sock)

    def _abort_drain(self, sock, reason: str) -> None:
        state = sock._fluid
        state.hold = False
        state.cooldown = COOLDOWN_ACKS
        self._count("fluid.drain_aborts")
        self._count(f"fluid.drain_abort.{reason}")
        sock._try_send()

    def _enter(self, sock) -> None:
        ready = self._eligible(sock)
        if ready is None:
            self._abort_drain(sock, "predicate")
            return
        peer, fwd, rev = ready
        # Entry-instant quiescence: the drained path must hold nothing of
        # ours and nothing of anyone else's, and the receiver must be
        # fully caught up (no pending delayed ACK, no reassembly holes).
        for iface in fwd + rev:
            if iface._busy or len(iface.queue) != 0:
                self._abort_drain(sock, "queue")
                return
        if peer._segments_since_ack != 0:
            self._abort_drain(sock, "delack")
            return
        if peer.assembler.rcv_nxt != sock.snd_una - 1:
            self._abort_drain(sock, "desync")
            return

        # Cancel any in-progress handback pacing.
        sock._fluid.pace_window = None
        flow = FluidFlow(self, sock, peer, fwd, rev)
        self.flows[sock] = flow
        counters = self.sim.counters
        counters["fluid.entries"] = counters.get("fluid.entries", 0) + 1
        counters["fluid.flows_active"] = len(self.flows)
        if sock.recorder is not None:
            sock.recorder.record_tcp("fluid", sock, "enter", seq=sock.snd_una)

    # ------------------------------------------------------------- exit

    def _exit(self, flow: FluidFlow, reason: str, fallback: bool) -> None:
        sock = flow.sock
        flow.active = False
        flow._event.cancel()
        self.flows.pop(sock, None)

        counters = self.sim.counters
        self._assert_conserved(flow, counters)
        counters["fluid.exits"] = counters.get("fluid.exits", 0) + 1
        counters[f"fluid.exit.{reason}"] = (
            counters.get(f"fluid.exit.{reason}", 0) + 1
        )
        if fallback:
            counters["fluid.fallbacks"] = counters.get("fluid.fallbacks", 0) + 1
        counters["fluid.flows_active"] = len(self.flows)
        if sock.recorder is not None:
            sock.recorder.record_tcp(
                "fluid", sock, f"exit:{reason}", seq=sock.snd_una,
                length=flow.delivered,
            )

        state = sock._fluid
        state.hold = False
        state.cooldown = COOLDOWN_ACKS
        if sock.state not in self._SENDER_STATES:
            return
        self._begin_pace(sock, flow._segq, span=flow.rtt_base_v)
        sock._try_send()

    def _assert_conserved(self, flow: FluidFlow, counters: Dict) -> None:
        """Bytes in == bytes out across the abstraction boundary."""
        sock = flow.sock
        expected_una = flow.entry_una + flow.delivered
        expected_rcv = flow.entry_rcv_nxt + flow.delivered
        ok = (
            sock.snd_una == expected_una
            and flow.peer.assembler.rcv_nxt == expected_rcv
        )
        if ok:
            counters["fluid.conservation_checks"] = (
                counters.get("fluid.conservation_checks", 0) + 1
            )
            return
        counters["fluid.conservation_failures"] = (
            counters.get("fluid.conservation_failures", 0) + 1
        )
        raise RuntimeError(
            "fluid handoff violated byte conservation: "
            f"snd_una={sock.snd_una} expected={expected_una}, "
            f"rcv_nxt={flow.peer.assembler.rcv_nxt} expected={expected_rcv} "
            f"(entered at {flow.entry_una}, fluid delivered {flow.delivered})"
        )

    def _begin_pace(self, sock, segments, span: float) -> None:
        """Re-open the window over one base RTT after a handback.

        The window re-opens one segment of the exiting flow's modelled
        pipeline per tick so the packet engine re-emits the exact
        full/runt mix the fluid model was tracking.  Segment boundaries
        matter: the flight's packet count (not just its bytes) decides
        when a packet-bounded bottleneck queue overflows, so a handback
        that re-chunked the window into clean MSS slices would hand the
        packet engine a flight that overflows later — and recovers more
        cleanly — than the one the packet-only engine would have carried.
        ``span`` is the *base* RTT: emitting a window that exceeds the BDP
        over the base RTT deliberately rebuilds the bottleneck queue to
        the occupancy the model was tracking (pacing over the inflated
        srtt would drain it, handing the engine a half-empty queue it
        never had).

        The pipeline is seeded with at least two segments and every ACK
        cycle refills it with at least the bytes it retires, so an empty
        one means the model lost track of the flight — a failure like a
        conservation violation, raised the same way.
        """
        if not segments:
            raise RuntimeError(
                "fluid handback found an empty modelled pipeline: "
                f"snd_una={sock.snd_una}, cwnd={sock.cc.cwnd}"
            )
        sizes = [int(s) for s in segments]
        state = sock._fluid
        state.pace_window = float(sizes[0])
        interval = max(span / len(sizes), 1e-6)
        index = [1]

        def tick_segment() -> None:
            if state.hold or state.pace_window is None:
                return  # re-entered fluid mode or pacing cancelled
            if sock.state == "CLOSED":
                state.pace_window = None
                return
            if index[0] >= len(sizes):
                state.pace_window = None
            else:
                state.pace_window += sizes[index[0]]
                index[0] += 1
                sock.clock.call_in(interval, tick_segment)
            sock._try_send()

        sock.clock.call_in(interval, tick_segment)

    # ------------------------------------------------------------ helpers

    def _count(self, key: str) -> None:
        counters = self.sim.counters
        counters[key] = counters.get(key, 0) + 1
