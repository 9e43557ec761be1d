"""The flight recorder — a bounded ring buffer of structured trace events.

A :class:`FlightRecorder` is the single observer object the rest of the
library reports to. It can be attached

* **per interface** (``attach_interface``) — packet enqueue/tx/rx/drop,
  the drop carrying its taxonomy reason;
* **per socket** (``attach_socket``) — TCP state transitions, retransmits
  and cwnd changes;
* **per clock** (``attach_clock``) — runtime TDF epoch changes;
* **per engine** (``attach_engine``) — one ``timer``/``fire`` event per
  executed engine event;
* **simulation-wide** (``attach_network``) — every interface of a
  :class:`~repro.simnet.topology.Network`, plus (optionally) the engine.

Overhead contract: recording is **default-off**. An interface guards
its observer list with one flag test; every other instrumented site
holds a single ``recorder`` slot initialised to ``None`` and guards the
hook with one ``is None`` check — no event objects, no dict lookups, no
allocation on the disabled path. The golden determinism pins and the
``BENCH_engine`` numbers are therefore unchanged when no recorder is
attached; and because the recorder only *appends to a deque*, attaching
one can never perturb event order either (pinned by the trace tests).

The buffer is a ``collections.deque(maxlen=capacity)``: when full, the
oldest event is evicted — a flight recorder keeps the most recent history.
``recorded`` counts everything ever seen, so ``evicted`` is observable.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterator, List, Optional

from .events import TraceEvent

__all__ = ["FlightRecorder"]

#: Default ring capacity (events); None means unbounded.
DEFAULT_CAPACITY = 1 << 16


class FlightRecorder:
    """Bounded ring buffer of :class:`TraceEvent`, fed by layer hooks.

    Parameters
    ----------
    capacity:
        Ring size in events; ``None`` records without bound.
    clock:
        Optional owning clock; when set, every event also captures
        ``clock.to_local(physical_time)`` as its virtual timestamp.
    name:
        Label for reports.
    packet_kinds / flow_id:
        Optional packet-event filters (non-packet events are unaffected).
    """

    def __init__(
        self,
        capacity: Optional[int] = DEFAULT_CAPACITY,
        clock: Any = None,
        name: str = "recorder",
        packet_kinds: Optional[Any] = None,
        flow_id: Optional[str] = None,
    ) -> None:
        self.capacity = capacity
        self.clock = clock
        self.name = name
        self._kinds = frozenset(packet_kinds) if packet_kinds is not None else None
        self._flow_id = flow_id
        self._buffer: deque = deque(maxlen=capacity)
        #: Events ever recorded (including ones the ring has since evicted).
        self.recorded = 0

    # -------------------------------------------------------------- contents

    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._buffer)

    @property
    def evicted(self) -> int:
        """Events pushed out of the ring by newer ones."""
        return self.recorded - len(self._buffer)

    def snapshot(self) -> List[TraceEvent]:
        """The buffered events, oldest first, as a fresh list."""
        return list(self._buffer)

    def clear(self) -> None:
        """Drop the buffered events (the ever-recorded count is kept)."""
        self._buffer.clear()

    # ------------------------------------------------------------ attachment

    def attach_interface(self, interface: Any) -> "FlightRecorder":
        """Observe packet events on ``interface``, beside any other
        observer it has."""
        interface.add_tap(self.record_packet)
        return self

    def attach_socket(self, sock: Any) -> "FlightRecorder":
        """Observe TCP state / retransmit / cwnd events on ``sock``."""
        sock.recorder = self
        return self

    def attach_clock(self, clock: Any, label: str = "") -> "FlightRecorder":
        """Observe TDF epoch changes on a :class:`DilatedClock`."""
        clock.recorder = self
        if label:
            clock.trace_label = label
        return self

    def attach_engine(self, sim: Any) -> "FlightRecorder":
        """Observe every executed engine event (``timer``/``fire``)."""
        sim.attach_recorder(self)
        return self

    def attach_network(self, net: Any, timers: bool = False) -> "FlightRecorder":
        """Simulation-wide: every interface of ``net`` (+ engine timers)."""
        for node in net.nodes.values():
            for interface in node.interfaces:
                self.attach_interface(interface)
        if timers:
            self.attach_engine(net.sim)
        return self

    # -------------------------------------------------------------- recording

    def _virtual(self, physical_time: float) -> Optional[float]:
        clock = self.clock
        if clock is None:
            return None
        return clock.to_local(physical_time)

    def record_packet(
        self, kind: str, interface: Any, packet: Any,
        reason: Optional[str] = None,
    ) -> None:
        """Packet observer for :class:`~repro.simnet.nic.Interface`."""
        if self._kinds is not None and kind not in self._kinds:
            return
        if self._flow_id is not None and packet.flow_id != self._flow_id:
            return
        time = interface.sim.now
        event = TraceEvent(
            category="packet",
            kind=kind,
            physical_time=time,
            virtual_time=self._virtual(time),
            site=interface.name,
            flow_id=packet.flow_id,
            packet_uid=packet.uid,
            size_bytes=packet.size_bytes,
            reason=reason,
            src=packet.src,
            dst=packet.dst,
            protocol=packet.protocol,
        )
        segment = packet.payload
        if segment is not None and hasattr(segment, "src_port"):
            event.src_port = segment.src_port
            event.dst_port = segment.dst_port
            event.seq = getattr(segment, "seq", 0)
            event.ack = getattr(segment, "ack", 0)
            event.payload_len = getattr(segment, "length", 0)
            event.window = getattr(segment, "window", 0)
            flags = getattr(segment, "flags", None)
            if callable(flags):
                event.flags = flags()
        self._buffer.append(event)
        self.recorded += 1

    def record_tcp(
        self, kind: str, sock: Any, reason: str, value: float = 0.0,
        seq: int = 0, length: int = 0,
    ) -> None:
        """Hook target for :class:`~repro.tcp.socket.TcpSocket`."""
        time = sock.node.sim.now
        self._buffer.append(TraceEvent(
            category="tcp",
            kind=kind,
            physical_time=time,
            virtual_time=self._virtual(time),
            site=(f"{sock.node.name}:{sock.local_port}>"
                  f"{sock.remote_addr}:{sock.remote_port}"),
            flow_id=sock.flow_id,
            reason=reason,
            value=value,
            seq=seq,
            payload_len=length,
        ))
        self.recorded += 1

    def record_timer(self, time: float, fn: Any) -> None:
        """Hook target for the engine run loop (one call per executed event)."""
        self._buffer.append(TraceEvent(
            category="timer",
            kind="fire",
            physical_time=time,
            virtual_time=self._virtual(time),
            site=getattr(fn, "__qualname__", repr(fn)),
        ))
        self.recorded += 1

    def record_realtime(
        self, kind: str, physical_time: float, site: str = "realtime",
        value: float = 0.0, reason: Optional[str] = None,
    ) -> None:
        """Hook target for :class:`~repro.realtime.driver.RealtimeDriver`.

        One ``realtime``/``slip`` event per deadline miss: ``value`` is the
        slip in seconds, ``reason`` the catch-up policy in force — so
        ``repro-trace diff``/``summarize`` can localize where pacing broke
        down on the same timeline as the packet and timer events.
        """
        self._buffer.append(TraceEvent(
            category="realtime",
            kind=kind,
            physical_time=physical_time,
            virtual_time=self._virtual(physical_time),
            site=site,
            reason=reason,
            value=value,
        ))
        self.recorded += 1

    def record_epoch(
        self, clock: Any, physical_time: float, virtual_time: float,
        old_tdf: Any, new_tdf: Any,
    ) -> None:
        """Hook target for :meth:`DilatedClock.set_tdf`."""
        old = getattr(old_tdf, "value", old_tdf)
        new = getattr(new_tdf, "value", new_tdf)
        self._buffer.append(TraceEvent(
            category="clock",
            kind="epoch",
            physical_time=physical_time,
            virtual_time=virtual_time,
            site=getattr(clock, "trace_label", "") or "clock",
            reason=f"{old}->{new}",
            value=float(new),
        ))
        self.recorded += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlightRecorder({self.name!r}, {len(self)}/{self.capacity} "
            f"buffered, {self.recorded} recorded)"
        )
