"""Token-bucket traffic shaping.

Emulation testbeds (dummynet, ModelNet) rate-limit with token buckets
rather than raw link clocks; a bucket allows short bursts up to its depth
while enforcing a long-term rate. :class:`TokenBucket` is the policer /
shaper primitive, and :class:`ShapedInterface` wraps it around a node's
egress path so experiments can emulate a slower service rate than the
physical wire — with the burst tolerance real shapers have.

Everything here runs in physical time (shapers are infrastructure, not
guests); dilated guests perceive a shaped path exactly as they perceive a
slow link.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from .engine import Simulator
from .errors import ConfigurationError
from .nic import Interface
from .packet import Packet

__all__ = ["TokenBucket", "ShapedInterface"]


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/s, capacity ``burst``.

    Tokens are measured in bytes. The bucket is lazily refilled from the
    simulator clock on each interaction, so it costs nothing while idle.
    """

    def __init__(self, sim: Simulator, rate_bytes_per_s: float,
                 burst_bytes: float) -> None:
        if rate_bytes_per_s <= 0:
            raise ConfigurationError("token rate must be positive")
        if burst_bytes <= 0:
            raise ConfigurationError("burst size must be positive")
        self.sim = sim
        self.rate = rate_bytes_per_s
        self.burst = burst_bytes
        self._tokens = burst_bytes
        self._last_refill = sim.now

    def _refill(self) -> None:
        now = self.sim.now
        self._tokens = min(
            self.burst, self._tokens + (now - self._last_refill) * self.rate
        )
        self._last_refill = now

    @property
    def tokens(self) -> float:
        """Bytes currently available."""
        self._refill()
        return self._tokens

    def try_consume(self, n_bytes: float) -> bool:
        """Take ``n_bytes`` if available; False otherwise (policer use)."""
        self._refill()
        if self._tokens >= n_bytes:
            self._tokens -= n_bytes
            return True
        return False

    def time_until(self, n_bytes: float) -> float:
        """Seconds until ``n_bytes`` of tokens will be available."""
        self._refill()
        deficit = n_bytes - self._tokens
        if deficit <= 0:
            return 0.0
        return deficit / self.rate

    def consume(self, n_bytes: float) -> None:
        """Take tokens; callers must have checked :meth:`time_until` first.

        A microscopic float deficit (lazy-refill residue) is tolerated and
        clamped rather than being treated as an overdraft.
        """
        self._refill()
        if self._tokens < n_bytes - 1e-3:
            raise ConfigurationError(
                f"consuming {n_bytes} with only {self._tokens:.1f} tokens"
            )
        self._tokens = max(0.0, self._tokens - n_bytes)


class ShapedInterface:
    """Delay packets until the bucket allows them, then hand to an interface.

    Use in place of the raw interface on a node's route:

        shaped = ShapedInterface(sim, raw_interface, rate_bytes, burst_bytes)
        node.set_route("dst", shaped)

    Packets queue FIFO while waiting for tokens; the underlying interface
    still applies its own serialisation and propagation, so a shaper set
    *below* the line rate becomes the path's bottleneck, as with dummynet.
    """

    def __init__(
        self,
        sim: Simulator,
        interface: Interface,
        rate_bytes_per_s: float,
        burst_bytes: Optional[float] = None,
        max_backlog_packets: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.interface = interface
        if burst_bytes is None:
            burst_bytes = max(3000.0, rate_bytes_per_s * 0.01)  # ~10 ms burst
        self.bucket = TokenBucket(sim, rate_bytes_per_s, burst_bytes)
        #: Queue limit; None = unbounded (pure delay). Real shapers have a
        #: finite buffer — without one a TCP flow bufferbloats the shaper
        #: instead of receiving loss feedback.
        self.max_backlog_packets = max_backlog_packets
        self._backlog: Deque[Packet] = deque()
        self._draining = False
        self.shaped_packets = 0
        self.dropped_packets = 0

    def fluid_transparent(self) -> bool:
        """Never fluid-eligible: token-bucket pacing is a per-packet
        decision process the closed-form flow model cannot reproduce, so
        any route through a shaper keeps its flows packet-level (see
        :mod:`repro.simnet.fluid`)."""
        return False

    def send(self, packet: Packet) -> None:
        """Node-facing entry point (duck-typed like an Interface)."""
        if (
            self.max_backlog_packets is not None
            and len(self._backlog) >= self.max_backlog_packets
        ):
            # Keep the legacy attribute, but charge the drop to the wrapped
            # interface's unified taxonomy too: a "shaper" reason lands in
            # ``interface.drops``, mirrors into ``sim.counters["drop.shaper"]``
            # and fires the interface's drop taps, so FlowMonitor's
            # ``interface_drops``/``drops_by_reason`` see shaper overflows
            # like any other egress drop.
            self.dropped_packets += 1
            self.interface._drop(packet, "shaper")
            return
        self._backlog.append(packet)
        if not self._draining:
            self._drain()

    @property
    def backlog(self) -> int:
        """Packets waiting for tokens."""
        return len(self._backlog)

    #: Waits below this are float residue of the lazy refill (the deficit
    #: at a resume instant is ~1e-10 tokens); treating them as ready
    #: avoids an event ping-pong of ever-tinier sleeps.
    _EPSILON_S = 1e-9

    def _drain(self) -> None:
        while self._backlog:
            head = self._backlog[0]
            wait = self.bucket.time_until(head.size_bytes)
            if wait > self._EPSILON_S:
                self._draining = True
                # Fire-and-forget: the resume event is never cancelled, so
                # it can ride a transient heap entry.
                self.sim.schedule_transient(wait, self._resume)
                return
            self.bucket.consume(head.size_bytes)
            self._backlog.popleft()
            self.shaped_packets += 1
            self.interface.send(head)
        self._draining = False

    def _resume(self) -> None:
        self._draining = False
        self._drain()
