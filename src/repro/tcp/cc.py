"""Congestion-control algorithms.

The loss-recovery *state machine* (dup-ACK counting, fast retransmit,
partial ACKs) lives in the socket; the algorithms here own the two numbers
that state machine consults — ``cwnd`` and ``ssthresh``, in bytes — and
adjust them at the socket's hooks.

Provided flavors:

* :class:`Tahoe` — slow start + congestion avoidance + fast retransmit,
  but no fast recovery (every loss collapses to one segment).
* :class:`Reno` — RFC 5681 fast recovery with window inflation.
* :class:`NewReno` — RFC 6582 partial-ACK handling (what the paper's Linux
  2.6 guests ran; the default).
* :class:`Cubic` — the modern default, included as an extension to show the
  dilation-invariance holds for time-*function* controllers too. Its growth
  depends on elapsed time, so it is the most sensitive to a broken time
  base: the on-ACK hook takes the connection's local ``now``.
"""

from __future__ import annotations

import abc
import math
from typing import Optional

from ..simnet.errors import ConfigurationError

__all__ = [
    "CongestionControl",
    "Tahoe",
    "Reno",
    "NewReno",
    "Cubic",
    "Vegas",
    "make_congestion_control",
    "initial_window",
]


#: "Infinite" ssthresh until the first loss; one float shared by every
#: controller instead of a new one per connection.
_INITIAL_SSTHRESH = float(1 << 30)


def initial_window(mss: int) -> int:
    """RFC 3390 initial congestion window."""
    return min(4 * mss, max(2 * mss, 4380))


class CongestionControl(abc.ABC):
    """Owns cwnd/ssthresh; the socket calls the ``on_*`` hooks."""

    #: Tahoe lacks fast recovery; the socket checks this flag.
    supports_fast_recovery = True

    #: Whether the hybrid-fidelity fast path (:mod:`repro.simnet.fluid`)
    #: may advance this flavor analytically. Only the classic AIMD
    #: arithmetic (Reno/NewReno) has a faithful closed form; delay-based
    #: (Vegas), cubic-growth and Tahoe flows stay packet-level.
    supports_fluid = False

    name = "abstract"

    __slots__ = ("mss", "cwnd", "ssthresh")

    def __init__(self, mss: int) -> None:
        if mss <= 0:
            raise ConfigurationError(f"mss must be positive: {mss}")
        self.mss = mss
        self.cwnd = float(initial_window(mss))
        self.ssthresh = _INITIAL_SSTHRESH

    # ------------------------------------------------------------------ hooks

    def on_rtt_sample(self, rtt: float, now: float) -> None:
        """RTT measurement hook; only delay-based flavors (Vegas) use it."""

    def on_ack(self, bytes_acked: int, flight_size: int, now: float) -> None:
        """New data acknowledged outside recovery: grow the window."""
        if self.cwnd < self.ssthresh:
            # Slow start with appropriate byte counting (RFC 3465, L=1).
            self.cwnd += min(bytes_acked, self.mss)
        else:
            self._congestion_avoidance(bytes_acked, now)

    def _congestion_avoidance(self, bytes_acked: int, now: float) -> None:
        # Standard AIMD: one MSS per window's worth of ACKs.
        self.cwnd += self.mss * self.mss / self.cwnd

    def _halve(self, flight_size: int) -> None:
        self.ssthresh = max(flight_size / 2.0, 2.0 * self.mss)

    def on_retransmit_timeout(self, flight_size: int, now: float) -> None:
        """RTO fired: collapse to one segment and slow-start again."""
        self._halve(flight_size)
        self.cwnd = float(self.mss)

    def on_enter_recovery(self, flight_size: int, now: float) -> None:
        """Triple duplicate ACK: halve, then inflate by the three dupacks."""
        self._halve(flight_size)
        self.cwnd = self.ssthresh + 3.0 * self.mss

    def on_enter_recovery_sack(self, flight_size: int, now: float) -> None:
        """SACK recovery entry: halve without inflation — the scoreboard's
        pipe estimate replaces dupack window inflation (RFC 6675)."""
        self._halve(flight_size)
        self.cwnd = self.ssthresh

    def on_ecn_congestion(self, flight_size: int, now: float) -> None:
        """ECE received (RFC 3168 §6.1.2): react as to a single loss, but
        with nothing to retransmit."""
        self.on_enter_recovery_sack(flight_size, now)

    def on_dup_ack_in_recovery(self) -> None:
        """Each further dupack signals a departed segment: inflate."""
        self.cwnd += self.mss

    def on_partial_ack(self, bytes_acked: int) -> None:
        """NewReno deflation on a partial ACK (RFC 6582 §3.2 step 3)."""
        self.cwnd = max(self.cwnd - bytes_acked + self.mss, float(self.mss))

    def on_exit_recovery(self, now: float) -> None:
        """Full ACK received: deflate back to ssthresh."""
        self.cwnd = self.ssthresh

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(cwnd={self.cwnd:.0f}, "
            f"ssthresh={self.ssthresh:.0f})"
        )


class Tahoe(CongestionControl):
    """No fast recovery: a triple dupack is treated like a timeout."""

    supports_fast_recovery = False
    name = "tahoe"
    __slots__ = ()

    def on_enter_recovery(self, flight_size: int, now: float) -> None:
        self._halve(flight_size)
        self.cwnd = float(self.mss)


class Reno(CongestionControl):
    """RFC 5681 fast retransmit / fast recovery."""

    supports_fluid = True
    name = "reno"
    __slots__ = ()


class NewReno(Reno):
    """RFC 6582 — identical window arithmetic, the socket drives the
    partial-ACK retransmissions that distinguish NewReno from Reno."""

    name = "newreno"
    __slots__ = ()


class Cubic(CongestionControl):
    """CUBIC (RFC 8312) — window growth is a cubic function of the time
    since the last congestion event.

    Included as a *beyond-the-paper* extension: because its growth depends
    on wall-clock time rather than on ACK arrival counts, CUBIC only
    behaves identically under dilation if every timestamp it reads is
    virtual. Benchmarks use it to show the dilation invariance is not a
    Reno-specific accident.
    """

    name = "cubic"

    C = 0.4          # scaling constant, segments/sec^3
    BETA = 0.7       # multiplicative decrease factor

    __slots__ = ("_w_max", "_epoch_start", "_k")

    def __init__(self, mss: int) -> None:
        super().__init__(mss)
        self._w_max: Optional[float] = None   # segments
        self._epoch_start: Optional[float] = None
        self._k = 0.0

    def _segments(self, byte_count: float) -> float:
        return byte_count / self.mss

    def on_ack(self, bytes_acked: int, flight_size: int, now: float) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd += min(bytes_acked, self.mss)
            return
        if self._w_max is None:
            # No loss yet: grow like Reno until the first congestion event.
            self._congestion_avoidance(bytes_acked, now)
            return
        if self._epoch_start is None:
            self._epoch_start = now
            current = self._segments(self.cwnd)
            self._k = ((self._w_max - current) / self.C) ** (1 / 3) if self._w_max > current else 0.0
        t = now - self._epoch_start
        target_segments = self.C * (t - self._k) ** 3 + self._w_max
        target = target_segments * self.mss
        if target > self.cwnd:
            # Approach the cubic target over the next RTT's worth of ACKs.
            self.cwnd += (target - self.cwnd) / self._segments(self.cwnd)
        else:
            # TCP-friendly floor: never slower than Reno.
            self.cwnd += 0.01 * self.mss

    def _on_congestion(self, now: float) -> None:
        self._w_max = self._segments(self.cwnd)
        self._epoch_start = None

    def on_enter_recovery(self, flight_size: int, now: float) -> None:
        self._on_congestion(now)
        self.ssthresh = max(self.cwnd * self.BETA, 2.0 * self.mss)
        self.cwnd = self.ssthresh + 3.0 * self.mss

    def on_enter_recovery_sack(self, flight_size: int, now: float) -> None:
        self._on_congestion(now)
        self.ssthresh = max(self.cwnd * self.BETA, 2.0 * self.mss)
        self.cwnd = self.ssthresh

    def on_retransmit_timeout(self, flight_size: int, now: float) -> None:
        self._on_congestion(now)
        self.ssthresh = max(self.cwnd * self.BETA, 2.0 * self.mss)
        self.cwnd = float(self.mss)

    def on_exit_recovery(self, now: float) -> None:
        self.cwnd = self.ssthresh
        self._epoch_start = None


class Vegas(CongestionControl):
    """TCP Vegas (Brakmo & Peterson 1995) — delay-based avoidance.

    Included as the sharpest dilation probe in the family: Vegas steers by
    *measured RTTs* (expected vs. actual throughput), so a time base that
    leaked physical time anywhere would send it to a different operating
    point immediately. The socket feeds it RTT samples via
    :meth:`on_rtt_sample`.

    Classic parameters: keep between ``alpha`` and ``beta`` segments
    queued at the bottleneck; grow/shrink by one MSS per RTT outside that
    band. Loss handling falls back to Reno behaviour.
    """

    name = "vegas"

    __slots__ = ("ALPHA", "BETA", "base_rtt", "_last_rtt", "_next_adjust_at")

    def __init__(self, mss: int) -> None:
        super().__init__(mss)
        # The band in segments, per connection so one can be tuned alone.
        self.ALPHA = 2.0
        self.BETA = 4.0
        self.base_rtt: Optional[float] = None
        self._last_rtt: Optional[float] = None
        self._next_adjust_at = 0.0

    def on_rtt_sample(self, rtt: float, now: float) -> None:
        """Track the path's minimum and the most recent RTT."""
        if self.base_rtt is None or rtt < self.base_rtt:
            self.base_rtt = rtt
        self._last_rtt = rtt

    def on_ack(self, bytes_acked: int, flight_size: int, now: float) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd += min(bytes_acked, self.mss)
            return
        if self.base_rtt is None or self._last_rtt is None:
            self._congestion_avoidance(bytes_acked, now)
            return
        if now < self._next_adjust_at:
            return
        # Once per RTT: diff = cwnd*(1/baseRTT - 1/RTT)*baseRTT, in segments.
        expected = self.cwnd / self.base_rtt
        actual = self.cwnd / self._last_rtt
        diff_segments = (expected - actual) * self.base_rtt / self.mss
        if diff_segments < self.ALPHA:
            self.cwnd += self.mss
        elif diff_segments > self.BETA:
            self.cwnd = max(self.cwnd - self.mss, 2.0 * self.mss)
        self._next_adjust_at = now + self._last_rtt


_FLAVORS = {
    "tahoe": Tahoe,
    "reno": Reno,
    "newreno": NewReno,
    "cubic": Cubic,
    "vegas": Vegas,
}


def make_congestion_control(flavor: str, mss: int) -> CongestionControl:
    """Instantiate a congestion controller by name."""
    try:
        cls = _FLAVORS[flavor]
    except KeyError:
        raise ConfigurationError(f"unknown TCP flavor {flavor!r}") from None
    return cls(mss)
