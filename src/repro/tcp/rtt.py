"""Round-trip-time estimation and retransmission timeout (RFC 6298).

Implements the Jacobson/Karels estimator with Karn's algorithm (samples are
never taken from retransmitted segments — the socket enforces that by only
timing unretransmitted ones) and exponential RTO backoff.

All times are in the connection's local clock. Inside a dilated guest the
estimator therefore measures *virtual* RTTs — which is the entire trick: a
TDF-10 guest over a 100 ms physical path measures a 10 ms RTT and paces its
window growth accordingly.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["RttEstimator"]

# RFC 6298 constants.
_ALPHA = 1 / 8
_BETA = 1 / 4
_K = 4


class RttEstimator:
    """SRTT/RTTVAR tracking plus RTO computation with backoff."""

    __slots__ = ("min_rto", "max_rto", "granularity", "_initial_rto", "srtt",
                 "rttvar", "_rto", "_backoff", "samples")

    def __init__(
        self,
        initial_rto: float = 1.0,
        min_rto: float = 0.2,
        max_rto: float = 60.0,
        granularity: float = 0.0,
    ) -> None:
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.granularity = granularity
        # Clamp into [min_rto, max_rto] up front: a super-max initial RTO
        # would make backoff()'s multiplier cap collapse to 1.0 (backoff
        # permanently disabled) until the first RTT sample re-derived _rto.
        # reset() restores the *clamped* value so the invariant survives
        # connection restarts too.
        self._initial_rto = min(max(initial_rto, min_rto), max_rto)
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self._rto = self._initial_rto
        self._backoff = 1
        self.samples = 0

    @property
    def rto(self) -> float:
        """Current retransmission timeout, backoff included."""
        return min(self._rto * self._backoff, self.max_rto)

    def observe(self, sample: float) -> None:
        """Feed one RTT measurement (local seconds, non-retransmitted data).

        A successful measurement also clears any timeout backoff, per
        RFC 6298 §5.7.
        """
        if sample < 0:
            raise ValueError(f"negative RTT sample: {sample}")
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2
        else:
            assert self.rttvar is not None
            self.rttvar = (1 - _BETA) * self.rttvar + _BETA * abs(self.srtt - sample)
            self.srtt = (1 - _ALPHA) * self.srtt + _ALPHA * sample
        self.samples += 1
        self._backoff = 1
        raw = self.srtt + max(self.granularity, _K * self.rttvar)
        self._rto = min(max(raw, self.min_rto), self.max_rto)

    def backoff(self) -> None:
        """Double the effective RTO after a retransmission timeout.

        The multiplier itself is clamped so ``_rto * _backoff`` never
        exceeds ``max_rto``: an unchecked multiplier (the old ``1 << 16``
        guard) only *looked* bounded because the ``rto`` property min'd the
        product, but it left a stale super-max product behind that any
        future consumer of the raw state could trip over.
        """
        cap = max(1.0, self.max_rto / self._rto) if self._rto > 0 else 1.0
        self._backoff = min(self._backoff * 2, cap)

    def reset(self) -> None:
        """Forget all history (used on connection restart)."""
        self.srtt = None
        self.rttvar = None
        self._rto = self._initial_rto
        self._backoff = 1
        self.samples = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RttEstimator(srtt={self.srtt}, rttvar={self.rttvar}, "
            f"rto={self.rto:.3f})"
        )
