"""Real-time emulation mode: run the dilated simulator against the wall clock.

The batch engine executes events as fast as the host allows; this package
binds event execution to *real* time instead, turning the reproduction into
a service external clients can exchange live traffic with. An event due at
virtual time ``t`` fires at wall-clock ``t * TDF + offset`` — which, because
the engine queue already stores physical (``t * TDF``) timestamps, reduces
to pacing the physical timeline 1:1 against a monotonic clock.

* :mod:`.driver` — the pacing loop: sleep-then-spin to each deadline,
  per-event slip measurement, deadline-miss accounting, run-to-catch-up /
  drop-to-now catch-up policies.
* :mod:`.ingress` — a live UDP gateway: external clients inject datagrams
  into a simulated host's stack and receive emitted packets back, with
  ingress timestamping through ``DilatedClock.to_local_exact``.
* :mod:`.scenario` — canned live topologies (the echo scenario the CLI and
  tests share).
* :mod:`.cli` — ``repro-realtime`` (serve / echo / loadgen).
"""

from .driver import CATCHUP_POLICIES, RealtimeConfig, RealtimeDriver, RealtimeStats

__all__ = [
    "CATCHUP_POLICIES",
    "RealtimeConfig",
    "RealtimeDriver",
    "RealtimeStats",
]
