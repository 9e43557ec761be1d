"""Exception hierarchy for the simulation substrate.

All library errors derive from :class:`SimulationError` so that callers can
catch everything the emulator raises with a single ``except`` clause while
still being able to discriminate the common cases.
"""

from __future__ import annotations

__all__ = [
    "SimulationError",
    "SchedulingError",
    "ConfigurationError",
    "RoutingError",
    "AddressError",
    "ProtocolError",
    "ConnectionReset",
]


class SimulationError(Exception):
    """Base class for every error raised by the repro library."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or on a stopped engine."""


class ConfigurationError(SimulationError, ValueError):
    """A component was constructed or wired with invalid parameters.

    Also a :class:`ValueError`, so a malformed spec or argument is caught
    by the same ``except ValueError`` as any other bad value.
    """


class RoutingError(SimulationError):
    """No route exists between two nodes, or a routing table is malformed."""


class AddressError(SimulationError):
    """An address or port is invalid, unbound, or already in use."""


class ProtocolError(SimulationError):
    """A protocol state machine received a segment it cannot process."""


class ConnectionReset(ProtocolError):
    """The remote end aborted the connection."""
