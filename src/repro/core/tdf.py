"""The time dilation factor (TDF).

A TDF of *k* means one second of guest-perceived (virtual) time takes *k*
seconds of physical time; the guest's world appears to run *k* times
faster. ``k = 1`` is an undilated guest; ``k > 1`` slows the guest's clock
(the paper's use); ``0 < k < 1`` speeds it up ("time contraction", which the
paper notes is also possible, e.g. to emulate slower-than-real resources).

TDFs are backed by :class:`fractions.Fraction` so repeated virtual↔physical
conversions introduce no cumulative drift: a dilated run and its scaled
baseline must remain comparable to float precision over millions of events.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from ..simnet.errors import ConfigurationError

__all__ = ["TDF", "TdfLike", "as_tdf"]

TdfLike = Union["TDF", int, float, str, Fraction]


class TDF:
    """An immutable, exact time dilation factor."""

    __slots__ = ("_value", "_float")

    def __init__(self, value: TdfLike) -> None:
        if isinstance(value, TDF):
            fraction = value._value
        elif isinstance(value, Fraction):
            fraction = value
        elif isinstance(value, int):
            fraction = Fraction(value)
        elif isinstance(value, str):
            fraction = Fraction(value)
        elif isinstance(value, float):
            # Keep human-entered floats exact-looking: 0.1 -> 1/10, not the
            # nearest binary fraction.
            fraction = Fraction(value).limit_denominator(10**9)
        else:
            raise ConfigurationError(f"cannot interpret {value!r} as a TDF")
        if fraction <= 0:
            raise ConfigurationError(f"TDF must be positive, got {fraction}")
        object.__setattr__(self, "_value", fraction)
        # Converting a Fraction costs a Python-level call; every scaling
        # below reuses this one conversion.
        object.__setattr__(self, "_float", float(fraction))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TDF is immutable")

    @property
    def value(self) -> Fraction:
        """The exact factor as a fraction."""
        return self._value

    def __float__(self) -> float:
        return self._float

    def virtual_to_physical(self, duration: float) -> float:
        """A virtual duration expressed in physical seconds (``d * k``)."""
        return duration * self._float

    def physical_to_virtual(self, duration: float) -> float:
        """A physical duration expressed in virtual seconds (``d / k``)."""
        return duration / self._float

    def scale_rate(self, physical_rate: float) -> float:
        """The perceived rate for a physical per-second rate (``r * k``)."""
        return physical_rate * self._float

    def is_identity(self) -> bool:
        """True for TDF 1 (no dilation)."""
        return self._value == 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TDF):
            return self._value == other._value
        if isinstance(other, (int, Fraction)):
            return self._value == other
        if isinstance(other, float):
            return self._float == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._value)

    def __repr__(self) -> str:
        if self._value.denominator == 1:
            return f"TDF({self._value.numerator})"
        return f"TDF({self._value})"


def as_tdf(value: TdfLike) -> TDF:
    """Coerce any accepted representation to a :class:`TDF`."""
    return value if isinstance(value, TDF) else TDF(value)
