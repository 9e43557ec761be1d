"""The scalar grammar shared by the ``kind[:key=value,...]`` CLI specs.

``--impair``, ``--schedule`` and ``--trace`` all use this form. Every
malformed item raises :class:`~repro.simnet.errors.ConfigurationError`
naming the item, so a bad spec fails where it is parsed, before any
cell runs. Numbers must be finite; flags accept only
``0/1/true/false/yes/no``.
"""

from __future__ import annotations

import math
from typing import Callable, List, Tuple

from .errors import ConfigurationError

__all__ = ["split_spec", "number", "flag"]

_FLAGS = {"1": True, "true": True, "yes": True,
          "0": False, "false": False, "no": False}


def split_spec(text: str, what: str) -> Tuple[str, List[Tuple[str, str]]]:
    """``kind[:key=value,...]`` -> (kind, [(key, value), ...]).

    Empty items (a trailing comma) are skipped; an item without ``=`` is
    refused. ``what`` names the spec in errors (e.g. ``"impairment"``).
    """
    head, _, rest = text.strip().partition(":")
    options = []
    for item in rest.split(",") if rest else ():
        if not item.strip():
            continue
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigurationError(
                f"bad {what} option {item!r} in {text!r} (expected key=value)"
            )
        options.append((key.strip(), value.strip()))
    return head.strip(), options


def number(key: str, value: str, what: str,
           cast: Callable[[str], float] = float) -> float:
    """``value`` as a finite ``cast`` (float or int), or an error naming
    ``what`` (a spec, or a ``file:line``) and ``key``."""
    try:
        parsed = cast(value)
    except ValueError:
        parsed = math.nan
    if not math.isfinite(parsed):
        raise ConfigurationError(
            f"{what}: bad {key} {value!r} (need a finite {cast.__name__})"
        )
    return parsed


def flag(key: str, value: str, what: str) -> bool:
    """``value`` as a boolean: only 0/1/true/false/yes/no are accepted."""
    try:
        return _FLAGS[value.lower()]
    except KeyError:
        raise ConfigurationError(
            f"{what}: bad {key} {value!r} (need 0/1/true/false/yes/no)"
        ) from None
