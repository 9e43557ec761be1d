"""Typed structured trace events and their on-disk (JSONL) form.

One :class:`TraceEvent` describes one observed fact, across every layer the
flight recorder instruments:

``packet``
    ``enqueue`` / ``tx`` / ``rx`` / ``drop`` on an interface. Drops carry
    the NIC drop-taxonomy reason (``"queue"``, ``"loss"``, ``"down"``…) in
    ``reason``. When the packet's payload is a TCP segment the TCP header
    fields ride along so a pcap can be synthesized later.
``tcp``
    ``state`` (transition, ``reason`` = ``"OLD->NEW"``), ``retransmit``
    (``seq``/``payload_len`` of the resent chunk) and ``cwnd`` (``value`` =
    the new congestion window in bytes, ``reason`` = what moved it).
``timer``
    ``fire`` — one executed engine event; ``site`` is the callback's
    qualified name.
``clock``
    ``epoch`` — a runtime TDF change; ``reason`` = ``"old->new"`` and
    ``value`` = the new TDF as a float.
``realtime``
    ``slip`` — one deadline miss under the real-time driver; ``value`` =
    the slip in seconds past the wall deadline, ``reason`` = the catch-up
    policy in force (``"run"`` or ``"drop"``), ``site`` = the driver name.

Every event captures the engine's physical time and, when the recorder
owns a clock, that clock's virtual time *at capture* — so recordings can
be replayed, exported, or diffed in either time base without re-deriving
the epoch history.

Events are plain picklable data (they cross the sweep runner's process
pool inside result dataclasses) and serialise to one JSON object per line;
defaulted fields are omitted so bulk captures stay compact.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

__all__ = [
    "TraceEvent",
    "PACKET_KINDS",
    "event_to_dict",
    "event_from_dict",
    "save_jsonl",
    "load_jsonl",
]

#: Packet-event kinds, in hot-path order.
PACKET_KINDS = ("enqueue", "tx", "rx", "drop")


@dataclass(slots=True)
class TraceEvent:
    """One structured observation; see the module docstring for the schema."""

    category: str  # 'packet' | 'tcp' | 'timer' | 'clock'
    kind: str
    physical_time: float
    #: The owning clock's local time at capture (None: recorder had no clock).
    virtual_time: Optional[float] = None
    #: Where it happened: interface name, connection 4-tuple, clock label,
    #: or callback qualname.
    site: str = ""
    flow_id: Optional[str] = None
    packet_uid: int = 0
    size_bytes: int = 0
    #: Drop-taxonomy reason / TCP transition or cause / "old->new" TDF.
    reason: Optional[str] = None
    src: str = ""
    dst: str = ""
    protocol: str = ""
    src_port: int = 0
    dst_port: int = 0
    seq: int = 0
    ack: int = 0
    payload_len: int = 0
    flags: str = ""
    window: int = 0
    #: Numeric payload: cwnd in bytes ('tcp'/'cwnd'), new TDF ('clock').
    value: float = 0.0

    def stream_key(self) -> str:
        """The alignment key the diff engine groups by (flow + direction)."""
        if self.category == "packet":
            flow = self.flow_id or f"{self.src}:{self.src_port}>" \
                                   f"{self.dst}:{self.dst_port}"
            return f"packet/{self.site}/{flow}/{self.kind}"
        return f"{self.category}/{self.site}/{self.kind}"


_FIELDS = tuple(f.name for f in dataclasses.fields(TraceEvent))
_DEFAULTS = {
    f.name: f.default
    for f in dataclasses.fields(TraceEvent)
    if f.default is not dataclasses.MISSING
}


def event_to_dict(event: TraceEvent) -> Dict[str, Any]:
    """A compact dict: defaulted fields are omitted."""
    out: Dict[str, Any] = {}
    for name in _FIELDS:
        value = getattr(event, name)
        if name in _DEFAULTS and value == _DEFAULTS[name]:
            continue
        out[name] = value
    return out


def event_from_dict(data: Dict[str, Any]) -> TraceEvent:
    """Inverse of :func:`event_to_dict`; unknown keys are ignored (merged
    figure traces tag each line with its cell key, for instance)."""
    kwargs = {name: data[name] for name in _FIELDS if name in data}
    return TraceEvent(**kwargs)


def save_jsonl(
    events: Iterable[TraceEvent],
    path: str,
    extra: Optional[Iterable[Dict[str, Any]]] = None,
) -> int:
    """Write one JSON object per event; returns the event count.

    ``extra`` (parallel to ``events``) merges additional keys into each
    line — the sweep integration uses it to tag events with their cell.
    """
    count = 0
    extras = iter(extra) if extra is not None else None
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            record = event_to_dict(event)
            if extras is not None:
                record.update(next(extras))
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")
            count += 1
    return count


def load_jsonl(path: str) -> List[TraceEvent]:
    """Read a recording written by :func:`save_jsonl` (blank lines skipped)."""
    events: List[TraceEvent] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            events.append(event_from_dict(json.loads(line)))
    return events
