"""Full-duplex links built from a symmetric pair of interfaces."""

from __future__ import annotations

from typing import Callable, Optional

from .engine import Simulator
from .nic import Interface
from .node import Node
from .queues import DropTailQueue

__all__ = ["Link", "QueueFactory"]

#: Callable producing a fresh queue for one direction of a link.
QueueFactory = Callable[[], DropTailQueue]


class Link:
    """A bidirectional point-to-point link between two nodes.

    Each direction has its own transmitter and egress queue, so the two
    directions never contend (full duplex), matching switched Ethernet.

    Parameters mirror a dummynet pipe: ``bandwidth_bps`` and one-way
    ``delay_s`` apply to both directions unless the ``*_reverse`` overrides
    are given (asymmetric paths, e.g. ADSL-style scenarios).
    """

    def __init__(
        self,
        sim: Simulator,
        node_a: Node,
        node_b: Node,
        bandwidth_bps: float,
        delay_s: float,
        queue_factory: Optional[QueueFactory] = None,
        bandwidth_reverse_bps: Optional[float] = None,
        delay_reverse_s: Optional[float] = None,
    ) -> None:
        make_queue = queue_factory if queue_factory is not None else DropTailQueue
        self.node_a = node_a
        self.node_b = node_b
        self.a_to_b = Interface(
            sim,
            node_a,
            bandwidth_bps,
            delay_s,
            queue=make_queue(),
            name=f"{node_a.name}->{node_b.name}",
        )
        self.b_to_a = Interface(
            sim,
            node_b,
            bandwidth_reverse_bps if bandwidth_reverse_bps is not None else bandwidth_bps,
            delay_reverse_s if delay_reverse_s is not None else delay_s,
            queue=make_queue(),
            name=f"{node_b.name}->{node_a.name}",
        )
        self.a_to_b.connect(self.b_to_a)
        node_a.add_interface(self.a_to_b)
        node_b.add_interface(self.b_to_a)

    def interface_from(self, node: Node) -> Interface:
        """The egress interface this link offers to ``node``."""
        if node is self.node_a:
            return self.a_to_b
        if node is self.node_b:
            return self.b_to_a
        raise ValueError(f"{node.name} is not an endpoint of this link")

    def other_end(self, node: Node) -> Node:
        """The node at the far end of the link from ``node``."""
        if node is self.node_a:
            return self.node_b
        if node is self.node_b:
            return self.node_a
        raise ValueError(f"{node.name} is not an endpoint of this link")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Link({self.node_a.name} <-> {self.node_b.name})"
