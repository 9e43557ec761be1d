"""Bulk-transfer measurement (the emulator's iperf/netperf).

The paper's micro-benchmarks are iperf runs: one TCP flow filling a path,
goodput measured at the receiver. :class:`IperfServer` meters delivered
bytes against the *receiver's* clock — inside a dilated guest that is
virtual time, so a TDF-10 guest over a 100 Mbps physical path reports
~1 Gbps, which is precisely the paper's headline effect.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..simnet.node import Node
from ..stats.meters import ThroughputMeter
from ..tcp.options import TcpOptions
from ..tcp.socket import TcpSocket
from ..tcp.stack import TcpStack

__all__ = ["IperfServer", "IperfClient"]

DEFAULT_PORT = 5001


class IperfServer:
    """Accepts bulk flows and meters their goodput in local (virtual) time."""

    def __init__(self, stack: TcpStack, port: int = DEFAULT_PORT,
                 options: Optional[TcpOptions] = None) -> None:
        self.stack = stack
        self.node: Node = stack.node
        self.port = port
        self.meter = ThroughputMeter(self.node.clock)
        self.per_flow: Dict[str, ThroughputMeter] = {}
        self.connections = 0
        stack.listen(port, self._on_accept, options=options)

    def _on_accept(self, sock: TcpSocket) -> None:
        # The handshake completes before any data is delivered, so the
        # flow's meter is found here once, not per delivered segment.
        self.connections += 1
        meter = self.meter
        flow_meter = ThroughputMeter(self.node.clock)
        self.per_flow[f"{sock.remote_addr}:{sock.remote_port}"] = flow_meter

        def on_data(sock: TcpSocket, n_bytes: int) -> None:
            meter.add(n_bytes)
            flow_meter.add(n_bytes)

        sock.on_data = on_data

    @property
    def total_bytes(self) -> int:
        """All bytes delivered across all flows."""
        return self.meter.bytes

    def goodput_bps(self) -> float:
        """Average goodput since the server started, bits per local second."""
        return self.meter.rate_bps()


class IperfClient:
    """Opens one flow and keeps the pipe full.

    ``total_bytes`` bounds the transfer; for open-ended "run for N seconds"
    experiments pass something larger than the path could move in that time
    and simply stop the simulation at the measurement horizon.
    """

    def __init__(
        self,
        stack: TcpStack,
        server_addr: str,
        server_port: int = DEFAULT_PORT,
        total_bytes: int = 1 << 30,
        options: Optional[TcpOptions] = None,
        flow_id: Optional[str] = None,
    ) -> None:
        self.stack = stack
        self.node: Node = stack.node
        self.server_addr = server_addr
        self.server_port = server_port
        self.total_bytes = total_bytes
        self.options = options
        self.flow_id = flow_id
        self.socket: Optional[TcpSocket] = None
        self.started_at: Optional[float] = None

    def start(self) -> TcpSocket:
        """Connect and queue the whole transfer (O(1) — bytes are counted)."""
        self.started_at = self.node.clock.now()
        self.socket = self.stack.connect(
            self.server_addr,
            self.server_port,
            options=self.options,
            on_connected=self._on_connected,
            flow_id=self.flow_id,
        )
        return self.socket

    def _on_connected(self, sock: TcpSocket) -> None:
        sock.send(self.total_bytes)
        sock.close()

    @property
    def bytes_acked(self) -> int:
        """Sender-side progress indicator."""
        return 0 if self.socket is None else self.socket.bytes_acked
