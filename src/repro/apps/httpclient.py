"""HTTP load generation: open-loop (Poisson) and closed-loop clients.

The paper's web experiments sweep offered load and report server
throughput (requests/second) and client-observed response time — both in
the *clients'* virtual time, which is what makes the dilated and baseline
sweeps comparable. :class:`OpenLoopHttpLoad` is the primary tool (an
open-loop generator keeps offering load past saturation, which is what
exposes the knee); :class:`ClosedLoopHttpUser` models think-time users.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from ..simnet.node import Node
from ..stats.meters import LatencyMeter
from ..tcp.options import TcpOptions
from ..tcp.socket import TcpSocket
from ..tcp.stack import TcpStack
from ..workloads.distributions import exponential_interarrival
from ..workloads.specweb import SpecWebMix
from .httpd import REQUEST_BYTES, HttpRequest, HttpResponse

__all__ = ["OpenLoopHttpLoad", "ClosedLoopHttpUser", "PersistentHttpClient"]


def _get_once(client, then: Optional[Callable[[], None]] = None) -> None:
    """One GET on its own connection: connect, send, await the full
    response, close.

    ``client`` supplies the stack, server, options and file mix, times the
    request on its ``latency`` meter and counts it in ``completed`` and
    ``bytes_received`` or, on a connection error, ``failed``. ``then``
    runs after either outcome.
    """
    request = HttpRequest.get(client.mix.sample().name)
    latency = client.latency
    latency.start(request.request_id)

    def on_connected(sock: TcpSocket) -> None:
        sock.send(REQUEST_BYTES, message=request)

    def on_message(sock: TcpSocket, message) -> None:
        if not isinstance(message, HttpResponse):
            return
        if latency.stop(message.request_id) is not None:
            client.completed += 1
            client.bytes_received += message.body_bytes
        sock.close()
        if then is not None:
            then()

    def on_error(sock: TcpSocket, error: Exception) -> None:
        latency.abandon(request.request_id)
        client.failed += 1
        if then is not None:
            then()

    client.stack.connect(
        client.server_addr,
        client.server_port,
        options=client.options,
        on_connected=on_connected,
        on_message=on_message,
        on_error=on_error,
    )


class OpenLoopHttpLoad:
    """Poisson request arrivals, one connection per request.

    Each arrival opens a connection, sends one GET, waits for the full
    response, closes. Latency is first-SYN to response-complete, as a real
    HTTP benchmark client reports.
    """

    def __init__(
        self,
        stack: TcpStack,
        server_addr: str,
        rate_per_second: float,
        mix: SpecWebMix,
        rng: random.Random,
        server_port: int = 80,
        duration_s: Optional[float] = None,
        options: Optional[TcpOptions] = None,
    ) -> None:
        self.stack = stack
        self.node: Node = stack.node
        self.server_addr = server_addr
        self.server_port = server_port
        self.rate = rate_per_second
        self.mix = mix
        self.rng = rng
        self.duration_s = duration_s
        self.options = options
        self.latency = LatencyMeter(self.node.clock)
        self.issued = 0
        self.completed = 0
        self.failed = 0
        self.bytes_received = 0
        self._started_at: Optional[float] = None
        self._stopped = False

    def start(self) -> None:
        """Begin the arrival process (in local/virtual time)."""
        self._started_at = self.node.clock.now()
        self._schedule_next()

    def stop(self) -> None:
        """No further arrivals; in-flight requests run to completion."""
        self._stopped = True

    def _schedule_next(self) -> None:
        if self._stopped:
            return
        gap = exponential_interarrival(self.rate, self.rng)
        self.node.clock.call_in(gap, self._arrival)

    def _arrival(self) -> None:
        if self._stopped:
            return
        assert self._started_at is not None
        if (
            self.duration_s is not None
            and self.node.clock.now() - self._started_at >= self.duration_s
        ):
            self._stopped = True
            return
        self.issued += 1
        _get_once(self)
        self._schedule_next()

    # ------------------------------------------------------------- reporting

    def observed_duration(self) -> float:
        """Local seconds since ``start``."""
        if self._started_at is None:
            return 0.0
        return self.node.clock.now() - self._started_at

    def throughput_rps(self) -> float:
        """Completed requests per local second."""
        elapsed = self.observed_duration()
        return self.completed / elapsed if elapsed > 0 else 0.0


class PersistentHttpClient:
    """HTTP/1.1-style keep-alive: many requests over one connection.

    SPECweb99 drove servers with persistent connections; reusing the
    connection removes the per-request handshake RTT and lets the
    congestion window carry over, so later requests complete faster — a
    latency effect dilation must preserve like any other.

    Requests are issued sequentially (send next after the previous
    response completes). ``on_complete(client)`` fires after the last
    response, once the connection is closed.
    """

    def __init__(
        self,
        stack: TcpStack,
        server_addr: str,
        mix: SpecWebMix,
        request_count: int,
        server_port: int = 80,
        options: Optional[TcpOptions] = None,
        on_complete=None,
    ) -> None:
        if request_count < 1:
            raise ValueError("request_count must be at least 1")
        self.stack = stack
        self.node: Node = stack.node
        self.server_addr = server_addr
        self.server_port = server_port
        self.mix = mix
        self.request_count = request_count
        self.options = options
        self.on_complete = on_complete
        self.latency = LatencyMeter(self.node.clock)
        self.latencies: List[float] = []
        self.completed = 0
        self.failed = 0
        self._socket: Optional[TcpSocket] = None
        self._current_id: Optional[int] = None

    def start(self) -> None:
        """Open the connection and begin the request train."""
        self._socket = self.stack.connect(
            self.server_addr,
            self.server_port,
            options=self.options,
            on_connected=lambda sock: self._issue_next(),
            on_message=self._on_message,
            on_error=self._on_error,
        )

    def _issue_next(self) -> None:
        assert self._socket is not None
        file = self.mix.sample()
        request = HttpRequest.get(file.name)
        self._current_id = request.request_id
        self.latency.start(request.request_id)
        self._socket.send(REQUEST_BYTES, message=request)

    def _on_message(self, sock: TcpSocket, message) -> None:
        if not isinstance(message, HttpResponse):
            return
        if message.request_id != self._current_id:
            return
        elapsed = self.latency.stop(message.request_id)
        if elapsed is not None:
            self.latencies.append(elapsed)
            self.completed += 1
        if self.completed >= self.request_count:
            sock.close()
            if self.on_complete is not None:
                self.on_complete(self)
        else:
            self._issue_next()

    def _on_error(self, sock: TcpSocket, error: Exception) -> None:
        self.failed += 1
        if self._current_id is not None:
            self.latency.abandon(self._current_id)


class ClosedLoopHttpUser:
    """One user: request, wait, think, repeat.

    ``think_time_s`` is exponential with the given mean; N users at mean
    think time T offer roughly ``N / (T + response_time)`` requests/second.
    """

    def __init__(
        self,
        stack: TcpStack,
        server_addr: str,
        mix: SpecWebMix,
        rng: random.Random,
        mean_think_time_s: float = 1.0,
        server_port: int = 80,
        options: Optional[TcpOptions] = None,
    ) -> None:
        self.stack = stack
        self.node: Node = stack.node
        self.server_addr = server_addr
        self.server_port = server_port
        self.mix = mix
        self.rng = rng
        self.mean_think_time_s = mean_think_time_s
        self.options = options
        self.latency = LatencyMeter(self.node.clock)
        self.completed = 0
        self.failed = 0
        self.bytes_received = 0
        self._running = False

    def start(self) -> None:
        """Enter the request/think loop."""
        self._running = True
        self._issue()

    def stop(self) -> None:
        """Leave the loop after the current request."""
        self._running = False

    def _think_then_issue(self) -> None:
        if not self._running:
            return
        gap = exponential_interarrival(1.0 / self.mean_think_time_s, self.rng)
        self.node.clock.call_in(gap, self._issue)

    def _issue(self) -> None:
        if not self._running:
            return
        _get_once(self, then=self._think_then_issue)
