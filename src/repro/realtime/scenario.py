"""Canned live topologies shared by the ``repro-realtime`` CLI and tests.

The echo scenario is the smallest end-to-end demonstration of the
real-time mode: one dilated link, a simulated echo server on the far side,
and a live UDP gateway on the near side. An external client that sends a
datagram to the gateway sees it come back after the simulated round trip —
``RTT_virtual x TDF`` of wall time — with the exact virtual-time latency
recoverable from the gateway's samples.

The testbed is an ordinary paced
:class:`~repro.harness.scenario.Scenario`: the same hypervisor, guests,
stacks and driver wiring the batch experiments use, with the gateway
attached as the driver's ingress source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..apps.ping import ECHO_PORT, EchoResponder
from ..core.clock import DilatedClock
from ..core.dilation import NetworkProfile, physical_for
from ..core.tdf import TdfLike, as_tdf
from ..harness.scenario import Scenario
from ..simnet.queues import DropTailQueue
from ..simnet.topology import Network
from .driver import RealtimeConfig, RealtimeDriver
from .ingress import UdpGateway

__all__ = ["EchoScenario", "build_echo_scenario"]

#: Default perceived path: 10 Mbps, 40 ms RTT — humane for a live demo
#: (a datagram echoes in ~40 ms x TDF of wall time).
DEFAULT_PROFILE = NetworkProfile.from_rtt(10e6, 0.040)


@dataclass
class EchoScenario:
    """Everything a live echo service needs, wired and ready to run."""

    net: Network
    driver: RealtimeDriver
    gateway: UdpGateway
    echo: EchoResponder
    clock: DilatedClock

    def close(self) -> None:
        """Release the gateway's OS socket (the simulation needs no teardown)."""
        self.gateway.close()


def build_echo_scenario(
    perceived: NetworkProfile = DEFAULT_PROFILE,
    tdf: TdfLike = 1,
    bind: Tuple[str, int] = ("127.0.0.1", 0),
    echo_port: int = ECHO_PORT,
    config: Optional[RealtimeConfig] = None,
) -> EchoScenario:
    """Build gateway ⇄ echo-server over one dilated link, driver attached.

    The returned scenario is idle: call ``scenario.driver.run(until=...)``
    (or ``run(None)`` for an open-ended service, stopped via
    ``driver.stop()``) to start pacing. The gateway's live address is
    ``scenario.gateway.address``.
    """
    factor = as_tdf(tdf)
    physical = physical_for(perceived, factor)
    net = Network()
    gw = net.add_node("gw")
    srv = net.add_node("srv")
    net.add_link(
        gw, srv, physical.bandwidth_bps, physical.delay_s,
        queue_factory=lambda: DropTailQueue(capacity_packets=64),
    )
    net.finalize()
    testbed = Scenario(net, factor, realtime=config or True)
    gw_vm = testbed.boot("gw-vm", gw, share=0.5)
    testbed.boot("srv-vm", srv, share=0.5)
    echo = EchoResponder(testbed.udp("srv"), port=echo_port)
    gateway = UdpGateway(
        testbed.udp("gw"), gw_vm.clock, target_addr="srv",
        target_port=echo.socket.port, bind=bind,
    )
    testbed.driver.add_source(gateway)
    return EchoScenario(
        net=net, driver=testbed.driver, gateway=gateway, echo=echo,
        clock=gw_vm.clock,
    )
