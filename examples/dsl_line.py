#!/usr/bin/env python3
"""Emulating a messy consumer access line — and dilating it.

Real emulation targets are rarely clean pipes. This example builds an
ADSL-flavoured path:

* asymmetric rates (8 Mbps down / 1 Mbps up) on one link, each direction
  with a finite 40-packet buffer (a dummynet pipe per direction),
* competing CBR cross traffic ("the roommate's video call").

It then measures a download at TDF 1 and at TDF 5 over a 5x-slower
physical substrate — the guests can't tell the difference.

Run it::

    python examples/dsl_line.py
"""

from repro.apps.crosstraffic import CbrSource, UdpSink
from repro.apps.iperf import IperfClient, IperfServer
from repro.core.vmm import Hypervisor
from repro.simnet.link import Link
from repro.simnet.queues import DropTailQueue
from repro.simnet.topology import Network
from repro.simnet.units import format_rate, mbps, ms
from repro.tcp.stack import TcpStack
from repro.udp.socket import UdpStack


def run_dsl(tdf: int) -> dict:
    # Perceived targets; the physical build divides rates and multiplies
    # delays by the TDF.
    down_rate = mbps(8) / tdf
    up_rate = mbps(1) / tdf
    base_delay = ms(15) * tdf

    net = Network()
    isp = net.add_node("isp")
    home = net.add_node("home")
    # One asymmetric link. Each direction's buffer is a packet count
    # (TDF-invariant) and finite, so TCP receives loss feedback instead
    # of bufferbloat.
    net.links.append(Link(
        net.sim, isp, home, down_rate, base_delay,
        queue_factory=lambda: DropTailQueue(capacity_packets=40),
        bandwidth_reverse_bps=up_rate,
    ))
    net.finalize()

    vmm = Hypervisor(net.sim)
    vmm.create_vm("isp-vm", tdf=tdf, cpu_share=0.5, node=isp)
    home_vm = vmm.create_vm("home-vm", tdf=tdf, cpu_share=0.5, node=home)

    # The download under test.
    server = IperfServer(TcpStack(home))
    IperfClient(TcpStack(isp), "home", total_bytes=1 << 30).start()

    # The roommate's 1.5 Mbps (perceived) video stream.
    sink = UdpSink(UdpStack(home), 9000)
    cross = CbrSource(UdpStack(isp), "home", 9000,
                      rate_bps=mbps(1.5), packet_bytes=1200)
    cross.start()

    net.run(until=home_vm.clock.to_physical(10.0))  # 10 virtual seconds
    return {
        "download": server.goodput_bps(),
        "cross": sink.bytes_received * 8 / 10.0,
    }


def main() -> None:
    print("ADSL-style line: 8 Mbps down / 1 Mbps up, 1.5 Mbps of")
    print("competing video traffic. Download goodput as the guest sees it:\n")
    for tdf in (1, 5):
        result = run_dsl(tdf)
        print(f"TDF {tdf}: download {format_rate(result['download'])}, "
              f"video stream {format_rate(result['cross'])}")
    print("\nSame perceived line; at TDF 5 the physical substrate only ever")
    print("carried one fifth of these rates.")


if __name__ == "__main__":
    main()
