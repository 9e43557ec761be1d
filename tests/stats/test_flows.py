"""Unit tests for the flow monitor."""

import pytest

from repro.core.clock import DilatedClock
from repro.simnet.packet import Packet
from repro.simnet.queues import DropTailQueue
from repro.simnet.topology import Network
from repro.simnet.units import mbps, ms
from repro.stats.flows import UNLABELLED, FlowMonitor
from repro.tcp.stack import TcpStack
from tests.helpers import Collector


def build(monitor_clock=None, queue_packets=100):
    net = Network()
    a = net.add_node("a")
    b = net.add_node("b")
    link = net.add_link(
        a, b, mbps(10), ms(5),
        queue_factory=lambda: DropTailQueue(capacity_packets=queue_packets),
    )
    net.finalize()
    monitor = FlowMonitor(clock=monitor_clock)
    monitor.watch(link.b_to_a, kinds=("rx",))       # data arriving at b
    monitor.watch(link.a_to_b, kinds=("drop",))     # drops on the way
    return net, a, b, link, monitor


def test_per_flow_rx_accounting():
    net, a, b, link, monitor = build()
    events = Collector()
    sb = TcpStack(b)
    sb.listen(80, events.on_accept, on_data=events.on_data)
    sa = TcpStack(a)
    sa.connect("b", 80, flow_id="flow-A").send(50_000)
    sa.connect("b", 80, flow_id="flow-B").send(20_000)
    net.run(until=5.0)
    assert monitor.flow("flow-A").rx_bytes > 50_000  # headers included
    assert monitor.flow("flow-B").rx_bytes > 20_000
    assert monitor.flow("flow-A").rx_packets > monitor.flow("flow-B").rx_packets


def test_unlabelled_flows_grouped():
    net, a, b, link, monitor = build()
    events = Collector()
    TcpStack(b).listen(80, events.on_accept, on_data=events.on_data)
    TcpStack(a).connect("b", 80).send(10_000)
    net.run(until=2.0)
    assert UNLABELLED in monitor.flows
    assert monitor.flow(UNLABELLED).rx_bytes > 10_000


def test_drop_accounting():
    net, a, b, link, monitor = build(queue_packets=5)
    events = Collector()
    TcpStack(b).listen(80, events.on_accept, on_data=events.on_data)
    TcpStack(a).connect("b", 80, flow_id="big").send(2_000_000)
    net.run(until=10.0)
    assert monitor.flow("big").drops > 0
    assert monitor.total_drops() == monitor.flow("big").drops


def test_rate_and_duration():
    net, a, b, link, monitor = build()
    events = Collector()
    TcpStack(b).listen(80, events.on_accept, on_data=events.on_data)
    TcpStack(a).connect("b", 80, flow_id="f").send(500_000)
    net.run(until=5.0)
    stats = monitor.flow("f")
    assert stats.duration() > 0
    assert stats.rx_rate_bps() == pytest.approx(
        stats.rx_bytes * 8 / stats.duration()
    )


def test_top_by_rx_bytes():
    net, a, b, link, monitor = build()
    events = Collector()
    sb = TcpStack(b)
    sb.listen(80, events.on_accept, on_data=events.on_data)
    sa = TcpStack(a)
    sa.connect("b", 80, flow_id="small").send(5_000)
    sa.connect("b", 80, flow_id="large").send(100_000)
    net.run(until=5.0)
    top = monitor.top_by_rx_bytes(1)
    assert top[0].flow_id == "large"


def test_dilated_monitor_reports_virtual_times():
    net, a, b, link, _ = build()
    sim = net.sim
    monitor = FlowMonitor(clock=DilatedClock(sim, tdf=10))
    monitor.watch(link.b_to_a, kinds=("rx",))
    events = Collector()
    TcpStack(b).listen(80, events.on_accept, on_data=events.on_data)
    TcpStack(a).connect("b", 80, flow_id="f").send(200_000)
    net.run(until=5.0)
    stats = monitor.flow("f")
    # 5 physical seconds = at most 0.5 virtual seconds of observation.
    assert stats.duration() < 0.5
    assert stats.rx_rate_bps() > mbps(10)  # perceived 10x


def test_missing_flow_raises():
    _, _, _, _, monitor = build()
    with pytest.raises(KeyError):
        monitor.flow("ghost")


def test_interface_drop_taxonomy_surfaced():
    from repro.simnet.impairments import BernoulliLoss, ImpairmentChain

    net, a, b, link, monitor = build()
    link.a_to_b.set_impairments(
        ImpairmentChain([BernoulliLoss(0.05, seed=2)])
    )
    events = Collector()
    TcpStack(b).listen(80, events.on_accept, on_data=events.on_data)
    TcpStack(a).connect("b", 80, flow_id="f").send(200_000)
    net.run(until=10.0)
    per_iface = monitor.interface_drops()
    assert per_iface[link.a_to_b.name].get("loss", 0) > 0
    assert per_iface[link.b_to_a.name] == {}
    assert monitor.drops_by_reason()["loss"] == \
        per_iface[link.a_to_b.name]["loss"]


def test_tcp_summary_aggregates_tracked_sockets():
    net, a, b, link, monitor = build()
    link.a_to_b.set_loss(
        lambda pkt: 20_000 < getattr(pkt.payload, "seq", 0) < 25_000
    )
    events = Collector()
    TcpStack(b).listen(80, events.on_accept, on_data=events.on_data)
    sock = TcpStack(a).connect("b", 80, flow_id="f")
    monitor.track_socket(sock)
    sock.send(100_000)
    net.run(until=10.0)
    summary = monitor.tcp_summary()
    assert summary["retransmits"] == sock.retransmits > 0
    assert summary["dupacks_received"] == sock.dupacks_received
    assert summary["fast_recoveries"] == sock.fast_recoveries


def test_watching_an_interface_twice_counts_each_packet_once():
    net = Network()
    a = net.add_node("a")
    b = net.add_node("b")
    link = net.add_link(a, b, mbps(10), ms(5))
    net.finalize()
    monitor = FlowMonitor()
    monitor.watch(link.a_to_b, kinds=("tx",))
    monitor.watch(link.a_to_b, kinds=("tx", "drop"))
    for _ in range(3):
        a.send(Packet(src="a", dst="b", protocol="raw", size_bytes=1000,
                      flow_id="f"))
    net.run()
    assert monitor.flow("f").tx_packets == 3
    assert list(monitor.interfaces) == [link.a_to_b]
    assert monitor.interfaces[link.a_to_b] == {"tx", "drop"}


def test_a_second_watch_widens_the_kinds_observed():
    net = Network()
    a = net.add_node("a")
    b = net.add_node("b")
    link = net.add_link(a, b, mbps(10), ms(5))
    net.finalize()
    monitor = FlowMonitor()
    monitor.watch(link.b_to_a, kinds=("rx",))
    monitor.watch(link.b_to_a, kinds=("tx",))
    b.send(Packet(src="b", dst="a", protocol="raw", size_bytes=1000,
                  flow_id="f"))
    net.run()
    assert monitor.flow("f").tx_packets == 1
