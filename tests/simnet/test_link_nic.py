"""Unit tests for interfaces and links: serialisation, delay, queueing."""

import pytest

from repro.simnet.engine import Simulator
from repro.simnet.errors import ConfigurationError
from repro.simnet.link import Link
from repro.simnet.nic import Interface
from repro.simnet.node import Node
from repro.simnet.packet import Packet
from repro.simnet.queues import DropTailQueue
from repro.stats.flows import FlowMonitor
from repro.trace.recorder import FlightRecorder


class Sink:
    """Protocol handler recording delivery times."""

    def __init__(self, sim):
        self.sim = sim
        self.deliveries = []

    def deliver(self, packet):
        self.deliveries.append((self.sim.now, packet))


def wire(sim, bandwidth=1e6, delay=0.01, queue_factory=None):
    a = Node(sim, "a")
    b = Node(sim, "b")
    link = Link(sim, a, b, bandwidth, delay, queue_factory)
    a.set_route("b", link.a_to_b)
    b.set_route("a", link.b_to_a)
    sink = Sink(sim)
    b.register_protocol("raw", sink)
    return a, b, link, sink


def test_delivery_time_is_serialisation_plus_propagation():
    sim = Simulator()
    a, b, link, sink = wire(sim, bandwidth=1e6, delay=0.01)
    # 1250 bytes = 10_000 bits at 1 Mbps -> 10 ms serialise + 10 ms propagate.
    a.send(Packet(src="a", dst="b", protocol="raw", size_bytes=1250))
    sim.run()
    assert len(sink.deliveries) == 1
    assert sink.deliveries[0][0] == pytest.approx(0.020)


def test_back_to_back_packets_serialise_sequentially():
    sim = Simulator()
    a, b, link, sink = wire(sim, bandwidth=1e6, delay=0.0)
    for _ in range(3):
        a.send(Packet(src="a", dst="b", protocol="raw", size_bytes=1250))
    sim.run()
    times = [t for t, _ in sink.deliveries]
    assert times == pytest.approx([0.010, 0.020, 0.030])


def test_pipelining_propagation_overlaps_serialisation():
    sim = Simulator()
    # Long pipe: 100 ms propagation, 10 ms serialisation per packet.
    a, b, link, sink = wire(sim, bandwidth=1e6, delay=0.100)
    for _ in range(2):
        a.send(Packet(src="a", dst="b", protocol="raw", size_bytes=1250))
    sim.run()
    times = [t for t, _ in sink.deliveries]
    # Second packet arrives one serialisation time after the first, not one RTT.
    assert times == pytest.approx([0.110, 0.120])


def test_queue_overflow_drops():
    sim = Simulator()
    a, b, link, sink = wire(
        sim, bandwidth=1e6, delay=0.0,
        queue_factory=lambda: DropTailQueue(capacity_packets=2),
    )
    # First packet starts serialising immediately (dequeued), two sit in the
    # queue, the rest drop.
    for _ in range(6):
        a.send(Packet(src="a", dst="b", protocol="raw", size_bytes=1250))
    sim.run()
    assert len(sink.deliveries) == 3
    assert link.a_to_b.queue.stats.dropped_packets == 3


def test_counters_and_utilisation():
    sim = Simulator()
    a, b, link, sink = wire(sim, bandwidth=1e6, delay=0.0)
    a.send(Packet(src="a", dst="b", protocol="raw", size_bytes=1250))
    sim.run()
    assert link.a_to_b.tx_packets == 1
    assert link.a_to_b.tx_bytes == 1250
    assert link.b_to_a.rx_packets == 1
    assert link.a_to_b.utilisation(elapsed_s=0.010) == pytest.approx(1.0)
    assert link.a_to_b.utilisation(elapsed_s=0.020) == pytest.approx(0.5)
    assert link.a_to_b.utilisation(elapsed_s=0.0) == 0.0


def test_full_duplex_no_contention():
    sim = Simulator()
    a, b, link, sink_b = wire(sim, bandwidth=1e6, delay=0.0)
    sink_a = Sink(sim)
    a.register_protocol("raw", sink_a)
    a.send(Packet(src="a", dst="b", protocol="raw", size_bytes=1250))
    b.send(Packet(src="b", dst="a", protocol="raw", size_bytes=1250))
    sim.run()
    # Both directions complete in one serialisation time: no shared medium.
    assert sink_b.deliveries[0][0] == pytest.approx(0.010)
    assert sink_a.deliveries[0][0] == pytest.approx(0.010)


def test_asymmetric_link_parameters():
    sim = Simulator()
    a = Node(sim, "a")
    b = Node(sim, "b")
    link = Link(
        sim, a, b, bandwidth_bps=1e6, delay_s=0.0,
        bandwidth_reverse_bps=2e6, delay_reverse_s=0.005,
    )
    assert link.a_to_b.bandwidth_bps == 1e6
    assert link.b_to_a.bandwidth_bps == 2e6
    assert link.b_to_a.delay_s == 0.005


def test_link_endpoint_helpers():
    sim = Simulator()
    a, b, link, _ = wire(sim)
    assert link.interface_from(a) is link.a_to_b
    assert link.interface_from(b) is link.b_to_a
    assert link.other_end(a) is b
    c = Node(sim, "c")
    with pytest.raises(ValueError):
        link.interface_from(c)
    with pytest.raises(ValueError):
        link.other_end(c)


def test_unconnected_interface_rejects_send():
    sim = Simulator()
    node = Node(sim, "a")
    interface = Interface(sim, node, 1e6, 0.0)
    with pytest.raises(ConfigurationError):
        interface.send(Packet(src="a", dst="b", protocol="raw", size_bytes=10))


def test_interface_validates_parameters():
    sim = Simulator()
    node = Node(sim, "a")
    with pytest.raises(ConfigurationError):
        Interface(sim, node, 0.0, 0.0)
    with pytest.raises(ConfigurationError):
        Interface(sim, node, 1e6, -1.0)


NAN = float("nan")
INF = float("inf")

#: Link parameters outside the range a link schedule's entries must keep
#: (0 < bandwidth < inf, 0 <= delay < inf, 0 <= jitter <= delay), NaN
#: included: each is refused when the link is built, not at its first
#: packet.
BAD_LINK_PARAMETERS = [
    pytest.param({name: value}, name.split("_")[0], id=f"{name}={value}")
    for name, value in [
        ("bandwidth_bps", NAN), ("bandwidth_bps", INF), ("bandwidth_bps", 0.0),
        ("delay_s", NAN), ("delay_s", INF), ("delay_s", -0.001),
        ("jitter_s", NAN), ("jitter_s", -0.001), ("jitter_s", 0.02),
        ("bandwidth_reverse_bps", NAN), ("bandwidth_reverse_bps", INF),
        ("delay_reverse_s", NAN), ("delay_reverse_s", INF),
    ]
]


@pytest.mark.parametrize("override, what", BAD_LINK_PARAMETERS)
def test_link_refuses_out_of_range_parameters(override, what):
    sim = Simulator()
    params = {"bandwidth_bps": 1e6, "delay_s": 0.01, **override}
    with pytest.raises(ConfigurationError, match=what):
        Link(sim, Node(sim, "a"), Node(sim, "b"), **params)
    assert sim.pending() == 0


def test_taps_see_all_event_kinds():
    sim = Simulator()
    a, b, link, _ = wire(
        sim, queue_factory=lambda: DropTailQueue(capacity_packets=1)
    )
    events = []
    link.a_to_b.add_tap(lambda kind, iface, p, reason: events.append(kind))
    # Three sends: one serialises, one queues, one drops.
    for _ in range(3):
        a.send(Packet(src="a", dst="b", protocol="raw", size_bytes=1250))
    sim.run()
    assert events.count("enqueue") == 2
    assert events.count("drop") == 1
    assert events.count("tx") == 2


def test_recorder_and_flow_monitor_share_one_interface():
    sim = Simulator()
    a, b, link, _ = wire(
        sim, queue_factory=lambda: DropTailQueue(capacity_packets=1)
    )
    egress = link.a_to_b
    recorder = FlightRecorder(capacity=None).attach_interface(egress)
    monitor = FlowMonitor()
    monitor.watch(egress, kinds=("enqueue", "tx", "drop"))
    seen = []
    egress.add_tap(lambda kind, iface, p, reason: seen.append((kind, reason)))
    # Three sends: one serialises, one queues, one drops on the full queue;
    # a fourth is dropped by the downed interface.
    for _ in range(3):
        a.send(Packet(src="a", dst="b", protocol="raw", size_bytes=1250,
                      flow_id="f"))
    egress.up = False
    a.send(Packet(src="a", dst="b", protocol="raw", size_bytes=1250,
                  flow_id="f"))
    egress.up = True
    sim.run()
    assert [(event.kind, event.reason) for event in recorder] == seen
    assert seen.count(("enqueue", None)) == 2
    assert seen.count(("tx", None)) == 2
    assert [reason for kind, reason in seen if kind == "drop"] == [
        "queue", "down"]
    stats = monitor.flow("f")
    assert (stats.tx_packets, stats.drops) == (2, 2)
    assert monitor.interface_drops() == {egress.name: {"queue": 1, "down": 1}}


def test_attaching_the_same_observer_twice_is_a_no_op():
    sim = Simulator()
    a, b, link, _ = wire(sim)
    recorder = FlightRecorder()
    recorder.attach_interface(link.a_to_b)
    recorder.attach_interface(link.a_to_b)
    a.send(Packet(src="a", dst="b", protocol="raw", size_bytes=1250))
    sim.run()
    assert [event.kind for event in recorder] == ["enqueue", "tx"]
