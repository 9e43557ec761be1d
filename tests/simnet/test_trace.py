"""Packet tracing on one interface: a FlightRecorder as the emulator's tcpdump.

An interface reports its packet events to the single recorder in its
``recorder`` slot. These tests pin what a per-interface capture records
(kind and flow filters, virtual stamps, drop reasons) and how
interarrivals are taken from it, in physical time or re-mapped through
any clock.
"""

import pytest

from repro.core.clock import DilatedClock
from repro.simnet.engine import Simulator
from repro.simnet.link import Link
from repro.simnet.node import Node
from repro.simnet.packet import Packet
from repro.trace.recorder import FlightRecorder


class Sink:
    def deliver(self, packet):
        pass


def wired_pair(sim):
    a, b = Node(sim, "a"), Node(sim, "b")
    link = Link(sim, a, b, bandwidth_bps=1e6, delay_s=0.0)
    a.set_route("b", link.a_to_b)
    b.register_protocol("raw", Sink())
    return a, b, link


def send_n(a, n, flow_id=None, size=1250):
    for _ in range(n):
        a.send(Packet(src="a", dst="b", protocol="raw", size_bytes=size, flow_id=flow_id))


def capture(interface, kinds=("rx",), flow_id=None, clock=None):
    recorder = FlightRecorder(capacity=None, clock=clock,
                              packet_kinds=kinds, flow_id=flow_id)
    return recorder.attach_interface(interface)


def interarrivals(recorder, clock=None):
    stamps = [event.physical_time if clock is None
              else clock.to_local(event.physical_time)
              for event in recorder]
    return [b - a for a, b in zip(stamps, stamps[1:])]


def test_records_rx_by_default():
    sim = Simulator()
    a, b, link = wired_pair(sim)
    trace = capture(link.b_to_a)
    send_n(a, 3)
    sim.run()
    assert len(trace) == 3
    assert all(event.kind == "rx" for event in trace)


def test_interarrivals_physical():
    sim = Simulator()
    a, b, link = wired_pair(sim)
    trace = capture(link.b_to_a)
    send_n(a, 3)  # back-to-back at 1 Mbps, 1250 B -> 10 ms spacing
    sim.run()
    assert interarrivals(trace) == pytest.approx([0.010, 0.010])


def test_interarrivals_in_virtual_time():
    sim = Simulator()
    a, b, link = wired_pair(sim)
    trace = capture(link.b_to_a)
    clock = DilatedClock(sim, tdf=10)
    send_n(a, 3)
    sim.run()
    # Re-mapped after the fact through a clock the recorder never owned.
    assert interarrivals(trace, clock) == pytest.approx([0.001, 0.001])


def test_flow_filter():
    sim = Simulator()
    a, b, link = wired_pair(sim)
    trace = capture(link.b_to_a, flow_id="wanted")
    send_n(a, 2, flow_id="wanted")
    send_n(a, 5, flow_id="other")
    sim.run()
    assert len(trace) == 2


def test_kind_filter_and_total_bytes():
    sim = Simulator()
    a, b, link = wired_pair(sim)
    trace = capture(link.a_to_b, kinds=("tx",))
    send_n(a, 4, size=500)
    sim.run()
    assert len(trace) == 4
    assert sum(event.size_bytes for event in trace) == 2000


def test_virtual_time_captured_with_owning_clock():
    sim = Simulator()
    a, b, link = wired_pair(sim)
    clock = DilatedClock(sim, tdf=10)
    trace = capture(link.b_to_a, clock=clock)
    send_n(a, 3)
    sim.run()
    for event in trace:
        assert event.virtual_time == pytest.approx(event.physical_time / 10)


def test_virtual_time_none_without_clock():
    sim = Simulator()
    a, b, link = wired_pair(sim)
    trace = capture(link.b_to_a)
    send_n(a, 1)
    sim.run()
    assert trace.snapshot()[0].virtual_time is None


def test_drop_records_carry_taxonomy_reason():
    sim = Simulator()
    a, b, link = wired_pair(sim)
    trace = capture(link.a_to_b, kinds=("drop", "rx"))
    link.a_to_b.set_loss(lambda packet: True)
    send_n(a, 2)
    sim.run()
    assert len(trace) == 2
    assert all(event.kind == "drop" and event.reason == "injected"
               for event in trace)


def test_non_drop_records_have_no_reason():
    sim = Simulator()
    a, b, link = wired_pair(sim)
    trace = capture(link.b_to_a)
    send_n(a, 1)
    sim.run()
    assert trace.snapshot()[0].reason is None


def test_one_trace_per_interface():
    sim = Simulator()
    a, b, link = wired_pair(sim)
    capture(link.b_to_a)
    with pytest.raises(ValueError, match="already has a recorder"):
        capture(link.b_to_a)


def test_clear_forgets_records():
    sim = Simulator()
    a, b, link = wired_pair(sim)
    trace = capture(link.b_to_a)
    send_n(a, 3)
    sim.run()
    assert len(trace) == 3
    trace.clear()
    assert len(trace) == 0
    assert trace.snapshot() == []
