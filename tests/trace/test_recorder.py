"""Unit tests for the flight recorder (ring, filters, attachment)."""

import pytest

from repro.core.clock import DilatedClock
from repro.simnet.engine import Simulator
from repro.simnet.link import Link
from repro.simnet.node import Node
from repro.simnet.packet import Packet
from repro.trace.events import event_from_dict, event_to_dict, load_jsonl, save_jsonl
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
        a.send(Packet(src="a", dst="b", protocol="raw", size_bytes=size,
                      flow_id=flow_id))


def test_default_off():
    sim = Simulator()
    a, b, link = wired_pair(sim)
    assert not link.a_to_b._observed
    assert not link.b_to_a._observed
    assert sim._recorder is None
    send_n(a, 3)
    sim.run()  # nothing records, nothing breaks


def test_records_packet_lifecycle():
    sim = Simulator()
    a, b, link = wired_pair(sim)
    recorder = FlightRecorder().attach_interface(link.a_to_b)
    send_n(a, 2)
    sim.run()
    kinds = [event.kind for event in recorder]
    assert kinds.count("enqueue") == 2
    assert kinds.count("tx") == 2
    assert all(event.category == "packet" for event in recorder)
    assert all(event.site == link.a_to_b.name for event in recorder)


def test_ring_evicts_oldest():
    sim = Simulator()
    a, b, link = wired_pair(sim)
    recorder = FlightRecorder(capacity=4, packet_kinds=("enqueue",))
    recorder.attach_interface(link.a_to_b)
    send_n(a, 10)
    sim.run()
    assert len(recorder) == 4
    assert recorder.recorded == 10
    assert recorder.evicted == 6
    # Oldest-first snapshot of the *most recent* four events.
    stamps = [event.physical_time for event in recorder.snapshot()]
    assert stamps == sorted(stamps)


def test_kind_and_flow_filters():
    sim = Simulator()
    a, b, link = wired_pair(sim)
    recorder = FlightRecorder(packet_kinds=("rx",), flow_id="wanted")
    recorder.attach_interface(link.b_to_a)
    send_n(a, 2, flow_id="wanted")
    send_n(a, 5, flow_id="other")
    sim.run()
    assert len(recorder) == 2
    assert all(event.kind == "rx" and event.flow_id == "wanted"
               for event in recorder)


def test_recorders_on_one_interface_each_record():
    sim = Simulator()
    a, b, link = wired_pair(sim)
    first = FlightRecorder(name="first").attach_interface(link.a_to_b)
    second = FlightRecorder(name="second", packet_kinds=("tx",))
    second.attach_interface(link.a_to_b)
    send_n(a, 2)
    sim.run()
    assert [event.kind for event in first] == ["enqueue", "enqueue",
                                               "tx", "tx"]
    assert [event.kind for event in second] == ["tx", "tx"]


def test_drop_reason_captured():
    sim = Simulator()
    a, b, link = wired_pair(sim)
    recorder = FlightRecorder(packet_kinds=("drop",))
    recorder.attach_interface(link.a_to_b)
    link.a_to_b.set_loss(lambda packet: True)
    send_n(a, 3)
    sim.run()
    assert len(recorder) == 3
    assert all(event.kind == "drop" and event.reason == "injected"
               for event in recorder)


def test_attach_network_covers_every_interface():
    sim = Simulator()
    a, b, link = wired_pair(sim)

    class FakeNet:
        nodes = {"a": a, "b": b}

    recorder = FlightRecorder().attach_network(FakeNet())
    assert link.a_to_b._taps == [recorder.record_packet]
    assert link.b_to_a._taps == [recorder.record_packet]


def test_engine_timer_events():
    sim = Simulator()
    recorder = FlightRecorder().attach_engine(sim)
    fired = []
    sim.schedule(0.5, lambda: fired.append(1))
    sim.schedule(1.0, lambda: fired.append(2))
    sim.run()
    assert len(fired) == 2
    assert [event.kind for event in recorder] == ["fire", "fire"]
    assert [event.physical_time for event in recorder] == [0.5, 1.0]
    assert recorder.recorded == sim.events_processed


def test_clock_epoch_events():
    sim = Simulator()
    clock = DilatedClock(sim, tdf=1)
    recorder = FlightRecorder().attach_clock(clock, label="guest0")
    sim.schedule(1.0, lambda: clock.set_tdf(10))
    sim.schedule(1.5, lambda: clock.set_tdf(10))  # no-op: same TDF
    sim.schedule(2.0, lambda: clock.set_tdf(3))
    sim.run()
    events = recorder.snapshot()
    assert [event.kind for event in events] == ["epoch", "epoch"]
    assert events[0].site == "guest0"
    assert events[0].reason == "1->10"
    assert events[0].value == 10.0
    assert events[1].physical_time == 2.0
    assert events[1].value == 3.0


def test_virtual_timestamps_with_owning_clock():
    sim = Simulator()
    a, b, link = wired_pair(sim)
    clock = DilatedClock(sim, tdf=10)
    recorder = FlightRecorder(clock=clock).attach_interface(link.b_to_a)
    send_n(a, 2)
    sim.run()
    for event in recorder:
        assert event.virtual_time == pytest.approx(event.physical_time / 10)


def test_clear_keeps_recorded_count():
    sim = Simulator()
    a, b, link = wired_pair(sim)
    recorder = FlightRecorder().attach_interface(link.a_to_b)
    send_n(a, 3)
    sim.run()
    seen = recorder.recorded
    assert seen > 0
    recorder.clear()
    assert len(recorder) == 0
    assert recorder.recorded == seen


def test_jsonl_round_trip(tmp_path):
    sim = Simulator()
    a, b, link = wired_pair(sim)
    recorder = FlightRecorder(clock=DilatedClock(sim, tdf=7))
    recorder.attach_interface(link.a_to_b)
    link.a_to_b.set_loss(lambda packet: packet.uid % 2 == 0)
    send_n(a, 6, flow_id="f0")
    sim.run()
    path = tmp_path / "recording.jsonl"
    count = save_jsonl(recorder.snapshot(), str(path))
    assert count == len(recorder)
    loaded = load_jsonl(str(path))
    assert loaded == recorder.snapshot()


def test_event_dict_omits_defaults_and_ignores_unknown_keys():
    sim = Simulator()
    a, b, link = wired_pair(sim)
    recorder = FlightRecorder().attach_interface(link.a_to_b)
    send_n(a, 1)
    sim.run()
    event = recorder.snapshot()[0]
    data = event_to_dict(event)
    assert "seq" not in data  # defaulted fields omitted
    data["cell"] = "rtt40-tdf10"  # merged-trace tag must be tolerated
    assert event_from_dict(data) == event
