"""Unit tests for schedule-driven dynamic links.

Covers the :mod:`repro.simnet.schedule` layer cake (entries, LinkSchedule,
ScheduleSpec, CSV traces, LEO synthesis) plus the two NIC bugfix
regressions the schedule work exposed: a mid-run delay *decrease* must not
reorder in-flight packets (FIFO clamp), and a mid-packet bandwidth change
must not re-time a serialisation already in progress.
"""

import pytest

from repro.simnet.engine import Simulator
from repro.simnet.errors import ConfigurationError
from repro.simnet.link import Link
from repro.simnet.node import Node
from repro.simnet.packet import Packet
from repro.simnet.schedule import (
    LinkSchedule,
    ScheduleEntry,
    ScheduleSpec,
    load_trace,
    synthesize_leo,
)


class Sink:
    def __init__(self, sim):
        self.sim = sim
        self.deliveries = []

    def deliver(self, packet):
        self.deliveries.append((self.sim.now, packet))


def wire(sim, bandwidth=1e6, delay=0.010):
    a = Node(sim, "a")
    b = Node(sim, "b")
    link = Link(sim, a, b, bandwidth, delay)
    a.set_route("b", link.a_to_b)
    b.set_route("a", link.b_to_a)
    sink = Sink(sim)
    b.register_protocol("raw", sink)
    return a, b, link, sink


def packet(size=1250):
    return Packet(src="a", dst="b", protocol="raw", size_bytes=size)


# -------------------------------------------------------- LinkSchedule


def test_schedule_applies_to_both_directions():
    sim = Simulator()
    a, b, link, sink = wire(sim, delay=0.010)
    LinkSchedule(sim, link, [
        ScheduleEntry(1.0, delay_s=0.030, bandwidth_bps=2e6),
        ScheduleEntry(2.0, up=False),
        ScheduleEntry(2.5, up=True),
    ])
    sim.run()
    for iface in (link.a_to_b, link.b_to_a):
        assert iface.delay_s == 0.030
        assert iface.bandwidth_bps == 2e6
        assert iface.up is True


def test_schedule_counts_applied_entries_and_change_pending():
    sim = Simulator()
    a, b, link, sink = wire(sim)
    schedule = LinkSchedule(sim, link, [
        ScheduleEntry(1.0, delay_s=0.020),
        ScheduleEntry(2.0, delay_s=0.005),
    ])
    assert schedule.change_pending
    assert not link.a_to_b.fluid_transparent()
    sim.run(until=1.5)
    assert schedule.applied == 1
    assert schedule.change_pending
    sim.run()
    assert schedule.applied == 2
    assert not schedule.change_pending


def test_schedule_down_drops_with_reason_and_no_reroute():
    sim = Simulator()
    a, b, link, sink = wire(sim, bandwidth=1e8, delay=0.001)
    LinkSchedule(sim, link, [
        ScheduleEntry(0.010, up=False),
        ScheduleEntry(0.020, up=True),
    ])
    for t in (0.005, 0.012, 0.018, 0.025):
        sim.call_at(t, a.send, packet())
    sim.run()
    assert len(sink.deliveries) == 2  # before the outage and after
    assert link.a_to_b.drops == {"down": 2}


def test_schedule_min_delay_covers_initial_and_scheduled_values():
    sim = Simulator()
    a, b, link, _ = wire(sim, delay=0.010)
    schedule = LinkSchedule(sim, link, [
        ScheduleEntry(1.0, delay_s=0.002),
        ScheduleEntry(2.0, delay_s=0.050),
    ])
    assert schedule.min_delay_s == 0.002
    assert link.a_to_b.min_delay_s() == 0.002
    assert link.b_to_a.min_delay_s() == 0.002


def test_schedule_validation():
    sim = Simulator()
    a, b, link, _ = wire(sim)
    with pytest.raises(ConfigurationError, match="at least one entry"):
        LinkSchedule(sim, link, [])
    with pytest.raises(ConfigurationError, match="strictly increasing"):
        LinkSchedule(sim, link, [ScheduleEntry(1.0), ScheduleEntry(1.0)])
    with pytest.raises(ConfigurationError, match="non-negative"):
        LinkSchedule(sim, link, [ScheduleEntry(1.0, delay_s=-0.1)])
    with pytest.raises(ConfigurationError, match="positive"):
        LinkSchedule(sim, link, [ScheduleEntry(1.0, bandwidth_bps=0.0)])
    sim.run(until=1.0)
    with pytest.raises(ConfigurationError, match="in the past"):
        LinkSchedule(sim, link, [ScheduleEntry(0.5, delay_s=0.01)])


@pytest.mark.parametrize("entry", [
    ScheduleEntry(float("nan")),
    ScheduleEntry(float("inf")),
    ScheduleEntry(1.0, delay_s=float("nan")),
    ScheduleEntry(1.0, delay_s=float("inf")),
    ScheduleEntry(1.0, bandwidth_bps=float("nan")),
    ScheduleEntry(1.0, bandwidth_bps=float("inf")),
], ids=["at-nan", "at-inf", "delay-nan", "delay-inf", "bandwidth-nan",
        "bandwidth-inf"])
def test_schedule_refuses_non_finite_entries(entry):
    """Every guard fails on NaN, so no NaN or inf reaches the heap or an
    interface."""
    sim = Simulator()
    a, b, link, _ = wire(sim)
    with pytest.raises(ConfigurationError):
        LinkSchedule(sim, link, [entry])


def test_second_schedule_on_same_link_refused():
    sim = Simulator()
    a, b, link, _ = wire(sim)
    LinkSchedule(sim, link, [ScheduleEntry(1.0, delay_s=0.02)])
    with pytest.raises(ConfigurationError, match="already has a schedule"):
        LinkSchedule(sim, link, [ScheduleEntry(2.0, delay_s=0.03)])


def test_cancel_releases_interfaces_and_timers():
    sim = Simulator()
    a, b, link, _ = wire(sim)
    before = sim.pending()
    schedule = LinkSchedule(sim, link, [
        ScheduleEntry(1.0, delay_s=0.020),
        ScheduleEntry(2.0, delay_s=0.030),
    ])
    schedule.cancel()
    assert link.a_to_b.schedule is None
    assert link.b_to_a.schedule is None
    assert not schedule.change_pending
    sim.run()
    assert link.a_to_b.delay_s == 0.010  # nothing fired
    assert sim.pending() == before
    # Released link can be rescheduled.
    LinkSchedule(sim, link, [ScheduleEntry(3.0, delay_s=0.040)])


# ------------------------------------------------ FIFO clamp regression


def test_delay_decrease_does_not_reorder_in_flight_packets():
    """A scheduled delay drop must not let later packets overtake earlier
    ones already propagating (dummynet clamps arrivals; so do we)."""
    sim = Simulator()
    # 10 ms serialisation per packet, 100 ms propagation.
    a, b, link, sink = wire(sim, bandwidth=1e6, delay=0.100)
    # Delay collapses to 1 ms while the first packets are still in flight.
    LinkSchedule(sim, link, [ScheduleEntry(0.015, delay_s=0.001)])
    for _ in range(3):
        a.send(packet())
    sim.run()
    times = [t for t, _ in sink.deliveries]
    seqs = [p.uid for _, p in sink.deliveries]
    # FIFO preserved: uids in send order, arrivals non-decreasing.
    assert seqs == sorted(seqs)
    assert times == sorted(times)
    # First packet: 10 ms serialise + 100 ms propagate. Second finishes
    # serialising at 20 ms, after the step, and would arrive at 21 ms —
    # the clamp holds it to the first packet's 110 ms arrival.
    assert times[0] == pytest.approx(0.110)
    assert times[1] == pytest.approx(0.110)
    # Third keeps the short delay once the pipe has drained: 30 ms + 1 ms
    # would be 31 ms, clamped to 110 ms as well.
    assert times[2] == pytest.approx(0.110)


def test_clamp_never_binds_under_constant_delay():
    """The static path is bit-identical: with a constant delay the clamp
    is inert and delivery times match the classic pipeline schedule."""
    sim = Simulator()
    a, b, link, sink = wire(sim, bandwidth=1e6, delay=0.100)
    for _ in range(2):
        a.send(packet())
    sim.run()
    times = [t for t, _ in sink.deliveries]
    assert times == pytest.approx([0.110, 0.120])


# ------------------------------------- bandwidth mid-packet regression


def test_bandwidth_change_mid_packet_keeps_old_rate_for_in_flight():
    """A rate step never re-times a serialisation in progress: the wire
    hold was computed at transmit start; the new rate applies from the
    next dequeue."""
    sim = Simulator()
    # 1250 B at 1 Mbps = 10 ms serialisation; zero propagation for clarity.
    a, b, link, sink = wire(sim, bandwidth=1e6, delay=0.0)
    # Rate doubles at t=5 ms, halfway through the first packet's hold.
    LinkSchedule(sim, link, [ScheduleEntry(0.005, bandwidth_bps=2e6)])
    a.send(packet())
    a.send(packet())
    sim.run()
    times = [t for t, _ in sink.deliveries]
    # First packet still completes at 10 ms (old rate); the second
    # serialises at 2 Mbps (5 ms) and completes at 15 ms.
    assert times == pytest.approx([0.010, 0.015])


def test_bandwidth_increase_applies_from_next_enqueue_when_idle():
    sim = Simulator()
    a, b, link, sink = wire(sim, bandwidth=1e6, delay=0.0)
    LinkSchedule(sim, link, [ScheduleEntry(0.020, bandwidth_bps=4e6)])
    a.send(packet())                       # 10 ms at the old rate
    sim.call_at(0.030, a.send, packet())   # 2.5 ms at the new rate
    sim.run()
    times = [t for t, _ in sink.deliveries]
    assert times == pytest.approx([0.010, 0.0325])


# ------------------------------------------------------------ CSV trace


def test_load_trace_parses_header_comments_and_sparse_cells(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(
        "t_s,delay_s,bandwidth_bps,up\n"
        "# handover trace\n"
        "0.5,0.030,,\n"
        "1.0,,2000000,down\n"
        "\n"
        "1.5,0.020,,up\n"
    )
    entries = load_trace(str(path))
    assert entries == (
        ScheduleEntry(0.5, 0.030, None, None),
        ScheduleEntry(1.0, None, 2000000.0, False),
        ScheduleEntry(1.5, 0.020, None, True),
    )


def test_load_trace_rejects_bad_rows(tmp_path):
    bad_time = tmp_path / "bad_time.csv"
    bad_time.write_text("0.5,0.03\nnope,0.04\n")
    with pytest.raises(ConfigurationError, match="bad timestamp"):
        load_trace(str(bad_time))
    bad_up = tmp_path / "bad_up.csv"
    bad_up.write_text("0.5,0.03,,sideways\n")
    with pytest.raises(ConfigurationError, match="bad liveness"):
        load_trace(str(bad_up))
    empty = tmp_path / "empty.csv"
    empty.write_text("# nothing\n")
    with pytest.raises(ConfigurationError, match="no entries"):
        load_trace(str(empty))


def test_csv_handover_rows_drop_then_step_the_delay(tmp_path):
    """A handover as csv rows: the link goes dark, then comes back with a
    shorter one-way delay on both directions."""
    path = tmp_path / "handover.csv"
    path.write_text("0.050,,,0\n0.060,0.002,,1\n")
    sim = Simulator()
    a, b, link, sink = wire(sim, bandwidth=1e8, delay=0.010)
    ScheduleSpec.parse(f"csv:path={path}").build(link)
    sim.call_at(0.055, a.send, packet())  # during the outage: dropped
    sim.call_at(0.070, a.send, packet())  # after re-acquiring: 2 ms
    sim.run()
    assert link.a_to_b.drops == {"down": 1}
    assert link.a_to_b.delay_s == link.b_to_a.delay_s == 0.002
    assert len(sink.deliveries) == 1
    t, _ = sink.deliveries[0]
    assert t == pytest.approx(0.070 + 1250 * 8 / 1e8 + 0.002)


# --------------------------------------------------------- LEO synthesis


def test_synthesize_leo_shape():
    entries = synthesize_leo(0.020, period_s=2.0, count=2, outage_s=0.05,
                             amplitude=0.5)
    # Two handovers, two entries each: dark, then re-acquire.
    assert len(entries) == 4
    assert entries[0] == ScheduleEntry(2.0, up=False)
    assert entries[1].at_s == pytest.approx(2.05)
    assert entries[1].delay_s == pytest.approx(0.030)  # 1 + 0.5*1.0
    assert entries[1].up is True
    assert entries[2] == ScheduleEntry(4.0, up=False)
    assert entries[3].delay_s == pytest.approx(0.015)  # 1 + 0.5*(-0.5)


def test_synthesize_leo_bandwidth_dip_alternates():
    entries = synthesize_leo(0.020, period_s=1.0, count=2, outage_s=0.1,
                             bandwidth_bps=8e6, dip=0.5)
    acquires = [e for e in entries if e.up]
    assert acquires[0].bandwidth_bps == pytest.approx(4e6)  # dipped beam
    assert acquires[1].bandwidth_bps == pytest.approx(8e6)  # restored


def test_synthesize_leo_validation():
    with pytest.raises(ConfigurationError):
        synthesize_leo(0.02, period_s=0.0, count=1, outage_s=0.05)
    with pytest.raises(ConfigurationError):
        synthesize_leo(0.02, period_s=1.0, count=1, outage_s=1.5)
    with pytest.raises(ConfigurationError):
        synthesize_leo(0.02, period_s=1.0, count=0, outage_s=0.05)
    with pytest.raises(ConfigurationError):
        synthesize_leo(0.02, period_s=1.0, count=1, outage_s=0.05,
                       amplitude=2.5)


# ---------------------------------------------------------- ScheduleSpec


def test_spec_parse_round_trip(tmp_path):
    spec = ScheduleSpec.parse("leo:period=1.5,count=4,outage=0.08,amp=0.25,"
                              "dip=0.6")
    assert spec == ScheduleSpec(kind="leo", period_s=1.5, count=4,
                                outage_s=0.08, amplitude=0.25, dip=0.6)
    assert ScheduleSpec.parse("leo") == ScheduleSpec(kind="leo")
    # A csv spec is loaded at parse, so its trace must exist.
    trace = tmp_path / "starlink.csv"
    trace.write_text("0.5,0.03\n")
    csv = ScheduleSpec.parse(f"csv:path={trace}")
    assert csv.kind == "csv" and csv.path == str(trace)


def test_spec_parse_rejects_unknown_kind_and_option():
    with pytest.raises(ConfigurationError, match="unknown schedule kind"):
        ScheduleSpec.parse("geo")
    with pytest.raises(ConfigurationError, match="unknown schedule option"):
        ScheduleSpec.parse("leo:phase=3")
    with pytest.raises(ConfigurationError, match="path"):
        ScheduleSpec.parse("csv")


def test_spec_horizon():
    assert ScheduleSpec.parse("leo:period=2.0,count=3,outage=0.05") \
        .horizon_s() == pytest.approx(6.05)


def test_spec_build_scales_instants_delays_and_bandwidths_by_tdf():
    """The virtual trace is TDF-portable: instants and delays multiply by
    the factor, bandwidths divide — exactly the physical_for scaling."""
    spec = ScheduleSpec(kind="leo", period_s=2.0, count=1, outage_s=0.05,
                        amplitude=0.5, dip=0.5)
    schedules = {}
    for tdf in (1, 10):
        sim = Simulator()
        # The physical link for this TDF: perceived 8 Mbps / 20 ms.
        a, b, link, _ = wire(sim, bandwidth=8e6 / tdf, delay=0.020 * tdf)
        schedules[tdf] = spec.build(link, tdf=tdf)
    base, dilated = schedules[1].entries, schedules[10].entries
    assert len(base) == len(dilated) == 2
    for b_entry, d_entry in zip(base, dilated):
        assert d_entry.at_s == pytest.approx(b_entry.at_s * 10)
        if b_entry.delay_s is not None:
            assert d_entry.delay_s == pytest.approx(b_entry.delay_s * 10)
        if b_entry.bandwidth_bps is not None:
            assert d_entry.bandwidth_bps == pytest.approx(
                b_entry.bandwidth_bps / 10
            )
        assert d_entry.up == b_entry.up
    # The perceived values the dilated entries encode match the baseline.
    assert dilated[1].delay_s / 10 == pytest.approx(base[1].delay_s)


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        ScheduleSpec(kind="leo", period_s=-1.0)
    with pytest.raises(ConfigurationError):
        ScheduleSpec(kind="leo", outage_s=5.0)  # outage >= period
    with pytest.raises(ConfigurationError):
        ScheduleSpec(kind="leo", dip=0.0)
    with pytest.raises(ConfigurationError):
        ScheduleSpec(kind="csv")


def test_spec_is_canonically_hashable():
    """ScheduleSpec must ride in cell kwargs: frozen dataclass, canonical
    serialisation stable, distinct specs produce distinct tokens."""
    from repro.harness.runner import canonical

    a = canonical(ScheduleSpec(kind="leo", count=3))
    b = canonical(ScheduleSpec(kind="leo", count=3))
    c = canonical(ScheduleSpec(kind="leo", count=4))
    assert a == b
    assert a != c
