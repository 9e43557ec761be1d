"""Unit and property tests for the fluid flow-level fast path.

The contract under test: with a :class:`~repro.simnet.fluid.FluidManager`
installed, a bulk flow's *delivered bytes* are identical to the packet-only
run (byte conservation across every mode switch), the ``fluid.*`` counters
tell the truth, non-transparent paths are never admitted, and randomly
timed impairment-triggered demotions/promotions never corrupt the stream.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dilation import NetworkProfile
from repro.harness.experiments import run_bulk
from repro.simnet import fluid
from repro.simnet.fluid import FluidFlow, FluidManager, _slots_full
from repro.simnet.impairments import ImpairmentChain
from repro.simnet.units import mbps, ms
from repro.stats.engineprof import profiled
from repro.tcp import TcpOptions
from tests.helpers import Collector, two_hosts


def _bulk(
    total=6_000_000,
    fluid=False,
    bandwidth_bps=mbps(20),
    delay_s=ms(20),
    queue_packets=60,
    until=30.0,
):
    """One backlogged transfer; returns (net, link, events, client, done_at).

    ``done_at`` is a 1-element list that records the virtual time at which
    the final byte was delivered (None if the horizon cut the transfer).
    """
    options = TcpOptions(receive_buffer=1 << 20)
    net, a, b, sa, sb, link = two_hosts(
        bandwidth_bps=bandwidth_bps, delay_s=delay_s,
        queue_packets=queue_packets, tcp_options=options,
    )
    if fluid:
        FluidManager(net.sim)
    events = Collector()
    done_at = [None]

    def on_data(sock, n):
        events.data.append(n)
        if events.total_bytes >= total and done_at[0] is None:
            done_at[0] = net.sim.now

    sb.listen(80, events.on_accept, on_data=on_data)
    client = sa.connect("b", 80)
    client.send(total)
    net.run(until=until)
    return net, link, events, client, done_at


def test_delivered_bytes_identical_to_packet_run():
    _, _, packet_events, _, packet_done = _bulk(fluid=False)
    net, _, fluid_events, _, fluid_done = _bulk(fluid=True)
    assert fluid_events.total_bytes == packet_events.total_bytes
    assert net.sim.counters.get("fluid.entries", 0) >= 1
    assert packet_done[0] is not None and fluid_done[0] is not None


def test_completion_time_close_to_packet_run():
    _, _, _, _, packet_done = _bulk(fluid=False)
    _, _, _, _, fluid_done = _bulk(fluid=True)
    assert fluid_done[0] == pytest.approx(packet_done[0], rel=0.05)


def test_conservation_checked_and_never_violated():
    net, _, _, _, _ = _bulk(fluid=True)
    counters = net.sim.counters
    assert counters.get("fluid.conservation_checks", 0) > 0
    assert counters.get("fluid.conservation_failures", 0) == 0


def test_counters_taxonomy():
    net, _, _, _, _ = _bulk(fluid=True)
    counters = net.sim.counters
    entries = counters.get("fluid.entries", 0)
    exits = counters.get("fluid.exits", 0)
    assert entries >= 1
    # Every exit is attributed to exactly one reason.
    by_reason = sum(v for k, v in counters.items()
                    if k.startswith("fluid.exit."))
    assert by_reason == exits
    assert counters.get("fluid.events_saved", 0) > 0
    # The transfer finished packet-level (tail exit), so no flow remains.
    assert counters.get("fluid.flows_active", -1) == 0


def test_events_saved_is_real():
    """The hybrid run must execute far fewer engine events."""
    packet_net, _, _, _, _ = _bulk(fluid=False)
    fluid_net, _, _, _, _ = _bulk(fluid=True)
    assert fluid_net.sim.events_processed < packet_net.sim.events_processed
    saved = fluid_net.sim.counters.get("fluid.events_saved", 0)
    # The ledger's estimate should be in the ballpark of the true gap.
    true_gap = (packet_net.sim.events_processed
                - fluid_net.sim.events_processed)
    assert saved == pytest.approx(true_gap, rel=0.5)


def test_impaired_path_never_admitted():
    options = TcpOptions(receive_buffer=1 << 20)
    net, a, b, sa, sb, link = two_hosts(
        bandwidth_bps=mbps(20), delay_s=ms(10), queue_packets=60,
        tcp_options=options,
    )
    FluidManager(net.sim)
    # Any impairment chain — even an empty, no-op one — makes the hop
    # non-transparent: per-packet decisions cannot run in closed form.
    link.a_to_b.set_impairments(ImpairmentChain())
    events = Collector()
    sb.listen(80, events.on_accept, on_data=events.on_data)
    client = sa.connect("b", 80)
    client.send(1_000_000)
    net.run(until=20.0)
    assert events.total_bytes == 1_000_000
    assert net.sim.counters.get("fluid.entries", 0) == 0


def test_mid_run_impairment_demotes_flow():
    net, link, events, _, _ = _bulk(fluid=True, total=40_000_000, until=0.0)
    # Let the flow enter fluid mode, then impair the path mid-transfer
    # (t=2.0 sits inside the first fluid residency for this topology).
    net.run(until=2.0)
    assert net.sim.counters.get("fluid.flows_active", 0) == 1
    link.a_to_b.set_impairments(ImpairmentChain())
    net.run(until=60.0)
    counters = net.sim.counters
    assert counters.get("fluid.exit.path", 0) >= 1
    assert counters.get("fluid.fallbacks", 0) >= 1
    assert events.total_bytes == 40_000_000


def test_flight_recorder_sees_mode_transitions():
    """Every fluid entry/exit lands in an attached flight recorder as a
    ``tcp/fluid`` event, with exits carrying their reason string."""
    from repro.trace.recorder import FlightRecorder

    net, _, _, client, _ = _bulk(fluid=True, until=0.0)
    recorder = FlightRecorder(capacity=None, name="fluid-test")
    recorder.attach_socket(client)
    net.run(until=30.0)

    transitions = [e for e in recorder.snapshot()
                   if e.category == "tcp" and e.kind == "fluid"]
    enters = [e for e in transitions if e.reason == "enter"]
    exits = [e for e in transitions if e.reason.startswith("exit:")]
    counters = net.sim.counters
    assert len(enters) == counters["fluid.entries"] >= 1
    assert len(exits) == counters["fluid.exits"] >= 1
    # Transitions alternate: a flow cannot enter twice without exiting.
    kinds = ["enter" if e.reason == "enter" else "exit"
             for e in sorted(transitions, key=lambda e: e.physical_time)]
    assert kinds == ["enter", "exit"] * (len(kinds) // 2)
    # The recorded reasons match the counter taxonomy.
    for event in exits:
        reason = event.reason.split(":", 1)[1]
        assert counters.get(f"fluid.exit.{reason}", 0) >= 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_property_random_impairment_transitions_conserve_bytes(seed):
    """N randomly timed impairment toggles force mode transitions; the
    delivered byte count must be exactly the packet run's, completion
    within tolerance, and conservation never violated.

    The toggled chain is *empty* (drops nothing, delays nothing), so the
    packet-level truth is independent of the schedule — only the hybrid
    engine's mode switching is exercised by it.
    """
    rng = random.Random(seed)
    toggles = sorted(rng.uniform(1.0, 14.0) for _ in range(rng.randint(4, 8)))

    _, _, packet_events, _, packet_done = _bulk(
        fluid=False, total=40_000_000, until=60.0,
    )

    net, link, events, _, done_at = _bulk(fluid=True, total=40_000_000,
                                          until=0.0)
    impaired = [False]

    def toggle():
        impaired[0] = not impaired[0]
        chain = ImpairmentChain() if impaired[0] else None
        link.a_to_b.set_impairments(chain)

    for at in toggles:
        net.sim.schedule(at, toggle)
    net.run(until=60.0)

    counters = net.sim.counters
    assert events.total_bytes == packet_events.total_bytes
    assert counters.get("fluid.conservation_failures", 0) == 0
    assert counters.get("fluid.entries", 0) >= 1
    assert done_at[0] is not None
    assert done_at[0] == pytest.approx(packet_done[0], rel=0.10)


# ------------------------------------------------------- O(1) slot check

MSS = 1460


def _reference_slots_full(pipeline, pkt_margin, overhead, queued_wire):
    """The loss-imminent slot check as a walk back over the pipeline.

    The bottleneck queue holds the newest segments; walk from the back,
    accumulating wire bytes until the queued excess is covered, and report
    loss-imminent once ``pkt_margin`` segments were needed.
    """
    if pkt_margin is None or not queued_wire > 0.0:
        return False
    acc = 0.0
    count = 0
    for payload in reversed(pipeline):
        if acc >= queued_wire:
            break
        acc += payload + overhead
        count += 1
        if count >= pkt_margin:
            return True
    return False


@settings(max_examples=300, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.just(MSS),  # full segment
            st.integers(1, MSS - 1),  # runt
            st.none(),  # pop the front (one segment reached the receiver)
        ),
        max_size=160,
    ),
    pkt_margin=st.one_of(st.none(), st.integers(-2, 40)),
    overhead=st.integers(0, 100),
    queued_wire=st.one_of(
        st.floats(-5_000.0, 80_000.0, allow_nan=False),
        st.integers(-5_000, 80_000).map(float),
    ),
)
def test_slot_check_matches_reference_walk(ops, pkt_margin, overhead,
                                           queued_wire):
    flow = FluidFlow.__new__(FluidFlow)
    flow._overhead = overhead
    flow._init_pipeline(pkt_margin)
    q = flow._segq
    for op in ops:
        if op is None:
            if not q:
                continue
            # The replay loop's pop: flight bookkeeping only.
            payload = q.popleft()
            flow._flight_payload -= payload
            flow._flight_wire -= payload + overhead
        else:
            flow._push_segment(op)
        pipeline = list(q)
        assert flow._flight_payload == sum(pipeline)
        assert flow._flight_wire == sum(pipeline) + len(pipeline) * overhead
        tail_len = flow._tail_len
        if len(pipeline) > tail_len:
            # Exact whenever the slot check can read it.
            assert flow._tail_payload == sum(pipeline[len(pipeline) - tail_len:])
        # The drawn excess, and the excesses on either side of the exact
        # boundary where the newest pkt_margin - 1 segments cover it.
        boundary = sum(pipeline[len(pipeline) - tail_len:]) + tail_len * overhead
        for excess in (queued_wire, boundary - 1.0, boundary - 0.5,
                       float(boundary), boundary + 0.5, boundary + 1.0):
            fast = pkt_margin is not None and _slots_full(
                len(q), flow._tail_payload, tail_len, overhead, excess
            )
            assert fast == _reference_slots_full(
                pipeline, pkt_margin, overhead, excess
            )


def test_replay_loop_slot_check_matches_walk_on_every_ack(monkeypatch):
    """The replay loop keeps the pipeline length and tail sum in locals;
    on a cell where the slot check fires, check every evaluation against
    the live pipeline and the reference walk."""
    stepping = []
    evaluations = []
    step = FluidFlow._step
    slots_full = fluid._slots_full

    def tracked_step(flow):
        stepping.append(flow)
        try:
            step(flow)
        finally:
            stepping.pop()

    def checked_slots_full(count, tail_payload, tail_len, overhead,
                           queued_wire):
        flow = stepping[-1]
        pipeline = list(flow._segq)
        assert count == len(pipeline)
        assert tail_len == flow._tail_len
        if count > tail_len:
            assert tail_payload == sum(pipeline[count - tail_len:])
        result = slots_full(count, tail_payload, tail_len, overhead,
                            queued_wire)
        assert result == _reference_slots_full(
            pipeline, flow._pkt_margin, overhead, queued_wire
        )
        evaluations.append(result)
        return result

    monkeypatch.setattr(FluidFlow, "_step", tracked_step)
    monkeypatch.setattr(fluid, "_slots_full", checked_slots_full)
    run_bulk(NetworkProfile.from_rtt(mbps(20), ms(40)), 1, duration_s=8.0,
             warmup_s=2.0, fidelity="hybrid", queue_packets=20)
    assert len(evaluations) > 1000
    assert any(evaluations)


#: (bandwidth_mbps, rtt_ms, queue_packets) -> outputs of the per-ACK
#: pipeline walk that the O(1) slot check replaced. The first is the fig3
#: cell (BDP-sized queue), where the byte margin ends each fluid spell;
#: the 20-packet queue of the second makes the slot check itself fire.
HYBRID_PINS = {
    (50, 20, None): dict(goodput_bps=47208089.333333336, events=102864,
                         steps=236, entries=3, exits=2, checks=238),
    (20, 40, 20): dict(goodput_bps=17543986.666666668, events=45209,
                       steps=196, entries=3, exits=2, checks=198),
}


@pytest.mark.parametrize("cell", sorted(HYBRID_PINS, key=str))
def test_hybrid_cell_pinned(cell):
    bandwidth_mbps, rtt_ms, queue_packets = cell
    pin = HYBRID_PINS[cell]
    with profiled() as profiler:
        result = run_bulk(
            NetworkProfile.from_rtt(mbps(bandwidth_mbps), ms(rtt_ms)), 1,
            duration_s=8.0, warmup_s=2.0, fidelity="hybrid",
            queue_packets=queue_packets,
        )
    counters = profiler.counters()
    assert result.goodput_bps == pin["goodput_bps"]
    assert result.events_processed == pin["events"]
    assert counters["fluid.steps"] == pin["steps"]
    assert counters["fluid.entries"] == pin["entries"]
    assert counters["fluid.exits"] == pin["exits"]
    assert counters["fluid.exit.loss-imminent"] == pin["exits"]
    assert counters["fluid.conservation_checks"] == pin["checks"]
    assert counters.get("fluid.conservation_failures", 0) == 0
