"""Guard: the realtime driver is an observer/pacer, never a mutator.

Enabling the driver for part of a run and then resuming batch execution
must leave the event heap and every result bit-exact — the driver only
decides *when* ``sim.run`` is called, never what it executes. These pins
are what make ``realtime=True`` admissible at all: the paced goldens are
definitionally the batch goldens.
"""

from repro.apps.crosstraffic import CbrSource, UdpSink
from repro.core.dilation import NetworkProfile
from repro.harness.experiments import run_bulk
from repro.realtime.driver import RealtimeConfig, RealtimeDriver
from repro.simnet.topology import Network
from repro.udp.socket import UdpStack


def _build_cbr_world():
    """A deterministic CBR-over-one-link world (no RNG, no wall clock)."""
    net = Network()
    src = net.add_node("src")
    dst = net.add_node("dst")
    net.add_link(src, dst, 1e6, 0.01)
    net.finalize()
    sink = UdpSink(UdpStack(dst), 9000)
    cbr = CbrSource(UdpStack(src), "dst", 9000, rate_bps=4e5,
                    packet_bytes=500)
    cbr.start()
    return net, sink, cbr


def _live_heap(sim):
    """The ``(time, rank, seq)`` keys of the live heap entries.

    An entry is live when it is transient (no Event behind it) or its seq
    still matches its Event's; cancelled and re-keyed entries are not.
    """
    return sorted(
        entry[:3]
        for entry in sim._queue
        if entry[3] is None or entry[2] == entry[3].seq
    )


def test_realtime_then_batch_resume_is_bit_exact():
    # World A: pure batch. World B: paced to the midpoint, batch after.
    net_a, sink_a, cbr_a = _build_cbr_world()
    net_b, sink_b, cbr_b = _build_cbr_world()

    net_a.run(until=0.25)
    driver = RealtimeDriver(net_b.sim)
    driver.run(until=0.25)

    # At the switchover instant the two worlds are indistinguishable:
    # same clock, same executed-event count, same live heap keys.
    assert net_b.sim.now == net_a.sim.now == 0.25
    assert net_b.sim.events_processed == net_a.sim.events_processed
    assert _live_heap(net_b.sim) == _live_heap(net_a.sim)
    assert sink_b.bytes_received == sink_a.bytes_received

    # Batch resume: world B continues without the driver.
    net_a.run(until=0.6)
    net_b.run(until=0.6)
    assert net_b.sim.events_processed == net_a.sim.events_processed
    assert _live_heap(net_b.sim) == _live_heap(net_a.sim)
    assert sink_b.bytes_received == sink_a.bytes_received
    assert cbr_b.packets_sent == cbr_a.packets_sent

    # And the driver can take over again mid-stream (batch -> realtime ->
    # batch -> realtime), still bit-exact.
    net_a.run(until=0.8)
    driver.run(until=0.8)
    assert net_b.sim.events_processed == net_a.sim.events_processed
    assert _live_heap(net_b.sim) == _live_heap(net_a.sim)


def test_run_bulk_realtime_matches_batch_exactly():
    # The harness-level version of the same guard: a paced run_bulk is
    # field-for-field identical to the batch run (small enough that the
    # paced run costs well under a second of wall clock at TDF 1).
    profile = NetworkProfile.from_rtt(5e6, 0.02)
    kwargs = dict(duration_s=0.4, warmup_s=0.1)
    batch = run_bulk(profile, 1, **kwargs)
    paced = run_bulk(profile, 1, realtime=True, **kwargs)
    assert paced.events_processed == batch.events_processed
    assert paced.goodput_bps == batch.goodput_bps
    assert paced.delivered_bytes == batch.delivered_bytes
    assert paced.segments_sent == batch.segments_sent
    assert paced.retransmits == batch.retransmits
    assert paced.srtt == batch.srtt
    assert batch.realtime_stats == {}
    assert paced.realtime_stats["events"] > 0
    assert paced.realtime_stats["wall_s"] > 0.3  # genuinely wall-paced


def test_run_bulk_accepts_realtime_config():
    profile = NetworkProfile.from_rtt(5e6, 0.02)
    config = RealtimeConfig(miss_threshold_s=0.05, catchup="drop")
    batch = run_bulk(profile, 1, duration_s=0.2)
    paced = run_bulk(profile, 1, duration_s=0.2, realtime=config)
    assert paced.events_processed == batch.events_processed
    assert paced.realtime_stats["wall_s"] > 0.15
