"""Tests for the RFC 7323 timestamps option."""

import pytest

from repro.simnet.units import mbps, ms
from repro.tcp import TcpOptions
from repro.tcp.segment import Segment
from tests.helpers import Collector, two_hosts


def run_transfer(timestamps, bandwidth=mbps(50), rtt=ms(40), until=3.0,
                 loss_fn=None):
    net, a, b, sa, sb, link = two_hosts(
        bandwidth_bps=bandwidth, delay_s=rtt / 2,
        tcp_options=TcpOptions(timestamps=timestamps),
    )
    events = Collector()
    sb.listen(80, events.on_accept, on_data=events.on_data)
    if loss_fn is not None:
        link.a_to_b.set_loss(loss_fn)
    client = sa.connect("b", 80)
    client.send(20_000_000)
    net.run(until=until)
    return events, client, link


def test_segments_carry_timestamps_on_wire():
    seen = []
    net, a, b, sa, sb, link = two_hosts(
        tcp_options=TcpOptions(timestamps=True))
    # 'tx' on the a->b interface observes the client's data segments.
    link.a_to_b.add_tap(
        lambda kind, iface, p, reason: seen.append(p.payload) if kind == "tx" else None
    )
    events = Collector()
    sb.listen(80, events.on_accept, on_data=events.on_data)
    client = sa.connect("b", 80)
    client.send(10_000)
    net.run(until=2.0)
    data = [s for s in seen if s.length > 0]
    assert data and all(s.ts_val is not None for s in data)
    # After the handshake, data segments echo the peer's timestamps.
    assert any(s.ts_ecr is not None for s in data)


def test_timestamps_disabled_leaves_fields_none():
    seen = []
    net, a, b, sa, sb, link = two_hosts(tcp_options=TcpOptions())
    link.a_to_b.add_tap(
        lambda kind, iface, p, reason: seen.append(p.payload) if kind == "tx" else None
    )
    link.b_to_a.add_tap(
        lambda kind, iface, p, reason: seen.append(p.payload) if kind == "tx" else None
    )
    events = Collector()
    sb.listen(80, events.on_accept, on_data=events.on_data)
    client = sa.connect("b", 80)
    client.send(10_000)
    net.run(until=2.0)
    assert all(s.ts_val is None and s.ts_ecr is None for s in seen)


def test_many_rtt_samples_per_flight():
    """RTTM takes a sample on every advancing ACK, so the sample count
    dwarfs the one-per-flight count of the timed-segment method."""
    events_ts, client_ts, _ = run_transfer(timestamps=True)
    events_plain, client_plain, _ = run_transfer(timestamps=False)
    assert events_ts.total_bytes > 0
    assert client_ts.rtt.samples > 5 * client_plain.rtt.samples


def test_srtt_converges_to_path_rtt():
    _, client, _ = run_transfer(timestamps=True)
    assert client.rtt.srtt == pytest.approx(0.040, rel=0.5)


def test_transfer_completes_with_loss_and_timestamps():
    dropped = set()

    def drop_some(packet):
        segment = packet.payload
        if (
            segment.length > 0
            and 100_000 < segment.seq < 160_000
            and segment.seq not in dropped
            and (segment.seq // 1460) % 2 == 0
        ):
            dropped.add(segment.seq)
            return True
        return False

    events, client, _ = run_transfer(
        timestamps=True, until=20.0, loss_fn=drop_some
    )
    assert events.total_bytes == 20_000_000
    assert client.retransmits > 0
    assert dropped


def test_timestamp_option_charged_on_wire():
    with_ts = Segment(src_port=1, dst_port=2, length=100, ts_val=1.0, ts_ecr=0.5)
    without = Segment(src_port=1, dst_port=2, length=100)
    assert with_ts.wire_bytes == without.wire_bytes + 12


def test_dilated_timestamps_are_virtual():
    """Inside TDF-10 guests, on-wire TSval advances at 1/10 physical rate."""
    from repro.core.vmm import Hypervisor
    from repro.simnet.topology import Network
    from repro.tcp.stack import TcpStack

    net = Network()
    a = net.add_node("a")
    b = net.add_node("b")
    link = net.add_link(a, b, mbps(10), ms(5))
    net.finalize()
    vmm = Hypervisor(net.sim)
    vmm.create_vm("vma", tdf=10, cpu_share=0.5, node=a)
    vmm.create_vm("vmb", tdf=10, cpu_share=0.5, node=b)
    options = TcpOptions(timestamps=True)
    stamps = []
    link.a_to_b.add_tap(
        lambda kind, iface, p, reason: stamps.append(
            (iface.sim.now, p.payload.ts_val))
        if kind == "tx" and p.payload.ts_val is not None else None
    )
    received = {"n": 0}
    TcpStack(b, default_options=options).listen(
        80, lambda s: None,
        on_data=lambda s, n: received.__setitem__("n", received["n"] + n))
    TcpStack(a, default_options=options).connect("b", 80).send(1_000_000)
    net.run(until=10.0)
    assert len(stamps) > 10
    (t0, v0), (t1, v1) = stamps[0], stamps[-1]
    assert (v1 - v0) == pytest.approx((t1 - t0) / 10, rel=0.05)
