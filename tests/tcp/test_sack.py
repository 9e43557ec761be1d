"""Tests for SACK generation and scoreboard-driven recovery."""

import pytest

from repro.simnet.units import mbps, ms
from repro.tcp import TcpOptions
from repro.tcp.buffers import ReceiveAssembler
from repro.tcp.socket import _merge_interval, _total_bytes, _trim_below
from tests.helpers import Collector, two_hosts


class TestIntervalHelpers:
    def test_merge_disjoint(self):
        assert _merge_interval([(0, 5)], 10, 15) == [(0, 5), (10, 15)]

    def test_merge_overlapping(self):
        assert _merge_interval([(0, 5), (10, 15)], 4, 11) == [(0, 15)]

    def test_merge_adjacent(self):
        assert _merge_interval([(0, 5)], 5, 8) == [(0, 8)]

    def test_merge_empty_range_noop(self):
        assert _merge_interval([(0, 5)], 7, 7) == [(0, 5)]

    def test_trim(self):
        assert _trim_below([(0, 5), (8, 12)], 3) == [(3, 5), (8, 12)]
        assert _trim_below([(0, 5)], 5) == []

    def test_total(self):
        assert _total_bytes([(0, 5), (8, 12)]) == 9


class TestSackBlocks:
    def test_no_ooo_no_blocks(self):
        asm = ReceiveAssembler(10000)
        asm.accept(0, 100, [])
        assert asm.sack_blocks() == []

    def test_most_recent_first(self):
        asm = ReceiveAssembler(100000)
        asm.accept(100, 50, [])   # hole at [0,100)
        asm.accept(300, 50, [])
        asm.accept(500, 50, [])
        assert asm.sack_blocks()[0] == (500, 550)
        assert set(asm.sack_blocks()) == {(100, 150), (300, 350), (500, 550)}

    def test_merge_moves_to_front(self):
        asm = ReceiveAssembler(100000)
        asm.accept(100, 50, [])
        asm.accept(300, 50, [])
        asm.accept(150, 50, [])  # extends the first range
        assert asm.sack_blocks()[0] == (100, 200)

    def test_limit_four(self):
        asm = ReceiveAssembler(1000000)
        for i in range(1, 8):
            asm.accept(i * 100, 50, [])
        assert len(asm.sack_blocks()) == 4
        # Most recent range first.
        assert asm.sack_blocks()[0] == (700, 750)

    def test_delivered_ranges_leave_recency(self):
        asm = ReceiveAssembler(100000)
        asm.accept(100, 100, [])
        asm.accept(0, 100, [])  # fills the hole; ooo absorbed
        assert asm.sack_blocks() == []


class TestSackRecovery:
    def run_lossy_transfer(self, sack, drop_range=(300_000, 500_000),
                           bandwidth=mbps(100), rtt=ms(40), until=6.0):
        """Drop the first copy of every segment in a range (wide burst);
        retransmissions pass. Returns (delivered_bytes, client)."""
        net, a, b, sa, sb, link = two_hosts(
            bandwidth_bps=bandwidth, delay_s=rtt / 2,
            tcp_options=TcpOptions(sack=sack),
        )
        events = Collector()
        sb.listen(80, events.on_accept, on_data=events.on_data)
        dropped_seqs = set()

        def drop_burst(packet):
            # Two of every three first copies in the range are lost; the
            # survivors carry the SACK information recovery feeds on. (A
            # 100% flight loss would correctly force an RTO even with SACK.)
            segment = packet.payload
            if (
                segment.length > 0
                and drop_range[0] < segment.seq < drop_range[1]
                and segment.seq not in dropped_seqs
                and (segment.seq // 1460) % 3 != 0
            ):
                dropped_seqs.add(segment.seq)
                return True
            return False

        link.a_to_b.set_loss(drop_burst)
        client = sa.connect("b", 80)
        client.send(5_000_000)
        net.run(until=until)
        return events.total_bytes, client

    def test_wide_burst_repaired_without_rto(self):
        delivered, client = self.run_lossy_transfer(sack=True)
        assert delivered == 5_000_000
        assert client.timeouts == 0
        assert client.retransmits > 50  # the burst really was wide

    def test_sack_much_faster_than_newreno_on_burst(self):
        """The reason SACK exists: NewReno repairs one hole per RTT."""
        delivered_sack, client_sack = self.run_lossy_transfer(sack=True, until=4.0)
        delivered_nr, client_nr = self.run_lossy_transfer(sack=False, until=4.0)
        assert delivered_sack > 1.5 * delivered_nr

    def test_sack_single_loss(self):
        delivered, client = self.run_lossy_transfer(
            sack=True, drop_range=(30_000, 31_500))
        assert delivered == 5_000_000
        assert client.timeouts == 0

    def test_sack_acks_carry_blocks_on_wire(self):
        net, a, b, sa, sb, link = two_hosts(tcp_options=TcpOptions(sack=True))
        events = Collector()
        sb.listen(80, events.on_accept, on_data=events.on_data)
        seen_blocks = []

        def tap(kind, iface, packet, reason):
            segment = packet.payload
            if kind == "rx" and segment.sack:
                seen_blocks.append(segment.sack)

        link.a_to_b.add_tap(tap)  # ACK direction is b->a; rx on a side taps a_to_b? no
        link.b_to_a.add_tap(tap)
        state = {"dropped": False}

        def drop_one(packet):
            if packet.payload.length > 0 and not state["dropped"] \
                    and packet.payload.seq > 20_000:
                state["dropped"] = True
                return True
            return False

        link.a_to_b.set_loss(drop_one)
        client = sa.connect("b", 80)
        client.send(200_000)
        net.run(until=10.0)
        assert events.total_bytes == 200_000
        assert seen_blocks, "no SACK blocks observed on the wire"

    def test_sack_disabled_sends_no_blocks(self):
        net, a, b, sa, sb, link = two_hosts(tcp_options=TcpOptions(sack=False))
        events = Collector()
        sb.listen(80, events.on_accept, on_data=events.on_data)
        seen = []
        link.b_to_a.add_tap(
            lambda kind, iface, p, reason: seen.append(p.payload.sack)
            if kind == "rx" else None
        )
        client = sa.connect("b", 80)
        client.send(50_000)
        net.run(until=5.0)
        assert all(blocks == () for blocks in seen)
