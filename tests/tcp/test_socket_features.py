"""Feature tests: Nagle, delayed ACKs, half-close, simultaneous open."""

import pytest

from repro.simnet.units import mbps, ms
from repro.tcp import CLOSE_WAIT, ESTABLISHED, FIN_WAIT_2, TcpOptions
from tests.helpers import Collector, two_hosts


class TestNagle:
    def capture_data_segments(self, nagle, writes, until=2.0):
        net, a, b, sa, sb, link = two_hosts(
            bandwidth_bps=mbps(10), delay_s=ms(20),
            tcp_options=TcpOptions(nagle=nagle),
        )
        events = Collector()
        sb.listen(80, events.on_accept, on_data=events.on_data)
        segments = []
        link.a_to_b.add_tap(
            lambda kind, iface, p, reason: segments.append(p.payload)
            if kind == "tx" and p.payload.length > 0 else None
        )
        client = sa.connect("b", 80, on_connected=lambda s: None)

        def write_all():
            for size in writes:
                client.send(size)

        net.run(until=0.5)  # establish first
        write_all()
        net.run(until=until)
        return segments, events

    def test_nagle_coalesces_small_writes(self):
        # 20 tiny writes; with Nagle only the first goes out sub-MSS, the
        # rest wait and coalesce into far fewer segments.
        segments, events = self.capture_data_segments(True, [100] * 20)
        assert events.total_bytes == 2000
        small = [s for s in segments if s.length < 1460]
        coalesced = [s for s in segments if s.length > 100]
        assert len(segments) < 20
        assert coalesced

    def test_without_nagle_each_write_is_a_segment(self):
        segments, events = self.capture_data_segments(False, [100] * 20)
        assert events.total_bytes == 2000
        assert len([s for s in segments if s.length == 100]) == 20


class TestDelayedAck:
    def count_acks(self, delayed_ack_timeout, payload=1460, writes=1):
        net, a, b, sa, sb, link = two_hosts(
            bandwidth_bps=mbps(10), delay_s=ms(5),
            tcp_options=TcpOptions(delayed_ack_timeout=delayed_ack_timeout),
        )
        events = Collector()
        sb.listen(80, events.on_accept, on_data=events.on_data)
        acks = []
        link.b_to_a.add_tap(
            lambda kind, iface, p, reason: acks.append(
                (iface.sim.now, p.payload))
            if kind == "tx" and p.payload.length == 0 and not p.payload.syn
            else None
        )
        client = sa.connect("b", 80)
        net.run(until=0.5)
        for _ in range(writes):
            client.send(payload)
        net.run(until=2.0)
        return acks, events

    def test_single_segment_ack_is_delayed(self):
        acks, _ = self.count_acks(delayed_ack_timeout=0.040)
        # The data ACK comes ~40 ms after the segment arrived, not at once.
        data_acks = [t for t, s in acks if s.ack > 1]
        assert data_acks
        # Arrival at ~0.5 + prop+ser; the ACK fires one delack later.
        assert data_acks[0] > 0.5 + 0.005 + 0.030

    def test_second_segment_forces_immediate_ack(self):
        acks_two, _ = self.count_acks(delayed_ack_timeout=0.040, writes=2)
        data_acks = [t for t, s in acks_two if s.ack > 1]
        assert data_acks
        assert data_acks[0] < 0.5 + 0.040  # no delack wait

    def test_zero_timeout_acks_everything_immediately(self):
        acks, _ = self.count_acks(delayed_ack_timeout=0.0, writes=3)
        data_acks = [s for t, s in acks if s.ack > 1]
        assert len(data_acks) >= 3


class TestHalfClose:
    def test_sender_closes_receiver_keeps_talking(self):
        """Client FINs; the server may still stream data back (half-close),
        then close its own side."""
        net, a, b, sa, sb, _ = two_hosts(tcp_options=TcpOptions(msl=0.1))
        server_side = {}
        client_events = Collector()

        def on_accept(sock):
            server_side["sock"] = sock

        def on_close_server(sock):
            # Client finished sending; stream our response, then close.
            sock.send(50_000)
            sock.close()

        sb.listen(80, on_accept, on_close=on_close_server)
        client = sa.connect("b", 80, on_data=client_events.on_data,
                            on_close=client_events.on_close)
        client.send(1000)
        client.close()
        net.run(until=1.0)
        assert client.state in (FIN_WAIT_2, "TIME_WAIT", "CLOSED")
        net.run(until=10.0)
        assert client_events.total_bytes == 50_000
        assert len(client_events.closed) == 1
        assert client.state == "CLOSED"

    def test_close_wait_side_can_send(self):
        net, a, b, sa, sb, _ = two_hosts()
        holder = {}
        sb.listen(80, lambda s: holder.setdefault("sock", s))
        client_events = Collector()
        client = sa.connect("b", 80, on_data=client_events.on_data)
        client.close()
        net.run(until=0.5)
        server_sock = holder["sock"]
        assert server_sock.state == CLOSE_WAIT
        server_sock.send(2000)  # legal in CLOSE_WAIT
        net.run(until=2.0)
        assert client_events.total_bytes == 2000


class TestSimultaneousOpen:
    def test_both_ends_connect_at_once(self):
        net, a, b, sa, sb, _ = two_hosts()
        events_a, events_b = Collector(), Collector()
        # Both actively connect to each other's fixed port at t=0.
        sock_a = sa.connect("b", 7000, local_port=7000,
                            on_connected=events_a.on_connected)
        sock_b = sb.connect("a", 7000, local_port=7000,
                            on_connected=events_b.on_connected)
        net.run(until=5.0)
        assert sock_a.state == ESTABLISHED
        assert sock_b.state == ESTABLISHED
