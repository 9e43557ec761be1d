"""Segment-level unit tests: drive one socket with fabricated segments.

These cover paths that are hard to reach through a real network — the
zero-window persist timer, RST handling, duplicate-ACK classification
rules — by capturing what the socket emits and injecting crafted replies.
"""

import pytest

from repro.simnet.topology import Network
from repro.tcp import CLOSED, ESTABLISHED, TcpOptions
from repro.tcp.segment import Segment
from repro.tcp.stack import TcpStack


class Harness:
    """One socket whose peer is played by the test."""

    def __init__(self, options=None):
        self.net = Network()
        self.node = self.net.add_node("a")
        self.stack = TcpStack(self.node, default_options=options)
        self.sent = []
        self.node.send = lambda packet: self.sent.append(packet.payload)
        self.errors = []
        self.sock = self.stack.connect(
            "peer", 80, on_error=lambda s, e: self.errors.append(e)
        )

    def establish(self, window=1 << 20):
        synack = Segment(
            src_port=80, dst_port=self.sock.local_port,
            seq=0, ack=1, syn=True, ack_flag=True, window=window,
        )
        self.sock.handle_segment(synack)
        assert self.sock.state == ESTABLISHED
        self.sent.clear()

    def ack(self, ack, window=1 << 20, sack=()):
        self.sock.handle_segment(
            Segment(src_port=80, dst_port=self.sock.local_port,
                    seq=1, ack=ack, ack_flag=True, window=window, sack=sack)
        )

    def data_segments(self):
        return [s for s in self.sent if s.length > 0]


def test_syn_carries_no_ack():
    h = Harness()
    assert h.sent[0].syn and not h.sent[0].ack_flag


def test_rst_closes_and_reports():
    h = Harness()
    h.establish()
    h.sock.handle_segment(
        Segment(src_port=80, dst_port=h.sock.local_port, rst=True)
    )
    assert h.sock.state == CLOSED
    assert len(h.errors) == 1


def test_zero_window_arms_persist_probe():
    h = Harness()
    h.establish()
    h.ack(1, window=0)  # peer slams the window shut
    h.sock.send(5000)
    assert h.data_segments() == []  # nothing may be sent
    # The persist timer fires after one RTO and emits a 1-byte probe.
    h.net.run(until=h.sock.rtt.rto + 0.1)
    probes = h.data_segments()
    assert len(probes) == 1
    assert probes[0].length == 1
    # The window stays shut: the re-armed timer probes again, re-sending
    # the same byte once the RTO has rewound it.
    h.net.run(until=2.1)
    probes = h.data_segments()
    assert len(probes) == 2
    assert probes[1].length == 1 and probes[1].seq == probes[0].seq
    assert h.sock._persist_event.active


def test_window_reopen_releases_data():
    h = Harness()
    h.establish()
    h.ack(1, window=0)
    h.sock.send(5000)
    assert h.data_segments() == []
    h.ack(1, window=1 << 20)  # window update
    # Release is still congestion-window limited: exactly the RFC 3390
    # initial window (4380 bytes) goes out, not the whole 5000.
    assert sum(s.length for s in h.data_segments()) == 4380


def test_three_dupacks_trigger_fast_retransmit():
    h = Harness(options=TcpOptions(sack=False))
    h.establish()
    h.sock.send(50_000)
    first = h.data_segments()[0]
    h.sent.clear()
    for _ in range(3):
        h.ack(1)  # three pure duplicates of the handshake ack
    emitted = h.data_segments()
    # Dupacks 1 and 2 release NEW data (limited transmit, RFC 3042);
    # the third triggers the retransmission of the first segment.
    assert emitted[-1].seq == first.seq
    assert all(s.seq > first.seq for s in emitted[:-1])
    assert h.sock._in_recovery


def test_dupack_requires_unchanged_window():
    h = Harness(options=TcpOptions(sack=False))
    h.establish()
    h.sock.send(50_000)
    h.sent.clear()
    # Same ack value but a different advertised window each time: these are
    # window updates, not duplicate ACKs (RFC 5681).
    for window in ((1 << 20) - 1, (1 << 20) - 2, (1 << 20) - 3):
        h.ack(1, window=window)
    assert not h.sock._in_recovery
    assert h.sock._dupacks == 0


def test_dupacks_ignored_with_nothing_in_flight():
    h = Harness()
    h.establish()
    for _ in range(5):
        h.ack(1)
    assert h.sock._dupacks == 0


def test_ack_beyond_high_water_ignored():
    h = Harness()
    h.establish()
    h.sock.send(1000)
    h.ack(999_999)
    assert h.sock.snd_una == 1  # bogus ack did not move anything


def test_sack_blocks_populate_scoreboard():
    h = Harness()
    h.establish()
    h.sock.send(50_000)  # initial window: segments cover [1, 4381)
    h.ack(1, sack=((1_461, 4_381),))
    assert h.sock._scoreboard == [(1_461, 4_381)]


def test_cumulative_ack_trims_scoreboard():
    h = Harness()
    h.establish()
    h.sock.send(50_000)
    h.ack(1, sack=((1_461, 4_381),))
    h.ack(2_921)  # partially overlaps the sacked range
    assert h.sock._scoreboard == [(2_921, 4_381)]


def test_stray_segment_to_closed_port_gets_reset():
    net = Network()
    node = net.add_node("a")
    stack = TcpStack(node)
    sent = []
    node.send = lambda packet: sent.append(packet.payload)
    from repro.simnet.packet import Packet

    stray = Packet(
        src="peer", dst="a", protocol="tcp", size_bytes=40,
        payload=Segment(src_port=1234, dst_port=999, seq=5, ack_flag=True,
                        ack=10),
    )
    stack.deliver(stray)
    assert len(sent) == 1
    assert sent[0].rst
    assert stack.resets_sent == 1


def test_reset_not_answered_with_reset():
    net = Network()
    node = net.add_node("a")
    stack = TcpStack(node)
    sent = []
    node.send = lambda packet: sent.append(packet.payload)
    from repro.simnet.packet import Packet

    stray = Packet(
        src="peer", dst="a", protocol="tcp", size_bytes=40,
        payload=Segment(src_port=1234, dst_port=999, rst=True),
    )
    stack.deliver(stray)
    assert sent == []  # RST storms are not a thing here


def test_duplicate_synack_is_reacked():
    h = Harness()
    h.establish()
    h.sock.handle_segment(
        Segment(src_port=80, dst_port=h.sock.local_port,
                seq=0, ack=1, syn=True, ack_flag=True, window=1 << 20)
    )
    # The stray handshake segment elicits a pure ACK, not a state change.
    assert h.sock.state == ESTABLISHED
    assert h.sent[-1].ack_flag and h.sent[-1].length == 0


def test_emitted_segment_and_packet_fields():
    """The emit path builds segments and packets positionally; every field
    must still land under its own name, and the wire size must match
    :func:`segment_wire_bytes` (options included)."""
    from repro.simnet.packet import DEFAULT_TTL, IP_HEADER_BYTES
    from repro.tcp.segment import segment_wire_bytes

    h = Harness(TcpOptions(ecn=True, timestamps=True, sack=True))
    packets = []
    h.node.send = packets.append
    h.node.sim.run(until=0.5)
    h.establish()
    h.sock._cwr_pending = True
    h.sock._ecn_echo = True
    h.sock.send(100, message="hello")
    packet = packets[-1]
    data = packet.payload
    assert (data.src_port, data.dst_port) == (h.sock.local_port, 80)
    assert (data.seq, data.length, data.ack) == (1, 100, 1)
    assert data.ack_flag and not (data.syn or data.fin or data.rst)
    assert data.window == h.sock.assembler.window()
    assert data.messages == [(100, "hello")]
    assert data.sack == ()
    assert data.ece and data.cwr
    assert data.ts_val == 0.5 and data.ts_ecr is None
    assert (packet.src, packet.dst, packet.protocol) == ("a", "peer", "tcp")
    assert packet.size_bytes == IP_HEADER_BYTES + segment_wire_bytes(
        100, 0, True) == IP_HEADER_BYTES + data.wire_bytes == 152
    assert packet.flow_id == h.sock.flow_id
    assert packet.ttl == DEFAULT_TTL and packet.ecn_capable

    # Out-of-order data from the peer: the immediate ACK carries one SACK
    # block, is not ECN-capable, and is charged for the option.
    h.sock.handle_segment(
        Segment(src_port=80, dst_port=h.sock.local_port, seq=11, length=20,
                ack=101, ack_flag=True, window=1 << 20, ts_val=0.25)
    )
    ack_packet = packets[-1]
    ack = ack_packet.payload
    assert ack.length == 0 and ack.sack == ((11, 31),) and not ack.cwr
    assert ack.ts_ecr == 0.25 and ack.messages == ()
    assert ack_packet.size_bytes == IP_HEADER_BYTES + segment_wire_bytes(
        0, 1, True) == IP_HEADER_BYTES + ack.wire_bytes == 62
    assert not ack_packet.ecn_capable


def test_segment_has_no_instance_dict():
    segment = Segment(src_port=1, dst_port=2)
    assert not hasattr(segment, "__dict__")
    assert Segment(src_port=1, dst_port=2).uid == segment.uid + 1
