"""Per-connection memory: every connection record is slotted.

A swarm holds thousands of TCP connections, so the bytes one idle
connection costs bound how much network one host can emulate. These
tests pin that cost and check that no run leaves an attribute outside
the declared slots: a missing slot on :class:`TcpSocket` falls back to
its escape-hatch ``__dict__`` (and brings back the per-instance dict the
slots exist to avoid), and a missing slot anywhere else raises.
"""

import gc
import sys
import tracemalloc

import pytest

from repro.apps.bittorrent import peer as peer_module
from repro.core.dilation import NetworkProfile
from repro.harness.experiments import run_bittorrent, run_bulk
from repro.simnet.impairments import BernoulliLoss, ImpairmentChain
from repro.simnet.units import mbps, ms
from repro.stats.engineprof import profiled
from repro.tcp import TcpOptions
from repro.tcp.socket import ESTABLISHED, TcpSocket
from tests.helpers import Collector, two_hosts
from tests.tcp.test_socket_unit import Harness

#: Traced bytes one established, idle connection pair may cost (both
#: endpoints with their buffers, estimators and congestion state).
#: A pair measures 2,040 B on CPython 3.11.7 (2,079 B on 3.10, 1,990 B
#: on 3.13): it holds no timer Event, no marker list or dict and no
#: fluid state. Keeping each fired or cancelled Event for reuse made it
#: 2,712 B; bound methods and fresh range lists, 3,528 B; instance
#: dicts, 4.9 KB (3.10) to 6.1 KB (3.11). The budget keeps the 19%
#: margin the 3,528 B pair had under its 4,200 B budget.
PAIR_BUDGET_BYTES = 2430
PAIRS = 200

#: Bytes a BitTorrent connection record may hold, on average, after a
#: 16-piece swarm: the slotted record plus its piece state. With
#: ``remote_have`` and ``outstanding`` as int bitfields this is 784 B on
#: CPython 3.11.7; as sets (216 B empty, 728 B past four pieces) it was
#: 1,621 B. Same 19% margin as the pair budget.
CONNECTION_BUDGET_BYTES = 930


def test_idle_connection_pair_fits_budget():
    net, a, b, stack_a, stack_b, link = two_hosts(queue_packets=4 * PAIRS)
    accepted = []
    stack_b.listen(80, accepted.append)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        clients = [stack_a.connect("b", 80) for _ in range(PAIRS)]
        net.run(until=1.0)
        gc.collect()
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(accepted) == PAIRS
    assert all(sock.state == ESTABLISHED for sock in clients + accepted)
    assert used / PAIRS <= PAIR_BUDGET_BYTES


TIMER_SLOTS = ("_rto_event", "_delack_event", "_persist_event")


def test_idle_pair_holds_no_timer_event():
    net, a, b, stack_a, stack_b, link = two_hosts()
    accepted = []
    stack_b.listen(80, accepted.append)
    clients = [stack_a.connect("b", 80) for _ in range(3)]
    net.run(until=1.0)
    for sock in clients + accepted:
        assert sock.state == ESTABLISHED
        assert [getattr(sock, slot) for slot in TIMER_SLOTS] == [None] * 3


def test_fired_rto_is_not_kept():
    h = Harness()  # the SYN goes unanswered
    first = h.sock._rto_event
    h.net.run(until=h.sock.rtt.rto + 0.001)
    assert h.sock.retransmits == 1
    # The re-armed timer is a new, live Event; the fired one is dropped.
    assert not first.active
    assert h.sock._rto_event is not first and h.sock._rto_event.active


def test_cancelled_rto_is_not_kept():
    h = Harness()
    assert h.sock._rto_event.active
    h.establish()  # the SYN+ACK acknowledges everything sent
    assert h.sock._rto_event is None
    h.sock.send(1000)
    assert h.sock._rto_event.active
    h.ack(1001)
    assert h.sock._rto_event is None


def delack_pair():
    """An established pair whose server holds one unacknowledged segment."""
    net, a, b, stack_a, stack_b, link = two_hosts()
    accepted = []
    stack_b.listen(80, accepted.append)
    client = stack_a.connect("b", 80)
    net.run(until=0.5)
    server = accepted[0]
    client.send(100)
    net.run(until=0.5 + 0.011)  # one segment: half the ACK-every count
    assert server._delack_event.active
    return net, client, server


def test_fired_delayed_ack_is_not_kept():
    net, client, server = delack_pair()
    net.run(until=1.0)
    assert client.snd_una == 101  # the delayed ACK went out
    assert server._delack_event is None


def test_cancelled_delayed_ack_is_not_kept():
    net, client, server = delack_pair()
    server.send(100)  # the reply carries the ACK
    assert server._delack_event is None


def test_fired_or_cancelled_persist_timer_is_not_kept():
    h = Harness()
    h.establish()
    h.ack(1, window=0)
    h.sock.send(5000)
    first = h.sock._persist_event
    assert first.active
    h.net.run(until=h.sock.rtt.rto + 0.001)
    assert h.data_segments()  # the first probe
    assert not first.active
    assert h.sock._persist_event is not first
    assert h.sock._persist_event.active
    h.ack(1, window=1 << 20)  # the window reopens
    assert h.sock._persist_event is None


@pytest.fixture
def built(monkeypatch):
    """Every socket and BitTorrent connection built while the test runs."""
    made = {"sockets": [], "connections": []}
    for cls, key in ((TcpSocket, "sockets"),
                     (peer_module._Connection, "connections")):
        def init(obj, *args, _init=cls.__init__, _into=made[key], **kwargs):
            _init(obj, *args, **kwargs)
            _into.append(obj)
        monkeypatch.setattr(cls, "__init__", init)
    return made


def assert_slotted(sockets):
    assert sockets
    for sock in sockets:
        assert vars(sock) == {}
        for part in (sock.send_buffer, sock.assembler, sock.rtt, sock.cc):
            assert not hasattr(part, "__dict__"), type(part).__name__


def test_swarm_cell_leaves_nothing_outside_slots(built):
    result = run_bittorrent(NetworkProfile.from_rtt(mbps(10), ms(10)), 1,
                            leechers=4, file_bytes=256 * 1024, seed=2)
    assert result.completed == 4
    assert_slotted(built["sockets"])
    assert any(sock._accept_callback is not None for sock in built["sockets"])
    assert built["connections"]
    for connection in built["connections"]:
        assert not hasattr(connection, "__dict__")


def connection_record_bytes(connection):
    """Bytes of one connection record and the piece state it owns.

    ``sys.getsizeof`` counts each object as tracemalloc traces its block:
    the record, its ``interesting`` set with any grown table, and the two
    bitfields.
    """
    return sum(sys.getsizeof(part) for part in (
        connection, connection.remote_have, connection.interesting,
        connection.outstanding,
    ))


def test_swarm_connection_records_fit_budget(built):
    result = run_bittorrent(NetworkProfile.from_rtt(mbps(10), ms(10)), 1,
                            leechers=4, file_bytes=1 << 20,
                            piece_bytes=65536, seed=2)
    assert result.completed == 4
    connections = built["connections"]
    assert connections
    for connection in connections:
        assert type(connection.remote_have) is int
        assert type(connection.outstanding) is int
        assert (connection.interesting is peer_module._NO_PIECES
                or type(connection.interesting) is set)
    mean = sum(map(connection_record_bytes, connections)) / len(connections)
    assert mean <= CONNECTION_BUDGET_BYTES


def test_completed_peers_hold_the_shared_empty_interest_set(monkeypatch):
    peers = []

    def init(obj, *args, _init=peer_module.Peer.__init__, **kwargs):
        _init(obj, *args, **kwargs)
        peers.append(obj)

    monkeypatch.setattr(peer_module.Peer, "__init__", init)
    result = run_bittorrent(NetworkProfile.from_rtt(mbps(10), ms(10)), 1,
                            leechers=4, file_bytes=1 << 20,
                            piece_bytes=65536, seed=2)
    assert result.completed == 4
    assert peers and all(peer.complete for peer in peers)
    connections = [c for peer in peers for c in peer._connections]
    assert connections
    for connection in connections:
        assert connection.interesting is peer_module._NO_PIECES


@pytest.mark.parametrize("flavor", ["newreno", "cubic", "vegas", "tahoe"])
def test_lossy_transfer_leaves_nothing_outside_slots(built, flavor):
    options = TcpOptions(flavor=flavor, sack=True)
    net, a, b, stack_a, stack_b, link = two_hosts(
        bandwidth_bps=mbps(10), delay_s=ms(10), tcp_options=options
    )
    link.a_to_b.set_impairments(ImpairmentChain([BernoulliLoss(0.05, seed=3)]))
    events = Collector()
    stack_b.listen(80, events.on_accept, on_data=events.on_data)
    client = stack_a.connect("b", 80)
    client.send(300_000)
    net.run(until=60.0)
    assert events.total_bytes == 300_000
    assert client.fast_retransmits > 0 and client.timeouts > 0
    assert_slotted(built["sockets"])


def test_hybrid_cell_leaves_nothing_outside_slots(built):
    with profiled() as profiler:
        run_bulk(NetworkProfile.from_rtt(mbps(20), ms(40)), 1, duration_s=8.0,
                 warmup_s=2.0, fidelity="hybrid", queue_packets=20)
    counters = profiler.counters()
    assert counters["fluid.entries"] > 0 and counters["fluid.exits"] > 0
    assert_slotted(built["sockets"])
