"""Per-connection memory: every connection record is slotted.

A swarm holds thousands of TCP connections, so the bytes one idle
connection costs bound how much network one host can emulate. These
tests pin that cost and check that no run leaves an attribute outside
the declared slots: a missing slot on :class:`TcpSocket` falls back to
its escape-hatch ``__dict__`` (and brings back the per-instance dict the
slots exist to avoid), and a missing slot anywhere else raises.
"""

import gc
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

#: Traced bytes one established, idle connection pair may cost (both
#: endpoints with their buffers, estimators and congestion state).
#: Slotted records measure ~3.5 KB on CPython 3.10-3.12; with instance
#: dicts the same pair cost 4.9 KB (3.10) to 6.1 KB (3.11).
PAIR_BUDGET_BYTES = 4200
PAIRS = 200


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
