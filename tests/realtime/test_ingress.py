"""Live UDP gateway: loopback clients against the paced echo scenario.

These tests open real OS sockets on 127.0.0.1. The driver runs in the
main thread (it owns the simulator); external clients run in background
threads and talk plain UDP — exactly the deployment shape of
``repro-realtime serve``.
"""

import socket
import threading
import time

import pytest

from repro.apps.ping import EchoResponder
from repro.core.dilation import NetworkProfile
from repro.realtime.ingress import GatewayPayload
from repro.realtime.scenario import build_echo_scenario
from repro.simnet.topology import Network
from repro.udp.socket import UdpStack

#: The scenario's perceived RTT for these tests, seconds.
RTT_S = 0.040

PROFILE = NetworkProfile.from_rtt(10e6, RTT_S)


def _run_service(scenario, horizon_virtual):
    """Drive the scenario in the main thread for a virtual horizon."""
    scenario.driver.run(until=scenario.clock.to_physical(horizon_virtual))


def test_loopback_echo_latency_within_2x_rtt():
    scenario = build_echo_scenario(perceived=PROFILE, tdf=1)
    addr = scenario.gateway.address
    wall_rtts = []

    def client():
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.settimeout(3.0)
        try:
            for seq in range(3):
                start = time.monotonic()
                sock.sendto(b"ping-%d" % seq, addr)
                data, _ = sock.recvfrom(65535)
                wall_rtts.append(time.monotonic() - start)
                assert data == b"ping-%d" % seq
        finally:
            sock.close()
            scenario.driver.stop()

    thread = threading.Thread(target=client)
    thread.start()
    try:
        _run_service(scenario, 2.0)
    finally:
        thread.join()
        scenario.close()
    assert len(wall_rtts) == 3
    latencies = scenario.gateway.virtual_latencies_s
    assert len(latencies) == 3
    for latency in latencies:
        # Virtual latency: at least the propagation RTT, within 2x of it
        # (the acceptance bound; serialization adds a fraction of a ms).
        assert RTT_S <= latency <= 2 * RTT_S
    for rtt in wall_rtts:
        # Wall RTT at TDF 1 tracks the virtual RTT plus pacing slack.
        assert RTT_S - 0.005 <= rtt <= 2 * RTT_S + 0.1
    assert scenario.echo.echoed == 3
    assert scenario.gateway.stats.ingress_datagrams == 3
    assert scenario.gateway.stats.egress_datagrams == 3
    assert scenario.net.sim.counters["realtime.injected"] == 3


def test_dilation_stretches_wall_rtt_not_virtual_rtt():
    tdf = 5
    scenario = build_echo_scenario(perceived=PROFILE, tdf=tdf)
    addr = scenario.gateway.address
    result = {}

    def client():
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.settimeout(5.0)
        try:
            start = time.monotonic()
            sock.sendto(b"dilated", addr)
            sock.recvfrom(65535)
            result["wall_rtt"] = time.monotonic() - start
        finally:
            sock.close()
            scenario.driver.stop()

    thread = threading.Thread(target=client)
    thread.start()
    try:
        _run_service(scenario, 0.5)
    finally:
        thread.join()
        scenario.close()
    # The guest-perceived (virtual) latency is unchanged by dilation...
    latency = scenario.gateway.virtual_latencies_s[0]
    assert RTT_S <= latency <= 2 * RTT_S
    # ...but the external client waits TDF times the virtual RTT of wall
    # time: the paper's time-warp, observed from outside the warp.
    assert result["wall_rtt"] >= RTT_S * tdf - 0.01
    assert result["wall_rtt"] <= 2 * RTT_S * tdf + 0.2


def test_late_client_still_pays_wall_rtt():
    # A client that first talks after the service has sat idle must still
    # see the emulated wall RTT: the driver advances the engine clock
    # through event-free idle time, so injection happens at the
    # wall-equivalent virtual instant — not at the last executed event's
    # timestamp, which would put the reply's deadline in the past and
    # echo it back immediately.
    scenario = build_echo_scenario(perceived=PROFILE, tdf=1)
    addr = scenario.gateway.address
    result = {}

    def client():
        time.sleep(0.3)  # connect well after the service went idle
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.settimeout(3.0)
        try:
            start = time.monotonic()
            sock.sendto(b"late", addr)
            sock.recvfrom(65535)
            result["wall_rtt"] = time.monotonic() - start
        finally:
            sock.close()
            scenario.driver.stop()

    thread = threading.Thread(target=client)
    thread.start()
    try:
        _run_service(scenario, 5.0)
    finally:
        thread.join()
        scenario.close()
    latency = scenario.gateway.virtual_latencies_s[0]
    assert RTT_S <= latency <= 2 * RTT_S
    # The discriminating bound: with a stale injection instant the echo
    # returns in ~1 ms of wall time instead of the link RTT.
    assert result["wall_rtt"] >= RTT_S - 0.005
    assert result["wall_rtt"] <= 2 * RTT_S + 0.2


def test_gateway_nat_demultiplexes_concurrent_clients():
    scenario = build_echo_scenario(perceived=PROFILE, tdf=1)
    addr = scenario.gateway.address
    replies = {}

    done = threading.Semaphore(0)

    def client(tag):
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.settimeout(3.0)
        try:
            sock.sendto(tag, addr)
            data, _ = sock.recvfrom(65535)
            replies[tag] = data
        finally:
            sock.close()
            done.release()

    def stopper():
        for _ in range(3):
            done.acquire()
        scenario.driver.stop()

    threading.Thread(target=stopper, daemon=True).start()

    threads = [threading.Thread(target=client, args=(b"client-%d" % i,))
               for i in range(3)]
    for thread in threads:
        thread.start()
    try:
        _run_service(scenario, 1.0)
    finally:
        for thread in threads:
            thread.join()
        # One NAT mapping (simulated ephemeral socket) per external client.
        nat_mappings = len(scenario.gateway._clients)
        scenario.close()
    # Every client got its own bytes back — replies were not cross-wired.
    for i in range(3):
        tag = b"client-%d" % i
        assert replies[tag] == tag
    assert nat_mappings == 3


def test_echo_server_in_pure_simulation():
    # The simulated half works without any OS socket: batch-drive a
    # client socket against the echo server.
    net = Network()
    a = net.add_node("a")
    b = net.add_node("b")
    net.add_link(a, b, 10e6, 0.005)
    net.finalize()
    echo = EchoResponder(UdpStack(b), port=7)
    got = []
    client = UdpStack(a).bind(
        on_datagram=lambda sock, d: got.append(d))
    client.sendto("b", 7, 100, payload=b"direct")
    net.run(until=1.0)
    assert echo.echoed == 1
    assert len(got) == 1
    assert got[0].payload == b"direct"
    assert got[0].size_bytes == 100


def test_gateway_close_is_idempotent_and_stops_polling():
    scenario = build_echo_scenario(perceived=PROFILE, tdf=1)
    scenario.close()
    scenario.close()
    assert scenario.gateway.poll() == 0


def test_gateway_payload_fields():
    payload = GatewayPayload(b"x", ingress_virtual=0, ingress_physical=0.0)
    assert payload.data == b"x"
