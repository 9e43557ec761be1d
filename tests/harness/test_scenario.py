"""Tests for the declarative scenario builder."""

import pytest

from repro.harness.scenario import build_scenario
from repro.simnet.errors import ConfigurationError
from tests.helpers import Collector


BASIC = {
    "links": [
        {"a": "client", "b": "server", "bandwidth": "10Mbps", "delay": "5ms"},
    ],
    "vms": [
        {"node": "client", "tdf": 10, "cpu_share": 0.5},
        {"node": "server", "tdf": 10, "cpu_share": 0.5},
    ],
}


def test_nodes_created_from_links():
    scenario = build_scenario(BASIC)
    assert scenario.node("client").name == "client"
    assert scenario.node("server").name == "server"
    assert len(scenario.network.links) == 1


def test_vms_dilate_their_nodes():
    scenario = build_scenario(BASIC)
    vm = scenario.vm("client")
    assert float(vm.tdf) == 10.0
    assert scenario.node("client").clock is vm.clock


def test_string_and_numeric_quantities():
    scenario = build_scenario({
        "links": [{"a": "x", "b": "y", "bandwidth": 5e6, "delay": 0.001}],
    })
    interface = scenario.network.links[0].a_to_b
    assert interface.bandwidth_bps == 5e6
    assert interface.delay_s == 0.001


def test_queue_override():
    scenario = build_scenario({
        "links": [{"a": "x", "b": "y", "bandwidth": "1Mbps",
                   "delay": "1ms", "queue": 7}],
    })
    assert scenario.network.links[0].a_to_b.queue.capacity_packets == 7


def test_end_to_end_transfer_through_scenario():
    scenario = build_scenario(BASIC)
    events = Collector()
    scenario.tcp("server").listen(80, events.on_accept, on_data=events.on_data)
    scenario.tcp("client").connect("server", 80).send(100_000)
    scenario.run(until=2.0, virtual="server")  # 2 virtual = 20 physical s
    assert events.total_bytes == 100_000


def test_stacks_are_cached():
    scenario = build_scenario(BASIC)
    assert scenario.tcp("client") is scenario.tcp("client")
    assert scenario.udp("client") is scenario.udp("client")


def test_run_physical_time():
    scenario = build_scenario(BASIC)
    scenario.run(until=1.5)
    assert scenario.sim.now == pytest.approx(1.5)


@pytest.mark.parametrize(
    "bad",
    [
        {},
        {"links": []},
        {"links": [{"a": "x", "b": "y", "bandwidth": "1Mbps"}]},  # no delay
        {"links": [{"a": "x", "b": "y", "bandwidth": "1Mbps",
                    "delay": "1ms"}], "mystery": True},
        {"links": [{"a": "x", "b": "y", "bandwidth": "1Mbps",
                    "delay": "1ms"}], "vms": [{"tdf": 2}]},  # no node
    ],
)
def test_validation(bad):
    with pytest.raises(ConfigurationError):
        build_scenario(bad)


@pytest.mark.parametrize("field, value", [
    ("bandwidth", float("nan")),
    ("bandwidth", float("inf")),
    ("delay", float("nan")),
    ("delay", float("inf")),
])
def test_non_finite_link_parameters_refused_at_build(field, value):
    link = {"a": "x", "b": "y", "bandwidth": 1e6, "delay": 0.001, field: value}
    with pytest.raises(ConfigurationError, match=field):
        build_scenario({"links": [link]})


def test_vm_lookup_for_undilated_node_raises():
    scenario = build_scenario({
        "links": [{"a": "x", "b": "y", "bandwidth": "1Mbps", "delay": "1ms"}],
    })
    with pytest.raises(KeyError):
        scenario.vm("x")
