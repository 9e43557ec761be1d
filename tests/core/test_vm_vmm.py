"""Unit tests for VirtualMachine and Hypervisor."""

import pytest

from repro.core.vmm import Hypervisor
from repro.simnet.engine import Simulator
from repro.simnet.errors import ConfigurationError
from repro.simnet.node import Node


def test_create_vm_defaults():
    sim = Simulator()
    vmm = Hypervisor(sim)
    vm = vmm.create_vm("g0")
    assert vm.tdf.is_identity()
    assert vm.cpu.share == 1.0


def test_duplicate_vm_name_rejected():
    vmm = Hypervisor(Simulator())
    vmm.create_vm("g0", cpu_share=0.5)
    with pytest.raises(ConfigurationError):
        vmm.create_vm("g0", cpu_share=0.25)


def test_cpu_overcommit_rejected():
    vmm = Hypervisor(Simulator())
    vmm.create_vm("g0", cpu_share=0.7)
    with pytest.raises(ConfigurationError):
        vmm.create_vm("g1", cpu_share=0.5)


def test_cpu_shares_exactly_full_allowed():
    vmm = Hypervisor(Simulator())
    vmm.create_vm("g0", cpu_share=0.5)
    vmm.create_vm("g1", cpu_share=0.5)


def test_resize_share_respects_total():
    vmm = Hypervisor(Simulator())
    vmm.create_vm("g0", cpu_share=0.5)
    vmm.create_vm("g1", cpu_share=0.5)
    with pytest.raises(ConfigurationError):
        vmm.set_cpu_share("g1", 0.6)
    vmm.set_cpu_share("g1", 0.3)
    assert vmm.vm("g1").cpu.share == pytest.approx(0.3)


def test_vm_lookup_missing():
    vmm = Hypervisor(Simulator())
    with pytest.raises(ConfigurationError):
        vmm.vm("ghost")


def test_invalid_host_rate():
    with pytest.raises(ConfigurationError):
        Hypervisor(Simulator(), host_cycles_per_second=0)


@pytest.mark.parametrize("rate", [float("inf"), float("nan"), -1e9])
def test_out_of_range_host_rate_refused_by_name(rate):
    # An infinite rate would finish any CPU task in 0 s; NaN would fail
    # later, inside the engine.
    with pytest.raises(ConfigurationError, match="host_cycles_per_second"):
        Hypervisor(Simulator(), host_cycles_per_second=rate)


def test_attach_node_swaps_clock():
    sim = Simulator()
    vmm = Hypervisor(sim)
    node = Node(sim, "host0")
    original_clock = node.clock
    vm = vmm.create_vm("g0", tdf=10, node=node)
    assert node.clock is vm.clock
    assert node.clock is not original_clock


def test_attach_node_twice_rejected():
    sim = Simulator()
    vmm = Hypervisor(sim)
    vm = vmm.create_vm("g0")
    vm.attach_node(Node(sim, "a"))
    with pytest.raises(ConfigurationError):
        vm.attach_node(Node(sim, "b"))


def test_uptime_virtual_vs_physical():
    sim = Simulator()
    vmm = Hypervisor(sim)
    vm = vmm.create_vm("g0", tdf=10)
    sim.schedule(10.0, lambda: None)
    sim.run()
    assert vm.physical_uptime() == pytest.approx(10.0)
    assert vm.uptime() == pytest.approx(1.0)


def test_set_tdf_via_hypervisor():
    sim = Simulator()
    vmm = Hypervisor(sim)
    vm = vmm.create_vm("g0", tdf=10)
    vmm.set_tdf("g0", 5)
    assert float(vm.tdf) == 5.0


def test_perceived_cpu_speed():
    sim = Simulator()
    vmm = Hypervisor(sim, host_cycles_per_second=2e9)
    vm = vmm.create_vm("g0", tdf=10, cpu_share=0.1)
    # 2e9 * 0.1 share * 10 tdf = 2e9: compensated back to native speed.
    assert vm.perceived_cpu_speed() == pytest.approx(2e9)


def test_vm_timers_are_dilated():
    sim = Simulator()
    vmm = Hypervisor(sim)
    vm = vmm.create_vm("g0", tdf=4)
    fired = []
    vm.timers.after(1.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [pytest.approx(4.0)]
