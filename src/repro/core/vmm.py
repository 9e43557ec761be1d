"""The hypervisor: creates dilated guests and polices physical CPU shares.

The original system modified Xen; what the experiments actually relied on
from the VMM is small and is reproduced faithfully:

* per-guest TDF, settable at creation and changeable at runtime;
* a proportional-share CPU scheduler, because the interesting experiments
  scale CPU *independently* of the TDF (give a TDF-k guest a 1/k share and
  its perceived CPU speed is unchanged while its network is k× faster);
* an enforcement that the shares handed out on one physical machine do not
  exceed the machine.

The hypervisor does not interpose on the network path: dilation of network
perception falls out of the guests' clocks alone, exactly as in the paper
(packets are timestamped and timers armed with warped time; the wire is
untouched).
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from ..simnet.engine import Simulator
from ..simnet.errors import ConfigurationError
from ..simnet.node import Node
from .tdf import TdfLike
from .vm import VirtualMachine

__all__ = ["Hypervisor"]


class Hypervisor:
    """One physical machine's VMM.

    Parameters
    ----------
    sim:
        The physical-time engine (shared with the network substrate).
    host_cycles_per_second:
        Speed of the physical CPU this machine contributes to its guests.
    name:
        Label for error messages and reports.
    """

    def __init__(
        self,
        sim: Simulator,
        host_cycles_per_second: float = 1e9,
        name: str = "vmm0",
    ) -> None:
        if not 0 < host_cycles_per_second < math.inf:  # also refuses NaN
            raise ConfigurationError(
                "host_cycles_per_second must be positive and finite: "
                f"{host_cycles_per_second}"
            )
        self.sim = sim
        self.name = name
        self.host_cycles_per_second = host_cycles_per_second
        self.vms: Dict[str, VirtualMachine] = {}

    def _total_share(self, excluding: Optional[str] = None) -> float:
        return sum(
            vm.cpu.share for vm_name, vm in self.vms.items() if vm_name != excluding
        )

    def create_vm(
        self,
        name: str,
        tdf: TdfLike = 1,
        cpu_share: float = 1.0,
        node: Optional[Node] = None,
    ) -> VirtualMachine:
        """Boot a guest with the given dilation factor and CPU share.

        If ``node`` is given, it is attached immediately (its clock becomes
        the guest's dilated clock).
        """
        if name in self.vms:
            raise ConfigurationError(f"VM name {name!r} already in use on {self.name}")
        if self._total_share() + cpu_share > 1.0 + 1e-9:
            raise ConfigurationError(
                f"CPU over-commit on {self.name}: existing shares "
                f"{self._total_share():.3f} + requested {cpu_share:.3f} > 1"
            )
        vm = VirtualMachine(
            self.sim,
            name,
            tdf=tdf,
            host_cycles_per_second=self.host_cycles_per_second,
            cpu_share=cpu_share,
        )
        self.vms[name] = vm
        if node is not None:
            vm.attach_node(node)
        return vm

    def set_cpu_share(self, vm_name: str, share: float) -> None:
        """Re-apportion CPU; enforced against the machine's total."""
        vm = self.vm(vm_name)
        if self._total_share(excluding=vm_name) + share > 1.0 + 1e-9:
            raise ConfigurationError(
                f"CPU over-commit on {self.name} when resizing {vm_name!r}"
            )
        vm.cpu.set_share(share)

    def set_tdf(self, vm_name: str, tdf: TdfLike) -> None:
        """Change a guest's dilation factor at runtime."""
        self.vm(vm_name).set_tdf(tdf)

    def vm(self, name: str) -> VirtualMachine:
        """Look up a guest by name."""
        try:
            return self.vms[name]
        except KeyError:
            raise ConfigurationError(f"no VM named {name!r} on {self.name}") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Hypervisor({self.name}, vms={sorted(self.vms)})"
