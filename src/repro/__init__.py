"""repro — time-warped network emulation.

A from-scratch reproduction of *"To Infinity and Beyond: Time-Warped
Network Emulation"* (NSDI 2006): time dilation lets a guest whose clock
runs at 1/TDF of physical rate perceive every physical resource as TDF
times faster, so commodity substrates can emulate networks faster than any
link they own.

Layout:

* :mod:`repro.simnet`   — the deterministic "physical testbed";
* :mod:`repro.core`     — time dilation: clocks, VMs, the hypervisor;
* :mod:`repro.tcp`      — the guest TCP stack (SACK, ECN, timestamps);
* :mod:`repro.udp`      — datagram sockets;
* :mod:`repro.apps`     — iperf, ping, web, BitTorrent, cross traffic;
* :mod:`repro.workloads`— SPECweb mix, Zipf, Poisson;
* :mod:`repro.stats`    — meters, CDFs, KS distance;
* :mod:`repro.harness`  — per-figure experiment registry and CLI.

Quick tour::

    from repro import simnet, core
    sim = simnet.Simulator()
    vmm = core.Hypervisor(sim)
    vm = vmm.create_vm("guest0", tdf=10)
    vm.clock.call_in(1.0, fn)  # fires after 10 physical seconds

See ``examples/quickstart.py`` for an end-to-end dilated TCP transfer.
"""

__version__ = "1.0.0"

__all__ = [
    "core",
    "simnet",
    "tcp",
    "udp",
    "apps",
    "workloads",
    "stats",
    "harness",
    "__version__",
]
