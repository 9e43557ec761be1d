"""Testbeds: the one place a run's axes are applied.

Every experiment follows the paper's recipe: rescale the physical network,
boot dilated guests, run the workload. A runner builds the physical
:class:`~repro.simnet.topology.Network` and hands it to a
:class:`Scenario`, whose constructor applies the run's axes (link
schedule, shard partition, fluid fidelity) and creates the hypervisor;
its methods boot guests, attach impairments and the flight recorder on
the owning shard, and run the engine — paced, sharded or plain.

:func:`build_scenario` builds a testbed from a plain-dict description —
the kind of thing a user keeps in a config file:

>>> scenario = build_scenario({
...     "links": [
...         {"a": "client", "b": "server",
...          "bandwidth": "10Mbps", "delay": "5ms", "queue": 100},
...     ],
...     "vms": [
...         {"node": "client", "tdf": 10, "cpu_share": 0.5},
...         {"node": "server", "tdf": 10, "cpu_share": 0.5},
...     ],
... })
>>> sock = scenario.tcp("client").connect("server", 80)

Nodes are declared implicitly by appearing in a link. Quantities accept
either numbers (SI base units) or strings (``"10Mbps"``, ``"5ms"``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ..core.tdf import TdfLike, as_tdf
from ..core.vm import VirtualMachine
from ..core.vmm import Hypervisor
from ..parallel.shard import InProcessShard
from ..realtime.driver import RealtimeConfig, RealtimeDriver
from ..simnet.errors import ConfigurationError
from ..simnet.fluid import FluidManager
from ..simnet.impairments import ImpairmentSpec
from ..simnet.link import Link
from ..simnet.node import Node
from ..simnet.queues import DropTailQueue
from ..simnet.schedule import ScheduleSpec
from ..simnet.topology import Network, partition_network
from ..simnet.units import parse_rate, parse_time
from ..tcp.stack import TcpStack
from ..trace.recorder import FlightRecorder
from ..trace.spec import TraceSpec
from ..udp.socket import UdpStack

__all__ = ["Scenario", "build_scenario", "check_axes"]


def _check_keys(where: str, mapping: Dict[str, Any],
                required: Tuple[str, ...], optional: Tuple[str, ...]) -> None:
    """Refuse a missing or an unknown key, naming it."""
    for key in required:
        if key not in mapping:
            raise ConfigurationError(f"{where}: missing key {key!r}")
    for key in mapping:
        if key not in required and key not in optional:
            raise ConfigurationError(f"{where}: unknown key {key!r}")


def _quantity(entry: Dict[str, Any], key: str,
              parse: Callable[[str], float]) -> float:
    """A link entry's number, or a string ``parse`` reads (``"5ms"``)."""
    value = entry[key]
    try:
        return parse(value) if isinstance(value, str) else float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"link entry {key!r}: {exc}") from None


def check_axes(fidelity: str, realtime, trace: Optional[TraceSpec],
               shards: int) -> None:
    """Refuse axis values no testbed can run, before anything executes.

    Wall-clock pacing needs one engine: each sharded worker has its own,
    barrier-synchronised with its siblings, so pacing any one of them
    would make the barrier — not the deadline — decide when events fire.
    Timer tracing records engine-internal events, whose merged stream
    across workers would be meaningless.
    """
    if fidelity not in ("packet", "hybrid"):
        raise ConfigurationError(
            f"unknown fidelity {fidelity!r}: expected 'packet' or 'hybrid'"
        )
    if realtime and shards != 1:
        raise ConfigurationError(
            "realtime=True requires shards=1: the wall-clock driver paces "
            "a single engine"
        )
    if trace is not None and trace.timers and shards != 1:
        raise ConfigurationError(
            "trace timers=1 records engine-internal timer events and "
            "cannot be combined with shards > 1: each worker has its own "
            "engine, so the merged timer stream would be meaningless"
        )


class Scenario:
    """A testbed: a built network with its run's axes applied.

    The constructor applies the axes in the one order that keeps runs
    bit-exact:

    1. refuse bad axis values (:func:`check_axes`);
    2. build ``schedule`` on ``schedule_link`` — before the partition, so
       a sharded run derives its cut lookahead from the schedule's minimum
       delay; every worker arms the identical timers at the identical
       instants, so per-shard link copies step in lockstep;
    3. localize the network on ``shard``'s partition (``shard`` is the
       context a sharded worker runs under; None is the single-process
       engine);
    4. install a :class:`~repro.simnet.fluid.FluidManager` for
       ``fidelity="hybrid"`` — per engine, so a sharded hybrid run gets one
       per worker, and flows crossing the cut stay packet-level;
    5. create the :class:`~repro.core.vmm.Hypervisor` and, for a paced
       testbed, the :class:`~repro.realtime.driver.RealtimeDriver`.

    Creating the hypervisor, driver, VMs and stacks schedules nothing.
    Whatever does — impairment chains, an app's ``start()``, swarm
    construction — the runner calls in its own fixed order after the
    constructor.

    ``realtime`` (True or a :class:`~repro.realtime.driver.RealtimeConfig`)
    creates :attr:`driver`, which paces :meth:`run` against the wall
    clock; ``trace`` is the spec :meth:`record` attaches.
    """

    def __init__(
        self,
        network: Network,
        tdf: TdfLike = 1,
        *,
        schedule: Optional[ScheduleSpec] = None,
        schedule_link: Optional[Link] = None,
        shard=None,
        fidelity: str = "packet",
        realtime=False,
        trace: Optional[TraceSpec] = None,
        host_cycles_per_second: float = 1e9,
    ) -> None:
        check_axes(fidelity, realtime, trace,
                   shard.shards if shard is not None else 1)
        self.network = network
        self.tdf = as_tdf(tdf)
        self.trace = trace
        self.link_schedule = (
            schedule.build(schedule_link, tdf=self.tdf)
            if schedule is not None else None
        )
        if shard is None:
            self.shard = InProcessShard(network)
        else:
            shard.localize(network, partition_network(
                network, shard.shards, shard.assignment))
            self.shard = shard
        if fidelity == "hybrid":
            FluidManager(network.sim)
        self.vmm = Hypervisor(network.sim,
                              host_cycles_per_second=host_cycles_per_second)
        #: The wall-clock pacer (None unless ``realtime``). One driver
        #: serves every :meth:`run`, so a warmup and the measurement that
        #: follows stay on one schedule.
        self.driver: Optional[RealtimeDriver] = None
        if realtime:
            config = realtime if isinstance(realtime, RealtimeConfig) else None
            self.driver = RealtimeDriver(network.sim, config=config)
        self.vms: Dict[str, VirtualMachine] = {}
        self.recorder: Optional[FlightRecorder] = None
        self._tcp: Dict[str, TcpStack] = {}
        self._udp: Dict[str, UdpStack] = {}

    @property
    def sim(self):
        return self.network.sim

    def owns(self, node) -> bool:
        """Whether this process owns ``node`` (always, unless sharded)."""
        return self.shard.owns(node)

    def boot(self, name: str, node: Optional[Node] = None,
             share: float = 1.0) -> VirtualMachine:
        """Boot guest ``name`` at the testbed's TDF, hosting ``node``;
        :meth:`vm` finds it under the node's name."""
        vm = self.vmm.create_vm(name, tdf=self.tdf, cpu_share=share,
                                node=node)
        if node is not None:
            self.vms[node.name] = vm
        return vm

    def impair(self, spec: Optional[ImpairmentSpec], iface, owner) -> None:
        """Attach ``spec``'s chain to ``iface`` on the shard owning
        ``owner`` (its transmitting node); a no-op for None. The spec's
        time-valued knobs are virtual, scaled by the testbed's TDF."""
        if spec is not None and self.owns(owner):
            iface.set_impairments(spec.build(tdf=self.tdf))

    def record(
        self,
        name: str,
        points: Mapping[str, Tuple[Any, Any]],
        clock,
        clock_node,
        label: str,
    ) -> Optional[FlightRecorder]:
        """Attach the flight recorder for the testbed's ``trace`` (None
        without one).

        ``points`` maps each trace point to ``(interface, owning node)``.
        Every attachment is made only on the shard that owns its node, so a
        merged sharded trace has no duplicates. The recorder stamps virtual
        time on ``clock`` and records its epoch changes as ``label``; a
        paced testbed's deadline misses land in it beside the packet events.
        """
        trace = self.trace
        if trace is None:
            return None
        recorder = FlightRecorder(
            capacity=trace.capacity,
            clock=clock,
            name=f"{name}:{trace.point}",
            packet_kinds=trace.kinds,
        )
        interface, owner = points[trace.point]
        if self.owns(owner):
            recorder.attach_interface(interface)
        if self.owns(clock_node):
            recorder.attach_clock(clock, label=label)
        if trace.timers:
            recorder.attach_engine(self.sim)
        if self.driver is not None:
            self.driver.recorder = recorder
        self.recorder = recorder
        return recorder

    def run(self, until: Optional[float] = None,
            virtual: Optional[str] = None) -> None:
        """Run the simulation: paced, sharded or plain.

        ``until`` is physical seconds (None: until the queue drains); pass
        ``virtual="<node>"`` to interpret it as that node's VM-virtual
        seconds instead.
        """
        if until is not None and virtual is not None:
            until = self.vm(virtual).clock.to_physical(until)
        if self.driver is None:
            self.shard.advance(until)
        else:
            self.driver.run(until)

    def finish(self, result):
        """Fill ``result``'s run-level fields and return it: the engine's
        event count, plus the recorder's events and the pacing stats when
        the run had them."""
        result.events_processed = self.sim.events_processed
        if self.recorder is not None:
            result.trace_events = self.recorder.snapshot()
        if self.driver is not None:
            result.realtime_stats = self.driver.stats.as_dict()
        return result

    def node(self, name: str) -> Node:
        """Look up a node by name."""
        return self.network.node(name)

    def vm(self, node_name: str) -> VirtualMachine:
        """The VM hosting ``node_name`` (KeyError for undilated nodes)."""
        return self.vms[node_name]

    def tcp(self, node_name: str) -> TcpStack:
        """The node's TCP stack (created on first use)."""
        if node_name not in self._tcp:
            self._tcp[node_name] = TcpStack(self.node(node_name))
        return self._tcp[node_name]

    def udp(self, node_name: str) -> UdpStack:
        """The node's UDP stack (created on first use)."""
        if node_name not in self._udp:
            self._udp[node_name] = UdpStack(self.node(node_name))
        return self._udp[node_name]


def build_scenario(spec: Dict[str, Any]) -> Scenario:
    """Construct a :class:`Scenario` from a declarative description.

    Recognised keys:

    ``links`` (required)
        List of ``{"a", "b", "bandwidth", "delay", "queue"?}``; nodes are
        created on first mention. ``queue`` is a positive integer count
        of drop-tail packets (default 100).
    ``vms`` (optional)
        List of ``{"node", "tdf"?, "cpu_share"?}`` — boots the node as a
        dilated guest.
    ``host_cycles_per_second`` (optional)
        Physical CPU rate of the (single) machine hosting the VMs.

    Any other key, at the top level or in an entry, is refused with a
    :class:`ConfigurationError` naming it; so is a bad link value.
    """
    _check_keys("scenario", spec, ("links",),
                ("vms", "host_cycles_per_second"))
    if not spec["links"]:
        raise ConfigurationError("scenario needs at least one link")
    network = Network()
    for entry in spec["links"]:
        _check_keys(f"link entry {entry}", entry,
                    ("a", "b", "bandwidth", "delay"), ("queue",))
        queue_packets = entry.get("queue", 100)
        if type(queue_packets) is not int or queue_packets < 1:  # not bool
            raise ConfigurationError(
                f"link entry 'queue' must be a positive integer: {queue_packets!r}"
            )
        bandwidth = _quantity(entry, "bandwidth", parse_rate)
        delay = _quantity(entry, "delay", parse_time)
        for name in (entry["a"], entry["b"]):
            if name not in network.nodes:
                network.add_node(name)
        network.add_link(
            network.node(entry["a"]),
            network.node(entry["b"]),
            bandwidth,
            delay,
            queue_factory=lambda q=queue_packets: DropTailQueue(
                capacity_packets=q
            ),
        )
    network.finalize()
    scenario = Scenario(
        network,
        host_cycles_per_second=float(spec.get("host_cycles_per_second", 1e9)),
    )
    for entry in spec.get("vms", []):
        _check_keys(f"vm entry {entry}", entry, ("node",),
                    ("tdf", "cpu_share"))
        node_name = entry["node"]
        scenario.vms[node_name] = scenario.vmm.create_vm(
            f"vm-{node_name}",
            tdf=entry.get("tdf", 1),
            cpu_share=float(entry.get("cpu_share", 1.0 / max(1, len(spec["vms"])))),
            node=network.node(node_name),
        )
    return scenario
