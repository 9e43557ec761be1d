"""Outside-in per-layer cost ledger for the traced run.

Nothing under ``src/`` changes. For the life of one traced process,
:meth:`Ledger.install` replaces each layer's public entry points with a
wrapper that opens a span around the call, and routes every callback the
engine dispatches through one more span charged to the module that
defines the callback. A span's **self time** is its duration minus the
durations of the spans it encloses, so nested calls (``_deliver`` ->
``Node.receive`` -> ``TcpStack.deliver`` -> ``Interface.send``) are
counted once, each in its own layer.

App work mostly reaches the apps through callbacks registered with a
lower layer: the ``on_data`` / ``on_message`` / state hooks of a
``TcpSocket``, a ``UdpSocket``'s ``on_datagram``, and the function handed
to a ``core.timer`` ``Timer`` or ``PeriodicTimer``. Those callables are
wrapped when they are registered, so their spans charge the app that
registered them rather than the layer that calls them.

Spans are aggregated in memory (a running self time and a call count per
layer) and read once at the end. Every wrapper only times and forwards:
event order, and hence every simulated output, is unchanged, which the
benchmark checks on each traced run.

A span costs time of its own: some inside the interval it measures (the
bookkeeping and the extra call), some in its parent outside that
interval. :func:`calibrate_span_cost` measures both on this host with
spans around a no-op, and the ledger takes them back out (the outer part
from the parent as it runs, the inner part per span when read), so
tracer overhead is not booked as engine or TCP work.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Named layers, in report order. Index ``OTHER`` collects spans whose
#: callable lives outside them (the harness, stats, tracing).
LAYERS = ("engine", "nic", "node", "tcp", "apps", "fluid", "schedule",
          "udp", "core")
OTHER = len(LAYERS)

#: Module prefix -> layer, first match wins.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.simnet.engine", "engine"),
    ("repro.simnet.nic", "nic"),
    ("repro.simnet.queues", "nic"),
    ("repro.simnet.link", "nic"),
    ("repro.simnet.impairments", "nic"),
    ("repro.simnet.node", "node"),
    ("repro.simnet.fluid", "fluid"),
    ("repro.simnet.schedule", "schedule"),
    ("repro.simnet.clock", "core"),
    ("repro.tcp", "tcp"),
    ("repro.apps", "apps"),
    ("repro.udp", "udp"),
    ("repro.core", "core"),
)

#: Per-layer metrics of the traced run: (name, unit, better).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("engine.events", "count", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.ns_per_event", "ns", "lower"),
    ("engine.wall_ns_per_event", "ns", "lower"),
    ("engine.floor_ns_per_event", "ns", "lower"),
    ("engine.schedule_calls", "count", "lower"),
    ("engine.dead_reaped", "count", "lower"),
    ("engine.compactions", "count", "lower"),
    ("engine.max_heap", "count", "lower"),
    ("engine.events_per_hop", "ratio", "lower"),
    ("nic.self_s", "s", "lower"),
    ("nic.calls", "count", "lower"),
    ("nic.hops", "count", "lower"),
    ("nic.ns_per_hop", "ns", "lower"),
    ("nic.drops.queue", "count", "lower"),
    ("nic.drops.down", "count", "lower"),
    ("queue.enqueued", "count", "lower"),
    ("node.self_s", "s", "lower"),
    ("node.calls", "count", "lower"),
    ("tcp.self_s", "s", "lower"),
    ("tcp.segments_sent", "count", "lower"),
    ("tcp.ns_per_segment", "ns", "lower"),
    ("tcp.retransmits", "count", "lower"),
    ("tcp.timeouts", "count", "lower"),
    ("tcp.useful_ratio", "ratio", "higher"),
    ("tcp.connections", "count", "lower"),
    ("apps.self_s", "s", "lower"),
    ("apps.callbacks", "count", "lower"),
    ("apps.connections_total", "count", "lower"),
    ("apps.tracker_announces", "count", "lower"),
    ("fluid.self_s", "s", "lower"),
    ("fluid.steps", "count", "lower"),
    ("fluid.entries", "count", "lower"),
    ("fluid.exits", "count", "lower"),
    ("fluid.events_saved", "count", "higher"),
    ("fluid.conservation_failures", "count", "lower"),
    ("schedule.self_s", "s", "lower"),
    ("schedule.changes", "count", "lower"),
    ("udp.self_s", "s", "lower"),
    ("udp.datagrams", "count", "lower"),
    ("core.self_s", "s", "lower"),
    ("core.calls", "count", "lower"),
    ("other.self_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
    ("trace.span_cost_ns", "ns", "lower"),
    ("trace.residual_frac", "ratio", "lower"),
)

#: Callback attributes whose callables belong to the registering layer.
_TCP_CALLBACKS = ("on_connected", "on_data", "on_message", "on_close",
                  "on_error", "on_acked", "_accept_callback")


def layer_of_module(module: Optional[str]) -> int:
    """Index into :data:`LAYERS` for a module name, or :data:`OTHER`."""
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or (module or "").startswith(prefix + "."):
            return LAYERS.index(layer)
    return OTHER


def _module_of(fn: Any) -> Optional[str]:
    """Module defining a callable: a bound method's function, else itself."""
    target = getattr(fn, "__func__", fn)
    return getattr(target, "__module__", None) or type(fn).__module__


class Ledger:
    """Per-layer self time and span counts, plus the patches that feed them."""

    def __init__(self, inner_cost_s: float = 0.0, outer_cost_s: float = 0.0,
                 dispatch_outer_cost_s: float = 0.0) -> None:
        #: Host seconds a span adds inside its own interval and to its
        #: parent (a wrapped call, or an engine dispatch, which also looks
        #: up the callee's layer), from :func:`calibrate_span_cost`.
        self.inner_cost_s = inner_cost_s
        self.outer_cost_s = outer_cost_s
        self.dispatch_outer_cost_s = dispatch_outer_cost_s
        self.self_s: List[float] = [0.0] * (OTHER + 1)
        self.calls: List[int] = [0] * (OTHER + 1)
        #: Child-time accumulators of the open spans; index 0 is the root.
        self._stack: List[float] = [0.0]
        self._module_layers: Dict[str, int] = {}
        #: Instances of the classes passed to :meth:`_register`, by class name.
        self.instances: Dict[str, List[Any]] = {}

    # ------------------------------------------------------------------ spans

    def reset(self) -> None:
        """Zero the aggregates in place (the wrappers hold the lists)."""
        for index in range(OTHER + 1):
            self.self_s[index] = 0.0
            self.calls[index] = 0
        for index in range(len(self._stack)):
            self._stack[index] = 0.0

    def spanned(self, fn: Callable, layer: int) -> Callable:
        """``fn`` wrapped in a span charged to ``layer``."""
        self_s, calls, stack = self.self_s, self.calls, self._stack
        cost = self.outer_cost_s
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                calls[layer] += 1
                stack[-1] += elapsed + cost

        spanned._ledger_layer = layer
        return spanned

    def layer_of(self, fn: Any) -> int:
        module = _module_of(fn)
        layer = self._module_layers.get(module)
        if layer is None:
            layer = self._module_layers[module] = layer_of_module(module)
        return layer

    def callback(self, fn: Any) -> Any:
        """A registered callback wrapped in a span of its own layer."""
        if fn is None or hasattr(fn, "_ledger_layer"):
            return fn
        return self.spanned(fn, self.layer_of(fn))

    def _dispatcher(self) -> Callable:
        """The engine's stand-in callback: a span around ``fn(*args)``,
        charged to the layer of the module that defines ``fn``."""
        self_s, calls, stack = self.self_s, self.calls, self._stack
        cost = self.dispatch_outer_cost_s
        clock = time.perf_counter
        layers = self._module_layers

        def dispatch(fn, *args):
            module = _module_of(fn)
            layer = layers.get(module)
            if layer is None:
                layer = layers[module] = layer_of_module(module)
            start = clock()
            stack.append(0.0)
            try:
                fn(*args)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                calls[layer] += 1
                stack[-1] += elapsed + cost

        return dispatch

    # --------------------------------------------------------------- patching

    def _span(self, cls: type, names: Tuple[str, ...], layer: str) -> None:
        index = LAYERS.index(layer)
        for name in names:
            attr = cls.__dict__[name]
            if isinstance(attr, property):
                wrapped = property(self.spanned(attr.fget, index), attr.fset,
                                   attr.fdel, attr.__doc__)
            else:
                wrapped = self.spanned(attr, index)
            setattr(cls, name, wrapped)

    def _callback_attrs(self, cls: type, names: Tuple[str, ...]) -> None:
        """Make each attribute a property that wraps what is assigned to it."""
        for name in names:
            def get(obj, _name=name):
                return obj.__dict__.get(_name)

            def put(obj, value, _name=name):
                obj.__dict__[_name] = self.callback(value)

            setattr(cls, name, property(get, put))

    def _wrap_fn_argument(self, cls: type, position: int) -> None:
        """Wrap the callback passed to ``cls(...)`` at ``position`` or ``fn=``."""
        init = cls.__init__

        def __init__(obj, *args, **kwargs):
            if "fn" in kwargs:
                kwargs["fn"] = self.callback(kwargs["fn"])
            elif len(args) > position:
                args = (*args[:position], self.callback(args[position]),
                        *args[position + 1:])
            init(obj, *args, **kwargs)

        cls.__init__ = __init__

    def _register(self, cls: type) -> None:
        """Keep every instance of ``cls`` built from now on."""
        init = cls.__init__
        registry = self.instances.setdefault(cls.__name__, [])

        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            registry.append(obj)

        cls.__init__ = __init__

    def install(self) -> None:
        """Open spans at every layer boundary for the rest of the process."""
        from repro.core.clock import DilatedClock
        from repro.core.timer import PeriodicTimer, Timer, TimerService
        from repro.simnet.clock import Clock, PhysicalClock
        from repro.simnet.engine import Event, Simulator
        from repro.simnet.fluid import FluidManager
        from repro.simnet.nic import Interface
        from repro.simnet.node import Node
        from repro.simnet.queues import DropTailQueue, REDQueue
        from repro.simnet.schedule import LinkSchedule
        from repro.tcp.socket import TcpSocket
        from repro.tcp.stack import TcpStack
        from repro.udp.socket import UdpSocket, UdpStack

        engine = LAYERS.index("engine")
        dispatch = self._dispatcher()
        call_at = Simulator.call_at

        def traced_call_at(sim, when, fn, *args, tie_key=None):
            return call_at(sim, when, dispatch, fn, *args, tie_key=tie_key)

        Simulator.call_at = self.spanned(traced_call_at, engine)
        for name in ("schedule_transient", "schedule_transient_at"):
            def traced_transient(sim, when, fn, *args, _orig=getattr(Simulator, name)):
                return _orig(sim, when, dispatch, fn, *args)

            setattr(Simulator, name, self.spanned(traced_transient, engine))
        self._span(Simulator, ("run", "schedule"), "engine")
        self._span(Event, ("reschedule", "cancel"), "engine")

        self._span(Interface, ("send",), "nic")
        self._span(DropTailQueue, ("offer", "poll"), "nic")
        self._span(REDQueue, ("offer", "poll"), "nic")
        self._span(Node, ("send", "receive"), "node")
        self._span(TcpStack, ("deliver", "connect", "listen"), "tcp")
        self._span(TcpSocket, ("send", "send_message", "close"), "tcp")
        self._span(FluidManager, ("on_ack", "on_timeout", "on_dupack"), "fluid")
        self._span(LinkSchedule, ("change_pending", "cancel"), "schedule")
        self._span(UdpSocket, ("sendto",), "udp")
        self._span(UdpStack, ("deliver", "bind"), "udp")
        self._span(Clock, ("reschedule_in", "reschedule_at"), "core")
        self._span(DilatedClock, ("now", "to_local", "to_physical", "call_in",
                                  "call_at", "reschedule_in"), "core")
        self._span(PhysicalClock, ("now", "call_in", "call_at"), "core")
        self._span(Timer, ("reset", "cancel"), "core")
        self._span(PeriodicTimer, ("stop",), "core")
        self._span(TimerService, ("after", "every"), "core")

        self._callback_attrs(TcpSocket, _TCP_CALLBACKS)
        self._callback_attrs(UdpSocket, ("on_datagram",))
        self._wrap_fn_argument(Timer, 2)
        self._wrap_fn_argument(PeriodicTimer, 2)
        for cls in (Interface, TcpSocket, UdpSocket, LinkSchedule):
            self._register(cls)

    # ---------------------------------------------------------------- reading

    def read(self, sim, result) -> Dict[str, Any]:
        """What one traced run measured, for :func:`per_layer_metrics`.

        ``sim`` is the run's engine and ``result`` the runner's return
        value. Self times already exclude the calibrated span costs.
        """
        names = LAYERS + ("other",)
        inner = self.inner_cost_s
        interfaces = self.instances.get("Interface", [])
        sockets = self.instances.get("TcpSocket", [])
        counters = sim.counters
        return {
            "self_s": {
                name: self.self_s[index] - self.calls[index] * inner
                for index, name in enumerate(names)
            },
            "spans": dict(zip(names, self.calls)),
            "tracer_s": (sum(self.calls) * (inner + self.outer_cost_s)
                         + sim.events_processed
                         * (self.dispatch_outer_cost_s - self.outer_cost_s)),
            "counts": {
                "engine.events": sim.events_processed,
                "engine.schedule_calls": sim._seq,
                "engine.dead_reaped": sim.dead_entries_reaped,
                "engine.compactions": sim.compactions,
                "engine.max_heap": sim.max_heap_len,
                "nic.hops": sum(iface.tx_packets for iface in interfaces),
                "nic.drops.queue": counters.get("drop.queue", 0),
                "nic.drops.down": counters.get("drop.down", 0),
                "queue.enqueued": sum(
                    iface.queue.stats.enqueued_packets for iface in interfaces
                ),
                "tcp.segments_sent": sum(sock.segments_sent for sock in sockets),
                "tcp.retransmits": sum(sock.retransmits for sock in sockets),
                "tcp.timeouts": sum(sock.timeouts for sock in sockets),
                "tcp.connections": len(sockets),
                "apps.connections_total": getattr(result, "connections_total", 0),
                "apps.tracker_announces": getattr(result, "tracker_announces", 0),
                **{
                    key: counters.get(key, 0)
                    for key in ("fluid.steps", "fluid.entries", "fluid.exits",
                                "fluid.events_saved",
                                "fluid.conservation_failures")
                },
                "schedule.changes": sum(
                    schedule.applied
                    for schedule in self.instances.get("LinkSchedule", [])
                ),
                "udp.datagrams": sum(
                    sock.datagrams_sent
                    for sock in self.instances.get("UdpSocket", [])
                ),
            },
        }


def per_layer_metrics(traced: Dict[str, Any], traced_wall_s: float,
                      untraced_wall_s: float,
                      floor_ns_per_event: float) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced/untraced pair.

    The calibrated span costs do not remove all of the tracer's cost: the
    traced program time (traced wall less the calibrated costs) still
    exceeds the untraced wall time. The self times are scaled down by
    that ratio, so the layers keep their measured shares and add up to
    the untraced wall time; ``trace.residual_frac`` is the share of the
    traced program time the scaling removed.
    """
    spans = traced["spans"]
    total_spans = sum(spans.values())
    program_s = traced_wall_s - traced["tracer_s"]
    scale = untraced_wall_s / program_s
    self_s = {name: max(0.0, seconds) * scale
              for name, seconds in traced["self_s"].items()}
    counts = traced["counts"]
    events = counts["engine.events"]
    hops = counts["nic.hops"]
    segments = counts["tcp.segments_sent"]

    def per(numerator: float, denominator: float, scale: float = 1.0) -> float:
        return numerator * scale / denominator if denominator else 0.0

    named_s = sum(seconds for name, seconds in self_s.items() if name != "other")
    metrics = dict(counts)
    metrics.update({f"{name}.self_s": seconds for name, seconds in self_s.items()})
    metrics.update({
        "engine.ns_per_event": per(self_s["engine"], events, 1e9),
        "engine.wall_ns_per_event": per(untraced_wall_s, events, 1e9),
        "engine.floor_ns_per_event": floor_ns_per_event,
        "engine.events_per_hop": per(events, hops),
        "nic.calls": spans["nic"],
        "nic.ns_per_hop": per(self_s["nic"], hops, 1e9),
        "node.calls": spans["node"],
        "tcp.ns_per_segment": per(self_s["tcp"], segments, 1e9),
        "tcp.useful_ratio": 1.0 - per(counts["tcp.retransmits"], segments),
        "apps.callbacks": spans["apps"],
        "core.calls": spans["core"],
        "trace.overhead": per(traced_wall_s, untraced_wall_s),
        "trace.unattributed_frac": max(
            0.0, 1.0 - per(named_s, untraced_wall_s)
        ),
        "trace.span_cost_ns": per(traced["tracer_s"], total_spans, 1e9),
        "trace.residual_frac": 1.0 - scale,
    })
    return metrics


def calibrate_span_cost(spans: int = 50_000,
                        rounds: int = 5) -> Tuple[float, float, float]:
    """Host seconds a span costs: inside its interval, and in its parent
    for a wrapped call and for an engine dispatch.

    Times an empty loop, a loop of two-argument no-op calls, and the same
    calls through a span and through the dispatcher. A span's own interval
    less the bare call is the inner cost; the loop's time outside the
    spans less the empty loop is the outer cost. Each is the median of
    ``rounds`` trials.
    """
    clock = time.perf_counter

    def noop(first, second) -> None:
        pass

    inner, outer, dispatch_outer = [], [], []
    for _ in range(rounds):
        start = clock()
        for _ in range(spans):
            pass
        empty = clock() - start
        start = clock()
        for _ in range(spans):
            noop(1, 2)
        direct = clock() - start
        ledger = Ledger()
        traced = ledger.spanned(noop, 0)
        start = clock()
        for _ in range(spans):
            traced(1, 2)
        total = clock() - start
        inside = ledger._stack[0]
        inner.append((inside - (direct - empty)) / spans)
        outer.append((total - inside - empty) / spans)
        ledger = Ledger()
        dispatch = ledger._dispatcher()
        start = clock()
        for _ in range(spans):
            dispatch(noop, 1, 2)
        total = clock() - start
        dispatch_outer.append((total - ledger._stack[0] - empty) / spans)
    return tuple(max(0.0, statistics.median(costs))
                 for costs in (inner, outer, dispatch_outer))
