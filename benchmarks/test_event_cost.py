"""Interpreter work per engine event, by layer: a count, not a timing.

Wall time on a shared host swings with load; the number of Python
bytecodes a run executes does not. This benchmark runs each cell twice,
untraced and then under a ``sys.settrace`` tracer with
``frame.f_trace_opcodes`` set, and counts every bytecode and every
Python call executed inside ``Simulator.run``. Each frame is charged to
the layer of the module that defines its code, by the benchmark
ledger's own ``layer_of_module`` (``perfbench/ledger.py``), so "engine",
"nic" or "tcp" mean here what they mean in ``perfbench/run.py --trace
1``; ``other`` is everything outside the named layers (dataclass
``__init__`` of ``Packet``, the stats meters).

The counts are deterministic for a given Python version (bytecode
differs between versions, so the version is recorded). The traced run
must reproduce the untraced one exactly: tracing only observes.

Cells:

``fig3-rtt40-tdf10``  the fig3 rtt40 bulk cell at TDF 10, 1.5 virtual
                      seconds with 0.5 s warm-up: the per-packet path.
``ext6-leo-tdf10``    an ext6-style stream at TDF 10 for 20 virtual
                      seconds under a repeated LEO handover schedule:
                      UDP, the link schedule and the smallest packets.

Results land in ``BENCH_event_cost.json`` at the repository root.
"""

from __future__ import annotations

import importlib.util
import json
import platform
import sys
from pathlib import Path

from repro.core.dilation import NetworkProfile
from repro.harness.experiments import run_bulk, run_starlink
from repro.simnet.engine import Simulator
from repro.simnet.schedule import ScheduleSpec
from repro.simnet.units import mbps, ms

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_JSON = REPO_ROOT / "BENCH_event_cost.json"
LEDGER = REPO_ROOT / "perfbench" / "ledger.py"

CELLS = {
    "fig3-rtt40-tdf10": lambda: run_bulk(
        NetworkProfile.from_rtt(mbps(100), ms(40)), 10, 1.5, warmup_s=0.5,
    ),
    "ext6-leo-tdf10": lambda: run_starlink(
        NetworkProfile(mbps(8), ms(25)), 10, 20.0,
        schedule=ScheduleSpec(kind="leo", period_s=2.0, count=9,
                              outage_s=0.05, amplitude=0.5),
        frame_interval_s=0.020,
    ),
}


def _ledger():
    spec = importlib.util.spec_from_file_location("perfbench_ledger", LEDGER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class OpcodeCounter:
    """Bytecodes and Python calls executed, per layer.

    The global trace function sees each new frame once ('call'), looks
    up its code object's layer, switches on opcode events for the frame
    and hands back that layer's local trace function, which counts.
    """

    def __init__(self, ledger) -> None:
        self.names = ledger.LAYERS + ("other",)
        self.ops = [0] * len(self.names)
        self.calls = [0] * len(self.names)
        self._layer_of_module = ledger.layer_of_module
        self._layers = {}
        self._local = [self._counter(index) for index in range(len(self.names))]

    def _counter(self, index: int):
        ops = self.ops

        def local(frame, event, arg):
            if event == "opcode":
                ops[index] += 1
            return local

        return local

    def __call__(self, frame, event, arg):
        code = frame.f_code
        index = self._layers.get(code)
        if index is None:
            index = self._layers[code] = self._layer_of_module(
                frame.f_globals.get("__name__")
            )
        self.calls[index] += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return self._local[index]


def _run(cell, counter=None):
    """Run one cell; count inside ``Simulator.run`` when ``counter`` is set.

    Returns the result and what the engine ended on (events, seq, now).
    """
    engines = []
    original = Simulator.run

    def run(sim, *args, **kwargs):
        engines.append(sim)
        if counter is None:
            return original(sim, *args, **kwargs)
        sys.settrace(counter)
        try:
            return original(sim, *args, **kwargs)
        finally:
            sys.settrace(None)

    Simulator.run = run
    try:
        result = CELLS[cell]()
    finally:
        Simulator.run = original
    sim = engines[0]
    return result, (sim.events_processed, sim._seq, sim.now)


def test_event_cost_record(bench_provenance):
    ledger = _ledger()
    record = {
        "benchmark": "python bytecodes and calls per engine event, by layer",
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "layers_from": "perfbench/ledger.py layer_of_module",
        # A count has no speed bar to assert.
        **bench_provenance(False),
        "cells": {},
    }
    for cell in CELLS:
        plain, plain_engine = _run(cell)
        counter = OpcodeCounter(ledger)
        traced, traced_engine = _run(cell, counter)
        assert traced == plain, f"{cell}: tracing changed the outputs"
        assert traced_engine == plain_engine, f"{cell}: tracing changed the run"
        events = plain_engine[0]
        assert events > 0
        record["cells"][cell] = {
            "events": events,
            "bytecodes_per_event": round(sum(counter.ops) / events, 2),
            "calls_per_event": round(sum(counter.calls) / events, 2),
            "layers": {
                name: {
                    "bytecodes_per_event": round(counter.ops[index] / events, 2),
                    "calls_per_event": round(counter.calls[index] / events, 2),
                }
                for index, name in enumerate(counter.names)
                if counter.ops[index] or counter.calls[index]
            },
        }
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")
    print()
    for cell, row in record["cells"].items():
        layers = ", ".join(f"{name} {value['bytecodes_per_event']}"
                           for name, value in row["layers"].items())
        print(f"{cell}: {row['bytecodes_per_event']} bytecodes, "
              f"{row['calls_per_event']} calls per event ({layers}) "
              f"-> {BENCH_JSON.name}")
