"""One measured repetition of one workload, in a fresh process.

Usage (from the repository root; ``run.py`` is the command to use)::

    python3 perfbench/worker.py --workload bulk-dilated --seed 1 --mode plain

``--mode plain`` times the untraced run, ``traced`` runs it under the
per-layer ledger, and ``floor`` times the engine microbenchmark's
timer-churn driver. The worker prints one JSON object on stdout.

Host time is split at the first entry into ``Simulator.run``: set-up
(topology, routes, VMs, stacks, apps) before it, the simulation from it
until the runner returns. A thin wrapper on ``Simulator.run`` notes that
instant and the engine; it adds one call per ``run`` invocation, not per
event.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.simnet.engine import Simulator  # noqa: E402

from ledger import Ledger, calibrate_span_cost  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: The engine microbenchmark whose fast-path driver is the events/s floor.
FLOOR_MODULE = ROOT / "benchmarks" / "test_engine_throughput.py"


class FirstRun:
    """Notes the host time of the first ``Simulator.run`` entry and its engine."""

    def __init__(self, on_first=None) -> None:
        self.at = None
        self.sim = None
        original = Simulator.run

        def run(sim, *args, **kwargs):
            if self.at is None:
                self.sim = sim
                if on_first is not None:
                    on_first()
                self.at = time.perf_counter()
            return original(sim, *args, **kwargs)

        Simulator.run = run


def measure(name: str, seed: int, traced: bool) -> dict:
    workload = WORKLOADS[name]
    ledger = None
    if traced:
        ledger = Ledger(*calibrate_span_cost())
        ledger.install()
    first = FirstRun(ledger.reset if ledger is not None else None)
    start = time.perf_counter()
    result = workload.run(seed)
    end = time.perf_counter()
    sim = first.sim
    fingerprint = workload.fingerprint(result, sim)
    wall_s = end - first.at
    record = {
        "setup_s": first.at - start,
        "wall_s": wall_s,
        "virtual_s": sim.now / workload.tdf,
        "events": result.events_processed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fingerprint": fingerprint,
        "problems": workload.check(seed, fingerprint),
    }
    if ledger is not None:
        record["ledger"] = ledger.read(sim, result)
    return record


def floor() -> dict:
    spec = importlib.util.spec_from_file_location("engine_throughput", FLOOR_MODULE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    events, elapsed, _ = module._drive_fast()
    return {"floor_ns_per_event": elapsed / events * 1e9}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--mode", choices=("plain", "traced", "floor"),
                        default="plain")
    args = parser.parse_args()
    if args.mode == "floor":
        record = floor()
    else:
        try:
            record = measure(args.workload, args.seed, args.mode == "traced")
        except Exception:  # a runner that raises is a failed run, not a crash
            traceback.print_exc()
            record = {"problems": ["raised: " + traceback.format_exc(limit=1)]}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
