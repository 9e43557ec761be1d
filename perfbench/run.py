"""Benchmark of record: time one workload, check its outputs, print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload bulk-dilated --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for why each was chosen): ``bulk-dilated``,
``bulk-hybrid``, ``swarm-100``, ``leo-stream``.

Every repetition runs in a fresh ``worker.py`` process, one workload per
process, no ``--jobs`` and no shards. Repetitions are started until
``--seconds`` of host time have passed (at least one). Repetition 0
runs ``--seed`` itself and repetition ``i`` runs ``seed * 1000 + i``, so
a median is taken over several inputs and one unlucky input (a swarm
that finishes one 5 s stride later) does not move it. Each repetition
is checked against the workload's invariants, and against its pinned
outputs when its seed is the default seed.

``--trace 0`` reports the end-to-end metrics, medians over the
repetitions of untraced runs:

``sim_speed``   virtual seconds advanced per host second of ``wall_s``;
                its reciprocal is the smallest TDF at which the workload
                could be paced in real time.
``wall_s``      host time from the first ``Simulator.run`` entry to the
                runner's return.
``setup_s``     host time from the runner call to the first
                ``Simulator.run`` entry (topology, routes, VMs, stacks,
                apps), so that work moved into set-up still shows.
``peak_rss_mb`` peak resident set of the workload's process.
``passed_frac`` share of repetitions that did not raise and whose outputs
                passed the checks. Its complement is the failure share; it
                is reported this way round so the metric is never 0.

``--trace 1`` reports the per-layer metrics of ``ledger.py`` instead. It
runs pairs of an untraced and a traced repetition on the same seed,
requires the traced outputs and event count to equal the untraced ones
bit for bit, and adds the engine microbenchmark's timer-churn driver
(``benchmarks/test_engine_throughput.py``) as ``engine.floor_ns_per_event``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from ledger import PER_LAYER, per_layer_metrics  # noqa: E402

WORKLOAD_NAMES = ("bulk-dilated", "bulk-hybrid", "swarm-100", "leo-stream")

#: End-to-end metrics of the untraced runs: (name, unit).
END_TO_END = (
    ("sim_speed", "virt_s/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("passed_frac", "ratio"),
)

#: No single repetition may outlive this, so a run ends within 180 s.
CHILD_TIMEOUT_S = 150.0


class WorkerError(RuntimeError):
    """A worker process died or overran: the benchmark cannot go on."""


def child(mode: str, workload: str, seed: int, deadline: float) -> dict:
    """Run one worker process to completion and return its record.

    A runner that raises is reported in the record; a worker that exits
    without a record, or outlives ``deadline``, raises :class:`WorkerError`.
    """
    command = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
               "--workload", workload, "--seed", str(seed)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} {workload} seed {seed}: timed out") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"{mode} {workload} seed {seed}: exit "
                          f"{proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def rep_seed(seed: int, index: int) -> int:
    """The input seed of repetition ``index`` of a run on ``seed``."""
    return seed if index == 0 else seed * 1000 + index


def untraced(workload: str, seed: int, seconds: float, hard_end: float):
    start = time.perf_counter()
    records, attempted, failed = [], 0, 0
    while attempted == 0 or time.perf_counter() - start < seconds:
        record = child("plain", workload, rep_seed(seed, attempted), hard_end)
        attempted += 1
        if record["problems"]:
            failed += 1
            print(f"{workload} seed {seed}: {record['problems']}", file=sys.stderr)
        if "wall_s" in record:
            records.append(record)
    if not records:
        return None, attempted, failed

    def median(key: str) -> float:
        return statistics.median(record[key] for record in records)

    metrics = {
        "sim_speed": statistics.median(
            record["virtual_s"] / record["wall_s"] for record in records
        ),
        "wall_s": median("wall_s"),
        "setup_s": median("setup_s"),
        "peak_rss_mb": median("peak_rss_mb"),
        "passed_frac": (attempted - failed) / attempted,
    }
    return metrics, attempted, failed


def traced(workload: str, seed: int, seconds: float, hard_end: float):
    floor = child("floor", workload, seed, hard_end)
    start = time.perf_counter()
    pairs: List[Dict[str, float]] = []
    attempted, failed = 0, 0
    while attempted == 0 or time.perf_counter() - start < seconds:
        plain = child("plain", workload, rep_seed(seed, attempted), hard_end)
        traced_run = child("traced", workload, rep_seed(seed, attempted), hard_end)
        attempted += 1
        problems = plain["problems"] + traced_run["problems"]
        if not problems and (
            traced_run["fingerprint"] != plain["fingerprint"]
            or traced_run["events"] != plain["events"]
        ):
            problems.append("the traced run's outputs differ from the untraced run's")
        if problems:
            failed += 1
            print(f"{workload} seed {seed}: {problems}", file=sys.stderr)
            continue
        pairs.append(per_layer_metrics(
            traced_run["ledger"], traced_run["wall_s"], plain["wall_s"],
            floor["floor_ns_per_event"],
        ))
    if not pairs:
        return None, attempted, failed
    # median_low: each figure is one a pair measured, so counts stay whole.
    metrics = {
        name: statistics.median_low(pair[name] for pair in pairs)
        for name, _, _ in PER_LAYER
    }
    return metrics, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [path for path in (ROOT / "src" / "repro" / "__init__.py",
                                 ROOT / "benchmarks" / "test_engine_throughput.py")
               if not path.is_file()]
    if missing:
        print(f"cannot benchmark: {', '.join(map(str, missing))} not found",
              file=sys.stderr)
        return 2
    hard_end = time.perf_counter() + CHILD_TIMEOUT_S
    measure = traced if args.trace else untraced
    try:
        metrics, attempted, failed = measure(args.workload, args.seed,
                                             args.seconds, hard_end)
    except WorkerError as error:
        print(error, file=sys.stderr)
        return 1
    if args.trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        units = dict(END_TO_END)
    if metrics is None:
        print("no repetition completed", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"{name:32s} {value:>18.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
