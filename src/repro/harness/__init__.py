"""``repro.harness`` — experiment runners, figure registry, and reporting."""

from .experiments import (
    BitTorrentResult,
    BulkFlowResult,
    CpuResult,
    WebResult,
    default_queue_packets,
    relative_error,
    run_bittorrent,
    run_bulk,
    run_cpu_task,
    run_web,
)
from .report import Check, FigureResult, Table
from .scenario import Scenario, build_scenario
from .validate import EquivalenceReport, assert_equivalent, check_equivalent

__all__ = [
    "run_bulk",
    "run_web",
    "run_bittorrent",
    "run_cpu_task",
    "BulkFlowResult",
    "WebResult",
    "BitTorrentResult",
    "CpuResult",
    "default_queue_packets",
    "relative_error",
    "Table",
    "FigureResult",
    "Check",
    "Scenario",
    "build_scenario",
    "EquivalenceReport",
    "check_equivalent",
    "assert_equivalent",
]
