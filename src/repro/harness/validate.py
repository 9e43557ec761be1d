"""Dilation-safety validation for user workloads.

The library's own figures all follow one recipe: run a workload dilated,
run it against the rescaled baseline, compare. :func:`assert_equivalent`
packages that recipe so downstream users can certify *their* workloads the
same way — the moral equivalent of the paper's validation section as a
reusable assertion.

The user supplies a runner ``fn(perceived_profile, tdf) -> dict`` whose
values are the metrics to compare (numbers, or lists of numbers compared
element-wise).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence, Union

from ..core.dilation import NetworkProfile
from ..core.tdf import TdfLike
from .experiments import relative_error

__all__ = [
    "EquivalenceReport",
    "compare_metrics",
    "metric_error",
    "check_equivalent",
    "assert_equivalent",
]

Metric = Union[float, int, Sequence[float]]
Runner = Callable[[NetworkProfile, TdfLike], Mapping[str, Metric]]


@dataclass
class MetricComparison:
    """One metric's dilated-vs-baseline outcome."""

    name: str
    baseline: Metric
    dilated: Metric
    error: float

    def within(self, tolerance: float) -> bool:
        return self.error <= tolerance


@dataclass
class EquivalenceReport:
    """The full comparison between a dilated run and its baseline."""

    tdf: TdfLike
    comparisons: List[MetricComparison]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(c.within(self.tolerance) for c in self.comparisons)

    def failures(self) -> List[MetricComparison]:
        return [c for c in self.comparisons if not c.within(self.tolerance)]

    def summary(self) -> str:
        lines = [f"equivalence at TDF {self.tdf} (tolerance {self.tolerance:g}):"]
        for c in self.comparisons:
            marker = "ok  " if c.within(self.tolerance) else "FAIL"
            lines.append(
                f"  [{marker}] {c.name}: baseline={c.baseline!r} "
                f"dilated={c.dilated!r} err={c.error:.3g}"
            )
        return "\n".join(lines)


def metric_error(baseline: Metric, dilated: Metric) -> float:
    """``dilated``'s relative error against ``baseline``: for paired
    sequences the worst pair's, and inf when their lengths differ."""
    if isinstance(baseline, (int, float)) and isinstance(dilated, (int, float)):
        return relative_error(float(dilated), float(baseline))
    baseline_list = list(baseline)  # type: ignore[arg-type]
    dilated_list = list(dilated)    # type: ignore[arg-type]
    if len(baseline_list) != len(dilated_list):
        return float("inf")
    if not baseline_list:
        return 0.0
    return max(
        relative_error(float(d), float(b))
        for b, d in zip(baseline_list, dilated_list)
    )


def compare_metrics(
    baseline: Mapping[str, Metric],
    dilated: Mapping[str, Metric],
    tdf: TdfLike,
    tolerance: float = 0.02,
) -> EquivalenceReport:
    """Build an :class:`EquivalenceReport` from already-measured metrics.

    The comparison half of :func:`check_equivalent`, for runs that have
    already executed. Each metric's error is :func:`metric_error`, the
    one the figures' equivalence gate reports too. Metrics are compared
    on whatever axis the caller measured them; dilation equivalence is
    defined on the virtual-time axis.
    """
    missing = set(baseline) ^ set(dilated)
    if missing:
        raise ValueError(f"metric sets differ between runs: {sorted(missing)}")
    comparisons = [
        MetricComparison(
            name=name,
            baseline=baseline[name],
            dilated=dilated[name],
            error=metric_error(baseline[name], dilated[name]),
        )
        for name in sorted(baseline)
    ]
    return EquivalenceReport(tdf=tdf, comparisons=comparisons,
                             tolerance=tolerance)


def check_equivalent(
    runner: Runner,
    perceived: NetworkProfile,
    tdf: TdfLike,
    tolerance: float = 0.02,
) -> EquivalenceReport:
    """Run ``runner`` at TDF 1 and at ``tdf``; compare every metric.

    The runner receives the *perceived* profile both times — it is the
    runner's job (usually via :func:`repro.core.dilation.physical_for`) to
    derive the physical configuration, exactly as the library's own
    experiment runners do.
    """
    return compare_metrics(
        runner(perceived, 1), runner(perceived, tdf), tdf, tolerance
    )


def assert_equivalent(
    runner: Runner,
    perceived: NetworkProfile,
    tdf: TdfLike,
    tolerance: float = 0.02,
) -> EquivalenceReport:
    """Like :func:`check_equivalent` but raises ``AssertionError`` with a
    readable report when any metric exceeds the tolerance."""
    report = check_equivalent(runner, perceived, tdf, tolerance)
    if not report.passed:
        raise AssertionError(report.summary())
    return report
