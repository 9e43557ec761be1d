"""Dilation equivalence on a time-varying topology (the ext6 claim).

The schedule is virtual-time indexed, so a TDF-10 run replays the same
perceived handover trace as the baseline — instants and delays x10,
bandwidths /10 — and the streaming/bulk metrics must agree on the
virtual axis. These tests pin the runner, the ``--schedule`` sweep axis,
and the ext6 registration.
"""

import pytest

from repro.core.dilation import NetworkProfile
from repro.harness import cli
from repro.harness.experiments import run_starlink
from repro.harness.runner import CellSpec, accepts, apply_axes
from repro.harness.validate import compare_metrics
from repro.simnet.schedule import ScheduleSpec
from repro.simnet.units import mbps, ms
from repro.stats.cdf import ks_distance, percentile

PERCEIVED = NetworkProfile(mbps(8), ms(25))
SCHEDULE = ScheduleSpec(kind="leo", period_s=2.0, count=2, outage_s=0.05,
                        amplitude=0.5)


def _run(tdf):
    return run_starlink(perceived=PERCEIVED, tdf=tdf, duration_s=6.0,
                        schedule=SCHEDULE)


def test_starlink_dilation_equivalence_on_virtual_axis():
    base = _run(1)
    dilated = _run(10)
    # The schedule bit identically in both runs.
    assert base.schedule_changes == dilated.schedule_changes == 4
    assert base.outage_drops > 0
    assert dilated.outage_drops > 0
    # CDF-quantile gate, via the user-facing validation machinery.
    report = compare_metrics(
        baseline={f"p{q}": percentile(base.frame_delays_s, q)
                  for q in (10, 50, 90)},
        dilated={f"p{q}": percentile(dilated.frame_delays_s, q)
                 for q in (10, 50, 90)},
        tdf=10,
        tolerance=0.05,
    )
    assert report.passed, report.summary()
    assert ks_distance(base.frame_delays_s, dilated.frame_delays_s) <= 0.25
    # QoE aggregates ride along.
    assert dilated.playable_fraction == pytest.approx(
        base.playable_fraction, abs=0.05
    )
    assert dilated.stall_fraction == pytest.approx(
        base.stall_fraction, abs=0.05
    )
    assert dilated.jitter_s == pytest.approx(base.jitter_s, rel=0.05)


def test_starlink_static_path_has_no_schedule_artifacts():
    result = run_starlink(perceived=PERCEIVED, tdf=1, duration_s=2.0,
                          schedule=None, bulk=False)
    assert result.schedule_changes == 0
    assert result.outage_drops == 0
    assert result.frames_sent > 0
    assert result.playable_fraction == pytest.approx(1.0)
    assert result.bulk_goodput_bps == 0.0


def test_ext6_registered_with_schedule_capable_runners():
    from repro.harness.figures import CELL_MODEL

    cells = CELL_MODEL["ext6"].cells()
    assert cells, "ext6 enumerates no cells"
    assert all(accepts(spec.runner, "schedule") for spec in cells)
    runners = {spec.runner for spec in cells}
    assert runners == {"run_starlink", "run_bittorrent"}


def test_apply_schedule_rewrites_only_capable_cells():
    cells = [
        CellSpec("f", "a", "run_starlink", {"tdf": 1}),
        CellSpec("f", "b", "run_web", {"tdf": 1}),
    ]
    out = apply_axes(cells, "f", schedule=SCHEDULE)
    assert out[0].kwargs["schedule"] == SCHEDULE
    assert "schedule" not in out[1].kwargs
    # Distinct token from the static twin: no cache aliasing.
    assert out[0].token() != cells[0].token()


def test_cli_schedule_rejected_without_capable_cells(capsys):
    assert cli.main(["table1", "--no-cache", "--schedule", "leo"]) == 2
    assert "no schedule-capable cells" in capsys.readouterr().err


def test_cli_schedule_rejects_bad_spec(capsys):
    assert cli.main(["ext6", "--schedule", "geo"]) == 2
    assert "unknown schedule kind" in capsys.readouterr().err


def test_cli_schedule_composes_with_profile_engine(capsys):
    assert cli.main(
        ["ext6", "--profile-engine", "--schedule", "leo"]
    ) == 0
    out = capsys.readouterr().out
    assert out.count("engine profile:") == 1
    assert "LinkSchedule._apply" in out
