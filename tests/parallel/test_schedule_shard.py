"""Scheduled links under the sharded engine: zero-divergence equivalence.

A schedule is replicated, not partitioned: every worker holds the full
topology and arms the same timers at the same instants, so per-shard link
copies step in lockstep and a scheduled sharded run reproduces its
single-process twin to the packet-trace level. The one legitimate
difference is ``events_processed`` — each worker fires its own copy of
every schedule timer — so these tests gate on metrics and trace diffs,
never on event counts.
"""

import dataclasses

from repro.core.dilation import NetworkProfile
from repro.harness.experiments import run_bulk
from repro.simnet.schedule import ScheduleSpec
from repro.simnet.units import mbps, ms
from repro.trace.diff import diff_traces
from repro.trace.spec import TraceSpec

PROFILE = NetworkProfile.from_rtt(mbps(8), ms(60))
SCHEDULE = ScheduleSpec(kind="leo", period_s=1.0, count=4, outage_s=0.03,
                        amplitude=0.5)


def _fields(result):
    """Result minus the legitimately shard-dependent extras."""
    out = dataclasses.asdict(result)
    out.pop("shard_stats")
    out.pop("trace_events", None)
    # Per-worker schedule-timer copies inflate the sharded event count;
    # everything semantic is compared through the remaining fields.
    out.pop("events_processed")
    return out


def test_scheduled_bulk_two_shards_metrics_identical():
    kwargs = dict(perceived=PROFILE, tdf=1, duration_s=6.0, flows=2,
                  schedule=SCHEDULE)
    single = run_bulk(**kwargs)
    sharded = run_bulk(**kwargs, shards=2)
    assert _fields(sharded) == _fields(single)
    assert len(sharded.shard_stats) == 2


def _assert_zero_divergence(schedule):
    kwargs = dict(perceived=PROFILE, tdf=1, duration_s=6.0, flows=2,
                  schedule=schedule,
                  trace=TraceSpec(point="bottleneck", tcp=True))
    single = run_bulk(**kwargs)
    sharded = run_bulk(**kwargs, shards=2)
    assert len(sharded.trace_events) == len(single.trace_events)
    report = diff_traces(single.trace_events, sharded.trace_events)
    assert report.identical, report.render(
        label_a="shards=1", label_b="shards=2"
    )
    assert report.events_compared > 0
    # The schedule bit: outage windows really dropped traffic dark.
    assert single.bottleneck_drops.get("down", 0) > 0


def test_scheduled_bulk_trace_diff_pins_zero_divergence():
    """The cut link itself is the scheduled one (run_bulk schedules the
    bottleneck, which the dumbbell assignment cuts), so this pins both
    the replayed schedule and the re-derived lookahead."""
    _assert_zero_divergence(SCHEDULE)


def test_csv_handover_trace_diff_pins_zero_divergence(tmp_path):
    """A satellite handover written as csv rows: dark for 20 ms, then
    back with a 1 ms one-way delay, far below the bottleneck's static
    30 ms, so the cut's lookahead must come from the schedule. This is
    the one path a time-varying link takes at every shard count."""
    path = tmp_path / "handover.csv"
    path.write_text("0.5,,,0\n0.52,0.001,,1\n1.0,,,0\n1.02,0.03,,1\n")
    _assert_zero_divergence(ScheduleSpec(kind="csv", path=str(path)))
