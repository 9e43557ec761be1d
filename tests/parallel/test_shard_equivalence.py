"""Sharded runs must reproduce the single-process engine.

The contract has two tiers (see ``repro/parallel/shard.py``):

* **event-for-event identity** — every result field bit-equal, and the
  flight recorder sees zero divergence — whenever the topology is free
  of cross-leaf float-time ties (``delay_salt`` guarantees that for the
  swarm's symmetric star; the dumbbell's cut carries a single channel
  per direction so it needs no salt);
* **aggregate exactness** — event counts, byte totals, announce counts —
  for *any* configuration, salted or not, because staged injection
  replaces scheduled delivery 1:1 and sums are order-free.
"""

import dataclasses

import pytest

from repro.core.dilation import NetworkProfile
from repro.harness.experiments import run_bittorrent, run_bulk
from repro.simnet.errors import ConfigurationError
from repro.simnet.units import mbps, ms
from repro.trace.diff import diff_traces
from repro.trace.spec import TraceSpec

PROFILE = NetworkProfile.from_rtt(mbps(10), ms(20))
BULK_PROFILE = NetworkProfile.from_rtt(mbps(10), ms(40))


def _fields(result):
    """Result as a dict minus the legitimately shard-dependent extras."""
    out = dataclasses.asdict(result)
    out.pop("shard_stats")
    # Merged trace events are compared through diff_traces (packet uids
    # are per-process debugging handles, not semantic identity).
    out.pop("trace_events", None)
    return out


def test_bulk_two_shards_event_for_event_identical():
    kwargs = dict(perceived=BULK_PROFILE, tdf=1, duration_s=10.0, flows=2)
    single = run_bulk(**kwargs)
    sharded = run_bulk(**kwargs, shards=2)
    assert _fields(sharded) == _fields(single)
    assert sharded.events_processed == single.events_processed
    # The per-shard counters account for every executed event exactly.
    assert sum(s["events_processed"] for s in sharded.shard_stats) == (
        single.events_processed
    )
    assert [s["shard"] for s in sharded.shard_stats] == [0, 1]
    assert all(s["rounds"] > 0 for s in sharded.shard_stats)


def test_unsalted_symmetric_bulk_event_for_event_identical():
    """Regression for the ``apply_axes`` default-salt gap: sharded
    ``run_bulk`` cells get no ``delay_salt`` (the kwarg does not even
    exist for bulk), so this pins the reason that is safe — a multi-flow
    dumbbell's flows are perfectly symmetric, yet every cross-shard
    channel (one per bottleneck direction) carries FIFO-ordered traffic
    whose (arrival, tx_finish) keys never tie across channels, so the
    unsalted run is exact to the trace level, not just in aggregates."""
    kwargs = dict(perceived=BULK_PROFILE, tdf=1, duration_s=8.0, flows=3,
                  trace=TraceSpec(point="bottleneck"))
    single = run_bulk(**kwargs)
    sharded = run_bulk(**kwargs, shards=2)
    assert _fields(sharded) == _fields(single)
    assert sharded.events_processed == single.events_processed
    assert len(sharded.trace_events) == len(single.trace_events)
    report = diff_traces(single.trace_events, sharded.trace_events)
    assert report.identical, report.render(
        label_a="shards=1", label_b="shards=2"
    )
    assert report.events_compared > 0


def test_bulk_with_cross_traffic_event_for_event_identical():
    """ext1's CBR pair is split at the bottleneck like the TCP pairs, so
    its sharded run matches the single-process one to the trace level."""
    kwargs = dict(perceived=BULK_PROFILE, tdf=1, duration_s=3.0,
                  warmup_s=1.0, cross_share=0.3,
                  trace=TraceSpec(point="bottleneck"))
    single = run_bulk(**kwargs)
    sharded = run_bulk(**kwargs, shards=2)
    assert single.cross_rate_bps > 0
    assert _fields(sharded) == _fields(single)
    assert sharded.events_processed == single.events_processed
    report = diff_traces(single.trace_events, sharded.trace_events)
    assert report.identical, report.render(
        label_a="shards=1", label_b="shards=2"
    )
    assert report.events_compared > 0


@pytest.mark.parametrize("shards", [2, 3])
def test_salted_swarm_identical_across_shard_counts(shards):
    kwargs = dict(perceived_leaf=PROFILE, tdf=1, leechers=4,
                  file_bytes=128 * 1024, seed=99, delay_salt=1e-6)
    single = run_bittorrent(**kwargs)
    sharded = run_bittorrent(**kwargs, shards=shards)
    assert _fields(sharded) == _fields(single)
    assert sharded.download_times_s == single.download_times_s
    assert len(sharded.shard_stats) == shards


def test_salted_swarm_trace_diff_pins_zero_divergence():
    kwargs = dict(perceived_leaf=PROFILE, tdf=1, leechers=4,
                  file_bytes=128 * 1024, seed=99, delay_salt=1e-6,
                  trace=TraceSpec(point="bottleneck"))
    single = run_bittorrent(**kwargs)
    sharded = run_bittorrent(**kwargs, shards=2)
    assert len(sharded.trace_events) == len(single.trace_events)
    report = diff_traces(single.trace_events, sharded.trace_events)
    assert report.identical, report.render(
        label_a="shards=1", label_b="shards=2"
    )
    assert report.events_compared > 0


def test_unsalted_symmetric_swarm_aggregates_exact():
    """A perfectly symmetric star phase-locks onto same-float ties whose
    single-process order no bounded key reproduces — but the 1:1 event
    replacement still makes every order-free aggregate exact."""
    kwargs = dict(perceived_leaf=PROFILE, tdf=1, leechers=4,
                  file_bytes=128 * 1024, seed=99)
    single = run_bittorrent(**kwargs)
    sharded = run_bittorrent(**kwargs, shards=2)
    assert sharded.events_processed == single.events_processed
    assert sharded.completed == single.completed
    assert sharded.total_downloaded_bytes == single.total_downloaded_bytes
    assert sharded.seed_uploaded_bytes == single.seed_uploaded_bytes
    assert sharded.tracker_announces == single.tracker_announces
    # Download times may reorder same-float deliveries; they must still
    # agree to well under a round-trip.
    assert sharded.download_times_s == pytest.approx(
        single.download_times_s, abs=0.05
    )


def test_shards_one_is_the_plain_engine():
    kwargs = dict(perceived_leaf=PROFILE, tdf=1, leechers=2,
                  file_bytes=64 * 1024, seed=7)
    plain = run_bittorrent(**kwargs)
    explicit = run_bittorrent(**kwargs, shards=1)
    assert _fields(plain) == _fields(explicit)
    assert explicit.shard_stats == []


def test_timer_tracing_rejected_under_sharding():
    """timers=1 records engine-internal events whose global interleaving
    is unobservable across processes; refuse instead of mis-merging."""
    with pytest.raises(ConfigurationError, match="timers"):
        run_bittorrent(
            perceived_leaf=PROFILE, tdf=1, leechers=2,
            file_bytes=64 * 1024, seed=7,
            trace=TraceSpec(point="bottleneck", timers=True),
            shards=2,
        )


def test_swarm_needs_enough_leechers_for_the_stripe():
    with pytest.raises(ConfigurationError):
        run_bittorrent(
            perceived_leaf=PROFILE, tdf=1, leechers=1,
            file_bytes=64 * 1024, seed=7, shards=3,
        )


@pytest.mark.parametrize("shards", [1, 2])
def test_worker_configuration_error_reaches_the_caller_unchanged(shards):
    """A bad argument only a cell can check is refused with the same
    one-line ConfigurationError at every shard count, not rewrapped as a
    worker traceback."""
    with pytest.raises(ConfigurationError) as refused:
        run_bittorrent(
            perceived_leaf=PROFILE, tdf=1, leechers=2,
            file_bytes=64 * 1024, seed=7, piece_bytes=0, shards=shards,
        )
    assert str(refused.value) == "piece size must be positive"
