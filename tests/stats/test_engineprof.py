"""Unit tests for the engine profiler."""

from repro.simnet import engine
from repro.simnet.engine import Simulator
from repro.stats.engineprof import EngineProfiler, merge, profiled, render


def tick():
    pass


def tock():
    pass


def test_records_events_and_histogram():
    sim = Simulator()
    profiler = EngineProfiler()
    sim.attach_profiler(profiler)
    for i in range(3):
        sim.schedule(float(i + 1), tick)
    sim.schedule(4.0, tock)
    sim.run()
    assert profiler.events == 4
    assert profiler.by_component == {"tick": 3, "tock": 1}
    assert profiler.sims == [sim]


def test_aggregates_across_simulators():
    profiler = EngineProfiler()
    for count in (2, 5):
        sim = Simulator()
        sim.attach_profiler(profiler)
        for i in range(count):
            sim.schedule(float(i + 1), tick)
        sim.run()
    assert profiler.events == 7
    assert len(profiler.sims) == 2
    snap = profiler.snapshot()
    assert snap["events"] == 7
    assert snap["simulators"] == 2
    assert snap["by_component"] == {"tick": 7}


def test_snapshot_carries_heap_hygiene_counters():
    sim = Simulator()
    profiler = EngineProfiler()
    sim.attach_profiler(profiler)
    event = sim.schedule(1.0, tick)
    for i in range(200):  # force compaction sweeps
        event.reschedule(1.0 + i * 1e-6)
    sim.run()
    snap = profiler.snapshot()
    assert snap["compactions"] == sim.compactions > 0
    assert snap["dead_entries_reaped"] == sim.dead_entries_reaped > 0
    assert snap["max_heap_len"] == sim.max_heap_len
    assert snap["live_events"] == 0


def test_profiled_context_auto_attaches_and_clears():
    with profiled() as profiler:
        sim = Simulator()
        sim.schedule(1.0, tick)
        sim.run()
    assert profiler.events == 1
    assert engine._default_profiler is None
    assert Simulator()._profiler is None


def test_profiled_clears_default_on_error():
    try:
        with profiled():
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert engine._default_profiler is None


def test_detach_stops_recording():
    sim = Simulator()
    profiler = EngineProfiler()
    sim.attach_profiler(profiler)
    sim.schedule(1.0, tick)
    sim.run()
    sim.attach_profiler(None)
    sim.schedule(1.0, tick)
    sim.run()
    assert profiler.events == 1


def test_profiling_does_not_perturb_results():
    def drive(sim):
        order = []

        def hop(n):
            order.append((sim.now, n))
            if n < 50:
                sim.schedule_transient(0.5, hop, n + 1)

        sim.schedule_transient(0.5, hop, 1)
        sim.run()
        return order, sim.events_processed

    plain = drive(Simulator())
    with profiled():
        observed = drive(Simulator())
    assert observed == plain


def test_render_mentions_throughput_and_components():
    sim = Simulator()
    profiler = EngineProfiler()
    sim.attach_profiler(profiler)
    sim.schedule(1.0, tick)
    sim.run()
    text = profiler.render()
    assert "events/sec" in text
    assert "tick" in text
    assert "compactions" in text


def test_named_counters_merged_across_sims_and_rendered():
    profiler = EngineProfiler()
    sims = [Simulator(), Simulator()]
    for index, sim in enumerate(sims):
        sim.attach_profiler(profiler)
        sim.counters["drop.loss"] = 3 + index
        sim.schedule(1.0, tick)
        sim.run()
    assert profiler.counters() == {"drop.loss": 7}
    snap = profiler.snapshot()
    assert snap["counters"] == {"drop.loss": 7}
    assert "drop.loss" in profiler.render()


def test_realtime_counters_split_into_own_section():
    profiler = EngineProfiler()
    sim = Simulator()
    sim.attach_profiler(profiler)
    sim.counters["realtime.deadline_miss"] = 2
    sim.counters["realtime.max_slip_ms"] = 7.5
    sim.counters["realtime.busy_frac"] = 0.42
    sim.counters["drop.loss"] = 1
    sim.schedule(1.0, tick)
    sim.run()
    assert profiler.namespace("realtime.") == {
        "deadline_miss": 2, "max_slip_ms": 7.5, "busy_frac": 0.42,
    }
    snap = profiler.snapshot()
    assert snap["realtime"]["deadline_miss"] == 2
    rendered = profiler.render()
    assert "realtime pacing:" in rendered
    assert "deadline_miss" in rendered
    # The generic counter section excludes the realtime namespace.
    generic_start = rendered.index("  counters:")
    assert "realtime." not in rendered[generic_start:]


def test_render_and_snapshot_pinned_with_every_namespace():
    profiler = EngineProfiler()
    sim = Simulator()
    sim.attach_profiler(profiler)
    sim.counters.update({
        "shard.rounds": 3, "shard.windows_per_round": 2,
        "fluid.entries": 5, "fluid.exit.loss": 1,
        "realtime.deadline_miss": 2,
        "drop.loss": 7, "tcp.retransmits": 1234,
    })
    sim.schedule(1.0, tick)
    sim.run()
    snap = profiler.snapshot()
    assert list(snap) == [
        "shard", "fluid", "realtime", "events", "wall_s", "events_per_sec",
        "simulators", "live_events", "heap_len", "max_heap_len",
        "compactions", "dead_entries_reaped", "counters", "by_component",
    ]
    assert snap["shard"] == {"rounds": 3, "windows_per_round": 2}
    assert snap["fluid"] == {"entries": 5, "exit.loss": 1}
    assert snap["realtime"] == {"deadline_miss": 2}
    lines = [line for line in profiler.render().splitlines()
             if "wall time" not in line and "events/sec" not in line]
    assert lines == [
        "engine profile:",
        "  events executed              1",
        "  simulators                   1",
        "  peak heap length             1",
        "  compactions                  0",
        "  dead entries                 0",
        "  shard barrier:",
        "    rounds                      3",
        "    windows_per_round           2",
        "  fluid fast path:",
        "    entries             5",
        "    exit.loss           1",
        "  realtime pacing:",
        "    deadline_miss           2",
        "  counters:",
        "    drop.loss                 7",
        "    tcp.retransmits       1,234",
        "  top 1 components:",
        "    tick           1  (100.0%)",
    ]


#: Two runs whose ``tick``/``tock`` counts tie (3 each) with ``tock`` seen
#: first, the reverse of name order; the second run has the taller heap.
RUNS = (
    ([(1.0, tock), (2.0, tick)], {"drop.loss": 2, "fluid.entries": 1}),
    ([(1.0, tick), (2.0, tock), (3.0, tick), (4.0, tock)],
     {"drop.loss": 3, "tcp.retransmits": 1}),
)


def _drive(profiler, schedule, counters):
    sim = Simulator()
    sim.attach_profiler(profiler)
    for time, fn in schedule:
        sim.schedule(time, fn)
    sim.counters.update(counters)
    sim.run()


def _steady(text):
    return [line for line in text.splitlines()
            if "wall time" not in line and "events/sec" not in line]


def test_merged_snapshots_equal_one_profiler_over_the_same_runs():
    whole = EngineProfiler()
    parts = []
    for schedule, counters in RUNS:
        _drive(whole, schedule, counters)
        part = EngineProfiler()
        _drive(part, schedule, counters)
        parts.append(part.snapshot())
    merged = merge(parts)
    expected = whole.snapshot()
    for snap in (merged, expected):
        del snap["wall_s"], snap["events_per_sec"]
    assert merged == expected
    assert list(merged) == list(expected)
    assert list(merged["by_component"]) == ["tock", "tick"]
    assert merged["max_heap_len"] == 4
    assert merged["fluid"] == {"entries": 1}
    assert merged["counters"] == {
        "drop.loss": 5, "fluid.entries": 1, "tcp.retransmits": 1,
    }
    rendered = _steady(render(merge(parts)))
    assert rendered == _steady(whole.render())
    assert rendered[-2:] == [
        "    tock           3  (50.0%)",
        "    tick           3  (50.0%)",
    ]


def test_empty_merge_is_a_zero_profile():
    merged = merge([])
    assert merged["events"] == merged["simulators"] == 0
    assert merged["by_component"] == {} and merged["counters"] == {}
    assert _steady(render(merged))[:2] == [
        "engine profile:", "  events executed              0",
    ]
