"""Unit tests for the discrete-event engine."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.simnet.engine import Event, Simulator
from repro.simnet.errors import SchedulingError


def test_time_starts_at_zero():
    assert Simulator().now == 0.0


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(2.0, lambda: order.append("b"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(3.0, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_scheduling_order():
    sim = Simulator()
    order = []
    for label in "abcde":
        sim.schedule(1.0, lambda l=label: order.append(l))
    sim.run()
    assert order == list("abcde")


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(1.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.5]
    assert sim.now == 1.5


def test_zero_delay_event_runs_after_current_instant_events():
    sim = Simulator()
    order = []
    def first():
        order.append("first")
        sim.schedule(0.0, lambda: order.append("nested"))
    sim.schedule(1.0, first)
    sim.schedule(1.0, lambda: order.append("second"))
    sim.run()
    assert order == ["first", "second", "nested"]


def test_negative_delay_rejected():
    with pytest.raises(SchedulingError):
        Simulator().schedule(-0.1, lambda: None)


def test_call_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SchedulingError):
        sim.call_at(1.0, lambda: None)


def test_cancelled_event_does_not_run():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, lambda: fired.append(1))
    event.cancel()
    sim.run()
    assert fired == []
    assert sim.pending() == 0


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(5.0, lambda: fired.append(5))
    sim.run(until=2.0)
    assert fired == [1]
    assert sim.now == 2.0
    sim.run()
    assert fired == [1, 5]


def test_run_until_exact_boundary_inclusive():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, lambda: fired.append(2))
    sim.run(until=2.0)
    assert fired == [2]


def test_max_events_guard():
    sim = Simulator()

    def rearm():
        sim.schedule(1.0, rearm)

    sim.schedule(1.0, rearm)
    with pytest.raises(SchedulingError):
        sim.run(max_events=100)


def test_stop_halts_loop():
    sim = Simulator()
    fired = []
    def fire_and_stop():
        fired.append(1)
        sim.stop()

    sim.schedule(1.0, fire_and_stop)
    sim.schedule(2.0, lambda: fired.append(2))
    sim.run()
    assert fired == [1]
    assert sim.pending() == 1


def test_reentrant_run_rejected():
    sim = Simulator()

    def nested():
        sim.run()

    sim.schedule(1.0, nested)
    with pytest.raises(SchedulingError):
        sim.run()


def test_peek_time_skips_cancelled():
    sim = Simulator()
    first = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    first.cancel()
    assert sim.peek_time() == 2.0


def test_peek_time_empty_queue():
    assert Simulator().peek_time() is None


def test_events_processed_counter():
    sim = Simulator()
    for _ in range(7):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_processed == 7


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_property_events_fire_in_sorted_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0, max_value=100), st.booleans()),
        min_size=1,
        max_size=40,
    )
)
def test_property_cancellation_exactness(items):
    """Exactly the non-cancelled events run, regardless of interleaving."""
    sim = Simulator()
    ran = []
    expected = 0
    for index, (delay, keep) in enumerate(items):
        event = sim.schedule(delay, lambda i=index: ran.append(i))
        if keep:
            expected += 1
        else:
            event.cancel()
    sim.run()
    assert len(ran) == expected


# ------------------------------------------------------------- fast path


def test_schedule_passes_args_without_closure():
    sim = Simulator()
    got = []
    sim.schedule(1.0, lambda *a: got.append(a), "x", 42)
    sim.run()
    assert got == [("x", 42)]


def test_reschedule_moves_pending_event():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, lambda: fired.append(sim.now))
    event.reschedule(5.0)
    sim.run()
    assert fired == [5.0]
    assert sim.pending() == 0


def test_reschedule_fires_exactly_once():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, lambda: fired.append(sim.now))
    event.reschedule(3.0)
    event.reschedule(2.0)
    sim.run()
    assert fired == [2.0]


def test_reschedule_revives_cancelled_event():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, lambda: fired.append(sim.now))
    event.cancel()
    assert not event.active
    event.reschedule(4.0)
    assert event.active
    sim.run()
    assert fired == [4.0]


def test_reschedule_rearms_fired_event():
    """The TCP delack/persist pattern: keep the Event, re-arm after firing."""
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [1.0]
    assert not event.active
    event.reschedule(sim.now + 2.0)
    sim.run()
    assert fired == [1.0, 3.0]


def test_reschedule_push_counts_toward_peak_heap_length():
    """Each re-key pushes an entry; the peak must see every push."""
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    for step in range(60):
        event.reschedule(2.0 + step)
    assert sim.heap_len() == 61  # below the compaction floor: none reaped
    assert sim.max_heap_len == 61


def test_reschedule_into_past_rejected():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SchedulingError):
        event.reschedule(2.0)


def test_reschedule_ties_like_cancel_and_recreate():
    """A rescheduled event gets a fresh seq: same-time ties fire it last,
    exactly as if the old event were cancelled and a new one scheduled."""
    sim = Simulator()
    order = []
    rearmed = sim.schedule(1.0, lambda: order.append("rearmed"))
    sim.schedule(2.0, lambda: order.append("other"))
    rearmed.reschedule(2.0)
    sim.run()
    assert order == ["other", "rearmed"]


def test_pending_counter_tracks_cancel_reschedule_and_run():
    sim = Simulator()
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
    assert sim.pending() == 5
    events[0].cancel()
    assert sim.pending() == 4
    events[0].reschedule(10.0)  # revive
    assert sim.pending() == 5
    events[1].reschedule(20.0)  # re-key, still one live event
    assert sim.pending() == 5
    sim.run()
    assert sim.pending() == 0


def test_compaction_bounds_heap_growth():
    """Churning one timer thousands of times must not grow the heap."""
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    for i in range(5000):
        event.reschedule(1.0 + i * 1e-6)
    assert sim.compactions > 0
    # Far fewer than the 5000 dead entries churned through the heap.
    assert sim.heap_len() < 200
    assert sim.pending() == 1
    sim.run()
    assert sim.events_processed == 1


def test_compaction_preserves_firing_order():
    sim = Simulator()
    order = []
    keepers = []
    for i in range(50):
        keepers.append(sim.schedule(100.0 + i, lambda i=i: order.append(i)))
    churn = sim.schedule(1.0, lambda: None)
    for i in range(500):  # force several compaction sweeps
        churn.reschedule(1.0 + i * 1e-3)
    churn.cancel()
    sim.run()
    assert order == list(range(50))


def test_transient_event_fires_with_args():
    sim = Simulator()
    got = []
    assert sim.schedule_transient(1.0, lambda v: got.append((sim.now, v)), 7) is None
    sim.run()
    assert got == [(1.0, 7)]


def test_transient_chain_creates_no_events(monkeypatch):
    created = []
    original_init = Event.__init__

    def counting_init(self, *args, **kwargs):
        created.append(self)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(Event, "__init__", counting_init)
    sim = Simulator()
    seen = []

    def hop(n):
        seen.append(n)
        if n < 10:
            sim.schedule_transient(1.0, hop, n + 1)

    sim.schedule_transient(1.0, hop, 1)
    sim.run()
    assert seen == list(range(1, 11))
    assert sim.events_processed == 10
    # A transient is a bare heap entry: no Event handle behind it.
    assert created == []
    # The counting hook does see handle-bearing events.
    sim.schedule(1.0, lambda: None)
    assert len(created) == 1


def test_interleaved_transients_stay_live_through_cancel_and_compaction():
    sim = Simulator()
    order = []
    for i in range(100):
        sim.schedule_transient(2.0 + i, order.append, ("transient", i))
    keeper = sim.schedule(1.5, order.append, ("timer", 0))
    doomed = [sim.schedule(1.0 + i * 1e-3, order.append, "x")
              for i in range(200)]
    for event in doomed:  # the dead outnumber the live: compaction runs
        event.cancel()
    assert sim.compactions > 0
    assert sim.pending() == 101
    # The sweeps dropped dead entries only, never a transient.
    assert sim.heap_len() < 300
    assert sum(entry[3] is None for entry in sim._queue) == 100
    assert sim.peek_time() == 1.5
    keeper.cancel()
    # A transient at the head is live: peek_time returns it unreaped.
    assert sim.peek_time() == 2.0
    assert sim.pending() == 100
    sim.run()
    assert order == [("transient", i) for i in range(100)]
    assert sim.pending() == 0


def test_transient_negative_delay_rejected():
    with pytest.raises(SchedulingError):
        Simulator().schedule_transient(-0.5, lambda: None)


def test_max_events_budget_checked_before_execution():
    """A run needing exactly max_events completes; the budget only trips
    when a further event would exceed it, and the error names the time."""
    sim = Simulator()
    fired = []
    for i in range(3):
        sim.schedule(float(i + 1), lambda i=i: fired.append(i))
    sim.run(max_events=3)
    assert fired == [0, 1, 2]

    rearm = []

    def tick():
        rearm.append(sim.now)
        sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    with pytest.raises(SchedulingError, match=r"max_events=5 at t="):
        sim.run(max_events=5)
    assert len(rearm) == 5  # the budget itself was fully used


def test_run_until_inf_is_no_bound_and_keeps_the_clock():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(5.0, lambda: fired.append(5))
    sim.run(until=math.inf)
    assert fired == [1, 5]
    assert sim.now == 5.0
    sim.schedule(1.0, lambda: fired.append(6))  # the clock is still usable
    sim.run(until=math.inf)
    assert fired == [1, 5, 6] and sim.now == 6.0


def test_run_refuses_nan_until_before_running():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    with pytest.raises(SchedulingError, match="NaN"):
        sim.run(until=math.nan)
    assert fired == [] and sim.now == 0.0 and sim.pending() == 1
    sim.run()  # the refused call left the simulator runnable
    assert fired == [1]


@pytest.mark.parametrize("budget", [math.nan, 2.5, -1, 3.0, True, "3"])
def test_run_refuses_a_budget_that_is_not_a_count(budget):
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(float(i + 1), lambda i=i: fired.append(i))
    with pytest.raises(SchedulingError, match="max_events"):
        sim.run(max_events=budget)
    assert fired == [] and sim.pending() == 5
    sim.run(max_events=5)
    assert fired == [0, 1, 2, 3, 4]


def test_run_with_zero_budget_runs_nothing():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    with pytest.raises(SchedulingError, match="max_events=0"):
        sim.run(max_events=0)
    assert sim.events_processed == 0


def test_peek_time_discards_dead_heads():
    sim = Simulator()
    doomed = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
    sim.schedule(99.0, lambda: None)
    for event in doomed:
        event.cancel()
    assert sim.peek_time() == 99.0
    assert sim.heap_len() == 1  # the dead heads were popped, not scanned


def test_heap_len_counts_dead_entries():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    event.reschedule(2.0)
    assert sim.pending() == 1
    assert sim.heap_len() == 2  # live entry + stale re-keyed entry


# ------------------------------------------------------------ tie-key channel


def test_tie_key_outranks_later_created_same_time_events():
    """An explicit tie_key claims the event's original creation instant:
    a delivery re-created "now" with the key of an old transmit fires
    before a timer armed after that transmit, despite its younger seq."""
    sim = Simulator()
    order = []

    def arm():
        # A periodic-style timer armed at t=2 for t=5 (rank 2.0)...
        sim.call_at(5.0, order.append, "timer")
        # ...and an injected delivery whose original creation was t=1.
        sim.call_at(5.0, order.append, "delivery", tie_key=1.0)

    sim.schedule(2.0, arm)
    sim.run()
    assert order == ["delivery", "timer"]


def test_default_rank_reproduces_creation_order():
    """Without tie_key the rank is the scheduling instant, which is
    monotone in seq — ordering is exactly the historical (time, seq)."""
    sim = Simulator()
    order = []
    sim.call_at(5.0, order.append, "first")
    sim.call_at(5.0, order.append, "second")
    sim.schedule(1.0, lambda: sim.call_at(5.0, order.append, "third"))
    sim.run()
    assert order == ["first", "second", "third"]


def test_reschedule_preserves_explicit_tie_key():
    """Re-arming a keyed event must not lose its rank: the sharded
    engine's injected deliveries may be rescheduled by components (TCP
    RTO reuse), and a dropped key would re-introduce creation-seq skew."""
    sim = Simulator()
    order = []
    keyed = sim.call_at(3.0, order.append, "keyed", tie_key=0.5)
    assert keyed.tie_key == 0.5

    def rearm():
        keyed.reschedule(5.0)          # rank must stay 0.5, not become 2.0
        sim.call_at(5.0, order.append, "timer")  # rank 2.0

    sim.schedule(2.0, rearm)
    sim.run()
    assert keyed.tie_key == 0.5
    assert order == ["keyed", "timer"]


def test_reschedule_rederives_default_rank():
    """An unkeyed event re-keys its rank to the reschedule instant —
    identical to cancel-and-recreate, the reschedule contract."""
    sim = Simulator()
    order = []
    plain = sim.call_at(3.0, order.append, "rearmed")

    def rearm():
        plain.reschedule(5.0)                      # rank becomes 2.0
        sim.call_at(5.0, order.append, "keyed", tie_key=1.0)

    sim.schedule(2.0, rearm)
    sim.run()
    assert order == ["keyed", "rearmed"]


def test_tie_key_later_than_event_time_rejected():
    sim = Simulator()
    with pytest.raises(SchedulingError, match="tie_key"):
        sim.call_at(1.0, lambda: None, tie_key=2.0)


# --------------------------------------------------------------- NaN guards
#
# ``time < now`` is False for NaN, so a plain less-than guard let a NaN
# deadline into the heap, where it fired out of order and set ``now`` to
# NaN. Every scheduling entry point must refuse it.

NAN = float("nan")


def _rejected_harmlessly(schedule_fn):
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run(until=0.5)
    with pytest.raises(SchedulingError):
        schedule_fn(sim)
    assert sim.pending() == 1
    assert sim.heap_len() == 1
    sim.run()
    assert sim.now == 1.0


def test_schedule_rejects_nan_delay():
    _rejected_harmlessly(lambda sim: sim.schedule(NAN, lambda: None))


def test_call_at_rejects_nan_time():
    _rejected_harmlessly(lambda sim: sim.call_at(NAN, lambda: None))


def test_call_at_rejects_nan_tie_key():
    _rejected_harmlessly(lambda sim: sim.call_at(2.0, lambda: None, tie_key=NAN))


def test_schedule_transient_rejects_nan_delay():
    _rejected_harmlessly(lambda sim: sim.schedule_transient(NAN, lambda: None))


def test_schedule_transient_at_rejects_nan_time():
    _rejected_harmlessly(lambda sim: sim.schedule_transient_at(NAN, lambda: None))


def test_reschedule_rejects_nan_time():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "timer")
    with pytest.raises(SchedulingError):
        event.reschedule(NAN)
    # The refused re-key leaves the event armed at its old deadline.
    assert event.active and event.time == 1.0
    sim.run()
    assert fired == ["timer"] and sim.now == 1.0


# ``time >= now`` holds for +inf, so the NaN guards alone let an infinite
# deadline in; the run then ended with ``now == inf``.

INF = float("inf")


def test_schedule_rejects_infinite_delay():
    _rejected_harmlessly(lambda sim: sim.schedule(INF, lambda: None))


def test_call_at_rejects_infinite_time():
    _rejected_harmlessly(lambda sim: sim.call_at(INF, lambda: None))


def test_schedule_transient_rejects_infinite_delay():
    _rejected_harmlessly(lambda sim: sim.schedule_transient(INF, lambda: None))


def test_schedule_transient_at_rejects_infinite_time():
    _rejected_harmlessly(lambda sim: sim.schedule_transient_at(INF, lambda: None))


def test_reschedule_rejects_infinite_time():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "timer")
    with pytest.raises(SchedulingError):
        event.reschedule(INF)
    assert event.active and event.time == 1.0
    sim.run()
    assert fired == ["timer"] and sim.now == 1.0


def test_nan_never_reorders_the_run():
    sim = Simulator()
    order = []
    sim.schedule(1.0, lambda: order.append(("a", sim.now)))
    sim.schedule(0.5, lambda: order.append(("b", sim.now)))
    with pytest.raises(SchedulingError):
        sim.schedule(NAN, lambda: order.append(("nan", sim.now)))
    sim.run()
    assert order == [("b", 0.5), ("a", 1.0)]
