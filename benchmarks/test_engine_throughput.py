"""Engine events/sec microbenchmark — fast path vs the seed engine.

Timer churn is the event engine's worst case and TCP's steady state: every
segment re-arms the retransmission timer, every delivery re-arms the
delayed-ACK timer, and the persist timer rides along — three cancel/re-arm
cycles per packet event. The seed engine paid for each re-arm with a fresh
``Event`` allocation, a fresh closure, and a heap push into a heap bloated
by every previously cancelled entry (lazy deletion never reclaimed them
until they surfaced). The fast path re-keys the existing ``Event`` in
place (:meth:`Event.reschedule`), schedules fire-and-forget packet events
as bare heap entries with no ``Event`` behind them
(:meth:`Simulator.schedule_transient`), and compacts the heap when dead
entries outnumber live ones.

This benchmark drives both engines through the *identical* logical
workload — N flows, one packet event per ms per flow, three timer re-arms
per packet — and asserts the fast path clears the acceptance bar of
**1.5x** the seed engine's events/sec. Results land in
``BENCH_engine.json`` at the repo root so regressions show up in review.

The legacy engine below is a faithful copy of the seed's
``repro/simnet/engine.py`` hot path (docstrings trimmed), including its
per-event-lambda scheduling idiom from the seed's ``nic.py``
(``sim.schedule(tx, lambda: self._finish_transmit(pkt))``).
"""

from __future__ import annotations

import heapq
import itertools
import json
import time
from pathlib import Path

from repro.simnet.engine import Simulator

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_JSON = REPO_ROOT / "BENCH_engine.json"

#: Acceptance bar from the issue: fast path must deliver >= 1.5x the seed
#: engine's events/sec on this workload.
REQUIRED_SPEEDUP = 1.5

FLOWS = 100
PACKET_GAP_S = 0.001
RTO_S = 0.2
DELACK_S = 0.04
PERSIST_S = 0.5
DURATION_S = 4.0
ROUNDS = 2  # best-of-N to shrug off scheduler noise


# --------------------------------------------------------------------------
# The seed engine, embedded so the comparison never drifts as the live
# engine evolves.
# --------------------------------------------------------------------------


class LegacyEvent:
    __slots__ = ("time", "seq", "fn", "cancelled")

    def __init__(self, time, seq, fn):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class LegacySimulator:
    """The seed's engine: lazy deletion, no reschedule, no pooling."""

    def __init__(self):
        self._now = 0.0
        self._queue = []
        self._seq = itertools.count()
        self.events_processed = 0

    @property
    def now(self):
        return self._now

    def schedule(self, delay, fn):
        return self.call_at(self._now + delay, fn)

    def call_at(self, time, fn):
        event = LegacyEvent(time, next(self._seq), fn)
        heapq.heappush(self._queue, (time, event.seq, event))
        return event

    def run(self, until=None):
        while self._queue:
            time_, _, event = self._queue[0]
            if until is not None and time_ > until:
                break
            heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = time_
            event.fn()
            self.events_processed += 1


# --------------------------------------------------------------------------
# The workload: per-flow packet clock, three timer re-arms per packet.
# --------------------------------------------------------------------------


class _Flow:
    __slots__ = ("rto", "delack", "persist")


def _drive_legacy():
    """Seed idiom: cancel + schedule a fresh lambda for every re-arm."""
    sim = LegacySimulator()

    def on_timer(flow):
        pass

    def on_packet(flow):
        flow.rto.cancel()
        flow.rto = sim.schedule(RTO_S, lambda: on_timer(flow))
        flow.delack.cancel()
        flow.delack = sim.schedule(DELACK_S, lambda: on_timer(flow))
        flow.persist.cancel()
        flow.persist = sim.schedule(PERSIST_S, lambda: on_timer(flow))
        sim.schedule(PACKET_GAP_S, lambda: on_packet(flow))

    for index in range(FLOWS):
        flow = _Flow()
        flow.rto = sim.schedule(RTO_S, lambda f=flow: on_timer(f))
        flow.delack = sim.schedule(DELACK_S, lambda f=flow: on_timer(f))
        flow.persist = sim.schedule(PERSIST_S, lambda f=flow: on_timer(f))
        sim.schedule(index * PACKET_GAP_S / FLOWS, lambda f=flow: on_packet(f))

    start = time.perf_counter()
    sim.run(until=DURATION_S)
    elapsed = time.perf_counter() - start
    return sim.events_processed, elapsed, {"heap_len": len(sim._queue)}


def _drive_fast():
    """Fast path: reschedule() re-arms, schedule_transient() packet chain."""
    sim = Simulator()

    def on_timer(flow):
        pass

    def on_packet(flow):
        now = sim.now
        flow.rto.reschedule(now + RTO_S)
        flow.delack.reschedule(now + DELACK_S)
        flow.persist.reschedule(now + PERSIST_S)
        sim.schedule_transient(PACKET_GAP_S, on_packet, flow)

    for index in range(FLOWS):
        flow = _Flow()
        flow.rto = sim.schedule(RTO_S, on_timer, flow)
        flow.delack = sim.schedule(DELACK_S, on_timer, flow)
        flow.persist = sim.schedule(PERSIST_S, on_timer, flow)
        sim.schedule_transient(index * PACKET_GAP_S / FLOWS, on_packet, flow)

    start = time.perf_counter()
    sim.run(until=DURATION_S)
    elapsed = time.perf_counter() - start
    stats = {
        "heap_len": sim.heap_len(),
        "max_heap_len": sim.max_heap_len,
        "compactions": sim.compactions,
        "dead_entries_reaped": sim.dead_entries_reaped,
    }
    return sim.events_processed, elapsed, stats


def _best_of(driver, rounds=ROUNDS):
    best_rate, events, stats = 0.0, 0, {}
    for _ in range(rounds):
        n, elapsed, round_stats = driver()
        rate = n / elapsed
        if rate > best_rate:
            best_rate, events, stats = rate, n, round_stats
    return events, best_rate, stats


def test_timer_churn_speedup(bench_provenance):
    legacy_events, legacy_rate, legacy_stats = _best_of(_drive_legacy)
    fast_events, fast_rate, fast_stats = _best_of(_drive_fast)

    # Fairness: both engines must execute the identical logical workload.
    assert fast_events == legacy_events, (
        f"workloads diverged: fast={fast_events} legacy={legacy_events}"
    )

    speedup = fast_rate / legacy_rate
    record = {
        "workload": {
            "flows": FLOWS,
            "packet_gap_s": PACKET_GAP_S,
            "timers_per_packet": 3,
            "duration_s": DURATION_S,
            "events": fast_events,
        },
        "legacy": {
            "events_per_sec": round(legacy_rate),
            **legacy_stats,
        },
        "fast": {
            "events_per_sec": round(fast_rate),
            **fast_stats,
        },
        "speedup": round(speedup, 3),
        "required_speedup": REQUIRED_SPEEDUP,
        # The bar is a single-process property, asserted on every machine.
        **bench_provenance(True),
    }
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")

    print()
    print(f"legacy: {legacy_rate:,.0f} ev/s  (final heap "
          f"{legacy_stats['heap_len']:,} entries)")
    print(f"fast:   {fast_rate:,.0f} ev/s  (final heap "
          f"{fast_stats['heap_len']:,} entries, "
          f"{fast_stats['compactions']} compactions)")
    print(f"speedup: {speedup:.2f}x (required {REQUIRED_SPEEDUP}x) "
          f"-> {BENCH_JSON.name}")

    assert speedup >= REQUIRED_SPEEDUP, (
        f"fast path is only {speedup:.2f}x the seed engine "
        f"(required {REQUIRED_SPEEDUP}x); see {BENCH_JSON}"
    )


def test_fast_engine_keeps_heap_compacted():
    """The fast engine's heap must stay O(live), not O(cancellations)."""
    _, _, stats = _best_of(_drive_fast, rounds=1)
    live = 4 * FLOWS  # 3 timers + 1 packet event per flow
    assert stats["max_heap_len"] < 20 * live, stats
    assert stats["compactions"] > 0


def test_recorder_default_off_is_free_and_nonperturbing():
    """The flight recorder's overhead contract, pinned on the engine.

    Default-off: a fresh engine has no recorder bound, so the hot loop's
    only cost is the one is-None check — and this benchmark's numbers are
    measured on exactly that path. Attached: recording is append-only, so
    the executed-event count (the determinism fingerprint) is unchanged
    and the recorder sees one event per execution.
    """
    from repro.trace.recorder import FlightRecorder

    def drive(recorder=None):
        sim = Simulator()
        assert sim._recorder is None  # default-off
        if recorder is not None:
            recorder.attach_engine(sim)

        def tick(depth):
            if depth:
                sim.schedule_transient(0.001, tick, depth - 1)

        for index in range(20):
            sim.schedule(index * 0.0001, tick, 50)
        sim.run()
        return sim.events_processed

    plain = drive()
    recorder = FlightRecorder(capacity=None)
    recorded = drive(recorder)
    assert plain == recorded > 0
    assert recorder.recorded == recorded
    assert all(e.category == "timer" for e in recorder)
