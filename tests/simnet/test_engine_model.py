"""The engine against a reference model: a sorted list and the documented key.

The model keeps every live entry in a plain dict and fires the one with
the smallest ``(time, rank, seq)`` key, where ``rank`` is the scheduling
instant (or the explicit, sticky ``tie_key``) and ``seq`` counts every
scheduling call, re-keys included. It has no heap, no lazy deletion and
no compaction, so any disagreement points at the engine's bookkeeping.

Hypothesis draws interleavings of every scheduling entry point, cancels
and re-keys of pending, fired and cancelled events, callbacks that
schedule at the current instant or stop the loop, and bounded runs
(``until``, ``max_events``). After each step the two must agree on what
fired and in which order, on ``now``, ``pending()``, ``peek_time()`` and
the executed-event count, and on the error an exhausted budget raises.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.simnet.engine import Simulator
from repro.simnet.errors import SchedulingError

#: Few distinct offsets, so equal timestamps (and equal ranks) are common.
OFFSETS = st.sampled_from([0.0, 0.5, 1.0, 1.5])
#: What a callback does when it fires.
ACTIONS = st.sampled_from([None, None, "transient", "event", "stop"])
TIE_KEYS = st.sampled_from([None, None, 0.0, 0.25])

OPS = st.one_of(
    st.tuples(st.just("call_at"), OFFSETS, TIE_KEYS, ACTIONS),
    st.tuples(st.just("schedule"), OFFSETS, ACTIONS),
    st.tuples(st.just("transient"), OFFSETS, ACTIONS),
    st.tuples(st.just("transient_at"), OFFSETS, ACTIONS),
    st.tuples(st.just("cancel"), st.integers(0, 20)),
    st.tuples(st.just("reschedule"), st.integers(0, 20), OFFSETS),
    st.tuples(st.just("run_until"), OFFSETS),
    st.tuples(st.just("run_max"), st.integers(0, 6)),
    st.tuples(st.just("run_until_max"), OFFSETS, st.integers(0, 6)),
    st.tuples(st.just("run"),),
    st.tuples(st.just("stop"),),
)


def budget_error(max_events, now):
    return f"exceeded max_events={max_events} at t={now}; runaway simulation?"


class Model:
    """The documented semantics, with a dict of live entries."""

    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.entries = {}  # ident -> (time, rank, seq)
        self.ties = {}  # ident -> sticky tie_key of an event
        self.actions = {}  # ident -> (label, action)
        self.handles = []  # event idents, in creation order
        self.fired = []
        self.stopped = False
        self.events_processed = 0
        self._idents = 0

    def _push(self, ident, time, tie_key=None):
        rank = self.now if tie_key is None else tie_key
        self.entries[ident] = (time, rank, self.seq)
        self.seq += 1

    def add(self, time, label, action, event, tie_key=None):
        ident = self._idents
        self._idents += 1
        self.actions[ident] = (label, action)
        if event:
            self.ties[ident] = tie_key
            self.handles.append(ident)
        self._push(ident, time, tie_key)

    def cancel(self, ident):
        self.entries.pop(ident, None)

    def reschedule(self, ident, time):
        self._push(ident, time, self.ties[ident])

    def _fire(self, ident):
        label, action = self.actions[ident]
        self.fired.append(label)
        if action == "transient":
            self.add(self.now + 0.0, label + "t", None, event=False)
        elif action == "event":
            self.add(self.now, label + "e", None, event=True)
        elif action == "stop":
            self.stopped = True

    def run(self, until=None, max_events=None):
        limit = math.inf if until is None else until
        budget = math.inf if max_events is None else max_events
        self.stopped = False
        executed = 0
        try:
            while self.entries and not self.stopped:
                ident = min(self.entries, key=self.entries.__getitem__)
                time = self.entries[ident][0]
                if time > limit:
                    break
                if executed >= budget:
                    raise SchedulingError(budget_error(max_events, self.now))
                del self.entries[ident]
                self.now = time
                self._fire(ident)
                executed += 1
            if until is not None and not self.stopped and self.now < until:
                self.now = until
        finally:
            self.events_processed += executed

    def peek_time(self):
        return min(self.entries.values())[0] if self.entries else None


class Engine:
    """The same operations on a real :class:`Simulator`."""

    def __init__(self):
        self.sim = Simulator()
        self.handles = []
        self.fired = []

    def callback(self, label, action):
        def fire():
            self.fired.append(label)
            if action == "transient":
                self.sim.schedule_transient(0.0, self.callback(label + "t", None))
            elif action == "event":
                self.handles.append(
                    self.sim.call_at(self.sim.now, self.callback(label + "e", None))
                )
            elif action == "stop":
                self.sim.stop()

        return fire


def apply(op, index, model, engine):
    """Run one drawn operation on both; returns the two raised errors."""
    sim = engine.sim
    kind, args = op[0], op[1:]
    label = str(index)
    errors = [None, None]

    def both(on_model, on_engine):
        for slot, call in enumerate((on_model, on_engine)):
            try:
                call()
            except SchedulingError as error:
                errors[slot] = str(error)

    if kind == "call_at":
        offset, tie_key, action = args
        time = sim.now + offset
        if tie_key is not None and tie_key > time:
            tie_key = None
        model.add(time, label, action, event=True, tie_key=tie_key)
        engine.handles.append(
            sim.call_at(time, engine.callback(label, action), tie_key=tie_key)
        )
    elif kind == "schedule":
        offset, action = args
        model.add(model.now + offset, label, action, event=True)
        engine.handles.append(sim.schedule(offset, engine.callback(label, action)))
    elif kind == "transient":
        offset, action = args
        model.add(model.now + offset, label, action, event=False)
        sim.schedule_transient(offset, engine.callback(label, action))
    elif kind == "transient_at":
        offset, action = args
        time = sim.now + offset
        model.add(time, label, action, event=False)
        sim.schedule_transient_at(time, engine.callback(label, action))
    elif kind in ("cancel", "reschedule") and model.handles:
        pick = args[0] % len(model.handles)
        if kind == "cancel":
            model.cancel(model.handles[pick])
            engine.handles[pick].cancel()
        else:
            time = sim.now + args[1]
            model.reschedule(model.handles[pick], time)
            engine.handles[pick].reschedule(time)
    elif kind == "run_until":
        until = sim.now + args[0]
        both(lambda: model.run(until=until), lambda: sim.run(until=until))
    elif kind == "run_max":
        both(lambda: model.run(max_events=args[0]),
             lambda: sim.run(max_events=args[0]))
    elif kind == "run_until_max":
        until = sim.now + args[0]
        both(lambda: model.run(until=until, max_events=args[1]),
             lambda: sim.run(until=until, max_events=args[1]))
    elif kind == "run":
        both(model.run, sim.run)
    elif kind == "stop":
        sim.stop()  # outside a run: the next run starts afresh
    return errors


@settings(max_examples=150, deadline=None)
@given(st.lists(OPS, max_size=30))
def test_engine_matches_the_reference_model(ops):
    model, engine = Model(), Engine()
    sim = engine.sim
    for index, op in enumerate(ops):
        model_error, engine_error = apply(op, index, model, engine)
        assert engine_error == model_error, op
        assert engine.fired == model.fired, op
        assert sim.now == model.now, op
        assert sim.pending() == len(model.entries), op
        assert sim.peek_time() == model.peek_time(), op
        assert sim.events_processed == model.events_processed, op
        assert len(engine.handles) == len(model.handles), op
    # Draining both (a callback may stop a run) fires the same tail and
    # leaves nothing behind.
    while model.entries:
        apply(("run",), len(ops), model, engine)
    assert engine.fired == model.fired
    assert sim.pending() == 0 and sim.peek_time() is None
