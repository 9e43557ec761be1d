"""The discrete-event engine — the library's notion of *physical time*.

Everything in the emulated world is driven by a single event queue ordered
by physical (wall-clock-equivalent) time. Virtual, dilated time is never
stored in the queue: dilated components convert their virtual deadlines to
physical ones before scheduling (see :mod:`repro.core.clock`). Keeping one
time base in the engine is the design decision that makes the dilated and
baseline runs of an experiment comparable event-for-event.

Determinism
-----------
Two events at the same physical timestamp are ordered by their **tie rank**
and then by a monotonically increasing sequence number assigned at
scheduling time. The rank is, by default, the simulator clock at the moment
the event was scheduled (or last re-keyed), so in a single engine the full
key ``(time, rank, seq)`` orders exactly like ``(time, seq)`` did — the
rank is monotone in the seq and changes nothing. Its purpose is the
*multi-engine* case: a scheduler that re-creates an event on another
engine's queue (the sharded runner injecting a cross-shard delivery) may
pass an explicit ``tie_key`` — the event's **original** creation instant —
and the event then ties against same-timestamp locals (long-armed periodic
timers especially) exactly where creation order would have put it, even
though its local creation seq says "just now". Combined with seeded RNGs in
the workloads, a simulation is a pure function of its configuration, which
is what lets the benchmark harness assert that a dilated run matches its
scaled baseline. :meth:`Event.reschedule` deliberately assigns a fresh
sequence number (and, unless an explicit tie-key pins it, a fresh rank) on
every re-keying so that a rescheduled timer ties exactly like the
cancel-and-recreate pattern it replaces — optimisations must never change
event order.

Hot-path design
---------------
The heap stores ``(time, rank, seq, event)`` tuples so ordering
comparisons run at C speed (they never reach past the unique ``seq``). A
transient (fire-and-forget) callback has no Event: its entry is
``(time, rank, seq, None, fn, args)``, always live, and the run loop
calls ``fn(*args)`` straight from it. Cancellation and rescheduling are
*lazy*: the heap entry of an Event stays behind and is recognised as dead
because its ``seq`` no longer matches the event's current ``seq`` (cancel
sets the event's seq to -1; reschedule re-keys it). The simulator counts
the *dead* entries, not the live events: only a cancel or a re-key of a
pending event adds one, and only reaping one takes one away, so
scheduling and dispatching a live event touch no counter at all, and
:meth:`Simulator.pending` is ``len(heap) - dead``, still O(1). When dead
entries outnumber live ones the heap is compacted in one O(n) pass —
without this, workloads that cancel a timer per ACK (TCP does) grow the
heap without bound and every push/pop pays an inflated log n.

The run loop pops first and looks second. A transient entry is the
common case and is tested for first; a dead entry is dropped; a live
one due after ``until``, or beyond the event budget, is pushed back.
Keys are unique, so pushing back the entry just popped leaves the order
of everything still queued exactly as it was.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

from .errors import SchedulingError

_heappush = heapq.heappush
_heappop = heapq.heappop

__all__ = ["Event", "Simulator"]

#: Compaction triggers only beyond this many dead entries, so small
#: simulations never pay the O(n) sweep.
_COMPACT_MIN_DEAD = 64

#: Upper bound of every scheduling guard and the run loop's default
#: limit and budget: nothing may be scheduled at or beyond it.
_INF = float("inf")

#: Profiler auto-attached to every Simulator constructed while set (see
#: :func:`set_default_profiler`). Duck-typed so the engine does not import
#: the stats layer.
_default_profiler = None


def set_default_profiler(profiler) -> None:
    """Auto-attach ``profiler`` to every Simulator constructed from now on.

    Experiment runners build their simulators internally; this hook is how
    the harness profiles a whole figure regeneration without threading a
    profiler through every runner signature. Pass ``None`` to clear.
    """
    global _default_profiler
    _default_profiler = profiler


class Event:
    """A scheduled callback handle.

    The heap itself stores ``(time, rank, seq, event)`` tuples; the Event
    object is the cancellation / rescheduling handle. A heap entry is live
    only while its ``seq`` matches the event's current ``seq``: cancelling
    sets the event's seq to -1 and rescheduling re-keys it, so stale entries
    are skipped when popped (lazy deletion) or swept out by compaction.

    ``tie_key`` is the optional explicit tie rank (see the module
    docstring): ``None`` means "rank = scheduling instant", assigned anew on
    every re-keying; a float pins the rank across :meth:`reschedule` calls.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "tie_key",
                 "_sim", "_live")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., None],
        args: Tuple[Any, ...],
        sim: "Simulator",
        tie_key: Optional[float] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.tie_key = tie_key
        self._sim = sim
        #: True while the event is queued and will fire: its current heap
        #: entry is live, so cancelling or re-keying it makes one dead.
        self._live = True

    @property
    def active(self) -> bool:
        """Armed and not yet fired or cancelled."""
        return self._live

    def cancel(self) -> None:
        """Prevent the callback from running; safe to call more than once.

        The heap entry is left behind and reaped lazily (or by compaction);
        only the O(1) bookkeeping happens here.
        """
        if self._live:
            self._live = False
            self.cancelled = True
            self.seq = -1
            sim = self._sim
            dead = sim._dead + 1
            sim._dead = dead
            # Dead entries outnumber live ones (and the floor is passed).
            if dead > _COMPACT_MIN_DEAD and dead + dead > len(sim._queue):
                sim._compact()

    def reschedule(self, time: float) -> None:
        """Re-key the event to fire at absolute physical ``time``.

        This is the fast path for repeatedly re-armed timers (TCP RTO,
        delayed ACK, periodic ticks): it replaces a ``cancel()`` plus a
        fresh :meth:`Simulator.call_at` without allocating a new Event or
        closure. Works on pending, fired, *and* cancelled events — the
        latter two re-arm the timer. A fresh sequence number is assigned so
        same-timestamp ordering is identical to cancel-and-recreate; the tie
        rank is likewise re-derived from the current instant unless an
        explicit ``tie_key`` was assigned, which is preserved verbatim.
        """
        sim = self._sim
        if not sim._now <= time < _INF:  # also refuses NaN
            raise SchedulingError(
                f"cannot reschedule at {time}; current time is {sim._now}"
            )
        if self._live:
            # The pending heap entry (old seq) becomes garbage below.
            sim._dead += 1
        else:
            self._live = True
            self.cancelled = False
        self.time = time
        self.seq = seq = sim._seq
        sim._seq = seq + 1
        _heappush(sim._queue, (
            time, sim._now if self.tie_key is None else self.tie_key, seq, self,
        ))
        # Dead entries outnumber live ones (and the floor is passed).
        if (sim._dead > _COMPACT_MIN_DEAD
                and sim._dead + sim._dead > len(sim._queue)):
            sim._compact()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time}, seq={self.seq}{state})"


class Simulator:
    """A deterministic discrete-event simulator.

    The simulator owns physical time. Components schedule callbacks with
    :meth:`schedule` / :meth:`call_at` and the main loop (:meth:`run`)
    executes them in timestamp order.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [1.5]
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[tuple] = []
        self._seq = 0
        #: Heap entries that will never fire (cancelled or re-keyed
        #: events); every other entry is live.
        self._dead = 0
        self._running = False
        self._stopped = False
        #: Number of events executed so far (observability / debugging);
        #: brought up to date each time :meth:`run` returns.
        self.events_processed = 0
        #: Number of O(n) heap compaction sweeps performed.
        self.compactions = 0
        #: Dead (cancelled / re-keyed) heap entries discarded, lazily or
        #: by compaction.
        self.dead_entries_reaped = 0
        #: Largest heap length observed at a push (includes dead entries).
        self.max_heap_len = 0
        #: Optional :class:`repro.stats.engineprof.EngineProfiler` hook;
        #: when attached, the run loop reports each executed event to it.
        self._profiler = None
        #: Optional :class:`repro.trace.recorder.FlightRecorder`; when
        #: attached, the run loop records one 'timer'/'fire' event per
        #: executed event. Default off: one is-None check per event.
        self._recorder = None
        #: Engine-wide named counters ("drop.queue", "tcp.retransmits"…)
        #: bumped by components; plain data, never scheduled, so bumping
        #: one can never perturb event ordering. Surfaced by
        #: :class:`repro.stats.engineprof.EngineProfiler` and
        #: :class:`repro.stats.flows.FlowMonitor`.
        self.counters: Dict[str, int] = {}
        #: Optional :class:`repro.simnet.fluid.FluidManager` — the hybrid-
        #: fidelity fast path. ``None`` (pure packet mode) costs the TCP
        #: ACK path one is-None check; installing a manager never changes
        #: packet-level event ordering, only which flows leave it.
        self.fluid = None
        if _default_profiler is not None:
            self.attach_profiler(_default_profiler)

    @property
    def now(self) -> float:
        """Current physical time in seconds."""
        return self._now

    # ------------------------------------------------------------- scheduling

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative; a zero delay runs the callback after
        all events already scheduled for the current instant. Passing the
        callback's arguments positionally (instead of binding them in a
        lambda) avoids a closure allocation on hot paths.
        """
        if not 0 <= delay < _INF:  # also refuses NaN
            raise SchedulingError(f"negative or non-finite delay: {delay}")
        return self.call_at(self._now + delay, fn, *args)

    def call_at(
        self,
        time: float,
        fn: Callable[..., None],
        *args: Any,
        tie_key: Optional[float] = None,
    ) -> Event:
        """Schedule ``fn(*args)`` at an absolute physical time.

        Scheduling in the past is an error: the world cannot be rewound.

        ``tie_key`` overrides the event's tie rank for same-timestamp
        ordering (default: the current instant, which reproduces plain
        creation-order ties). The sharded runner passes the original
        creation instant of re-injected cross-shard deliveries here so they
        tie against local timers exactly as in a single-process run; the
        key is sticky across :meth:`Event.reschedule`. Must not exceed
        ``time`` — an event cannot outrank its own scheduling instant.
        """
        if not self._now <= time < _INF:  # also refuses NaN
            raise SchedulingError(
                f"cannot schedule at {time}; current time is {self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        if tie_key is None:
            event = Event(time, seq, fn, args, self)
            rank = self._now
        else:
            if not tie_key <= time:
                raise SchedulingError(
                    f"tie_key {tie_key} is NaN or later than event time {time}"
                )
            event = Event(time, seq, fn, args, self, tie_key)
            rank = tie_key
        queue = self._queue
        _heappush(queue, (time, rank, seq, event))
        if len(queue) > self.max_heap_len:
            self.max_heap_len = len(queue)
        return event

    def schedule_transient(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> None:
        """Schedule a fire-and-forget callback with no Event behind it.

        For internal per-packet events (serialisation completion, delivery)
        that are never cancelled: the heap entry itself carries ``fn`` and
        ``args`` (its event slot is ``None``, which marks it always live),
        so packet forwarding allocates no engine objects beyond the tuple.
        No handle is returned — transient events cannot be cancelled or
        rescheduled.
        """
        if not 0 <= delay < _INF:  # also refuses NaN
            raise SchedulingError(f"negative or non-finite delay: {delay}")
        # Not delegated to schedule_transient_at: both are public entry
        # points that instrumentation may wrap independently. Attributes
        # read twice are read twice: a local costs more than it saves.
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._queue,
                  (self._now + delay, self._now, seq, None, fn, args))
        if len(self._queue) > self.max_heap_len:
            self.max_heap_len = len(self._queue)

    def schedule_transient_at(
        self, time: float, fn: Callable[..., None], *args: Any
    ) -> None:
        """Absolute-time variant of :meth:`schedule_transient`.

        For callers that compute an arrival instant up front (the NIC
        delivery path, which may FIFO-clamp it against an earlier
        in-flight packet): scheduling the absolute time directly avoids
        the ``(now + delay) - now`` round trip that would perturb float
        timestamps. The tie rank is the current instant, exactly as for
        a delay-form transient, so ``schedule_transient_at(now + d)``
        and ``schedule_transient(d)`` produce bit-identical heap entries.
        """
        if not self._now <= time < _INF:  # also refuses NaN
            raise SchedulingError(
                f"cannot schedule at {time}; current time is {self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._queue, (time, self._now, seq, None, fn, args))
        if len(self._queue) > self.max_heap_len:
            self.max_heap_len = len(self._queue)

    # --------------------------------------------------------------- main loop

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Execute events in order until the queue drains.

        Parameters
        ----------
        until:
            Stop once the next event would be strictly later than this
            physical time. The clock is advanced to ``until`` on exit so a
            subsequent ``run`` continues from there.
        max_events:
            Safety valve for runaway simulations; raises
            :class:`SchedulingError` when a further event would exceed the
            budget. The budget is checked *before* executing, so a run
            that needs exactly ``max_events`` events completes cleanly.
        """
        if self._running:
            raise SchedulingError("simulator is already running (re-entrant run)")
        self._running = True
        self._stopped = False
        limit = _INF if until is None else until
        budget = _INF if max_events is None else max_events
        executed = 0
        # Bind hot attributes to locals: the loop body below runs once per
        # event and attribute lookups dominate at this altitude.
        queue = self._queue
        heappop = _heappop
        profiler = self._profiler
        recorder = self._recorder
        observed = profiler is not None or recorder is not None
        try:
            while queue and not self._stopped:
                entry = heappop(queue)
                event = entry[3]
                if event is None:
                    time = entry[0]
                    if time > limit or executed >= budget:
                        break
                    self._now = time
                    entry[4](*entry[5])
                elif entry[2] == event.seq:
                    time = entry[0]
                    if time > limit or executed >= budget:
                        break
                    self._now = time
                    event._live = False
                    event.fn(*event.args)
                else:
                    # Dead entry: cancelled or re-keyed by reschedule().
                    self._dead -= 1
                    self.dead_entries_reaped += 1
                    continue
                executed += 1
                if observed:
                    fn = entry[4] if event is None else event.fn
                    if profiler is not None:
                        profiler._record(fn)
                    if recorder is not None:
                        recorder.record_timer(time, fn)
            else:
                entry = None
            if entry is not None:
                # Popped but due after ``until`` or beyond the budget: put
                # it back where it was (keys are unique).
                _heappush(queue, entry)
                if entry[0] <= limit:
                    raise SchedulingError(
                        f"exceeded max_events={max_events} at t={self._now}; "
                        "runaway simulation?"
                    )
            if until is not None and not self._stopped and self._now < until:
                self._now = until
        finally:
            self.events_processed += executed
            self._running = False

    def stop(self) -> None:
        """Stop the run loop after the current event completes."""
        self._stopped = True

    # ------------------------------------------------------------ observation

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued — O(1)."""
        return len(self._queue) - self._dead

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` if the queue is empty.

        The shard barrier polls this between every synchronization window,
        so the common case — a live head — must stay a single index plus
        compare, O(1). Dead heads are reaped permanently (popped, not
        skipped) in :meth:`_peek_slow`, so repeated polls never re-scan the
        same lazily-cancelled entries.
        """
        queue = self._queue
        if queue:
            entry = queue[0]
            event = entry[3]
            if event is None or entry[2] == event.seq:
                return entry[0]
            return self._peek_slow()
        return None

    def _peek_slow(self) -> Optional[float]:
        """Pop dead heads until a live one surfaces (amortised O(log n))."""
        queue = self._queue
        reaped = 0
        result: Optional[float] = None
        while queue:
            entry = queue[0]
            event = entry[3]
            if event is None or entry[2] == event.seq:
                result = entry[0]
                break
            _heappop(queue)
            reaped += 1
        self._dead -= reaped
        self.dead_entries_reaped += reaped
        return result

    def heap_len(self) -> int:
        """Raw heap length including dead entries (observability)."""
        return len(self._queue)

    # ------------------------------------------------------------- maintenance

    def _compact(self) -> None:
        """Sweep dead entries out of the heap in one O(n) pass.

        The list is compacted *in place*: ``run()`` holds a local alias to
        the queue, so the list object's identity must never change.
        """
        queue = self._queue
        before = len(queue)
        queue[:] = [
            entry for entry in queue
            if entry[3] is None or entry[2] == entry[3].seq
        ]
        heapq.heapify(queue)
        self._dead = 0
        self.compactions += 1
        self.dead_entries_reaped += before - len(queue)

    # -------------------------------------------------------------- profiling

    def attach_profiler(self, profiler) -> None:
        """Attach an :class:`~repro.stats.engineprof.EngineProfiler`.

        Only one profiler may be attached at a time; pass ``None`` to
        detach. Profiling adds one branch per executed event when attached
        and nothing when not.
        """
        self._profiler = profiler
        if profiler is not None:
            profiler.on_attach(self)

    def attach_recorder(self, recorder) -> None:
        """Attach a :class:`~repro.trace.recorder.FlightRecorder`.

        When attached, every executed event is reported as a
        ``timer``/``fire`` trace event. Pass ``None`` to detach. Like the
        profiler, the run loop binds the recorder once at entry, so
        attaching mid-run takes effect on the next :meth:`run` call.
        Recording never perturbs event order or timing — the recorder only
        appends to its ring buffer.
        """
        self._recorder = recorder

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self._now:.6f}, pending={self.pending()}, "
            f"processed={self.events_processed})"
        )

