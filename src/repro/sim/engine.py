"""Discrete-event simulation engine.

The engine advances a virtual clock through a priority queue of timed
callbacks.  Everything else in the simulated machine (processes, the
Service Control Manager, network transports, middleware monitors) is
built from callbacks scheduled here, so a whole fault-injection run is
deterministic and executes in a few milliseconds of real time even when
it spans minutes of virtual time.

The engine is intentionally minimal: it knows about time and callbacks
only.  Process semantics (generators, waiting, interrupts) live in
:mod:`repro.sim.process` and :mod:`repro.sim.primitives`.

Hot-path notes (the engine dominates multi-client load runs):

- The heap holds ``(time, seq, timer)`` tuples with a unique ``seq``,
  so sift comparisons are C-level tuple comparisons that never reach
  the timer itself (``Timer`` defines no ordering).
- Cancellation tombstones are counted, and the heap is compacted in
  place whenever tombstones outnumber live timers — a population of
  clients that each arm-and-cancel timeout timers would otherwise grow
  the heap without bound.  In-place compaction (slice assignment plus
  re-heapify) keeps the list object identical, so the run loop may
  alias it.
- The cyclic collector is paused (:class:`collector_paused`) for a
  whole run, not per :meth:`run` burst.  A run's machine graph
  (processes, handles, generators, timers) lives for the whole run,
  while the runner drives the engine in polling bursts.  With
  collection resumed between bursts, gen-0 passes would walk that live
  graph and promote it into the older generations.  Paused for the
  run, and made acyclic by the machine's teardown, the graph is freed
  by refcounting when the run returns.  :meth:`run` still pauses
  itself, so callers that drive the engine directly get the same loop.
- :meth:`next_time` lets a poller skip boundaries with nothing to fire
  (``Machine.run_while``); :meth:`clear` drops the pending timers at
  teardown.
- :meth:`run` is one pop-and-fire loop: it pops the earliest live
  timer, consumes it inline and fires it, one event at a time.
  ``(time, seq)`` heap order gives FIFO ties, a zero-delay timer
  scheduled mid-quantum gets a higher seq than every pending one, and
  a timer cancelled by an earlier same-time event is an ordinary
  tombstone — so :meth:`stop` and the livelock guard leave every
  unfired timer on the heap for the next :meth:`run`.

- The first engine of a process raises glibc's heap trim threshold
  (:func:`_keep_heap_top`), so the C heap under a run's large buffers
  stays mapped between requests instead of being faulted back in.

This is the simulator's only event loop: every
:class:`repro.nt.machine.Machine` runs on an :class:`Engine`.
"""

from __future__ import annotations

import functools
import gc
import heapq
import itertools
import sys
from typing import Any, Callable, Optional

# Compaction never triggers below this queue size: tiny heaps are
# cheap to scan and re-heapifying them constantly would cost more
# than the tombstones they carry.
_COMPACT_MIN = 64

_M_TRIM_THRESHOLD = -1  # glibc mallopt parameter
_HEAP_TOP_KEPT = 8 << 20


@functools.cache
def _keep_heap_top() -> None:
    """Let glibc keep up to 8 MiB of free memory at its heap top.

    By default glibc hands the heap top back to the kernel once more
    than 128 KiB of it is free.  A served request holds the 115 kB
    static page several times over (file read, heap block, response
    body) and frees it all when done, so every request shrinks the
    heap and the next one faults the same pages back in: 111,507 minor
    page faults over the seed-2000 Figure-2 grid, against 1,220 with
    this setting (4 MiB already suffices; a 100-client load run needs
    less).  Called by every :class:`Engine`, it acts once per process.
    Other allocators keep their own policy.
    """
    if not sys.platform.startswith("linux"):
        return
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # a libc without mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(_M_TRIM_THRESHOLD, _HEAP_TOP_KEPT)


class collector_paused:
    """Pause the cyclic garbage collector for a ``with`` block.

    The one collector pause in the simulator: :meth:`Engine.run` holds
    it around its dispatch loop, and ``execute_run`` and
    ``execute_load_run`` hold it around a whole run, from boot to
    teardown.  It disables the collector only if it was enabled on
    entry and re-enables it on every exit, raising or not; when a
    caller has already paused it (an enclosing run, or code that
    manages the collector itself), entry and exit leave it alone, so
    pauses nest.

    A class rather than a generator-based context manager: the engine
    enters it once per polling burst.
    """

    __slots__ = ("_resume",)

    def __enter__(self) -> None:
        self._resume = gc.isenabled()
        if self._resume:
            gc.disable()

    def __exit__(self, *exc_info) -> None:
        if self._resume:
            gc.enable()


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class ScheduleInPastError(SimulationError):
    """Raised when a callback is scheduled before the current time."""


class Timer:
    """Handle for a scheduled callback.

    A ``Timer`` may be cancelled before it fires; cancellation is O(1)
    (the heap entry is tombstoned rather than removed, and the engine
    compacts tombstones away once they dominate the heap).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "engine")

    def __init__(self, time: float, seq: int, callback: Callable,
                 args: tuple, engine: Optional["Engine"] = None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.engine = engine

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        self.callback = None
        self.args = ()
        # Tombstone accounting, inlined rather than an Engine method:
        # every satisfied timed wait cancels its timeout timer here.
        engine = self.engine
        if engine is not None:
            engine._tombstones += 1
            queue_len = len(engine._queue)
            if (engine._tombstones * 2 > queue_len
                    and queue_len >= _COMPACT_MIN):
                engine._compact()

    @property
    def active(self) -> bool:
        """True while the timer is still pending."""
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Timer t={self.time:.3f} seq={self.seq} {state}>"


class Engine:
    """The discrete-event loop.

    Callbacks scheduled at equal times run in FIFO scheduling order,
    which keeps runs reproducible.

    ``tracer`` (a :class:`repro.trace.Tracer`) records scheduling and
    dispatch events at trace level ``full``; the hot path pays one
    ``None`` test per operation when tracing is off.
    """

    def __init__(self, tracer=None) -> None:
        _keep_heap_top()
        self._now = 0.0
        self._queue: list[tuple[float, int, Timer]] = []
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        self._events_processed = 0
        self._tombstones = 0
        self.tracer = tracer

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (for diagnostics)."""
        return self._events_processed

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable, *args: Any) -> Timer:
        """Run ``callback(*args)`` after ``delay`` virtual seconds.

        ``delay`` may be zero; zero-delay callbacks run after all
        currently-executing work, in scheduling order.
        """
        if delay < 0:
            raise ScheduleInPastError(f"negative delay {delay!r}")
        # Inlined schedule_at (one call frame per event adds up): a
        # non-negative delay can never land in the past.
        time = self._now + delay
        timer = Timer(time, next(self._seq), callback, args, self)
        heapq.heappush(self._queue, (time, timer.seq, timer))
        tracer = self.tracer
        if tracer is not None and tracer.full_enabled:
            from ..trace import callback_label

            tracer.emit(self._now, "engine", "schedule", at=time,
                        callback=callback_label(callback))
        return timer

    def schedule_at(self, time: float, callback: Callable, *args: Any) -> Timer:
        """Run ``callback(*args)`` at absolute virtual ``time``."""
        if time < self._now:
            raise ScheduleInPastError(
                f"cannot schedule at {time!r}; the clock is at {self._now!r}"
            )
        timer = Timer(time, next(self._seq), callback, args, self)
        heapq.heappush(self._queue, (time, timer.seq, timer))
        tracer = self.tracer
        if tracer is not None and tracer.full_enabled:
            from ..trace import callback_label

            tracer.emit(self._now, "engine", "schedule", at=time,
                        callback=callback_label(callback))
        return timer

    # ------------------------------------------------------------------
    # Tombstone accounting
    # ------------------------------------------------------------------
    def _compact(self) -> None:
        """Drop tombstoned entries and restore the heap invariant.

        In place (slice assignment), so aliases of the queue list held
        by a running dispatch loop stay valid.
        """
        self._queue[:] = [entry for entry in self._queue
                          if not entry[2].cancelled]
        heapq.heapify(self._queue)
        self._tombstones = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> float:
        """Run until the queue drains or the clock passes ``until``.

        Returns the final clock value: ``until`` when the run was not
        stopped and ``until`` is ahead of the clock, otherwise the clock
        as the last fired event left it — it never runs backwards.
        ``max_events`` is a safety net against accidental infinite
        self-rescheduling loops.
        """
        # The dispatch loop allocates heavily (timers, events, frames).
        # Runs already hold this pause for their whole length; taking it
        # here too gives code that drives an engine directly the same
        # loop.
        with collector_paused():
            return self._run(until, max_events)

    def _run(self, until: Optional[float], max_events: int) -> float:
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        self._stopped = False
        executed = 0
        queue = self._queue  # compaction is in-place; the alias is safe
        pop = heapq.heappop
        tracer = self.tracer
        tracing = tracer is not None and tracer.full_enabled
        # ``inf`` stands in for "no limit" so the loop pays one float
        # compare instead of a None test plus a compare per event.
        limit = float("inf") if until is None else until
        now = self._now
        try:
            while queue and not self._stopped:
                time, _seq, timer = queue[0]
                if timer.cancelled:
                    pop(queue)
                    self._tombstones -= 1
                    continue
                if time > limit:
                    break
                pop(queue)
                if time != now:
                    # Events of one quantum share one clock object, so
                    # results that keep ``engine.now`` (load runs keep
                    # thousands of timestamps) hold a float per quantum,
                    # not one per event.
                    now = self._now = time
                # Consume inline, so ``.active`` is False once it fires
                # and a late cancel() is a no-op.  The events-processed
                # counter accumulates in ``executed`` and is folded back
                # in the ``finally`` below.
                callback, args = timer.callback, timer.args
                timer.cancelled = True
                timer.callback = None
                timer.args = ()
                if tracing:
                    from ..trace import callback_label

                    tracer.emit(time, "engine", "fire",
                                callback=callback_label(callback))
                callback(*args)
                executed += 1
                if executed > max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; likely a livelock"
                    )
            if until is not None and until > now and not self._stopped:
                self._now = until
        finally:
            self._running = False
            self._events_processed += executed
        return self._now

    def stop(self) -> None:
        """Stop :meth:`run` after the currently-executing callback."""
        self._stopped = True

    def next_time(self) -> Optional[float]:
        """Time of the earliest live timer, or None when none is pending.

        Cancelled heap heads are dropped exactly as :meth:`run` drops
        them, so the tombstone count stays exact and a later
        :meth:`run` sees the same heap it would have seen anyway.
        """
        queue = self._queue
        while queue:
            time, _seq, timer = queue[0]
            if not timer.cancelled:
                return time
            heapq.heappop(queue)
            self._tombstones -= 1
        return None

    def clear(self) -> None:
        """Drop every pending timer without firing it.

        End-of-run teardown: a pending timer's callback holds whatever
        it would have woken (a process, a kernel object), and the timer
        holds the engine, so a queue left standing keeps a finished
        machine cyclic.
        """
        for _time, _seq, timer in self._queue:
            timer.cancelled = True
            timer.callback = None
            timer.args = ()
            timer.engine = None
        self._queue.clear()
        self._tombstones = 0

    @property
    def pending_count(self) -> int:
        """Number of live (non-cancelled) timers in the queue."""
        return len(self._queue) - self._tombstones

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine now={self._now:.3f} pending={self.pending_count}>"
