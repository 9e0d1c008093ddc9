"""Generator-based simulated processes.

A :class:`SimProcess` drives a Python generator over the event engine.
The generator yields :class:`~repro.sim.primitives.Command` objects and
is resumed with the command's result.  The process ends when the
generator returns (normal exit), raises (abnormal exit), or is killed
from outside (a :class:`Killed` exception is thrown into it).

This module deliberately knows nothing about NT semantics; the NT
process model in :mod:`repro.nt.process_manager` wraps these with exit
codes, parent/child relationships and handles.
"""

from __future__ import annotations

import enum
from typing import Any, Generator, Optional

from .engine import Engine, Timer
from .primitives import (
    TIMED_OUT,
    Command,
    Hang,
    SimEvent,
    Sleep,
    Wait,
    WaitAny,
)


class ProcState(enum.Enum):
    """Lifecycle of a simulated process."""

    CREATED = "created"
    RUNNING = "running"
    FINISHED = "finished"   # generator returned
    FAILED = "failed"       # generator raised
    KILLED = "killed"       # killed from outside


class Killed(BaseException):
    """Thrown into a process generator by :meth:`SimProcess.kill`.

    Derives from ``BaseException`` so ordinary ``except Exception``
    handlers inside simulated programs cannot swallow a kill.
    """

    def __init__(self, reason: str = ""):
        super().__init__(reason)
        self.reason = reason


class SimProcess:
    """Run a generator as a schedulable process.

    Attributes
    ----------
    done:
        A :class:`SimEvent` fired with the process itself when it ends
        for any reason.
    result:
        The generator's return value (``FINISHED`` only).
    error:
        The exception that ended the generator (``FAILED`` only).
    """

    _ids = 0

    def __init__(self, engine: Engine, generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise TypeError(f"expected a generator, got {type(generator).__name__}")
        SimProcess._ids += 1
        self.pid_seq = SimProcess._ids
        self.engine = engine
        self.generator = generator
        self.name = name or f"proc-{self.pid_seq}"
        self.state = ProcState.CREATED
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.done = SimEvent(f"{self.name}.done")
        self.started_at: Optional[float] = None
        self.ended_at: Optional[float] = None
        # bookkeeping for the wait currently blocking this process: a
        # plain ``Wait`` parks in the single-event slot, ``WaitAny`` in
        # the list — the single-event case is the hot one and skips all
        # list/tuple churn.
        self._pending_timer: Optional[Timer] = None
        self._pending_event: Optional[SimEvent] = None
        self._pending_waiters: list[tuple[SimEvent, Any]] = []
        self._resumed = False  # guards double-resume from event+timeout races
        # ``self._resume`` as a pre-bound method: binding allocates, and
        # the wait path needs the same (equal) callable at arm and
        # clear time anyway.
        self._resume_bound = self._resume

    # ------------------------------------------------------------------
    # Start / lifecycle
    # ------------------------------------------------------------------
    def start(self, delay: float = 0.0) -> "SimProcess":
        """Schedule the first step of the generator."""
        if self.state is not ProcState.CREATED:
            raise RuntimeError(f"{self.name} already started")
        self.state = ProcState.RUNNING
        self.engine.schedule(delay, self._first_step)
        return self

    def _first_step(self) -> None:
        if self.state is not ProcState.RUNNING:
            return  # killed before it ever ran
        self.started_at = self.engine.now
        self._resume(None)

    @property
    def alive(self) -> bool:
        state = self.state
        return state is ProcState.RUNNING or state is ProcState.CREATED

    # ------------------------------------------------------------------
    # Kill
    # ------------------------------------------------------------------
    def kill(self, reason: str = "") -> None:
        """Terminate the process, unwinding its generator.

        Safe to call at any time; no-op once the process has ended.
        The generator gets a chance to run ``finally`` blocks but cannot
        survive the kill.
        """
        if not self.alive:
            return
        if getattr(self.generator, "gi_running", False):
            # The generator is mid-step (a thread is terminating its own
            # process); throwing into it now would be illegal.  Defer the
            # kill to the next engine tick — the thread either ends on
            # its own first or is killed at its next suspension point.
            self.engine.schedule(0.0, self.kill, reason)
            return
        self._clear_pending()
        if self.state is ProcState.CREATED or self.started_at is None:
            # Never ran: just close the generator.
            self.state = ProcState.KILLED
            self.generator.close()
            self._end(Killed(reason))
            return
        self.state = ProcState.KILLED
        try:
            self.generator.throw(Killed(reason))
        except (Killed, StopIteration) as unwound:
            # Nothing reads the unwinding exception's traceback.  Drop
            # it: a frame the kill unwound through that kept the
            # exception in a local (``except ... as exc: error = exc``)
            # would close the cycle exception -> traceback -> frame ->
            # exception and pin the dead process's whole machine until
            # the cyclic collector ran.
            unwound.__traceback__ = None
        except BaseException as exc:  # generator raised something else while dying
            self.error = exc
        else:
            # Generator swallowed the Killed (illegal); force-close it.
            self.generator.close()
        self._end(Killed(reason))

    # ------------------------------------------------------------------
    # Stepping machinery
    # ------------------------------------------------------------------
    def _advance(self, step) -> None:
        """Run ``step`` (a throw into the generator) and arm the command
        it yields — the non-command path of :meth:`_arm`."""
        tracer = self.engine.tracer
        if tracer is not None and tracer.full_enabled:
            tracer.emit(self.engine.now, "proc", "switch", name=self.name)
        try:
            command = step()
        except StopIteration as stop:
            self.state = ProcState.FINISHED
            self.result = stop.value
            self._end(None)
            return
        except Killed:
            self.state = ProcState.KILLED
            self._end(None)
            return
        except BaseException as exc:
            self.state = ProcState.FAILED
            self.error = exc
            self._end(exc)
            return
        self._arm(command)

    def _arm(self, command: Command) -> None:
        """Register resumption for the yielded command.

        The one arm for every command kind: :meth:`_resume` inlines the
        hot Sleep and single-event Wait arms and falls back here, and
        :meth:`_advance` arms here after a throw.  Both callers have
        already cleared ``_resumed``.  Dispatch is on the exact command
        type — the four leaf commands are final by design (see
        :mod:`repro.sim.primitives`) — so it pays pointer comparisons,
        not ``isinstance`` walks.
        """
        command_type = type(command)
        if command_type is Sleep:
            self._pending_timer = self.engine.schedule(
                command.duration, self._resume_bound, None
            )
        elif command_type is Wait:
            # The pre-bound resume doubles as the waiter for a
            # single-event wait — no allocation at all on the hottest
            # wait path.
            event = command.event
            self._pending_event = event
            if command.timeout is not None:
                self._pending_timer = self.engine.schedule(
                    command.timeout, self._resume_bound, TIMED_OUT
                )
            event.add_waiter(self._resume_bound)
        elif command_type is WaitAny:
            if command.timeout is not None:
                self._pending_timer = self.engine.schedule(
                    command.timeout, self._resume_bound, TIMED_OUT
                )
            for index, event in enumerate(command.events):
                waiter = self._make_waiter(index)
                self._pending_waiters.append((event, waiter))
                event.add_waiter(waiter)
                if self._resumed:
                    break  # an already-fired event resumed us synchronously
        elif command_type is Hang:
            pass  # nothing will ever resume it; only kill() ends it
        else:
            self._advance(
                lambda: self.generator.throw(
                    TypeError(f"process yielded non-command {command!r}")
                )
            )

    def _make_waiter(self, index: Optional[int]):
        def waiter(value: Any) -> None:
            self._resume((index, value))

        return waiter

    def _resume(self, value: Any) -> None:
        """The one place a process is resumed: the first step and every
        wakeup (timer fire, event fire, timeout) land here.
        ``_clear_pending``, the generator ``send`` and the hot Sleep /
        single-event Wait arms are inlined into one frame, so the engine
        dispatches straight into the generator with no intermediate
        Python calls; every other command falls back to :meth:`_arm`."""
        state = self.state
        if self._resumed or (state is not ProcState.RUNNING
                             and state is not ProcState.CREATED):
            return
        self._resumed = True
        # _clear_pending, inlined: this runs on every resume.
        timer = self._pending_timer
        if timer is not None:
            timer.cancel()
            self._pending_timer = None
        event = self._pending_event
        if event is not None:
            event.remove_waiter(self._resume_bound)
            self._pending_event = None
        waiters = self._pending_waiters
        if waiters:
            for event, waiter in waiters:
                event.remove_waiter(waiter)
            waiters.clear()
        engine = self.engine
        tracer = engine.tracer
        if tracer is not None and tracer.full_enabled:
            if value is TIMED_OUT:
                tracer.emit(engine.now, "proc", "timeout", name=self.name)
            tracer.emit(engine.now, "proc", "switch", name=self.name)
        try:
            command = self.generator.send(value)
        except StopIteration as stop:
            self.state = ProcState.FINISHED
            self.result = stop.value
            self._end(None)
            return
        except Killed:
            self.state = ProcState.KILLED
            self._end(None)
            return
        except BaseException as exc:
            self.state = ProcState.FAILED
            self.error = exc
            self._end(exc)
            return
        # _arm, inlined for the hot commands: Sleep and single-event
        # Wait; the rest fall back to the method form.
        self._resumed = False
        command_type = type(command)
        if command_type is Sleep:
            self._pending_timer = engine.schedule(
                command.duration, self._resume_bound, None
            )
        elif command_type is Wait:
            event = command.event
            self._pending_event = event
            if command.timeout is not None:
                self._pending_timer = engine.schedule(
                    command.timeout, self._resume_bound, TIMED_OUT
                )
            event.add_waiter(self._resume_bound)
        else:
            self._arm(command)

    def _clear_pending(self) -> None:
        timer = self._pending_timer
        if timer is not None:
            timer.cancel()
            self._pending_timer = None
        event = self._pending_event
        if event is not None:
            event.remove_waiter(self._resume_bound)
            self._pending_event = None
        waiters = self._pending_waiters
        if waiters:
            for event, waiter in waiters:
                event.remove_waiter(waiter)
            waiters.clear()

    def _end(self, outcome: Optional[BaseException]) -> None:
        self.ended_at = self.engine.now
        self._clear_pending()
        self.done.succeed(self)

    def release(self) -> None:
        """End-of-run teardown of an ended process: drop its two
        references to itself — the pre-bound resume and the ``done``
        latch, which holds the process as its value — so that
        refcounting frees it."""
        self._resume_bound = None
        self.done = None

    def __repr__(self) -> str:
        return f"<SimProcess {self.name} {self.state.value}>"


def run_to_completion(engine: Engine, generator: Generator, name: str = "",
                      until: Optional[float] = None) -> SimProcess:
    """Convenience: start a process and run the engine until it ends.

    Raises the process's error if it failed, mirroring what a plain
    function call would do.  Mostly used by tests.
    """
    proc = SimProcess(engine, generator, name=name).start()
    engine.run(until=until)
    if proc.state is ProcState.FAILED and proc.error is not None:
        raise proc.error
    return proc
