"""Unit tests for generator-based simulated processes."""

import gc
import weakref

import pytest

from repro.sim import (
    TIMED_OUT,
    Engine,
    Hang,
    Killed,
    ProcState,
    SimEvent,
    SimProcess,
    Sleep,
    Wait,
    WaitAny,
    run_to_completion,
)


def test_simple_process_finishes_with_result():
    engine = Engine()

    def prog():
        yield Sleep(1.0)
        return "done"

    proc = run_to_completion(engine, prog())
    assert proc.state is ProcState.FINISHED
    assert proc.result == "done"
    assert engine.now == 1.0


def test_sleep_accumulates_time():
    engine = Engine()

    def prog():
        yield Sleep(1.5)
        yield Sleep(2.5)

    run_to_completion(engine, prog())
    assert engine.now == 4.0


def test_start_delay():
    engine = Engine()
    times = []

    def prog():
        times.append(engine.now)
        yield Sleep(0)

    SimProcess(engine, prog()).start(delay=3.0)
    engine.run()
    assert times == [3.0]


def test_wait_resumes_with_event_value():
    engine = Engine()
    event = SimEvent()
    got = []

    def waiter():
        value = yield Wait(event)
        got.append(value)

    def firer():
        yield Sleep(2.0)
        event.succeed("payload")

    SimProcess(engine, waiter()).start()
    SimProcess(engine, firer()).start()
    engine.run()
    assert got == ["payload"]
    assert engine.now == 2.0


def test_wait_on_already_fired_event_resumes_immediately():
    engine = Engine()
    event = SimEvent()
    event.succeed(99)
    got = []

    def prog():
        got.append((yield Wait(event)))

    run_to_completion(engine, prog())
    assert got == [99]
    assert engine.now == 0.0


def test_wait_timeout_returns_sentinel():
    engine = Engine()
    got = []

    def prog():
        got.append((yield Wait(SimEvent(), timeout=5.0)))

    run_to_completion(engine, prog())
    assert got == [TIMED_OUT]
    assert engine.now == 5.0


def test_event_beats_timeout():
    engine = Engine()
    event = SimEvent()
    got = []

    def prog():
        got.append((yield Wait(event, timeout=10.0)))

    def firer():
        yield Sleep(1.0)
        event.succeed("fast")

    SimProcess(engine, prog()).start()
    SimProcess(engine, firer()).start()
    engine.run()
    assert got == ["fast"]
    # the cancelled timeout must not leave the clock at 10
    assert engine.now == 1.0


def test_waitany_returns_index_and_value():
    engine = Engine()
    events = [SimEvent(), SimEvent(), SimEvent()]
    got = []

    def prog():
        got.append((yield WaitAny(events)))

    def firer():
        yield Sleep(1.0)
        events[1].succeed("b")

    SimProcess(engine, prog()).start()
    SimProcess(engine, firer()).start()
    engine.run()
    assert got == [(1, "b")]


def test_waitany_with_prefired_event():
    engine = Engine()
    events = [SimEvent(), SimEvent()]
    events[0].succeed("a")
    got = []

    def prog():
        got.append((yield WaitAny(events)))

    run_to_completion(engine, prog())
    assert got == [(0, "a")]


def test_waitany_timeout():
    engine = Engine()
    got = []

    def prog():
        got.append((yield WaitAny([SimEvent()], timeout=2.0)))

    run_to_completion(engine, prog())
    assert got == [TIMED_OUT]


def test_second_event_does_not_double_resume():
    engine = Engine()
    a, b = SimEvent(), SimEvent()
    got = []

    def prog():
        got.append((yield WaitAny([a, b])))
        got.append((yield Sleep(5.0)))

    def firer():
        yield Sleep(1.0)
        a.succeed("a")
        b.succeed("b")

    SimProcess(engine, prog()).start()
    SimProcess(engine, firer()).start()
    engine.run()
    assert got == [(0, "a"), None]
    assert engine.now == 6.0


def test_failed_process_records_error():
    engine = Engine()

    def prog():
        yield Sleep(1.0)
        raise ValueError("boom")

    proc = SimProcess(engine, prog()).start()
    engine.run()
    assert proc.state is ProcState.FAILED
    assert isinstance(proc.error, ValueError)
    assert proc.done.fired


def test_run_to_completion_reraises():
    def prog():
        yield Sleep(0)
        raise RuntimeError("bad")

    with pytest.raises(RuntimeError):
        run_to_completion(Engine(), prog())


def test_done_event_fires_on_finish():
    engine = Engine()

    def prog():
        yield Sleep(1.0)

    proc = SimProcess(engine, prog()).start()
    seen = []
    proc.done.add_waiter(seen.append)
    engine.run()
    assert seen == [proc]
    assert proc.started_at == 0.0
    assert proc.ended_at == 1.0


def test_kill_sleeping_process():
    engine = Engine()
    reached_end = []

    def prog():
        yield Sleep(100.0)
        reached_end.append(True)

    proc = SimProcess(engine, prog()).start()
    engine.schedule(5.0, proc.kill, "test kill")
    engine.run()
    assert proc.state is ProcState.KILLED
    assert reached_end == []
    assert engine.now == 5.0
    assert proc.done.fired


def test_kill_runs_finally_blocks():
    engine = Engine()
    cleaned = []

    def prog():
        try:
            yield Sleep(100.0)
        finally:
            cleaned.append(True)

    proc = SimProcess(engine, prog()).start()
    engine.schedule(1.0, proc.kill)
    engine.run()
    assert cleaned == [True]


def test_kill_drops_the_unwinding_exceptions_traceback():
    """A frame that keeps the kill's exception in a local (a driver
    that re-throws what it caught, as a profiler's wrapper does) must
    not close a cycle through the exception's traceback."""
    engine = Engine()
    held = []

    def driver(inner):
        error = None
        while True:
            try:
                command = inner.send(None) if error is None \
                    else inner.throw(error)
            except StopIteration:
                return
            try:
                yield command
            except BaseException as exc:
                held.append(exc)
                error = exc

    def prog():
        yield Sleep(100.0)

    proc = SimProcess(engine, driver(prog())).start()
    engine.schedule(1.0, proc.kill)
    engine.run()
    assert proc.state is ProcState.KILLED
    assert [type(exc) for exc in held] == [Killed]
    assert held[0].__traceback__ is None


def test_a_released_process_is_freed_by_refcounting():
    engine = Engine()

    def prog():
        yield Sleep(1.0)

    proc = run_to_completion(engine, prog())
    proc.release()
    ref = weakref.ref(proc)
    gc.disable()
    try:
        del proc
        assert ref() is None
    finally:
        gc.enable()


def test_kill_before_first_step():
    engine = Engine()

    def prog():
        yield Sleep(1.0)

    proc = SimProcess(engine, prog()).start()
    proc.kill("immediate")
    engine.run()
    assert proc.state is ProcState.KILLED


def test_kill_is_idempotent():
    engine = Engine()

    def prog():
        yield Sleep(10.0)

    proc = SimProcess(engine, prog()).start()
    engine.schedule(1.0, proc.kill)
    engine.schedule(2.0, proc.kill)
    engine.run()
    assert proc.state is ProcState.KILLED


def test_killed_cannot_be_caught_by_except_exception():
    engine = Engine()
    swallowed = []

    def prog():
        try:
            yield Sleep(100.0)
        except Exception:  # must NOT catch Killed
            swallowed.append(True)
            yield Sleep(100.0)

    proc = SimProcess(engine, prog()).start()
    engine.schedule(1.0, proc.kill)
    engine.run()
    assert swallowed == []
    assert proc.state is ProcState.KILLED


def test_hang_never_resumes():
    engine = Engine()
    after = []

    def prog():
        yield Hang()
        after.append(True)

    proc = SimProcess(engine, prog()).start()
    engine.run(until=1000.0)
    assert proc.alive
    assert after == []
    proc.kill()
    assert proc.state is ProcState.KILLED


def test_yield_from_composition():
    engine = Engine()

    def helper():
        yield Sleep(1.0)
        return "sub"

    def prog():
        sub = yield from helper()
        yield Sleep(1.0)
        return sub + "-main"

    proc = run_to_completion(engine, prog())
    assert proc.result == "sub-main"
    assert engine.now == 2.0


def test_yielding_garbage_fails_process():
    engine = Engine()

    def prog():
        yield "not a command"

    proc = SimProcess(engine, prog()).start()
    engine.run()
    assert proc.state is ProcState.FAILED
    assert isinstance(proc.error, TypeError)


def test_process_recovers_from_yielding_garbage():
    # The non-command TypeError is thrown into the generator; one that
    # catches it and yields a real command must be armed as usual.
    engine = Engine()

    def prog():
        try:
            yield "not a command"
        except TypeError:
            pass
        yield Sleep(2.0)
        return "recovered"

    proc = SimProcess(engine, prog()).start()
    engine.run()
    assert proc.state is ProcState.FINISHED
    assert proc.result == "recovered"
    assert engine.now == 2.0


def test_non_generator_rejected():
    with pytest.raises(TypeError):
        SimProcess(Engine(), lambda: None)


def test_double_start_rejected():
    engine = Engine()

    def prog():
        yield Sleep(0)

    proc = SimProcess(engine, prog()).start()
    with pytest.raises(RuntimeError):
        proc.start()


def test_wait_timeout_cleans_waiter_registration():
    engine = Engine()
    event = SimEvent()

    def prog():
        yield Wait(event, timeout=1.0)

    run_to_completion(engine, prog())
    assert event.waiter_count == 0
