"""``Machine.run_while``: the runners' one polling loop.

It must be indistinguishable from the per-step loop it replaced — the
same final clock, the same callbacks in the same order, the same heap —
while calling ``Engine.run`` only for boundaries with an event to fire.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runner import DEFAULT_SERVER_UP_TIMEOUT, _POLL_STEP
from repro.nt import Machine
from repro.sim import Hang

TIMES = st.floats(min_value=0.0, max_value=60.0, allow_nan=False)
# (time, cancelled before the poll, delay of a follow-up timer or None)
SCHEDULES = st.lists(st.tuples(TIMES, st.booleans(), st.none() | TIMES),
                     max_size=30)


def _build(schedule, start):
    machine = Machine(seed=0)
    engine = machine.engine
    fired = []

    def fire(label, follow_up):
        fired.append((label, engine.now))
        if follow_up is not None:
            engine.schedule(follow_up, fire, f"{label}+", None)

    timers = [engine.schedule_at(time, fire, index, follow_up)
              for index, (time, _cancelled, follow_up) in enumerate(schedule)]
    for timer, (_time, cancelled, _follow_up) in zip(timers, schedule):
        if cancelled:
            timer.cancel()
    machine.run(until=start)
    return machine, fired


def _per_step_loop(machine, pending, deadline, step):
    """The loop ``run_while`` replaced, as the runners wrote it."""
    while machine.now < deadline and pending():
        machine.run(until=min(machine.now + step, deadline))


def _state(machine, fired):
    engine = machine.engine
    heap = [(time, seq, timer.cancelled) for time, seq, timer
            in engine._queue]
    return (machine.now, fired, engine.events_processed, heap,
            engine._tombstones)


@settings(max_examples=200, deadline=None)
@given(SCHEDULES,
       st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
       st.floats(min_value=0.05, max_value=7.0, allow_nan=False),
       st.floats(min_value=0.0, max_value=90.0, allow_nan=False),
       st.integers(min_value=0, max_value=40))
def test_run_while_matches_the_per_step_loop(schedule, start, step,
                                             timeout, stop_after):
    outcomes = []
    for loop in (_per_step_loop, Machine.run_while):
        machine, fired = _build(schedule, start)

        def pending(fired=fired):
            return len(fired) < stop_after

        loop(machine, pending, machine.now + timeout, step)
        outcomes.append(_state(machine, fired))
    assert outcomes[0] == outcomes[1]


class NeverListens:
    """A server that starts, does a little work, and hangs unbound."""

    image_name = "hung.exe"

    def main(self, ctx):
        yield from ctx.k32.Sleep(3000)
        yield Hang()


def test_a_server_that_never_listens_times_out_without_idle_polls():
    machine = Machine(seed=0)
    machine.processes.spawn(NeverListens(), role="server")
    engine = machine.engine
    run = engine.run
    after_drain = []

    def counting_run(until=None, **kwargs):
        if engine.pending_count == 0:
            after_drain.append(until)
        return run(until=until, **kwargs)

    engine.run = counting_run
    transport = machine.transport
    machine.run_while(lambda: not transport.is_listening(80),
                      DEFAULT_SERVER_UP_TIMEOUT, _POLL_STEP)
    assert machine.now == DEFAULT_SERVER_UP_TIMEOUT
    assert len(after_drain) <= 2
