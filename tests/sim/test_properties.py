"""Property-based tests for the simulation kernel."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine, FifoQueue, SimEvent

DELAYS = st.lists(st.floats(min_value=0.0, max_value=1000.0,
                            allow_nan=False), min_size=1, max_size=50)


@given(DELAYS)
def test_callbacks_fire_in_nondecreasing_time_order(delays):
    engine = Engine()
    fired = []
    for delay in delays:
        engine.schedule(delay, lambda d=delay: fired.append(engine.now))
    engine.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(DELAYS)
def test_equal_delays_fire_in_submission_order(delays):
    engine = Engine()
    fired = []
    for index, _delay in enumerate(delays):
        engine.schedule(5.0, fired.append, index)
    engine.run()
    assert fired == list(range(len(delays)))


@given(DELAYS, st.floats(min_value=0.0, max_value=1000.0, allow_nan=False))
def test_run_until_is_a_clean_partition(delays, boundary):
    engine = Engine()
    fired = []
    for delay in delays:
        engine.schedule(delay, fired.append, delay)
    engine.run(until=boundary)
    early = list(fired)
    assert all(d <= boundary for d in early)
    engine.run()
    assert sorted(fired) == sorted(delays)
    assert all(d > boundary for d in fired[len(early):])


@given(st.lists(st.sampled_from(["put", "get"]), max_size=60))
def test_fifo_queue_never_loses_or_reorders(operations):
    queue = FifoQueue()
    put_count = 0
    getters = []  # get-events in creation order
    for operation in operations:
        if operation == "put":
            queue.put(put_count)
            put_count += 1
        else:
            getters.append(queue.get_event())
    # Drain: feed enough new items to serve every still-pending getter.
    pending = sum(1 for g in getters if not g.fired)
    for value in range(put_count, put_count + pending):
        queue.put(value)
    put_count += pending
    # Getters receive items in creation order (FIFO across both sides).
    served = [g.value for g in getters]
    assert all(g.fired for g in getters)
    assert served == sorted(served)
    # Whatever was never claimed by a getter drains in order too.
    leftovers = []
    while True:
        ok, item = queue.try_get()
        if not ok:
            break
        leftovers.append(item)
    assert leftovers == sorted(leftovers)
    # Nothing lost, nothing duplicated.
    assert sorted(served + leftovers) == list(range(put_count))


@given(st.integers(min_value=0, max_value=20))
def test_sim_event_fires_every_waiter_exactly_once(waiter_count):
    event = SimEvent()
    counts = [0] * waiter_count
    for index in range(waiter_count):
        event.add_waiter(lambda _v, i=index: counts.__setitem__(
            i, counts[i] + 1))
    event.succeed("x")
    event.succeed("y")  # idempotent
    assert counts == [1] * waiter_count
    assert event.value == "x"


@given(st.lists(st.floats(min_value=0.01, max_value=100.0,
                          allow_nan=False), min_size=1, max_size=20))
def test_chained_reschedule_accumulates_exact_delays(delays):
    engine = Engine()
    remaining = list(delays)
    total = sum(delays)

    def step():
        if remaining:
            engine.schedule(remaining.pop(0), step)

    step()
    engine.run()
    assert engine.now == sum(delays[:len(delays)]) or \
        abs(engine.now - total) < 1e-6


# -- the event loop against a reference model ---------------------------
#
# A program is a list of run partitions, each ``(until, additions)``:
# the timers to add before that ``run(until=...)`` call, then the call.
# Every timer runs the action its id selects: nothing, cancel another
# timer, schedule a child (often zero-delay, so mid-quantum), or stop.
# Few distinct times make same-time ties the common case.

MODEL_TIMES = st.sampled_from([0.0, 0.0, 1.0, 1.0, 2.0, 3.5])
MODEL_ACTIONS = st.one_of(
    st.just(("noop",)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=200)),
    st.tuples(st.just("spawn"), MODEL_TIMES),
    st.just(("stop",)),
)
MODEL_MAX_TIMERS = 80


@st.composite
def engine_programs(draw):
    actions = draw(st.lists(MODEL_ACTIONS, min_size=1, max_size=40))
    untils = draw(st.lists(
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 5.0]), max_size=3))
    partitions = [
        (until, draw(st.lists(st.tuples(st.booleans(), MODEL_TIMES),
                              max_size=12)))
        for until in [*untils, None]
    ]
    return actions, partitions


def _run_engine(actions, partitions):
    engine = Engine()
    timers = []
    fired = []

    def fire(tid):
        fired.append((engine.now, tid))
        kind, *arg = actions[tid % len(actions)]
        if kind == "cancel":
            timers[arg[0] % len(timers)].cancel()
        elif kind == "spawn" and len(timers) < MODEL_MAX_TIMERS:
            timers.append(engine.schedule(arg[0], fire, len(timers)))
        elif kind == "stop":
            engine.stop()

    clocks = []
    for until, additions in partitions:
        for absolute, delay in additions:
            if absolute:
                timers.append(engine.schedule_at(engine.now + delay, fire,
                                                 len(timers)))
            else:
                timers.append(engine.schedule(delay, fire, len(timers)))
        engine.run(until=until)
        clocks.append(engine.now)
    return engine, fired, clocks


def _run_model(actions, partitions):
    """Fire live ``(time, seq)`` entries in sorted order, one at a time."""
    now = 0.0
    created = 0  # a timer's id is its creation index, and so its seq
    pending = {}  # timer id -> (time, seq)
    fired = []
    clocks = []

    def add(time):
        nonlocal created
        pending[created] = (time, created)
        created += 1

    for until, additions in partitions:
        for _absolute, delay in additions:
            add(now + delay)
        limit = math.inf if until is None else until
        stopped = False
        while pending and not stopped:
            tid = min(pending, key=pending.__getitem__)
            time = pending[tid][0]
            if time > limit:
                break
            del pending[tid]
            now = time
            fired.append((now, tid))
            kind, *arg = actions[tid % len(actions)]
            if kind == "cancel":
                pending.pop(arg[0] % created, None)
            elif kind == "spawn" and created < MODEL_MAX_TIMERS:
                add(now + arg[0])
            elif kind == "stop":
                stopped = True
        if until is not None and not stopped:
            now = max(now, until)
        clocks.append(now)
    return pending, fired, clocks


@settings(max_examples=300, deadline=None)
@given(engine_programs())
def test_event_loop_matches_sorted_order_reference_model(program):
    actions, partitions = program
    engine, fired, clocks = _run_engine(actions, partitions)
    pending, model_fired, model_clocks = _run_model(actions, partitions)
    assert fired == model_fired
    assert clocks == model_clocks
    assert engine.events_processed == len(model_fired)
    assert engine.pending_count == len(pending)
