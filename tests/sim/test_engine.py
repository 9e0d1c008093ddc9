"""Unit tests for the discrete-event engine."""

import gc
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim import Engine, ScheduleInPastError, SimulationError


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_schedule_and_run_advances_clock():
    engine = Engine()
    fired = []
    engine.schedule(5.0, fired.append, "a")
    engine.run()
    assert fired == ["a"]
    assert engine.now == 5.0


def test_callbacks_run_in_time_order():
    engine = Engine()
    order = []
    engine.schedule(3.0, order.append, 3)
    engine.schedule(1.0, order.append, 1)
    engine.schedule(2.0, order.append, 2)
    engine.run()
    assert order == [1, 2, 3]


def test_equal_times_run_in_fifo_order():
    engine = Engine()
    order = []
    for i in range(10):
        engine.schedule(1.0, order.append, i)
    engine.run()
    assert order == list(range(10))


def test_zero_delay_runs_after_current_callback():
    engine = Engine()
    order = []

    def outer():
        order.append("outer")
        engine.schedule(0.0, order.append, "inner")

    engine.schedule(1.0, outer)
    engine.run()
    assert order == ["outer", "inner"]


def test_negative_delay_rejected():
    with pytest.raises(ScheduleInPastError):
        Engine().schedule(-1.0, lambda: None)


def test_schedule_at_in_past_rejected():
    engine = Engine()
    engine.schedule(5.0, lambda: None)
    engine.run()
    with pytest.raises(ScheduleInPastError):
        engine.schedule_at(1.0, lambda: None)


def test_cancelled_timer_does_not_fire():
    engine = Engine()
    fired = []
    timer = engine.schedule(1.0, fired.append, "x")
    timer.cancel()
    engine.run()
    assert fired == []
    assert not timer.active


def test_cancel_is_idempotent():
    engine = Engine()
    timer = engine.schedule(1.0, lambda: None)
    timer.cancel()
    timer.cancel()
    engine.run()


def test_run_until_stops_clock_at_bound():
    engine = Engine()
    fired = []
    engine.schedule(1.0, fired.append, "early")
    engine.schedule(10.0, fired.append, "late")
    engine.run(until=5.0)
    assert fired == ["early"]
    assert engine.now == 5.0
    engine.run()
    assert fired == ["early", "late"]


def test_run_until_with_empty_queue_advances_clock():
    engine = Engine()
    engine.run(until=42.0)
    assert engine.now == 42.0


def test_stop_halts_run():
    engine = Engine()
    fired = []
    engine.schedule(1.0, fired.append, "a")
    engine.schedule(2.0, engine.stop)
    engine.schedule(3.0, fired.append, "b")
    engine.run()
    assert fired == ["a"]
    # Run can be resumed afterwards.
    engine.run()
    assert fired == ["a", "b"]


def test_run_until_behind_the_clock_never_moves_it_back():
    engine = Engine()
    engine.schedule(5.0, lambda: None)
    assert engine.run(until=3.0) == 3.0
    assert engine.run(until=1.0) == 3.0
    assert engine.pending_count == 1


def test_events_of_one_quantum_share_one_clock_object():
    # Load results keep thousands of ``engine.now`` timestamps; one
    # float per quantum instead of one per event keeps them small.
    engine = Engine()
    seen = []
    engine.schedule(1.0, lambda: seen.append(engine.now))
    engine.schedule(1.0, lambda: seen.append(engine.now))
    engine.schedule(1.0, lambda: engine.schedule(
        0.0, lambda: seen.append(engine.now)))
    engine.run()
    assert seen == [1.0, 1.0, 1.0]
    assert seen[0] is seen[1] is seen[2]


def test_reschedule_from_callback():
    engine = Engine()
    ticks = []

    def tick():
        ticks.append(engine.now)
        if len(ticks) < 5:
            engine.schedule(1.0, tick)

    engine.schedule(1.0, tick)
    engine.run()
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]


def _livelocked_engine():
    engine = Engine()

    def loop():
        engine.schedule(0.0, loop)

    engine.schedule(0.0, loop)
    return engine


def test_livelock_guard_raises():
    assert gc.isenabled()
    with pytest.raises(SimulationError):
        _livelocked_engine().run(max_events=100)
    # The collector pause is given back on the raising path.
    assert gc.isenabled()


def test_run_leaves_a_caller_paused_collector_paused():
    engine = _livelocked_engine()
    gc.disable()
    try:
        with pytest.raises(SimulationError):
            engine.run(max_events=100)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_collector_is_paused_while_callbacks_run():
    engine = Engine()
    seen = []
    engine.schedule(1.0, lambda: seen.append(gc.isenabled()))
    engine.run()
    assert seen == [False]
    assert gc.isenabled()


def test_pending_count_excludes_cancelled():
    engine = Engine()
    engine.schedule(1.0, lambda: None)
    timer = engine.schedule(2.0, lambda: None)
    timer.cancel()
    assert engine.pending_count == 1


def test_events_processed_counter():
    engine = Engine()
    for _ in range(3):
        engine.schedule(1.0, lambda: None)
    engine.run()
    assert engine.events_processed == 3


class TestTombstoneCompaction:
    """Cancellation must not grow the heap without bound.

    A population of clients that each arm-and-cancel timeout timers
    (every satisfied timed wait cancels its timer) would otherwise
    accumulate tombstoned heap entries for the whole run.
    """

    def test_arm_and_cancel_loop_keeps_queue_bounded(self):
        engine = Engine()
        # One live long-term timer so the queue is never empty.
        engine.schedule(1e9, lambda: None)
        for _ in range(10_000):
            engine.schedule(100.0, lambda: None).cancel()
        # Without compaction the heap would hold ~10k tombstones; the
        # 2x-live threshold bounds it near the live population.
        assert len(engine._queue) < 200
        assert engine.pending_count == 1

    def test_compaction_preserves_dispatch_order(self):
        engine = Engine()
        order = []
        keep = [engine.schedule(float(i), order.append, i)
                for i in range(1, 101)]
        doomed = [engine.schedule(float(i) + 0.5, order.append, -i)
                  for i in range(1, 101)]
        for timer in doomed:
            timer.cancel()
        assert engine.pending_count == len(keep)
        engine.run()
        assert order == list(range(1, 101))

    def test_cancel_during_run_compacts_safely(self):
        # Compaction is in-place; the run loop's alias of the queue
        # list must stay valid when a callback triggers it.
        engine = Engine()
        fired = []

        def churn():
            timers = [engine.schedule(50.0, fired.append, "never")
                      for _ in range(500)]
            for timer in timers:
                timer.cancel()
            engine.schedule(1.0, fired.append, "after")

        engine.schedule(1.0, churn)
        engine.run()
        assert fired == ["after"]
        assert engine.pending_count == 0

    def test_pending_count_is_exact_under_mixed_churn(self):
        engine = Engine()
        live = []
        for i in range(300):
            timer = engine.schedule(float(i + 1), lambda: None)
            if i % 3 == 0:
                timer.cancel()
            else:
                live.append(timer)
        assert engine.pending_count == len(live)

    def test_small_queues_are_not_compacted(self):
        # Below the compaction floor tombstones simply sit in the heap
        # (popping them is cheaper than re-heapifying constantly).
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        cancelled = [engine.schedule(2.0, lambda: None) for _ in range(10)]
        for timer in cancelled:
            timer.cancel()
        assert len(engine._queue) == 11
        assert engine.pending_count == 1


_HEAP_PROBE = """
import resource, sys
from repro.sim import Engine
if sys.argv[1] == "engine":
    Engine()

def request():  # about what one static-page request holds at its peak
    copies = [bytearray(115 * 1024) for _ in range(8)]
    del copies

request()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(100):
    request()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap trim threshold is a glibc setting")
def test_an_engine_keeps_the_freed_heap_top_mapped():
    """glibc returns a freed heap top to the kernel, and the next request
    faults it back in; once an engine exists the top stays mapped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")

    def faults(mode):
        done = subprocess.run([sys.executable, "-c", _HEAP_PROBE, mode],
                              env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        return int(done.stdout)

    if faults("import") < 1000:
        pytest.skip("this allocator keeps its heap top without help")
    assert faults("engine") < 100
