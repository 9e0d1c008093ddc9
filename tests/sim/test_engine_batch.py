"""Micro-tests for same-quantum dispatch in the event loop.

``Engine.run`` pops and fires one live timer at a time in ``(time,
seq)`` order.  These tests pin the edge cases of many timers sharing
one quantum — ties, a timer cancelled by an earlier same-time event,
compaction triggered while same-time entries are still pending, and
stop/livelock interruption with same-time timers left unfired (they
never leave the heap, so a later run delivers them).  The test names
keep the "batch" wording of the loop that once drained a quantum into
a list before dispatching it.
"""

import pytest

from repro.sim import Engine, SimulationError
from repro.sim.engine import _COMPACT_MIN


@pytest.fixture(params=[Engine], ids=["pure"])
def engine(request):
    return request.param()


def test_same_timestamp_ties_fire_in_schedule_order(engine):
    order = []
    for tag in range(8):
        engine.schedule(1.0, order.append, tag)
    engine.schedule(0.5, order.append, "early")
    engine.run()
    assert order == ["early", 0, 1, 2, 3, 4, 5, 6, 7]


def test_event_scheduled_during_batch_at_same_time_runs_after_it(engine):
    order = []

    def first():
        order.append("first")
        # Same quantum, but scheduled while the batch is dispatching:
        # must land *after* everything already drained.
        engine.schedule(0.0, order.append, "late-arrival")

    engine.schedule(1.0, first)
    engine.schedule(1.0, order.append, "second")
    engine.run()
    assert order == ["first", "second", "late-arrival"]


def test_timer_cancelled_by_earlier_event_in_same_batch_is_skipped(engine):
    order = []
    timers = {}

    def assassin():
        order.append("assassin")
        timers["victim"].cancel()

    engine.schedule(2.0, assassin)
    timers["victim"] = engine.schedule(2.0, order.append, "victim")
    engine.schedule(2.0, order.append, "bystander")
    engine.run()
    assert order == ["assassin", "bystander"]
    assert not timers["victim"].active


def test_cancel_within_batch_does_not_corrupt_tombstone_census(engine):
    # A drained (off-heap) timer cancelled mid-batch must not count as
    # a heap tombstone; the census stays exact through the batch.
    timers = {}

    def assassin():
        timers["victim"].cancel()

    engine.schedule(1.0, assassin)
    timers["victim"] = engine.schedule(1.0, lambda: None)
    engine.run()
    assert engine._tombstones == 0
    assert engine.pending_count == 0


def test_compaction_triggered_mid_batch_keeps_later_batch_entries(engine):
    # The batch event cancels enough future timers to trip in-place
    # compaction while later same-quantum entries are still waiting in
    # the drained list; they must all still fire, in order.
    order = []
    future = []

    def bulk_cancel():
        order.append("bulk-cancel")
        for timer in future:
            timer.cancel()

    engine.schedule(1.0, bulk_cancel)
    for tag in range(4):
        engine.schedule(1.0, order.append, tag)
    # Enough future timers that cancelling them crosses the compaction
    # threshold (tombstones * 2 > len(queue), len >= _COMPACT_MIN).
    future.extend(engine.schedule(10.0 + tick, lambda: None)
                  for tick in range(3 * _COMPACT_MIN))
    engine.run(until=5.0)
    assert order == ["bulk-cancel", 0, 1, 2, 3]
    assert engine._tombstones == 0
    assert engine.pending_count == 0


def test_stop_mid_batch_requeues_unfired_entries(engine):
    order = []

    def halt():
        order.append("halt")
        engine.stop()

    engine.schedule(1.0, halt)
    engine.schedule(1.0, order.append, "after-stop")
    engine.run()
    assert order == ["halt"]
    # The unfired entry went back on the heap; a later run delivers it.
    assert engine.pending_count == 1
    engine.run()
    assert order == ["halt", "after-stop"]
    assert engine.now == 1.0


def test_livelock_guard_mid_batch_requeues_unfired_entries(engine):
    order = []
    for tag in ("a", "b", "c", "d"):
        engine.schedule(1.0, order.append, tag)
    # The guard trips on the event *after* the limit: a, b, then c
    # pushes executed past max_events and raises with d still drained.
    with pytest.raises(SimulationError):
        engine.run(max_events=2)
    assert order == ["a", "b", "c"]
    assert engine.pending_count == 1
    engine.run()
    assert order == ["a", "b", "c", "d"]


def test_batch_of_one_equals_fast_path(engine):
    # Interleaved singleton and tied quanta: counters must agree with
    # the one-at-a-time semantics regardless of which path dispatches.
    fired = []
    engine.schedule(1.0, fired.append, "solo")
    engine.schedule(2.0, fired.append, "t2-a")
    engine.schedule(2.0, fired.append, "t2-b")
    engine.schedule(3.0, fired.append, "solo-2")
    engine.run()
    assert fired == ["solo", "t2-a", "t2-b", "solo-2"]
    assert engine.events_processed == 4
