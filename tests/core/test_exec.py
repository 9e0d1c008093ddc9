"""Tests for the execution backends and the wave scheduler.

The acceptance bar: a Figure-2 slice run under ``SerialBackend`` and
``ProcessPoolBackend(jobs=4)`` must yield identical per-fault outcomes
and identical outcome counts — the determinism contract that makes
parallel campaigns trustworthy.
"""

import pytest

from repro.core.campaign import Campaign
from repro.core.exec import (
    PlanExecution,
    ProcessPoolBackend,
    SerialBackend,
    backend_for,
)
from repro.core.runner import RunConfig
from repro.core.workload import MiddlewareKind

# A 10-function IIS stand-alone slice (the acceptance scenario).
FIGURE2_SLICE = [
    "SetErrorMode", "CreateEventA", "CreateFileA", "ReadFile",
    "CloseHandle", "WaitForSingleObject", "Sleep", "GetACP",
    "CreateFileMappingA", "LoadLibraryA",
]


@pytest.fixture(scope="module")
def config():
    return RunConfig(base_seed=2000)


def _signature(result):
    return [(r.fault.key, r.outcome.value, r.activated, r.response_time,
             r.restarts_detected, r.retries_used) for r in result.runs]


@pytest.fixture(scope="module")
def serial_result(config):
    return Campaign("IIS", MiddlewareKind.NONE, functions=FIGURE2_SLICE,
                    config=config, backend=SerialBackend()).run()


def test_process_pool_matches_serial_bit_identical(config, serial_result):
    with ProcessPoolBackend(jobs=4) as backend:
        pool_result = Campaign("IIS", MiddlewareKind.NONE,
                               functions=FIGURE2_SLICE, config=config,
                               backend=backend).run()
    assert _signature(pool_result) == _signature(serial_result)
    assert pool_result.outcome_counts() == serial_result.outcome_counts()
    assert pool_result.skipped_functions == serial_result.skipped_functions
    assert pool_result.called_functions == serial_result.called_functions


def test_chunk_size_does_not_change_results(config, serial_result):
    with ProcessPoolBackend(jobs=2, chunk_size=1) as backend:
        pool_result = Campaign("IIS", MiddlewareKind.NONE,
                               functions=FIGURE2_SLICE, config=config,
                               backend=backend).run()
    assert _signature(pool_result) == _signature(serial_result)


def test_jobs_shorthand_builds_pool(config, serial_result):
    # `repro run --jobs 2` shares one backend_for(2) pool across its
    # campaigns.
    with backend_for(2) as backend:
        assert isinstance(backend, ProcessPoolBackend)
        result = Campaign("IIS", MiddlewareKind.NONE,
                          functions=FIGURE2_SLICE[:3], config=config,
                          backend=backend).run()
    subset = {r.fault.key for r in result.runs}
    reference = [s for s in _signature(serial_result) if s[0] in subset]
    assert _signature(result) == reference


def test_shared_pool_survives_multiple_campaigns(config):
    with ProcessPoolBackend(jobs=2) as backend:
        first = Campaign("IIS", MiddlewareKind.NONE,
                         functions=["SetErrorMode"], config=config,
                         backend=backend).run()
        second = Campaign("IIS", MiddlewareKind.NONE,
                          functions=["CreateEventA"], config=config,
                          backend=backend).run()
    assert first.activated_count == 3
    assert second.activated_count > 0


def test_pool_rejects_zero_jobs():
    with pytest.raises(ValueError):
        ProcessPoolBackend(jobs=0)


# ----------------------------------------------------------------------
# Progress reporting
# ----------------------------------------------------------------------
def test_progress_exception_does_not_abort_campaign(config):
    calls = []

    def broken_progress(execution):
        calls.append((execution.stage, execution.done))
        raise RuntimeError("progress bar fell over")

    result = Campaign("IIS", MiddlewareKind.NONE,
                      functions=["SetErrorMode", "CreateEventA"],
                      config=config, progress=broken_progress).run()
    # The campaign finished the whole grid; the callback was disabled
    # after its first failure (the profiling-stage report) instead of
    # aborting mid-grid.
    assert result.activated_count > 3
    assert calls == [("profiling", 0)]


def test_progress_counts_are_monotonic_and_complete(config):
    seen = []
    Campaign("IIS", MiddlewareKind.NONE,
             functions=["SetErrorMode", "CreateEventA"], config=config,
             progress=lambda execution: seen.append(
                 (execution.done, execution.total))).run()
    dones = [done for done, _ in seen]
    assert dones == sorted(dones)
    assert seen[-1][0] == seen[-1][1]


def test_safe_progress_disables_after_first_error():
    """The ledger's observer guard: the first ``Exception`` stops
    further reports, while ``done`` keeps moving."""
    failures = []

    def explode(execution):
        failures.append(execution.done)
        raise ValueError("boom")

    execution = PlanExecution(total=10, progress=explode)
    execution.advance(None)
    execution.advance(None)
    assert failures == [1]
    assert execution.progress is None
    assert execution.done == 2


def test_safe_progress_with_none_callback_is_noop():
    execution = PlanExecution(total=2)
    execution.enter("probing")
    execution.advance(None, 2)  # must not raise
    assert (execution.stage, execution.done) == ("probing", 2)


# ----------------------------------------------------------------------
# Chunk-failure draining (no orphaned pool work)
# ----------------------------------------------------------------------
def _tasks_for(faults):
    from repro.core.plan import RunTask, TaskKind

    return [RunTask(f"release:{fault.function}:{index}", TaskKind.RELEASE,
                    fault, fault.function, index)
            for index, fault in enumerate(faults)]


def test_chunk_failure_drains_completed_runs(config):
    """A chunk that raises must not orphan the chunks already running:
    their completed runs reach ``on_result`` (and hence the store)
    before the exception propagates, so a resume re-executes only the
    failing chunk."""
    from repro.core.faultlist import generate_fault_list
    from repro.core.faults import FaultSpec, FaultType
    from repro.core.workload import get_workload

    real = generate_fault_list(["CreateFileA", "ReadFile"])[:6]
    poison = FaultSpec("NoSuchExport", 0, FaultType.ZERO, 1)
    # Chunk 0 = [real, real, poison]: it executes two runs before the
    # worker raises, which leaves chunk 1 well past the point where it
    # could still be cancelled — the drain must wait it out and record.
    faults = [real[0], real[1], poison] + real[2:5]
    tasks = _tasks_for(faults)
    recorded = []

    with ProcessPoolBackend(jobs=2, chunk_size=3) as backend:
        with pytest.raises(ValueError, match="NoSuchExport"):
            backend.run_tasks(
                tasks, get_workload("IIS"), MiddlewareKind.NONE, config,
                on_result=lambda task, run: recorded.append(task.fault.key))
        # Chunk 1 finished in a worker; pre-fix its runs were dropped.
        assert recorded == [fault.key for fault in real[2:5]]

        # The pool survives the failure and keeps dispatching.
        survivors = backend.run_tasks(
            _tasks_for(real[:2]), get_workload("IIS"),
            MiddlewareKind.NONE, config)
        assert [run.fault.key for run in survivors] == \
            [fault.key for fault in real[:2]]


def test_chunk_failure_drain_tolerates_failing_on_result(config):
    """An ``on_result`` that itself raises (e.g. a cancellation signal)
    still triggers the drain, and the drain keeps going even though
    recording keeps failing."""
    from repro.core.faultlist import generate_fault_list
    from repro.core.workload import get_workload

    real = generate_fault_list(["CreateFileA"])[:4]
    seen = []

    def explode(task, run):
        seen.append(task.fault.key)
        raise RuntimeError("checkpoint broke")

    with ProcessPoolBackend(jobs=2, chunk_size=2) as backend:
        with pytest.raises(RuntimeError, match="checkpoint broke"):
            backend.run_tasks(_tasks_for(real), get_workload("IIS"),
                              MiddlewareKind.NONE, config,
                              on_result=explode)
    # The first run was recorded (then its exception propagated); the
    # drain attempted the rest without hanging on the raised recorder.
    assert seen[0] == real[0].key


# ----------------------------------------------------------------------
# The map primitive and backend selection
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend_type", [SerialBackend, ProcessPoolBackend])
def test_map_aligns_results_and_reports_in_item_order(backend_type):
    seen = []
    backend = backend_type() if backend_type is SerialBackend \
        else backend_type(jobs=2, chunk_size=2)
    with backend:
        results = backend.map(abs, [-3, 1, -2, 0, -5],
                              on_result=lambda item, result:
                              seen.append((item, result)))
    assert results == [3, 1, 2, 0, 5]
    assert seen == [(-3, 3), (1, 1), (-2, 2), (0, 0), (-5, 5)]


def test_backend_for_picks_the_pool_above_one_worker():
    assert isinstance(backend_for(None), SerialBackend)
    assert isinstance(backend_for(1), SerialBackend)
    with backend_for(3) as backend:
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.jobs == 3
