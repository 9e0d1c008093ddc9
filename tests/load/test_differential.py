"""Serial vs. process-pool load campaigns as a differential oracle.

Mirrors ``tests/trace/test_differential.py``: the pool path must
checkpoint a *byte-identical* store file to the serial path, whatever
the worker count, because every run boots a fresh machine seeded only
from ``(base seed, spec identity, rep)``.  Worker counts come from the
``REPRO_LOAD_JOBS`` environment variable (default ``1,4``) so CI can
run each width as its own job.
"""

import json
import os

import pytest

from repro.core.faults import FaultSpec, FaultType
from repro.core.runner import RunConfig
from repro.core.store import RunStore
from repro.load.campaign import LoadTask, plan_load_tasks, run_load_tasks
from repro.load.spec import LoadSpec

SPEC = LoadSpec(workload="Apache1", clients=4, iterations=1)
SWEEP = [2, 4]
REPS = 2


def _jobs_under_test() -> list[int]:
    raw = os.environ.get("REPRO_LOAD_JOBS", "1,4")
    return [int(part) for part in raw.split(",") if part.strip()]


def _run_to_store(path, jobs: int) -> bytes:
    config = RunConfig(base_seed=2000)
    tasks = plan_load_tasks(SPEC, reps=REPS, sweep=SWEEP)
    reports = []
    store = RunStore(path)
    try:
        execution = run_load_tasks(
            tasks, config, jobs=jobs, store=store,
            progress=lambda execution: reports.append(
                (execution.stage, execution.done, execution.total)))
    finally:
        store.close()
    assert len(execution.runs) == len(SWEEP) * REPS
    # The grid reports its stage first and ends with every run done.
    assert reports[0] == ("running", 0, len(tasks))
    assert reports[-1] == ("running", len(tasks), len(tasks))
    return path.read_bytes()


@pytest.fixture(scope="module")
def serial_store_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("load-serial") / "runs.jsonl"
    return _run_to_store(path, jobs=1)


@pytest.mark.parametrize("jobs", _jobs_under_test())
def test_pool_store_is_byte_identical_to_serial(tmp_path, jobs,
                                                serial_store_bytes):
    path = tmp_path / f"runs-{jobs}.jsonl"
    assert _run_to_store(path, jobs=jobs) == serial_store_bytes


def test_resume_serves_cached_runs_without_execution(tmp_path):
    config = RunConfig(base_seed=2000)
    tasks = plan_load_tasks(SPEC, reps=1)
    path = tmp_path / "runs.jsonl"

    store = RunStore(path)
    try:
        first = run_load_tasks(tasks, config, jobs=1, store=store)
    finally:
        store.close()
    assert first.executed_count == 1 and first.cached_count == 0

    store = RunStore(path)
    try:
        second = run_load_tasks(tasks, config, jobs=1, store=store)
    finally:
        store.close()
    assert second.executed_count == 0 and second.cached_count == 1
    assert len(second.runs) == 1


def _store_keys(path) -> set:
    lines = path.read_text().splitlines() if path.exists() else []
    return {(entry["fp"], entry["key"]) for entry in map(json.loads, lines)}


def test_poisoned_chunk_keeps_every_finished_chunk(tmp_path):
    """A load chunk that raises in its worker must not orphan the other
    chunks: every run that finished in a worker is checkpointed before
    the exception propagates, so a resume executes only the poisoned
    chunk."""
    config = RunConfig(base_seed=2000)
    grid = plan_load_tasks(SPEC, reps=4, sweep=SWEEP)
    assert len(grid) == 8   # jobs=2: four chunks of two
    poison = FaultSpec("NoSuchExport", 0, FaultType.ZERO, 1)
    poisoned = [LoadTask(grid[0].spec.replace(fault=poison), grid[0].rep)]
    path = tmp_path / "runs.jsonl"

    store = RunStore(path)
    try:
        with pytest.raises(ValueError, match="NoSuchExport"):
            run_load_tasks(poisoned + grid[1:], config, jobs=2, store=store)
    finally:
        store.close()
    assert _store_keys(path) == {
        (task.spec.fingerprint(config), task.spec.key(task.rep))
        for task in grid[2:]}

    store = RunStore(path)
    try:
        resumed = run_load_tasks(grid, config, jobs=2, store=store)
    finally:
        store.close()
    assert (resumed.executed_count, resumed.cached_count) == (2, 6)

    serial = tmp_path / "serial.jsonl"
    store = RunStore(serial)
    try:
        run_load_tasks(grid, config, jobs=1, store=store)
    finally:
        store.close()
    assert sorted(path.read_bytes().splitlines()) == \
        sorted(serial.read_bytes().splitlines())
