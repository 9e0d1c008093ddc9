"""Unit tests for the job queue and its per-job state machine."""

import threading
import time

import pytest

from repro.core.store import ShardedRunStore
from repro.load import LoadSpec
from repro.serve import CampaignJobSpec, Job, JobQueue, JobState, LoadJobSpec

FUNCTIONS = ["SetErrorMode", "CreateEventA", "CreateFileA"]


def _campaign_spec(**overrides):
    params = dict(workload="IIS", functions=FUNCTIONS)
    params.update(overrides)
    return CampaignJobSpec(**params)


@pytest.fixture()
def queue(tmp_path):
    queue = JobQueue(ShardedRunStore(tmp_path / "store.d", segments=4))
    yield queue
    queue.close()
    queue.store.close()


def _wait(job, timeout=60.0):
    assert job.wait(timeout), f"job stuck in {job.state}"
    return job


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
def test_campaign_job_runs_to_done(queue):
    job = queue.submit(_campaign_spec())
    _wait(job)
    assert job.state is JobState.DONE
    assert job.error is None
    assert job.execution.executed_count > 0
    assert job.execution.done == job.execution.total > 0
    # The finished job keeps the ledger's counts, not its runs.
    assert job.execution.runs == [] and job.execution.profile_run is None
    assert job.fingerprints == [job.spec.fingerprint()]
    status = job.status_dict()
    assert status["state"] == "done"
    assert status["progress"]["executed"] == job.execution.executed_count
    assert status["elapsed_seconds"] >= 0


def test_job_ids_are_deterministic(queue):
    first = queue.submit(_campaign_spec(functions=["SetErrorMode"]))
    second = queue.submit(_campaign_spec(functions=["GetACP"]))
    assert [first.job_id, second.job_id] == ["job-1", "job-2"]
    assert [job.job_id for job in queue.jobs()] == ["job-1", "job-2"]
    assert queue.get("job-1") is first
    assert queue.get("job-99") is None


def test_overlapping_campaigns_share_the_store(queue):
    """The second submission of an overlapping spec is served from the
    cross-campaign run cache, visible as ``cached_count``."""
    first = _wait(queue.submit(_campaign_spec()))
    assert first.execution.cached_count == 0
    second = _wait(queue.submit(_campaign_spec()))
    assert second.state is JobState.DONE
    assert second.execution.executed_count == 0
    assert second.execution.cached_count == first.execution.executed_count
    # A partial overlap re-executes only the new functions.
    third = _wait(queue.submit(_campaign_spec(
        functions=FUNCTIONS + ["WaitForSingleObject"])))
    assert third.execution.cached_count > 0
    assert 0 < third.execution.executed_count \
        < first.execution.executed_count


def test_failed_job_reports_error(queue):
    spec = _campaign_spec()
    # A spec refuses an unknown workload when it is built; one that
    # goes away before the job runs fails the job instead.
    spec.workload = "NotAServer"
    job = _wait(queue.submit(spec))
    assert job.state is JobState.FAILED
    assert "NotAServer" in job.error
    assert job.status_dict()["state"] == "failed"


def test_load_job_runs_to_done(queue):
    spec = LoadJobSpec(LoadSpec("IIS", clients=3), reps=2, sweep=[3, 5])
    job = _wait(queue.submit(spec))
    assert job.state is JobState.DONE
    assert job.execution.executed_count == 4  # 2 client counts x 2 reps
    assert job.execution.done == job.execution.total == 4
    assert len(job.fingerprints) == 2  # one per swept client count


def test_campaign_walks_the_stage_machine(tmp_path):
    """The wave schedule surfaces as state transitions: profiling
    before probing before releasing before done.  A status read mid-job
    sees the run ledger itself, so executed runs show while the job
    runs, not only once it ends."""
    states = []

    class SpyingStore(ShardedRunStore):
        def put(self, fingerprint, fault, result):
            if job_box and states[-1:] != [job_box[0].state.value]:
                states.append(job_box[0].state.value)
            super().put(fingerprint, fault, result)

    job_box = []
    store = SpyingStore(tmp_path / "store.d", segments=2)
    queue = JobQueue(store)
    try:
        job = queue.submit(_campaign_spec())
        job_box.append(job)
        deadline = time.monotonic() + 60.0
        while job.status_dict()["progress"]["done"] < 2 \
                and time.monotonic() < deadline:
            time.sleep(0.005)
        progress = job.status_dict()["progress"]
        assert progress["done"] >= 2, "campaign never started executing"
        assert progress["executed"] > 0
        _wait(job)
    finally:
        queue.close()
        store.close()
    states.append(job.state.value)
    assert states == ["profiling", "probing", "releasing", "done"]
    final = job.status_dict()["progress"]
    assert final["done"] == final["total"] > 0


# ----------------------------------------------------------------------
# Cancellation
# ----------------------------------------------------------------------
def test_cancel_queued_job_is_immediate(tmp_path):
    store = ShardedRunStore(tmp_path / "store.d", segments=2)
    queue = JobQueue(store)
    try:
        # Park a long job in front so the second one stays queued.
        first = queue.submit(_campaign_spec())
        second = queue.submit(_campaign_spec(functions=["GetACP"]))
        cancelled = queue.cancel(second.job_id)
        assert cancelled.state is JobState.CANCELLED
        _wait(first)
        time.sleep(0.05)  # let the worker skip the cancelled entry
        assert second.state is JobState.CANCELLED
        assert second.execution.executed_count == 0
    finally:
        queue.close()
        store.close()
    assert queue.cancel("job-99") is None


def test_job_cancelled_as_it_starts_never_shows_a_wave_state(
        tmp_path, monkeypatch):
    """A cancel that lands after the worker took the job but before its
    first wave still finds it marked queued, so the job ends at once;
    the worker must then unwind without moving it back to profiling."""
    states = []

    def set_state(job, state):
        states.append(state.value)
        job.__dict__["state"] = state

    monkeypatch.setattr(Job, "state", property(
        lambda job: job.__dict__["state"], set_state), raising=False)
    taken, release = threading.Event(), threading.Event()

    class GatedSpec(CampaignJobSpec):
        def fingerprint(self):
            taken.set()
            assert release.wait(30)
            return super().fingerprint()

    store = ShardedRunStore(tmp_path / "store.d", segments=2)
    queue = JobQueue(store)
    try:
        job = queue.submit(GatedSpec("IIS", functions=FUNCTIONS))
        assert taken.wait(30)
        queue.cancel(job.job_id)
        release.set()
        _wait(job)
    finally:
        release.set()
        queue.close()
        store.close()
    assert states == ["queued", "cancelled", "cancelled"]
    assert len(store) == 0


def test_cancel_running_job_keeps_checkpoints(tmp_path):
    """A cancelled run unwinds at the next completed run; what already
    finished stays in the store, so a resubmission resumes."""
    store = ShardedRunStore(tmp_path / "store.d", segments=2)
    queue = JobQueue(store)
    try:
        job = queue.submit(_campaign_spec())
        deadline = time.monotonic() + 60.0
        while job.execution.done < 2 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert job.execution.done >= 2, "campaign never started executing"
        queue.cancel(job.job_id)
        _wait(job)
        assert job.state is JobState.CANCELLED
        checkpointed = len(store)
        assert checkpointed >= 2

        resumed = _wait(queue.submit(_campaign_spec()))
        assert resumed.state is JobState.DONE
        assert resumed.execution.cached_count >= 2
        assert resumed.execution.executed_count < resumed.execution.total
    finally:
        queue.close()
        store.close()


def test_submit_after_close_is_refused(tmp_path):
    store = ShardedRunStore(tmp_path / "store.d", segments=2)
    queue = JobQueue(store)
    queue.close()
    store.close()
    with pytest.raises(RuntimeError, match="shutting down"):
        queue.submit(_campaign_spec())


# ----------------------------------------------------------------------
# Load jobs on the shared pool
# ----------------------------------------------------------------------
def _sorted_lines(path) -> list:
    return sorted(path.read_bytes().splitlines())


def test_load_job_on_the_pool_matches_serial_grid(tmp_path):
    """A load job runs on the daemon's warm pool, and its store lines are
    byte-identical to the same grid run serially."""
    from repro.core.exec import ProcessPoolBackend
    from repro.core.store import RunStore
    from repro.load import run_load_tasks

    spec = LoadJobSpec(LoadSpec("Apache1", clients=3), reps=2, sweep=[2, 4])
    store = ShardedRunStore(tmp_path / "store.d", segments=4)
    queue = JobQueue(store, jobs=2)
    assert isinstance(queue.backend, ProcessPoolBackend)
    mapped = []
    pool_map = queue.backend.map

    def spying_map(execute, items, on_result=None):
        mapped.append(len(items))
        return pool_map(execute, items, on_result)

    queue.backend.map = spying_map
    try:
        job = _wait(queue.submit(spec))
    finally:
        queue.close()
        store.close()
    assert job.state is JobState.DONE
    assert mapped == [4]
    merged = tmp_path / "merged.jsonl"
    ShardedRunStore(tmp_path / "store.d").merge_to(merged)

    serial = tmp_path / "serial.jsonl"
    serial_store = RunStore(serial)
    try:
        run_load_tasks(spec.tasks(), spec.run_config(), jobs=1,
                       store=serial_store)
    finally:
        serial_store.close()
    assert _sorted_lines(merged) == _sorted_lines(serial)


def test_cancel_running_load_job_keeps_checkpoints(tmp_path):
    """DELETE on a load job running on the pool unwinds through the
    pool's drain: it ends cancelled, its finished runs stay in the
    store, and a resubmission resumes from them."""
    spec = LoadJobSpec(LoadSpec("Apache1", clients=20, iterations=4),
                       reps=24)
    store = ShardedRunStore(tmp_path / "store.d", segments=2)
    queue = JobQueue(store, jobs=2)
    try:
        job = queue.submit(spec)
        deadline = time.monotonic() + 60.0
        while job.execution.done < 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert job.execution.done >= 1, "load job never started executing"
        queue.cancel(job.job_id)
        _wait(job)
        assert job.state is JobState.CANCELLED
        checkpointed = len(store)
        assert job.execution.done <= checkpointed <= 24

        resumed = _wait(queue.submit(spec))
        assert resumed.state is JobState.DONE
        assert resumed.execution.cached_count == checkpointed
        assert resumed.execution.executed_count == 24 - checkpointed
    finally:
        queue.close()
        store.close()
