"""The daemon's job queue: queued execution with a per-job state
machine.

One worker thread drains submissions in arrival order, executing each
through the ordinary campaign machinery — :func:`~repro.core.exec
.run_plan` via the :class:`~repro.core.campaign.Campaign` facade — so
a daemon-executed campaign is bit-identical to the same campaign run
from the CLI.  All jobs — campaigns and load grids alike — share one
persistent :class:`~repro.core.exec.ProcessPoolBackend` (workers
survive across jobs; batches are sharded across them in chunks) and
one run store,
which is what dedups overlapping campaigns: the scheduler consults the
store by ``(config fingerprint, fault key)`` before dispatching any
run, so the overlap of a second campaign is served from cache and
surfaces as ``cached`` in its status.

A job's progress is the run's own ledger
(:class:`~repro.core.exec.PlanExecution`), which the job's observer
keeps a reference to; a status read sees the live counts, never a copy.
The state machine mirrors the ledger's stage, i.e. the wave schedule::

    queued → profiling → probing → releasing → done
                                             ↘ failed / cancelled

Load jobs have no waves; they go ``queued → running → done``.
"""

from __future__ import annotations

import enum
import threading
import time
from typing import Optional

from ..core.exec import PlanExecution, backend_for
from .spec import CampaignJobSpec, LoadJobSpec


class JobCancelled(BaseException):
    """Raised inside a running job to unwind it on DELETE.

    A ``BaseException`` on purpose: the run ledger's observer guard
    swallows ``Exception`` (a broken progress bar must not abort a
    grid), and cancellation must not be swallowed.
    """


class JobState(enum.Enum):
    QUEUED = "queued"
    PROFILING = "profiling"
    PROBING = "probing"
    RELEASING = "releasing"
    RUNNING = "running"          # load jobs: no waves, one flat grid
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED,
                        JobState.CANCELLED)


class Job:
    """One submission and everything observable about it."""

    def __init__(self, job_id: str, spec):
        self.job_id = job_id
        self.spec = spec
        self.state = JobState.QUEUED
        self.error: Optional[str] = None
        # The running job's run ledger, read live; empty until it starts.
        self.execution = PlanExecution()
        self.activated_count = 0
        # Monotonic stamps: only ever differenced (elapsed seconds).
        self.submitted_at = time.monotonic()
        self.finished_at: Optional[float] = None
        # Store fingerprints this job's runs live under (campaigns have
        # exactly one; load sweeps one per client count).
        self.fingerprints: list[str] = []
        self._cancel = threading.Event()
        self._finished = threading.Event()

    # ------------------------------------------------------------------
    @property
    def cancel_requested(self) -> bool:
        return self._cancel.is_set()

    def request_cancel(self) -> None:
        self._cancel.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self._finished.wait(timeout)

    def _finish(self, state: JobState) -> None:
        # A status reads only the ledger's counts: drop its runs, or a
        # long-lived daemon would keep every run of every job alive.
        self.execution.runs = []
        self.execution.profile_run = self.execution.last_run = None
        self.state = state
        self.finished_at = time.monotonic()
        self._finished.set()

    # ------------------------------------------------------------------
    def status_dict(self) -> dict:
        """The JSON body of ``GET /campaigns/<id>``."""
        stopped = self.finished_at or time.monotonic()
        execution = self.execution
        return {
            "id": self.job_id,
            "kind": self.spec.kind,
            "state": self.state.value,
            "error": self.error,
            "elapsed_seconds": round(stopped - self.submitted_at, 3),
            "progress": {
                "total": execution.total,
                "done": execution.done,
                "cached": execution.cached_count,
                "executed": execution.executed_count,
                "skipped_functions": len(execution.skipped_functions),
                "activated": self.activated_count,
            },
            "fingerprints": list(self.fingerprints),
            "spec": self.spec.to_dict(),
        }

    def __repr__(self) -> str:
        return f"<Job {self.job_id} {self.state.value}>"


class JobQueue:
    """FIFO execution of submitted jobs over shared workers + store."""

    def __init__(self, store, jobs: int = 1):
        self.store = store
        self.backend = backend_for(jobs)
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._pending: list[str] = []
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._closing = False
        self._counter = 0
        self._worker = threading.Thread(target=self._drain,
                                        name="repro-serve-worker",
                                        daemon=True)
        self._worker.start()

    # ------------------------------------------------------------------
    # Submission side (HTTP handler threads)
    # ------------------------------------------------------------------
    def submit(self, spec) -> Job:
        with self._wake:
            if self._closing:
                raise RuntimeError("job queue is shutting down")
            self._counter += 1
            job = Job(f"job-{self._counter}", spec)
            self._jobs[job.job_id] = job
            self._order.append(job.job_id)
            self._pending.append(job.job_id)
            self._wake.notify()
        return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def cancel(self, job_id: str) -> Optional[Job]:
        """Request cancellation; queued jobs flip immediately, running
        jobs unwind at their ledger's next report."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            job.request_cancel()
            if job.state is JobState.QUEUED:
                job._finish(JobState.CANCELLED)
        return job

    def close(self, wait: bool = True) -> None:
        """Stop accepting work, let the in-flight job finish, release
        the pool."""
        with self._wake:
            self._closing = True
            self._wake.notify()
        if wait:
            self._worker.join(timeout=60.0)
        self.backend.close()

    # ------------------------------------------------------------------
    # Execution side (the single worker thread)
    # ------------------------------------------------------------------
    def _drain(self) -> None:
        while True:
            with self._wake:
                while not self._pending and not self._closing:
                    self._wake.wait()
                if not self._pending and self._closing:
                    return
                job = self._jobs[self._pending.pop(0)]
            if job.state.terminal:      # cancelled while queued
                continue
            self._execute(job)

    def _execute(self, job: Job) -> None:
        try:
            if isinstance(job.spec, CampaignJobSpec):
                self._execute_campaign(job)
            elif isinstance(job.spec, LoadJobSpec):
                self._execute_load(job)
            else:
                raise TypeError(
                    f"unknown spec type {type(job.spec).__name__}")
        except JobCancelled:
            job._finish(JobState.CANCELLED)
        except Exception as exc:
            job.error = f"{type(exc).__name__}: {exc}"
            job._finish(JobState.FAILED)
        else:
            job._finish(JobState.DONE)

    def _observer(self, job: Job):
        """Hold the job's run ledger and follow its stage; unwind first
        once a cancel is requested, so a cancelled job stays cancelled."""
        def observe(execution: PlanExecution) -> None:
            if job.cancel_requested:
                raise JobCancelled(job.job_id)
            job.execution = execution
            job.state = JobState(execution.stage)
        return observe

    def _execute_campaign(self, job: Job) -> None:
        spec = job.spec
        job.fingerprints = [spec.fingerprint()]
        campaign = spec.campaign(store=self.store, backend=self.backend,
                                 progress=self._observer(job))
        job.activated_count = campaign.run().activated_count

    def _execute_load(self, job: Job) -> None:
        from ..load import run_load_tasks

        spec = job.spec
        config = spec.run_config()
        tasks = spec.tasks()
        seen = set()
        for task in tasks:
            fingerprint = task.spec.fingerprint(config)
            if fingerprint not in seen:
                seen.add(fingerprint)
                job.fingerprints.append(fingerprint)
        run_load_tasks(tasks, config, store=self.store,
                       progress=self._observer(job), backend=self.backend)
