"""Pluggable execution backends and the wave scheduler.

A backend maps a picklable function over a batch of independent work
items — campaign runs, load runs, files to lint — with results aligned
to the batch.  :func:`run_batch` is the one checkpointing loop on top
of it (serve from the store, execute the rest, record, advance the
ledger); the scheduler (:func:`run_plan`) walks a
:class:`CampaignPlan` through it — the profile run, the probes, then
the releases of the functions whose probe activated — and hands every
completed run back in canonical fault-list order.  The run ledger
(:class:`PlanExecution`) is the one progress record.

**Determinism contract.**  Each run boots a fresh simulated machine
seeded from ``(base seed, workload, middleware, fault key)`` and shares
no state with any other run, so campaigns are embarrassingly parallel
per run: :class:`ProcessPoolBackend` results are bit-identical to
:class:`SerialBackend` results, whatever the worker count or completion
order.
"""

from __future__ import annotations

import concurrent.futures
import functools
import multiprocessing
import os
from typing import Any, Callable, Optional, Sequence

from .collector import RunResult, infer_result
from .plan import CampaignPlan, RunTask
from .runner import RunConfig, execute_run
from .store import fault_key_str
from .workload import MiddlewareKind, WorkloadSpec, get_workload

OnResult = Callable[[Any, Any], None]


class ExecutionBackend:
    """Maps work over independent items; results align with the batch."""

    def map(self, execute: Callable[[Any], Any], items: Sequence,
            on_result: Optional[OnResult] = None) -> list:
        """``[execute(item) for item in items]``.

        ``on_result(item, result)`` sees every result as it is
        collected, in item order.  ``execute`` must pickle (a
        module-level function, or a ``functools.partial`` of one) for
        out-of-process backends.
        """
        raise NotImplementedError

    def run_tasks(self, tasks: Sequence[RunTask], workload: WorkloadSpec,
                  middleware: MiddlewareKind, config: RunConfig,
                  on_result: Optional[OnResult] = None) -> list[RunResult]:
        """Execute campaign run tasks: :meth:`map` over ``tasks``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release worker resources (no-op for in-process backends)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _execute_task(workload: WorkloadSpec, middleware: MiddlewareKind,
                  config: RunConfig, task: RunTask) -> RunResult:
    return execute_run(workload, middleware, task.fault, config)


def _execute_named_task(workload_name: str, middleware_value: str,
                        config: RunConfig, task: RunTask) -> RunResult:
    """Worker-side :func:`_execute_task`: the workload crosses the
    process boundary by name and is resolved from the registry."""
    return execute_run(get_workload(workload_name),
                       MiddlewareKind(middleware_value), task.fault, config)


class SerialBackend(ExecutionBackend):
    """In-process, one item at a time — the reference implementation."""

    def map(self, execute, items, on_result=None) -> list:
        results = []
        for item in items:
            result = execute(item)
            if on_result is not None:
                on_result(item, result)
            results.append(result)
        return results

    def run_tasks(self, tasks, workload, middleware, config,
                  on_result=None) -> list[RunResult]:
        return self.map(functools.partial(_execute_task, workload,
                                          middleware, config),
                        tasks, on_result)

    def __repr__(self) -> str:
        return "<SerialBackend>"


def _map_chunk(execute, items: list) -> list:
    """Worker body: one chunk of a :meth:`ProcessPoolBackend.map`."""
    return [execute(item) for item in items]


class ProcessPoolBackend(ExecutionBackend):
    """Dispatches work across a ``concurrent.futures`` process pool.

    Items are submitted in chunks (one IPC round-trip per chunk, not
    per item) and results are collected in submission order, so the
    caller sees the same sequence a serial backend would produce.

    Workers are forked where the platform allows, so they inherit the
    parent's registries — plugin workloads registered before the first
    dispatch resolve by name inside the worker.
    """

    def __init__(self, jobs: Optional[int] = None,
                 chunk_size: Optional[int] = None):
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        self.chunk_size = chunk_size
        self._pool = None

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            context = None
            if "fork" in multiprocessing.get_all_start_methods():
                context = multiprocessing.get_context("fork")
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=context)
        return self._pool

    def map(self, execute, items, on_result=None) -> list:
        """Chunked :meth:`ExecutionBackend.map`.

        A failure never orphans finished work: every result that
        completes in a worker reaches ``on_result`` (and hence the
        store) before the first exception propagates.  A chunk raising
        in its worker leaves the other chunks running — they are
        independent, so a resume re-executes only the failing chunk.
        A failure in this process (``on_result`` raising, e.g. a
        cancellation, or an interrupt while waiting) cancels the chunks
        not yet started and waits out the running ones.
        """
        items = list(items)
        if not items:
            return []
        pool = self._ensure_pool()
        # Aim for a few chunks per worker so stragglers rebalance.
        size = self.chunk_size or max(1, len(items) // (self.jobs * 4) + 1)
        chunks = [items[start:start + size]
                  for start in range(0, len(items), size)]
        futures = [pool.submit(_map_chunk, execute, chunk)
                   for chunk in chunks]
        results = []
        failure = None

        def stop(exc: BaseException, index: int) -> None:
            nonlocal failure
            failure = failure or exc
            for later in futures[index + 1:]:
                later.cancel()

        for index, (chunk, future) in enumerate(zip(chunks, futures)):
            try:
                outputs = future.result()
            except concurrent.futures.CancelledError:
                continue
            except Exception as exc:            # raised in the worker
                failure = failure or exc
                continue
            except BaseException as exc:        # interrupted waiting
                stop(exc, index)
                continue
            for item, output in zip(chunk, outputs):
                results.append(output)
                if on_result is None:
                    continue
                try:
                    on_result(item, output)
                except BaseException as exc:    # keep recording the rest
                    stop(exc, index)
        if failure is not None:
            raise failure
        return results

    def run_tasks(self, tasks, workload, middleware, config,
                  on_result=None) -> list[RunResult]:
        return self.map(functools.partial(_execute_named_task, workload.name,
                                          middleware.value, config),
                        tasks, on_result)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __repr__(self) -> str:
        return f"<ProcessPoolBackend jobs={self.jobs}>"


def backend_for(jobs: Optional[int]) -> ExecutionBackend:
    """The backend for a worker count: a process pool for more than
    one worker, else in-process."""
    if jobs is not None and jobs > 1:
        return ProcessPoolBackend(jobs)
    return SerialBackend()


# ----------------------------------------------------------------------
# The run ledger, the checkpointing loop and the scheduler
# ----------------------------------------------------------------------
class PlanExecution:
    """The run ledger: the one progress record of a campaign's waves or
    a load grid, and what :func:`run_plan` (and the load grid runner)
    hands back.  ``done`` (out of ``total``) moves only in
    :meth:`advance`, the one caller of the observer
    ``progress(execution)``.  The observer's first ``Exception`` stops
    further reports — a broken progress bar never aborts a grid — while
    a ``BaseException`` (an interrupt, a cancellation) propagates.
    """

    __slots__ = ("profile_run", "runs", "skipped_functions", "stage",
                 "total", "done", "executed_count", "cached_count",
                 "inferred_count", "last_run", "progress")

    def __init__(self, total: int = 0, progress=None):
        self.profile_run: Optional[RunResult] = None
        self.runs: list = []
        self.skipped_functions: set[str] = set()
        self.stage: Optional[str] = None
        self.total = total
        self.done = 0
        self.executed_count = 0
        self.cached_count = 0
        self.inferred_count = 0
        self.last_run = None    # None: a stage entry or skipped runs
        self.progress = progress

    def enter(self, stage: str) -> None:
        """Start ``stage`` and report it once."""
        self.stage = stage
        self.advance(None, 0)

    def advance(self, run, count: int = 1) -> None:
        """Account for ``count`` more scheduled runs and report."""
        self.done += count
        self.last_run = run
        if self.progress is None:
            return
        try:
            self.progress(self)
        except Exception:
            self.progress = None


def run_batch(tasks: Sequence, execute, execution: PlanExecution,
              store=None, store_key=None, counted: bool = True) -> list:
    """Serve ``tasks`` from the store, execute the rest, checkpoint.

    ``store_key(task)`` is the task's ``(fingerprint, key string)`` in
    ``store``, built once per task for both the lookup and the
    checkpoint; ``execute(pending, on_result)`` runs the uncached tasks
    on a backend.  Every executed run is checkpointed before the ledger
    reports it, so an interrupt never loses a finished run.  ``counted``
    runs advance ``execution``.  Returns the runs aligned with
    ``tasks``.
    """
    runs = [None] * len(tasks)
    pending = []
    keys = {}   # id(task) -> store key; ``tasks`` keeps every id alive

    def advance(run) -> None:
        if counted:
            execution.advance(run)

    for index, task in enumerate(tasks):
        cached = None
        if store is not None:
            key = keys[id(task)] = store_key(task)
            cached = store.get(*key)
        if cached is None:
            pending.append(index)
        else:
            runs[index] = cached
            execution.cached_count += 1
            advance(cached)

    def record(task, run) -> None:
        if store is not None:
            store.put(*keys[id(task)], run)
        execution.executed_count += 1
        advance(run)

    fresh = execute([tasks[index] for index in pending], record)
    for index, run in zip(pending, fresh):
        runs[index] = run
    return runs


def run_plan(plan: CampaignPlan, workload: WorkloadSpec,
             middleware: MiddlewareKind, config: RunConfig,
             fingerprint: str, backend: ExecutionBackend,
             store=None, progress=None) -> PlanExecution:
    """Execute a campaign plan: profile, probes, then releases.

    Completed runs are checkpointed to ``store`` (when given) under
    ``fingerprint`` before the ledger reports them, so an interrupt
    never loses a finished run; runs already present in the store are
    served from it and not re-executed.

    ``progress(execution)`` observes the ledger: once as each wave
    (``"profiling"``, ``"probing"``, ``"releasing"``) starts, and on
    every advance — the serve daemon's job state machine rides on it.
    """
    execution = PlanExecution(progress=progress)
    results: dict[RunTask, RunResult] = {}

    def execute(pending: list[RunTask], on_result) -> list[RunResult]:
        return backend.run_tasks(pending, workload, middleware, config,
                                 on_result=on_result)

    def dispatch(stage: str, tasks: Sequence[RunTask],
                 counted: bool = True) -> None:
        execution.enter(stage)
        runs = run_batch(tasks, execute, execution, store=store,
                         store_key=lambda task: (fingerprint,
                                                 fault_key_str(task.fault)),
                         counted=counted)
        results.update(zip(tasks, runs))

    # --- The fault-free profiling run gates the probes -----------------
    dispatch("profiling", [plan.profile_task], counted=False)
    execution.profile_run = results[plan.profile_task]
    called = set(execution.profile_run.called_functions)

    def gated(probe: RunTask) -> bool:
        # Each fault names the export whose presence in the profile
        # run's called set gates its probe (``profile_gate``); None
        # means always probe — transport ops and resource pressure
        # have no kernel32 footprint to gate on.
        gate = probe.fault.profile_gate
        return gate is None or gate in called

    eligible = [name for name, probe in plan.probes.items()
                if gated(probe)]
    execution.skipped_functions = set(plan.probes) - set(eligible)
    execution.total = sum(1 + len(plan.releases[name])
                          for name in eligible)

    # --- Probes (one fault per function) -------------------------------
    dispatch("probing", [plan.probes[name] for name in eligible])

    # --- Activation gate: release the rest of each activated function --
    released = []
    for name in eligible:
        if results[plan.probes[name]].activated:
            released.extend(plan.releases[name])
        else:
            # The paper's shortcut: the function is not called, so its
            # remaining faults would not activate either.
            execution.skipped_functions.add(name)
            execution.advance(None, len(plan.releases[name]))
    dispatch("releasing", released)

    # --- Expansion: pruned faults inherit their representative's run --
    # Never checkpointed: on resume the representative is served from
    # the store and the expansion is recomputed, so a store only ever
    # holds executed evidence.  A skipped function's inferred faults
    # stay skipped: the full campaign would have skipped them too.
    for name, group in plan.inferred.items():
        if name in execution.skipped_functions:
            continue
        for task in group:
            results[task] = infer_result(results[task.representative],
                                         task.fault)
            execution.inferred_count += 1

    execution.runs = [results[task] for task in plan.tasks
                      if task in results]
    return execution
