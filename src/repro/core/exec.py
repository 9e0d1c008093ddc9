"""Pluggable execution backends and the campaign scheduler.

A backend maps a picklable function over a batch of independent work
items — campaign runs, load runs, files to lint — with results aligned
to the batch.  :func:`run_batch` is the one checkpointing loop on top
of it (serve from the store, execute the rest, record, advance the
ledger); the scheduler (:func:`run_plan`) walks a
:class:`CampaignPlan` through it — the profile run, then the eligible
probes and all of their releases as one batch, probes first — and
hands every completed run back in canonical fault-list order.  The
activation shortcut is applied where runs are recorded
(:class:`ActivationGate`): a release counts only if its probe
activated.  A lazy backend (:class:`SerialBackend`) pulls each task
only after recording the one before, so it never runs a release past
a closed gate; an eager one (:class:`ProcessPoolBackend`) dispatches
the whole batch at once and so runs such releases on speculation, and
the gate drops them — never stored, counted or reported, only tallied
in ``dropped_count``.  A speculated run that raises in its worker
still fails its chunk, and so the campaign, although the serial
reference would never have run it.  The run ledger
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
from typing import Any, Callable, Iterable, Optional, Sequence

from .collector import RunResult, infer_result
from .plan import CampaignPlan, RunTask
from .runner import RunConfig, execute_run
from .store import fault_key_str
from .workload import MiddlewareKind, WorkloadSpec, get_workload

OnResult = Callable[[Any, Any], None]


class ExecutionBackend:
    """Maps work over independent items; results align with the batch."""

    def map(self, execute: Callable[[Any], Any], items: Iterable,
            on_result: Optional[OnResult] = None) -> list:
        """``[execute(item) for item in items]``.

        ``items`` is an iterable the backend consumes in order, pulling
        lazily or listing it first.  ``on_result(item, result)`` sees
        every result as it is collected, in item order.  ``execute``
        must pickle (a module-level function, or a
        ``functools.partial`` of one) for out-of-process backends.
        """
        raise NotImplementedError

    def run_tasks(self, tasks: Iterable[RunTask], workload: WorkloadSpec,
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
    """In-process, one item at a time — the reference implementation.

    Lazy: the next item is pulled only after ``on_result`` has seen
    the one before.
    """

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

    Eager: ``items`` is listed up front and submitted in chunks (one
    IPC round-trip per chunk, not per item), and results are collected
    in submission order, so the caller sees the same sequence a serial
    backend would produce.

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
    """The run ledger: the one progress record of a campaign's stages
    or a load grid, and what :func:`run_plan` (and the load grid runner)
    hands back.  ``done`` (out of ``total``) moves only in
    :meth:`advance`, the one caller of the observer
    ``progress(execution)``.  The observer's first ``Exception`` stops
    further reports — a broken progress bar never aborts a grid — while
    a ``BaseException`` (an interrupt, a cancellation) propagates.
    """

    __slots__ = ("profile_run", "runs", "skipped_functions", "stage",
                 "total", "done", "executed_count", "cached_count",
                 "inferred_count", "dropped_count", "last_run", "progress")

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
        # Runs an eager backend executed on speculation that the
        # activation gate then refused: never stored, counted or reported.
        self.dropped_count = 0
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


class ActivationGate:
    """The paper's activation shortcut, applied where runs are recorded.

    :func:`run_plan` hands a campaign's profile-eligible probes and all
    of their releases to the backend as one batch, probes first.  The
    gate decides which of those runs count: a probe always does, a
    release only once every probe has been recorded (the gate is open)
    and its own probe activated.  The last probe's record opens the
    gate: the releases of every unactivated function are accounted as
    skipped, in function order, and the ledger enters ``"releasing"``.
    """

    __slots__ = ("plan", "eligible", "execution", "probe_of", "waiting",
                 "activated", "is_open")

    def __init__(self, plan: CampaignPlan, eligible: list[str],
                 execution: PlanExecution):
        self.plan = plan
        self.eligible = eligible
        self.execution = execution
        self.probe_of = {release: plan.probes[name] for name in eligible
                         for release in plan.releases[name]}
        self.waiting = len(eligible)    # probes not recorded yet
        self.activated: set[RunTask] = set()
        self.is_open = False

    def admits(self, task: RunTask) -> Optional[bool]:
        """Whether ``task``'s run counts: None while a release's probe
        is still unrecorded (an eager backend runs it on speculation)."""
        probe = self.probe_of.get(task)
        if probe is None:
            return True
        if not self.is_open:
            return None
        return probe in self.activated

    def recorded(self, task: RunTask, run: RunResult) -> bool:
        """Note an accounted run; True when it opened the gate."""
        if task in self.probe_of:
            return False
        if run.activated:
            self.activated.add(task)
        self.waiting -= 1
        if self.waiting:
            return False
        self.open()
        return True

    def open(self) -> None:
        """Skip the releases of unactivated functions; enter
        ``"releasing"``."""
        execution = self.execution
        for name in self.eligible:
            if self.plan.probes[name] not in self.activated:
                # The function is not called, so its remaining faults
                # would not activate either.
                execution.skipped_functions.add(name)
                execution.advance(None, len(self.plan.releases[name]))
        execution.enter("releasing")
        self.is_open = True


def run_batch(tasks: Sequence, execute, execution: PlanExecution,
              store=None, store_key=None, counted: bool = True,
              gate: Optional[ActivationGate] = None) -> list:
    """Serve ``tasks`` from the store, execute the rest, checkpoint.

    ``store_key(task)`` is the task's ``(fingerprint, key string)`` in
    ``store``, built once per task for both the lookup and the
    checkpoint; ``execute(pending, on_result)`` runs the uncached tasks
    on a backend, consuming the ``pending`` iterable in order.  Every
    executed run is checkpointed before the ledger reports it, so an
    interrupt never loses a finished run.  ``counted`` runs advance
    ``execution``.

    With a ``gate``, a run is accounted only when the gate admits it:
    ``pending`` leaves out the tasks it has already refused, an
    executed run it does not admit is dropped (counted in
    ``execution.dropped_count``, never stored), and a cached run it has
    not yet ruled on waits until the gate opens.  Returns the runs
    aligned with ``tasks``, None where a run was not accounted.
    """
    runs = [None] * len(tasks)
    pending = []
    held = []   # cached runs the gate has not ruled on yet
    # id(task) -> (index, store key): ``tasks`` holds distinct objects
    # and keeps every id alive.
    slots = {}

    # No closure here calls itself: a reference cycle would keep every
    # batch's runs alive until a full collection.
    def account(task, run) -> bool:
        """Report an admitted run; True when it opened the gate."""
        runs[slots[id(task)][0]] = run
        if counted:
            execution.advance(run)
        return gate is not None and gate.recorded(task, run)

    def serve_held() -> None:
        for task, run in held:
            if gate.admits(task):
                execution.cached_count += 1
                account(task, run)

    for index, task in enumerate(tasks):
        key = cached = None
        if store is not None:
            key = store_key(task)
            cached = store.get(*key)
        slots[id(task)] = (index, key)
        if cached is None:
            pending.append(task)
            continue
        admitted = True if gate is None else gate.admits(task)
        if admitted:
            execution.cached_count += 1
            if account(task, cached):
                serve_held()
        elif admitted is None:
            held.append((task, cached))

    def record(task, run) -> None:
        if gate is not None and not gate.admits(task):
            execution.dropped_count += 1
            return
        if store is not None:
            store.put(*slots[id(task)][1], run)
        execution.executed_count += 1
        if account(task, run):
            serve_held()

    if gate is not None:
        pending = (task for task in pending
                   if gate.admits(task) is not False)
    execute(pending, record)
    return runs


def run_plan(plan: CampaignPlan, workload: WorkloadSpec,
             middleware: MiddlewareKind, config: RunConfig,
             fingerprint: str, backend: ExecutionBackend,
             store=None, progress=None) -> PlanExecution:
    """Execute a campaign plan: the profile run, then its eligible
    probes and their releases as one batch behind an
    :class:`ActivationGate`.

    Completed runs are checkpointed to ``store`` (when given) under
    ``fingerprint`` before the ledger reports them, so an interrupt
    never loses a finished run; runs already present in the store are
    served from it and not re-executed.

    ``progress(execution)`` observes the ledger: once as each stage
    (``"profiling"``, ``"probing"``, ``"releasing"``) starts, and on
    every advance — the serve daemon's job state machine rides on it.
    """
    execution = PlanExecution(progress=progress)
    results: dict[RunTask, RunResult] = {}

    def execute(pending, on_result) -> list[RunResult]:
        return backend.run_tasks(pending, workload, middleware, config,
                                 on_result=on_result)

    def dispatch(tasks: Sequence[RunTask], counted: bool = True,
                 gate: Optional[ActivationGate] = None) -> None:
        runs = run_batch(tasks, execute, execution, store=store,
                         store_key=lambda task: (fingerprint,
                                                 fault_key_str(task.fault)),
                         counted=counted, gate=gate)
        results.update((task, run) for task, run in zip(tasks, runs)
                       if run is not None)

    # --- The fault-free profiling run gates the probes -----------------
    execution.enter("profiling")
    dispatch([plan.profile_task], counted=False)
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

    # --- Probes and releases: one batch, gated as it is recorded -------
    execution.enter("probing")
    gate = ActivationGate(plan, eligible, execution)
    if not eligible:
        gate.open()
    dispatch([plan.probes[name] for name in eligible]
             + [task for name in eligible for task in plan.releases[name]],
             gate=gate)

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
