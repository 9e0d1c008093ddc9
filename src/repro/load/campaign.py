"""Load campaigns: repetitions and client-count sweeps over a LoadSpec.

Same determinism contract as :mod:`repro.core.exec`: every load run
boots a fresh machine seeded from ``(base seed, spec identity, rep)``
and shares nothing with any other run, so a campaign is embarrassingly
parallel per run and the process-pool path produces byte-identical
store files to the serial path, whatever the worker count.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

from ..core.exec import (
    ExecutionBackend,
    PlanExecution,
    backend_for,
    run_batch,
)
from ..core.runner import RunConfig
from .result import LoadRunResult
from .runner import execute_load_run
from .spec import LoadSpec


class LoadTask:
    """One (spec, rep) cell of a load campaign."""

    __slots__ = ("spec", "rep")

    def __init__(self, spec: LoadSpec, rep: int):
        self.spec = spec
        self.rep = rep

    def __repr__(self) -> str:
        return f"<LoadTask {self.spec!r} rep={self.rep}>"


def plan_load_tasks(spec: LoadSpec, reps: int = 1,
                    sweep: Optional[Sequence[int]] = None) -> list[LoadTask]:
    """The task grid: every swept client count times every repetition.

    With no sweep the grid is just ``reps`` repetitions of the spec
    itself.  Sweep counts are run in the order given (canonical order
    for the store and the progress display).
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    specs = ([spec.replace(clients=count) for count in sweep]
             if sweep else [spec])
    return [LoadTask(variant, rep)
            for variant in specs for rep in range(reps)]


def _execute_load_task(config: RunConfig, task: LoadTask) -> LoadRunResult:
    return execute_load_run(task.spec, task.rep, config)


def run_load_tasks(tasks: Sequence[LoadTask], config: RunConfig,
                   jobs: int = 1, store=None, progress=None,
                   backend: Optional[ExecutionBackend] = None
                   ) -> PlanExecution:
    """Execute a load-task grid, checkpointing as runs complete.

    Runs go to ``backend`` when given (the serve daemon shares its
    warm pool), else to a backend for ``jobs`` workers owned by this
    call.  Results come back in task order regardless; completed runs
    are checkpointed to ``store`` (when given) before the ledger reports
    them to ``progress`` (stage ``"running"``), and cached runs are
    served without re-execution.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    execution = PlanExecution(total=len(tasks), progress=progress)
    owned = backend is None
    backend = backend or backend_for(jobs)

    def execute(pending: list[LoadTask], on_result) -> list[LoadRunResult]:
        return backend.map(functools.partial(_execute_load_task, config),
                           pending, on_result)

    try:
        execution.enter("running")
        execution.runs = run_batch(
            tasks, execute, execution, store=store,
            store_key=lambda task: (task.spec.fingerprint(config),
                                    task.spec.key(task.rep)))
    finally:
        if owned:
            backend.close()
    return execution
