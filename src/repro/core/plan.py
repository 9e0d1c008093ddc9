"""Campaign planning: the Figure-1 grid as an explicit task DAG.

The original tool walks the experiment grid with one nested serial
loop.  This module factors the *planning* half of that loop out into a
pure function: :func:`plan_campaign` turns a fault list into a
:class:`CampaignPlan` — an explicit DAG of :class:`RunTask`\\ s that any
execution backend (:mod:`repro.core.exec`) can dispatch, serially or in
parallel, without re-deriving the paper's scheduling rules.

The activation shortcut (*"if an injected function is not called, all
other injections for that function will be skipped"*) becomes **wave
scheduling**: for every function the first fault is a *probe*; the
function's remaining faults are *releases* that are dispatched only
after the probe run reports activation.  The optional fault-free
profiling run gates the probes themselves — probes of functions absent
from the called-function set are cancelled outright.

Nothing in this module touches a :class:`~repro.nt.machine.Machine`;
planning is deterministic, cheap, and side-effect free.
"""

from __future__ import annotations

import enum
from typing import Iterator, Optional, Sequence

from .faultlist import faults_by_function

PROFILE_TASK_ID = "profile"


class TaskKind(enum.Enum):
    """What role a task plays in the wave schedule."""

    PROFILE = "profile"   # fault-free run discovering the called set
    PROBE = "probe"       # first fault of a function (activation test)
    RELEASE = "release"   # remaining faults, gated on probe activation
    INFERRED = "inferred"  # pruned fault, result copied from its class
    #                        representative (never dispatched)


class RunTask:
    """One schedulable fault-injection run.

    ``order`` is the task's position in the canonical fault-list
    enumeration; backends may complete tasks in any order, but results
    are always reported back in ``order`` so parallel campaigns are
    indistinguishable from serial ones.
    """

    __slots__ = ("task_id", "kind", "fault", "function", "order", "deps",
                 "representative")

    def __init__(self, task_id: str, kind: TaskKind, fault,
                 function: Optional[str], order: int,
                 deps: Sequence[str] = (),
                 representative: Optional[str] = None):
        self.task_id = task_id
        self.kind = kind
        self.fault = fault
        self.function = function
        self.order = order
        self.deps = tuple(deps)
        # For INFERRED tasks: the task id whose run result this fault's
        # outcome is copied from.
        self.representative = representative

    def __repr__(self) -> str:
        return (f"<RunTask {self.task_id} {self.kind.value} "
                f"order={self.order} deps={list(self.deps)}>")


class CampaignPlan:
    """The full DAG for one workload set.

    ``tasks`` holds every injection task in canonical fault-list order;
    ``probes`` and ``releases`` index them by function.  Wave 0 is the
    profiling run (when planned), wave 1 the probes, wave 2 the
    releases.
    """

    def __init__(self, tasks: Sequence[RunTask],
                 profile_task: Optional[RunTask],
                 probes: dict[str, RunTask],
                 releases: dict[str, tuple[RunTask, ...]],
                 functions: Sequence[str],
                 inferred: Optional[dict[str, tuple[RunTask, ...]]] = None):
        self.tasks = list(tasks)
        self.profile_task = profile_task
        self.probes = probes
        self.releases = releases
        self.functions = tuple(functions)
        # Pruned faults by function: scheduled nowhere, their results
        # are expanded from class representatives after the last wave.
        self.inferred = inferred if inferred is not None else {}

    # ------------------------------------------------------------------
    @property
    def injection_count(self) -> int:
        return len(self.tasks)

    @property
    def pruned_count(self) -> int:
        return sum(len(group) for group in self.inferred.values())

    @property
    def scheduled_count(self) -> int:
        return len(self.tasks) - self.pruned_count

    def tasks_for_function(self, function: str) -> list[RunTask]:
        probe = self.probes.get(function)
        if probe is None:
            return []
        tasks = [probe, *self.releases[function],
                 *self.inferred.get(function, ())]
        tasks.sort(key=lambda task: task.order)
        return tasks

    def census(self) -> dict:
        """Planned fault tuples by function — the plan-side census the
        static↔dynamic oracle reconciles against.  ``per_function``
        counts every injection task (probe + releases) per target."""
        per_function = {name: len(self.tasks_for_function(name))
                        for name in self.functions}
        return {
            "functions": len(self.functions),
            "probes": len(self.probes),
            "releases": sum(len(group) for group in
                            self.releases.values()),
            "inferred": self.pruned_count,
            "profiled": self.profile_task is not None,
            "per_function": per_function,
        }

    def waves(self) -> Iterator[list[RunTask]]:
        """The wave schedule: profile, then probes, then releases."""
        if self.profile_task is not None:
            yield [self.profile_task]
        yield [self.probes[name] for name in self.functions]
        yield [task for name in self.functions
               for task in self.releases[name]]

    def __repr__(self) -> str:
        return (f"<CampaignPlan functions={len(self.functions)} "
                f"tasks={len(self.tasks)} "
                f"profiled={self.profile_task is not None}>")


def plan_campaign(faults: Sequence, profile_first: bool = True,
                 prune=None) -> CampaignPlan:
    """Turn an ordered fault list into the wave-scheduled DAG.

    Works for both fault-spec flavours (parameter and return-value
    corruption) — anything with a ``.function`` attribute groups.

    With ``prune`` (an :class:`~repro.lint.valueflow.EquivalenceManifest`,
    or anything with its ``group_key(fault)`` contract), faults that
    share a static equivalence class with an already-scheduled fault of
    the same function and invocation become INFERRED tasks: they are
    dispatched nowhere, and the executor copies their outcome from the
    class representative's run.  Faults the manifest does not cover —
    return-value faults, singleton classes — are always scheduled.
    """
    grouped = faults_by_function(faults)
    profile_task = None
    if profile_first:
        profile_task = RunTask(PROFILE_TASK_ID, TaskKind.PROFILE,
                               fault=None, function=None, order=-1)
    probe_deps = (PROFILE_TASK_ID,) if profile_task is not None else ()

    tasks: list[RunTask] = []
    probes: dict[str, RunTask] = {}
    releases: dict[str, tuple[RunTask, ...]] = {}
    inferred: dict[str, tuple[RunTask, ...]] = {}
    order = 0
    for function, group in grouped.items():
        function_tasks: list[RunTask] = []
        inferred_tasks: list[RunTask] = []
        representatives: dict[tuple, str] = {}
        # enumerate() — not list.index() — so duplicate faults that
        # compare equal still count correctly.
        for position, fault in enumerate(group):
            class_key = None
            if prune is not None:
                class_key = prune.group_key(fault)
                if class_key is not None:
                    class_key += (fault.invocation,)
            if position == 0:
                task = RunTask(f"probe:{function}", TaskKind.PROBE, fault,
                               function, order, deps=probe_deps)
                probes[function] = task
            elif class_key is not None and class_key in representatives:
                representative = representatives[class_key]
                inferred_tasks.append(RunTask(
                    f"inferred:{function}:{position}", TaskKind.INFERRED,
                    fault, function, order, deps=(representative,),
                    representative=representative))
                order += 1
                continue
            else:
                task = RunTask(f"release:{function}:{position}",
                               TaskKind.RELEASE, fault, function, order,
                               deps=(f"probe:{function}",))
            if class_key is not None:
                representatives.setdefault(class_key, task.task_id)
            function_tasks.append(task)
            order += 1
        tasks.extend(sorted(function_tasks + inferred_tasks,
                            key=lambda t: t.order))
        releases[function] = tuple(function_tasks[1:])
        if inferred_tasks:
            inferred[function] = tuple(inferred_tasks)
    return CampaignPlan(tasks, profile_task, probes, releases,
                        list(grouped), inferred=inferred)
