"""Campaign planning: the Figure-1 grid as the table the scheduler walks.

The original tool walks the experiment grid with one nested serial
loop.  This module factors the *planning* half of that loop out into a
pure function: :func:`plan_campaign` turns a fault list into a
:class:`CampaignPlan` — the fault-free profile task, then per function
one probe, its releases and its inferred members — which
:func:`repro.core.exec.run_plan` executes on any backend, serially or
in parallel, without re-deriving the paper's scheduling rules.

The activation shortcut (*"if an injected function is not called, all
other injections for that function will be skipped"*) becomes a
**record-time gate**: for every function the first fault is a *probe*;
the function's remaining faults are *releases*.  The executor hands
the probes and their releases to the backend as one batch, probes
first, and a release's run counts only if its probe activated.  A
lazy backend therefore never runs a release of an unactivated
function; an eager one may run it on speculation, and the run is
dropped unrecorded.  The fault-free profiling run gates the probes
themselves — probes of functions absent from the called-function set
are cancelled outright.

Nothing in this module touches a :class:`~repro.nt.machine.Machine`;
planning is deterministic, cheap, and side-effect free.
"""

from __future__ import annotations

import enum
from typing import Optional, Sequence

from .faultlist import faults_by_function


class TaskKind(enum.Enum):
    """What role a task plays in the campaign schedule."""

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

    __slots__ = ("task_id", "kind", "fault", "function", "order",
                 "representative")

    def __init__(self, task_id: str, kind: TaskKind, fault,
                 function: Optional[str], order: int,
                 representative: Optional["RunTask"] = None):
        self.task_id = task_id
        self.kind = kind
        self.fault = fault
        self.function = function
        self.order = order
        # For INFERRED tasks: the task whose run result this fault's
        # outcome is copied from.
        self.representative = representative

    def __repr__(self) -> str:
        return (f"<RunTask {self.task_id} {self.kind.value} "
                f"order={self.order}>")


class CampaignPlan:
    """The schedule for one workload set.

    ``tasks`` holds every injection task in canonical fault-list order;
    ``probes``, ``releases`` and ``inferred`` index them by function,
    in fault-list order.
    :func:`~repro.core.exec.run_plan` runs ``profile_task``, then the
    profile-eligible probes and all of their releases as one batch,
    probes first; a release's run is recorded only if its probe
    activated, and one an eager backend ran on speculation is dropped.
    """

    def __init__(self, tasks: Sequence[RunTask], profile_task: RunTask,
                 probes: dict[str, RunTask],
                 releases: dict[str, tuple[RunTask, ...]],
                 inferred: dict[str, tuple[RunTask, ...]]):
        self.tasks = list(tasks)
        self.profile_task = profile_task
        self.probes = probes
        self.releases = releases
        # Pruned faults by function: scheduled nowhere, their results
        # are expanded from class representatives after the batch.
        self.inferred = inferred

    def __repr__(self) -> str:
        return (f"<CampaignPlan functions={len(self.probes)} "
                f"tasks={len(self.tasks)}>")


def plan_campaign(faults: Sequence, prune=None) -> CampaignPlan:
    """Turn an ordered fault list into the campaign schedule.

    Works for every fault family — anything with a ``.function``
    attribute groups.

    With ``prune`` (an :class:`~repro.lint.valueflow.EquivalenceManifest`,
    or anything with its ``group_key(fault)`` contract), faults that
    share a static equivalence class with an already-scheduled fault of
    the same function and invocation become INFERRED tasks: they are
    dispatched nowhere, and the executor copies their outcome from the
    class representative's run.  Faults the manifest does not cover —
    return-value faults, singleton classes — are always scheduled.
    """
    profile_task = RunTask("profile", TaskKind.PROFILE, fault=None,
                           function=None, order=-1)
    tasks: list[RunTask] = []
    probes: dict[str, RunTask] = {}
    releases: dict[str, tuple[RunTask, ...]] = {}
    inferred: dict[str, tuple[RunTask, ...]] = {}
    for function, group in faults_by_function(faults).items():
        scheduled: list[RunTask] = []
        pruned: list[RunTask] = []
        representatives: dict[tuple, RunTask] = {}
        # enumerate() — not list.index() — so duplicate faults that
        # compare equal still count correctly.
        for position, fault in enumerate(group):
            order = len(tasks)
            class_key = None
            if prune is not None:
                class_key = prune.group_key(fault)
                if class_key is not None:
                    class_key += (fault.invocation,)
            if position == 0:
                task = RunTask(f"probe:{function}", TaskKind.PROBE, fault,
                               function, order)
            elif class_key in representatives:
                task = RunTask(f"inferred:{function}:{position}",
                               TaskKind.INFERRED, fault, function, order,
                               representative=representatives[class_key])
                pruned.append(task)
            else:
                task = RunTask(f"release:{function}:{position}",
                               TaskKind.RELEASE, fault, function, order)
            tasks.append(task)
            if task.kind is not TaskKind.INFERRED:
                if class_key is not None:
                    representatives[class_key] = task
                scheduled.append(task)
        probes[function] = scheduled[0]
        releases[function] = tuple(scheduled[1:])
        if pruned:
            inferred[function] = tuple(pruned)
    return CampaignPlan(tasks, profile_task, probes, releases, inferred)
