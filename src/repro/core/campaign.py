"""The experiment flow of Figure 1.

An *experiment* is a series of *workload sets*; a workload set runs the
full fault list against one (workload, middleware) configuration:

    foreach workload → foreach function → foreach parameter →
    foreach iteration → foreach fault type → one fault-injection run

with the paper's activation shortcut: *"if an injected function is not
called, all other injections for that function will be skipped because
it is assumed that the function will also not be called if the server
program is rerun for the next fault."*  A fault-free profiling run
first discovers the called-function set (this is also how Table 1's
counts are produced), and per-function activation is still verified
during injection runs.

:class:`Campaign` is a facade over three layers: :mod:`repro.core.plan`
turns the fault list into the schedule — profile task, then per
function a probe, its releases and its inferred members (the activation
shortcut becomes probe-gated waves) — :mod:`repro.core.exec` walks it
on a serial or process-pool backend, and
:mod:`repro.core.store` checkpoints completed runs so campaigns resume
and share results across figures.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .collector import RunResult
from .exec import ExecutionBackend, PlanExecution, SerialBackend, run_plan
from .faults import DEFAULT_FAULT_TYPES, FaultType, fault_family
from .outcomes import Outcome
from .plan import plan_campaign
from .runner import RunConfig, execute_run
from .store import config_fingerprint
from .workload import MiddlewareKind, WorkloadSpec, get_workload

# Observes the run ledger: called as each wave starts and on every
# advance of ``execution.done`` towards ``execution.total``.
ProgressCallback = Callable[[PlanExecution], None]


class WorkloadSetResult:
    """Results of one workload set (one chart column of Figure 2)."""

    def __init__(self, workload_name: str, middleware: MiddlewareKind,
                 watchd_version: int):
        self.workload_name = workload_name
        self.middleware = middleware
        self.watchd_version = watchd_version
        self.runs: list[RunResult] = []
        self.skipped_functions: set[str] = set()
        self.called_functions: set[str] = set()
        self.profile_run: Optional[RunResult] = None
        # Filled in by the campaign facade: how many runs were served
        # from the store vs freshly executed vs expanded from an
        # equivalence-class representative (--prune-equivalent).
        self.cached_count = 0
        self.executed_count = 0
        self.inferred_count = 0

    # ------------------------------------------------------------------
    @property
    def activated_runs(self) -> list[RunResult]:
        return [r for r in self.runs if r.counts_for_statistics]

    @property
    def activated_count(self) -> int:
        return len(self.activated_runs)

    def outcome_counts(self) -> dict[Outcome, int]:
        counts = {outcome: 0 for outcome in Outcome}
        for run in self.activated_runs:
            counts[run.outcome] += 1
        return counts

    def outcome_fractions(self) -> dict[Outcome, float]:
        total = self.activated_count
        if total == 0:
            return {outcome: 0.0 for outcome in Outcome}
        return {outcome: count / total
                for outcome, count in self.outcome_counts().items()}

    @property
    def failure_fraction(self) -> float:
        return self.outcome_fractions()[Outcome.FAILURE]

    @property
    def failure_coverage(self) -> float:
        """Section 5: unity minus the percentage of failure outcomes."""
        return 1.0 - self.failure_fraction

    def runs_for_fault_keys(self, keys: set) -> list[RunResult]:
        """Activated runs restricted to a fault subset (Table 2's
        common-fault comparison)."""
        return [r for r in self.activated_runs if r.fault.key in keys]

    def __repr__(self) -> str:
        return (f"<WorkloadSet {self.workload_name}/{self.middleware.value} "
                f"runs={len(self.runs)} activated={self.activated_count}>")


class Campaign:
    """Runs one workload set.

    ``backend`` selects the execution strategy (default
    :class:`~repro.core.exec.SerialBackend`); the caller owns it, so one
    process pool serves many campaigns.  ``store`` checkpoints completed
    runs for resume and cross-campaign caching.  ``progress`` observes
    the run ledger (:class:`~repro.core.exec.PlanExecution`) live.
    """

    def __init__(self, workload: WorkloadSpec | str,
                 middleware: MiddlewareKind = MiddlewareKind.NONE,
                 fault_types: Sequence[FaultType] = DEFAULT_FAULT_TYPES,
                 invocations: Sequence[int] = (1,),
                 functions: Optional[Sequence[str]] = None,
                 config: Optional[RunConfig] = None,
                 progress: Optional[ProgressCallback] = None,
                 mechanism: str = "parameter",
                 backend: Optional[ExecutionBackend] = None,
                 store=None,
                 prune=None):
        spec_type = fault_family(mechanism)
        self.workload = (get_workload(workload)
                         if isinstance(workload, str) else workload)
        self.middleware = middleware
        self.fault_types = tuple(fault_types)
        self.invocations = tuple(invocations)
        self.functions = list(functions) if functions is not None else None
        self.config = config or RunConfig()
        self.progress = progress
        self.spec_type = spec_type
        self.mechanism = spec_type.mechanism
        self.backend = backend or SerialBackend()
        self.store = store
        # An EquivalenceManifest (repro.lint.valueflow): statically
        # equivalent faults are scheduled once and expanded afterwards.
        self.prune = prune

    # ------------------------------------------------------------------
    def fault_list(self) -> list:
        """The campaign's fault space (what the planner consumes);
        ``functions`` restricts the family's own axis."""
        return self.spec_type.fault_space(self.functions, self.fault_types,
                                          self.invocations,
                                          self.workload.registry)

    def plan(self):
        """The wave schedule for this campaign."""
        return plan_campaign(self.fault_list(), prune=self.prune)

    def fingerprint(self) -> str:
        """The store key prefix for this campaign's configuration."""
        return config_fingerprint(self.workload.name, self.middleware,
                                  self.config, self.mechanism)

    # ------------------------------------------------------------------
    def run(self) -> WorkloadSetResult:
        result = WorkloadSetResult(self.workload.name, self.middleware,
                                   self.config.watchd_version)
        execution = run_plan(
            self.plan(), self.workload, self.middleware, self.config,
            self.fingerprint(), self.backend, store=self.store,
            progress=self.progress)
        result.profile_run = execution.profile_run
        result.runs = execution.runs
        result.skipped_functions = execution.skipped_functions
        result.cached_count = execution.cached_count
        result.executed_count = execution.executed_count
        result.inferred_count = execution.inferred_count
        result.called_functions = set(result.profile_run.called_functions)
        for run in result.runs:
            result.called_functions |= run.called_functions
        return result


def profile_workload(workload_name: str, middleware: MiddlewareKind,
                     config: Optional[RunConfig] = None) -> set[str]:
    """A single fault-free run returning the called-function set — the
    measurement behind Table 1."""
    config = config or RunConfig()
    run = execute_run(get_workload(workload_name), middleware, fault=None,
                      config=config)
    return set(run.called_functions)
