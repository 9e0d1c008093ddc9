"""The DTS data collector.

Implements Section 3's result gathering: outcomes are *client-oriented*
(derived from the client program's per-attempt evidence) except for
server-restart detection, which — exactly as the paper describes — is
middleware-specific: MSCS restarts are read from the NT event log
(source ``ClusSvc``), watchd restarts from watchd's own log file.
"""

from __future__ import annotations

from typing import Optional

from ..clients.record import ClientRecord
from ..middleware.mscs import EVENT_ID_RESTART, EVENT_SOURCE as MSCS_SOURCE
from ..nt.machine import Machine
from ..trace import TraceLevel
from .faults import FaultSpec
from .outcomes import FailureMode, Outcome, classify, classify_failure_mode
from .workload import MiddlewareKind, WorkloadSpec


class RunResult:
    """Everything DTS records about one fault-injection run."""

    def __init__(self, workload_name: str, middleware: MiddlewareKind,
                 fault: Optional[FaultSpec], activated: bool,
                 activated_as_noop: bool,
                 outcome: Outcome, failure_mode: FailureMode,
                 response_time: Optional[float], restarts_detected: int,
                 retries_used: int, server_came_up: bool,
                 called_functions: set[str], client_record: ClientRecord,
                 watchd_version: int,
                 trace: tuple = (),
                 trace_level: TraceLevel = TraceLevel.OFF,
                 inferred: bool = False):
        self.workload_name = workload_name
        self.middleware = middleware
        self.fault = fault
        self.activated = activated
        self.activated_as_noop = activated_as_noop
        self.outcome = outcome
        self.failure_mode = failure_mode
        self.response_time = response_time
        self.restarts_detected = restarts_detected
        self.retries_used = retries_used
        self.server_came_up = server_came_up
        self.called_functions = called_functions
        self.client_record = client_record
        self.watchd_version = watchd_version
        # The structured event trace (tuple of TraceEvent), empty when
        # the run was executed with tracing off.
        self.trace = trace
        self.trace_level = TraceLevel.parse(trace_level)
        # True for results expanded from an equivalence-class
        # representative instead of an executed run (--prune-equivalent).
        self.inferred = inferred

    @property
    def counts_for_statistics(self) -> bool:
        """Only *activated* faults enter the outcome percentages."""
        return self.fault is not None and self.activated

    def __repr__(self) -> str:
        fault = self.fault or "no-fault"
        return (f"<Run {self.workload_name}/{self.middleware.value} "
                f"{fault} -> {self.outcome.value}>")


def infer_result(representative: RunResult, fault: FaultSpec) -> RunResult:
    """Clone a class representative's outcome for an equivalent fault.

    Used by the pruned planner (``--prune-equivalent``): the static
    equivalence class asserts that ``fault`` would have produced the
    same outcome as the representative's fault, so the Figure-2 census
    can be expanded back to the full grid without executing the run.
    The event trace is not copied — it belongs to the executed run.
    """
    return RunResult(
        workload_name=representative.workload_name,
        middleware=representative.middleware,
        fault=fault,
        activated=representative.activated,
        activated_as_noop=representative.activated_as_noop,
        outcome=representative.outcome,
        failure_mode=representative.failure_mode,
        response_time=representative.response_time,
        restarts_detected=representative.restarts_detected,
        retries_used=representative.retries_used,
        server_came_up=representative.server_came_up,
        called_functions=set(representative.called_functions),
        client_record=representative.client_record,
        watchd_version=representative.watchd_version,
        inferred=True,
    )


def count_restarts(machine: Machine, middleware: MiddlewareKind,
                   until: Optional[float] = None) -> int:
    """Middleware-specific restart evidence (Section 3).

    ``until`` bounds the evidence to the workload's lifetime, so the
    middleware reacting to the *termination* of the workload at the end
    of the run is not misread as an injection-induced restart.

    This is the collector's one restart count, read from the logs at
    every trace level.  Every middleware (NT watchd, MSCS and the Linux
    watchd) emits ``mw.restart`` at exactly each site that writes this
    evidence, so a traced run's
    :func:`repro.trace.count_restarts_from_trace` gives the same number.
    """
    if until is None:
        until = float("inf")
    if middleware is MiddlewareKind.MSCS:
        return sum(
            1 for record in machine.eventlog.query(source=MSCS_SOURCE)
            if record.event_id == EVENT_ID_RESTART and record.time <= until
        )
    if middleware is MiddlewareKind.WATCHD:
        log = getattr(machine, "watchd_log", [])
        return sum(1 for entry in log
                   if "restarting" in entry.message and entry.time <= until)
    return 0


def collect(machine: Machine, workload: WorkloadSpec,
            middleware: MiddlewareKind, fault: Optional[FaultSpec],
            injector, client, server_came_up: bool,
            watchd_version: int) -> RunResult:
    """Assemble a :class:`RunResult` from a finished run's artifacts."""
    record: ClientRecord = client.record
    restarts = count_restarts(machine, middleware, until=record.finished_at)
    retries = record.total_retries

    all_ok = record.completed and record.all_succeeded
    outcome = classify(all_ok, restarts, retries)
    failure_mode = classify_failure_mode(outcome, record.any_response_received)

    # Response time: "the total time for the client and server programs
    # to complete" — measured from workload start (t=0) to client end,
    # so middleware recovery delays are visible, as in Figure 4.  Runs
    # whose client never finished have no finite response time.
    response_time = record.finished_at if record.completed else None

    activated = injector.fired if injector is not None else False
    noop = injector.was_noop if injector is not None else False
    return RunResult(
        workload_name=workload.name,
        middleware=middleware,
        fault=fault,
        activated=activated,
        activated_as_noop=noop,
        outcome=outcome,
        failure_mode=failure_mode,
        response_time=response_time,
        restarts_detected=restarts,
        retries_used=retries,
        server_came_up=server_came_up,
        called_functions=machine.interception.called_functions(
            workload.target_role),
        client_record=record,
        watchd_version=watchd_version,
    )
