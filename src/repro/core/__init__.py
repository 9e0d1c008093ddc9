"""The DTS (Dependability Test Suite) core — the paper's contribution.

Pipeline: a fault list (:mod:`faultlist`) enumerates the kernel32 fault
space; :mod:`plan` turns it into the probe/release schedule; an
execution backend (:mod:`exec`) runs each task through :mod:`runner`
with the :mod:`injector` armed; the :mod:`collector` classifies each
run into Section 3's :mod:`outcomes`; and :mod:`store` checkpoints
completed runs for resume and cross-campaign caching.  The
:mod:`campaign` facade drives the whole Figure-1 experiment flow.
"""

from .campaign import (
    Campaign,
    WorkloadSetResult,
    profile_workload,
)
from .collector import RunResult, count_restarts
from .exec import (
    ExecutionBackend,
    PlanExecution,
    ProcessPoolBackend,
    SerialBackend,
    run_plan,
)
from .plan import CampaignPlan, RunTask, TaskKind, plan_campaign
from .store import (
    RunStore,
    config_fingerprint,
    fault_key_str,
    run_result_from_dict,
    run_result_to_dict,
)
from .config import DtsConfig
from .faultlist import (
    dump_fault_list,
    fault_count,
    faults_by_function,
    generate_fault_list,
    parse_fault_list,
    read_fault_list_file,
    write_fault_list_file,
)
from .faults import DEFAULT_FAULT_TYPES, FaultSpec, FaultType, ReturnFaultSpec
from .injector import Injector
from .return_injector import ReturnInjector
from .outcomes import (
    ORDERED_OUTCOMES,
    FailureMode,
    Outcome,
    classify,
    classify_failure_mode,
)
from .runner import RunConfig, execute_run
from .workload import (
    APACHE1,
    APACHE2,
    IIS,
    SQL,
    WORKLOADS,
    MiddlewareKind,
    WorkloadSpec,
    get_workload,
)

__all__ = [
    "Campaign",
    "WorkloadSetResult",
    "profile_workload",
    "RunResult",
    "count_restarts",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "PlanExecution",
    "run_plan",
    "CampaignPlan",
    "RunTask",
    "TaskKind",
    "plan_campaign",
    "RunStore",
    "config_fingerprint",
    "fault_key_str",
    "run_result_to_dict",
    "run_result_from_dict",
    "DtsConfig",
    "FaultSpec",
    "FaultType",
    "DEFAULT_FAULT_TYPES",
    "generate_fault_list",
    "fault_count",
    "faults_by_function",
    "dump_fault_list",
    "parse_fault_list",
    "read_fault_list_file",
    "write_fault_list_file",
    "Injector",
    "ReturnFaultSpec",
    "ReturnInjector",
    "Outcome",
    "FailureMode",
    "ORDERED_OUTCOMES",
    "classify",
    "classify_failure_mode",
    "RunConfig",
    "execute_run",
    "MiddlewareKind",
    "WorkloadSpec",
    "WORKLOADS",
    "APACHE1",
    "APACHE2",
    "IIS",
    "SQL",
    "get_workload",
]
