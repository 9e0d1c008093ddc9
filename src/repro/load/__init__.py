"""Concurrent multi-client load workloads (Figure 4 at scale).

``repro.load`` drives N simulated client processes — each wrapping the
workload's real synthetic client — against Apache/IIS/SQL Server,
optionally under fault injection, with closed-loop (fixed population,
think time) or open-loop (fixed arrival rate) arrivals.  Importing
this package registers the load-result store codec, so run stores
containing load entries deserialize correctly.
"""

from .campaign import (
    LoadTask,
    plan_load_tasks,
    run_load_tasks,
)
from .client import LoadClient
from .result import ClientStats, LoadRunResult
from .runner import execute_load_run
from .spec import ArrivalMode, LoadSpec

__all__ = [
    "ArrivalMode",
    "ClientStats",
    "LoadClient",
    "LoadRunResult",
    "LoadSpec",
    "LoadTask",
    "execute_load_run",
    "plan_load_tasks",
    "run_load_tasks",
]
