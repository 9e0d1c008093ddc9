"""Load-run results and their store serialization.

A :class:`LoadRunResult` is the load-generator's analogue of
:class:`~repro.core.collector.RunResult`: per-client request records
with timing, plus run-level facts (server up, duration, engine event
count).  It registers a store codec so load runs checkpoint into the
same JSONL run stores as injection runs, keyed
``load:<fault key>:rep<N>``.
"""

from __future__ import annotations

from typing import Optional

from ..clients.record import ClientRecord
from ..core.store import (
    client_record_from_dict,
    client_record_to_dict,
    fault_from_dict,
    fault_to_dict,
    register_result_codec,
)
from ..trace import TraceLevel
from .spec import ArrivalMode, LoadSpec


class ClientStats:
    """Everything one load client observed."""

    __slots__ = ("client_id", "arrived_at", "finished_at", "completed",
                 "cycles")

    def __init__(self, client_id: int, arrived_at: Optional[float],
                 finished_at: Optional[float], completed: bool,
                 cycles: list[ClientRecord]):
        self.client_id = client_id
        self.arrived_at = arrived_at
        self.finished_at = finished_at
        self.completed = completed
        self.cycles = cycles

    @property
    def requests(self):
        """All request records across cycles, in issue order."""
        return [request for cycle in self.cycles
                for request in cycle.requests]

    @property
    def latencies(self) -> list[float]:
        return [request.latency for request in self.requests
                if request.latency is not None]

    @property
    def succeeded_requests(self) -> int:
        return sum(1 for request in self.requests if request.succeeded)

    @property
    def total_retries(self) -> int:
        return sum(request.retries_used for request in self.requests)

    def __repr__(self) -> str:
        state = "done" if self.completed else "cut off"
        return (f"<ClientStats #{self.client_id} "
                f"{len(self.requests)} requests {state}>")


class LoadRunResult:
    """One completed load run (one repetition of a :class:`LoadSpec`)."""

    # Store/trace-CLI compatibility: load runs are *stored* untraced
    # (the codec below never serializes traces).  A traced in-memory
    # run (``RunConfig(trace_level=...)``) shadows these class defaults
    # with instance attributes.
    trace = ()
    trace_level = TraceLevel.OFF

    def __init__(self, spec: LoadSpec, rep: int, watchd_version: int,
                 server_came_up: bool, duration: float,
                 engine_events: int, clients: list[ClientStats],
                 fault_activated: bool = False, fault_noop: bool = False):
        self.spec = spec
        self.rep = rep
        self.watchd_version = watchd_version
        self.server_came_up = server_came_up
        self.duration = duration
        self.engine_events = engine_events
        self.clients = clients
        # Whether the armed fault's interception hook ever fired during
        # this run, and whether every firing was a no-op substitution
        # (injected value == the real one).  Always False for fault-free
        # load runs.
        self.fault_activated = fault_activated
        self.fault_noop = fault_noop

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def completed_clients(self) -> int:
        return sum(1 for client in self.clients if client.completed)

    @property
    def request_count(self) -> int:
        return sum(len(client.requests) for client in self.clients)

    @property
    def succeeded_requests(self) -> int:
        return sum(client.succeeded_requests for client in self.clients)

    @property
    def success_fraction(self) -> float:
        total = self.request_count
        return self.succeeded_requests / total if total else 0.0

    @property
    def total_retries(self) -> int:
        return sum(client.total_retries for client in self.clients)

    def all_latencies(self) -> list[float]:
        """Per-request latencies across all clients, in client order."""
        return [latency for client in self.clients
                for latency in client.latencies]

    def mean_latency(self) -> Optional[float]:
        latencies = self.all_latencies()
        return sum(latencies) / len(latencies) if latencies else None

    def __repr__(self) -> str:
        return (f"<LoadRunResult {self.spec.workload}"
                f"/{self.spec.middleware.value} clients={self.spec.clients} "
                f"rep={self.rep} ok={self.success_fraction:.0%}>")


# ----------------------------------------------------------------------
# Store codec
# ----------------------------------------------------------------------
def load_result_to_dict(result: LoadRunResult) -> dict:
    return {
        "spec": result.spec.to_dict(),
        "rep": result.rep,
        "watchd_version": result.watchd_version,
        "server_came_up": result.server_came_up,
        "duration": result.duration,
        "engine_events": result.engine_events,
        "fault_activated": result.fault_activated,
        "fault_noop": result.fault_noop,
        "clients": [
            {"client_id": client.client_id,
             "arrived_at": client.arrived_at,
             "finished_at": client.finished_at,
             "completed": client.completed,
             "cycles": [client_record_to_dict(cycle)
                        for cycle in client.cycles]}
            for client in result.clients
        ],
    }


def load_result_from_dict(data: dict) -> LoadRunResult:
    clients = [
        ClientStats(
            client_id=entry["client_id"],
            arrived_at=entry["arrived_at"],
            finished_at=entry["finished_at"],
            completed=entry["completed"],
            cycles=[client_record_from_dict(cycle)
                    for cycle in entry["cycles"]],
        )
        for entry in data["clients"]
    ]
    return LoadRunResult(
        spec=LoadSpec.from_dict(data["spec"]),
        rep=data["rep"],
        watchd_version=data["watchd_version"],
        server_came_up=data["server_came_up"],
        duration=data["duration"],
        engine_events=data["engine_events"],
        clients=clients,
        # Absent in stores written before activation tracking existed.
        fault_activated=data.get("fault_activated", False),
        fault_noop=data.get("fault_noop", False),
    )


register_result_codec("load", LoadRunResult,
                      load_result_to_dict, load_result_from_dict)

__all__ = [
    "ArrivalMode",
    "ClientStats",
    "LoadRunResult",
    "fault_from_dict",
    "fault_to_dict",
    "load_result_from_dict",
    "load_result_to_dict",
]
