"""Execution of a single multi-client load run.

The shape mirrors :func:`repro.core.runner.execute_run` — boot a fresh
machine, arm the fault, deploy the server (optionally under
middleware), wait for it to listen — but instead of one synthetic
client the run spawns a whole client population with staggered
arrivals and lets it drain (or hit the horizon).  Shutdown follows the
same discipline: monitoring stops first, the DTS shutdown event is
signalled, and connection hygiene is asserted before the machine is
torn down, so a retry path that leaks connections fails a load run
loudly at any client count.
"""

from __future__ import annotations

from typing import Optional

from ..nt.machine import Machine
from ..core.runner import _POLL_STEP, RunConfig, _graceful_shutdown, arm_fault
from ..core.workload import WORKLOADS, WorkloadSpec
from ..sim import collector_paused
from ..trace import TraceLevel, Tracer
from .client import LoadClient
from .result import ClientStats, LoadRunResult
from .spec import LoadSpec

# Virtual seconds per engine burst while the client population drains.
# Coarser than execute_run's 2.0s: with 100 clients in flight the
# alive-scan between bursts is the overhead worth amortizing.
_DRAIN_STEP = 5.0


def execute_load_run(spec: LoadSpec, rep: int = 0,
                     config: Optional[RunConfig] = None) -> LoadRunResult:
    """Run one repetition of a load spec and return the result.

    The collector pause spans the whole run, for the reason given in
    :func:`repro.core.runner.execute_run`.
    """
    with collector_paused():
        return _execute_load_run(spec, rep, config)


def _execute_load_run(spec: LoadSpec, rep: int,
                      config: Optional[RunConfig]) -> LoadRunResult:
    config = config or RunConfig()
    workload = resolve_workload(spec.workload)
    # Same tracing contract as execute_run: a run traced at any level
    # behaves identically to an untraced one (the differential engine
    # oracle leans on full-level load-run traces).
    level = TraceLevel.parse(config.trace_level)
    tracer = Tracer(level) if level is not TraceLevel.OFF else None
    machine = Machine(
        seed=spec.seed(config.base_seed, config.watchd_version, rep),
        cpu_mhz=config.cpu_mhz,
        scm_lock_enabled=config.scm_lock_enabled,
        tracer=tracer)
    workload.setup(machine)

    injector = arm_fault(machine, workload, spec.fault)
    workload.deploy_middleware(machine, spec.middleware,
                               watchd_version=config.watchd_version)

    # --- Wait for the server to be up ---------------------------------
    machine.run_while(
        lambda: not machine.transport.is_listening(workload.port),
        config.server_up_timeout, _POLL_STEP)
    server_came_up = machine.transport.is_listening(workload.port)

    # --- Release the client population ---------------------------------
    # All clients are spawned up front with their arrival offset baked
    # into the program (a Sleep), so arrivals cost no engine polling.
    load_clients = [
        LoadClient(client_id=index,
                   factory=workload.make_client,
                   cycles=spec.cycles_for(index),
                   think_time=spec.think_time,
                   start_delay=spec.arrival_time(index))
        for index in range(spec.clients)
    ]
    processes = [machine.processes.spawn(client, role="load-client")
                 for client in load_clients]

    machine.run_while(lambda: any(process.alive for process in processes),
                      machine.now + spec.run_horizon(config.client_timeout),
                      _DRAIN_STEP)

    # --- Workload termination -------------------------------------------
    for role in ("mscs", "watchd"):
        for process in machine.processes.processes_with_role(role):
            if process.alive:
                process.terminate(exit_code=0)
    # Clients still running at the horizon are cut off, not leakers.
    for process in processes:
        if process.alive:
            process.terminate(exit_code=1)
    _graceful_shutdown(machine)

    duration = machine.now
    engine_events = machine.engine.events_processed
    clients = [
        ClientStats(client_id=client.client_id,
                    arrived_at=client.arrived_at,
                    finished_at=client.finished_at,
                    completed=client.completed,
                    cycles=list(client.records))
        for client in load_clients
    ]
    machine.check_connection_hygiene()
    machine.shutdown()
    result = LoadRunResult(spec=spec, rep=rep,
                         watchd_version=config.watchd_version,
                         server_came_up=server_came_up,
                         duration=duration,
                         engine_events=engine_events,
                         clients=clients,
                         fault_activated=injector.fired
                         if injector is not None else False,
                         fault_noop=injector.was_noop
                         if injector is not None else False)
    if tracer is not None:
        result.trace = tuple(tracer.events)
        result.trace_level = level
    return result


def resolve_workload(name: str) -> WorkloadSpec:
    """Find a workload by registry name (load specs store the name so
    they can cross process-pool boundaries)."""
    try:
        return WORKLOADS[name]
    except KeyError:
        known = ", ".join(sorted(WORKLOADS))
        raise KeyError(f"unknown workload {name!r}; known: {known}") from None
