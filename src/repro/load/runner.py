"""Execution of a single multi-client load run.

A load run has the lifecycle of an injection run: it boots, arms the
fault and brings the server up with :func:`repro.core.runner.boot`, and
tears the workload down with :func:`repro.core.runner.terminate_workload`
(monitoring stops first, clients still running at the horizon are cut
off, the DTS shutdown event is signalled, an open fault window is
closed).  Only the client phase is its own: instead of one synthetic
client it spawns a whole client population with staggered arrivals and
lets it drain (or hit the horizon).  Connection hygiene is asserted
before the machine is torn down, so a retry path that leaks connections
fails a load run loudly at any client count.
"""

from __future__ import annotations

from typing import Optional

from ..core.runner import RunConfig, boot, terminate_workload
from ..core.workload import get_workload
from ..sim import collector_paused
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
    workload = get_workload(spec.workload)
    machine, injector, server_came_up = boot(
        workload, spec.middleware, spec.fault, config,
        spec.seed(config.base_seed, config.watchd_version, rep))

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

    terminate_workload(machine, injector, processes)
    result = LoadRunResult(spec=spec, rep=rep,
                           watchd_version=config.watchd_version,
                           server_came_up=server_came_up,
                           duration=machine.now,
                           engine_events=machine.engine.events_processed,
                           clients=[
                               ClientStats(client_id=client.client_id,
                                           arrived_at=client.arrived_at,
                                           finished_at=client.finished_at,
                                           completed=client.completed,
                                           cycles=list(client.records))
                               for client in load_clients],
                           fault_activated=injector is not None
                           and injector.fired,
                           fault_noop=injector is not None
                           and injector.was_noop)
    tracer = machine.tracer
    machine.check_connection_hygiene()
    machine.shutdown()
    if tracer is not None:
        result.trace = tuple(tracer.events)
        result.trace_level = tracer.level
    return result
