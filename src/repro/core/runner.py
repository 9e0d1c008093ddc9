"""Execution of a single fault-injection run (the inner box of Fig. 1).

    Create fault param file → Prepare workload progs → Start server
    prog (fault is injected) → Wait for server to be up → Start client
    prog → Workload termination → Gather results

A fresh :class:`~repro.nt.machine.Machine` is booted per run; one fault
is armed against the workload's target role; the server is brought up
(directly or through middleware); the client runs to completion; the
workload is terminated gracefully (the DTS shutdown event) and then
reaped; and everything the data collector needs is gathered.

The boot (:func:`boot`) and the workload termination
(:func:`terminate_workload`) are the run lifecycle shared with
multi-client load runs (:mod:`repro.load.runner`); each run kind owns
only its client phase and its result assembly.
"""

from __future__ import annotations

import math
from typing import Optional

from ..nt.machine import Machine
from ..servers.apache import SHUTDOWN_EVENT
from ..sim import collector_paused, derive_seed
from ..trace import TraceLevel, Tracer
from .collector import RunResult, collect
from .faults import FaultSpec
from .workload import MiddlewareKind, WorkloadSpec

# Operational timeouts (virtual seconds), from the main config file in
# the real tool.
DEFAULT_SERVER_UP_TIMEOUT = 90.0
DEFAULT_CLIENT_TIMEOUT = 240.0
SHUTDOWN_GRACE = 3.0
# Virtual seconds per polling step (Machine.run_while) while the
# server comes up and while the client runs.
_POLL_STEP = 0.5
_CLIENT_STEP = 2.0


def check_integer(name: str, value, minimum: Optional[int] = None) -> int:
    """``value`` if it is an integer of at least ``minimum``; a boolean
    or a float is no integer."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_number(name: str, value, above: Optional[float] = None) -> float:
    """``value`` if it is a finite number greater than ``above``; a
    boolean is no number."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if above is not None and value <= above:
        raise ValueError(f"{name} must be > {above}, got {value}")
    return value


def _trace_level(value) -> TraceLevel:
    """A trace level, or its name in any case (a number names none)."""
    name = value.strip().upper() if isinstance(value, str) else None
    if not (isinstance(value, TraceLevel) or name in TraceLevel.__members__):
        raise ValueError(f"unknown trace_level {value!r}")
    return TraceLevel.parse(value)


class RunConfig:
    """Per-run operational parameters (the main configuration file).

    Every boundary's one description of them: fields declared once, as
    ``__slots__``, and values checked here but never converted, so
    every fingerprint stays as recorded."""

    __slots__ = ("base_seed", "server_up_timeout", "client_timeout",
                 "watchd_version", "cpu_mhz", "scm_lock_enabled",
                 "trace_level")

    def __init__(self, base_seed: int = 2000,
                 server_up_timeout: float = DEFAULT_SERVER_UP_TIMEOUT,
                 client_timeout: float = DEFAULT_CLIENT_TIMEOUT,
                 watchd_version: int = 3,
                 cpu_mhz: int = 100,
                 scm_lock_enabled: bool = True,
                 trace_level="off"):
        self.base_seed = check_integer("base_seed", base_seed)
        self.server_up_timeout = check_number(
            "server_up_timeout", server_up_timeout, above=0)
        self.client_timeout = check_number("client_timeout", client_timeout,
                                           above=0)
        if check_integer("watchd_version", watchd_version) not in (1, 2, 3):
            raise ValueError(
                f"watchd_version must be 1, 2 or 3, got {watchd_version}")
        self.watchd_version = watchd_version
        self.cpu_mhz = check_integer("cpu_mhz", cpu_mhz, minimum=1)
        self.scm_lock_enabled = scm_lock_enabled
        # Deliberately excluded from the store's config fingerprint:
        # tracing observes a run without influencing it, so results
        # recorded at different trace levels stay interchangeable.
        self.trace_level = _trace_level(trace_level)

    def seed_for(self, workload: WorkloadSpec, middleware: MiddlewareKind,
                 fault: Optional[FaultSpec]) -> int:
        parts = [workload.name, middleware.value, self.watchd_version]
        if fault is not None:
            parts.extend(fault.key)
        return derive_seed(self.base_seed, *parts)


def boot(workload: WorkloadSpec, middleware: MiddlewareKind, fault,
         config: RunConfig, seed: int):
    """Bring one run up to its client phase, for either run kind.

    Boots a fresh machine (traced at ``config.trace_level``), installs
    the workload, arms ``fault`` against its target role (None: no
    fault), deploys the server (optionally under middleware) and waits
    for it to listen.  Returns ``(machine, injector, server_came_up)``.
    """
    level = TraceLevel.parse(config.trace_level)
    tracer = Tracer(level) if level is not TraceLevel.OFF else None
    machine = Machine(seed=seed, cpu_mhz=config.cpu_mhz,
                      scm_lock_enabled=config.scm_lock_enabled,
                      tracer=tracer)
    if tracer is not None:
        tracer.emit(0.0, "run", "start", workload=workload.name,
                    middleware=middleware.value, seed=machine.seed,
                    watchd_version=config.watchd_version)
        if fault is not None:
            armed = {"function": fault.function, **fault.to_dict()}
            window = armed.pop("window", {})
            armed.update((f"window_{name}", value)
                         for name, value in window.items())
            tracer.emit(0.0, "fault", "armed", **armed)
    workload.setup(machine)

    injector = None
    if fault is not None:
        injector = fault.injector(workload.target_role, workload.registry)
        injector.install(machine)

    workload.deploy_middleware(machine, middleware,
                               watchd_version=config.watchd_version)

    machine.run_while(
        lambda: not machine.transport.is_listening(workload.port),
        config.server_up_timeout, _POLL_STEP)
    server_came_up = machine.transport.is_listening(workload.port)
    if tracer is not None:
        tracer.emit(machine.now, "run", "server-up", came_up=server_came_up)
    return machine, injector, server_came_up


def terminate_workload(machine: Machine, injector, clients=()) -> None:
    """Tear the workload down the way DTS does, for either run kind.

    Monitoring stops first, so the middleware does not misinterpret the
    shutdown as a failure; client processes in ``clients`` still
    running are cut off (exit 1: cut off, not leakers); the DTS
    shutdown event lets well-behaved servers exit their normal path
    (this is also what completes the Table 1 call profile of the Apache
    master); and a sustained-fault window still open is closed so its
    activation trace event always has a deactivation pair.
    """
    for role in ("mscs", "watchd"):
        for process in machine.processes.processes_with_role(role):
            if process.alive:
                process.terminate(exit_code=0)
    for process in clients:
        if process.alive:
            process.terminate(exit_code=1)
    event = machine.named_objects.get(SHUTDOWN_EVENT)
    if event is not None and hasattr(event, "set"):
        event.set()
        machine.run(until=machine.now + SHUTDOWN_GRACE)
    if injector is not None:
        injector.finalize()


def execute_run(workload: WorkloadSpec, middleware: MiddlewareKind,
                fault: Optional[FaultSpec],
                config: Optional[RunConfig] = None) -> RunResult:
    """Run one fault injection (or a fault-free profiling run when
    ``fault`` is None) and return the collected result.

    The cyclic collector is paused for the whole run (see
    :class:`repro.sim.collector_paused`).  The pause encloses the call
    to the run's body rather than a block inside it, so the frame that
    holds the machine is gone before collection resumes: a collection
    triggered while that frame's locals are being released would find
    the machine graph still reachable and promote it to an older
    generation.
    """
    with collector_paused():
        return _execute_run(workload, middleware, fault, config)


def _execute_run(workload: WorkloadSpec, middleware: MiddlewareKind,
                 fault: Optional[FaultSpec],
                 config: Optional[RunConfig]) -> RunResult:
    config = config or RunConfig()
    machine, injector, server_came_up = boot(
        workload, middleware, fault, config,
        config.seed_for(workload, middleware, fault))
    tracer = machine.tracer

    # --- Run the client -------------------------------------------------
    client = workload.make_client()
    if tracer is not None:
        tracer.emit(machine.now, "run", "client-start")
    client_process = machine.processes.spawn(client, role="dts-client")
    machine.run_while(lambda: client_process.alive,
                      machine.now + config.client_timeout, _CLIENT_STEP)
    if tracer is not None:
        tracer.emit(machine.now, "run", "client-end",
                    completed=not client_process.alive)

    terminate_workload(machine, injector)
    result = collect(
        machine=machine,
        workload=workload,
        middleware=middleware,
        fault=fault,
        injector=injector,
        client=client,
        server_came_up=server_came_up,
        watchd_version=config.watchd_version,
    )
    if tracer is not None:
        tracer.emit(machine.now, "run", "end",
                    outcome=result.outcome.value,
                    failure_mode=result.failure_mode.value,
                    restarts=result.restarts_detected,
                    activated=result.activated)
        result.trace = tuple(tracer.events)
        result.trace_level = tracer.level
    # A client that finished on its own while leaving connections open
    # is a harness bug (the HttpClient retry-path leak), not an
    # injection outcome — fail the run loudly.
    machine.check_connection_hygiene()
    machine.shutdown()
    return result
