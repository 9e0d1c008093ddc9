"""The simulated NT machine: one bootable box per fault-injection run.

Composes the event engine, address space, handle table, filesystem,
interception layer, process manager, SCM, event log and network fabric.
A fresh ``Machine`` is built for every fault-injection run, exactly as
DTS restarts the workload programs for every injected fault.

The paper's testbed was a 100 MHz Pentium (with a 400 MHz Pentium II as
a secondary machine); ``cpu_mhz`` scales all modelled CPU-bound service
times accordingly.
"""

from __future__ import annotations

from typing import Callable

from ..net.transport import ConnectionLeakError, Transport
from ..sim import Engine, RandomStreams
from .eventlog import EventLog
from .filesystem import FileSystem
from .handles import HandleTable
from .interception import InterceptionLayer
from .memory import AddressSpace
from .pressure import PressureState
from .process_manager import NTProcess, ProcessManager
from .scm import ServiceControlManager

DEFAULT_CPU_MHZ = 100
_FIRST_PID = 96
_PID_STRIDE = 4


class Machine:
    """One simulated Windows NT 4.0 Enterprise Server box."""

    def __init__(self, seed: int = 0, cpu_mhz: int = DEFAULT_CPU_MHZ,
                 scm_lock_enabled: bool = True, tracer=None):
        self.seed = seed
        self.cpu_mhz = cpu_mhz
        # The structured run tracer (repro.trace.Tracer), or None when
        # tracing is off — every subsystem gates on that None test.
        self.tracer = tracer
        self.engine = Engine(tracer=tracer)
        self.rng = RandomStreams(seed)
        self.address_space = AddressSpace()
        self.handles = HandleTable()
        self.fs = FileSystem()
        self.interception = InterceptionLayer()
        self.processes = ProcessManager(self)
        self.scm = ServiceControlManager(self, lock_enabled=scm_lock_enabled)
        self.eventlog = EventLog()
        self.transport = Transport(self)
        # Sustained resource/I-O fault state (repro.nt.pressure); the
        # allocator, CPU model and transport consult it inline.
        self.pressure = PressureState()
        self.base_environment: dict[str, str] = {
            "SystemRoot": "C:\\WINNT",
            "COMPUTERNAME": "DTSTARGET",
            "OS": "Windows_NT",
            "PROCESSOR_ARCHITECTURE": "x86",
        }
        self.named_objects: dict[str, object] = {}
        self.loaded_modules: dict[str, object] = {}
        self.debug_log: list[tuple[float, int, str]] = []
        self._pid_next = _FIRST_PID
        self._exit_listeners: list[Callable[[NTProcess], None]] = []

    # ------------------------------------------------------------------
    # Derived properties
    # ------------------------------------------------------------------
    @property
    def cpu_scale(self) -> float:
        """Multiplier applied to CPU-bound service times.

        Calibrated so the paper's primary 100 MHz machine is 1.0; the
        400 MHz Pentium II runs the same work four times faster.
        """
        return DEFAULT_CPU_MHZ / self.cpu_mhz

    @property
    def now(self) -> float:
        return self.engine.now

    # ------------------------------------------------------------------
    # Process integration
    # ------------------------------------------------------------------
    def allocate_pid(self) -> int:
        pid = self._pid_next
        self._pid_next += _PID_STRIDE
        return pid

    def add_exit_listener(self, listener: Callable[[NTProcess], None]) -> None:
        """Register a callback invoked whenever any process exits."""
        self._exit_listeners.append(listener)

    def on_process_exit(self, process: NTProcess) -> None:
        """Fan out a process death to the subsystems that observe it."""
        self.transport.on_process_exit(process)
        for listener in list(self._exit_listeners):
            listener(process)

    # ------------------------------------------------------------------
    # Run control
    # ------------------------------------------------------------------
    def run(self, until: float) -> float:
        """Advance the machine's clock (convenience for tests/harness)."""
        return self.engine.run(until=until)

    def run_while(self, pending: Callable[[], bool], deadline: float,
                  step: float) -> float:
        """Poll the machine until ``pending()`` is false or the clock
        reaches ``deadline``; returns the final clock value.

        The runners' one polling loop.  It behaves exactly like

            while now < deadline and pending():
                run(until=min(now + step, deadline))

        — same boundaries, same arithmetic, so the clock and the events
        fired are identical — but it calls :meth:`Engine.run` only for
        a boundary at or after the next event.  ``pending()`` must
        depend on machine state alone: with no event between two
        boundaries it cannot change, so skipping the idle boundaries
        skips nothing observable.  With nothing left to fire the clock
        goes straight to ``deadline``.
        """
        engine = self.engine
        now = engine.now
        while now < deadline and pending():
            next_time = engine.next_time()
            if next_time is None:
                return engine.run(until=deadline)
            boundary = min(now + step, deadline)
            while boundary < next_time and boundary < deadline:
                boundary = min(boundary + step, deadline)
            now = engine.run(until=boundary)
        return now

    def shutdown(self) -> None:
        """End-of-run teardown: kill all processes, then break every
        link that would keep the dead machine cyclic, so refcounting
        frees the whole run the moment its last reference goes and the
        cyclic collector never has to.  Nothing may run on the machine
        afterwards; what a caller reads of it (the transport's leak
        list, a process's exit code) stays readable.

        The links: pending timers (each holds the engine and whatever
        it would have woken), each process's upward links (see
        :meth:`NTProcess.release`), the call hooks — both the
        every-call set and the export-keyed table, since a hook may hold
        the machine (the sustained-fault injectors) and a parameter
        injector that never fired is still filed under its export —, and
        the subsystems' own ``machine`` attributes.
        """
        self.processes.terminate_all()
        self.engine.clear()
        for process in self.processes.processes:
            process.release()
        self.interception.clear_hooks()
        self.processes.machine = None
        self.scm.machine = None
        self.transport.machine = None

    def check_connection_hygiene(self) -> None:
        """Raise if any client finished a run while leaking connections.

        Leaks are recorded by the transport the moment a process exits
        voluntarily with an unclosed client-side connection; this check
        surfaces them after the run so a sloppy retry path (the original
        HttpClient bug) fails loudly instead of silently accumulating
        half-open connections across a loaded campaign.
        """
        if self.transport.client_leaks:
            raise ConnectionLeakError(list(self.transport.client_leaks))

    def __repr__(self) -> str:
        return (f"<Machine seed={self.seed} {self.cpu_mhz}MHz "
                f"t={self.engine.now:.3f}>")
