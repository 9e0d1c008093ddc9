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

from ..net.transport import Transport
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
                 keep_full_trace: bool = True, scm_lock_enabled: bool = True,
                 tracer=None):
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
        self.interception = InterceptionLayer(keep_full_trace=keep_full_trace)
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

    def shutdown(self) -> None:
        """Kill all processes (end-of-run teardown)."""
        self.processes.terminate_all()

    def check_connection_hygiene(self) -> None:
        """Raise if any client finished a run while leaking connections.

        Leaks are recorded by the transport the moment a process exits
        voluntarily with an unclosed client-side connection; this check
        surfaces them after the run so a sloppy retry path (the original
        HttpClient bug) fails loudly instead of silently accumulating
        half-open connections across a loaded campaign.
        """
        from ..net.transport import ConnectionLeakError

        if self.transport.client_leaks:
            raise ConnectionLeakError(list(self.transport.client_leaks))

    def __repr__(self) -> str:
        return (f"<Machine seed={self.seed} {self.cpu_mhz}MHz "
                f"t={self.engine.now:.3f}>")
