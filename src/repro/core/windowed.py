"""Windowed injectors: sustained resource and I/O-path faults.

A :class:`WindowedInjector` is an interception hook like the parameter
:class:`~repro.core.injector.Injector`, but instead of corrupting one
invocation it *controls a window*: while the window defined by the
fault's :class:`~repro.core.faults.FaultWindow` is open, an effect is
applied — call overrides and argument rewrites directly from
``on_call``, allocator/CPU/transport state through the machine's
:class:`~repro.nt.pressure.PressureState`.

Window semantics (pinned by the trace test tier):

- ``calls`` windows count the **target role's** intercepted calls,
  1-based and machine-wide across process incarnations; the window
  opens before call ``start`` is processed and closes before call
  ``end`` — the fault is live for exactly ``[start, end)``.
- ``time`` windows are engine timers: open at sim-second ``start``,
  close at ``end``.

Opening emits a ``fault.activated`` trace event, closing a matching
``fault.deactivated``; a window still open at workload teardown is
closed by :func:`repro.core.runner.terminate_workload` (``finalize``),
which injection and load runs share, so the events always pair up.

A run counts as *activated* only when the fault impacted at least one
operation — the sustained-fault analog of the paper's rule that a
fault on a function the server never calls teaches nothing.
"""

from __future__ import annotations

from typing import Optional

from ..nt.errors import (
    ERROR_ACCESS_DENIED,
    ERROR_DISK_FULL,
    ERROR_GEN_FAILURE,
    ERROR_NO_SYSTEM_RESOURCES,
    INVALID_HANDLE_VALUE,
)
from ..nt.interception import CallHook, CallOverride
from ..nt.kernel32.signatures import REGISTRY, FunctionSig
from .faults import (
    FaultWindow,
    IO_ERROR_CHOICES,
    IO_OPS,
    IoFault,
    NET_IO_OPS,
    RESOURCE_KINDS,
    ResourceFault,
    SHORT_IO_OPS,
)

# Win32 mappings of the errno-style failure names (network errnos are
# transport-level conditions, not last-error codes).
ERRNO_TO_WIN32 = {
    "EIO": ERROR_GEN_FAILURE,
    "ENOSPC": ERROR_DISK_FULL,
    "EACCES": ERROR_ACCESS_DENIED,
}

# The byte-count parameter a SHORT fault truncates.
_COUNT_PARAM = {"ReadFile": 2, "WriteFile": 2}

# Exports that hand out handles: a full handle table fails these at
# the API boundary (modelled there — the table itself stays intact, so
# already-issued handles keep resolving, exactly as on real NT).
_HANDLE_PREFIXES = ("Create", "Open", "Duplicate", "FindFirstFile")
HANDLE_ALLOCATING_EXPORTS = frozenset(
    name for name in REGISTRY if name.startswith(_HANDLE_PREFIXES))

# Failure sentinels: file-search and file-open APIs signal failure with
# INVALID_HANDLE_VALUE; everything else returns NULL/FALSE.
_INVALID_HANDLE_SENTINELS = ("CreateFile", "FindFirstFile")


def _failure_sentinel(name: str) -> int:
    if name.startswith(_INVALID_HANDLE_SENTINELS):
        return INVALID_HANDLE_VALUE
    return 0


class WindowedInjector(CallHook):
    """Shared window bookkeeping for both sustained fault families."""

    def __init__(self, fault, target_role: str):
        self.fault = fault
        self.target_role = target_role
        self.machine = None
        self.active = False
        self.window_opened = False
        self.window_closed = False
        self.opened_at: Optional[float] = None
        self.closed_at: Optional[float] = None
        self.impacts = 0
        self.first_impact_at: Optional[float] = None
        # Error-diffusion accumulator for sub-1.0 severities/ratios:
        # deterministic, so serial and pooled runs stay bit-identical.
        self._acc = 0.0
        self._role_calls = 0

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def install(self, machine) -> None:
        """Attach to a machine: hook the interception layer, and for
        time windows schedule the open/close timers."""
        self.machine = machine
        super().install(machine)
        window = self.fault.window
        if window.unit == "time":
            machine.engine.schedule_at(window.start, self._open, None)
            machine.engine.schedule_at(window.end, self._close, None,
                                       "window")

    def finalize(self) -> None:
        """Close a window still open at workload teardown so every
        activation trace event has its deactivation pair."""
        if self.active:
            self._close(None, "run-end")

    # ------------------------------------------------------------------
    # Window transitions
    # ------------------------------------------------------------------
    def _open(self, call_index: Optional[int]) -> None:
        if self.window_opened:
            return
        self.window_opened = True
        self.active = True
        self.opened_at = self.machine.engine.now
        self._apply()
        self._emit("activated", call_index)

    def _close(self, call_index: Optional[int], reason: str) -> None:
        if not self.active:
            return
        self.active = False
        self.window_closed = True
        self.closed_at = self.machine.engine.now
        # A window never reopens: later calls need no scan.
        self.machine.interception.remove_hook(self)
        self._revert()
        self._emit("deactivated", call_index, impacts=self.impacts,
                   reason=reason)

    def _emit(self, name: str, call_index: Optional[int], **extra) -> None:
        tracer = self.machine.tracer
        if tracer is None or not tracer.outcome_enabled:
            return
        window = self.fault.window
        spec = self.fault.to_dict()
        del spec["window"]
        data = dict(mechanism=spec.pop("mechanism"),
                    function=self.fault.function,
                    window_unit=window.unit, window_start=window.start,
                    window_end=window.end, **spec, **extra)
        if call_index is not None:
            data["call_index"] = call_index
        tracer.emit(self.machine.engine.now, "fault", name, **data)

    # ------------------------------------------------------------------
    # Interception
    # ------------------------------------------------------------------
    def on_call(self, process, sig: FunctionSig, invocation: int,
                raw_args: tuple):
        if process.role != self.target_role:
            return None
        window = self.fault.window
        if window.unit == "calls":
            self._role_calls += 1
            index = self._role_calls
            if self.active and index >= window.end:
                self._close(index, "window")
            elif not self.window_opened and window.start <= index < window.end:
                self._open(index)
        if not self.active:
            return None
        return self._affect(process, sig, raw_args)

    # ------------------------------------------------------------------
    # Impact accounting (the collector's activation evidence)
    # ------------------------------------------------------------------
    def record_impact(self) -> None:
        self.impacts += 1
        if self.first_impact_at is None:
            self.first_impact_at = self.machine.engine.now

    def _diffuse(self, severity: float) -> bool:
        """Deterministic severity gate: of the first ``n`` candidate
        operations, exactly ``floor(n * severity)`` are affected."""
        self._acc += severity
        if self._acc >= 1.0 - 1e-9:
            self._acc -= 1.0
            return True
        return False

    @property
    def fired(self) -> bool:
        """Did the fault impact anything?  (What ``RunResult.activated``
        records — an untouched window is the uncalled-function case.)"""
        return self.impacts > 0

    @property
    def fired_at(self) -> Optional[float]:
        return self.first_impact_at

    @property
    def was_noop(self) -> bool:
        return False  # windowed effects are never value-preserving

    # ------------------------------------------------------------------
    # Family-specific behaviour
    # ------------------------------------------------------------------
    def _apply(self) -> None:
        """Window opened: publish effect state."""

    def _revert(self) -> None:
        """Window closed: withdraw effect state."""

    def _affect(self, process, sig, raw_args):
        """Per-call effect while the window is open (None: no-op)."""
        return None

    def __repr__(self) -> str:
        state = ("active" if self.active
                 else "closed" if self.window_closed else "armed")
        return (f"<{type(self).__name__} {self.fault!r} "
                f"on {self.target_role} {state} impacts={self.impacts}>")


class IoInjector(WindowedInjector):
    """Arms one :class:`IoFault` against a process role.

    File ops are intercepted in ``on_call`` — ERROR mode preempts the
    implementation with a :class:`CallOverride`, SHORT rewrites the
    byte-count argument word, DELAY stretches the call.  Transport ops
    publish the injector on ``machine.pressure.net`` and the fabric
    (:class:`repro.net.transport.Transport`) applies the effect where
    the connection state lives.
    """

    def _apply(self) -> None:
        if self.fault.op in NET_IO_OPS:
            self.machine.pressure.net = self

    def _revert(self) -> None:
        if self.machine.pressure.net is self:
            self.machine.pressure.net = None

    # ------------------------------------------------------------------
    # Spec fields the transport fabric reads off the published injector.
    @property
    def mode(self) -> str:
        return self.fault.mode

    @property
    def value(self):
        return self.fault.value

    def affects_net(self, op: str, server_role: Optional[str]) -> bool:
        """Transport-side predicate: does this fault degrade ``op`` on
        a connection/listener whose server side is ``server_role``?"""
        return (self.active and self.fault.op == op
                and server_role == self.target_role)

    def _affect(self, process, sig, raw_args):
        fault = self.fault
        if sig.name != fault.op:  # net ops never match an export name
            return None
        mode = fault.mode
        if mode == "error":
            self.record_impact()
            return CallOverride(result=_failure_sentinel(fault.op),
                                last_error=ERRNO_TO_WIN32[fault.value])
        if mode == "short":
            index = _COUNT_PARAM[fault.op]
            original = raw_args[index] & 0xFFFFFFFF
            shortened = int(original * fault.value)
            if shortened == original:
                return None  # nothing left to truncate
            self.record_impact()
            mutated = list(raw_args)
            mutated[index] = shortened
            return tuple(mutated)
        # delay: the call itself proceeds, late
        self.record_impact()
        return CallOverride(skip=False, delay=fault.value)


class ResourceInjector(WindowedInjector):
    """Arms one :class:`ResourceFault` against a process role.

    Memory pressure and the CPU tax publish the injector on the
    machine's :class:`~repro.nt.pressure.PressureState` (the allocator
    and ``ctx.compute`` consult it inline); handle-table exhaustion is
    applied here at the call boundary, failing handle-allocating
    exports with ``ERROR_NO_SYSTEM_RESOURCES``.
    """

    def _apply(self) -> None:
        pressure = self.machine.pressure
        if self.fault.resource == "memory":
            pressure.memory = self
        elif self.fault.resource == "cpu":
            pressure.cpu = self

    def _revert(self) -> None:
        pressure = self.machine.pressure
        if pressure.memory is self:
            pressure.memory = None
        if pressure.cpu is self:
            pressure.cpu = None

    # ------------------------------------------------------------------
    # PressureState callbacks
    # ------------------------------------------------------------------
    def consume(self, role: str) -> bool:
        """Allocator gate: True when this allocation must fail."""
        if not self.active or role != self.target_role:
            return False
        if not self._diffuse(self.fault.severity):
            return False
        self.record_impact()
        return True

    def tax(self, role: str) -> float:
        """CPU-time multiplier for one compute slice by ``role``."""
        if not self.active or role != self.target_role:
            return 1.0
        self.record_impact()
        return self.fault.severity

    # ------------------------------------------------------------------
    def _affect(self, process, sig, raw_args):
        if self.fault.resource != "handles":
            return None
        if sig.name not in HANDLE_ALLOCATING_EXPORTS:
            return None
        if not self._diffuse(self.fault.severity):
            return None
        self.record_impact()
        return CallOverride(result=_failure_sentinel(sig.name),
                            last_error=ERROR_NO_SYSTEM_RESOURCES)


# ----------------------------------------------------------------------
# Default fault spaces
# ----------------------------------------------------------------------
DEFAULT_WINDOWS = (FaultWindow("calls", 1, 100),
                   FaultWindow("time", 5.0, 60.0))
DEFAULT_SHORT_RATIO = 0.5
DEFAULT_IO_DELAY = 1.0
DEFAULT_SEVERITIES = {"memory": (1.0, 0.5),
                      "handles": (1.0, 0.5),
                      "cpu": (8.0, 3.0)}


def generate_io_fault_list(ops=None, windows=None) -> list[IoFault]:
    """Enumerate the I/O fault space: per op and window, every sensible
    errno, then a short-I/O ratio where the op has a byte count, then a
    per-call delay.  Order is canonical — the planner and the census
    rely on it."""
    ops = tuple(ops) if ops is not None else IO_OPS
    windows = tuple(windows) if windows is not None else DEFAULT_WINDOWS
    faults = []
    for op in ops:
        for window in windows:
            for errno in IO_ERROR_CHOICES[op]:
                faults.append(IoFault(op, "error", errno, window))
            if op in SHORT_IO_OPS:
                faults.append(IoFault(op, "short", DEFAULT_SHORT_RATIO,
                                      window))
            faults.append(IoFault(op, "delay", DEFAULT_IO_DELAY, window))
    return faults


def generate_resource_fault_list(resources=None, severities=None,
                                 windows=None) -> list[ResourceFault]:
    """Enumerate the resource fault space: per resource and window,
    every default severity (full exhaustion plus a partial tier)."""
    resources = tuple(resources) if resources is not None else RESOURCE_KINDS
    windows = tuple(windows) if windows is not None else DEFAULT_WINDOWS
    table = severities if severities is not None else DEFAULT_SEVERITIES
    faults = []
    for resource in resources:
        for window in windows:
            for severity in table[resource]:
                faults.append(ResourceFault(resource, severity, window))
    return faults
