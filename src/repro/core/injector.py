"""The fault injector: an interception hook that corrupts one call.

Mirrors the paper's mechanism: the tool targets *one process* (role)
per workload, and corrupts the chosen parameter of the chosen function
at the chosen invocation, once per run.  Everything it observes is kept
for the data collector: whether the fault was activated, when, and in
which process.
"""

from __future__ import annotations

import difflib
from typing import Optional

from ..nt.interception import CallHook
from ..nt.kernel32.signatures import REGISTRY, FunctionSig
from .faults import FaultSpec


def _registry_label(registry) -> str:
    if registry is REGISTRY:
        return "KERNEL32"
    try:
        from ..posix.libc import LIBC_REGISTRY
        if registry is LIBC_REGISTRY:
            return "libc"
    except ImportError:  # pragma: no cover
        pass
    return f"custom ({len(registry)} exports)"


def lookup_export(registry, function: str) -> FunctionSig:
    """``registry[function]``; an unknown name is a ValueError naming
    the registry, with a close-match hint."""
    sig = registry.get(function)
    if sig is None:
        message = (f"unknown export {function!r} in the "
                   f"{_registry_label(registry)} registry")
        close = difflib.get_close_matches(function, registry, n=1)
        if close:
            message += f" (did you mean {close[0]!r}?)"
        raise ValueError(message)
    return sig


class Injector(CallHook):
    """Arms a single :class:`FaultSpec` against one process role.

    ``registry`` defaults to the KERNEL32 export table; the Linux port
    passes the libc table instead — the injector itself is one of the
    components the paper's port did *not* have to rewrite.

    It watches only the fault's function (``exports``), and unhooks
    itself once it fires, so calls of other functions, and every call
    after the fault, never reach it.
    """

    def __init__(self, fault: FaultSpec, target_role: str, registry=None):
        sig = lookup_export(registry if registry is not None else REGISTRY,
                            fault.function)
        if fault.param_index >= sig.param_count:
            raise ValueError(
                f"{fault.function} has {sig.param_count} parameters; "
                f"cannot corrupt index {fault.param_index}")
        self.fault = fault
        self.exports = (fault.function,)
        self.target_role = target_role
        self.fired = False
        self.fired_at: Optional[float] = None
        self.fired_pid: Optional[int] = None
        self.original_raw: Optional[int] = None
        self.corrupted_raw: Optional[int] = None
        self._seen_invocations = 0

    def install(self, machine) -> None:
        machine.interception.add_hook(self)

    # ------------------------------------------------------------------
    def on_call(self, process, sig: FunctionSig, invocation: int,
                raw_args: tuple[int, ...]):
        if process.role != self.target_role:
            return None
        # Count invocations across process incarnations of the role, so
        # a respawned worker does not get re-injected: one fault per run.
        self._seen_invocations += 1
        if self._seen_invocations != self.fault.invocation:
            return None
        machine = process.machine
        machine.interception.remove_hook(self)  # one fault per run
        self.fired = True
        self.fired_at = machine.engine.now
        self.fired_pid = process.pid
        original = raw_args[self.fault.param_index]
        corrupted = self.fault.fault_type.apply(original)
        self.original_raw = original
        self.corrupted_raw = corrupted
        tracer = machine.tracer
        if tracer is not None and tracer.outcome_enabled:
            # total_calls has not yet counted the call being corrupted.
            tracer.emit(machine.engine.now, "fault", "activated",
                        pid=process.pid, function=sig.name,
                        invocation=invocation, param_index=self.fault.param_index,
                        original=original, corrupted=corrupted,
                        noop=corrupted == original,
                        call_index=machine.interception.total_calls + 1)
        if corrupted == original:
            # e.g. zeroing a parameter that is already zero: the fault
            # is activated but is a semantic no-op, as on the real tool.
            return None
        mutated = list(raw_args)
        mutated[self.fault.param_index] = corrupted
        return tuple(mutated)

    @property
    def was_noop(self) -> bool:
        """Activated but value-preserving (original already == corrupted)."""
        return self.fired and self.original_raw == self.corrupted_raw

    def __repr__(self) -> str:
        state = "fired" if self.fired else "armed"
        return f"<Injector {self.fault!r} on {self.target_role} {state}>"
