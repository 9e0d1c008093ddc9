"""Return-value corruption: an alternative fault-injection mechanism.

Section 2 of the paper stresses that "the basic DTS architecture is not
dependent on a particular fault injection mechanism" — parameter
corruption is merely the initial implementation.  This module plugs a
second mechanism into the same interception layer: corrupt the *result*
a library call hands back to the application (the technique of
Ghosh & Schmid's NT wrapping work the paper cites).

A return-value fault emulates a different fault class than a parameter
fault: the OS performed the operation correctly, but the application
*believes* it failed (zero), succeeded wildly (ones), or got garbage
(flip) — pure error-handling-path testing.
"""

from __future__ import annotations

from typing import Optional

from ..nt.interception import ReturnHook
from ..nt.kernel32.signatures import REGISTRY, FunctionSig
# ReturnFaultSpec lives with the other specs; importing it from here
# keeps working.
from .faults import ReturnFaultSpec
from .injector import lookup_export


class ReturnInjector(ReturnHook):
    """Arms a single :class:`ReturnFaultSpec` against one process role.

    Unlike parameter corruption, *every* export is a candidate — the
    130 parameter-less functions included (they still return values).
    ``registry`` defaults to the KERNEL32 export table, as for
    :class:`~repro.core.injector.Injector`.
    """

    def __init__(self, fault: ReturnFaultSpec, target_role: str,
                 registry=None):
        lookup_export(registry if registry is not None else REGISTRY,
                      fault.function)
        self.fault = fault
        self.target_role = target_role
        self.fired = False
        self.fired_at: Optional[float] = None
        self.original_result: Optional[int] = None
        self.corrupted_result: Optional[int] = None
        self._seen_invocations = 0

    def install(self, machine) -> None:
        machine.interception.add_return_hook(self)

    def on_return(self, process, sig: FunctionSig, invocation: int,
                  result: int) -> Optional[int]:
        if self.fired or process.role != self.target_role:
            return None
        if sig.name != self.fault.function:
            return None
        self._seen_invocations += 1
        if self._seen_invocations != self.fault.invocation:
            return None
        self.fired = True
        self.fired_at = process.machine.engine.now
        corrupted = self.fault.fault_type.apply(result & 0xFFFFFFFF)
        self.original_result = result
        self.corrupted_result = corrupted
        machine = process.machine
        tracer = machine.tracer
        if tracer is not None and tracer.outcome_enabled:
            # Return hooks run after dispatch counted this call.
            tracer.emit(machine.engine.now, "fault", "activated",
                        pid=process.pid, function=sig.name,
                        invocation=invocation, original=result,
                        corrupted=corrupted,
                        noop=corrupted == (result & 0xFFFFFFFF),
                        call_index=machine.interception.total_calls)
        if corrupted == (result & 0xFFFFFFFF):
            return None  # value-preserving: activated but a no-op
        return corrupted

    @property
    def was_noop(self) -> bool:
        return self.fired and \
            self.original_result is not None and \
            (self.original_result & 0xFFFFFFFF) == self.corrupted_result

    def __repr__(self) -> str:
        state = "fired" if self.fired else "armed"
        return f"<ReturnInjector {self.fault!r} on {self.target_role} {state}>"


def generate_return_fault_list(functions=None, fault_types=None,
                               invocations=(1,)) -> list[ReturnFaultSpec]:
    """Enumerate the return-value fault space (see
    :meth:`ReturnFaultSpec.fault_space`)."""
    return ReturnFaultSpec.fault_space(functions, fault_types, invocations)
