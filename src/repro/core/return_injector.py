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

from ..nt.interception import CallHook
from ..nt.kernel32.signatures import FunctionSig
# ReturnFaultSpec lives with the other specs; importing it from here
# keeps working.
from .faults import ReturnFaultSpec
from .injector import Injector


class ReturnInjector(Injector):
    """Arms a single :class:`ReturnFaultSpec` against one process role.

    Unlike parameter corruption, *every* export is a candidate — the
    130 parameter-less functions included (they still return values).
    It is the parameter :class:`~repro.core.injector.Injector` with
    another word to corrupt: it is filed under the fault's function,
    leaves the call's arguments alone, and corrupts the integer result
    in ``on_return`` (a non-integer result is never shown to it).
    """

    on_call = CallHook.on_call  # the arguments pass untouched

    def _check(self, sig: FunctionSig) -> None:
        """Every export returns a value, so any export can be armed."""

    def on_return(self, process, sig: FunctionSig, invocation: int,
                  result: int) -> Optional[int]:
        if not self._due(process):
            return None
        return self._fire(process, sig, invocation, result, {}, 0)


def generate_return_fault_list(functions=None, fault_types=None,
                               invocations=(1,)) -> list[ReturnFaultSpec]:
    """Enumerate the return-value fault space (see
    :meth:`ReturnFaultSpec.fault_space`)."""
    return ReturnFaultSpec.fault_space(functions, fault_types, invocations)
