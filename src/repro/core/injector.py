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
from ..nt.memory import MASK32
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
    after the fault, never reach it.  The firing path — the role
    filter, the invocation count, the record of what was corrupted and
    the ``fault.activated`` event — is shared with
    :class:`~repro.core.return_injector.ReturnInjector`, which corrupts
    the call's result instead of a parameter.
    """

    def __init__(self, fault: FaultSpec, target_role: str, registry=None):
        self.fault = fault
        self._check(lookup_export(
            registry if registry is not None else REGISTRY, fault.function))
        self.exports = (fault.function,)
        self.target_role = target_role
        self.fired = False
        self.fired_at: Optional[float] = None
        self.fired_pid: Optional[int] = None
        self.original_raw: Optional[int] = None
        self.corrupted_raw: Optional[int] = None
        self._seen_invocations = 0

    def _check(self, sig: FunctionSig) -> None:
        """The parameter to corrupt must exist."""
        if self.fault.param_index >= sig.param_count:
            raise ValueError(
                f"{self.fault.function} has {sig.param_count} parameters; "
                f"cannot corrupt index {self.fault.param_index}")

    # ------------------------------------------------------------------
    def on_call(self, process, sig: FunctionSig, invocation: int,
                raw_args: tuple[int, ...]):
        if not self._due(process):
            return None
        index = self.fault.param_index
        corrupted = self._fire(process, sig, invocation, raw_args[index],
                               {"param_index": index}, 1)
        if corrupted is None:
            return None
        mutated = list(raw_args)
        mutated[index] = corrupted
        return tuple(mutated)

    def _due(self, process) -> bool:
        """Whether this call of the target role is the one to corrupt.
        Invocations are counted across process incarnations of the
        role, so a respawned worker is not re-injected: one fault per
        run."""
        if process.role != self.target_role:
            return False
        self._seen_invocations += 1
        return self._seen_invocations == self.fault.invocation

    def _fire(self, process, sig: FunctionSig, invocation: int,
              original: int, where: dict, call_offset: int) -> Optional[int]:
        """Corrupt the 32-bit word of ``original``, unhook, record the
        firing and emit ``fault.activated`` (``where`` adds the payload
        naming the word).  ``call_offset`` is 1 on the call side, where
        ``total_calls`` has not yet counted the call, and 0 on the
        result side.  Returns the corrupted word, or None when the
        fault is a semantic no-op (e.g. zeroing a word that is already
        zero: activated but value-preserving, as on the real tool)."""
        machine = process.machine
        machine.interception.remove_hook(self)  # one fault per run
        word = original & MASK32
        corrupted = self.fault.fault_type.apply(word)
        self.fired = True
        self.fired_at = machine.engine.now
        self.fired_pid = process.pid
        self.original_raw = original
        self.corrupted_raw = corrupted
        tracer = machine.tracer
        if tracer is not None and tracer.outcome_enabled:
            tracer.emit(machine.engine.now, "fault", "activated",
                        pid=process.pid, function=sig.name,
                        invocation=invocation, **where, original=original,
                        corrupted=corrupted, noop=corrupted == word,
                        call_index=machine.interception.total_calls
                        + call_offset)
        return None if corrupted == word else corrupted

    @property
    def was_noop(self) -> bool:
        """Activated but value-preserving (original already == corrupted)."""
        return self.fired and self.original_raw & MASK32 == self.corrupted_raw

    def __repr__(self) -> str:
        state = "fired" if self.fired else "armed"
        return (f"<{type(self).__name__} {self.fault!r} on "
                f"{self.target_role} {state}>")
