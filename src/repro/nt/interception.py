"""Library-call interception — the SWIFI mechanism.

On the paper's real system DTS rewrites a process's import address
table so that every ``KERNEL32.dll`` call passes through a thunk that
may corrupt parameter values.  Here every simulated kernel32 call is
dispatched through this layer, which gives registered hooks the same
power: observe the call, and rewrite its raw argument words before the
implementation sees them.

Every hook is a :class:`CallHook`.  A hook names the exports it
watches in ``exports`` (the parameter and return-value injectors watch
only their fault's function), and the layer files it under each of
them; a hook whose ``exports`` is None sees every call (the windowed
injectors).  Only hooks filed under the called export see its result
(``on_return``).  A call pays for interception only when some hook
watches it: a call no hook watches builds no raw words, makes no hook
call and reads no return-side state, as a probe placed only on the
function it fails.

The layer also keeps the call bookkeeping the rest of DTS relies on
(a per-call record is the ``call``-level tracer's ``call enter``
event, see :mod:`repro.trace`):

- which functions each process role has called (Table 1 counts and the
  fault-activation skip heuristic), and
- per-(process, function) invocation indices (the paper injects only
  the first invocation of each function).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .kernel32.signatures import FunctionSig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .process_manager import NTProcess


class CallOverride:
    """A hook's decision to preempt a call instead of rewriting it.

    With ``skip`` (the default) the implementation never runs: the
    process's last-error slot is set to ``last_error`` and ``result``
    is returned to the caller — how an I/O fault makes ``WriteFile``
    fail with ``ERROR_DISK_FULL`` without corrupting any argument.
    With ``skip=False`` only ``delay`` applies: the call blocks for
    that many sim-seconds and then proceeds normally (per-call
    latency).  ``delay`` is honoured in both cases, before the skip.
    """

    __slots__ = ("result", "last_error", "delay", "skip")

    def __init__(self, result: int = 0, last_error: int = 0,
                 delay: float = 0.0, skip: bool = True):
        self.result = result
        self.last_error = last_error
        self.delay = delay
        self.skip = skip

    def __repr__(self) -> str:
        if self.skip:
            return (f"<CallOverride result={self.result} "
                    f"last_error={self.last_error}>")
        return f"<CallOverride delay={self.delay}>"


class CallHook:
    """The one interception-hook contract (injectors subclass it).

    ``exports`` names the exports the hook watches, read once when it
    is added: ``on_call`` then runs only for calls of those exports.
    None (the default) means every call.  ``on_return``, when a hook
    defines it, runs over each completed call's integer result, and
    only for hooks filed under the called export.  ``install`` attaches
    the hook to a machine, and ``finalize`` runs at workload teardown.
    """

    exports: Optional[tuple[str, ...]] = None
    # Optionally a method (process, sig, invocation, result) -> the
    # replacement result, or None to leave it unchanged.
    on_return = None

    def on_call(self, process: "NTProcess", sig: FunctionSig,
                invocation: int, raw_args: tuple[int, ...]):
        """Observe/rewrite one call.

        ``invocation`` is 1-based and counted per (process, function).
        Return replacement raw args, a :class:`CallOverride` to
        preempt or delay the call, or None to leave it unchanged.
        """
        return None

    def install(self, machine) -> None:
        machine.interception.add_hook(self)

    def finalize(self) -> None:
        """Workload teardown; nothing to do unless a hook holds state
        that must be closed (an open fault window)."""


def _without(hooks: tuple, hook) -> tuple:
    return tuple(other for other in hooks if other is not hook)


class InterceptionLayer:
    """Hooks and call bookkeeping shared by every handler between
    program code and the kernel32 (or libc) implementations."""

    def __init__(self):
        # The call hooks, split by what they watch: hooks whose
        # ``exports`` is None see every call, the others are filed under
        # each export they name.  Both are tuples replaced on every add
        # and remove, so a scan runs over a snapshot and a hook may
        # remove itself from inside ``on_call`` or ``on_return`` without
        # another hook missing the call.  A call runs the every-call
        # hooks first, then its export's, each set in the order the
        # hooks were added.
        self.every_call_hooks: tuple[CallHook, ...] = ()
        self.export_hooks: dict[str, tuple[CallHook, ...]] = {}
        # Per-pid invocation counters, nested rather than keyed by
        # (pid, name) tuples, so a call needs no key allocation.  A
        # process gets its inner dict (and its role a called set) on
        # its first call, not before; its export proxy keeps both, so
        # later calls skip these lookups.  They are the only call
        # counters: the machine-wide counts below are sums over them.
        self._invocations: dict[int, dict[str, int]] = {}
        self._called_by_role: dict[str, set[str]] = {}

    # ------------------------------------------------------------------
    # Hook management
    # ------------------------------------------------------------------
    def add_hook(self, hook: CallHook) -> None:
        exports = hook.exports
        if exports is None:
            self.every_call_hooks += (hook,)
            return
        table = self.export_hooks
        for name in exports:
            table[name] = table.get(name, ()) + (hook,)

    def remove_hook(self, hook: CallHook) -> None:
        """Detach ``hook`` from every call it watches; a hook that is
        not attached is ignored."""
        self.every_call_hooks = _without(self.every_call_hooks, hook)
        table = self.export_hooks
        for name in [name for name, hooks in table.items() if hook in hooks]:
            rest = _without(table[name], hook)
            if rest:
                table[name] = rest
            else:
                del table[name]

    def clear_hooks(self) -> None:
        """Detach every call hook (end-of-run teardown)."""
        self.every_call_hooks = ()
        self.export_hooks = {}

    # ------------------------------------------------------------------
    # Dispatch (the call side runs inline in each compiled handler, see
    # repro.nt.context.build_call_handler)
    # ------------------------------------------------------------------
    def dispatch_return(self, process: "NTProcess", sig: FunctionSig,
                        invocation: int, result, watching):
        """The return side of one call: the ``on_return`` of each hook
        in ``watching`` (the hooks filed under the export when the call
        was made) over an integer result, then the ``call exit``
        event."""
        if watching and isinstance(result, int):
            for hook in watching:
                on_return = hook.on_return
                if on_return is not None:
                    replacement = on_return(process, sig, invocation, result)
                    if replacement is not None:
                        result = replacement
        tracer = process.machine.tracer
        if tracer is not None and tracer.calls_enabled:
            data = {"pid": process.pid, "func": sig.name}
            if result is None or isinstance(result, (int, float, str)):
                data["result"] = result
            tracer.emit(process.machine.engine.now, "call", "exit", **data)
        return result

    # ------------------------------------------------------------------
    # Trace queries
    # ------------------------------------------------------------------
    def called_functions(self, role: Optional[str] = None) -> set[str]:
        """Distinct function names called, optionally for one role."""
        if role is not None:
            return set(self._called_by_role.get(role, set()))
        merged: set[str] = set()
        for names in self._called_by_role.values():
            merged |= names
        return merged

    def roles_seen(self) -> set[str]:
        return set(self._called_by_role)

    def call_count(self, func: str) -> int:
        """Total calls of ``func`` across all processes."""
        return sum(per_pid.get(func, 0)
                   for per_pid in self._invocations.values())

    @property
    def total_calls(self) -> int:
        """All intercepted calls so far, machine-wide (the trace layer's
        call-index clock).  A call counts once its hooks have run, so
        inside ``on_call`` this excludes the call in flight."""
        return sum(sum(per_pid.values())
                   for per_pid in self._invocations.values())

    def invocation_count(self, pid: int, func: str) -> int:
        return self._invocations.get(pid, {}).get(func, 0)
