"""The Win32 view a simulated program gets of its machine.

A program's ``main(ctx)`` generator receives a :class:`Win32Context`.
Library calls go through ``ctx.k32`` and **must** be delegated with
``yield from`` so that blocking calls (waits, sleeps) can suspend the
calling thread::

    handle = yield from ctx.k32.CreateFileA("c:\\conf\\httpd.conf",
                                            GENERIC_READ, 0, None,
                                            OPEN_EXISTING, 0, None)
    status = yield from ctx.k32.WaitForSingleObject(child, 5000)

Every call runs a flattened per-export *handler* built by
:func:`build_call_handler`:

1. semantic arguments are lowered to raw 32-bit words,
2. the interception layer lets hooks (the fault injector) rewrite them,
3. the raw words are decoded back against the declared signature,
4. the implementation (specific or generic) runs on the decoded frame.

Step 2/3 is exactly where a corrupted word changes meaning: a zeroed
string pointer decodes as NULL, a flipped handle stops resolving, an
all-ones size means four gigabytes.

There is one handler per export, not per process — DTS's import-table
thunk, which is code per export that finds its calling process at run
time.  The handler is a single generator frame: what is fixed per
export (the implementation, its blocking-ness, the per-parameter
pointer flags) is bound when it is compiled, and the per-process state
(machine, process, hook lists, invocation counters, tracer) is read
from the calling context on every call, so hooks added after
compilation are honoured on the next call.  The handler is cached on
the signature, in ``FunctionSig._dispatch``.

The builder is the only call path, on NT and on the Linux port alike:
the context class supplies the one system-dependent piece, its
``resolve`` function mapping an export to the ``(implementation,
is_blocking)`` pair — kernel32 here, libc in :mod:`repro.posix.context`.
"""

from __future__ import annotations

from types import MethodType
from typing import TYPE_CHECKING, Any

from ..sim import Sleep
from .interception import CallOverride
from .kernel32 import runtime
from .kernel32.signatures import REGISTRY, FunctionSig
from .memory import MASK32, ArgKind, DecodedArg

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .machine import Machine
    from .process_manager import NTProcess


class UnknownExportError(AttributeError):
    """A program referenced a function kernel32 does not export."""

    library = "KERNEL32.dll"


def _resolve_impl(sig: FunctionSig):
    """The (implementation, is_blocking) pair for one kernel32 export;
    exports without a specific implementation get the generic one."""
    impl = runtime.lookup(sig.name)
    if impl is None:
        return runtime.generic_implementation, False
    return impl, runtime.is_blocking(sig.name)


def build_call_handler(resolve, sig: FunctionSig):
    """Compile the flattened call handler for one export.

    ``resolve`` names the implementation behind ``sig`` (a context
    class's ``resolve``).  The handler is shared by every process that
    calls the export: it takes the calling context — a
    :class:`Win32Context` or a :class:`repro.posix.context.PosixContext`
    — as its first argument.  Per call it reads the context's machine
    and process and, through them, the hook lists, the per-pid
    invocation dict, the per-role called set and the tracer; per-call
    work is those reads, the encode loop, the invocation-counter bump,
    the (usually empty) hook scan, the decode loop, and the
    implementation itself.
    """
    name = sig.name
    nparams = len(sig.params)
    pointer_flags = sig.pointer_flags
    has_pointers = any(pointer_flags)
    impl, blocking = resolve(sig)
    Frame = runtime.Frame

    def call(ctx, *sem_args: Any):
        if len(sem_args) != nparams:
            raise TypeError(
                f"{name} takes {nparams} arguments, got {len(sem_args)}"
            )
        machine = ctx.machine
        process = ctx.process
        space = machine.address_space
        interception = machine.interception
        # --- 1. encode: semantic arguments to raw 32-bit words -------
        # (left-to-right, like the interning order corrupted-address
        # determinism depends on; plain ints — handles, sizes, flags —
        # take the inline path, everything else the full encoder)
        raw_list = []
        for value in sem_args:
            if type(value) is int:
                raw_list.append(value & MASK32)
            elif value is None:
                raw_list.append(0)
            else:
                raw_list.append(space.encode(value))
        raw_args = tuple(raw_list)
        # --- 2. interception: hooks may rewrite the raw words, or ----
        # preempt the call outright (a CallOverride: I/O and resource
        # faults fail or delay the call without touching its arguments)
        pid = process.pid
        per_pid = interception._invocations.get(pid)
        if per_pid is None:
            per_pid = interception._invocations[pid] = {}
        invocation = per_pid.get(name, 0) + 1
        per_pid[name] = invocation
        injected = False
        override = None
        hooks = interception.hooks
        if hooks:
            for hook in hooks:
                replacement = hook.on_call(process, sig, invocation, raw_args)
                if replacement is not None:
                    if replacement.__class__ is CallOverride:
                        override = replacement
                    else:
                        raw_args = replacement
                    injected = True
        role = process.role
        called = interception._called_by_role.get(role)
        if called is None:
            called = interception._called_by_role[role] = set()
        called.add(name)
        call_counts = interception._call_counts
        call_counts[name] = call_counts.get(name, 0) + 1
        tracer = machine.tracer
        if tracer is not None and tracer.calls_enabled:
            tracer.emit(machine.engine.now, "call", "enter",
                        pid=pid, role=role, func=name,
                        invocation=invocation, injected=injected)
        if override is not None:
            if override.delay > 0.0:
                yield Sleep(override.delay)
            if override.skip:
                process.last_error = override.last_error
                result = override.result
                if not interception.return_hooks:
                    if tracer is None or not tracer.calls_enabled:
                        return result
                return interception.dispatch_return(process, sig, result)
        # --- 3. decode: raw words back against the declared types ----
        int_args = space._int_args
        decoded = []
        if has_pointers:
            for raw, pointer_like in zip(raw_args, pointer_flags):
                if pointer_like:
                    decoded.append(space.decode(raw, True))
                else:
                    raw &= MASK32
                    arg = int_args.get(raw)
                    if arg is None:
                        arg = int_args[raw] = DecodedArg(raw, ArgKind.INT)
                    decoded.append(arg)
        else:
            for raw in raw_args:
                raw &= MASK32
                arg = int_args.get(raw)
                if arg is None:
                    arg = int_args[raw] = DecodedArg(raw, ArgKind.INT)
                decoded.append(arg)
        # --- 4. run the implementation on the decoded frame ----------
        frame = Frame(machine, process, sig, decoded)
        if blocking:
            result = yield from impl(frame)
        else:
            result = impl(frame)
        if not interception.return_hooks:
            if tracer is None or not tracer.calls_enabled:
                return result  # nothing observes returns on this run
        return interception.dispatch_return(process, sig, result)

    call.__name__ = name
    call.__qualname__ = f"k32.{name}"
    return call


class ExportProxy:
    """Attribute-style access to one library's exports:
    ``ctx.k32.ReadFile``, ``ctx.libc.open``.

    ``registry`` maps export names to signatures; a name it lacks
    raises ``error`` (an ``AttributeError`` subclass naming its
    ``library``).  The first touch of an export compiles its handler
    (see :func:`build_call_handler`) unless the signature already holds
    one in ``_dispatch``, and memoises the handler bound to this
    context in the instance dict, so a process pays ``__getattr__``
    once per export and the interpreter pays one compile per export.
    """

    def __init__(self, ctx, registry: dict[str, FunctionSig], error: type):
        self._ctx = ctx
        self._registry = registry
        self._error = error

    def __getattr__(self, name: str):
        sig = self._registry.get(name)
        if sig is None:
            raise self._error(f"{self._error.library} has no export {name!r}")
        try:
            handler = sig._dispatch
        except AttributeError:
            handler = sig._dispatch = build_call_handler(
                self._ctx.resolve, sig)
        call = MethodType(handler, self._ctx)
        setattr(self, name, call)
        return call


class Win32Context:
    """Per-process gateway to the simulated NT machine."""

    resolve = staticmethod(_resolve_impl)

    def __init__(self, machine: "Machine", process: "NTProcess"):
        self.machine = machine
        self.process = process
        self.k32 = ExportProxy(self, REGISTRY, UnknownExportError)

    # ------------------------------------------------------------------
    # Conveniences for program code (not part of the Win32 surface)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.machine.engine.now

    def compute(self, seconds: float):
        """Model CPU-bound work; scales with the machine's clock speed
        and with any active CPU-starvation tax (a resource fault)."""
        machine = self.machine
        yield Sleep(seconds * machine.cpu_scale
                    * machine.pressure.cpu_tax(self.process.role))

    def log_debug(self, message: str) -> None:
        """Program-side diagnostics kept on the machine for tests."""
        self.machine.debug_log.append((self.now, self.process.pid, message))

    def memory(self, address: int):
        """Resolve a raw pointer (e.g. a HeapAlloc result) back to its
        buffer — the program-side equivalent of dereferencing it."""
        return self.machine.address_space.resolve(address)
