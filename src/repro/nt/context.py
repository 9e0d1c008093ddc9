"""The Win32 view a simulated program gets of its machine.

A program's ``main(ctx)`` generator receives a :class:`Win32Context`.
Library calls go through ``ctx.k32`` and **must** be delegated with
``yield from`` so that blocking calls (waits, sleeps) can suspend the
calling thread::

    handle = yield from ctx.k32.CreateFileA("c:\\conf\\httpd.conf",
                                            GENERIC_READ, 0, None,
                                            OPEN_EXISTING, 0, None)
    status = yield from ctx.k32.WaitForSingleObject(child, 5000)

Every call runs a flattened per-signature *handler* built by
:func:`build_call_handler` the first time a process touches an export:

1. semantic arguments are lowered to raw 32-bit words,
2. the interception layer lets hooks (the fault injector) rewrite them,
3. the raw words are decoded back against the declared signature,
4. the implementation (specific or generic) runs on the decoded frame.

Step 2/3 is exactly where a corrupted word changes meaning: a zeroed
string pointer decodes as NULL, a flipped handle stops resolving, an
all-ones size means four gigabytes.

The handler is a single generator frame with everything the four steps
need — the implementation, its blocking-ness, the hook list, the
invocation counters, the tracer, the per-parameter pointer flags —
pre-bound at registration instead of re-resolved per call.  The hook
list and return-hook list are bound *by object identity*, so hooks
added or removed after registration (``InterceptionLayer.add_hook``
mutates the list in place) are still honoured on the next call.

The builder is the only call path, on NT and on the Linux port alike:
the context class supplies the one system-dependent piece, its
``resolve`` function mapping an export to the ``(implementation,
is_blocking)`` pair — kernel32 here, libc in :mod:`repro.posix.context`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..sim import Sleep
from .interception import CallOverride, CallRecord
from .kernel32 import runtime
from .kernel32.signatures import REGISTRY, FunctionSig
from .memory import MASK32, ArgKind, DecodedArg

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .machine import Machine
    from .process_manager import NTProcess


class UnknownExportError(AttributeError):
    """A program referenced a function kernel32 does not export."""


def _resolve_impl(sig: FunctionSig):
    """The (implementation, is_blocking) pair for one export, cached on
    the signature — the registry is import-time-complete by the time
    any process makes its first call."""
    try:
        return sig._dispatch
    except AttributeError:
        impl = runtime.lookup(sig.name)
        blocking = runtime.is_blocking(sig.name)
        if impl is None:
            impl = runtime.generic_implementation
            blocking = False
        sig._dispatch = (impl, blocking)
        return sig._dispatch


def build_call_handler(ctx, sig: FunctionSig):
    """Compile the flattened call handler for one (process, export).

    ``ctx`` is a :class:`Win32Context` or a
    :class:`repro.posix.context.PosixContext`; its ``resolve`` names the
    implementation behind ``sig``.

    Everything resolvable at registration time is captured in the
    closure: per-call work is the encode loop, the invocation-counter
    bump, the (usually empty) hook scan, the decode loop, and the
    implementation itself.  Mutable collaborators — the hook lists, the
    per-pid invocation dict, the per-role called set, the machine-wide
    trace — are captured by identity, so registration-time binding
    observes later mutation.
    """
    machine = ctx.machine
    process = ctx.process
    interception = machine.interception
    space = machine.address_space
    encode = space.encode
    decode = space.decode
    int_args = space._int_args
    engine = machine.engine
    tracer = machine.tracer  # fixed at Machine construction
    name = sig.name
    nparams = len(sig.params)
    pointer_flags = sig.pointer_flags
    has_pointers = any(pointer_flags)
    impl, blocking = ctx.resolve(sig)
    hooks = interception.hooks
    return_hooks = interception.return_hooks
    per_pid = interception._invocations.get(process.pid)
    if per_pid is None:
        per_pid = interception._invocations[process.pid] = {}
    called = interception._called_by_role.get(process.role)
    if called is None:
        called = interception._called_by_role[process.role] = set()
    called_add = called.add
    call_counts = interception._call_counts
    keep_full_trace = interception.keep_full_trace
    trace_append = interception.trace.append
    pid = process.pid
    role = process.role
    Frame = runtime.Frame

    def call(*sem_args: Any):
        if len(sem_args) != nparams:
            raise TypeError(
                f"{name} takes {nparams} arguments, got {len(sem_args)}"
            )
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
                raw_list.append(encode(value))
        raw_args = tuple(raw_list)
        # --- 2. interception: hooks may rewrite the raw words, or ----
        # preempt the call outright (a CallOverride: I/O and resource
        # faults fail or delay the call without touching its arguments)
        invocation = per_pid.get(name, 0) + 1
        per_pid[name] = invocation
        injected = False
        override = None
        if hooks:
            for hook in hooks:
                replacement = hook.on_call(process, sig, invocation, raw_args)
                if replacement is not None:
                    if replacement.__class__ is CallOverride:
                        override = replacement
                    else:
                        raw_args = replacement
                    injected = True
        called_add(name)
        call_counts[name] = call_counts.get(name, 0) + 1
        if tracer is not None and tracer.calls_enabled:
            tracer.emit(engine.now, "call", "enter",
                        pid=pid, role=role, func=name,
                        invocation=invocation, injected=injected)
        if keep_full_trace:
            trace_append(CallRecord(
                engine.now, pid, role, name, invocation, injected,
            ))
        if override is not None:
            if override.delay > 0.0:
                yield Sleep(override.delay)
            if override.skip:
                process.last_error = override.last_error
                result = override.result
                if not return_hooks:
                    if tracer is None or not tracer.calls_enabled:
                        return result
                return interception.dispatch_return(process, sig, result)
        # --- 3. decode: raw words back against the declared types ----
        decoded = []
        if has_pointers:
            for raw, pointer_like in zip(raw_args, pointer_flags):
                if pointer_like:
                    decoded.append(decode(raw, True))
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
        if not return_hooks:
            if tracer is None or not tracer.calls_enabled:
                return result  # nothing observes returns on this run
        return interception.dispatch_return(process, sig, result)

    call.__name__ = name
    call.__qualname__ = f"k32.{name}"
    return call


class _K32Proxy:
    """Attribute-style access to the export table: ``ctx.k32.ReadFile``.

    Resolution compiles the flattened handler (see
    :func:`build_call_handler`) and memoises it into the instance dict,
    so each export pays the ``__getattr__`` + compilation cost once per
    process rather than once per call.
    """

    def __init__(self, ctx: "Win32Context"):
        self._ctx = ctx

    def __getattr__(self, name: str):
        sig = REGISTRY.get(name)
        if sig is None:
            raise UnknownExportError(f"KERNEL32.dll has no export {name!r}")
        call = build_call_handler(self._ctx, sig)
        setattr(self, name, call)
        return call


class Win32Context:
    """Per-process gateway to the simulated NT machine."""

    resolve = staticmethod(_resolve_impl)

    def __init__(self, machine: "Machine", process: "NTProcess"):
        self.machine = machine
        self.process = process
        self.k32 = _K32Proxy(self)

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
