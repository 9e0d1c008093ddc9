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

1. each semantic argument is lowered to its raw 32-bit word and, in the
   same pass, decoded back against the declared signature,
2. the interception layer lets the hooks watching this export (the
   fault injector) rewrite the raw words — the words are built only
   when some hook watches the call, and decoded again only if a hook
   rewrote them,
3. the implementation (specific or generic) runs on the decoded frame,
4. the hooks watching this export may rewrite its integer result.

Step 2 is exactly where a corrupted word changes meaning: a zeroed
string pointer decodes as NULL, a flipped handle stops resolving, an
all-ones size means four gigabytes.

There is one handler per export, not per process — DTS's import-table
thunk, which is code per export that finds its calling process at run
time.  The handler is a single generator frame: what is fixed per
export (the implementation, its blocking-ness, the per-parameter
pointer flags) is bound when it is compiled, and the per-process state
is read on every call from the calling process's export proxy, so
hooks added after compilation are honoured on the next call.  The
handler is cached on the signature, in ``FunctionSig._dispatch``.

``ctx.k32`` is that proxy: an instance of :class:`K32Proxy`, a class
built once per interpreter with one class-level descriptor per export.
Reading ``ctx.k32.ReadFile`` binds the export's handler to the proxy,
compiling it on the first read anywhere.  The proxy carries the
machine, the process and the process's call books (its invocation
counters and its role's called set, fetched on its first call).

The builder is the only call path, on NT and on the Linux port alike:
the proxy class supplies the one system-dependent piece, its
``resolve`` function mapping an export to the ``(implementation,
is_blocking)`` pair — kernel32 here, libc in :mod:`repro.posix.context`.
"""

from __future__ import annotations

from operator import attrgetter
from types import MethodType
from typing import TYPE_CHECKING, Any

from ..sim import Sleep
from .interception import CallOverride
from .kernel32 import runtime
from .kernel32.signatures import REGISTRY, FunctionSig
from .memory import (MASK32, NULL_ARG, ArgKind, CString, DecodedArg,
                     interned_as_is)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .machine import Machine
    from .process_manager import NTProcess


# Each decoded argument keeps the raw word it was decoded from.
_raw_word = attrgetter("raw")


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

    ``resolve`` names the implementation behind ``sig`` (a proxy
    class's ``resolve``).  The handler is shared by every process that
    calls the export: it takes the calling process's export proxy — a
    :class:`K32Proxy` or a :class:`repro.posix.context.LibcProxy` — as
    its first argument, and reads the machine, the process and that
    process's call books from it.  Per-call work is those reads, one
    lowering-and-decoding pass over the arguments, one lookup of the
    hooks watching the export (the raw words, the hook scan and the
    return side only if there are any), the invocation-counter commit,
    and the implementation itself.
    """
    name = sig.name
    nparams = len(sig.params)
    pointer_flags = sig.pointer_flags
    impl, blocking = resolve(sig)
    Frame = runtime.Frame
    INT = ArgKind.INT
    OBJECT = ArgKind.OBJECT

    def call(proxy, *sem_args: Any):
        if len(sem_args) != nparams:
            raise TypeError(
                f"{name} takes {nparams} arguments, got {len(sem_args)}"
            )
        machine = proxy.machine
        process = proxy.process
        space = machine.address_space
        int_args = space._int_args
        # --- 1. lower each semantic argument to its raw 32-bit word ---
        # and decode that word against the declared type in the same
        # pass (left to right: corrupted-address determinism depends on
        # the interning order).  Plain ints, None and str take inline
        # paths, simulation objects are interned as they are, anything
        # else goes through the full encoder; an integer parameter's
        # word decodes to the flyweight INT argument.
        decoded = []
        for value, pointer_like in zip(sem_args, pointer_flags):
            cls = value.__class__
            if cls is int:
                raw = value & MASK32
            elif value is None:
                if pointer_like:
                    decoded.append(NULL_ARG)
                    continue
                raw = 0
            elif cls is str:
                obj = CString(value)
                raw = space.place(obj)
                if pointer_like:
                    decoded.append(DecodedArg(raw, OBJECT, obj))
                    continue
            elif interned_as_is(cls):
                raw = space.intern(value)
                if pointer_like:
                    decoded.append(DecodedArg(raw, OBJECT, value))
                    continue
            else:
                raw = space.encode(value)
            if pointer_like:
                decoded.append(space.decode(raw, True))
                continue
            arg = int_args.get(raw)
            if arg is None:
                arg = int_args[raw] = DecodedArg(raw, INT)
            decoded.append(arg)
        # --- 2. interception: hooks may rewrite the raw words, or ----
        # preempt the call outright (a CallOverride: I/O and resource
        # faults fail or delay the call without touching its arguments)
        interception = machine.interception
        per_pid = proxy.invocations
        if per_pid is None:  # this process's first call
            per_pid = proxy.invocations = \
                interception._invocations.setdefault(process.pid, {})
            proxy.called = \
                interception._called_by_role.setdefault(process.role, set())
        invocation = per_pid.get(name, 0) + 1
        injected = False
        rewritten = False
        override = None
        # Only the every-call hooks and the hooks watching this export
        # are scanned; a call no hook watches builds no raw words.
        hooks = interception.every_call_hooks
        watching = interception.export_hooks.get(name)
        if watching:
            hooks = hooks + watching if hooks else watching
        if hooks:
            # (through a list: tuple() over a bare iterator over-allocates
            # and shrinks the tuple on every call, which raised the gen-0
            # collection count of the Figure-2 grid by about 30 %)
            raw_args = tuple([*map(_raw_word, decoded)])
            for hook in hooks:
                replacement = hook.on_call(process, sig, invocation, raw_args)
                if replacement is not None:
                    if replacement.__class__ is CallOverride:
                        override = replacement
                    else:
                        raw_args = replacement
                        rewritten = True
                    injected = True
        # Committed after the scan: a hook's total_calls excludes the
        # call in flight.
        per_pid[name] = invocation
        proxy.called.add(name)
        tracer = machine.tracer
        if tracer is not None and tracer.calls_enabled:
            tracer.emit(machine.engine.now, "call", "enter",
                        pid=process.pid, role=process.role, func=name,
                        invocation=invocation, injected=injected)
        if override is not None and override.delay > 0.0:
            yield Sleep(override.delay)
            rewritten = True  # the space may have changed meanwhile
        if override is not None and override.skip:
            process.last_error = override.last_error
            result = override.result
        else:
            # --- 3. decode again only if a hook rewrote the words ---
            if rewritten:
                decoded = [space.decode(raw, pointer_like) for raw, pointer_like
                           in zip(raw_args, pointer_flags)]
            # --- 4. run the implementation on the decoded frame ------
            frame = Frame(machine, process, sig, decoded)
            if blocking:
                result = yield from impl(frame)
            else:
                result = impl(frame)
        # --- 5. the return side: only the hooks watching this export
        # see the result, so a call no hook watches skips it untraced.
        if watching or (tracer is not None and tracer.calls_enabled):
            return interception.dispatch_return(process, sig, invocation,
                                                result, watching)
        return result

    call.__name__ = name
    call.__qualname__ = f"k32.{name}"
    return call


class _Export:
    """One export on a proxy class: ``proxy.Name`` is the export's one
    handler bound to that proxy.

    The handler is read from the signature's ``_dispatch`` slot on every
    access, and compiled through the module-global
    :func:`build_call_handler` when the slot is empty.  The slot is the
    only handler cache on purpose: clearing it is how a profiler that
    wraps the builder (perfbench's ``install()``) makes every export
    recompile through its wrappers, proxies made before the clearing
    included.
    """

    __slots__ = ("sig",)

    def __init__(self, sig: FunctionSig):
        self.sig = sig

    def __get__(self, proxy, owner):
        if proxy is None:
            return self
        sig = self.sig
        try:
            handler = sig._dispatch
        except AttributeError:
            handler = sig._dispatch = build_call_handler(owner.resolve, sig)
        return MethodType(handler, proxy)


class ExportProxy:
    """Attribute-style access to one library's exports:
    ``ctx.k32.ReadFile``, ``ctx.libc.open``.

    A subclass names a ``registry`` (export names to signatures), the
    ``resolve`` function behind its handlers and the missing-export
    ``error`` (an ``AttributeError`` subclass naming its ``library``);
    each registry name becomes an :class:`_Export` descriptor on the
    subclass, once per interpreter.  An instance is one process's view:
    it carries the machine and the process the handlers run against,
    and that process's call books — its invocation dict and its role's
    called set — which the first *call* fetches from the interception
    layer, so a process that only touches an export records nothing.
    """

    __slots__ = ("machine", "process", "invocations", "called")

    registry: dict[str, FunctionSig]
    error: type

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for name, sig in cls.registry.items():
            setattr(cls, name, _Export(sig))

    def __init__(self, machine: "Machine", process: "NTProcess"):
        self.machine = machine
        self.process = process
        self.invocations = None
        self.called = None

    def __getattr__(self, name: str):
        error = self.error
        raise error(f"{error.library} has no export {name!r}")


class K32Proxy(ExportProxy):
    """``ctx.k32``: the kernel32 exports."""

    __slots__ = ()
    registry = REGISTRY
    resolve = staticmethod(_resolve_impl)
    error = UnknownExportError


class Win32Context:
    """Per-process gateway to the simulated NT machine."""

    def __init__(self, machine: "Machine", process: "NTProcess"):
        self.machine = machine
        self.process = process
        self.k32 = K32Proxy(machine, process)

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

    def memory(self, address: int):
        """Resolve a raw pointer (e.g. a HeapAlloc result) back to its
        buffer — the program-side equivalent of dereferencing it."""
        return self.machine.address_space.resolve(address)
