"""The libc view a simulated Linux program gets of its machine.

Mirrors :class:`repro.nt.context.Win32Context`: every call runs a
handler from the same :func:`repro.nt.context.build_call_handler`, so
the *same* interception layer sits in the middle — which is the paper's
portability claim made concrete: the injector, fault lists and campaign
flow run unmodified; only this system-dependent export resolution (the
"JNI component") is new.
"""

from __future__ import annotations

import inspect

from ..nt import context as nt_context
from ..nt.kernel32 import runtime
from ..sim import Sleep
from .libc import LIBC_IMPLEMENTATIONS, LIBC_REGISTRY


class UnknownLibcExportError(AttributeError):
    """A program referenced a function libc does not export."""


def _resolve_libc(sig):
    """The (implementation, is_blocking) pair for one libc export;
    exports without a specific implementation get the generic one."""
    impl = LIBC_IMPLEMENTATIONS.get(sig.name)
    if impl is None:
        return runtime.generic_implementation, False
    return impl, inspect.isgeneratorfunction(impl)


class _LibcProxy:
    """Attribute-style access to libc: ``ctx.libc.open``; handlers are
    compiled once per process and memoised like ``ctx.k32``'s."""

    def __init__(self, ctx: "PosixContext"):
        self._ctx = ctx

    def __getattr__(self, name: str):
        sig = LIBC_REGISTRY.get(name)
        if sig is None:
            raise UnknownLibcExportError(f"libc has no export {name!r}")
        call = nt_context.build_call_handler(self._ctx, sig)
        setattr(self, name, call)
        return call


class PosixContext:
    """Per-process gateway to the simulated Linux machine."""

    resolve = staticmethod(_resolve_libc)

    def __init__(self, machine, process):
        self.machine = machine
        self.process = process
        self.libc = _LibcProxy(self)

    @property
    def now(self) -> float:
        return self.machine.engine.now

    def compute(self, seconds: float):
        yield Sleep(seconds * self.machine.cpu_scale)

    def memory(self, address: int):
        return self.machine.address_space.resolve(address)
