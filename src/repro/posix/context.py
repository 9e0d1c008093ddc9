"""The libc view a simulated Linux program gets of its machine.

Mirrors :class:`repro.nt.context.Win32Context`: ``ctx.libc`` is the
same :class:`repro.nt.context.ExportProxy` over the libc registry, and
every call runs the export's one handler from
:func:`repro.nt.context.build_call_handler` (cached on the signature,
per-process state read at call time), so the *same* interception layer
sits in the middle — which is the paper's portability claim made
concrete: the injector, fault lists and campaign flow run unmodified;
only this system-dependent export resolution (the "JNI component") is
new.
"""

from __future__ import annotations

import inspect

from ..nt.context import ExportProxy
from ..nt.kernel32 import runtime
from ..sim import Sleep
from .libc import LIBC_IMPLEMENTATIONS, LIBC_REGISTRY


class UnknownLibcExportError(AttributeError):
    """A program referenced a function libc does not export."""

    library = "libc"


def _resolve_libc(sig):
    """The (implementation, is_blocking) pair for one libc export;
    exports without a specific implementation get the generic one."""
    impl = LIBC_IMPLEMENTATIONS.get(sig.name)
    if impl is None:
        return runtime.generic_implementation, False
    return impl, inspect.isgeneratorfunction(impl)


class PosixContext:
    """Per-process gateway to the simulated Linux machine."""

    resolve = staticmethod(_resolve_libc)

    def __init__(self, machine, process):
        self.machine = machine
        self.process = process
        self.libc = ExportProxy(self, LIBC_REGISTRY, UnknownLibcExportError)

    @property
    def now(self) -> float:
        return self.machine.engine.now

    def compute(self, seconds: float):
        yield Sleep(seconds * self.machine.cpu_scale)

    def memory(self, address: int):
        return self.machine.address_space.resolve(address)
