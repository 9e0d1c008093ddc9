"""Execution support for kernel32 implementations.

Every intercepted call is executed through a :class:`Frame`, which
holds the decoded arguments and exposes the Win32-flavoured helpers
implementations use to validate them.  Validation is where corrupted
raw words turn into consequences:

- a required pointer that decodes to NULL or to a wild address raises
  :class:`~repro.nt.errors.AccessViolation` (the process crashes unless
  the program installed a simulated SEH guard);
- a handle that no longer resolves makes the call fail with
  ``ERROR_INVALID_HANDLE``;
- integers are taken at face value — a zeroed byte count silently reads
  zero bytes, an all-ones timeout becomes INFINITE — producing the
  silent-wrong-behaviour class of outcomes.

Functions without a specific implementation fall back to
:func:`generic_implementation`, which performs exactly this
type-driven validation and then succeeds.  That gives all 551
injectable exports honest default corruption semantics; the ~100
functions the workloads actually exercise have richer implementations
in the ``impl_*`` modules.
"""

from __future__ import annotations

import inspect
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..errors import (
    ERROR_INVALID_HANDLE,
    ERROR_SUCCESS,
    INVALID_HANDLE_VALUE,
)
from ..memory import (
    ArgKind,
    Buffer,
    CString,
    DecodedArg,
    OutCell,
    deref,
    opt_deref,
    opt_string_at,
    string_at,
)
from ..process_manager import ProcessObject
from .signatures import FunctionSig, ParamType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..machine import Machine
    from ..process_manager import NTProcess


class Frame:
    """One in-flight kernel32 call."""

    __slots__ = ("machine", "process", "sig", "args")

    def __init__(self, machine: "Machine", process: "NTProcess",
                 sig: FunctionSig, args: list[DecodedArg]):
        self.machine = machine
        self.process = process
        self.sig = sig
        self.args = args

    # ------------------------------------------------------------------
    # Error reporting
    # ------------------------------------------------------------------
    def fail(self, code: int, ret: int = 0) -> int:
        """Record a last-error code and return the failure sentinel."""
        self.process.last_error = code
        return ret

    def succeed(self, ret: int = 1) -> int:
        self.process.last_error = ERROR_SUCCESS
        return ret

    # ------------------------------------------------------------------
    # Argument access
    # ------------------------------------------------------------------
    def arg(self, index: int) -> DecodedArg:
        return self.args[index]

    def uint(self, index: int) -> int:
        """Raw 32-bit value of an integer-typed parameter."""
        return self.args[index].raw

    def boolean(self, index: int) -> bool:
        """Win32 BOOL: any non-zero raw value is TRUE."""
        return self.args[index].raw != 0

    def timeout_seconds(self, index: int) -> Optional[float]:
        """A ``T`` parameter in seconds; None means INFINITE."""
        raw = self.args[index].raw
        if raw == 0xFFFFFFFF:
            return None
        return raw / 1000.0

    def pointer(self, index: int, expected: type = object) -> Any:
        """Dereference a required pointer parameter (may fault)."""
        return deref(self.args[index], expected)

    def opt_pointer(self, index: int, expected: type = object) -> Optional[Any]:
        """Dereference an optional pointer parameter (NULL → None)."""
        return opt_deref(self.args[index], expected)

    def string(self, index: int) -> str:
        return string_at(self.args[index])

    def opt_string(self, index: int) -> Optional[str]:
        return opt_string_at(self.args[index])

    def buffer(self, index: int) -> Buffer:
        return deref(self.args[index], Buffer, operation="write")

    def opt_buffer(self, index: int) -> Optional[Buffer]:
        return opt_deref(self.args[index], Buffer, operation="write")

    def out_cell(self, index: int) -> OutCell:
        return deref(self.args[index], OutCell, operation="write")

    def opt_out_cell(self, index: int) -> Optional[OutCell]:
        return opt_deref(self.args[index], OutCell, operation="write")

    def out_sink(self, index: int) -> Optional[Any]:
        """An optional out-parameter that may be an OutCell or a Buffer."""
        return opt_deref(self.args[index], (OutCell, Buffer), operation="write")

    # ------------------------------------------------------------------
    # Handle access
    # ------------------------------------------------------------------
    def handle_value(self, index: int) -> int:
        return self.args[index].raw

    def handle_object(self, index: int, kind: Optional[type] = None) -> Optional[Any]:
        """Resolve a handle parameter; None when invalid (caller fails)."""
        return self.machine.handles.resolve(self.args[index].raw, kind)

    def process_handle(self, index: int) -> Optional["NTProcess"]:
        """Resolve a process handle, honouring the NT pseudo-handle:
        ``0xFFFFFFFF`` (-1) means *the calling process*."""
        raw = self.args[index].raw
        if raw == INVALID_HANDLE_VALUE:
            return self.process
        obj = self.machine.handles.resolve(raw, ProcessObject)
        return None if obj is None else obj.process

    def new_handle(self, obj: Any) -> int:
        return self.machine.handles.allocate(obj)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Frame {self.sig.name} pid={self.process.pid}>"


# ----------------------------------------------------------------------
# Implementation registry
# ----------------------------------------------------------------------
Implementation = Callable[[Frame], Any]

IMPLEMENTATIONS: dict[str, Implementation] = {}
BLOCKING: set[str] = set()


def k32impl(name: str) -> Callable[[Implementation], Implementation]:
    """Register an implementation for one export by name."""

    def register(fn: Implementation) -> Implementation:
        if name in IMPLEMENTATIONS:
            raise ValueError(f"duplicate implementation for {name}")
        IMPLEMENTATIONS[name] = fn
        if inspect.isgeneratorfunction(fn):
            BLOCKING.add(name)
        return fn

    return register


def lookup(name: str) -> Optional[Implementation]:
    return IMPLEMENTATIONS.get(name)


def is_blocking(name: str) -> bool:
    return name in BLOCKING


# ----------------------------------------------------------------------
# Generic fallback
# ----------------------------------------------------------------------
_REQUIRED_POINTERS = (ParamType.PTR, ParamType.CSTR, ParamType.OUTPTR)
_OPTIONAL_POINTERS = (ParamType.PTR_OPT, ParamType.CSTR_OPT, ParamType.OUTPTR_OPT)


def generic_implementation(frame: Frame) -> int:
    """Type-driven validation, then success.

    This is what every export without a dedicated implementation runs.
    The validation mirrors how an average Win32 API treats its
    parameters, which is what gives corrupted calls to "unimportant"
    functions realistic consequences.
    """
    for spec, arg in zip(frame.sig.params, frame.args):
        ptype = spec.ptype
        if ptype in _REQUIRED_POINTERS:
            deref(arg)  # NULL or wild → access violation
        elif ptype in _OPTIONAL_POINTERS:
            if arg.kind is ArgKind.WILD:
                deref(arg)  # wild → access violation; NULL is legal
        elif ptype is ParamType.HANDLE:
            if not frame.machine.handles.is_valid(arg.raw):
                return frame.fail(ERROR_INVALID_HANDLE)
        elif ptype is ParamType.HANDLE_OPT:
            if arg.raw not in (0, INVALID_HANDLE_VALUE) and \
                    not frame.machine.handles.is_valid(arg.raw):
                return frame.fail(ERROR_INVALID_HANDLE)
        # Integer-family parameters are taken at face value.
    return frame.succeed(1)


__all__ = [
    "Frame",
    "IMPLEMENTATIONS",
    "k32impl",
    "lookup",
    "is_blocking",
    "generic_implementation",
    "Buffer",
    "CString",
    "OutCell",
]
