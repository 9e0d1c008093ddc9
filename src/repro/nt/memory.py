"""A symbolic 32-bit address space.

The fault injector corrupts *raw* parameter values — the 32-bit words
that would sit in registers or on the stack at a library-call boundary.
To make that meaningful in a Python simulation, every pointer-like
argument is interned here and represented by a genuine 32-bit address.
Corrupting the raw word (zeroing, setting to ones, flipping) then has
exactly the consequences it has on NT:

- ``0`` decodes to a NULL pointer;
- an address that no live allocation occupies decodes to a *wild*
  pointer, and dereferencing it raises an access violation;
- an untouched address decodes back to the original Python object.

Addresses are handed out from a realistic user-mode range and never
reused within one machine, so a flipped or offset address is virtually
guaranteed to be wild (as it would be in practice).
"""

from __future__ import annotations

import enum
import functools
from typing import Any, Optional

from .errors import AccessViolation

MASK32 = 0xFFFFFFFF

# Typical NT 4.0 user-mode layout: image near 0x00400000, heap above.
_BASE_ADDRESS = 0x00410000
_ALIGNMENT = 16


class Buffer:
    """A mutable byte buffer living at a simulated address."""

    __slots__ = ("data", "label")

    def __init__(self, data: bytes = b"", label: str = ""):
        self.data = bytearray(data)
        self.label = label

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"<Buffer {self.label or ''} {len(self.data)}B>"


class CString:
    """An immutable NUL-terminated string at a simulated address."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text

    def __repr__(self) -> str:
        return f"<CString {self.text!r}>"


class OutCell:
    """A single machine word an API writes through (``LPDWORD`` etc.)."""

    __slots__ = ("value", "label")

    def __init__(self, value: int = 0, label: str = ""):
        self.value = value
        self.label = label

    def __repr__(self) -> str:
        return f"<OutCell {self.label or ''} value={self.value!r}>"


class WordArray:
    """A caller-provided array of machine words (``HANDLE*`` etc.)."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = list(values)

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return f"<WordArray {self.values!r}>"


class ArgKind(enum.Enum):
    """Classification of a decoded raw argument."""

    INT = "int"        # plain integer payload
    OBJECT = "object"  # address of a live allocation
    NULL = "null"      # raw zero where a pointer was expected
    WILD = "wild"      # address of nothing


class DecodedArg:
    """A raw 32-bit argument plus what it points at (if anything)."""

    __slots__ = ("raw", "kind", "obj")

    def __init__(self, raw: int, kind: ArgKind, obj: Any = None):
        self.raw = raw & MASK32
        self.kind = kind
        self.obj = obj

    @property
    def is_null(self) -> bool:
        return self.raw == 0

    def __repr__(self) -> str:
        return f"<Arg 0x{self.raw:08X} {self.kind.value} {self.obj!r}>"


# A raw zero where a pointer was expected.  Like the integer flyweights
# below, it is shared: a DecodedArg is never mutated after construction.
NULL_ARG = DecodedArg(0, ArgKind.NULL)

# Types ``AddressSpace.encode`` lowers by value; a subclass keeps its
# base's encoding even when it is a simulation-level class.
_BY_VALUE = (bool, int, str, bytes, bytearray, list, tuple)


@functools.cache
def interned_as_is(cls: type) -> bool:
    """Whether ``AddressSpace.encode`` interns instances of ``cls``
    unchanged: the simulation-level objects (buffers, cells, structures,
    thread entry points) that sit behind pointer arguments.  Cached per
    class; the classes programs pass as arguments are few."""
    return (cls.__module__.startswith("repro.")
            and not issubclass(cls, _BY_VALUE))


class AddressSpace:
    """Interns Python objects as 32-bit addresses; decodes them back."""

    def __init__(self, base: int = _BASE_ADDRESS):
        self._next = base
        self._by_address: dict[int, Any] = {}
        self._by_id: dict[int, int] = {}
        # Flyweight cache for integer-typed decoded arguments: handles,
        # sizes and flags repeat constantly, DecodedArg is never
        # mutated after construction, and the call path decodes every
        # argument of every intercepted call.
        self._int_args: dict[int, DecodedArg] = {}

    def intern(self, obj: Any) -> int:
        """Return the stable address of ``obj``, allocating on first use."""
        address = self._by_id.get(id(obj))
        if address is not None and self._by_address.get(address) is obj:
            return address
        return self.place(obj)

    def place(self, obj: Any) -> int:
        """Allocate the next address for ``obj``, which no address holds
        yet (a freshly made one): :meth:`intern` without the lookup."""
        address = self._next
        self._next += _ALIGNMENT * (1 + len(getattr(obj, "data", b"")) // _ALIGNMENT)
        self._by_address[address] = obj
        self._by_id[id(obj)] = address
        return address

    def resolve(self, address: int) -> Optional[Any]:
        """The object at exactly ``address``, or None."""
        return self._by_address.get(address & MASK32)

    def free(self, address: int) -> bool:
        """Remove an allocation; later dereferences become wild."""
        obj = self._by_address.pop(address & MASK32, None)
        if obj is None:
            return False
        self._by_id.pop(id(obj), None)
        return True

    @property
    def live_allocations(self) -> int:
        return len(self._by_address)

    # ------------------------------------------------------------------
    # Encoding / decoding of call arguments
    # ------------------------------------------------------------------
    def encode(self, value: Any) -> int:
        """Lower a semantic argument to its raw 32-bit word."""
        # Exact-type fast paths first: the overwhelming majority of raw
        # words are plain ints (handles, sizes, flags).  ``type(True) is
        # bool``, so the int path never swallows a bool.
        cls = type(value)
        if cls is int:
            return value & MASK32
        if value is None:
            return 0
        if cls is str:
            return self.intern(CString(value))
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value & MASK32
        if isinstance(value, str):
            return self.intern(CString(value))
        if isinstance(value, (bytes, bytearray)):
            return self.intern(Buffer(bytes(value)))
        if isinstance(value, (list, tuple)):
            return self.intern(WordArray(value))
        if value.__class__.__module__.startswith("repro."):
            # Any simulation-level object (buffers, cells, structures,
            # thread entry points) can sit behind a pointer argument.
            return self.intern(value)
        raise TypeError(f"cannot encode argument {value!r} as a raw word")

    def decode(self, raw: int, pointer_like: bool) -> DecodedArg:
        """Lift a raw word back to a decoded argument.

        ``pointer_like`` reflects the parameter's declared type: only
        pointer-typed parameters distinguish NULL/WILD/OBJECT; integer
        parameters always decode as INT regardless of value.
        """
        raw &= MASK32
        if not pointer_like:
            arg = self._int_args.get(raw)
            if arg is None:
                arg = self._int_args[raw] = DecodedArg(raw, ArgKind.INT)
            return arg
        if raw == 0:
            return NULL_ARG
        obj = self._by_address.get(raw)
        if obj is None:
            return DecodedArg(raw, ArgKind.WILD)
        return DecodedArg(raw, ArgKind.OBJECT, obj)


# ----------------------------------------------------------------------
# Dereference helpers used by kernel32 implementations
# ----------------------------------------------------------------------
def deref(arg: DecodedArg, expected_type: type = object, operation: str = "read") -> Any:
    """Dereference a required pointer argument.

    NULL and wild pointers fault, exactly as an unguarded ``mov`` would.
    A pointer to the wrong kind of object (possible when a corrupted
    value lands on some *other* live allocation) also faults, standing
    in for the undefined behaviour of misinterpreting memory.
    """
    if arg.kind in (ArgKind.NULL, ArgKind.WILD):
        raise AccessViolation(arg.raw, operation)
    if arg.kind is ArgKind.INT:
        raise AccessViolation(arg.raw, operation)
    if not isinstance(arg.obj, expected_type):
        raise AccessViolation(arg.raw, operation)
    return arg.obj


def opt_deref(arg: DecodedArg, expected_type: type = object,
              operation: str = "read") -> Optional[Any]:
    """Dereference an optional pointer argument; NULL is legal and maps
    to None (the API treats the parameter as absent)."""
    if arg.is_null:
        return None
    return deref(arg, expected_type, operation)


def string_at(arg: DecodedArg) -> str:
    """Read a required ``LPCSTR`` argument."""
    obj = deref(arg, (CString, Buffer))
    if isinstance(obj, CString):
        return obj.text
    return bytes(obj.data.split(b"\0", 1)[0]).decode("latin-1")


def opt_string_at(arg: DecodedArg) -> Optional[str]:
    """Read an optional ``LPCSTR`` argument (NULL → None)."""
    if arg.is_null:
        return None
    return string_at(arg)
