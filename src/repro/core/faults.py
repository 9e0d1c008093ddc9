"""Fault model: parameter-value corruption and sustained fault windows.

Section 4 of the paper: *"For each function, each function parameter
was injected with three types of faults: (1) reset all bits to zero,
(2) set all bits to one, and (3) flip all bits (i.e., one's complement
for the parameter value)."*

A parameter fault is identified by (function, parameter index,
invocation index, fault type); applying it rewrites the raw 32-bit
argument word at the library-call boundary.

Two further fault families extend the space below the call boundary
(the failure modes field studies attribute to the environment rather
than the application's own arguments):

- :class:`IoFault` — errno-style failures (EIO/ENOSPC/EACCES), short
  reads / partial writes and per-call latency on the file API, plus
  connection refuse/reset/latency on the transport;
- :class:`ResourceFault` — memory pressure, handle-table exhaustion
  and CPU starvation via a scheduler tax.

Unlike a parameter fault, which corrupts one invocation, both carry a
:class:`FaultWindow`: the fault is *sustained* over a span of the
target role's call sequence (``[start_call, end_call)``) or of sim
time (``[start, end)`` seconds).

Each spec class is one row of the family table (:data:`FAMILIES`);
code that handles faults looks the family up instead of branching on
the spec type.
"""

from __future__ import annotations

import difflib
import enum
from typing import Iterable, Optional, Sequence

from ..nt.kernel32.signatures import REGISTRY
from .injector import Injector

MASK32 = 0xFFFFFFFF


class FaultType(enum.Enum):
    """The paper's three corruption operators."""

    ZERO = "zero"   # reset all bits to zero
    ONES = "ones"   # set all bits to one
    FLIP = "flip"   # one's complement

    def apply(self, raw: int) -> int:
        """Corrupt one raw 32-bit word."""
        if self is FaultType.ZERO:
            return 0
        if self is FaultType.ONES:
            return MASK32
        return (raw ^ MASK32) & MASK32

    @property
    def short_code(self) -> str:
        return {"zero": "Z", "ones": "O", "flip": "F"}[self.value]


DEFAULT_FAULT_TYPES = (FaultType.ZERO, FaultType.ONES, FaultType.FLIP)


class FaultFamily:
    """One row of the family table, declared by each spec class.

    A subclass sets ``family`` (``--fault-family``, store-key prefix),
    ``mechanism`` (JSON, fingerprints) and ``label``; lists its fields
    as ``__slots__`` in constructor order, from which the store key and
    JSON codec are built; and defines ``injector`` and ``fault_space``.
    A ``functions`` entry names an ``axis`` value (``axis_names``, or
    the workload's registry); ``takes_functions``: ``repro run
    --functions`` applies; ``prunable``: equivalence manifests apply.
    """

    __slots__ = ()
    axis = "export"
    axis_names = None
    takes_functions = False
    prunable = False

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    @property
    def store_key(self) -> str:
        return ":".join([self.family, *(_key_token(getattr(self, name))
                                        for name in self.__slots__)])

    def to_dict(self) -> dict:
        return {"mechanism": self.mechanism,
                **{name: _json_field(getattr(self, name))
                   for name in self.__slots__}}

    @classmethod
    def from_dict(cls, data: dict):
        return cls(**{name: _decode_field(name, data[name])
                      for name in cls.__slots__})

    @property
    def profile_gate(self):
        """The export whose absence from the profile run's called set
        skips this fault's probe (None: always probe)."""
        return self.function

    @classmethod
    def check_functions(cls, functions, registry) -> None:
        """Raise ValueError for the first of ``functions`` (None: the
        whole space) off this family's axis, with a close-match hint."""
        legal = cls.axis_names or (registry if registry is not None
                                   else REGISTRY)
        for name in functions or ():
            if name not in legal:
                close = difflib.get_close_matches(name, legal, n=1)
                hint = f" (did you mean {close[0]!r}?)" if close else ""
                raise ValueError(f"unknown {cls.axis} {name!r}{hint}")


class FaultSpec(FaultFamily):
    """One injectable parameter fault."""

    __slots__ = ("function", "param_index", "fault_type", "invocation")

    family = "param"
    mechanism = "parameter"
    label = "parameter corruption"
    takes_functions = True
    prunable = True

    def __init__(self, function: str, param_index: int,
                 fault_type: FaultType, invocation: int = 1):
        if param_index < 0:
            raise ValueError(f"negative parameter index {param_index}")
        if invocation < 1:
            raise ValueError(f"invocation index must be >= 1, got {invocation}")
        self.function = function
        self.param_index = param_index
        self.fault_type = fault_type
        self.invocation = invocation

    @property
    def key(self) -> tuple:
        return (self.function, self.param_index,
                self.fault_type.value, self.invocation)

    def __repr__(self) -> str:
        return (f"<Fault {self.function}[{self.param_index}] "
                f"{self.fault_type.value}@{self.invocation}>")

    def injector(self, target_role: str, registry):
        return Injector(self, target_role, registry)

    @staticmethod
    def fault_space(functions: Optional[Iterable[str]] = None,
                    fault_types: Sequence[FaultType] = DEFAULT_FAULT_TYPES,
                    invocations: Sequence[int] = (1,),
                    registry: Optional[dict] = None) -> list[FaultSpec]:
        """Enumerate the parameter fault space (``generate_fault_list``).

        ``functions`` defaults to every injectable export of ``registry``
        (KERNEL32 when None); names with no parameters are skipped (they
        are "not candidates for function parameter corruption").  Unknown
        names raise ``KeyError``.
        """
        table = registry if registry is not None else REGISTRY
        if functions is None:
            signatures = [sig for sig in table.values() if sig.injectable]
        else:
            signatures = [table[name] for name in functions]
        faults = []
        for sig in signatures:
            for param in sig.params:
                for invocation in invocations:
                    for fault_type in fault_types:
                        faults.append(FaultSpec(sig.name, param.index,
                                                fault_type, invocation))
        return faults

    # ------------------------------------------------------------------
    # Fault-list line format (see core.faultlist)
    # ------------------------------------------------------------------
    def to_line(self) -> str:
        return (f"{self.function} {self.param_index} "
                f"{self.fault_type.value} {self.invocation}")

    @classmethod
    def from_line(cls, line: str) -> "FaultSpec":
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"malformed fault line: {line!r}")
        function, param_index, fault_type, invocation = parts
        return cls(function, int(param_index), FaultType(fault_type),
                   int(invocation))


class ReturnFaultSpec(FaultFamily):
    """One injectable return-value fault (see
    :mod:`repro.core.return_injector`)."""

    __slots__ = ("function", "fault_type", "invocation")

    family = "return"
    mechanism = "return"
    label = "return-value corruption"
    takes_functions = True

    def __init__(self, function: str, fault_type: FaultType,
                 invocation: int = 1):
        if invocation < 1:
            raise ValueError(f"invocation index must be >= 1, got {invocation}")
        self.function = function
        self.fault_type = fault_type
        self.invocation = invocation

    @property
    def key(self) -> tuple:
        return (self.function, self.fault_type.value, self.invocation)

    def __repr__(self) -> str:
        return (f"<ReturnFault {self.function}() -> "
                f"{self.fault_type.value}@{self.invocation}>")

    def injector(self, target_role: str, registry):
        from .return_injector import ReturnInjector

        return ReturnInjector(self, target_role, registry)

    @staticmethod
    def fault_space(functions: Optional[Iterable[str]] = None,
                    fault_types: Sequence[FaultType] = DEFAULT_FAULT_TYPES,
                    invocations: Sequence[int] = (1,),
                    registry: Optional[dict] = None
                    ) -> list[ReturnFaultSpec]:
        """One fault per function × invocation × type (parameters are
        irrelevant here) over ``registry`` (KERNEL32 when None); unknown
        names raise ``KeyError``."""
        table = registry if registry is not None else REGISTRY
        names = list(functions) if functions is not None else list(table)
        for name in names:
            if name not in table:
                raise KeyError(name)
        fault_types = tuple(fault_types or DEFAULT_FAULT_TYPES)
        return [ReturnFaultSpec(name, fault_type, invocation)
                for name in names
                for invocation in invocations
                for fault_type in fault_types]


# ----------------------------------------------------------------------
# Sustained fault windows
# ----------------------------------------------------------------------
WINDOW_UNITS = ("calls", "time")


def _number_token(value) -> str:
    """Canonical text for a window/severity number (``5``, ``0.5``)."""
    return f"{value:g}"


class FaultWindow:
    """The activity span of a sustained fault.

    ``unit="calls"``: active while the target role's 1-based
    interception call index lies in ``[start, end)`` — the window
    opens *before* call ``start`` is processed and closes before call
    ``end``.  ``unit="time"``: active for sim time ``[start, end)``
    seconds.  Windows are always finite, so every activation has a
    matching deactivation within a completed run.
    """

    __slots__ = ("unit", "start", "end")

    def __init__(self, unit: str = "calls", start=1, end=100):
        if unit not in WINDOW_UNITS:
            raise ValueError(f"unknown window unit {unit!r} "
                             f"(legal: {', '.join(WINDOW_UNITS)})")
        if unit == "calls":
            if not (float(start).is_integer() and float(end).is_integer()):
                raise ValueError(f"call window bounds must be whole "
                                 f"numbers, got {start}-{end}")
            start, end = int(start), int(end)
            if start < 1:
                raise ValueError(f"call window must start at >= 1, "
                                 f"got {start}")
        else:
            start, end = float(start), float(end)
            if start < 0.0:
                raise ValueError(f"time window must start at >= 0, "
                                 f"got {start}")
        if end <= start:
            raise ValueError(f"empty window [{start}, {end})")
        self.unit = unit
        self.start = start
        self.end = end

    @property
    def key(self) -> tuple:
        return (self.unit, self.start, self.end)

    def __eq__(self, other) -> bool:
        return isinstance(other, FaultWindow) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"<Window {self.unit} {self.start}..{self.end}>"

    def to_dict(self) -> dict:
        return {"unit": self.unit, "start": self.start, "end": self.end}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultWindow":
        return cls(data["unit"], data["start"], data["end"])

    def to_token(self) -> str:
        """Canonical text form: ``calls@1-100``, ``time@5-60``."""
        return (f"{self.unit}@{_number_token(self.start)}"
                f"-{_number_token(self.end)}")

    @classmethod
    def from_token(cls, token: str) -> "FaultWindow":
        try:
            unit, span = token.split("@", 1)
            start, end = span.split("-", 1)
        except ValueError:
            raise ValueError(f"malformed window token {token!r}") from None
        return cls(unit, float(start), float(end))


# ----------------------------------------------------------------------
# Field codecs: the store key and JSON form of one spec field
# ----------------------------------------------------------------------
def _json_field(value):
    if isinstance(value, FaultWindow):
        return value.to_dict()
    return value.value if isinstance(value, FaultType) else value


def _key_token(value) -> str:
    if isinstance(value, FaultWindow):
        return value.to_token()
    value = _json_field(value)
    return _number_token(value) if isinstance(value, float) else str(value)


_FIELD_DECODERS = {"fault_type": FaultType, "window": FaultWindow.from_dict}


def _decode_field(name: str, value):
    decoder = _FIELD_DECODERS.get(name)
    return value if decoder is None else decoder(value)


# ----------------------------------------------------------------------
# I/O-path faults
# ----------------------------------------------------------------------
IO_MODES = ("error", "short", "delay")

# errno-style failure names and the ops each may target.  File ops are
# kernel32 exports; ``net.*`` ops name the transport fabric itself.
FILE_IO_OPS = ("CreateFileA", "ReadFile", "WriteFile")
NET_IO_OPS = ("net.connect", "net.send", "net.recv")
IO_OPS = FILE_IO_OPS + NET_IO_OPS

FILE_ERRNOS = ("EIO", "ENOSPC", "EACCES")
NET_ERRNOS = ("ECONNREFUSED", "ECONNRESET")
IO_ERRNOS = FILE_ERRNOS + NET_ERRNOS

# The sensible error set per op (what the default fault list enumerates
# and what the lint fault-space rule accepts for ERROR mode).
IO_ERROR_CHOICES = {
    "CreateFileA": ("EACCES", "ENOSPC"),
    "ReadFile": ("EIO",),
    "WriteFile": ("EIO", "ENOSPC"),
    "net.connect": ("ECONNREFUSED",),
    "net.send": ("ECONNRESET",),
    "net.recv": ("ECONNRESET",),
}

# Ops whose byte-count argument a SHORT fault truncates.
SHORT_IO_OPS = ("ReadFile", "WriteFile")

# The default sustained fault spaces enumerate every fault over these
# windows, with one short ratio and one delay per op.
DEFAULT_WINDOWS = (FaultWindow("calls", 1, 100),
                   FaultWindow("time", 5.0, 60.0))
DEFAULT_SHORT_RATIO = 0.5
DEFAULT_IO_DELAY = 1.0


class IoFault(FaultFamily):
    """One sustained I/O-path fault.

    ``mode="error"``: every targeted op inside the window fails with
    the Win32 mapping of ``value`` (an errno name); ``mode="short"``:
    the op's byte count is truncated to ``floor(count * value)``
    (short read / partial write); ``mode="delay"``: every targeted op
    takes ``value`` extra sim-seconds.  All effects are deterministic
    — no random draws — so runs stay bit-reproducible.
    """

    __slots__ = ("op", "mode", "value", "window")

    family = "io"
    mechanism = "io"
    label = "I/O-path faults"
    axis = "io op"
    axis_names = IO_OPS

    def __init__(self, op: str, mode: str, value,
                 window: "FaultWindow" = None):
        if op not in IO_OPS:
            raise ValueError(f"unknown io op {op!r} "
                             f"(legal: {', '.join(IO_OPS)})")
        if mode not in IO_MODES:
            raise ValueError(f"unknown io fault mode {mode!r} "
                             f"(legal: {', '.join(IO_MODES)})")
        if mode == "error":
            if value not in IO_ERRNOS:
                raise ValueError(f"unknown errno {value!r} "
                                 f"(legal: {', '.join(IO_ERRNOS)})")
            # Each op's choices hold only errnos of its own kind (file
            # or network).
            legal = IO_ERROR_CHOICES[op]
            if value not in legal:
                raise ValueError(f"{op} cannot fail with {value} "
                                 f"(legal: {', '.join(legal)})")
        elif mode == "short":
            if op not in SHORT_IO_OPS:
                raise ValueError(f"short I/O applies to "
                                 f"{', '.join(SHORT_IO_OPS)}; got {op!r}")
            value = float(value)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"short ratio must be in [0, 1), "
                                 f"got {value}")
        else:  # delay
            value = float(value)
            if value <= 0.0:
                raise ValueError(f"delay must be positive, got {value}")
        self.op = op
        self.mode = mode
        self.value = value
        self.window = window if window is not None else FaultWindow()

    # ------------------------------------------------------------------
    @property
    def function(self) -> str:
        """Planner grouping name — the targeted op."""
        return self.op

    @property
    def profile_gate(self):
        """Transport ops have no kernel32 footprint: always probe."""
        return None if self.op in NET_IO_OPS else self.op

    @property
    def key(self) -> tuple:
        return ("io", self.op, self.mode, self.value) + self.window.key

    def __repr__(self) -> str:
        return (f"<IoFault {self.op} {self.mode}={self.value} "
                f"{self.window.to_token()}>")

    def injector(self, target_role: str, registry):
        from .windowed import IoInjector

        return IoInjector(self, target_role)

    @staticmethod
    def fault_space(functions=None, fault_types=None, invocations=None,
                    registry=None) -> list[IoFault]:
        """Per op (``functions``, default every op) and default window:
        every sensible errno, then a short-I/O ratio where the op has a
        byte count, then a per-call delay.  Order is canonical — the
        planner and the census rely on it."""
        faults = []
        for op in functions if functions is not None else IO_OPS:
            for window in DEFAULT_WINDOWS:
                for errno in IO_ERROR_CHOICES[op]:
                    faults.append(IoFault(op, "error", errno, window))
                if op in SHORT_IO_OPS:
                    faults.append(IoFault(op, "short", DEFAULT_SHORT_RATIO,
                                          window))
                faults.append(IoFault(op, "delay", DEFAULT_IO_DELAY, window))
        return faults


# ----------------------------------------------------------------------
# Resource-exhaustion faults
# ----------------------------------------------------------------------
RESOURCE_KINDS = ("memory", "handles", "cpu")

# Per resource: full exhaustion (or a heavy tax) plus a partial tier.
DEFAULT_SEVERITIES = {"memory": (1.0, 0.5),
                      "handles": (1.0, 0.5),
                      "cpu": (8.0, 3.0)}


class ResourceFault(FaultFamily):
    """One sustained resource-exhaustion fault.

    ``resource="memory"``: a fraction ``severity`` of the target
    role's heap/virtual allocations fail with
    ``ERROR_NOT_ENOUGH_MEMORY`` while the window is open (1.0: every
    allocation).  ``resource="handles"``: the same fraction of
    handle-allocating calls (``Create*``/``Open*``/...) fail with
    ``ERROR_NO_SYSTEM_RESOURCES`` — exhaustion modelled at the API
    boundary, where a full handle table surfaces.  ``resource="cpu"``:
    a scheduler tax — CPU-bound service times are multiplied by
    ``severity`` (> 1) for the window's duration.

    Sub-1.0 severities are applied with a deterministic error-diffusion
    counter (the first ``n`` affected operations fail exactly
    ``floor(n * severity)`` times), never a random draw.
    """

    __slots__ = ("resource", "severity", "window")

    family = "resource"
    mechanism = "resource"
    label = "resource exhaustion"
    axis = "resource"
    axis_names = RESOURCE_KINDS

    def __init__(self, resource: str, severity, window: "FaultWindow" = None):
        if resource not in RESOURCE_KINDS:
            raise ValueError(f"unknown resource {resource!r} "
                             f"(legal: {', '.join(RESOURCE_KINDS)})")
        severity = float(severity)
        if resource == "cpu":
            if severity <= 1.0:
                raise ValueError(f"cpu tax must exceed 1.0, got {severity}")
        elif not 0.0 < severity <= 1.0:
            raise ValueError(f"{resource} severity must be in (0, 1], "
                             f"got {severity}")
        self.resource = resource
        self.severity = severity
        self.window = window if window is not None else FaultWindow()

    # ------------------------------------------------------------------
    @property
    def function(self) -> str:
        """Planner grouping name (synthetic — not a kernel32 export)."""
        return f"resource:{self.resource}"

    # Resource pressure has no single gating export: probe
    # unconditionally and let activation decide.
    profile_gate = None

    @property
    def key(self) -> tuple:
        return ("resource", self.resource, self.severity) + self.window.key

    def __repr__(self) -> str:
        return (f"<ResourceFault {self.resource} x{self.severity:g} "
                f"{self.window.to_token()}>")

    def injector(self, target_role: str, registry):
        from .windowed import ResourceInjector

        return ResourceInjector(self, target_role)

    @staticmethod
    def fault_space(functions=None, fault_types=None, invocations=None,
                    registry=None) -> list[ResourceFault]:
        """Per resource (``functions``, default every kind) and default
        window, every default severity."""
        return [ResourceFault(resource, severity, window)
                for resource in (functions if functions is not None
                                 else RESOURCE_KINDS)
                for window in DEFAULT_WINDOWS
                for severity in DEFAULT_SEVERITIES[resource]]


# ----------------------------------------------------------------------
# The family table
# ----------------------------------------------------------------------
# Every family in presentation order (the paper's mechanism first),
# keyed by family name (``param``) and mechanism name (``parameter``).
FAMILY_SPECS = (FaultSpec, ReturnFaultSpec, IoFault, ResourceFault)
FAMILIES = {name: spec for spec in FAMILY_SPECS
            for name in (spec.family, spec.mechanism)}


def fault_family(name: str) -> type:
    """The spec class of a family or mechanism name."""
    spec = FAMILIES.get(name)
    if spec is None:
        legal = ", ".join(spec.mechanism for spec in FAMILY_SPECS)
        raise ValueError(f"unknown mechanism {name!r} (want one of {legal})")
    return spec

