"""Simulated Windows NT 4.0 substrate.

The pieces compose into a :class:`Machine`: processes and threads,
handles and kernel objects, a 681-export KERNEL32 with an interception
layer (the SWIFI mechanism), the Service Control Manager with its
pending-state database lock, the event log, and an in-memory
filesystem.
"""

from . import kernel32
from .context import Win32Context
from .errors import (
    AccessViolation,
    HeapCorruption,
    ProcessExit,
    StructuredException,
    ThreadExit,
    error_name,
)
from .eventlog import EventLog, EventRecord, EventType
from .filesystem import FileSystem
from .handles import HandleTable, KernelObject
from .interception import CallHook, InterceptionLayer
from .machine import Machine
from .memory import AddressSpace, Buffer, CString, OutCell, WordArray
from .objects import (
    ConsoleObject,
    EventObject,
    FileObject,
    HeapObject,
    MutexObject,
    SemaphoreObject,
    StartupInfo,
    ThreadEntry,
    ThreadObject,
)
from .process_manager import (
    HarnessError,
    NTProcess,
    ProcessManager,
    ProcessObject,
    Program,
)
from .scm import Service, ServiceControlManager, ServiceState

__all__ = [
    "Machine",
    "Win32Context",
    "kernel32",
    "NTProcess",
    "ProcessManager",
    "ProcessObject",
    "Program",
    "HarnessError",
    "ServiceControlManager",
    "Service",
    "ServiceState",
    "EventLog",
    "EventRecord",
    "EventType",
    "FileSystem",
    "HandleTable",
    "KernelObject",
    "InterceptionLayer",
    "CallHook",
    "AddressSpace",
    "Buffer",
    "CString",
    "OutCell",
    "WordArray",
    "EventObject",
    "MutexObject",
    "SemaphoreObject",
    "FileObject",
    "HeapObject",
    "ConsoleObject",
    "ThreadEntry",
    "ThreadObject",
    "StartupInfo",
    "StructuredException",
    "AccessViolation",
    "HeapCorruption",
    "ProcessExit",
    "ThreadExit",
    "error_name",
]
