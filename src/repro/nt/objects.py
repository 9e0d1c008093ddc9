"""Kernel object types referenced by handles.

These carry just enough semantics for the workloads: events and mutexes
support genuine blocking waits over the simulation engine, files expose
positioned reads over the in-memory filesystem, heaps track their
allocations so that freeing a corrupted pointer is detectable, and
process objects become signaled on exit (the mechanism ``watchd`` uses
to detect server death).
"""

from __future__ import annotations

from typing import Optional

from ..sim import SimEvent
from .handles import KernelObject


class Waitable(KernelObject):
    """Base for objects usable with the wait functions.

    A waitable exposes :meth:`wait_event`, returning a one-shot
    :class:`SimEvent` that fires when the object becomes signaled for
    this waiter.  Implementations decide latching semantics.
    """

    kind = "waitable"

    def wait_event(self) -> SimEvent:
        raise NotImplementedError

    @property
    def signaled_now(self) -> bool:
        raise NotImplementedError


class EventObject(Waitable):
    """NT event (manual-reset or auto-reset)."""

    kind = "event"

    def __init__(self, manual_reset: bool, initial_state: bool, name: str = ""):
        super().__init__(name)
        self.manual_reset = manual_reset
        self.signaled = initial_state
        self._waiters: list[SimEvent] = []

    @property
    def signaled_now(self) -> bool:
        return self.signaled

    def set(self) -> None:
        if self.manual_reset:
            self.signaled = True
            waiters, self._waiters = self._waiters, []
            for waiter in waiters:
                waiter.succeed(self)
            return
        # Auto-reset: release exactly one waiter, or latch until one arrives.
        while self._waiters:
            waiter = self._waiters.pop(0)
            if not waiter.fired:
                waiter.succeed(self)
                return
        self.signaled = True

    def reset(self) -> None:
        self.signaled = False

    def pulse(self) -> None:
        """Wake current waiters without latching (NT ``PulseEvent``)."""
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            waiter.succeed(self)

    def wait_event(self) -> SimEvent:
        event = SimEvent(f"event:{self.name}")
        if self.signaled:
            if not self.manual_reset:
                self.signaled = False
            event.succeed(self)
        else:
            self._waiters.append(event)
        return event


class MutexObject(Waitable):
    """NT mutex with ownership but without recursion counting subtleties."""

    kind = "mutex"

    def __init__(self, initially_owned: bool, owner_pid: Optional[int], name: str = ""):
        super().__init__(name)
        self.owner_pid = owner_pid if initially_owned else None
        self._waiters: list[tuple[SimEvent, int]] = []

    @property
    def signaled_now(self) -> bool:
        return self.owner_pid is None

    def acquire_event(self, pid: int) -> SimEvent:
        event = SimEvent(f"mutex:{self.name}")
        if self.owner_pid is None or self.owner_pid == pid:
            self.owner_pid = pid
            event.succeed(self)
        else:
            self._waiters.append((event, pid))
        return event

    def wait_event(self) -> SimEvent:  # pragma: no cover - mutex waits go via pid
        raise NotImplementedError("use acquire_event(pid)")

    def release(self, pid: int) -> bool:
        if self.owner_pid != pid:
            return False
        while self._waiters:
            event, waiter_pid = self._waiters.pop(0)
            if not event.fired:
                self.owner_pid = waiter_pid
                event.succeed(self)
                return True
        self.owner_pid = None
        return True


class SemaphoreObject(Waitable):
    """Counted semaphore."""

    kind = "semaphore"

    def __init__(self, initial: int, maximum: int, name: str = ""):
        super().__init__(name)
        self.count = initial
        self.maximum = maximum
        self._waiters: list[SimEvent] = []

    @property
    def signaled_now(self) -> bool:
        return self.count > 0

    def wait_event(self) -> SimEvent:
        event = SimEvent(f"sem:{self.name}")
        if self.count > 0:
            self.count -= 1
            event.succeed(self)
        else:
            self._waiters.append(event)
        return event

    def release(self, count: int = 1) -> Optional[int]:
        """Release; returns previous count, or None past the maximum."""
        previous = self.count
        if previous + count > self.maximum:
            return None
        remaining = count
        while remaining and self._waiters:
            event = self._waiters.pop(0)
            if not event.fired:
                event.succeed(self)
                remaining -= 1
        self.count += remaining
        return previous


class FileObject(KernelObject):
    """An open file over the in-memory filesystem.

    ``data`` is the filesystem's immutable ``bytes`` until the handle's
    first mutation (a write or ``SetEndOfFile``) copies it into a private
    ``bytearray``.  Most handles only read — the web workloads open their
    115 kB page on every static request — so opening copies nothing, and
    a write through one handle never shows through another.
    """

    kind = "file"

    def __init__(self, path: str, data: bytes, writable: bool,
                 readable: bool = True):
        super().__init__(path)
        self.path = path
        self.data = data
        self.writable = writable
        self.readable = readable
        self.position = 0
        self.deleted = False

    def _mutable(self) -> bytearray:
        """The handle's private copy, made on first use."""
        data = self.data
        if type(data) is not bytearray:
            data = self.data = bytearray(data)
        return data

    def read_into(self, dest: bytearray, count: int) -> int:
        """Read up to ``count`` bytes at the position into the start of
        ``dest`` and return how many were read.

        The bytes go straight from the file into ``dest``: one copy.
        ``dest`` must hold ``count`` bytes (the callers fault first).
        Bytes of ``dest`` beyond the read are unspecified; they are
        zeroed so a short (corrupted-length) read visibly changes the
        content checksum.
        """
        start = self.position
        # Assigned through a memoryview: a bytearray slice assignment
        # copies a non-bytearray source into a temporary first.
        with memoryview(self.data)[start:start + count] as chunk, \
                memoryview(dest) as target:
            read = len(chunk)
            target[:read] = chunk
            if read < len(target):
                target[read:] = bytes(len(target) - read)
        self.position = start + read
        return read

    def write(self, payload: bytes) -> int:
        data = self._mutable()
        end = self.position + len(payload)
        if end > len(data):
            data.extend(bytes(end - len(data)))
        data[self.position:end] = payload
        self.position = end
        return len(payload)

    def truncate(self) -> None:
        """Cut the file at the position (``SetEndOfFile``).  The access
        mask is not checked: a read-only handle truncates its own view."""
        del self._mutable()[self.position:]

    @property
    def size(self) -> int:
        return len(self.data)


class FindObject(KernelObject):
    """Directory enumeration state for ``FindFirstFile``/``FindNextFile``."""

    kind = "find"

    def __init__(self, matches: list[str]):
        super().__init__("find")
        self.matches = matches
        self.index = 0

    def next_match(self) -> Optional[str]:
        if self.index >= len(self.matches):
            return None
        match = self.matches[self.index]
        self.index += 1
        return match


class HeapObject(KernelObject):
    """A private heap tracking live allocation addresses."""

    kind = "heap"

    def __init__(self, name: str = "heap"):
        super().__init__(name)
        self.allocations: set[int] = set()
        self.destroyed = False


class FileMappingObject(KernelObject):
    """File-mapping section object."""

    kind = "file-mapping"

    def __init__(self, backing: Optional[FileObject], size: int, name: str = ""):
        super().__init__(name)
        self.backing = backing
        self.size = size


class PipeObject(KernelObject):
    """Anonymous pipe endpoint pair (modelled as one shared buffer)."""

    kind = "pipe"

    def __init__(self, name: str = "pipe"):
        super().__init__(name)
        self.buffer = bytearray()
        self.closed = False


class ThreadEntry:
    """A thread start address: wraps a zero-argument callable returning
    the thread's generator body.  Programs intern one of these and pass
    its address as ``lpStartAddress``; a corrupted address therefore
    starts a thread at garbage — which, as on NT, crashes the process."""

    def __init__(self, body_factory, label: str = "thread"):
        self.body_factory = body_factory
        self.label = label

    def __repr__(self) -> str:
        return f"<ThreadEntry {self.label}>"


class ThreadObject(Waitable):
    """Kernel object behind a thread handle; signaled when it ends."""

    kind = "thread"

    def __init__(self, sim_thread, name: str = "thread"):
        super().__init__(name)
        self.sim_thread = sim_thread

    @property
    def signaled_now(self) -> bool:
        return self.sim_thread is None or not self.sim_thread.alive

    def wait_event(self) -> SimEvent:
        done = SimEvent(f"{self.name}.wait")
        if self.sim_thread is None:
            done.succeed(None)
        else:
            # Per-waiter event (see ProcessObject.wait_event): timeout
            # poisoning must not fire the thread's shared done latch.
            self.sim_thread.done.add_waiter(done.succeed)
        return done


class ModuleObject(KernelObject):
    """A loaded library."""

    kind = "module"

    def __init__(self, path: str):
        super().__init__(path)
        self.path = path


class ProcStub:
    """An address returned by ``GetProcAddress``."""

    __slots__ = ("module", "proc_name")

    def __init__(self, module: str, proc_name: str):
        self.module = module
        self.proc_name = proc_name

    def __repr__(self) -> str:
        return f"<ProcStub {self.module}!{self.proc_name}>"


class ConsoleObject(KernelObject):
    """A console input/output handle target."""

    kind = "console"

    def __init__(self, name: str):
        super().__init__(name)
        self.written: list[bytes] = []


class StartupInfo:
    """``STARTUPINFO`` stand-in passed by pointer to CreateProcess."""

    __slots__ = ("desktop", "title", "flags")

    def __init__(self, title: str = "", flags: int = 0):
        self.desktop = "WinSta0\\Default"
        self.title = title
        self.flags = flags


class TlsSlots:
    """Per-process thread-local-storage slots (shared across simulated
    threads; the workloads only store process-global pointers there)."""

    def __init__(self) -> None:
        self._next = 1
        self.values: dict[int, int] = {}

    def alloc(self) -> int:
        index = self._next
        self._next += 1
        self.values[index] = 0
        return index

    def free(self, index: int) -> bool:
        return self.values.pop(index, None) is not None
