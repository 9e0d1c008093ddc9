"""NT process lifecycle on top of the simulation kernel.

An :class:`NTProcess` bundles one *main thread* (a generator program)
plus any threads it creates, a parent/child tree, an exit code, and a
waitable :class:`ProcessObject` other processes can obtain handles to.

Crash semantics follow NT:

- an unhandled :class:`~repro.nt.errors.StructuredException` in *any*
  thread terminates the whole process with that NTSTATUS as exit code;
- ``ExitProcess`` ends the process with the given code;
- termination (ours or ``TerminateProcess``) cascades to child
  processes, standing in for the job-object/console-group teardown the
  real workloads exhibit (an Apache master takes its child down).

Any *other* Python exception escaping a program is a bug in the
simulation itself and is re-raised loudly rather than recorded as a
crash, so harness defects cannot masquerade as injection outcomes.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Optional, Protocol

from ..sim import SimEvent, SimProcess
from .errors import ProcessExit, StructuredException, ThreadExit
from .handles import KernelObject
from .objects import TlsSlots

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .machine import Machine
    from .context import Win32Context


class Program(Protocol):
    """What the process manager runs: anything with a ``main`` generator."""

    image_name: str

    def main(self, ctx: "Win32Context"):  # pragma: no cover - protocol
        ...


class HarnessError(RuntimeError):
    """A simulated program raised a non-simulated exception (our bug)."""


class ProcessObject(KernelObject):
    """The kernel object a process handle refers to; signaled on exit."""

    kind = "process"

    def __init__(self, process: "NTProcess"):
        super().__init__(process.image_name)
        self.process = process

    @property
    def signaled_now(self) -> bool:
        return not self.process.alive

    def wait_event(self) -> SimEvent:
        # A fresh per-waiter event chained to the exit event: waiters
        # that time out poison only their own event, never the shared
        # process-exit latch.
        event = SimEvent(f"{self.name}.wait")
        self.process.exit_event.add_waiter(event.succeed)
        return event


class NTProcess:
    """A simulated NT process."""

    def __init__(self, machine: "Machine", program: Program, role: str,
                 parent: Optional["NTProcess"], command_line: str):
        self.machine = machine
        self.program = program
        self.role = role
        self.parent = parent
        self.command_line = command_line
        self.pid = machine.allocate_pid()
        self.image_name = getattr(program, "image_name", type(program).__name__)
        self.children: list[NTProcess] = []
        self.threads: list[SimProcess] = []
        self.exit_code: Optional[int] = None
        self.crashed = False
        # True when something *else* ended this process (TerminateProcess,
        # middleware stop, harness teardown) rather than its own program
        # returning or calling ExitProcess.  The transport's connection
        # hygiene check uses this to tell leaked connections from
        # connections torn down by the fault model.
        self.terminated_externally = False
        self.exit_event = SimEvent(f"{self.image_name}:{self.pid}.exit")
        self.last_error = 0
        self.tls = TlsSlots()
        self.environment: dict[str, str] = dict(
            parent.environment if parent is not None else machine.base_environment
        )
        self.kernel_object = ProcessObject(self)
        self.suspended = False
        # Lazily-created default heap (see impl_memory.GetProcessHeap).
        self._default_heap = None
        self._default_heap_handle = 0
        self._ending = False
        self._thread_seq = itertools.count(1)
        # The main thread's context (kept for end-of-run teardown).
        self.context = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self.exit_code is None

    def __repr__(self) -> str:
        state = "alive" if self.alive else f"exited({self.exit_code})"
        return f"<NTProcess {self.image_name} pid={self.pid} role={self.role} {state}>"

    # ------------------------------------------------------------------
    # Threads
    # ------------------------------------------------------------------
    def start_main_thread(self) -> None:
        from .context import Win32Context  # local import: cycle with context

        # Programs may declare an alternative context class (the Linux
        # port's programs use PosixContext); the default is Win32.
        context_class = getattr(self.program, "context_class", Win32Context)
        ctx = self.context = context_class(self.machine, self)
        self._spawn_thread(self.program.main(ctx), "main", is_main=True)

    def spawn_thread(self, generator) -> SimProcess:
        """Start an additional thread (``CreateThread``)."""
        return self._spawn_thread(
            generator, f"t{next(self._thread_seq)}", is_main=False
        )

    def _spawn_thread(self, generator, label: str, is_main: bool) -> SimProcess:
        thread = SimProcess(
            self.machine.engine,
            self._thread_wrapper(generator, is_main),
            name=f"{self.image_name}:{self.pid}:{label}",
        )
        self.threads.append(thread)
        thread.done.add_waiter(lambda _value, t=thread: self._surface_bug(t))
        thread.start()
        return thread

    @staticmethod
    def _surface_bug(thread: SimProcess) -> None:
        """Re-raise harness bugs out of the engine instead of burying
        them as a quiet thread failure."""
        if isinstance(thread.error, HarnessError):
            raise thread.error

    def _thread_wrapper(self, generator, is_main: bool):
        """Translate program-level endings into NT process semantics."""
        try:
            yield from generator
        except ProcessExit as exit_signal:
            self._terminate(exit_signal.code, crashed=False)
            return
        except ThreadExit as exit_signal:
            if is_main:
                self._terminate(exit_signal.code, crashed=False)
            return
        except StructuredException as fault:
            # Unhandled SEH exception in any thread kills the process.
            self._terminate(fault.status, crashed=True)
            return
        except GeneratorExit:
            raise
        except Exception as bug:
            raise HarnessError(
                f"simulated program {self.image_name!r} raised {bug!r}"
            ) from bug
        if is_main:
            # Main thread returning ends the process with code 0;
            # worker threads just end.
            self._terminate(0, crashed=False)

    # ------------------------------------------------------------------
    # Termination
    # ------------------------------------------------------------------
    def terminate(self, exit_code: int = 1) -> None:
        """Kill from outside (``TerminateProcess`` / middleware stop)."""
        if self.alive:
            self.terminated_externally = True
        self._terminate(exit_code, crashed=False)

    def crash(self, status: int) -> None:
        """Kill as if an unhandled structured exception occurred."""
        self._terminate(status, crashed=True)

    def _terminate(self, exit_code: int, crashed: bool) -> None:
        if self._ending or not self.alive:
            return
        self._ending = True
        self.exit_code = exit_code
        self.crashed = crashed
        for thread in self.threads:
            if thread.alive:
                thread.kill(f"process {self.pid} exiting")
        for child in list(self.children):
            if child.alive:
                child.terminate(exit_code=1)
        # Kernel-level death bookkeeping (the SCM's exit waiter marking
        # the service stopped) must precede the network-level resets:
        # observers woken by a connection reset may immediately query
        # the SCM and must not see a stale RUNNING state.
        self.exit_event.succeed(exit_code)
        self.machine.on_process_exit(self)

    def release(self) -> None:
        """End-of-run teardown of a dead process: drop the links that
        point back up the machine graph (to the machine, the parent,
        the context and the process's own kernel object), so that
        refcounting frees the process with its machine."""
        ctx, self.context = self.context, None
        if ctx is not None:
            # The context holds the machine, the process, and its export
            # proxy, which holds the process again (and its call books).
            vars(ctx).clear()
        for thread in self.threads:
            thread.release()
        self.machine = None
        self.parent = None
        self.kernel_object.process = None


class ProcessManager:
    """Creates processes and resolves program images."""

    def __init__(self, machine: "Machine"):
        self.machine = machine
        self.processes: list[NTProcess] = []
        self._images: dict[str, tuple[Callable[[str], Program], str]] = {}

    # ------------------------------------------------------------------
    # Image registry (stands in for executables on disk)
    # ------------------------------------------------------------------
    def register_image(self, image_name: str,
                       factory: Callable[[str], Program],
                       role: str) -> None:
        """Associate an image name with ``factory(command_line) -> Program``.

        ``role`` labels every process spawned from this image; the fault
        injector targets processes by role (e.g. ``apache1`` vs
        ``apache2``).
        """
        self._images[image_name.lower()] = (factory, role)

    def has_image(self, image_name: str) -> bool:
        return image_name.lower() in self._images

    def create_from_image(self, image_name: str, command_line: str,
                          parent: Optional[NTProcess] = None,
                          suspended: bool = False) -> Optional[NTProcess]:
        """``CreateProcess`` path: instantiate a registered image."""
        entry = self._images.get(image_name.lower())
        if entry is None:
            return None
        factory, role = entry
        program = factory(command_line)
        return self.spawn(program, role=role, parent=parent,
                          command_line=command_line, suspended=suspended)

    # ------------------------------------------------------------------
    # Spawning
    # ------------------------------------------------------------------
    def spawn(self, program: Program, role: str,
              parent: Optional[NTProcess] = None,
              command_line: str = "",
              suspended: bool = False) -> NTProcess:
        """Create and start a process running ``program``.

        ``suspended`` models ``CREATE_SUSPENDED``: the process exists
        but its main thread never runs until :meth:`resume` is called —
        which, for a corrupted creation-flags word, may be never.
        """
        process = NTProcess(self.machine, program, role, parent, command_line)
        self.processes.append(process)
        if parent is not None:
            parent.children.append(process)
        process.suspended = suspended
        if not suspended:
            process.start_main_thread()
        return process

    @staticmethod
    def resume(process: NTProcess) -> None:
        """Start the main thread of a ``CREATE_SUSPENDED`` process."""
        if process.suspended and not process.threads and process.alive:
            process.suspended = False
            process.start_main_thread()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def find_by_pid(self, pid: int) -> Optional[NTProcess]:
        for process in self.processes:
            if process.pid == pid:
                return process
        return None

    def live_processes(self) -> list[NTProcess]:
        return [p for p in self.processes if p.alive]

    def processes_with_role(self, role: str) -> list[NTProcess]:
        return [p for p in self.processes if p.role == role]

    def terminate_all(self) -> None:
        """End-of-run cleanup: kill everything still alive."""
        for process in self.live_processes():
            process.terminate(exit_code=1)
