"""Process, thread and TLS API implementations.

``CreateProcessA`` is the pivotal call for the Apache workload (the
master spawns its child worker here) and for CGI requests.  Its
corruption semantics follow NT:

- NULL/wild ``lpStartupInfo`` or ``lpProcessInformation`` → access
  violation in the *calling* process;
- both name arguments NULL → ``ERROR_INVALID_PARAMETER``;
- an all-ones creation-flags word → ``ERROR_INVALID_PARAMETER``
  (contradictory flag combinations are rejected);
- a flipped flags word that turns on ``CREATE_SUSPENDED`` → the child
  is created but never scheduled: the parent believes the spawn
  succeeded while no worker ever serves a request.

``TerminateProcess`` honours the NT pseudo-handle: corrupting a child
handle to all-ones makes a process terminate *itself*.
"""

from __future__ import annotations

from ..errors import (
    ERROR_FILE_NOT_FOUND,
    ERROR_INVALID_HANDLE,
    ERROR_INVALID_PARAMETER,
    INVALID_HANDLE_VALUE,
    ProcessExit,
    StructuredException,
    ThreadExit,
)
from ..memory import AccessViolation, CString, OutCell
from ..objects import ThreadEntry, ThreadObject
from . import constants as k
from .runtime import Frame, k32impl


def _resolve_image(app_name, command_line) -> tuple[str, str]:
    """Pick the executable image and the effective command line."""
    if app_name:
        return app_name, command_line or app_name
    first, _, _rest = (command_line or "").partition(" ")
    return first, command_line


@k32impl("CreateProcessA")
def create_process_a(frame: Frame) -> int:
    app_name = frame.opt_string(0)
    command_line = frame.opt_string(1)
    frame.opt_pointer(2)  # process attributes
    frame.opt_pointer(3)  # thread attributes
    frame.boolean(4)      # bInheritHandles (accepted silently)
    flags = frame.uint(5)
    frame.opt_pointer(6)  # environment block
    frame.opt_string(7)   # current directory
    frame.pointer(8)      # STARTUPINFO — required; NULL/wild faults
    proc_info = frame.out_cell(9)

    if app_name is None and not command_line:
        return frame.fail(ERROR_INVALID_PARAMETER)
    if flags == 0xFFFFFFFF:
        # All-ones combines mutually exclusive creation flags.
        return frame.fail(ERROR_INVALID_PARAMETER)
    suspended = bool(flags & k.CREATE_SUSPENDED)

    image, effective_cmdline = _resolve_image(app_name, command_line)
    child = frame.machine.processes.create_from_image(
        image, effective_cmdline, parent=frame.process, suspended=suspended,
    )
    if child is None:
        return frame.fail(ERROR_FILE_NOT_FOUND)
    process_handle = frame.new_handle(child.kernel_object)
    thread_handle = frame.new_handle(
        ThreadObject(child.threads[0] if child.threads else None,
                     name=f"{child.image_name}:main")
    )
    proc_info.value = {
        "hProcess": process_handle,
        "hThread": thread_handle,
        "dwProcessId": child.pid,
        "dwThreadId": child.pid + 1,
    }
    return frame.succeed(1)


@k32impl("ExitProcess")
def exit_process(frame: Frame) -> int:
    raise ProcessExit(frame.uint(0))


@k32impl("TerminateProcess")
def terminate_process(frame: Frame) -> int:
    target = frame.process_handle(0)
    code = frame.uint(1)
    if target is None:
        return frame.fail(ERROR_INVALID_HANDLE)
    if target is frame.process:
        raise ProcessExit(code)
    target.terminate(code)
    return frame.succeed(1)


@k32impl("GetExitCodeProcess")
def get_exit_code_process(frame: Frame) -> int:
    target = frame.process_handle(0)
    cell = frame.out_cell(1)
    if target is None:
        return frame.fail(ERROR_INVALID_HANDLE)
    cell.value = k.STILL_ACTIVE if target.alive else target.exit_code
    return frame.succeed(1)


@k32impl("OpenProcess")
def open_process(frame: Frame) -> int:
    frame.uint(0)
    frame.boolean(1)
    pid = frame.uint(2)
    target = frame.machine.processes.find_by_pid(pid)
    if target is None:
        return frame.fail(ERROR_INVALID_PARAMETER, 0)
    return frame.succeed(frame.new_handle(target.kernel_object))


@k32impl("GetCurrentProcess")
def get_current_process(frame: Frame) -> int:
    return k.CURRENT_PROCESS_PSEUDO_HANDLE


@k32impl("GetCurrentProcessId")
def get_current_process_id(frame: Frame) -> int:
    return frame.process.pid


@k32impl("GetCurrentThread")
def get_current_thread(frame: Frame) -> int:
    return k.CURRENT_THREAD_PSEUDO_HANDLE


@k32impl("GetCurrentThreadId")
def get_current_thread_id(frame: Frame) -> int:
    return frame.process.pid + 1


@k32impl("CreateThread")
def create_thread(frame: Frame) -> int:
    frame.opt_pointer(0)
    frame.uint(1)  # stack size (0 means default)
    entry_arg = frame.args[2]
    frame.opt_pointer(3)
    flags = frame.uint(4)
    tid_cell = frame.opt_out_cell(5)

    suspended = bool(flags & k.CREATE_SUSPENDED)
    entry = entry_arg.obj if isinstance(entry_arg.obj, ThreadEntry) else None
    if entry is None:
        # A corrupted start address: thread creation itself succeeds,
        # then the new thread faults at its first instruction and takes
        # the whole process down (NT semantics for an unhandled
        # exception in any thread).
        def crash_body():
            raise AccessViolation(entry_arg.raw, "execute")
            yield  # pragma: no cover - makes this a generator

        sim_thread = None
        if not suspended:
            sim_thread = frame.process.spawn_thread(crash_body())
        thread_obj = ThreadObject(sim_thread, name="bad-entry")
    else:
        sim_thread = None
        if not suspended:
            sim_thread = frame.process.spawn_thread(entry.body_factory())
        thread_obj = ThreadObject(sim_thread, name=entry.label)

    if tid_cell is not None:
        tid_cell.value = frame.process.pid + 2
    return frame.succeed(frame.new_handle(thread_obj))


@k32impl("ExitThread")
def exit_thread(frame: Frame) -> int:
    raise ThreadExit(frame.uint(0))


@k32impl("TerminateThread")
def terminate_thread(frame: Frame) -> int:
    thread_obj = frame.handle_object(0, ThreadObject)
    frame.uint(1)  # dwExitCode: accepted as-is, killed threads store none
    if thread_obj is None:
        return frame.fail(ERROR_INVALID_HANDLE)
    if thread_obj.sim_thread is not None and thread_obj.sim_thread.alive:
        thread_obj.sim_thread.kill("TerminateThread")
    return frame.succeed(1)


@k32impl("DuplicateHandle")
def duplicate_handle(frame: Frame) -> int:
    frame.process_handle(0)
    source = frame.machine.handles.resolve(frame.args[1].raw)
    frame.process_handle(2)
    cell = frame.out_cell(3)
    frame.uint(4)
    frame.boolean(5)
    frame.uint(6)
    if source is None:
        return frame.fail(ERROR_INVALID_HANDLE)
    cell.value = frame.new_handle(source)
    return frame.succeed(1)


@k32impl("GetStartupInfoA")
def get_startup_info_a(frame: Frame) -> int:
    cell = frame.pointer(0)
    if isinstance(cell, OutCell):
        cell.value = {"lpDesktop": "WinSta0\\Default", "dwFlags": 0}
    return 0


@k32impl("GetCommandLineA")
def get_command_line_a(frame: Frame) -> int:
    return frame.machine.address_space.intern(
        CString(frame.process.command_line)
    )


@k32impl("TlsAlloc")
def tls_alloc(frame: Frame) -> int:
    return frame.succeed(frame.process.tls.alloc())


@k32impl("TlsFree")
def tls_free(frame: Frame) -> int:
    if not frame.process.tls.free(frame.uint(0)):
        return frame.fail(ERROR_INVALID_PARAMETER)
    return frame.succeed(1)


@k32impl("TlsSetValue")
def tls_set_value(frame: Frame) -> int:
    index = frame.uint(0)
    if index not in frame.process.tls.values:
        return frame.fail(ERROR_INVALID_PARAMETER)
    frame.process.tls.values[index] = frame.args[1].raw
    return frame.succeed(1)


@k32impl("TlsGetValue")
def tls_get_value(frame: Frame) -> int:
    index = frame.uint(0)
    value = frame.process.tls.values.get(index)
    if value is None:
        return frame.fail(ERROR_INVALID_PARAMETER, 0)
    return frame.succeed(value)


@k32impl("SetPriorityClass")
def set_priority_class(frame: Frame) -> int:
    if frame.process_handle(0) is None:
        return frame.fail(ERROR_INVALID_HANDLE)
    frame.uint(1)
    return frame.succeed(1)


@k32impl("GetPriorityClass")
def get_priority_class(frame: Frame) -> int:
    if frame.process_handle(0) is None:
        return frame.fail(ERROR_INVALID_HANDLE, 0)
    return frame.succeed(k.NORMAL_PRIORITY_CLASS)


@k32impl("SetThreadPriority")
def set_thread_priority(frame: Frame) -> int:
    raw = frame.args[0].raw
    if raw != k.CURRENT_THREAD_PSEUDO_HANDLE and \
            frame.handle_object(0, ThreadObject) is None:
        return frame.fail(ERROR_INVALID_HANDLE)
    frame.uint(1)
    return frame.succeed(1)


@k32impl("ResumeThread")
def resume_thread(frame: Frame) -> int:
    thread_obj = frame.handle_object(0, ThreadObject)
    if thread_obj is None:
        return frame.fail(ERROR_INVALID_HANDLE, 0xFFFFFFFF)
    return frame.succeed(0)


@k32impl("WinExec")
def win_exec(frame: Frame) -> int:
    command = frame.string(0)
    frame.uint(1)
    image, cmdline = _resolve_image(None, command)
    child = frame.machine.processes.create_from_image(
        image, cmdline, parent=frame.process,
    )
    if child is None:
        return frame.fail(ERROR_FILE_NOT_FOUND, 2)
    return frame.succeed(33)  # >31 signals success for WinExec


@k32impl("RaiseException")
def raise_exception(frame: Frame) -> int:
    code = frame.uint(0)
    frame.uint(1)
    frame.uint(2)
    frame.opt_pointer(3)
    raise StructuredException(f"RaiseException(0x{code:08X})", status=code)
