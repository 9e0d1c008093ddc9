"""One call handler per export, shared by every process.

``repro.nt.context.build_call_handler`` compiles each export's handler
once and caches it on the signature; ``ctx.k32.X`` is that handler
bound to the calling context, and everything per-process (machine,
process, hooks, counters, tracer) is read from the context at call
time.
"""

import pytest

from repro.nt import Machine
from repro.nt.context import UnknownExportError, Win32Context
from repro.nt.kernel32.signatures import REGISTRY
from repro.posix import LIBC_REGISTRY, PosixContext
from repro.posix.context import UnknownLibcExportError

from .conftest import ScriptedProgram


def _run(body, machine=None, role="test", context_class=None):
    machine = machine if machine is not None else Machine(seed=42)
    program = ScriptedProgram(body)
    if context_class is not None:
        program.context_class = context_class
    process = machine.processes.spawn(program, role=role)
    machine.engine.run(until=60.0)
    return machine, process, program.result


def _call_tick(ctx):
    call = ctx.k32.GetTickCount
    yield from call()
    return call


class RecordingHook:
    def __init__(self):
        self.calls = []

    def on_call(self, process, sig, invocation, raw_args):
        self.calls.append((process.pid, sig.name, invocation))
        return None


def test_processes_on_different_machines_share_one_handler():
    _, _, first = _run(_call_tick)
    _, _, second = _run(_call_tick, Machine(seed=7))
    assert first.__func__ is second.__func__
    assert first.__func__ is REGISTRY["GetTickCount"]._dispatch
    assert first.__self__ is not second.__self__  # each bound to its ctx


def test_hook_added_after_compilation_fires_on_the_next_machine():
    _, _, compiled = _run(_call_tick)
    machine = Machine(seed=42)
    hook = RecordingHook()
    machine.interception.add_hook(hook)
    _, process, call = _run(_call_tick, machine)
    assert call.__func__ is compiled.__func__
    assert hook.calls == [(process.pid, "GetTickCount", 1)]


def test_a_process_that_makes_no_call_records_nothing():
    def touch_only(ctx):
        ctx.k32.GetTickCount  # bound, never called
        yield from ctx.compute(0.01)

    machine, _, _ = _run(touch_only, role="idle")
    assert machine.interception.roles_seen() == set()
    assert machine.interception._invocations == {}


def test_libc_and_k32_handlers_are_distinct():
    def k32_pid(ctx):
        call = ctx.k32.GetCurrentProcessId
        yield from call()
        return call

    def libc_pid(ctx):
        call = ctx.libc.getpid
        yield from call()
        return call

    _, _, k32_call = _run(k32_pid)
    _, _, libc_call = _run(libc_pid, context_class=PosixContext)
    assert k32_call.__func__ is not libc_call.__func__
    assert REGISTRY["GetCurrentProcessId"]._dispatch is k32_call.__func__
    assert LIBC_REGISTRY["getpid"]._dispatch is libc_call.__func__


def test_missing_exports_keep_their_messages():
    k32 = Win32Context(Machine(seed=1), None).k32
    with pytest.raises(UnknownExportError,
                       match=r"^KERNEL32\.dll has no export 'NoSuchExport'$"):
        k32.NoSuchExport
    assert not hasattr(k32, "NoSuchExport")  # still an AttributeError
    libc = PosixContext(Machine(seed=1), None).libc
    with pytest.raises(UnknownLibcExportError,
                       match=r"^libc has no export 'no_such_export'$"):
        libc.no_such_export
    assert not hasattr(libc, "no_such_export")
