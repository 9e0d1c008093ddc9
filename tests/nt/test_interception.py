"""Tests for the interception layer (the SWIFI mechanism)."""

from repro.nt import Buffer, Machine, OutCell
from repro.nt.kernel32 import constants as k
from repro.nt.kernel32.signatures import get_signature
from repro.trace import Tracer

from .conftest import ScriptedProgram


class RecordingHook:
    def __init__(self):
        self.calls = []

    def on_call(self, process, sig, invocation, raw_args):
        self.calls.append((process.role, sig.name, invocation))
        return None


class CorruptingHook:
    """Zeroes one parameter of one function at a chosen invocation."""

    def __init__(self, func, param_index, invocation=1):
        self.func = func
        self.param_index = param_index
        self.invocation = invocation
        self.fired = False

    def on_call(self, process, sig, invocation, raw_args):
        if sig.name != self.func or invocation != self.invocation:
            return None
        self.fired = True
        mutated = list(raw_args)
        mutated[self.param_index] = 0
        return tuple(mutated)


def test_hooks_observe_every_call(machine, run_program):
    hook = RecordingHook()
    machine.interception.add_hook(hook)

    def body(ctx):
        yield from ctx.k32.GetTickCount()
        yield from ctx.k32.GetTickCount()

    run_program(body)
    names = [(name, invocation) for _role, name, invocation in hook.calls]
    assert names == [("GetTickCount", 1), ("GetTickCount", 2)]


def test_invocation_counter_is_per_process(machine):
    hook = RecordingHook()
    machine.interception.add_hook(hook)

    class Prog:
        image_name = "p.exe"

        def main(self, ctx):
            yield from ctx.k32.GetTickCount()

    machine.processes.spawn(Prog(), role="a")
    machine.processes.spawn(Prog(), role="b")
    machine.engine.run(until=1.0)
    assert [(r, i) for r, _n, i in hook.calls] == [("a", 1), ("b", 1)]


def test_hook_corruption_changes_call_outcome(machine, run_program):
    # Zero the lpName parameter of CreateEventA: NULL is *legal* there,
    # so the call still succeeds — the silent-absorption case.
    machine.interception.add_hook(CorruptingHook("CreateEventA", 3))

    def body(ctx):
        return (yield from ctx.k32.CreateEventA(None, True, False, "Named"))

    process, program = run_program(body)
    assert program.result != 0
    assert not process.crashed
    assert "Named" not in machine.named_objects  # the name was corrupted away


def test_hook_corruption_can_crash_process(machine, run_program):
    # Zeroing a required string pointer faults.
    hook = CorruptingHook("CreateFileA", 0)
    machine.interception.add_hook(hook)
    machine.fs.write_file("c:\\f.txt", b"x")

    def body(ctx):
        yield from ctx.k32.CreateFileA("c:\\f.txt", k.GENERIC_READ, 0, None,
                                       k.OPEN_EXISTING, 0, None)

    process, _ = run_program(body)
    assert hook.fired
    assert process.crashed


def test_called_functions_tracked_per_role(machine, run_program):
    def body(ctx):
        yield from ctx.k32.GetTickCount()
        yield from ctx.k32.GetVersion()

    run_program(body, role="apache1")
    assert machine.interception.called_functions("apache1") == {
        "GetTickCount", "GetVersion"}
    assert machine.interception.called_functions("other") == set()
    assert machine.interception.roles_seen() == {"apache1"}


def test_call_counts(machine, run_program):
    def body(ctx):
        for _ in range(3):
            yield from ctx.k32.GetTickCount()

    run_program(body)
    assert machine.interception.call_count("GetTickCount") == 3
    assert machine.interception.call_count("GetVersion") == 0


class TotalCallsHook:
    """Records the machine-wide call count each ``on_call`` sees."""

    def __init__(self, interception):
        self.interception = interception
        self.seen = []

    def on_call(self, process, sig, invocation, raw_args):
        self.seen.append(self.interception.total_calls)
        return None


def test_total_calls_counts_a_call_after_its_hooks(machine):
    # Inside on_call the call in flight is not yet counted (the
    # injector's call_index is total_calls + 1), and the per-function
    # total is the sum of the per-process invocation counters.
    hook = TotalCallsHook(machine.interception)
    machine.interception.add_hook(hook)

    class Prog:
        image_name = "p.exe"

        def main(self, ctx):
            yield from ctx.k32.GetTickCount()
            yield from ctx.k32.GetVersion()
            yield from ctx.k32.GetTickCount()

    processes = [machine.processes.spawn(Prog(), role=role)
                 for role in ("a", "b")]
    machine.engine.run(until=1.0)
    interception = machine.interception
    assert hook.seen == list(range(6))
    assert interception.total_calls == 6
    for func, total in (("GetTickCount", 4), ("GetVersion", 2)):
        assert interception.call_count(func) == total == sum(
            interception.invocation_count(process.pid, func)
            for process in processes)


def test_trace_records_injection_flag():
    machine = Machine(seed=42, tracer=Tracer("calls"))
    machine.interception.add_hook(CorruptingHook("Sleep", 0))

    def body(ctx):
        yield from ctx.k32.Sleep(100)
        yield from ctx.k32.Sleep(100)

    machine.processes.spawn(ScriptedProgram(body), role="test")
    machine.engine.run(until=600.0)
    sleep_enters = [event.data for event in machine.tracer.events
                    if event.category == "call" and event.name == "enter"
                    and event.data["func"] == "Sleep"]
    assert [data["injected"] for data in sleep_enters] == [True, False]
    assert [data["invocation"] for data in sleep_enters] == [1, 2]
    assert {data["role"] for data in sleep_enters} == {"test"}


def test_remove_hook(machine, run_program):
    hook = RecordingHook()
    machine.interception.add_hook(hook)
    machine.interception.remove_hook(hook)
    machine.interception.remove_hook(hook)  # idempotent

    def body(ctx):
        yield from ctx.k32.GetTickCount()

    run_program(body)
    assert hook.calls == []


def test_signature_lookup_matches_dispatch():
    sig = get_signature("ReadFile")
    assert sig.param_count == 5
    assert sig.params[2].name == "nNumberOfBytesToRead"
