"""Tests for the interception layer (the SWIFI mechanism)."""

from repro.nt import Buffer, CallHook, Machine, OutCell
from repro.nt.kernel32 import constants as k
from repro.nt.kernel32.signatures import get_signature
from repro.trace import Tracer

from .conftest import ScriptedProgram


class RecordingHook(CallHook):
    def __init__(self):
        self.calls = []

    def on_call(self, process, sig, invocation, raw_args):
        self.calls.append((process.role, sig.name, invocation))
        return None


class CorruptingHook(CallHook):
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


class TotalCallsHook(CallHook):
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


class WatchingHook(RecordingHook):
    """A recording hook filed under the exports it names."""

    def __init__(self, *exports):
        super().__init__()
        self.exports = exports


class SelfRemovingHook(RecordingHook):
    """Records its first call, then unhooks itself from inside it."""

    def __init__(self, interception, exports=None):
        super().__init__()
        self.interception = interception
        if exports is not None:
            self.exports = exports

    def on_call(self, process, sig, invocation, raw_args):
        super().on_call(process, sig, invocation, raw_args)
        self.interception.remove_hook(self)
        return None


def test_a_hook_watching_an_export_never_sees_another(machine, run_program):
    watching = WatchingHook("GetVersion")
    every = RecordingHook()
    machine.interception.add_hook(watching)
    machine.interception.add_hook(every)

    def body(ctx):
        yield from ctx.k32.GetTickCount()
        yield from ctx.k32.GetVersion()
        yield from ctx.k32.GetTickCount()

    run_program(body)
    assert [name for _role, name, _inv in watching.calls] == ["GetVersion"]
    assert [name for _role, name, _inv in every.calls] == [
        "GetTickCount", "GetVersion", "GetTickCount"]


def test_a_hook_removing_itself_mid_scan_hides_the_call_from_no_other(
        machine, run_program):
    interception = machine.interception
    leaving = [SelfRemovingHook(interception, ("GetTickCount",)),
               SelfRemovingHook(interception)]
    staying = [WatchingHook("GetTickCount"), RecordingHook()]
    # Each set holds a leaving hook ahead of a staying one.
    for hook in (leaving[0], staying[0], leaving[1], staying[1]):
        interception.add_hook(hook)

    def body(ctx):
        yield from ctx.k32.GetTickCount()
        yield from ctx.k32.GetTickCount()

    run_program(body)
    for hook in leaving:
        assert [(name, inv) for _r, name, inv in hook.calls] == [
            ("GetTickCount", 1)]
    for hook in staying:
        assert [(name, inv) for _r, name, inv in hook.calls] == [
            ("GetTickCount", 1), ("GetTickCount", 2)]
    assert interception.every_call_hooks == (staying[1],)
    assert interception.export_hooks == {"GetTickCount": (staying[0],)}


def test_a_hook_watching_two_exports_is_removed_from_both(machine):
    interception = machine.interception
    hook = WatchingHook("GetVersion", "GetTickCount")
    interception.add_hook(hook)
    assert interception.export_hooks == {"GetVersion": (hook,),
                                         "GetTickCount": (hook,)}
    interception.remove_hook(hook)
    assert interception.export_hooks == {}
    assert interception.every_call_hooks == ()


def test_shutdown_empties_both_hook_sets(machine):
    interception = machine.interception
    interception.add_hook(RecordingHook())
    interception.add_hook(WatchingHook("GetVersion"))
    assert interception.every_call_hooks and interception.export_hooks
    machine.shutdown()
    assert interception.every_call_hooks == ()
    assert interception.export_hooks == {}


class ResultHook(CallHook):
    """Records the results it is shown and replaces each with 7."""

    def __init__(self, exports=None):
        self.exports = exports
        self.results = []

    def on_return(self, process, sig, invocation, result):
        self.results.append((sig.name, invocation, result))
        return 7


def test_the_base_hook_watches_every_call_and_changes_nothing(machine):
    hook = CallHook()
    assert hook.exports is None and hook.on_return is None
    hook.install(machine)
    assert machine.interception.every_call_hooks == (hook,)
    hook.finalize()
    assert hook.on_call(None, get_signature("GetTickCount"), 1, ()) is None


def test_on_return_runs_only_for_hooks_filed_under_the_export(
        machine, run_program):
    filed = ResultHook(("GetVersion",))
    every = ResultHook()
    machine.interception.add_hook(filed)
    machine.interception.add_hook(every)

    def body(ctx):
        tick = yield from ctx.k32.GetTickCount()
        version = yield from ctx.k32.GetVersion()
        return tick, version

    _process, program = run_program(body)
    assert [(name, inv) for name, inv, _result in filed.results] == [
        ("GetVersion", 1)]
    assert every.results == []  # an every-call hook sees no results
    assert program.result[1] == 7 and program.result[0] != 7


def test_signature_lookup_matches_dispatch():
    sig = get_signature("ReadFile")
    assert sig.param_count == 5
    assert sig.params[2].name == "nNumberOfBytesToRead"
