"""Unit tests for the fault injector hook."""

import pytest

from repro.core.faults import FaultSpec, FaultType
from repro.core.injector import Injector
from repro.nt import Machine
from repro.trace import Tracer


class _Prog:
    image_name = "victim.exe"

    def __init__(self, calls):
        self._calls = calls

    def main(self, ctx):
        for name, args in self._calls:
            yield from getattr(ctx.k32, name)(*args)


def _run(machine, calls, role="target"):
    process = machine.processes.spawn(_Prog(calls), role=role)
    machine.engine.run(until=60.0)
    return process


@pytest.fixture
def machine():
    return Machine(seed=11)


def test_injector_fires_on_first_invocation(machine):
    injector = Injector(FaultSpec("Sleep", 0, FaultType.ZERO), "target")
    machine.interception.add_hook(injector)
    _run(machine, [("Sleep", (1000,)), ("Sleep", (1000,))])
    assert injector.fired
    assert injector.fired_at == 0.0  # the first Sleep was zeroed
    assert injector.original_raw == 1000
    assert injector.corrupted_raw == 0
    # The first sleep became 0ms; only the second advanced the clock.
    assert machine.now >= 1.0


def test_injector_targets_chosen_invocation(machine):
    injector = Injector(
        FaultSpec("Sleep", 0, FaultType.ZERO, invocation=2), "target")
    machine.interception.add_hook(injector)
    _run(machine, [("Sleep", (1000,)), ("Sleep", (1000,)), ("Sleep", (1000,))])
    assert injector.fired
    assert injector.fired_at == pytest.approx(1.0)


def test_injector_ignores_other_roles(machine):
    injector = Injector(FaultSpec("Sleep", 0, FaultType.ZERO), "target")
    machine.interception.add_hook(injector)
    _run(machine, [("Sleep", (1000,))], role="bystander")
    assert not injector.fired


def test_injector_fires_once_only():
    machine = Machine(seed=11, tracer=Tracer("calls"))
    injector = Injector(FaultSpec("Sleep", 0, FaultType.ONES), "target")
    machine.interception.add_hook(injector)

    class TwoSleeps:
        image_name = "victim.exe"

        def main(self, ctx):
            yield from ctx.k32.Sleep(10)  # becomes INFINITE: hangs

    machine.processes.spawn(TwoSleeps(), role="target")
    machine.processes.spawn(TwoSleeps(), role="target")
    machine.engine.run(until=30.0)
    # The second process's Sleep is invocation #1 of its own counter,
    # but the injector has already fired and must not fire again.
    assert injector.fired
    sleeps = [event.data for event in machine.tracer.events
              if event.category == "call" and event.name == "enter"
              and event.data["func"] == "Sleep"]
    assert [data["injected"] for data in sleeps] == [True, False]


def test_invocations_counted_across_role_incarnations(machine):
    # A fault armed for invocation 2 of a role must count invocation 1
    # from an earlier process of the same role (a respawned worker is
    # not re-injected from scratch).
    injector = Injector(
        FaultSpec("Sleep", 0, FaultType.ZERO, invocation=2), "target")
    machine.interception.add_hook(injector)
    _run(machine, [("Sleep", (500,))])
    assert not injector.fired
    _run(machine, [("Sleep", (500,))])
    assert injector.fired


def test_noop_corruption_detected(machine):
    # Zeroing a parameter that is already zero activates the fault but
    # changes nothing.
    injector = Injector(FaultSpec("Sleep", 0, FaultType.ZERO), "target")
    machine.interception.add_hook(injector)
    _run(machine, [("Sleep", (0,))])
    assert injector.fired
    assert injector.was_noop


class CountingInjector(Injector):
    """An injector that records every call it is shown, and whether it
    had already fired by then."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.shown = []
        self.machine = None

    def on_call(self, process, sig, invocation, raw_args):
        self.shown.append((sig.name, self.fired))
        self.machine = process.machine
        return super().on_call(process, sig, invocation, raw_args)


def test_injector_sees_only_its_export_and_nothing_after_firing(
        monkeypatch):
    from repro.core.runner import RunConfig, execute_run
    from repro.core.workload import MiddlewareKind, get_workload

    armed = []

    def counting_injector(fault, target_role, registry):
        armed.append(CountingInjector(fault, target_role, registry))
        return armed[-1]

    monkeypatch.setattr(FaultSpec, "injector", counting_injector)
    # IIS calls CreateFileA at boot and again on every restart watchd
    # makes after the corrupted call takes it down.
    result = execute_run(get_workload("IIS"), MiddlewareKind.WATCHD,
                         FaultSpec("CreateFileA", 0, FaultType.ZERO),
                         RunConfig())
    (injector,) = armed
    assert result.activated and injector.fired
    assert injector.shown
    assert {name for name, _fired in injector.shown} == {"CreateFileA"}
    assert [fired for _name, fired in injector.shown] == \
        [False] * len(injector.shown)
    assert injector.machine.interception.call_count("CreateFileA") > \
        len(injector.shown)


def _zeroed_sleep_trace(arm):
    machine = Machine(seed=11, tracer=Tracer("calls"))
    injector = Injector(FaultSpec("Sleep", 0, FaultType.ZERO), "target")
    arm(machine, injector)
    filed = machine.interception.export_hooks.get("Sleep")
    _run(machine, [("GetTickCount", ()), ("Sleep", (1000,)),
                   ("Sleep", (1000,))])
    state = (injector.fired, injector.fired_at, injector.fired_pid,
             injector.original_raw, injector.corrupted_raw)
    events = [(event.time, event.category, event.name, event.data)
              for event in machine.tracer.events]
    return filed == (injector,), machine.interception.export_hooks, \
        state, events


def test_add_hook_arms_an_injector_as_install_does():
    installed = _zeroed_sleep_trace(
        lambda machine, injector: injector.install(machine))
    added = _zeroed_sleep_trace(
        lambda machine, injector: machine.interception.add_hook(injector))
    assert installed == added
    filed, hooks_after, state, _events = added
    assert filed and hooks_after == {}
    assert state[0]


def test_unknown_function_rejected():
    with pytest.raises(ValueError):
        Injector(FaultSpec("Bogus", 0, FaultType.ZERO), "t")


def test_unknown_function_error_names_registry_and_suggests():
    with pytest.raises(ValueError) as excinfo:
        Injector(FaultSpec("CreateFielA", 0, FaultType.ZERO), "t")
    message = str(excinfo.value)
    assert "CreateFielA" in message
    assert "KERNEL32" in message
    assert "did you mean 'CreateFileA'?" in message


def test_unknown_function_error_against_libc_registry():
    from repro.posix.libc import LIBC_REGISTRY
    with pytest.raises(ValueError) as excinfo:
        Injector(FaultSpec("opeen", 0, FaultType.ZERO), "t",
                 registry=LIBC_REGISTRY)
    message = str(excinfo.value)
    assert "libc" in message
    assert "did you mean 'open'?" in message


def test_hopeless_typo_gets_no_suggestion():
    with pytest.raises(ValueError) as excinfo:
        Injector(FaultSpec("Zzqjxw", 0, FaultType.ZERO), "t")
    assert "did you mean" not in str(excinfo.value)


def test_out_of_range_parameter_rejected():
    with pytest.raises(ValueError):
        Injector(FaultSpec("SetEvent", 3, FaultType.ZERO), "t")


def test_corruption_actually_changes_callee_behaviour(machine):
    # Ones-corrupting CloseHandle's handle: the call fails instead of
    # closing the real handle.
    injector = Injector(FaultSpec("CloseHandle", 0, FaultType.ONES), "target")
    machine.interception.add_hook(injector)

    seen = {}

    class Prog:
        image_name = "victim.exe"

        def main(self, ctx):
            handle = yield from ctx.k32.CreateEventA(None, True, False, None)
            seen["close"] = yield from ctx.k32.CloseHandle(handle)
            seen["still_valid"] = ctx.machine.handles.is_valid(handle)

    machine.processes.spawn(Prog(), role="target")
    machine.engine.run(until=10.0)
    assert injector.fired
    assert seen["close"] == 0      # ERROR path taken
    assert seen["still_valid"]     # the real handle survived
