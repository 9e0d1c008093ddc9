"""Tests for the return-value corruption mechanism."""

import pytest

from repro.core import (
    Campaign,
    MiddlewareKind,
    Outcome,
    ReturnFaultSpec,
    ReturnInjector,
    RunConfig,
    execute_run,
    get_workload,
)
from repro.core.faults import FaultType
from repro.nt import Machine
from repro.nt.kernel32.signatures import REGISTRY


class TestSpec:
    def test_identity_and_hash(self):
        a = ReturnFaultSpec("GetTickCount", FaultType.ZERO)
        b = ReturnFaultSpec("GetTickCount", FaultType.ZERO)
        assert a == b and hash(a) == hash(b)
        assert a != ReturnFaultSpec("GetTickCount", FaultType.ONES)

    def test_hash_disjoint_from_parameter_faults(self):
        from repro.core import FaultSpec

        ret = ReturnFaultSpec("SetEvent", FaultType.ZERO)
        param = FaultSpec("SetEvent", 0, FaultType.ZERO)
        assert ret != param

    def test_bad_invocation_rejected(self):
        with pytest.raises(ValueError):
            ReturnFaultSpec("SetEvent", FaultType.ZERO, invocation=0)


class TestGeneration:
    def test_covers_parameterless_exports_too(self):
        faults = ReturnFaultSpec.fault_space(functions=["GetTickCount"])
        assert len(faults) == 3  # the param mechanism yields zero here

    def test_full_space_is_functions_times_types(self):
        from repro.nt.kernel32.signatures import REGISTRY

        assert len(ReturnFaultSpec.fault_space()) == 3 * len(REGISTRY)

    def test_unknown_function_rejected(self):
        with pytest.raises(KeyError):
            ReturnFaultSpec.fault_space(functions=["Bogus"])


class _Prog:
    image_name = "p.exe"

    def __init__(self, calls, seen=None):
        self.calls = calls
        self.seen = seen if seen is not None else []

    def main(self, ctx):
        for name, args in self.calls:
            self.seen.append((yield from getattr(ctx.k32, name)(*args)))


class ShownInjector(ReturnInjector):
    """Records every result it is shown."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.shown = []

    def on_return(self, process, sig, invocation, result):
        self.shown.append((sig.name, invocation, result))
        return super().on_return(process, sig, invocation, result)


class TestInjector:
    def _run(self, fault, calls):
        machine = Machine(seed=9)
        injector = ReturnInjector(fault, "target")
        injector.install(machine)
        seen = []
        machine.processes.spawn(_Prog(calls, seen), role="target")
        machine.engine.run(until=30.0)
        return injector, seen

    def test_first_invocation_result_corrupted(self):
        fault = ReturnFaultSpec("GetTickCount", FaultType.ONES)
        injector, seen = self._run(
            fault, [("GetTickCount", ()), ("GetTickCount", ())])
        assert injector.fired
        assert seen[0] == 0xFFFFFFFF
        assert seen[1] != 0xFFFFFFFF

    def test_zero_on_zero_result_is_noop(self):
        fault = ReturnFaultSpec("GetTickCount", FaultType.ZERO)
        injector, seen = self._run(fault, [("GetTickCount", ())])
        assert injector.fired
        assert injector.was_noop
        assert seen[0] == 0

    def test_is_filed_under_its_export_only(self):
        machine = Machine(seed=9)
        injector = ReturnInjector(
            ReturnFaultSpec("GetTickCount", FaultType.ONES), "target")
        injector.install(machine)
        assert machine.interception.export_hooks == {
            "GetTickCount": (injector,)}
        assert machine.interception.every_call_hooks == ()

    def test_on_return_runs_only_for_calls_of_its_export(self):
        machine = Machine(seed=9)
        injector = ShownInjector(
            ReturnFaultSpec("GetACP", FaultType.ONES, invocation=2),
            "target")
        injector.install(machine)
        seen = []
        machine.processes.spawn(_Prog([
            ("GetTickCount", ()), ("GetACP", ()), ("GetVersion", ()),
            ("GetACP", ()), ("GetTickCount", ()), ("GetACP", ())], seen),
            role="target")
        machine.engine.run(until=30.0)
        assert injector.fired
        assert [(name, invocation)
                for name, invocation, _result in injector.shown] == [
            ("GetACP", 1), ("GetACP", 2)]
        assert seen[3] == 0xFFFFFFFF and seen[5] != 0xFFFFFFFF

    def test_a_non_int_result_is_never_shown(self):
        machine = Machine(seed=9)
        injector = ShownInjector(
            ReturnFaultSpec("GetACP", FaultType.ONES), "target")
        injector.install(machine)
        process = machine.processes.spawn(_Prog([]), role="target")
        sig = REGISTRY["GetACP"]
        watching = machine.interception.export_hooks["GetACP"]
        for result in (None, "text", 1.5, b"bytes"):
            assert machine.interception.dispatch_return(
                process, sig, 1, result, watching) == result
        assert injector.shown == [] and not injector.fired
        assert machine.interception.dispatch_return(
            process, sig, 1, 1252, watching) == 0xFFFFFFFF
        assert injector.shown == [("GetACP", 1, 1252)]

    def test_unhooks_itself_once_it_fires(self):
        machine = Machine(seed=9)
        injector = ReturnInjector(
            ReturnFaultSpec("GetTickCount", FaultType.ONES, invocation=2),
            "target")
        injector.install(machine)
        hooks_after_each_call = []

        class Prog:
            image_name = "p.exe"

            def main(self, ctx):
                for _ in range(3):
                    yield from ctx.k32.GetTickCount()
                    hooks_after_each_call.append(
                        machine.interception.export_hooks.get(
                            "GetTickCount", ()))

        machine.processes.spawn(Prog(), role="target")
        machine.engine.run(until=30.0)
        assert injector.fired
        assert hooks_after_each_call == [(injector,), (), ()]
        assert machine.interception.export_hooks == {}

    def test_role_filtering(self):
        machine = Machine(seed=9)
        injector = ReturnInjector(
            ReturnFaultSpec("GetTickCount", FaultType.ONES), "other")
        injector.install(machine)
        machine.processes.spawn(_Prog([("GetTickCount", ())]),
                                role="target")
        machine.engine.run(until=1.0)
        assert not injector.fired

    def test_unknown_export_rejected(self):
        with pytest.raises(ValueError):
            ReturnInjector(ReturnFaultSpec("Bogus", FaultType.ZERO), "t")


class TestEndToEnd:
    def test_zeroed_createfile_result_fails_server(self):
        # The OS opened the config fine; the app *believes* it failed.
        fault = ReturnFaultSpec("CreateFileA", FaultType.ZERO)
        result = execute_run(get_workload("Apache1"), MiddlewareKind.NONE,
                             fault, RunConfig(base_seed=5))
        assert result.activated
        assert result.outcome is Outcome.FAILURE

    def test_watchd_recovers_believed_failures(self):
        fault = ReturnFaultSpec("CreateFileA", FaultType.ZERO)
        result = execute_run(get_workload("Apache1"), MiddlewareKind.WATCHD,
                             fault, RunConfig(base_seed=5))
        assert result.outcome is Outcome.RESTART_SUCCESS

    def test_return_campaign_runs(self):
        result = Campaign(
            "IIS", MiddlewareKind.NONE,
            functions=["GetTickCount", "GetACP"],
            config=RunConfig(base_seed=5), mechanism="return").run()
        assert result.activated_count == 6

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ValueError):
            Campaign("IIS", mechanism="voodoo")


class TestWorkloadRegistry:
    """Return faults are armed and enumerated against the workload's
    own export table (libc on the Linux port), as parameter faults
    are."""

    @pytest.fixture()
    def linux(self):
        from repro.posix.workload import APACHE1_LINUX

        return APACHE1_LINUX

    def test_a_libc_export_is_armable(self, linux):
        fault = ReturnFaultSpec("read", FaultType.ZERO)
        injector = fault.injector(linux.target_role, linux.registry)
        assert not injector.fired

    def test_a_kernel32_export_is_unknown_on_libc(self, linux):
        fault = ReturnFaultSpec("ReadFile", FaultType.ZERO)
        with pytest.raises(ValueError, match=r"unknown export 'ReadFile' "
                           r"in the libc registry"):
            fault.injector(linux.target_role, linux.registry)
        with pytest.raises(ValueError,
                           match=r"did you mean 'read'\?"):
            ReturnFaultSpec("reed", FaultType.ZERO).injector(
                linux.target_role, linux.registry)

    def test_fault_space_enumerates_the_registry(self, linux):
        faults = ReturnFaultSpec.fault_space(None, None, (1,),
                                             linux.registry)
        assert {fault.function for fault in faults} == set(linux.registry)
        assert len(faults) == 3 * len(linux.registry)
        with pytest.raises(KeyError):
            ReturnFaultSpec.fault_space(["ReadFile"], None, (1,),
                                        linux.registry)

    @pytest.mark.parametrize("function", ["open", "read"])
    def test_ones_on_a_libc_call_fails_the_run(self, linux, function):
        result = execute_run(linux, MiddlewareKind.NONE,
                             ReturnFaultSpec(function, FaultType.ONES),
                             RunConfig(base_seed=5))
        assert result.activated
        assert result.outcome is Outcome.FAILURE
