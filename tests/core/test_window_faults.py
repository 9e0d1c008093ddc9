"""The sustained fault families: specs, injectors, and planner gating.

Spec validation is pure; injector behaviour is pinned through whole
IIS runs (each is a few milliseconds of wall time), because the
interesting contracts — a failed allocator surfacing as an outcome, a
reset transport degrading the client's conversation — only exist with
the full machine underneath.
"""

import pytest

from repro.core.campaign import Campaign
from repro.core.faults import (
    DEFAULT_WINDOWS,
    FaultWindow,
    IoFault,
    ResourceFault,
)
from repro.core.runner import RunConfig, execute_run
from repro.core.windowed import (
    HANDLE_ALLOCATING_EXPORTS,
    IoInjector,
    ResourceInjector,
    WindowedInjector,
)
from repro.core.workload import MiddlewareKind, get_workload

WINDOW = FaultWindow("calls", 1, 500)


def _run(fault, middleware=MiddlewareKind.NONE, trace_level="off"):
    return execute_run(get_workload("IIS"), middleware, fault,
                       RunConfig(trace_level=trace_level))


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------
class TestFaultWindow:
    def test_defaults_and_key(self):
        window = FaultWindow()
        assert window.unit == "calls"
        assert window.key == ("calls", 1, 100)

    def test_token_round_trip(self):
        for window in (FaultWindow("calls", 3, 77),
                       FaultWindow("time", 5.0, 60.0),
                       FaultWindow("time", 0.0, 0.5)):
            assert FaultWindow.from_token(window.to_token()) == window

    @pytest.mark.parametrize("unit,start,end", [
        ("ticks", 1, 2),        # unknown unit
        ("calls", 0, 10),       # call indices are 1-based
        ("calls", 5, 5),        # empty
        ("time", -1.0, 10.0),   # negative start
        ("time", 9.0, 3.0),     # inverted
    ])
    def test_rejects_bad_windows(self, unit, start, end):
        with pytest.raises(ValueError):
            FaultWindow(unit, start, end)

    def test_calls_windows_coerce_to_int(self):
        window = FaultWindow("calls", 2.0, 9.0)
        assert window.start == 2 and isinstance(window.start, int)
        assert window.end == 9 and isinstance(window.end, int)


class TestIoFaultSpec:
    def test_error_mode_respects_per_op_choices(self):
        IoFault("WriteFile", "error", "ENOSPC", WINDOW)
        with pytest.raises(ValueError):
            IoFault("ReadFile", "error", "ENOSPC", WINDOW)

    def test_net_ops_need_net_errnos(self):
        IoFault("net.send", "error", "ECONNRESET", WINDOW)
        with pytest.raises(ValueError):
            IoFault("net.send", "error", "EIO", WINDOW)
        with pytest.raises(ValueError):
            IoFault("ReadFile", "error", "ECONNRESET", WINDOW)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            IoFault("DeleteFileA", "error", "EACCES", WINDOW)

    def test_short_mode_bounds(self):
        IoFault("ReadFile", "short", 0.0, WINDOW)
        with pytest.raises(ValueError):
            IoFault("ReadFile", "short", 1.0, WINDOW)
        with pytest.raises(ValueError):
            IoFault("CreateFileA", "short", 0.5, WINDOW)

    def test_delay_must_be_positive(self):
        with pytest.raises(ValueError):
            IoFault("net.recv", "delay", 0.0, WINDOW)

    def test_profile_gate_is_export_for_file_ops_only(self):
        assert IoFault("ReadFile", "error", "EIO", WINDOW).profile_gate \
            == "ReadFile"
        assert IoFault("net.recv", "delay", 1.0,
                       WINDOW).profile_gate is None


class TestResourceFaultSpec:
    def test_severity_ranges(self):
        ResourceFault("memory", 0.5, WINDOW)
        ResourceFault("cpu", 2.0, WINDOW)
        with pytest.raises(ValueError):
            ResourceFault("memory", 0.0, WINDOW)
        with pytest.raises(ValueError):
            ResourceFault("memory", 1.5, WINDOW)
        with pytest.raises(ValueError):
            ResourceFault("cpu", 0.5, WINDOW)
        with pytest.raises(ValueError):
            ResourceFault("disk", 0.5, WINDOW)

    def test_function_is_synthetic_and_never_gated(self):
        fault = ResourceFault("handles", 1.0, WINDOW)
        assert fault.function == "resource:handles"
        assert fault.profile_gate is None


class TestDefaultFaultLists:
    def test_io_space_enumerates_every_op_per_window(self):
        faults = IoFault.fault_space()
        assert len(faults) == 32
        assert len(set(fault.key for fault in faults)) == 32
        assert {fault.window for fault in faults} == set(DEFAULT_WINDOWS)

    def test_resource_space_covers_every_kind(self):
        faults = ResourceFault.fault_space()
        assert len(faults) == 12
        assert {fault.resource for fault in faults} \
            == {"memory", "handles", "cpu"}

    def test_handle_allocating_exports_are_creators(self):
        assert "CreateFileA" in HANDLE_ALLOCATING_EXPORTS
        assert "OpenEventA" in HANDLE_ALLOCATING_EXPORTS
        assert "CloseHandle" not in HANDLE_ALLOCATING_EXPORTS
        assert "ReadFile" not in HANDLE_ALLOCATING_EXPORTS


# ----------------------------------------------------------------------
# Error diffusion (sub-1.0 severities without randomness)
# ----------------------------------------------------------------------
class TestDiffusion:
    def _injector(self, severity):
        return ResourceInjector(ResourceFault("memory", severity, WINDOW),
                                "server")

    @pytest.mark.parametrize("severity,n", [(0.5, 100), (0.25, 100),
                                            (1.0, 7), (0.3, 1000)])
    def test_first_n_operations_fail_exactly_floor_n_severity(
            self, severity, n):
        injector = self._injector(severity)
        hits = sum(injector._diffuse(severity) for _ in range(n))
        assert hits == int(n * severity)

    def test_diffusion_is_deterministic(self):
        first = [self._injector(0.37)._diffuse(0.37) for _ in range(50)]
        second = [self._injector(0.37)._diffuse(0.37) for _ in range(50)]
        assert first == second


# ----------------------------------------------------------------------
# Injection effects, end to end
# ----------------------------------------------------------------------
class TestIoEffects:
    def test_read_errors_fail_the_workload(self):
        result = _run(IoFault("ReadFile", "error", "EIO", WINDOW))
        assert result.activated
        assert result.outcome.value == "failure"

    def test_create_denied_fails_the_workload(self):
        result = _run(IoFault("CreateFileA", "error", "EACCES", WINDOW))
        assert result.activated
        assert result.outcome.value == "failure"

    def test_connection_reset_degrades_service(self):
        result = _run(IoFault("net.recv", "error", "ECONNRESET",
                              FaultWindow("time", 5.0, 60.0)))
        assert result.activated
        assert result.outcome.value != "normal-success"

    def test_connect_refused_blocks_clients(self):
        result = _run(IoFault("net.connect", "error", "ECONNREFUSED",
                              FaultWindow("time", 0.0, 300.0)))
        assert result.activated
        assert result.outcome.value == "failure"

    def test_net_delay_slows_but_does_not_break(self):
        baseline = _run(None)
        delayed = _run(IoFault("net.connect", "delay", 1.0,
                               FaultWindow("time", 0.0, 300.0)))
        assert delayed.activated
        assert delayed.outcome.value == "normal-success"
        assert delayed.response_time > baseline.response_time

    def test_window_scopes_the_damage(self):
        # A window that closes before the client arrives is harmless:
        # the fault never impacts anything and the run does not count.
        result = _run(IoFault("net.recv", "error", "ECONNRESET",
                              FaultWindow("time", 0.0, 0.1)))
        assert not result.activated
        assert result.outcome.value == "normal-success"

    def test_faults_target_the_server_role_only(self):
        # The client also performs net.connect; only connections whose
        # *server side* is the target role may be refused — the run
        # still fails (the client cannot reach IIS), but the failure is
        # service-level, not a crashed client harness.
        result = _run(IoFault("net.connect", "error", "ECONNREFUSED",
                              FaultWindow("time", 0.0, 300.0)))
        assert result.client_record.requests  # client ran to completion


class TestResourceEffects:
    def test_full_memory_pressure_fails_allocations(self):
        result = _run(ResourceFault("memory", 1.0, WINDOW))
        assert result.activated
        assert result.outcome.value != "normal-success"

    def test_handle_exhaustion_fails_creators(self):
        result = _run(ResourceFault("handles", 1.0, WINDOW))
        assert result.activated
        assert result.outcome.value != "normal-success"

    def test_cpu_tax_stretches_response_time(self):
        baseline = _run(None)
        taxed = _run(ResourceFault("cpu", 8.0,
                                   FaultWindow("time", 0.0, 60.0)))
        assert taxed.activated
        assert taxed.response_time is None or \
            taxed.response_time > baseline.response_time

    def test_watchd_recovers_a_starved_server(self):
        plain = _run(ResourceFault("memory", 1.0, WINDOW))
        guarded = _run(ResourceFault("memory", 1.0, WINDOW),
                       middleware=MiddlewareKind.WATCHD)
        assert plain.outcome.value == "failure"
        assert guarded.outcome.value != "failure" or \
            guarded.restarts_detected > 0


# ----------------------------------------------------------------------
# Planner integration: probe gating over the unified space
# ----------------------------------------------------------------------
class TestCampaignGating:
    def test_uncalled_file_op_is_skipped_by_the_profile_gate(self):
        # IIS never calls WriteFile, so its io faults are skipped by
        # the profile gate exactly as an uncalled export's parameter
        # faults are.
        campaign = Campaign("IIS", MiddlewareKind.NONE, mechanism="io",
                            functions=["ReadFile", "WriteFile"],
                            config=RunConfig())
        result = campaign.run()
        assert "WriteFile" in result.skipped_functions
        executed = {run.fault.op for run in result.runs if run.activated}
        assert executed == {"ReadFile"}

    def test_net_and_resource_faults_always_probe(self):
        campaign = Campaign("IIS", MiddlewareKind.NONE,
                            mechanism="resource", functions=["memory"],
                            config=RunConfig())
        result = campaign.run()
        assert result.skipped_functions == set()
        assert len(result.runs) == 4  # 2 severities x 2 default windows

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ValueError):
            Campaign("IIS", mechanism="chaos")


def test_a_closed_calls_window_unhooks_its_injector(monkeypatch):
    """A window never reopens, so closing it detaches the injector:
    the target's later calls pay no hook scan."""
    seen = []
    close = WindowedInjector._close

    def closing(self, call_index, reason):
        close(self, call_index, reason)
        hooks = self.machine.interception
        seen.append((reason, self in hooks.every_call_hooks,
                     any(self in filed
                         for filed in hooks.export_hooks.values())))

    monkeypatch.setattr(WindowedInjector, "_close", closing)
    _run(IoFault("ReadFile", "error", "EIO", FaultWindow("calls", 1, 5)))
    assert seen == [("window", False, False)]


# ----------------------------------------------------------------------
# Injector construction errors
# ----------------------------------------------------------------------
class TestInjectorValidation:
    def test_io_injector_accepts_net_ops(self):
        IoInjector(IoFault("net.send", "delay", 0.5, WINDOW), "server")

    def test_collector_interface(self):
        injector = IoInjector(IoFault("ReadFile", "error", "EIO", WINDOW),
                              "server")
        assert injector.fired is False
        assert injector.fired_at is None
        assert injector.was_noop is False
