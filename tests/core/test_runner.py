"""Behavioural tests for single fault-injection runs.

These are golden-path checks of the run pipeline: specific faults with
known mechanisms must land in specific outcome classes.
"""

import gc

import pytest

from repro.core.collector import RunResult
from repro.core.faults import FaultSpec, FaultType
from repro.core.outcomes import FailureMode, Outcome
from repro.core.runner import RunConfig, execute_run
from repro.core.workload import MiddlewareKind, get_workload
from repro.net.transport import ConnectionLeakError
from repro.nt.machine import Machine
from repro.nt.process_manager import NTProcess


@pytest.fixture(scope="module")
def config():
    return RunConfig(base_seed=1234)


def _run(workload, middleware, fault, config) -> RunResult:
    return execute_run(get_workload(workload), middleware, fault, config)


class TestProfilingRuns:
    def test_fault_free_run_is_normal_success(self, config):
        result = _run("IIS", MiddlewareKind.NONE, None, config)
        assert result.outcome is Outcome.NORMAL_SUCCESS
        assert result.failure_mode is FailureMode.NONE
        assert not result.activated
        assert not result.counts_for_statistics
        assert result.server_came_up

    def test_profiling_reports_called_functions(self, config):
        result = _run("SQL", MiddlewareKind.NONE, None, config)
        assert "ReadFileEx" in result.called_functions
        assert len(result.called_functions) == 71


class TestGoldenFaults:
    def test_startup_crash_standalone_fails_with_no_response(self, config):
        # NULL file name at the first CreateFileA: IIS crashes during
        # startup and nothing ever answers the client.
        fault = FaultSpec("CreateFileA", 0, FaultType.ZERO)
        result = _run("IIS", MiddlewareKind.NONE, fault, config)
        assert result.activated
        assert result.outcome is Outcome.FAILURE
        assert result.failure_mode is FailureMode.NO_RESPONSE
        assert not result.server_came_up

    def test_startup_crash_recovered_by_watchd(self, config):
        fault = FaultSpec("CreateFileA", 0, FaultType.ZERO)
        result = _run("IIS", MiddlewareKind.WATCHD, fault, config)
        assert result.outcome is Outcome.RESTART_SUCCESS
        assert result.restarts_detected >= 1
        assert result.server_came_up

    def test_startup_crash_recovered_by_mscs(self, config):
        fault = FaultSpec("CreateFileA", 0, FaultType.ZERO)
        result = _run("IIS", MiddlewareKind.MSCS, fault, config)
        assert result.outcome is Outcome.RESTART_SUCCESS

    def test_hang_fault_fails_standalone(self, config):
        # INFINITE settle wait: IIS is alive but never serves.
        fault = FaultSpec("WaitForSingleObject", 1, FaultType.ONES)
        result = _run("IIS", MiddlewareKind.NONE, fault, config)
        assert result.outcome is Outcome.FAILURE

    def test_hang_fault_fails_under_mscs(self, config):
        # The generic resource monitor has no heartbeat: the hung
        # process still looks RUNNING.
        fault = FaultSpec("WaitForSingleObject", 1, FaultType.ONES)
        result = _run("IIS", MiddlewareKind.MSCS, fault, config)
        assert result.outcome is Outcome.FAILURE

    def test_hang_fault_recovered_by_watchd_probe(self, config):
        fault = FaultSpec("WaitForSingleObject", 1, FaultType.ONES)
        result = _run("IIS", MiddlewareKind.WATCHD, fault, config)
        assert result.outcome in (Outcome.RESTART_SUCCESS,
                                  Outcome.RESTART_RETRY_SUCCESS)

    def test_silent_misconfiguration_fails_everywhere(self, config):
        # Zeroed buffer size for the docroot read: IIS serves 404s; a
        # response arrives but is wrong, and restarts cannot help.
        fault = FaultSpec("GetPrivateProfileStringA", 4, FaultType.ZERO)
        for middleware in MiddlewareKind:
            result = _run("IIS", middleware, fault, config)
            assert result.outcome is Outcome.FAILURE, middleware
            assert result.failure_mode is FailureMode.INCORRECT_RESPONSE

    def test_benign_corruption_is_normal_success(self, config):
        # NULL event name is legal.
        fault = FaultSpec("CreateEventA", 3, FaultType.ZERO)
        result = _run("IIS", MiddlewareKind.NONE, fault, config)
        assert result.activated
        assert result.outcome is Outcome.NORMAL_SUCCESS

    def test_uncalled_function_not_activated(self, config):
        # IIS never calls the tape API.
        fault = FaultSpec("EraseTape", 0, FaultType.ZERO)
        result = _run("IIS", MiddlewareKind.NONE, fault, config)
        assert not result.activated
        assert result.outcome is Outcome.NORMAL_SUCCESS

    def test_apache_child_crash_respawned_by_master(self, config):
        # A wild pointer in the child's critical-section entry kills it
        # mid-request; the master respawns it and the client's retry
        # succeeds with no middleware at all.
        fault = FaultSpec("EnterCriticalSection", 0, FaultType.ONES)
        result = _run("Apache2", MiddlewareKind.NONE, fault, config)
        assert result.activated
        assert result.outcome is Outcome.RETRY_SUCCESS
        assert result.restarts_detected == 0  # Apache itself, not middleware

    def test_apache_master_crash_standalone_fails(self, config):
        fault = FaultSpec("GetModuleFileNameA", 1, FaultType.ONES)
        result = _run("Apache1", MiddlewareKind.NONE, fault, config)
        assert result.outcome is Outcome.FAILURE

    def test_apache_master_crash_recovered_by_watchd3(self, config):
        fault = FaultSpec("GetModuleFileNameA", 1, FaultType.ONES)
        result = _run("Apache1", MiddlewareKind.WATCHD, fault, config)
        assert result.outcome is Outcome.RESTART_SUCCESS

    def test_sql_data_corruption_visible_to_client(self, config):
        # Zeroing ReadFileEx's byte count truncates the master database
        # load — the paper's famous non-deterministic fault.  Depending
        # on the seed the server either detects it (abort -> restart
        # under watchd) or serves wrong rows (incorrect responses).
        fault = FaultSpec("ReadFileEx", 2, FaultType.ZERO)
        result = _run("SQL", MiddlewareKind.NONE, fault, config)
        assert result.activated
        assert result.outcome is Outcome.FAILURE


class TestResponseTimes:
    def test_fault_free_response_times_match_paper(self, config):
        apache = _run("Apache1", MiddlewareKind.NONE, None, config)
        iis = _run("IIS", MiddlewareKind.NONE, None, config)
        assert apache.response_time == pytest.approx(14.21, abs=0.5)
        assert iis.response_time == pytest.approx(18.94, abs=0.5)

    def test_restart_outcomes_are_slower(self, config):
        fault = FaultSpec("CreateFileA", 0, FaultType.ZERO)
        clean = _run("IIS", MiddlewareKind.WATCHD, None, config)
        restarted = _run("IIS", MiddlewareKind.WATCHD, fault, config)
        assert restarted.response_time > clean.response_time

    def test_faster_cpu_shrinks_response_time(self):
        fast = RunConfig(base_seed=1234, cpu_mhz=400)
        slow = RunConfig(base_seed=1234, cpu_mhz=100)
        fast_run = _run("IIS", MiddlewareKind.NONE, None, fast)
        slow_run = _run("IIS", MiddlewareKind.NONE, None, slow)
        assert fast_run.response_time < slow_run.response_time


class TestDeterminism:
    def test_same_seed_same_outcome(self, config):
        fault = FaultSpec("HeapAlloc", 2, FaultType.ONES)
        first = _run("IIS", MiddlewareKind.WATCHD, fault, config)
        second = _run("IIS", MiddlewareKind.WATCHD, fault, config)
        assert first.outcome is second.outcome
        assert first.response_time == second.response_time
        assert first.restarts_detected == second.restarts_detected

    def test_seed_isolation_between_faults(self, config):
        # Distinct faults derive distinct machine seeds.
        a = config.seed_for(get_workload("IIS"), MiddlewareKind.NONE,
                            FaultSpec("ReadFile", 0, FaultType.ZERO))
        b = config.seed_for(get_workload("IIS"), MiddlewareKind.NONE,
                            FaultSpec("ReadFile", 1, FaultType.ZERO))
        assert a != b


def live_run_objects():
    """Every live simulated machine and NT process."""
    return [obj for obj in gc.get_objects()
            if isinstance(obj, (Machine, NTProcess))]


class TestCollectorPause:
    """A run holds the collector pause from boot through teardown and
    gives the collector back on every exit path, so a pool worker or a
    daemon thread is never left with it off."""

    POISON = FaultSpec("NoSuchExport", 0, FaultType.ZERO, 1)

    def test_unknown_export_restores_the_collector(self, config):
        assert gc.isenabled()
        with pytest.raises(ValueError, match="NoSuchExport"):
            _run("IIS", MiddlewareKind.NONE, self.POISON, config)
        assert gc.isenabled()

    def test_hygiene_failure_restores_the_collector(self, config,
                                                    monkeypatch):
        seen = []

        def leaky(machine):
            seen.append(gc.isenabled())
            raise ConnectionLeakError([])

        monkeypatch.setattr(Machine, "check_connection_hygiene", leaky)
        with pytest.raises(ConnectionLeakError):
            _run("IIS", MiddlewareKind.NONE, None, config)
        assert seen == [False]  # still paused at teardown
        assert gc.isenabled()

    def test_a_caller_paused_collector_stays_paused(self, config):
        gc.disable()
        try:
            with pytest.raises(ValueError, match="NoSuchExport"):
                _run("IIS", MiddlewareKind.NONE, self.POISON, config)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_a_finished_run_leaves_no_machine_behind(self, config):
        """The result holds nothing of the machine, so once the run
        returns its whole object graph is garbage: a campaign keeping
        every result in memory does not keep every run's machine.  The
        graph is still in the youngest generation (the pause kept it
        from being promoted), so a gen-0 pass reclaims it."""
        before = live_run_objects()
        fault = FaultSpec("CreateFileA", 0, FaultType.ZERO)
        result = _run("IIS", MiddlewareKind.WATCHD, fault, config)
        assert result.restarts_detected >= 1
        gc.collect(0)  # the youngest generation only
        held = {id(obj) for obj in before}
        assert [obj for obj in live_run_objects()
                if id(obj) not in held] == []
