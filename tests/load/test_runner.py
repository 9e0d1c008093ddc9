"""Single load runs: determinism, arrival models, hygiene."""

import gc
import json

import pytest

from repro.core.faults import FaultSpec, FaultType, FaultWindow, IoFault
from repro.core.runner import RunConfig
from repro.load.result import load_result_to_dict
from repro.load.runner import execute_load_run
from repro.load.spec import ArrivalMode, LoadSpec
from repro.net.transport import ConnectionLeakError
from repro.nt.machine import Machine
from repro.trace import trace_to_jsonl


def small_spec(**overrides):
    params = dict(workload="Apache1", clients=3, iterations=1)
    params.update(overrides)
    return LoadSpec(**params)


class TestDeterminism:
    def test_same_spec_same_rep_is_bit_identical(self):
        spec = small_spec()
        config = RunConfig(base_seed=2000)
        first = execute_load_run(spec, 0, config)
        second = execute_load_run(spec, 0, config)
        assert json.dumps(load_result_to_dict(first), sort_keys=True) == \
            json.dumps(load_result_to_dict(second), sort_keys=True)

    def test_reps_are_independent_runs(self):
        spec = small_spec()
        config = RunConfig(base_seed=2000)
        rep0 = execute_load_run(spec, 0, config)
        rep1 = execute_load_run(spec, 1, config)
        # Different seeds, same healthy-run shape.
        assert rep0.completed_clients == rep1.completed_clients == 3
        assert spec.seed(2000, 2, 0) != spec.seed(2000, 2, 1)


class TestHealthyRun:
    def test_all_clients_complete_and_succeed(self):
        result = execute_load_run(small_spec(), 0, RunConfig())
        assert result.server_came_up
        assert result.completed_clients == 3
        assert result.success_fraction == 1.0
        # Two requests (static + CGI) per cycle per client.
        assert result.request_count == 6
        assert result.engine_events > 0

    def test_latencies_are_recorded(self):
        result = execute_load_run(small_spec(), 0, RunConfig())
        latencies = result.all_latencies()
        assert len(latencies) == result.request_count
        assert all(latency >= 0.0 for latency in latencies)
        assert result.mean_latency() == pytest.approx(
            sum(latencies) / len(latencies))


class TestClosedLoop:
    def test_each_client_runs_its_iterations(self):
        result = execute_load_run(small_spec(iterations=2), 0, RunConfig())
        for client in result.clients:
            assert len(client.cycles) == 2
        assert result.request_count == 3 * 2 * 2

    def test_staggered_arrival_times(self):
        spec = small_spec(clients=4, stagger=0.5)
        assert [spec.arrival_time(i) for i in range(4)] == \
            [0.0, 0.5, 1.0, 1.5]
        assert spec.cycles_for(0) == spec.iterations


class TestOpenLoop:
    def test_arrivals_follow_the_rate(self):
        spec = small_spec(clients=4, mode="open", arrival_rate=2.0)
        assert spec.mode is ArrivalMode.OPEN
        assert [spec.arrival_time(i) for i in range(4)] == \
            [0.0, 0.5, 1.0, 1.5]

    def test_open_loop_clients_issue_one_cycle_each(self):
        spec = small_spec(clients=3, mode="open", iterations=5,
                          arrival_rate=4.0)
        assert all(spec.cycles_for(i) == 1 for i in range(3))
        result = execute_load_run(spec, 0, RunConfig())
        for client in result.clients:
            assert len(client.cycles) == 1

    def test_observed_arrivals_are_spaced_by_the_rate(self):
        spec = small_spec(clients=3, mode="open", arrival_rate=2.0)
        result = execute_load_run(spec, 0, RunConfig())
        arrivals = sorted(client.arrived_at for client in result.clients)
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        assert gaps == pytest.approx([0.5, 0.5])


class TestSpecValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LoadSpec(workload="Apache1", clients=0)
        with pytest.raises(ValueError):
            LoadSpec(workload="Apache1", iterations=0)
        with pytest.raises(ValueError):
            LoadSpec(workload="Apache1", think_time=-1.0)
        with pytest.raises(ValueError):
            LoadSpec(workload="Apache1", arrival_rate=0.0)

    def test_unknown_workload_names_the_known_ones(self):
        with pytest.raises(KeyError, match="Apache1"):
            execute_load_run(small_spec(workload="nosuchthing"), 0,
                             RunConfig())


def test_traced_load_run_has_the_injection_run_lifecycle():
    """A load run boots and tears down like an injection run: its trace
    carries the run start, the armed fault and the server-up event, and
    a fault window still open at teardown is closed with a paired
    deactivation."""
    fault = IoFault("ReadFile", "delay", 0.5, FaultWindow("time", 1, 100000))
    result = execute_load_run(
        LoadSpec(workload="IIS", clients=2, fault=fault), 0,
        RunConfig(trace_level="outcome"))
    assert result.fault_activated
    events = [(event.category, event.name) for event in result.trace]
    assert events[:2] == [("run", "start"), ("fault", "armed")]
    assert ("run", "server-up") in events
    activated = events.index(("fault", "activated"))
    assert events.index(("fault", "deactivated")) > activated
    assert events.count(("fault", "activated")) == \
        events.count(("fault", "deactivated")) == 1
    closed = result.trace[events.index(("fault", "deactivated"))]
    assert closed.data["reason"] == "run-end"
    assert closed.time == result.duration


def test_load_run_trace_levels_nest():
    # The calls-level stream is the full-level stream minus the
    # engine/proc categories.
    spec = LoadSpec(workload="Apache1", clients=5, iterations=1)
    full = execute_load_run(
        spec, config=RunConfig(base_seed=2000, trace_level="full"))
    calls = execute_load_run(
        spec, config=RunConfig(base_seed=2000, trace_level="calls"))
    filtered = [event for event in full.trace
                if event.category not in ("engine", "proc")]
    assert [(e.time, e.category, e.name, e.data) for e in calls.trace] \
        == [(e.time, e.category, e.name, e.data) for e in filtered]
    for line in trace_to_jsonl(full.trace).splitlines():
        json.loads(line)  # every record is valid JSONL


def live_machines():
    return [obj for obj in gc.get_objects() if isinstance(obj, Machine)]


class TestCollectorPause:
    """Same contract as a single injection run: the pause spans the
    whole load run and is given back on every exit path."""

    POISON = FaultSpec("NoSuchExport", 0, FaultType.ZERO, 1)

    def test_unknown_export_restores_the_collector(self):
        assert gc.isenabled()
        with pytest.raises(ValueError, match="NoSuchExport"):
            execute_load_run(small_spec(fault=self.POISON), 0, RunConfig())
        assert gc.isenabled()

    def test_hygiene_failure_restores_the_collector(self, monkeypatch):
        seen = []

        def leaky(machine):
            seen.append(gc.isenabled())
            raise ConnectionLeakError([])

        monkeypatch.setattr(Machine, "check_connection_hygiene", leaky)
        with pytest.raises(ConnectionLeakError):
            execute_load_run(small_spec(), 0, RunConfig())
        assert seen == [False]
        assert gc.isenabled()

    def test_a_caller_paused_collector_stays_paused(self):
        gc.disable()
        try:
            with pytest.raises(ValueError, match="NoSuchExport"):
                execute_load_run(small_spec(fault=self.POISON), 0,
                                 RunConfig())
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_a_finished_load_run_leaves_no_machine_behind(self):
        before = live_machines()
        result = execute_load_run(small_spec(), 0, RunConfig())
        assert result.completed_clients == 3
        gc.collect(0)  # the youngest generation only
        held = {id(obj) for obj in before}
        assert [obj for obj in live_machines()
                if id(obj) not in held] == []
