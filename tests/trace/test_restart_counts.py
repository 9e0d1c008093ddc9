"""Restart counting: the log reading vs the trace derivation.

``collect`` counts restarts the paper's way, traced or not: by reading
the middleware's log channels (NT event log for MSCS, watchd's own log
for watchd).  A traced run's ``mw.restart`` events give the same number
through ``count_restarts_from_trace``.  These tests pin the two to each
other on real restart scenarios, and the ``until`` bound on synthetic
streams.
"""

import pytest

from repro.core.faults import FaultSpec, FaultType
from repro.core.runner import RunConfig, execute_run
from repro.core.workload import MiddlewareKind, get_workload
from repro.trace import TraceEvent, count_restarts_from_trace

# A fault that reliably kills the Apache service and drives watchd
# through a restart (see the differential suite's Figure-2 slice).
RESTART_FAULT = FaultSpec("CreateFileA", 0, FaultType.ZERO, 1)


def _run(middleware, level, watchd_version=3):
    config = RunConfig(base_seed=2000, trace_level=level,
                       watchd_version=watchd_version)
    return execute_run(get_workload("Apache1"), middleware,
                       RESTART_FAULT, config)


@pytest.mark.parametrize("middleware",
                         [MiddlewareKind.WATCHD, MiddlewareKind.MSCS])
def test_both_paths_count_the_same_restarts(middleware):
    untraced = _run(middleware, "off")
    traced = _run(middleware, "outcome")
    assert traced.restarts_detected == count_restarts_from_trace(
        traced.trace, until=traced.client_record.finished_at)
    assert untraced.restarts_detected == traced.restarts_detected
    assert untraced.outcome == traced.outcome
    assert untraced.response_time == traced.response_time


def test_watchd_scenario_actually_restarts():
    result = _run(MiddlewareKind.WATCHD, "outcome")
    assert result.restarts_detected > 0
    restart_events = [event for event in result.trace
                      if event.kind == "mw.restart"]
    assert restart_events, "a counted restart must appear in the trace"
    # Every restart event carries the middleware's own running count.
    assert [event.data["count"] for event in restart_events] == \
        list(range(1, len(restart_events) + 1))


@pytest.mark.parametrize("version", [1, 2, 3])
def test_paths_agree_across_watchd_versions(version):
    traced = _run(MiddlewareKind.WATCHD, "outcome", watchd_version=version)
    assert traced.restarts_detected == count_restarts_from_trace(
        traced.trace, until=traced.client_record.finished_at)


def _mw_restart(seq, time):
    return TraceEvent(seq, time, "mw", "restart",
                      {"service": "Apache", "count": seq + 1})


def test_count_restarts_from_trace_respects_until():
    events = [
        TraceEvent(0, 0.0, "run", "start", {}),
        _mw_restart(1, 10.0),
        _mw_restart(2, 20.0),
        TraceEvent(3, 25.0, "mw", "detect", {"reason": "died"}),
        _mw_restart(4, 30.0),
    ]
    assert count_restarts_from_trace(events) == 3
    assert count_restarts_from_trace(events, until=None) == 3
    assert count_restarts_from_trace(events, until=20.0) == 2
    assert count_restarts_from_trace(events, until=9.9) == 0
    assert count_restarts_from_trace([]) == 0
