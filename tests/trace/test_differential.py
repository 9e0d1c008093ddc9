"""The trace stream as a differential test oracle.

Serial and process-pool campaigns must produce *byte-identical* JSONL
trace streams per run — a far stronger determinism contract than the
outcome-level signature `tests/core/test_exec.py` pins, because every
scm/mw/call event (with its virtual timestamp) has to line up, not just
the final classification.  The serial-vs-pool check runs at one and at
four workers.
"""

import pytest

from repro.core.campaign import Campaign
from repro.core.exec import SerialBackend, backend_for
from repro.core.runner import RunConfig, execute_run
from repro.core.workload import MiddlewareKind, get_workload
from repro.trace import TraceLevel, trace_to_jsonl

# A Figure-2 slice small enough to re-run per worker width, with
# middleware in the loop so scm.* and mw.* events are part of the
# oracle, not just call traffic.
SLICE = ["SetErrorMode", "CreateEventA", "CreateFileA", "ReadFile",
         "CloseHandle", "WaitForSingleObject"]
WORKLOAD = "IIS"
MIDDLEWARE = MiddlewareKind.WATCHD


@pytest.fixture(scope="module")
def config():
    return RunConfig(base_seed=2000, trace_level="calls")


@pytest.fixture(scope="module")
def serial_result(config):
    return Campaign(WORKLOAD, MIDDLEWARE, functions=SLICE, config=config,
                    backend=SerialBackend()).run()


def _trace_bytes(result) -> dict:
    return {run.fault.key: trace_to_jsonl(run.trace).encode("utf-8")
            for run in result.runs}


def test_serial_runs_are_traced(serial_result):
    for run in serial_result.runs:
        assert run.trace_level is TraceLevel.CALLS
        assert run.trace, f"untraced run {run.fault!r}"
        kinds = {event.kind for event in run.trace}
        assert "run.start" in kinds and "run.end" in kinds
        assert any(kind.startswith("call.") for kind in kinds)


@pytest.mark.parametrize("jobs", (1, 4))
def test_pool_traces_byte_identical_to_serial(config, serial_result, jobs):
    with backend_for(jobs) as backend:
        pool_result = Campaign(WORKLOAD, MIDDLEWARE, functions=SLICE,
                               config=config, backend=backend).run()
    assert _trace_bytes(pool_result) == _trace_bytes(serial_result)


def test_replaying_a_fault_reproduces_the_identical_trace(config,
                                                          serial_result):
    # Reproduction debugging in one step: re-executing any stored fault
    # key under the same config yields the same bytes, so a trace diff
    # of a "failed reproduction" can only ever blame a config drift.
    reference = max(serial_result.runs, key=lambda run: len(run.trace))
    replayed = execute_run(get_workload(WORKLOAD), MIDDLEWARE,
                           reference.fault, config)
    assert trace_to_jsonl(replayed.trace) == trace_to_jsonl(reference.trace)


def test_outcome_level_trace_is_prefix_invariant(serial_result, config):
    # Levels are cumulative filters, not different instrumentations:
    # the outcome-level stream is exactly the calls-level stream with
    # the call/engine/proc categories dropped.
    reference = max(serial_result.runs, key=lambda run: len(run.trace))
    outcome_config = RunConfig(base_seed=config.base_seed,
                               trace_level="outcome")
    replayed = execute_run(get_workload(WORKLOAD), MIDDLEWARE,
                           reference.fault, outcome_config)
    filtered = [event for event in reference.trace
                if event.category not in ("call", "engine", "proc")]
    assert [(e.time, e.category, e.name, e.data) for e in replayed.trace] \
        == [(e.time, e.category, e.name, e.data) for e in filtered]
