"""Tracing across kill-and-resume campaigns.

The trace level is deliberately excluded from the store's config
fingerprint, so a campaign resumed at a different level still reuses
every checkpointed run.  The contract pinned here: cached runs keep
exactly whatever trace they were stored with (none, for an untraced
first phase), only re-executed runs gain traces, and no (fingerprint,
fault key) record is ever written twice.
"""

import json

import pytest

from repro.core.campaign import Campaign
from repro.core.runner import RunConfig
from repro.core.store import RunStore
from repro.core.workload import MiddlewareKind
from repro.trace import TraceLevel

FUNCTIONS = ["SetErrorMode", "CreateEventA", "CreateFileA"]
KILL_AFTER = 4


class Killed(BaseException):
    """Stands in for SIGINT: not caught by the progress guard."""


def _kill_after(execution):
    if execution.done == KILL_AFTER:
        raise Killed


def _store_records(path):
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def test_resumed_campaign_traces_only_reexecuted_runs(tmp_path):
    path = tmp_path / "runs.jsonl"

    # Phase 1: untraced, killed mid-grid (4 injection runs + the
    # profile run make it into the store).
    untraced = RunConfig(base_seed=2000, trace_level="off")
    with RunStore(path) as store:
        with pytest.raises(Killed):
            Campaign("IIS", MiddlewareKind.NONE, functions=FUNCTIONS,
                     config=untraced, store=store,
                     progress=_kill_after).run()
    checkpointed = len(_store_records(path))
    assert checkpointed == KILL_AFTER + 1

    # Phase 2: resume the identical campaign, now tracing.  Same
    # fingerprint (the level is not part of it), so the checkpointed
    # runs are served from the store, untraced.
    traced = RunConfig(base_seed=2000, trace_level="outcome")
    with RunStore(path) as store:
        resumed = Campaign("IIS", MiddlewareKind.NONE, functions=FUNCTIONS,
                           config=traced, store=store).run()
    assert resumed.cached_count == checkpointed
    assert resumed.executed_count == len(resumed.runs) + 1 - checkpointed

    cached = [run for run in resumed.runs if not run.trace]
    fresh = [run for run in resumed.runs if run.trace]
    assert len(cached) == KILL_AFTER
    assert len(fresh) == len(resumed.runs) - KILL_AFTER
    for run in cached:
        assert run.trace_level is TraceLevel.OFF
    for run in fresh:
        assert run.trace_level is TraceLevel.OUTCOME
        assert {event.kind for event in run.trace} >= {"run.start",
                                                       "run.end"}

    # No duplicate store records: each (fingerprint, key) was written
    # exactly once across both phases, and only post-kill records carry
    # a trace.
    records = _store_records(path)
    keys = [(record["fp"], record["key"]) for record in records]
    assert len(keys) == len(set(keys))
    untraced_records = [r for r in records if "trace" not in r["run"]]
    traced_records = [r for r in records if "trace" in r["run"]]
    assert len(untraced_records) == checkpointed
    assert traced_records, "re-executed runs must store their traces"
    assert keys[:checkpointed] == \
        [(r["fp"], r["key"]) for r in untraced_records]


def test_fully_cached_rerun_adds_no_records_and_no_traces(tmp_path):
    path = tmp_path / "runs.jsonl"
    traced = RunConfig(base_seed=2000, trace_level="outcome")
    with RunStore(path) as store:
        first = Campaign("IIS", MiddlewareKind.NONE,
                         functions=FUNCTIONS[:1], config=traced,
                         store=store).run()
    stored_lines = len(_store_records(path))
    assert stored_lines == len(first.runs) + 1

    # Re-running at a *different* level stays fully cached: the stored
    # traces come back as-is and the file does not grow.
    full = RunConfig(base_seed=2000, trace_level="full")
    with RunStore(path) as store:
        again = Campaign("IIS", MiddlewareKind.NONE,
                         functions=FUNCTIONS[:1], config=full,
                         store=store).run()
    assert again.executed_count == 0
    assert len(_store_records(path)) == stored_lines
    for before, after in zip(first.runs, again.runs):
        assert after.trace_level is TraceLevel.OUTCOME
        assert [e.data for e in after.trace] == [e.data for e in before.trace]
