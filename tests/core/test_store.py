"""Tests for the run store: serialization, checkpointing, resume.

``RunResult`` JSON round-trips are exercised both on synthetic results
covering every outcome class and on real results from a tiny campaign
against the Echo plugin workload (the ``examples/custom_workload.py``
server).
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.clients.record import AttemptResult, ClientRecord, RequestRecord
from repro.core.campaign import Campaign
from repro.core.collector import RunResult
from repro.core.exec import SerialBackend
from repro.core.faults import FaultSpec, FaultType
from repro.core.outcomes import FailureMode, Outcome
from repro.core.return_injector import ReturnFaultSpec
from repro.core.runner import RunConfig
from repro.core.store import (
    RunStore,
    ShardedRunStore,
    config_fingerprint,
    fault_key_str,
    fault_from_dict,
    fault_to_dict,
    run_result_from_dict,
    run_result_to_dict,
)
from repro.core.workload import (
    MiddlewareKind,
    register_workload,
    unregister_workload,
)


# ----------------------------------------------------------------------
# Fault keys and fault serialization
# ----------------------------------------------------------------------
def test_fault_key_strings():
    fault = FaultSpec("ReadFile", 2, FaultType.ZERO, 1)
    assert fault_key_str(fault) == "param:ReadFile:2:zero:1"
    assert fault_key_str(ReturnFaultSpec("GetACP", FaultType.FLIP, 2)) == \
        "return:GetACP:flip:2"
    assert fault_key_str(None) == "profile"


@pytest.mark.parametrize("fault", [
    None,
    FaultSpec("CreateFileA", 0, FaultType.ONES, 2),
    ReturnFaultSpec("GetVersion", FaultType.ZERO, 1),
])
def test_fault_dict_roundtrip(fault):
    data = fault_to_dict(fault)
    if fault is None:
        assert data is None
    else:
        data = json.loads(json.dumps(data))
    assert fault_from_dict(data) == fault


# ----------------------------------------------------------------------
# RunResult serialization — one synthetic result per outcome class
# ----------------------------------------------------------------------
def _synthetic_result(outcome: Outcome,
                      function: str = "ReadFile") -> RunResult:
    record = ClientRecord()
    record.started_at = 0.0
    record.finished_at = 21.5 if outcome is not Outcome.FAILURE else None
    request = RequestRecord("GET /index.html")
    if outcome is Outcome.FAILURE:
        request.attempts = [AttemptResult.TIMEOUT, AttemptResult.RESET,
                            AttemptResult.REFUSED]
    elif outcome.involves_retry:
        request.attempts = [AttemptResult.RESET, AttemptResult.OK]
        request.succeeded = True
    else:
        request.attempts = [AttemptResult.OK]
        request.succeeded = True
    record.requests.append(request)
    restarts = 2 if outcome.involves_restart else 0
    return RunResult(
        workload_name="IIS", middleware=MiddlewareKind.WATCHD,
        fault=FaultSpec(function, 2, FaultType.ZERO),
        activated=True, activated_as_noop=False,
        outcome=outcome,
        failure_mode=(FailureMode.NO_RESPONSE
                      if outcome is Outcome.FAILURE else FailureMode.NONE),
        response_time=record.finished_at,
        restarts_detected=restarts,
        retries_used=request.retries_used,
        server_came_up=True,
        called_functions={"ReadFile", "CreateFileA", "CloseHandle"},
        client_record=record, watchd_version=3)


def _assert_equivalent(original: RunResult, restored: RunResult) -> None:
    assert restored.workload_name == original.workload_name
    assert restored.middleware is original.middleware
    assert restored.fault == original.fault
    assert restored.activated == original.activated
    assert restored.activated_as_noop == original.activated_as_noop
    assert restored.outcome is original.outcome
    assert restored.failure_mode is original.failure_mode
    assert restored.response_time == original.response_time
    assert restored.restarts_detected == original.restarts_detected
    assert restored.retries_used == original.retries_used
    assert restored.server_came_up == original.server_came_up
    assert restored.called_functions == original.called_functions
    assert restored.watchd_version == original.watchd_version
    assert restored.counts_for_statistics == original.counts_for_statistics
    theirs, ours = restored.client_record, original.client_record
    assert theirs.started_at == ours.started_at
    assert theirs.finished_at == ours.finished_at
    assert theirs.completed == ours.completed
    assert theirs.all_succeeded == ours.all_succeeded
    assert theirs.total_retries == ours.total_retries
    assert theirs.any_response_received == ours.any_response_received
    assert [(r.description, r.succeeded, r.attempts)
            for r in theirs.requests] == \
        [(r.description, r.succeeded, r.attempts) for r in ours.requests]


@pytest.mark.parametrize("outcome", list(Outcome),
                         ids=[o.value for o in Outcome])
def test_roundtrip_preserves_every_outcome_class(outcome):
    original = _synthetic_result(outcome)
    payload = json.loads(json.dumps(run_result_to_dict(original)))
    _assert_equivalent(original, run_result_from_dict(payload))


# ----------------------------------------------------------------------
# RunResult serialization — real results from an Echo campaign
# ----------------------------------------------------------------------
def _load_echo_workload():
    path = Path(__file__).resolve().parents[2] / "examples" / \
        "custom_workload.py"
    spec = importlib.util.spec_from_file_location("custom_workload", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ECHO


@pytest.fixture
def echo_workload():
    workload = register_workload(_load_echo_workload())
    yield workload
    unregister_workload("Echo")


def test_roundtrip_on_real_echo_campaign(echo_workload):
    result = Campaign("Echo", MiddlewareKind.WATCHD,
                      functions=["GetVersion", "CreateFileA", "ReadFile"],
                      config=RunConfig(base_seed=5)).run()
    assert result.runs
    observed = set()
    for run in [result.profile_run, *result.runs]:
        payload = json.loads(json.dumps(run_result_to_dict(run)))
        _assert_equivalent(run, run_result_from_dict(payload))
        observed.add(run.outcome)
    # The tiny campaign really exercises distinct outcome classes.
    assert Outcome.NORMAL_SUCCESS in observed
    assert len(observed) >= 2


# ----------------------------------------------------------------------
# Config fingerprints
# ----------------------------------------------------------------------
def test_fingerprint_stable_and_sensitive():
    config = RunConfig(base_seed=2000)
    base = config_fingerprint("IIS", MiddlewareKind.NONE, config)
    assert base == config_fingerprint("IIS", MiddlewareKind.NONE, config)
    assert base != config_fingerprint("SQL", MiddlewareKind.NONE, config)
    assert base != config_fingerprint("IIS", MiddlewareKind.WATCHD, config)
    assert base != config_fingerprint("IIS", MiddlewareKind.NONE,
                                      RunConfig(base_seed=2001))
    assert base != config_fingerprint("IIS", MiddlewareKind.NONE, config,
                                      mechanism="return")
    assert base != config_fingerprint(
        "IIS", MiddlewareKind.NONE, RunConfig(base_seed=2000,
                                              watchd_version=2))


# ----------------------------------------------------------------------
# The JSONL store
# ----------------------------------------------------------------------
def test_store_persists_across_reopen(tmp_path):
    path = tmp_path / "runs.jsonl"
    original = _synthetic_result(Outcome.RESTART_SUCCESS)
    fingerprint = "abcd" * 4
    with RunStore(path) as store:
        store.put(fingerprint, original.fault, original)
        assert len(store) == 1
    with RunStore(path) as reopened:
        restored = reopened.get(fingerprint, original.fault)
        assert restored is not None
        _assert_equivalent(original, restored)
        assert reopened.get("other" * 4, original.fault) is None


def test_store_tolerates_truncated_tail(tmp_path):
    path = tmp_path / "runs.jsonl"
    original = _synthetic_result(Outcome.NORMAL_SUCCESS)
    with RunStore(path) as store:
        store.put("fp", original.fault, original)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"fp": "fp", "key": "param:X:0:z')  # killed mid-write
    with RunStore(path) as store:
        assert len(store) == 1
        assert store.get("fp", original.fault) is not None


def test_campaign_checkpoints_and_resumes(tmp_path):
    config = RunConfig(base_seed=2000)
    functions = ["SetErrorMode", "CreateEventA"]
    path = tmp_path / "runs.jsonl"

    with RunStore(path) as store:
        first = Campaign("IIS", MiddlewareKind.NONE, functions=functions,
                         config=config, store=store).run()
    assert first.cached_count == 0
    assert first.executed_count == len(first.runs) + 1  # + profile

    with RunStore(path) as store:
        second = Campaign("IIS", MiddlewareKind.NONE, functions=functions,
                          config=config, store=store).run()
    assert second.executed_count == 0
    assert second.cached_count == len(first.runs) + 1
    assert [r.fault.key for r in second.runs] == \
        [r.fault.key for r in first.runs]
    assert second.outcome_counts() == first.outcome_counts()


def test_interrupted_campaign_resumes_only_missing_runs(tmp_path):
    """Kill a campaign mid-grid; the rerun executes only what's left."""
    config = RunConfig(base_seed=2000)
    functions = ["SetErrorMode", "CreateEventA", "CreateFileA"]
    path = tmp_path / "runs.jsonl"

    reference = Campaign("IIS", MiddlewareKind.NONE, functions=functions,
                         config=config).run()
    total = len(reference.runs)

    class Killed(BaseException):
        """Stands in for SIGINT: not caught by the progress guard."""

    def kill_after(execution):
        if execution.done == 4:
            raise Killed

    with RunStore(path) as store:
        with pytest.raises(Killed):
            Campaign("IIS", MiddlewareKind.NONE, functions=functions,
                     config=config, store=store, progress=kill_after).run()

    class CountingBackend(SerialBackend):
        def __init__(self):
            self.dispatched = 0

        def run_tasks(self, tasks, *args, **kwargs):
            def counted():
                for task in tasks:
                    self.dispatched += 1
                    yield task

            return super().run_tasks(counted(), *args, **kwargs)

    backend = CountingBackend()
    with RunStore(path) as store:
        resumed = Campaign("IIS", MiddlewareKind.NONE, functions=functions,
                           config=config, store=store,
                           backend=backend).run()
    # 4 injection runs and the profile were checkpointed before the kill.
    assert resumed.cached_count == 5
    assert backend.dispatched == total - 4
    assert [r.fault.key for r in resumed.runs] == \
        [r.fault.key for r in reference.runs]
    assert resumed.outcome_counts() == reference.outcome_counts()


def test_store_shared_across_campaign_configs(tmp_path):
    """Cross-campaign caching: a Figure-3 slice after a Figure-2 slice
    re-executes nothing for the shared (workload, middleware) cell."""
    config = RunConfig(base_seed=2000)
    path = tmp_path / "runs.jsonl"

    with RunStore(path) as store:
        Campaign("IIS", MiddlewareKind.NONE, functions=["SetErrorMode"],
                 config=config, store=store).run()
        again = Campaign("IIS", MiddlewareKind.NONE,
                         functions=["SetErrorMode"], config=config,
                         store=store).run()
        assert again.executed_count == 0
        # A different middleware is a different fingerprint: no reuse.
        other = Campaign("IIS", MiddlewareKind.WATCHD,
                         functions=["SetErrorMode"], config=config,
                         store=store).run()
        assert other.executed_count > 0


# ----------------------------------------------------------------------
# Corruption accounting (interior vs truncated tail)
# ----------------------------------------------------------------------
def test_truncated_tail_is_not_counted_as_corruption(tmp_path):
    path = tmp_path / "runs.jsonl"
    original = _synthetic_result(Outcome.NORMAL_SUCCESS)
    with RunStore(path) as store:
        store.put("fp", original.fault, original)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"fp": "fp", "key": "param:X:0:z')
    with RunStore(path) as store:
        assert store.corrupt_lines == 0


def test_interior_corruption_is_counted_not_hidden(tmp_path):
    """Damage anywhere but the final line is counted so callers can
    warn — a silently shrunk store looks identical to a healthy one."""
    path = tmp_path / "runs.jsonl"
    results = {k: _synthetic_result(Outcome.NORMAL_SUCCESS, function=k)
               for k in ("ReadFile", "CreateFileA", "CloseHandle")}
    with RunStore(path) as store:
        for result in results.values():
            store.put("fp", result.fault, result)
    lines = path.read_text().splitlines()
    lines[1] = lines[1][: len(lines[1]) // 2]  # damage the MIDDLE line
    path.write_text("\n".join(lines) + "\n")
    with RunStore(path) as store:
        assert store.corrupt_lines == 1
        assert len(store) == 2
        assert store.get("fp", results["ReadFile"].fault) is not None
        assert store.get("fp", results["CreateFileA"].fault) is None


@pytest.mark.parametrize("cut", [40, 1], ids=["mid-record", "newline"])
@pytest.mark.parametrize("flavour", ["single", "sharded"])
def test_append_after_truncated_tail_keeps_every_run(tmp_path, flavour,
                                                     cut):
    """A resumed append must not glue its record onto a kill-truncated
    final line: the loader would then drop both.  Cutting only the
    newline leaves a whole record, which must survive too."""
    result = _synthetic_result(Outcome.NORMAL_SUCCESS)
    if flavour == "single":
        data_file = tmp_path / "runs.jsonl"

        def open_store():
            return RunStore(data_file)
    else:
        data_file = tmp_path / "runs.d" / "segment-000.jsonl"

        def open_store():
            return ShardedRunStore(tmp_path / "runs.d", segments=1)

    with open_store() as store:
        store.put("fp", "k1", result)
        store.put("fp", "k2", result)
    with open(data_file, "r+b") as handle:  # killed mid-write
        handle.truncate(data_file.stat().st_size - cut)
    with open_store() as store:  # resume: re-run whatever is missing
        for key in ("k2", "k3"):
            if ("fp", key) not in store:
                store.put("fp", key, result)
    with open_store() as store:
        assert store.keys() == [("fp", "k1"), ("fp", "k2"), ("fp", "k3")]
        assert store.corrupt_lines == 0


def test_structurally_wrong_interior_line_is_counted(tmp_path):
    path = tmp_path / "runs.jsonl"
    original = _synthetic_result(Outcome.NORMAL_SUCCESS)
    path.write_text('{"not": "a store entry"}\n')
    with RunStore(path) as store:
        store.put("fp", original.fault, original)
    with RunStore(path) as reopened:
        assert reopened.corrupt_lines == 1
        assert len(reopened) == 1


# ----------------------------------------------------------------------
# Durability (flush vs fsync)
# ----------------------------------------------------------------------
def test_durable_store_fsyncs_every_append(tmp_path, monkeypatch):
    import os as os_module

    synced = []
    real_fsync = os_module.fsync
    monkeypatch.setattr(os_module, "fsync",
                        lambda fd: (synced.append(fd), real_fsync(fd)))
    result = _synthetic_result(Outcome.NORMAL_SUCCESS)

    with RunStore(tmp_path / "plain.jsonl") as store:
        store.put("fp", result.fault, result)
    assert synced == []  # default: flush only, no disk round-trip

    with RunStore(tmp_path / "durable.jsonl", durable=True) as store:
        store.put("fp", result.fault, result)
        store.put("fp2", result.fault, result)
    assert len(synced) == 2  # one fsync per append


# ----------------------------------------------------------------------
# find(): the secondary index by fault key
# ----------------------------------------------------------------------
def test_find_returns_sorted_fingerprints(tmp_path):
    result = _synthetic_result(Outcome.NORMAL_SUCCESS)
    key = fault_key_str(result.fault)
    with RunStore(tmp_path / "runs.jsonl") as store:
        for fp in ("bbbb", "aaaa", "cccc"):
            store.put(fp, result.fault, result)
        found = store.find(key)
    assert [fp for fp, _ in found] == ["aaaa", "bbbb", "cccc"]
    assert all(fault_key_str(match.fault) == key for _, match in found)


def test_find_index_stays_current_across_put(tmp_path):
    """The lazily-built key index must see entries added after it was
    built — a stale index would make resumed lookups miss fresh runs."""
    first = _synthetic_result(Outcome.NORMAL_SUCCESS, function="ReadFile")
    second = _synthetic_result(Outcome.NORMAL_SUCCESS,
                               function="CreateFileA")
    with RunStore(tmp_path / "runs.jsonl") as store:
        store.put("fp1", first.fault, first)
        assert len(store.find(fault_key_str(first.fault))) == 1  # builds it
        store.put("fp2", first.fault, first)       # new fingerprint
        store.put("fp1", second.fault, second)     # new key entirely
        store.put("fp1", first.fault, first)       # overwrite: no dup
        assert [fp for fp, _ in store.find(fault_key_str(first.fault))] \
            == ["fp1", "fp2"]
        assert [fp for fp, _ in store.find(fault_key_str(second.fault))] \
            == ["fp1"]
        assert store.find("param:Nothing:0:zero:1") == []
        # White-box: lookups go through the secondary index (built on
        # the first find, maintained across put) — not a linear scan.
        assert store._by_key is not None
        assert store._by_key[fault_key_str(first.fault)] == ["fp1", "fp2"]
