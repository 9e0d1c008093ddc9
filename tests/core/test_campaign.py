"""Tests for the Figure-1 campaign flow.

Campaigns here are restricted to small function subsets so each test
runs a handful of injections, not the full 551-function sweep.
"""

import pytest

from repro.core.campaign import Campaign, profile_workload
from repro.core.exec import ProcessPoolBackend, run_plan
from repro.core.faults import FaultType
from repro.core.outcomes import Outcome
from repro.core.runner import RunConfig
from repro.core.workload import MiddlewareKind


@pytest.fixture(scope="module")
def config():
    return RunConfig(base_seed=77)


def _run(campaign):
    """Run ``campaign`` with an observer on its run ledger: the last
    report must account for every scheduled run."""
    reports = []
    campaign.progress = lambda execution: reports.append(
        (execution.done, execution.total))
    result = campaign.run()
    done, total = reports[-1]
    assert done == total
    return result


def test_campaign_runs_all_faults_of_called_functions(config):
    campaign = Campaign("IIS", MiddlewareKind.NONE,
                        functions=["SetErrorMode", "GetACP"], config=config)
    result = _run(campaign)
    # SetErrorMode has 1 parameter -> 3 faults; GetACP has none.
    assert len(result.runs) == 3
    assert result.activated_count == 3


def test_uncalled_functions_skipped_by_profiling(config):
    campaign = Campaign("IIS", MiddlewareKind.NONE,
                        functions=["SetErrorMode", "EraseTape"],
                        config=config)
    result = _run(campaign)
    assert "EraseTape" in result.skipped_functions
    assert all(r.fault.function != "EraseTape" for r in result.runs)
    assert result.profile_run is not None


def test_activation_shortcut_skips_releases_of_an_unactivated_probe(
        config):
    # SetErrorMode passes the profile gate (IIS calls it), but IIS never
    # makes a 50th call, so its probe does not activate and the paper's
    # shortcut skips the function's remaining faults.
    campaign = Campaign("IIS", MiddlewareKind.NONE,
                        functions=["SetErrorMode"], invocations=(50,),
                        config=config)
    plan = campaign.plan()
    assert len(plan.releases["SetErrorMode"]) == 2
    reports = []
    execution = run_plan(plan, campaign.workload, campaign.middleware,
                         campaign.config, campaign.fingerprint(),
                         campaign.backend,
                         progress=lambda execution: reports.append(
                             (execution.done, execution.total)))
    assert "SetErrorMode" in execution.profile_run.called_functions
    assert len(execution.runs) == 1       # one probe run, then skipped
    assert not execution.runs[0].activated
    assert execution.executed_count == 2  # the profile run and the probe
    assert execution.skipped_functions == {"SetErrorMode"}
    # The skipped releases count as done, and the last report says so.
    assert execution.done == execution.total == 3
    assert reports[-1] == (3, 3)


def test_outcome_fractions_sum_to_one(config):
    campaign = Campaign("IIS", MiddlewareKind.NONE,
                        functions=["CreateEventA"], config=config)
    result = _run(campaign)
    fractions = result.outcome_fractions()
    assert sum(fractions.values()) == pytest.approx(1.0)
    assert result.failure_coverage == \
        pytest.approx(1.0 - fractions[Outcome.FAILURE])


def test_empty_workload_set_has_zero_fractions(config):
    campaign = Campaign("IIS", MiddlewareKind.NONE,
                        functions=["EraseTape"], config=config)
    result = _run(campaign)
    assert result.activated_count == 0
    assert all(v == 0.0 for v in result.outcome_fractions().values())


def test_progress_callback_invoked(config):
    seen = []

    def observe(execution):
        if execution.last_run is not None:
            seen.append((execution.done, execution.total,
                         execution.last_run.outcome))

    campaign = Campaign(
        "IIS", MiddlewareKind.NONE, functions=["SetErrorMode"],
        config=config, progress=observe)
    campaign.run()
    assert len(seen) == 3
    assert seen[-1][0] == seen[-1][1] == 3


def test_fault_type_restriction(config):
    campaign = Campaign("IIS", MiddlewareKind.NONE,
                        functions=["SetErrorMode"],
                        fault_types=(FaultType.FLIP,), config=config)
    result = _run(campaign)
    assert len(result.runs) == 1
    assert result.runs[0].fault.fault_type is FaultType.FLIP


def test_runs_for_fault_keys_filters(config):
    campaign = Campaign("IIS", MiddlewareKind.NONE,
                        functions=["SetErrorMode"], config=config)
    result = _run(campaign)
    keys = {result.runs[0].fault.key}
    assert len(result.runs_for_fault_keys(keys)) == 1
    assert result.runs_for_fault_keys(set()) == []


def test_profile_workload_returns_table1_counts(config):
    assert len(profile_workload("Apache1", MiddlewareKind.NONE,
                                config=config)) == 13
    assert len(profile_workload("Apache1", MiddlewareKind.MSCS,
                                config=config)) == 17


def test_campaign_accepts_spec_object(config):
    from repro.core.workload import IIS

    campaign = Campaign(IIS, MiddlewareKind.NONE, functions=["GetACP"],
                        config=config)
    assert campaign.workload.name == "IIS"


def test_campaign_resolves_a_middleware_name(config):
    """A middleware name resolves like the CLI's, checked against the
    config's watchd version."""
    by_name = Campaign("IIS", "WatchD", functions=["GetACP"], config=config)
    by_kind = Campaign("IIS", MiddlewareKind.WATCHD, functions=["GetACP"],
                       config=config)
    assert by_name.middleware is MiddlewareKind.WATCHD
    assert by_name.fingerprint() == by_kind.fingerprint()
    two = RunConfig(base_seed=77, watchd_version=2)
    assert Campaign("IIS", "watchd2", config=two).fingerprint() == \
        Campaign("IIS", MiddlewareKind.WATCHD, config=two).fingerprint()
    with pytest.raises(ValueError, match="conflicts with watchd_version 3"):
        Campaign("IIS", "watchd2", config=config)
    with pytest.raises(ValueError, match="unknown middleware"):
        Campaign("IIS", "nginx", config=config)


def test_campaign_is_deterministic(config):
    def distribution():
        return _run(Campaign("Apache2", MiddlewareKind.NONE,
                             functions=["OpenMutexA", "Sleep"],
                             config=config)).outcome_counts()

    assert distribution() == distribution()


# ----------------------------------------------------------------------
# Equivalence pruning (--prune-equivalent): the Figure-2 census of a
# pruned campaign must be bit-identical to the full campaign's.
# ----------------------------------------------------------------------
PRUNE_FUNCTIONS = ["CreateEventA", "SetErrorMode", "CreateFileA"]


@pytest.fixture(scope="module")
def manifest():
    """The real manifest, computed from the shipped tree."""
    from repro.lint.core import Analyzer, _lint_files
    from repro.lint.valueflow import valueflow_for

    analyzer = Analyzer([])
    py_files, _fault_files = analyzer.collect(["src"])
    tasks = [(path, analyzer._display_path(path)) for path in py_files]
    modules, _parse_findings = _lint_files(tasks, [])
    return valueflow_for(modules).manifest


def _census(result):
    """Per-fault outcome evidence, in canonical fault-list order."""
    return [(run.fault.key, run.activated, run.outcome,
             run.failure_mode, run.restarts_detected, run.retries_used)
            for run in result.runs]


def test_pruned_census_is_bit_identical(config, manifest):
    full = _run(Campaign("IIS", MiddlewareKind.NONE,
                         functions=PRUNE_FUNCTIONS, config=config))
    pruned = _run(Campaign("IIS", MiddlewareKind.NONE,
                           functions=PRUNE_FUNCTIONS, config=config,
                           prune=manifest))
    assert pruned.inferred_count > 0
    executed = [run for run in pruned.runs if not run.inferred]
    assert len(executed) == len(full.runs) - pruned.inferred_count
    assert _census(pruned) == _census(full)
    assert pruned.outcome_counts() == full.outcome_counts()


def test_pruned_census_is_bit_identical_in_parallel(config, manifest):
    full = _run(Campaign("IIS", MiddlewareKind.NONE,
                         functions=PRUNE_FUNCTIONS, config=config))
    with ProcessPoolBackend(jobs=2) as backend:
        pruned = _run(Campaign("IIS", MiddlewareKind.NONE,
                               functions=PRUNE_FUNCTIONS, config=config,
                               prune=manifest, backend=backend))
    assert pruned.inferred_count > 0
    assert _census(pruned) == _census(full)


def test_pruned_campaign_kill_and_resume(config, manifest, tmp_path):
    from repro.core.store import RunStore

    path = tmp_path / "runs.jsonl"
    reference = _run(Campaign("IIS", MiddlewareKind.NONE,
                              functions=PRUNE_FUNCTIONS, config=config))

    class Killed(BaseException):
        """Stands in for SIGINT: not caught by the progress guard."""

    def kill_after(execution):
        if execution.done == 2:
            raise Killed

    with RunStore(path) as store:
        with pytest.raises(Killed):
            Campaign("IIS", MiddlewareKind.NONE,
                     functions=PRUNE_FUNCTIONS, config=config,
                     prune=manifest, store=store,
                     progress=kill_after).run()

    with RunStore(path) as store:
        resumed = _run(Campaign("IIS", MiddlewareKind.NONE,
                                functions=PRUNE_FUNCTIONS, config=config,
                                prune=manifest, store=store))
    # Only executed evidence is checkpointed; inferred results are
    # re-expanded on resume and the census still matches the full run.
    assert resumed.cached_count > 0
    assert resumed.inferred_count > 0
    assert _census(resumed) == _census(reference)
    with RunStore(path) as store:
        assert len(store) == len(reference.runs) - \
            resumed.inferred_count + 1   # + the profile run
