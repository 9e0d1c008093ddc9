"""Tests for the campaign planner (the probe/release schedule)."""

from repro.core.faultlist import generate_fault_list
from repro.core.faults import FaultSpec, FaultType, ReturnFaultSpec
from repro.core.plan import TaskKind, plan_campaign


def _faults():
    # ReadFile: 5 params x 3 types; SetEvent: 1 param x 3 types.
    return generate_fault_list(["ReadFile", "SetEvent"])


def _scheduled(plan):
    """The tasks the scheduler may dispatch: probes and releases."""
    return [task for function, probe in plan.probes.items()
            for task in (probe, *plan.releases[function])]


def test_probe_release_structure():
    faults = _faults()
    plan = plan_campaign(faults)
    assert len(plan.tasks) == 18
    assert list(plan.probes) == ["ReadFile", "SetEvent"]
    probe = plan.probes["ReadFile"]
    assert probe.kind is TaskKind.PROBE
    assert probe.fault == faults[0]
    assert len(plan.releases["ReadFile"]) == 14
    assert len(plan.releases["SetEvent"]) == 2
    assert plan.inferred == {}


def test_releases_depend_on_their_probe():
    # A release belongs to its probe's function and follows the probe
    # in canonical order: it runs only once that probe has activated.
    plan = plan_campaign(_faults())
    for function, probe in plan.probes.items():
        for task in plan.releases[function]:
            assert task.kind is TaskKind.RELEASE
            assert task.function == function
            assert task.order > probe.order


def test_profile_gates_probes():
    plan = plan_campaign(_faults())
    assert plan.profile_task.kind is TaskKind.PROFILE
    assert plan.profile_task.fault is None
    assert plan.profile_task not in plan.tasks


def test_wave_schedule_shape():
    plan = plan_campaign(_faults())
    probes = list(plan.probes.values())
    releases = [task for group in plan.releases.values() for task in group]
    assert all(task.kind is TaskKind.PROBE for task in probes)
    assert all(task.kind is TaskKind.RELEASE for task in releases)
    assert len(probes) == 2
    assert len(releases) == 16
    assert sorted(_scheduled(plan), key=lambda task: task.order) \
        == plan.tasks


def test_canonical_order_matches_fault_list():
    faults = _faults()
    plan = plan_campaign(faults)
    assert [task.order for task in plan.tasks] == list(range(len(faults)))
    assert [task.fault for task in plan.tasks] == faults


def test_duplicate_equal_faults_stay_distinct_tasks():
    # Regression for the old list.index() accounting: two faults that
    # compare equal must still be two schedulable tasks.
    fault = FaultSpec("SetEvent", 0, FaultType.ZERO)
    twin = FaultSpec("SetEvent", 0, FaultType.ZERO)
    other = FaultSpec("SetEvent", 0, FaultType.ONES)
    plan = plan_campaign([fault, twin, other])
    assert len(plan.tasks) == 3
    assert len(plan.releases["SetEvent"]) == 2
    task_ids = [task.task_id for task in plan.tasks]
    assert len(set(task_ids)) == 3


def test_return_fault_specs_plan_too():
    faults = ReturnFaultSpec.fault_space(["GetACP", "SetEvent"])
    plan = plan_campaign(faults)
    assert len(plan.tasks) == 6
    assert set(plan.probes) == {"GetACP", "SetEvent"}


# ----------------------------------------------------------------------
# Equivalence pruning
# ----------------------------------------------------------------------
def _manifest(classes):
    from repro.lint.valueflow import EquivalenceManifest

    return EquivalenceManifest(classes)


def _inferred(plan):
    return [task for group in plan.inferred.values() for task in group]


def test_pruned_faults_become_inferred_tasks():
    faults = generate_fault_list(["SetEvent"])   # 1 param x 3 types
    manifest = _manifest([{"function": "SetEvent", "param": 0,
                           "name": "hEvent", "usage": "handle-checked",
                           "faults": ["zero", "ones", "flip"]}])
    plan = plan_campaign(faults, prune=manifest)
    # The probe (zero) represents the class; ones and flip are inferred.
    assert len(plan.tasks) == 3
    assert len(_scheduled(plan)) == 1
    assert plan.releases["SetEvent"] == ()
    inferred = plan.inferred["SetEvent"]
    assert [task.kind for task in inferred] == [TaskKind.INFERRED] * 2
    probe = plan.probes["SetEvent"]
    for task in inferred:
        assert task.representative is probe


def test_pruning_keeps_canonical_order_and_census():
    faults = generate_fault_list(["ReadFile", "SetEvent"])
    manifest = _manifest([{"function": "ReadFile", "param": 0,
                           "name": "hFile", "usage": "handle-checked",
                           "faults": ["zero", "ones", "flip"]}])
    plan = plan_campaign(faults, prune=manifest)
    assert [task.fault for task in plan.tasks] == faults
    assert len(_inferred(plan)) == 2
    # Untouched functions keep their full release schedule.
    assert len(plan.releases["SetEvent"]) == 2
    assert "SetEvent" not in plan.inferred
    # Every fault is a probe, a release or an inferred member.
    assert 1 + len(plan.releases["ReadFile"]) \
        + len(plan.inferred["ReadFile"]) == 15
    assert sorted(_scheduled(plan) + _inferred(plan),
                  key=lambda task: task.order) == plan.tasks


def test_partial_class_prunes_only_listed_faults():
    faults = generate_fault_list(["SetEvent"])
    manifest = _manifest([{"function": "SetEvent", "param": 0,
                           "name": "hEvent", "usage": "optional-deref",
                           "faults": ["ones", "flip"]}])
    plan = plan_campaign(faults, prune=manifest)
    # zero (probe) is outside the class; ones is scheduled as the
    # class representative, flip is inferred from it.
    assert len(_scheduled(plan)) == 2
    (inferred,) = plan.inferred["SetEvent"]
    assert inferred.fault.fault_type is FaultType.FLIP
    assert inferred.representative is plan.releases["SetEvent"][0]
    assert inferred.representative.fault.fault_type is FaultType.ONES


def test_distinct_invocations_are_never_cross_pruned():
    faults = generate_fault_list(["SetEvent"], invocations=(1, 2))
    manifest = _manifest([{"function": "SetEvent", "param": 0,
                           "name": "hEvent", "usage": "handle-checked",
                           "faults": ["zero", "ones", "flip"]}])
    plan = plan_campaign(faults, prune=manifest)
    # Each invocation collapses within itself only: 2 classes of 3.
    assert len(plan.tasks) == 6
    assert len(_scheduled(plan)) == 2
    assert len(_inferred(plan)) == 4
    for task in _inferred(plan):
        assert task.representative in _scheduled(plan)
        assert task.representative.fault.invocation == task.fault.invocation


def test_return_faults_are_never_pruned():
    faults = ReturnFaultSpec.fault_space(["SetEvent"])
    manifest = _manifest([{"function": "SetEvent", "param": 0,
                           "name": "hEvent", "usage": "handle-checked",
                           "faults": ["zero", "ones", "flip"]}])
    plan = plan_campaign(faults, prune=manifest)
    assert plan.inferred == {}
    assert len(_scheduled(plan)) == len(plan.tasks) == 3
