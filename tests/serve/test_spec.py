"""Tests for the serve wire schema: validation and round-tripping.

The property that matters: ``spec_from_dict(spec_to_dict(s)) == s``
for every constructible spec, because the daemon's dedup depends on a
resubmitted JSON body producing the identical store fingerprint.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.store import config_fingerprint
from repro.load import LoadSpec
from repro.serve import (
    CampaignJobSpec,
    LoadJobSpec,
    SpecError,
    spec_from_dict,
    spec_to_dict,
)

FUNCTION_NAMES = ("CreateFileA", "ReadFile", "CloseHandle", "Sleep")


# ----------------------------------------------------------------------
# Hypothesis strategies over the constructible spec space
# ----------------------------------------------------------------------
campaign_specs = st.builds(
    CampaignJobSpec,
    workload=st.sampled_from(("IIS", "Apache1", "Apache2", "SQL")),
    middleware=st.sampled_from(("none", "watchd")),
    watchd_version=st.sampled_from((1, 2, 3)),
    mechanism=st.sampled_from(("parameter", "return", "io", "resource")),
    functions=st.one_of(
        st.none(),
        st.lists(st.sampled_from(FUNCTION_NAMES), min_size=1,
                 max_size=4, unique=True)),
    base_seed=st.integers(min_value=0, max_value=2**31),
    trace_level=st.sampled_from(("off", "outcome", "calls")),
)

load_specs = st.builds(
    LoadJobSpec,
    load=st.builds(
        LoadSpec,
        workload=st.sampled_from(("IIS", "SQL")),
        middleware=st.sampled_from(("none", "watchd")),
        clients=st.integers(min_value=1, max_value=50),
        mode=st.sampled_from(("closed", "open")),
        iterations=st.integers(min_value=1, max_value=5),
    ),
    reps=st.integers(min_value=1, max_value=4),
    sweep=st.one_of(
        st.none(),
        st.lists(st.integers(min_value=1, max_value=100), min_size=1,
                 max_size=3)),
    base_seed=st.integers(min_value=0, max_value=2**31),
    watchd_version=st.sampled_from((1, 2, 3)),
)


@given(spec=campaign_specs)
def test_campaign_spec_roundtrips(spec):
    decoded = spec_from_dict(spec_to_dict(spec))
    assert decoded == spec
    assert decoded.fingerprint() == spec.fingerprint()


@given(spec=load_specs)
def test_load_spec_roundtrips(spec):
    decoded = spec_from_dict(spec_to_dict(spec))
    assert decoded == spec
    assert decoded.to_dict() == spec.to_dict()


@given(spec=campaign_specs)
def test_campaign_fingerprint_matches_cli_store_keying(spec):
    """A daemon-submitted spec must hash to the same store fingerprint
    the CLI computes, or daemon and CLI runs stop being
    interchangeable cache entries."""
    assert spec.fingerprint() == config_fingerprint(
        spec.workload, spec.middleware, spec.run_config(), spec.mechanism)


# ----------------------------------------------------------------------
# Defaults and aliases
# ----------------------------------------------------------------------
def test_minimal_campaign_submission():
    spec = spec_from_dict({"workload": "IIS"})
    assert isinstance(spec, CampaignJobSpec)
    assert spec.mechanism == "parameter"
    assert spec.base_seed == 2000
    assert spec.functions is None


def test_mechanism_alias_param():
    spec = spec_from_dict({"workload": "IIS", "mechanism": "param"})
    assert spec.mechanism == "parameter"


def test_load_submission_embeds_loadspec():
    load = LoadSpec("IIS", clients=5)
    spec = spec_from_dict({"kind": "load", "spec": load.to_dict(),
                           "reps": 2, "sweep": [5, 10]})
    assert isinstance(spec, LoadJobSpec)
    assert spec.load.to_dict() == load.to_dict()
    assert spec.sweep == [5, 10]


# ----------------------------------------------------------------------
# Rejection paths (everything here must bounce with HTTP 400)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("body, fragment", [
    ("not a dict", "JSON object"),
    ({"kind": "unknown"}, "unknown kind"),
    ({"workload": ""}, "workload"),
    ({"workload": "IIS", "mechanism": "voltage"}, "mechanism"),
    ({"workload": "IIS", "middleware": "systemd"}, "middleware"),
    ({"workload": "IIS", "watchd_version": 9}, "watchd_version"),
    ({"workload": "IIS", "trace_level": "loud"}, "trace_level"),
    ({"workload": "IIS", "base_seed": "lots"}, "base_seed"),
    ({"workload": "IIS", "functions": []}, "functions"),
    ({"kind": "load"}, "spec"),
    ({"kind": "load", "spec": LoadSpec("IIS").to_dict(), "reps": 0},
     "reps"),
    ({"kind": "load", "spec": LoadSpec("IIS").to_dict(), "sweep": []},
     "sweep"),
    ({"kind": "load", "spec": {"workload": "IIS", "clients": 0}},
     "load spec"),
    ({"workload": "IIS", "functions": ["SetErrorMode", 7]},
     "functions must be a list of strings"),
    ({"workload": "IIS", "trace_level": 1}, "unknown trace_level 1"),
])
def test_bad_submissions_raise_spec_error(body, fragment):
    with pytest.raises(SpecError, match=fragment):
        spec_from_dict(body)


# Any JSON object a client can POST either decodes or bounces with
# SpecError (HTTP 400); anything else escaping drops the connection.
FIELD_NAMES = sorted({*CampaignJobSpec("IIS").to_dict(),
                      *LoadJobSpec(LoadSpec("IIS")).to_dict(),
                      *LoadSpec("IIS").to_dict()})
field_names = st.sampled_from(FIELD_NAMES) | st.text(max_size=8)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(("campaign", "load", "IIS", "watchd", "parameter")),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(field_names, inner, max_size=4)),
    max_leaves=10)


@settings(max_examples=50, deadline=None)
@given(body=st.dictionaries(field_names, json_values, max_size=6),
       kind=st.sampled_from((None, "campaign", "load")))
def test_any_json_object_decodes_or_raises_spec_error(body, kind):
    if kind is not None:
        body = dict(body, kind=kind)
    try:
        spec = spec_from_dict(body)
    except SpecError:
        return
    assert isinstance(spec, (CampaignJobSpec, LoadJobSpec))


def _load(**fields) -> dict:
    return dict({"kind": "load", "spec": LoadSpec("IIS").to_dict()},
                **fields)


def _load_spec(**fields) -> dict:
    return _load(spec=dict(LoadSpec("IIS").to_dict(), **fields))


# JSON booleans are Python ints and int() rounds floats and parses
# strings, so each of these used to be accepted as some other integer.
@pytest.mark.parametrize("body, fragment", [
    ({"workload": "IIS", "base_seed": True}, "base_seed must be an integer"),
    ({"workload": "IIS", "watchd_version": True},
     "watchd_version must be an integer"),
    (_load(base_seed=True), "base_seed must be an integer"),
    (_load(reps=True), "reps must be an integer"),
    (_load(reps=2.0), "reps must be an integer"),
    (_load(watchd_version=True), "watchd_version must be an integer"),
    (_load(sweep=[5, 2.7]), "sweep entry must be an integer, got 2.7"),
    (_load(sweep=["3"]), "sweep entry must be an integer, got '3'"),
    (_load(sweep=[True]), "sweep entry must be an integer, got True"),
    (_load(sweep="5,10"), "sweep must be a non-empty list"),
    (_load_spec(clients=2.5),
     "bad load spec: clients must be an integer, got 2.5"),
    (_load_spec(clients=True),
     "bad load spec: clients must be an integer, got True"),
    (_load_spec(iterations="2"),
     "bad load spec: iterations must be an integer"),
    # The inner spec rejects a field it does not have, like the outer.
    (_load_spec(cycles=10), "unknown load spec field.*'cycles'"),
], ids=["seed-bool", "watchd-bool", "load-seed-bool",
        "reps-bool", "reps-float", "load-watchd-bool", "sweep-float",
        "sweep-str", "sweep-bool", "sweep-str-list", "clients-float",
        "clients-bool", "iterations-str", "inner-unknown"])
def test_integer_fields_are_strict(body, fragment):
    with pytest.raises(SpecError, match=fragment):
        spec_from_dict(body)


# A JSON boolean passes a "< 0" check as 1 or 0 (and fingerprints as a
# spec of its own), a string failed deep inside LoadSpec without naming
# the field, and Python's json parses NaN and Infinity, which slipped
# past "< 0" and "<= 0" alike.
@pytest.mark.parametrize("body, fragment", [
    (_load_spec(think_time=True),
     "bad load spec: think_time must be a number, got True"),
    (_load_spec(stagger=False),
     "bad load spec: stagger must be a number, got False"),
    (_load_spec(arrival_rate=True),
     "bad load spec: arrival_rate must be a number, got True"),
    (_load_spec(think_time="5"),
     "bad load spec: think_time must be a number, got '5'"),
    (_load_spec(stagger="0.25"), "bad load spec: stagger must be a number"),
    (_load_spec(arrival_rate="2"),
     "bad load spec: arrival_rate must be a number"),
    (_load_spec(think_time=float("nan")), "think_time must be finite"),
    (_load_spec(stagger=float("inf")), "stagger must be finite"),
    (_load_spec(arrival_rate=float("inf")), "arrival_rate must be finite"),
    (json.loads('{"kind": "load", "spec": {"workload": "IIS", '
                '"middleware": "none", "clients": 10, "mode": "closed", '
                '"iterations": 1, "think_time": NaN, "stagger": 0.25, '
                '"arrival_rate": Infinity, "fault": null}}'),
     "think_time must be finite"),
], ids=["think-bool", "stagger-bool", "rate-bool", "think-str",
        "stagger-str", "rate-str", "think-nan", "stagger-inf", "rate-inf",
        "wire-nan"])
def test_float_fields_are_strict(body, fragment):
    with pytest.raises(SpecError, match=fragment):
        spec_from_dict(body)


def test_integer_values_are_accepted_for_float_fields():
    spec = spec_from_dict(_load_spec(think_time=5, stagger=0, arrival_rate=2))
    assert (spec.load.think_time, spec.load.stagger,
            spec.load.arrival_rate) == (5, 0, 2)


def _load_with_fault(fault: dict) -> dict:
    return {"kind": "load",
            "spec": dict(LoadSpec("IIS").to_dict(), fault=fault)}


PARAM_FAULT = {"mechanism": "parameter", "function": "ReadFile",
               "param_index": 0, "fault_type": "zero", "invocation": 1}


@pytest.mark.parametrize("fault, fragment", [
    (dict(PARAM_FAULT, mechanism="bogus"), "unknown mechanism 'bogus'"),
    (dict(PARAM_FAULT, function="NoSuch", param_index=9),
     "unknown export 'NoSuch'"),
    (dict(PARAM_FAULT, param_index=9), "cannot corrupt index 9"),
    ({"mechanism": "return", "function": "NoSuch", "fault_type": "zero",
      "invocation": 1}, "unknown export 'NoSuch'"),
    ({"mechanism": "io", "op": "ReadFile", "mode": "delay", "value": 1.0,
      "window": {"unit": "calls", "start": 1.7, "end": 3.9}},
     "whole numbers"),
], ids=["mechanism", "export", "param-index", "return-export", "window"])
def test_load_fault_is_checked_against_the_registry(fault, fragment):
    with pytest.raises(SpecError, match=f"bad load spec: .*{fragment}"):
        spec_from_dict(_load_with_fault(fault))


def test_valid_load_fault_is_accepted():
    spec = spec_from_dict(_load_with_fault(PARAM_FAULT))
    assert spec.load.to_dict()["fault"] == PARAM_FAULT


def test_unregistered_workload_rejected_at_decode():
    with pytest.raises(SpecError, match="unknown workload 'NotAServer'"):
        spec_from_dict({"workload": "NotAServer"})


def test_names_resolve_like_the_cli_and_echo_canonically():
    spec = spec_from_dict({"workload": "iis", "middleware": "WATCHD",
                           "trace_level": "Outcome"})
    assert spec.to_dict() == dict(
        spec_to_dict(CampaignJobSpec("IIS", "watchd")),
        trace_level="outcome")
    versioned = spec_from_dict({"workload": "apache",
                                "middleware": "watchd2"})
    assert (versioned.workload, versioned.middleware.value,
            versioned.watchd_version) == ("Apache1", "watchd", 2)


def test_load_spec_names_resolve_like_the_cli():
    spec = spec_from_dict(_load(spec=dict(LoadSpec("IIS").to_dict(),
                                          workload="sqlserver",
                                          middleware="watchd1")))
    assert (spec.load.workload, spec.load.middleware.value,
            spec.watchd_version) == ("SQL", "watchd", 1)
