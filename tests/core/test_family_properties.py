"""Property suite for the sustained-fault codecs.

The run store is append-only and shared across campaigns, so every
spec type must survive the JSON round trip bit-for-bit and map to a
unique, stable store key.  Hypothesis drives the whole constructible
space — not just the default fault lists — because resumed campaigns
may read back faults written by a future (or past) enumeration.
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.faults import (
    IO_ERROR_CHOICES,
    NET_IO_OPS,
    RESOURCE_KINDS,
    SHORT_IO_OPS,
    FaultSpec,
    FaultType,
    FaultWindow,
    IoFault,
    ResourceFault,
    ReturnFaultSpec,
    fault_family,
)
from repro.core.runner import RunConfig
from repro.core.store import (
    config_fingerprint,
    fault_from_dict,
    fault_key_str,
    fault_to_dict,
)
from repro.core.workload import MiddlewareKind

# ----------------------------------------------------------------------
# Strategies over the constructible spec space
# ----------------------------------------------------------------------
# Floats travel through JSON and f"{x:g}" tokens; restrict to values
# with short decimal forms so equality is exact, as the enumerated
# fault lists do in practice.
_RATIO = st.integers(min_value=0, max_value=99).map(lambda n: n / 100)
_DELAY = st.integers(min_value=1, max_value=400).map(lambda n: n / 4)

windows = st.one_of(
    st.tuples(st.integers(min_value=1, max_value=10_000),
              st.integers(min_value=1, max_value=10_000))
    .filter(lambda span: span[0] < span[1])
    .map(lambda span: FaultWindow("calls", span[0], span[1])),
    st.tuples(st.integers(min_value=0, max_value=4_000),
              st.integers(min_value=1, max_value=4_000))
    .filter(lambda span: span[0] < span[0] + span[1])
    .map(lambda span: FaultWindow("time", span[0] / 4,
                                  (span[0] + span[1]) / 4)),
)


def _io_faults():
    error = st.sampled_from(
        [(op, value) for op, values in IO_ERROR_CHOICES.items()
         for value in values]
    ).flatmap(lambda pair: windows.map(
        lambda window: IoFault(pair[0], "error", pair[1], window)))
    short = st.tuples(st.sampled_from(SHORT_IO_OPS), _RATIO, windows).map(
        lambda t: IoFault(t[0], "short", t[1], t[2]))
    delay = st.tuples(st.sampled_from(NET_IO_OPS + SHORT_IO_OPS), _DELAY,
                      windows).map(
        lambda t: IoFault(t[0], "delay", t[1], t[2]))
    return st.one_of(error, short, delay)


def _resource_faults():
    severity = {
        "memory": _RATIO.map(lambda r: r + 0.01),
        "handles": _RATIO.map(lambda r: r + 0.01),
        "cpu": st.integers(min_value=5, max_value=64).map(lambda n: n / 4),
    }
    return st.sampled_from(RESOURCE_KINDS).flatmap(
        lambda kind: st.tuples(severity[kind], windows).map(
            lambda t: ResourceFault(kind, t[0], t[1])))


io_faults = _io_faults()
resource_faults = _resource_faults()
param_faults = st.builds(
    FaultSpec,
    function=st.sampled_from(("CreateFileA", "ReadFile", "HeapAlloc")),
    param_index=st.integers(min_value=0, max_value=2),
    fault_type=st.sampled_from(list(FaultType)),
    invocation=st.integers(min_value=1, max_value=5),
)
return_faults = st.builds(
    ReturnFaultSpec,
    function=st.sampled_from(("CreateFileA", "GetACP", "SetEvent")),
    fault_type=st.sampled_from(list(FaultType)),
    invocation=st.integers(min_value=1, max_value=5),
)
any_fault = st.one_of(io_faults, resource_faults, param_faults,
                      return_faults)


def _json_round_trip(fault):
    return fault_from_dict(json.loads(json.dumps(fault_to_dict(fault))))


# ----------------------------------------------------------------------
# Codec round trips
# ----------------------------------------------------------------------
@given(any_fault)
def test_json_round_trip_preserves_identity(fault):
    restored = _json_round_trip(fault)
    assert type(restored) is type(fault)
    assert restored == fault
    assert restored.key == fault.key


@given(io_faults)
def test_io_round_trip_preserves_every_field(fault):
    restored = _json_round_trip(fault)
    assert (restored.op, restored.mode, restored.value) \
        == (fault.op, fault.mode, fault.value)
    assert restored.window == fault.window


@given(resource_faults)
def test_resource_round_trip_preserves_every_field(fault):
    restored = _json_round_trip(fault)
    assert (restored.resource, restored.severity) \
        == (fault.resource, fault.severity)
    assert restored.window == fault.window


def test_none_fault_round_trips():
    assert fault_to_dict(None) is None
    assert fault_from_dict(None) is None


def test_unknown_mechanism_does_not_decode():
    data = fault_to_dict(FaultSpec("ReadFile", 0, FaultType.ZERO))
    with pytest.raises(ValueError, match="unknown mechanism 'bogus'"):
        fault_from_dict(dict(data, mechanism="bogus"))


# ----------------------------------------------------------------------
# The family table
# ----------------------------------------------------------------------
@given(any_fault)
def test_each_fault_is_its_own_family_row(fault):
    assert fault_family(fault.family) is type(fault)
    assert fault_family(fault.mechanism) is type(fault)
    assert fault_to_dict(fault)["mechanism"] == fault.mechanism
    assert fault_key_str(fault).startswith(f"{fault.family}:")


# ----------------------------------------------------------------------
# Windows
# ----------------------------------------------------------------------
@pytest.mark.parametrize("start, end", [(1.7, 3.9), (1, 3.5), (0.5, 2)])
def test_call_window_bounds_must_be_whole_numbers(start, end):
    with pytest.raises(ValueError, match="whole numbers"):
        FaultWindow("calls", start, end)


def test_call_window_tokens_reject_fractions_but_take_integral_floats():
    with pytest.raises(ValueError, match="whole numbers"):
        FaultWindow.from_token("calls@1.7-3.9")
    assert FaultWindow.from_token("calls@1.0-3").key == ("calls", 1, 3)
    assert FaultWindow("time", 1.7, 3.9).key == ("time", 1.7, 3.9)


# ----------------------------------------------------------------------
# Store keys
# ----------------------------------------------------------------------
@given(any_fault)
def test_store_key_is_stable_across_round_trip(fault):
    assert fault_key_str(_json_round_trip(fault)) == fault_key_str(fault)


@given(any_fault, any_fault)
def test_distinct_faults_have_distinct_store_keys(first, second):
    if first == second:
        assert fault_key_str(first) == fault_key_str(second)
    else:
        assert fault_key_str(first) != fault_key_str(second)


@given(windows)
def test_window_token_survives_the_key(window):
    # The window is part of fault identity: the same io fault over a
    # different window is a different store entry.
    fault = ResourceFault("memory", 1.0, window)
    assert window.to_token() in fault_key_str(fault)
    assert FaultWindow.from_token(window.to_token()) == window


def test_store_keys_are_human_auditable():
    fault = IoFault("ReadFile", "error", "EIO", FaultWindow("calls", 1, 100))
    assert fault_key_str(fault) == "io:ReadFile:error:EIO:calls@1-100"
    fault = ResourceFault("cpu", 8.0, FaultWindow("time", 5.0, 60.0))
    assert fault_key_str(fault) == "resource:cpu:8:time@5-60"


# ----------------------------------------------------------------------
# Config fingerprints
# ----------------------------------------------------------------------
def _fingerprint(mechanism):
    return config_fingerprint("IIS", MiddlewareKind.NONE, RunConfig(),
                              mechanism)


def test_fingerprint_is_stable_and_mechanism_sensitive():
    assert _fingerprint("io") == _fingerprint("io")
    assert len({_fingerprint(mechanism) for mechanism in
                ("parameter", "return", "io", "resource")}) == 4


def test_fingerprint_separates_workload_and_middleware():
    base = config_fingerprint("IIS", MiddlewareKind.NONE, RunConfig(), "io")
    assert base != config_fingerprint("Apache", MiddlewareKind.NONE,
                                      RunConfig(), "io")
    assert base != config_fingerprint("IIS", MiddlewareKind.WATCHD,
                                      RunConfig(), "io")
