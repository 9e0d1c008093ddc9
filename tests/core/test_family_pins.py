"""Byte pins for every fault family's run store.

perfbench pins the Figure-2 store, which holds parameter faults only.
These pins cover the other three families and a load run with a fault:
one small IIS campaign per family, traced at ``outcome`` level so the
``fault armed`` / ``activated`` / ``deactivated`` payloads are part of
the bytes, each checkpointed into its own store file whose sha256 is
fixed.  Two more campaigns are traced at ``calls`` level, which pins
the per-call trace stream as well.  Any change to a family's store key, codec, seed derivation,
injector or trace payload moves one of these digests.
"""

import hashlib

import pytest

from repro.core.campaign import Campaign
from repro.core.faults import FaultType
from repro.core.return_injector import ReturnFaultSpec
from repro.core.runner import RunConfig
from repro.core.store import RunStore
from repro.core.workload import MiddlewareKind
from repro.load import LoadSpec, plan_load_tasks, run_load_tasks

# mechanism -> (functions, sha256 of the store file)
CAMPAIGN_PINS = {
    "parameter": (
        ["SetErrorMode", "CreateEventA"],
        "25de36d5d650794115233191cf6cd2baf45150a1cdaba17d4c5c919e53eba57f"),
    "return": (
        ["SetErrorMode", "CreateEventA"],
        "7be89a34ccc827adffcfb2e8531da69336f7db2eafc232ad586f238a02d0e098"),
    "io": (
        ["ReadFile"],
        "3d6735304b2cd097d03b41a72680153016b76c068915e53dc08501c4192ce069"),
    "resource": (
        ["memory"],
        "0988d1a254bfb401e8cebbc78a4a747037602012bd143c5cdcfcd6bccc5a153f"),
}
LOAD_PIN = (
    "d799fa43363e825ee123fe61e1e271641dd924779708f85aa13adafe2b4c85dd")
# The same, under watchd and traced at ``calls`` level, so every
# ``call enter`` / ``call exit`` event (invocation, ``injected``, result)
# is part of the bytes: the stream the interception layer writes.
# mechanism -> (functions, runs, sha256 of the store file)
CALLS_PINS = {
    "parameter": (
        ["CreateFileA", "SetErrorMode", "CreateFileW"], 25,
        "1c134278c42410572aae8752cc0dd00afc669aa4729823faba59cea7538d807c"),
    "io": (
        ["ReadFile"], 7,
        "412f43968441a2c012404e5e8eb40b25e204a3212e0d589ce7f6e04aa0da6403"),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("mechanism", sorted(CAMPAIGN_PINS))
def test_family_store_bytes_are_pinned(tmp_path, mechanism):
    functions, digest = CAMPAIGN_PINS[mechanism]
    path = tmp_path / f"{mechanism}.jsonl"
    with RunStore(path) as store:
        Campaign("IIS", MiddlewareKind.NONE, mechanism=mechanism,
                 functions=functions,
                 config=RunConfig(trace_level="outcome"),
                 store=store).run()
    assert _sha256(path) == digest


@pytest.mark.parametrize("mechanism", sorted(CALLS_PINS))
def test_calls_level_store_bytes_are_pinned(tmp_path, mechanism):
    functions, runs, digest = CALLS_PINS[mechanism]
    path = tmp_path / f"{mechanism}-calls.jsonl"
    with RunStore(path) as store:
        result = Campaign("IIS", MiddlewareKind.WATCHD, mechanism=mechanism,
                          functions=functions,
                          config=RunConfig(trace_level="calls"),
                          store=store).run()
    assert result.executed_count == runs
    assert _sha256(path) == digest


def test_load_store_with_a_return_fault_is_pinned(tmp_path):
    spec = LoadSpec("IIS", clients=2,
                    fault=ReturnFaultSpec("CreateEventA", FaultType.ZERO))
    path = tmp_path / "load.jsonl"
    with RunStore(path) as store:
        run_load_tasks(plan_load_tasks(spec), RunConfig(), store=store)
    assert _sha256(path) == LOAD_PIN
