"""Differential oracles over the sustained fault families.

The determinism contract that holds for parameter faults must also
hold for windowed io/resource campaigns: the checkpointed store is
byte-identical whatever the execution strategy — serial, process pool,
or killed-and-resumed.  A single byte of drift here means window
timing leaked scheduling or host state.
"""

import json

import pytest

from repro.core.campaign import Campaign
from repro.core.exec import ProcessPoolBackend
from repro.core.runner import RunConfig
from repro.core.store import RunStore
from repro.core.workload import MiddlewareKind

IO_OPS = ["ReadFile", "net.connect", "net.recv"]
RESOURCES = ["memory", "cpu"]
KILL_AFTER = 3


class Killed(BaseException):
    """Stands in for SIGINT: not caught by the progress guard."""


def _kill_after(execution):
    if execution.done == KILL_AFTER:
        raise Killed


def _campaign(mechanism, functions, store=None, backend=None,
              progress=None):
    return Campaign("IIS", MiddlewareKind.NONE, mechanism=mechanism,
                    functions=functions,
                    config=RunConfig(base_seed=4000, trace_level="off"),
                    store=store, backend=backend, progress=progress)


def _store_bytes(tmp_path, name, mechanism, functions, backend=None):
    path = tmp_path / name
    with RunStore(path) as store:
        _campaign(mechanism, functions, store=store, backend=backend).run()
    return path.read_bytes()


@pytest.mark.parametrize("mechanism,functions", [
    ("io", IO_OPS),
    ("resource", RESOURCES),
])
def test_pool_store_is_byte_identical_to_serial(tmp_path, mechanism,
                                                functions):
    serial = _store_bytes(tmp_path, "serial.jsonl", mechanism, functions)
    with ProcessPoolBackend(jobs=2) as backend:
        pooled = _store_bytes(tmp_path, "pooled.jsonl", mechanism,
                              functions, backend=backend)
    assert serial == pooled


@pytest.mark.parametrize("mechanism,functions", [
    ("io", IO_OPS),
    ("resource", RESOURCES),
])
def test_killed_and_resumed_store_is_byte_identical(tmp_path, mechanism,
                                                    functions):
    reference = _store_bytes(tmp_path, "reference.jsonl", mechanism,
                             functions)

    path = tmp_path / "resumed.jsonl"
    with RunStore(path) as store:
        with pytest.raises(Killed):
            _campaign(mechanism, functions, store=store,
                      progress=_kill_after).run()
    interrupted = path.read_bytes()
    assert interrupted and reference.startswith(interrupted)

    with RunStore(path) as store:
        resumed = _campaign(mechanism, functions, store=store).run()
    assert resumed.cached_count == KILL_AFTER + 1  # + the profile run
    assert path.read_bytes() == reference


def test_io_and_resource_campaigns_share_a_store_without_collisions(
        tmp_path):
    # Mechanism is part of the fingerprint: one store file can hold
    # both families plus their profile runs with disjoint keys.
    path = tmp_path / "mixed.jsonl"
    with RunStore(path) as store:
        io_result = _campaign("io", ["net.connect"], store=store).run()
        resource_result = _campaign("resource", ["handles"],
                                    store=store).run()
    records = [json.loads(line)
               for line in path.read_bytes().splitlines() if line]
    keys = [(record["fp"], record["key"]) for record in records]
    assert len(keys) == len(set(keys))
    assert len(records) == (len(io_result.runs)
                            + len(resource_result.runs) + 2)

    # A rerun of either family is then fully cached.
    with RunStore(path) as store:
        again = _campaign("io", ["net.connect"], store=store).run()
    assert again.executed_count == 0
    assert len(path.read_bytes().splitlines()) == len(records)
