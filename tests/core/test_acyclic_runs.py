"""A finished run frees itself.

``Machine.shutdown`` breaks every link that would keep a dead machine
cyclic, so refcounting reclaims each run the moment it returns and the
cyclic collector has nothing of it to find.  ``gc.DEBUG_SAVEALL`` makes
the collector keep whatever it would have freed, so an empty
``gc.garbage`` after a run means the run left no cycle behind.
"""

import collections
import contextlib
import gc

import pytest

from repro.core.faults import FaultSpec, FaultWindow, IoFault, ResourceFault
from repro.core.runner import RunConfig, execute_run
from repro.core.store import RunStore, config_fingerprint
from repro.core.workload import MiddlewareKind, get_workload
from repro.load.runner import execute_load_run
from repro.load.spec import LoadSpec
from repro.nt.machine import Machine

SERVERS = ("Apache1", "Apache2", "IIS", "SQL")
CELLS = [(workload, middleware)
         for workload in SERVERS for middleware in MiddlewareKind]


def first_planned_fault(workload, function):
    return FaultSpec.fault_space([function],
                                 registry=get_workload(workload).registry)[0]


# Armed runs: a parameter fault that fires (its injector unhooks
# itself), one on an export the server never calls (its injector stays
# filed under that export until teardown), and the two windowed
# families (every-call hooks; the resource one holds the machine).
WINDOW = FaultWindow("calls", 1, 100)
ARMED = ([(workload, first_planned_fault(workload, function))
          for function in ("CreateFileA", "CreateFileW")
          for workload in SERVERS]
         + [("IIS", IoFault("ReadFile", "error", "EIO", WINDOW)),
            ("IIS", ResourceFault("memory", 1, WINDOW))])


@contextlib.contextmanager
def saved_garbage():
    """Yield a list that, on exit, holds a census of everything the
    collector found in the block (``gc.DEBUG_SAVEALL``)."""
    census = []
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield census
        gc.collect()
        census.extend(collections.Counter(
            type(obj).__qualname__ for obj in gc.garbage).most_common(8))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def stored_line(path, fingerprint, key, result) -> bytes:
    store = RunStore(path)
    store.put(fingerprint, key, result)
    store.close()
    return path.read_bytes()


def kill_only_teardown(monkeypatch):
    """The teardown before it broke any link: kill every process."""
    monkeypatch.setattr(Machine, "shutdown",
                        lambda machine: machine.processes.terminate_all())


@pytest.mark.parametrize("workload,middleware", CELLS,
                         ids=[f"{w}-{m.value}" for w, m in CELLS])
def test_a_fault_free_run_leaves_no_cycle(workload, middleware, tmp_path,
                                          monkeypatch):
    config = RunConfig()
    spec = get_workload(workload)
    fingerprint = config_fingerprint(workload, middleware, config)
    with monkeypatch.context() as patch:
        kill_only_teardown(patch)
        reference = stored_line(tmp_path / "reference.jsonl", fingerprint,
                                "profile",
                                execute_run(spec, middleware, None, config))
    with saved_garbage() as garbage:
        result = execute_run(spec, middleware, None, config)
        line = stored_line(tmp_path / "runs.jsonl", fingerprint, "profile",
                           result)
    assert garbage == []
    # Breaking the links took nothing the result holds.
    assert line == reference


def test_a_load_run_leaves_no_cycle(tmp_path, monkeypatch):
    config = RunConfig()
    spec = LoadSpec(workload="Apache1", middleware=MiddlewareKind.WATCHD,
                    clients=5, iterations=2)
    fingerprint = spec.fingerprint(config)
    with monkeypatch.context() as patch:
        kill_only_teardown(patch)
        reference = stored_line(tmp_path / "reference.jsonl", fingerprint,
                                spec.key(0),
                                execute_load_run(spec, 0, config))
    with saved_garbage() as garbage:
        result = execute_load_run(spec, 0, config)
        line = stored_line(tmp_path / "load.jsonl", fingerprint,
                           spec.key(0), result)
    assert garbage == []
    assert result.completed_clients == 5
    assert line == reference


@pytest.mark.parametrize("workload,fault", ARMED,
                         ids=[f"{w}-{f.store_key}" for w, f in ARMED])
def test_an_armed_run_leaves_no_cycle(workload, fault, tmp_path,
                                      monkeypatch):
    config = RunConfig()
    spec = get_workload(workload)
    middleware = MiddlewareKind.WATCHD
    fingerprint = config_fingerprint(workload, middleware, config,
                                     fault.mechanism)
    with monkeypatch.context() as patch:
        kill_only_teardown(patch)
        reference = stored_line(tmp_path / "reference.jsonl", fingerprint,
                                fault.store_key,
                                execute_run(spec, middleware, fault, config))
    with saved_garbage() as garbage:
        result = execute_run(spec, middleware, fault, config)
        line = stored_line(tmp_path / "runs.jsonl", fingerprint,
                           fault.store_key, result)
    assert garbage == []
    assert result.activated == (fault.function != "CreateFileW")
    assert line == reference
