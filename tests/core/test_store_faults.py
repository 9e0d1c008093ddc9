"""The run store under injected disk faults.

The tool injects its own faultload into itself: a write that lands
half a line and then fails with ENOSPC, a crash midway through the
sharded store's manifest, and the directory fsync that makes a durable
store's renames survive power loss.
"""

import errno
import json
import os
import stat

import pytest

from repro.core import store as store_module
from repro.core.outcomes import Outcome
from repro.core.store import MANIFEST_NAME, RunStore, ShardedRunStore

from .test_store import _synthetic_result


class _HalfLineThenFull:
    """A store file handle: while ``faults`` is non-empty, the next
    write lands half its text and then fails with ENOSPC."""

    def __init__(self, handle, faults):
        self._handle = handle
        self._faults = faults

    def write(self, text):
        if self._faults:
            self._faults.pop()
            self._handle.write(text[:len(text) // 2])
            self._handle.flush()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self._handle.write(text)

    def __getattr__(self, name):
        return getattr(self._handle, name)


def _opener(flavour, tmp_path):
    if flavour == "single":
        return lambda: RunStore(tmp_path / "runs.jsonl")
    # One segment: every put lands in the file the failed put cut.
    return lambda: ShardedRunStore(tmp_path / "runs.d", segments=1)


@pytest.mark.parametrize("flavour", ["single", "sharded"])
def test_enospc_mid_append_leaves_no_trace(tmp_path, monkeypatch, flavour):
    faults = []
    real_open = store_module._open_append
    monkeypatch.setattr(store_module, "_open_append",
                        lambda path: _HalfLineThenFull(real_open(path),
                                                       faults))
    first = _synthetic_result(Outcome.NORMAL_SUCCESS, function="ReadFile")
    second = _synthetic_result(Outcome.NORMAL_SUCCESS,
                               function="CreateFileA")
    open_store = _opener(flavour, tmp_path)

    with open_store() as store:
        store.put("fp", "k1", first)
        store.put("fp", "k2", first)
        faults.append(True)
        with pytest.raises(OSError) as excinfo:
            store.put("fp", "lost", first)
        assert excinfo.value.errno == errno.ENOSPC
        assert ("fp", "lost") not in store
        faults.append(True)
        with pytest.raises(OSError):  # a failed rewrite keeps the old run
            store.put("fp", "k1", second)
        assert store.get("fp", "k1").fault == first.fault
        store.put("fp", "k3", second)

    with open_store() as store:
        assert store.keys() == [("fp", "k1"), ("fp", "k2"), ("fp", "k3")]
        assert store.corrupt_lines == 0
        assert store.get("fp", "k1").fault == first.fault
        assert store.get("fp", "k3").fault == second.fault


def test_crash_mid_manifest_leaves_no_manifest(tmp_path, monkeypatch):
    def dump_then_crash(obj, handle, **kwargs):
        handle.write('{"format": ')
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(json, "dump", dump_then_crash)
    result = _synthetic_result(Outcome.NORMAL_SUCCESS)
    path = tmp_path / "runs.d"
    with pytest.raises(OSError):
        ShardedRunStore(path, segments=2).put("fp", "k1", result)
    assert not (path / MANIFEST_NAME).exists()
    monkeypatch.undo()

    with ShardedRunStore(path, segments=2) as store:  # still reopens
        assert len(store) == 0
        store.put("fp", "k1", result)
    with ShardedRunStore(path, segments=5) as store:
        assert store.segments == 2
        assert store.keys() == [("fp", "k1")]


@pytest.mark.parametrize("durable", [True, False],
                         ids=["durable", "not-durable"])
def test_metadata_renames_fsync_the_directory_when_durable(
        tmp_path, monkeypatch, durable):
    synced = []  # "dir" or "file", per fsync
    real_fsync = os.fsync

    def spy(fd):
        kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
        synced.append(kind)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    result = _synthetic_result(Outcome.NORMAL_SUCCESS)
    with ShardedRunStore(tmp_path / "runs.d", segments=2,
                         durable=durable) as store:
        store.create()
        created = list(synced)
        store.put("fp", "k1", result)
        del synced[:]
        store.compact()
        compacted = list(synced)
        del synced[:]
        store.merge_to(tmp_path / "merged" / "runs.jsonl")
        merged = list(synced)

    if durable:
        assert created == ["file", "dir"]  # the manifest, then its rename
        assert compacted[-1] == "dir" and "file" in compacted
        assert merged == ["file", "dir"]
    else:
        assert created == compacted == merged == []
