"""Tests for the sharded run store.

The contract: :class:`ShardedRunStore` is a drop-in replacement for
:class:`RunStore` — same ``(fingerprint, key)`` index semantics, same
resume behaviour, same kill-safety guarantee per segment — with
entries spread across ``segment-NNN.jsonl`` files under a directory,
routed by a hash that is stable across processes and reopenings.
"""

import json

import pytest

from repro.core.campaign import Campaign
from repro.core.outcomes import Outcome
from repro.core.runner import RunConfig
from repro.core.store import (
    DEFAULT_SEGMENTS,
    MANIFEST_NAME,
    RunStore,
    ShardedRunStore,
    fault_key_str,
    is_sharded_path,
    open_store,
    store_exists,
)
from repro.core.workload import MiddlewareKind

from .test_store import _assert_equivalent, _synthetic_result

FUNCTIONS = ["SetErrorMode", "CreateEventA", "CreateFileA"]


@pytest.fixture()
def config():
    return RunConfig(base_seed=2000)


# ----------------------------------------------------------------------
# Layout and routing
# ----------------------------------------------------------------------
def test_routing_is_stable_across_instances(tmp_path):
    a = ShardedRunStore(tmp_path / "a.d", segments=8)
    b = ShardedRunStore(tmp_path / "b.d", segments=8)
    for fingerprint, key in [("f" * 16, "param:ReadFile:2:zero:1"),
                             ("0" * 16, "profile")]:
        assert a.segment_for(fingerprint, key) == \
            b.segment_for(fingerprint, key)
        assert 0 <= a.segment_for(fingerprint, key) < 8


def test_put_creates_manifest_and_routed_segment(tmp_path):
    path = tmp_path / "store.d"
    result = _synthetic_result(Outcome.NORMAL_SUCCESS)
    with ShardedRunStore(path, segments=4) as store:
        store.put("fp", result.fault, result)
        number = store.segment_for("fp", fault_key_str(result.fault))
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    assert manifest["segments"] == 4
    segments = sorted(p.name for p in path.glob("segment-*.jsonl"))
    assert segments == [f"segment-{number:03d}.jsonl"]


def test_manifest_pins_segment_count_on_reopen(tmp_path):
    path = tmp_path / "store.d"
    result = _synthetic_result(Outcome.NORMAL_SUCCESS)
    with ShardedRunStore(path, segments=4) as store:
        store.put("fp", result.fault, result)
    # A different count on reopen is ignored: routing must not move.
    with ShardedRunStore(path, segments=16) as reopened:
        assert reopened.segments == 4
        assert reopened.get("fp", result.fault) is not None


def test_rejects_nonpositive_segment_count(tmp_path):
    with pytest.raises(ValueError, match="segments"):
        ShardedRunStore(tmp_path / "store.d", segments=0)


BAD_MANIFESTS = [
    '{"format": 3, "segm',
    '{"format": 3}',
    '{"format": 3, "segments": 0}',
    '{"format": 3, "segments": -2}',
    '{"format": 3, "segments": "8"}',
    '{"format": 3, "segments": true}',
    '[3, 8]',
]
BAD_MANIFEST_IDS = ["torn", "no-segments", "zero", "negative", "string",
                    "bool", "not-an-object"]


@pytest.mark.parametrize("manifest", BAD_MANIFESTS, ids=BAD_MANIFEST_IDS)
def test_rejects_a_bad_recorded_manifest(tmp_path, manifest):
    # The recorded count overrides the argument, so it must pass the
    # constructor's own rule; the error names the manifest file.
    path = tmp_path / "store.d"
    path.mkdir()
    (path / "MANIFEST.json").write_text(manifest)
    with pytest.raises(ValueError, match="MANIFEST.json"):
        ShardedRunStore(path)


# ----------------------------------------------------------------------
# RunStore-equivalent semantics
# ----------------------------------------------------------------------
def test_persists_and_roundtrips_across_reopen(tmp_path):
    path = tmp_path / "store.d"
    original = _synthetic_result(Outcome.RESTART_SUCCESS)
    with ShardedRunStore(path, segments=4) as store:
        store.put("abcd" * 4, original.fault, original)
    with ShardedRunStore(path) as reopened:
        restored = reopened.get("abcd" * 4, original.fault)
        assert restored is not None
        _assert_equivalent(original, restored)


def test_last_write_wins_across_reopen(tmp_path):
    path = tmp_path / "store.d"
    first = _synthetic_result(Outcome.NORMAL_SUCCESS)
    second = _synthetic_result(Outcome.FAILURE)
    with ShardedRunStore(path, segments=4) as store:
        store.put("fp", first.fault, first)
        store.put("fp", second.fault, second)
    with ShardedRunStore(path) as reopened:
        assert len(reopened) == 1
        assert reopened.get("fp", first.fault).outcome is Outcome.FAILURE


def test_tolerates_truncated_segment_tail(tmp_path):
    path = tmp_path / "store.d"
    result = _synthetic_result(Outcome.NORMAL_SUCCESS)
    with ShardedRunStore(path, segments=2) as store:
        store.put("fp", result.fault, result)
        number = store.segment_for("fp", fault_key_str(result.fault))
    segment = path / f"segment-{number:03d}.jsonl"
    with open(segment, "a", encoding="utf-8") as handle:
        handle.write('{"fp": "fp", "key": "param:X:0:z')
    with ShardedRunStore(path) as reopened:
        assert len(reopened) == 1
        assert reopened.corrupt_lines == 0


def test_campaign_checkpoints_and_resumes_sharded(tmp_path, config):
    path = tmp_path / "store.d"
    with ShardedRunStore(path, segments=4) as store:
        first = Campaign("IIS", MiddlewareKind.NONE, functions=FUNCTIONS,
                         config=config, store=store).run()
    assert first.cached_count == 0
    with ShardedRunStore(path) as store:
        second = Campaign("IIS", MiddlewareKind.NONE, functions=FUNCTIONS,
                          config=config, store=store).run()
    assert second.executed_count == 0
    assert second.cached_count == len(first.runs) + 1  # + profile
    assert second.outcome_counts() == first.outcome_counts()


# ----------------------------------------------------------------------
# Merge and compaction
# ----------------------------------------------------------------------
def test_merge_to_matches_single_file_store(tmp_path, config):
    """The merge of a sharded campaign is byte-identical to the sorted
    lines of the same campaign checkpointed into a single file."""
    single = tmp_path / "runs.jsonl"
    with RunStore(single) as store:
        Campaign("IIS", MiddlewareKind.NONE, functions=FUNCTIONS,
                 config=config, store=store).run()
    sharded_path = tmp_path / "store.d"
    with ShardedRunStore(sharded_path, segments=4) as store:
        Campaign("IIS", MiddlewareKind.NONE, functions=FUNCTIONS,
                 config=config, store=store).run()
        merged = store.merge_to(tmp_path / "merged.jsonl")
    expected = "".join(sorted(
        line + "\n" for line in single.read_text().splitlines()))
    assert merged.read_text() == expected
    # The merged file is itself a loadable single-file store.
    with RunStore(merged) as reloaded:
        assert len(reloaded) == len(RunStore(single))


def test_compact_rewrites_deterministically(tmp_path):
    path = tmp_path / "store.d"
    results = [_synthetic_result(Outcome.NORMAL_SUCCESS, function=name)
               for name in ("ReadFile", "CreateFileA", "CloseHandle")]
    with ShardedRunStore(path, segments=2) as store:
        for result in results:
            store.put("fp", result.fault, result)
        store.put("fp", results[0].fault, results[0])  # superseding line
        raw_lines = sum(
            len(p.read_text().splitlines())
            for p in path.glob("segment-*.jsonl"))
        assert raw_lines == 4
        store.compact()
        compacted = {p.name: p.read_text()
                     for p in path.glob("segment-*.jsonl")}
    assert sum(len(text.splitlines())
               for text in compacted.values()) == 3
    # Deterministic: a second store holding the same runs in another
    # arrival order compacts to identical segment bytes.
    other = tmp_path / "other.d"
    with ShardedRunStore(other, segments=2) as store:
        for result in reversed(results):
            store.put("fp", result.fault, result)
        store.compact()
        assert {p.name: p.read_text()
                for p in other.glob("segment-*.jsonl")} == compacted
    with ShardedRunStore(path) as reopened:
        assert len(reopened) == 3
        assert reopened.corrupt_lines == 0


def test_compact_drops_interior_corruption(tmp_path):
    path = tmp_path / "store.d"
    results = [_synthetic_result(Outcome.NORMAL_SUCCESS, function=name)
               for name in ("ReadFile", "CreateFileA")]
    with ShardedRunStore(path, segments=1) as store:
        for result in results:
            store.put("fp", result.fault, result)
        store.put("fp", results[0].fault, results[0])  # keeps line 1 valid
    segment = path / "segment-000.jsonl"
    lines = segment.read_text().splitlines()
    lines[1] = "garbage"
    segment.write_text("\n".join(lines) + "\n")
    with ShardedRunStore(path) as store:
        # The corrupt line held the only copy of the CreateFileA run.
        assert store.corrupt_lines == 1
        assert len(store) == 1
        store.compact()
        assert store.corrupt_lines == 0
    with ShardedRunStore(path) as reopened:
        assert reopened.corrupt_lines == 0
        assert len(reopened) == 1


# ----------------------------------------------------------------------
# Construction helpers
# ----------------------------------------------------------------------
def test_open_store_selects_flavour_by_path(tmp_path):
    assert isinstance(open_store(tmp_path / "runs.jsonl"), RunStore)
    fresh = open_store(tmp_path / "runs.d")
    assert isinstance(fresh, ShardedRunStore)
    assert fresh.segments == DEFAULT_SEGMENTS
    # An existing directory is sharded whatever it is called.
    plain_dir = tmp_path / "plaindir"
    plain_dir.mkdir()
    assert isinstance(open_store(plain_dir), ShardedRunStore)
    assert is_sharded_path(plain_dir)
    assert not is_sharded_path(tmp_path / "runs.jsonl")


def test_open_store_rejects_zero_segments(tmp_path):
    """Only an omitted segment count means the default: an explicit 0
    reaches the constructor's check instead of becoming 8."""
    with pytest.raises(ValueError, match="segments must be >= 1, got 0"):
        open_store(tmp_path / "runs.d", segments=0)
    assert not (tmp_path / "runs.d").exists()
    assert open_store(tmp_path / "two.d", segments=2).segments == 2


def test_store_exists_semantics(tmp_path):
    result = _synthetic_result(Outcome.NORMAL_SUCCESS)
    single = tmp_path / "runs.jsonl"
    assert not store_exists(single)
    with RunStore(single) as store:
        store.put("fp", result.fault, result)
    assert store_exists(single)

    sharded = tmp_path / "store.d"
    assert not store_exists(sharded)
    sharded.mkdir()
    assert not store_exists(sharded)  # empty dir: no store content yet
    with ShardedRunStore(sharded, segments=2) as store:
        store.put("fp", result.fault, result)
    assert store_exists(sharded)


def test_durable_sharded_store_fsyncs_every_append(tmp_path, monkeypatch):
    import os as os_module

    synced = []
    real_fsync = os_module.fsync
    monkeypatch.setattr(os_module, "fsync",
                        lambda fd: (synced.append(fd), real_fsync(fd)))
    result = _synthetic_result(Outcome.NORMAL_SUCCESS)
    with ShardedRunStore(tmp_path / "store.d", segments=2,
                         durable=True) as store:
        store.create()  # the manifest's own fsyncs are tested below
        synced.clear()
        store.put("fp", result.fault, result)
        store.put("fp2", result.fault, result)
    assert len(synced) == 2
