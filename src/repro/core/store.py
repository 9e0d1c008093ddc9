"""The reducer / run store: checkpointed, resumable campaign results.

Every completed run is appended to a JSONL file keyed by
``(config fingerprint, fault key)``.  The fingerprint digests every
parameter that influences a run's behaviour (workload, middleware,
seeds, timeouts, mechanism, …), so a store can safely be shared across
campaigns: re-running Figure 3 after Figure 2 finds every overlapping
run already present and re-executes nothing, and a campaign killed
mid-grid resumes from the last checkpointed run.

Because each line is flushed as soon as its run completes, a store
interrupted by a *process kill* loses at most the in-flight line; a
malformed trailing line is skipped on load.  That guarantee does not
extend to power loss or OS crashes — the flush hands the line to the
OS, not the disk.  Pass ``durable=True`` to fsync every append and
close that gap at the cost of one disk round-trip per run (the serve
daemon's store runs in this mode).

At millions of runs a single append-only file becomes the bottleneck;
:class:`ShardedRunStore` spreads the same ``(fingerprint, key)`` index
across per-segment files under a directory and is a drop-in
replacement everywhere a store is accepted.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import zlib
from pathlib import Path
from typing import Iterator, Optional, Union

from ..clients.record import AttemptResult, ClientRecord, RequestRecord
from ..trace import TraceLevel, trace_from_lists, trace_to_lists
from .collector import RunResult
from .faults import fault_family
from .outcomes import FailureMode, Outcome
from .runner import RunConfig
from .workload import MiddlewareKind

# Bumped whenever the serialized shape changes; stale stores miss.
# 2: runs optionally carry a structured event trace.
# 3: per-request timing stamps; load-run entries (kind="load").
STORE_FORMAT = 3

PROFILE_KEY = "profile"


# ----------------------------------------------------------------------
# Fault keys and serialization
# ----------------------------------------------------------------------
def fault_key_str(fault) -> str:
    """Canonical store key for a fault (``profile`` for fault-free)."""
    return PROFILE_KEY if fault is None else fault.store_key


def fault_to_dict(fault) -> Optional[dict]:
    return None if fault is None else fault.to_dict()


def fault_from_dict(data: Optional[dict]):
    """Decode a fault; an unknown mechanism raises ValueError."""
    if data is None:
        return None
    return fault_family(data["mechanism"]).from_dict(data)


def client_record_to_dict(record: ClientRecord) -> dict:
    return {
        "started_at": record.started_at,
        "finished_at": record.finished_at,
        "requests": [
            {"description": request.description,
             "succeeded": request.succeeded,
             "attempts": [attempt.value for attempt in request.attempts],
             "started_at": request.started_at,
             "finished_at": request.finished_at}
            for request in record.requests
        ],
    }


def client_record_from_dict(data: dict) -> ClientRecord:
    record = ClientRecord()
    record.started_at = data["started_at"]
    record.finished_at = data["finished_at"]
    for entry in data["requests"]:
        request = RequestRecord(entry["description"])
        request.succeeded = entry["succeeded"]
        request.attempts = [AttemptResult(value)
                            for value in entry["attempts"]]
        request.started_at = entry.get("started_at")
        request.finished_at = entry.get("finished_at")
        record.requests.append(request)
    return record


def run_result_to_dict(result: RunResult) -> dict:
    """A :class:`RunResult` as plain JSON-serializable data.

    Untraced runs carry no ``trace`` keys at all, so a store written
    with tracing off is byte-for-byte what format 1 produced (modulo
    the fingerprint's format field).
    """
    data = {
        "workload": result.workload_name,
        "middleware": result.middleware.value,
        "fault": fault_to_dict(result.fault),
        "activated": result.activated,
        "activated_as_noop": result.activated_as_noop,
        "outcome": result.outcome.value,
        "failure_mode": result.failure_mode.value,
        "response_time": result.response_time,
        "restarts_detected": result.restarts_detected,
        "retries_used": result.retries_used,
        "server_came_up": result.server_came_up,
        "called_functions": sorted(result.called_functions),
        "client_record": client_record_to_dict(result.client_record),
        "watchd_version": result.watchd_version,
    }
    if result.trace_level is not TraceLevel.OFF:
        data["trace_level"] = result.trace_level.label
        data["trace"] = trace_to_lists(result.trace)
    return data


def run_result_from_dict(data: dict) -> RunResult:
    return RunResult(
        workload_name=data["workload"],
        middleware=MiddlewareKind(data["middleware"]),
        fault=fault_from_dict(data["fault"]),
        activated=data["activated"],
        activated_as_noop=data["activated_as_noop"],
        outcome=Outcome(data["outcome"]),
        failure_mode=FailureMode(data["failure_mode"]),
        response_time=data["response_time"],
        restarts_detected=data["restarts_detected"],
        retries_used=data["retries_used"],
        server_came_up=data["server_came_up"],
        called_functions=set(data["called_functions"]),
        client_record=client_record_from_dict(data["client_record"]),
        watchd_version=data["watchd_version"],
        trace=trace_from_lists(data.get("trace", ())),
        trace_level=TraceLevel.parse(data.get("trace_level", "off")),
    )


# ----------------------------------------------------------------------
# Alternative result kinds
# ----------------------------------------------------------------------
# Load runs (repro.load) checkpoint into the same JSONL store as
# injection runs; they register a codec here at import time instead of
# the core importing them.  An entry's "kind" field selects the codec;
# plain injection runs carry no kind at all, so a format-2 store body
# deserializes unchanged.
_RESULT_CODECS: dict[str, tuple[type, object, object]] = {}


def register_result_codec(kind: str, result_type: type,
                          to_dict, from_dict) -> None:
    """Teach the store to (de)serialize an additional result type."""
    _RESULT_CODECS[kind] = (result_type, to_dict, from_dict)


def serialize_result(result) -> dict:
    if isinstance(result, RunResult):
        return run_result_to_dict(result)
    for kind, (result_type, to_dict, _from_dict) in _RESULT_CODECS.items():
        if isinstance(result, result_type):
            data = to_dict(result)
            data["kind"] = kind
            return data
    raise TypeError(f"no store codec for {type(result).__name__}")


def deserialize_result(data: dict):
    kind = data.get("kind")
    if kind is None:
        return run_result_from_dict(data)
    codec = _RESULT_CODECS.get(kind)
    if codec is None:
        raise KeyError(
            f"store entry of unknown kind {kind!r}; import the module "
            f"that defines it (e.g. repro.load) before loading")
    return codec[2](data)


# ----------------------------------------------------------------------
# Config fingerprint
# ----------------------------------------------------------------------
# The RunConfig fields that shape a run (tracing only observes one).
RUN_CONFIG_FIELDS = tuple(name for name in RunConfig.__slots__
                          if name != "trace_level")


def config_fingerprint(workload_name: str, middleware: MiddlewareKind,
                       config: RunConfig,
                       mechanism: str = "parameter",
                       shape: Optional[dict] = None) -> str:
    """Digest of everything that determines a run's behaviour.

    Two campaigns with the same fingerprint produce bit-identical
    results for the same fault key, so their runs are interchangeable.
    ``shape`` holds the fields a run kind adds (a load spec's client
    population); injection runs have none.
    """
    payload = {
        "format": STORE_FORMAT,
        "workload": workload_name,
        "middleware": middleware.value,
        "mechanism": mechanism,
        **{name: getattr(config, name) for name in RUN_CONFIG_FIELDS},
        # Injection payloads keep a removed knob that was always False
        # as a literal, so every stored fingerprint stays valid.
        **(shape if shape is not None else {"keep_full_trace": False}),
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("ascii"))
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# The JSONL store
# ----------------------------------------------------------------------
def _load_jsonl(path: Path, index: dict[tuple[str, str], dict]) -> int:
    """Load one JSONL file into ``index``; returns the number of
    *interior* corrupt lines.

    A kill mid-write legitimately truncates the final line, so a bad
    final line is tolerated silently.  A bad line anywhere else means
    the file was damaged after the fact — those entries are gone, the
    runs they checkpointed will re-execute (appending duplicate keys),
    and the caller should tell the user rather than hide it.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    corrupt = 0
    last = len(lines)
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
            index[(entry["fp"], entry["key"])] = entry["run"]
        except (ValueError, KeyError, TypeError):
            if number != last:
                corrupt += 1
    return corrupt


def _open_append(path: Path):
    """Open one store file for appending, repairing a partial final line.

    A kill mid-write can leave the file ending without ``\\n``.  Appending
    straight after it would glue the next record onto that fragment and
    lose both lines to the loader, so the fragment is cut off first —
    unless it is a whole record that only lacks its newline (the loader
    indexed it, so it must survive), which gets the newline instead.
    """
    try:
        with open(path, "r+b") as raw:
            end = raw.seek(0, os.SEEK_END)
            start = end  # where the final line begins
            while start > 0:
                chunk_start = max(0, start - 65536)
                raw.seek(chunk_start)
                newline = raw.read(start - chunk_start).rfind(b"\n")
                if newline >= 0:
                    start = chunk_start + newline + 1
                    break
                start = chunk_start
            if start < end:
                raw.seek(start)
                try:
                    json.loads(raw.read())
                except ValueError:
                    raw.truncate(start)
                else:
                    raw.write(b"\n")
    except FileNotFoundError:
        pass
    return open(path, "a", encoding="utf-8")


def _entry_line(fingerprint: str, key: str, data: dict) -> str:
    return json.dumps({"fp": fingerprint, "key": key, "run": data}) + "\n"


class _StoreIndex:
    """The shared in-memory half of both store flavours: the
    ``(fingerprint, fault key) -> serialized run`` map plus a
    lazily-built secondary index by fault key for :meth:`find`."""

    def __init__(self):
        self._index: dict[tuple[str, str], dict] = {}
        # fault key -> [fingerprint, ...]; built on the first find()
        # and kept current across put() so repeated lookups (the trace
        # CLI, the daemon's result queries) stay O(matches).
        self._by_key: Optional[dict[str, list[str]]] = None
        # Interior corrupt lines seen while loading (see _load_jsonl).
        self.corrupt_lines = 0
        # Open append handles by file path (see _append).
        self._handles: dict[Path, object] = {}

    # ------------------------------------------------------------------
    def _remember(self, fingerprint: str, key: str, data: dict) -> None:
        if self._by_key is not None and \
                (fingerprint, key) not in self._index:
            self._by_key.setdefault(key, []).append(fingerprint)
        self._index[(fingerprint, key)] = data

    def _key_index(self) -> dict[str, list[str]]:
        if self._by_key is None:
            by_key: dict[str, list[str]] = {}
            for fingerprint, key in self._index:
                by_key.setdefault(key, []).append(fingerprint)
            self._by_key = by_key
        return self._by_key

    # ------------------------------------------------------------------
    def get(self, fingerprint: str, fault) -> Optional[RunResult]:
        """The checkpointed result for (fingerprint, fault), if any.

        ``fault`` may be a spec object, ``None`` (the profiling run) or
        an already-built key string.
        """
        key = fault if isinstance(fault, str) else fault_key_str(fault)
        data = self._index.get((fingerprint, key))
        if data is None:
            return None
        return deserialize_result(data)

    def keys(self) -> list[tuple[str, str]]:
        """All ``(fingerprint, fault key)`` pairs, sorted."""
        return sorted(self._index)

    def results(self) -> Iterator[tuple[str, str, RunResult]]:
        """Every stored run as ``(fingerprint, fault key, result)``,
        in sorted key order, deserialized lazily.

        The census-diff reader walks whole stores with this; entries
        whose codec is unavailable (a ``kind`` registered by a module
        that was never imported) are skipped rather than fatal.
        """
        for (fingerprint, key) in sorted(self._index):
            try:
                result = deserialize_result(self._index[(fingerprint, key)])
            except KeyError:
                continue
            yield fingerprint, key, result

    def find(self, fault_key: str) -> list[tuple[str, RunResult]]:
        """All stored runs for one fault key, across fingerprints
        (the trace CLI's lookup: a key names the run, the fingerprint
        disambiguates which campaign configuration produced it)."""
        fingerprints = self._key_index().get(fault_key, ())
        return [(fp, deserialize_result(self._index[(fp, fault_key)]))
                for fp in sorted(fingerprints)]

    def entries_for(self, fingerprint: str) -> Iterator[tuple[str, dict]]:
        """Serialized entries under one fingerprint, sorted by fault
        key — the serve daemon streams campaign results with this
        without paying deserialization."""
        for fp, key in sorted(self._index):
            if fp == fingerprint:
                yield key, self._index[(fp, key)]

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._index)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _append(self, path: Path, fingerprint: str, key: str,
                data: dict) -> None:
        """Append one entry to the store file ``path``, then index it.

        The line is flushed, and fsynced too when the store is
        ``durable``.  If any of that raises ``OSError`` (a full disk,
        EIO), the file is cut back to its length before the write and
        the error propagates with the index untouched, so any entry the
        key already had stays: a failed put leaves no partial line for
        the next put to glue onto, and no entry the file lacks.
        """
        handle = self._handles.get(path)
        if handle is None:
            self.create()  # the subclass's on-disk layout
            handle = self._handles[path] = _open_append(path)
        start = handle.tell()
        try:
            handle.write(_entry_line(fingerprint, key, data))
            handle.flush()
            if self.durable:
                os.fsync(handle.fileno())
        except OSError:
            # The handle may still buffer the unwritten tail; closing it
            # (whose flush may fail again) keeps that tail from landing
            # after the cut.  The next put reopens the file.
            del self._handles[path]
            with contextlib.suppress(OSError):
                handle.close()
            os.truncate(path, start)
            raise
        self._remember(fingerprint, key, data)

    def close(self) -> None:
        for handle in self._handles.values():
            handle.close()
        self._handles = {}


class RunStore(_StoreIndex):
    """Append-only JSONL store of completed runs, indexed in memory.

    One line per run::

        {"fp": "<fingerprint>", "key": "<fault key>", "run": {...}}

    ``get`` deserializes lazily so loading a large store stays cheap.
    With ``durable=True`` every append is fsynced, upgrading the
    kill-safety guarantee from process kills to power loss.
    """

    def __init__(self, path: Union[str, Path], durable: bool = False):
        super().__init__()
        self.path = Path(path)
        self.durable = durable
        self._load()

    # ------------------------------------------------------------------
    def _load(self) -> None:
        if not self.path.exists():
            return
        self.corrupt_lines = _load_jsonl(self.path, self._index)

    # ------------------------------------------------------------------
    def put(self, fingerprint: str, fault, result) -> None:
        """Checkpoint one completed run (flushed immediately; fsynced
        too when the store is ``durable``)."""
        key = fault if isinstance(fault, str) else fault_key_str(fault)
        self._append(self.path, fingerprint, key, serialize_result(result))

    def create(self) -> None:
        """Create the store file (and its parent directories)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.touch()

    def __repr__(self) -> str:
        return f"<RunStore {self.path} entries={len(self._index)}>"


# ----------------------------------------------------------------------
# The sharded store
# ----------------------------------------------------------------------
MANIFEST_NAME = "MANIFEST.json"
SEGMENT_GLOB = "segment-*.jsonl"
DEFAULT_SEGMENTS = 8


def _segment_name(number: int) -> str:
    return f"segment-{number:03d}.jsonl"


class ShardedRunStore(_StoreIndex):
    """A run store sharded across segment files under one directory::

        store.d/
          MANIFEST.json       {"format": 3, "segments": 8}
          segment-000.jsonl
          segment-001.jsonl
          ...

    Entries are routed to a segment by a stable hash of their
    ``(fingerprint, key)`` pair, so every rewrite of a key lands in the
    same file and last-write-wins stays well defined however segments
    are loaded.  The index semantics, resume behaviour and kill-safety
    guarantee (per segment: at most a truncated final line) are exactly
    :class:`RunStore`'s — the class is a drop-in replacement everywhere
    a store is accepted.

    The segment count is fixed at creation and recorded in the
    manifest; reopening ignores the ``segments`` argument in favour of
    the recorded value, keeping routing stable for the store's life.
    """

    def __init__(self, path: Union[str, Path],
                 segments: int = DEFAULT_SEGMENTS,
                 durable: bool = False):
        super().__init__()
        if segments < 1:
            raise ValueError(f"segments must be >= 1, got {segments}")
        self.path = Path(path)
        self.durable = durable
        self.segments = segments
        self._load()
        # Built once: ``put`` picks its segment file by number.
        self._segment_paths = [self.path / _segment_name(number)
                               for number in range(self.segments)]

    # ------------------------------------------------------------------
    @property
    def _manifest_path(self) -> Path:
        return self.path / MANIFEST_NAME

    def _load(self) -> None:
        if not self.path.is_dir():
            return
        manifest = self._manifest_path
        if manifest.exists():
            with open(manifest, "r", encoding="utf-8") as handle:
                try:
                    recorded = json.load(handle)
                except ValueError as exc:
                    raise ValueError(f"{manifest}: not JSON ({exc})") from None
            segments = (recorded.get("segments")
                        if isinstance(recorded, dict) else None)
            # The constructor's rule for its argument, applied to the
            # recorded count that overrides it.
            if (not isinstance(segments, int) or isinstance(segments, bool)
                    or segments < 1):
                raise ValueError(
                    f"{manifest}: needs a JSON object with an integer "
                    f"\"segments\" >= 1")
            self.segments = segments
        for segment in sorted(self.path.glob(SEGMENT_GLOB)):
            self.corrupt_lines += _load_jsonl(segment, self._index)

    def create(self) -> None:
        """Create the store directory and its manifest, atomically: a
        crash mid-write leaves no ``MANIFEST.json`` at all."""
        if self._manifest_path.exists():
            return
        self.path.mkdir(parents=True, exist_ok=True)
        payload = {"format": STORE_FORMAT, "segments": self.segments}

        def write(handle):
            json.dump(payload, handle, sort_keys=True)
            handle.write("\n")

        self._write_replace(self._manifest_path, write)

    def _write_replace(self, target: Path, write) -> None:
        """Rewrite ``target`` atomically: ``write(handle)`` fills a
        ``.tmp`` sibling, which is flushed (and fsynced when the store
        is ``durable``) and then moved over ``target``; a durable store
        also fsyncs the containing directory, so the rename itself
        survives power loss."""
        replacement = target.with_name(target.name + ".tmp")
        with open(replacement, "w", encoding="utf-8") as handle:
            write(handle)
            handle.flush()
            if self.durable:
                os.fsync(handle.fileno())
        os.replace(replacement, target)
        if self.durable:
            directory = os.open(target.parent, os.O_RDONLY)
            try:
                os.fsync(directory)
            finally:
                os.close(directory)

    def segment_for(self, fingerprint: str, key: str) -> int:
        """Stable routing: built-in ``hash`` is salted per process, so
        the crc of the pair keeps placement identical across runs."""
        pair = f"{fingerprint}:{key}".encode("utf-8")
        return zlib.crc32(pair) % self.segments

    # ------------------------------------------------------------------
    def put(self, fingerprint: str, fault, result) -> None:
        """Checkpoint one completed run into its segment (flushed
        immediately; fsynced too when the store is ``durable``)."""
        key = fault if isinstance(fault, str) else fault_key_str(fault)
        self._append(self._segment_paths[self.segment_for(fingerprint, key)],
                     fingerprint, key, serialize_result(result))

    # ------------------------------------------------------------------
    def compact(self) -> None:
        """Rewrite every segment deterministically: entries in sorted
        ``(fingerprint, key)`` order, superseded and corrupt lines
        dropped.  Two stores holding the same runs compact to the same
        bytes whatever order the runs arrived in."""
        self.close()
        if not self.path.is_dir():
            return
        by_segment: dict[int, list[tuple[str, str]]] = {}
        for fingerprint, key in sorted(self._index):
            number = self.segment_for(fingerprint, key)
            by_segment.setdefault(number, []).append((fingerprint, key))
        existing = {int(segment.stem.split("-", 1)[1])
                    for segment in self.path.glob(SEGMENT_GLOB)}
        for number in sorted(existing | set(by_segment)):
            self._write_replace(self.path / _segment_name(number),
                                self._writer(by_segment.get(number, ())))
        self.corrupt_lines = 0

    def merge_to(self, path: Union[str, Path]) -> Path:
        """Merge every segment into one plain single-file store at
        ``path`` — sorted ``(fingerprint, key)`` order, superseded
        lines dropped, so the merge of a sharded store is
        byte-deterministic whatever order the runs arrived in."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        self._write_replace(target, self._writer(sorted(self._index)))
        return target

    def _writer(self, pairs):
        """A :meth:`_write_replace` body writing the entries of
        ``pairs`` (``(fingerprint, key)``, in the order given)."""
        def write(handle):
            for fingerprint, key in pairs:
                handle.write(_entry_line(fingerprint, key,
                                         self._index[(fingerprint, key)]))
        return write

    def __repr__(self) -> str:
        return (f"<ShardedRunStore {self.path} "
                f"segments={self.segments} entries={len(self._index)}>")


# ----------------------------------------------------------------------
# Store construction helpers
# ----------------------------------------------------------------------
def is_sharded_path(path: Union[str, Path]) -> bool:
    """Whether ``path`` names a sharded store: an existing store
    directory, or a fresh path spelled with a ``.d`` suffix."""
    p = Path(path)
    if p.is_dir():
        return True
    return p.suffix == ".d"


def store_exists(path: Union[str, Path]) -> bool:
    """Whether a store (of either flavour) already has content at
    ``path`` — the CLI's "pass --resume to reuse" gate."""
    p = Path(path)
    if p.is_dir():
        return (p / MANIFEST_NAME).exists() or \
            any(p.glob(SEGMENT_GLOB))
    return p.exists()


def open_store(path: Union[str, Path], durable: bool = False,
               segments: Optional[int] = None):
    """Open the store flavour ``path`` names (see
    :func:`is_sharded_path`)."""
    if is_sharded_path(path):
        if segments is None:
            segments = DEFAULT_SEGMENTS
        return ShardedRunStore(path, segments=segments, durable=durable)
    return RunStore(path, durable=durable)
