"""The HTTP surface of ``repro serve`` (stdlib ``http.server`` only).

Endpoints, all JSON:

``POST /campaigns``
    Submit a campaign or load spec (:mod:`repro.serve.spec` schema).
    Returns ``201 {"id": ..., "state": "queued", ...}`` or ``400``
    with an error message.

``GET /campaigns``
    Every submitted job's status, in submission order.

``GET /campaigns/<id>``
    One job's status: state machine position (queued → profiling →
    probing → releasing → done/failed/cancelled), live progress counts
    read from the running job's run ledger (``dropped``: speculated
    runs the activation gate refused), cache hits, fingerprints.

``GET /campaigns/<id>/results``
    The job's completed runs, streamed as JSONL — one
    ``{"fp": ..., "key": ..., "run": {...}}`` line per run, exactly
    the store's line shape.  Mid-run this streams what has been
    checkpointed so far.

``DELETE /campaigns/<id>``
    Cancel: a queued job flips to ``cancelled`` immediately, a running
    one unwinds at its ledger's next report — a completed run or a
    stage start (checkpointed runs stay in the store, so a resubmission
    resumes).

``GET /healthz``
    Liveness plus store/queue gauges.

The daemon owns a sharded run store (fsynced appends by default) and
one persistent process pool shared by every job; restarting a killed
daemon on the same store directory resumes like ``--resume``:
resubmitted specs re-execute only what was never checkpointed.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from .jobs import JobQueue
from .spec import CampaignJobSpec, SpecError, spec_from_dict

MAX_SPEC_BYTES = 1 << 20  # a campaign spec has no business being 1 MiB


def _validate_functions(spec) -> None:
    """Bounce campaign functions outside the family's fault space at
    submission time, not execution."""
    from ..core.faults import fault_family
    from ..core.workload import WORKLOADS

    if isinstance(spec, CampaignJobSpec):
        try:
            fault_family(spec.mechanism).check_functions(
                spec.functions, WORKLOADS[spec.workload].registry)
        except ValueError as exc:
            raise SpecError(str(exc)) from None


class ServeHandler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @property
    def queue(self) -> JobQueue:
        return self.server.queue

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        if self.server.verbose:
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: dict) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _job_or_404(self, job_id: str):
        job = self.queue.get(job_id)
        if job is None:
            self._error(404, f"no such job {job_id!r}")
        return job

    def _route(self):
        """``(job_id, tail)`` for /campaigns/<id>[/tail] paths."""
        parts = [part for part in self.path.split("/") if part]
        if not parts or parts[0] != "campaigns":
            return None
        job_id = parts[1] if len(parts) > 1 else None
        tail = parts[2] if len(parts) > 2 else None
        return (job_id, tail) if len(parts) <= 3 else None

    # ------------------------------------------------------------------
    # Methods
    # ------------------------------------------------------------------
    def do_POST(self) -> None:
        if self._route() != (None, None):
            self._error(404, f"no such endpoint: POST {self.path}")
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            self._error(400, "bad Content-Length")
            return
        if length <= 0 or length > MAX_SPEC_BYTES:
            self._error(400, "submission body required "
                             f"(at most {MAX_SPEC_BYTES} bytes)")
            return
        try:
            data = json.loads(self.rfile.read(length).decode("utf-8"))
            spec = spec_from_dict(data)
            _validate_functions(spec)
        except SpecError as exc:
            self._error(400, str(exc))
            return
        except (UnicodeDecodeError, ValueError, RecursionError):
            # Nesting deeper than the parser's recursion limit is not
            # a ValueError, but it is no more a valid submission.
            self._error(400, "body is not valid JSON")
            return
        try:
            job = self.queue.submit(spec)
        except RuntimeError as exc:
            self._error(503, str(exc))
            return
        self._send_json(201, job.status_dict())

    def do_GET(self) -> None:
        if self.path in ("/healthz", "/healthz/"):
            self._send_json(200, {
                "ok": True,
                "jobs": len(self.queue.jobs()),
                "store_entries": len(self.queue.store),
                "store_path": str(self.queue.store.path),
            })
            return
        route = self._route()
        if route is None:
            self._error(404, f"no such endpoint: GET {self.path}")
            return
        job_id, tail = route
        if job_id is None:
            self._send_json(200, {"jobs": [job.status_dict()
                                           for job in self.queue.jobs()]})
            return
        job = self._job_or_404(job_id)
        if job is None:
            return
        if tail is None:
            self._send_json(200, job.status_dict())
        elif tail == "results":
            self._stream_results(job)
        else:
            self._error(404, f"no such endpoint: GET {self.path}")

    def do_DELETE(self) -> None:
        route = self._route()
        if route is None or route[0] is None or route[1] is not None:
            self._error(404, f"no such endpoint: DELETE {self.path}")
            return
        job = self.queue.cancel(route[0])
        if job is None:
            self._error(404, f"no such job {route[0]!r}")
            return
        self._send_json(200, job.status_dict())

    # ------------------------------------------------------------------
    def _stream_results(self, job) -> None:
        """The job's checkpointed runs as JSONL, store line shape."""
        lines = []
        for fingerprint in job.fingerprints:
            for key, data in self.queue.store.entries_for(fingerprint):
                lines.append(json.dumps({"fp": fingerprint, "key": key,
                                         "run": data}))
        body = ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class ReproServer(ThreadingHTTPServer):
    """The long-lived daemon: HTTP threads over one job queue."""

    daemon_threads = True

    def __init__(self, address, store, jobs: int = 1,
                 verbose: bool = False):
        self.store = store
        self.queue = JobQueue(store, jobs=jobs)
        self.verbose = verbose
        try:
            super().__init__(address, ServeHandler)
        except OSError:
            self.queue.close()
            raise

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def close(self) -> None:
        """Stop serving, drain the in-flight job, release the pool and
        the store handles."""
        self.shutdown()
        self.server_close()
        self.queue.close()
        self.store.close()


def serve_forever(store_path: str, host: str = "127.0.0.1",
                  port: int = 0, jobs: int = 1,
                  segments: Optional[int] = None,
                  durable: bool = True, verbose: bool = False,
                  out=None, ready=None) -> int:
    """Boot the daemon and serve until interrupted (the ``repro
    serve`` command body).

    ``ready`` (when given) is called with the bound
    :class:`ReproServer` before serving — tests grab the ephemeral
    port through it.  A store that cannot be opened, or an address
    that cannot be bound, raises :class:`repro.cli.CliError` (exit 2).
    """
    import sys

    from ..core.store import open_store

    out = out or sys.stdout
    # Create the store before binding the socket, so an unusable path
    # is a one-line error rather than a daemon failing its first job.
    try:
        store = open_store(store_path, durable=durable, segments=segments)
        store.create()
    except (OSError, ValueError) as exc:
        from ..cli import CliError

        raise CliError(f"repro serve: cannot open store {store_path}: "
                       f"{exc}") from None
    resumed = (f" ({len(store)} checkpointed run(s) adopted)"
               if len(store) else "")
    try:
        server = ReproServer((host, port), store, jobs=jobs, verbose=verbose)
    except OSError as exc:
        from ..cli import CliError

        store.close()
        raise CliError(f"repro serve: cannot listen on {host}:{port}: "
                       f"{exc}") from None
    print(f"repro serve: listening on {server.url} — store "
          f"{store_path}{resumed}, {jobs} worker(s), "
          f"durable={'on' if durable else 'off'}", file=out, flush=True)
    if ready is not None:
        ready(server)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("repro serve: shutting down", file=out, flush=True)
    finally:
        server.server_close()
        server.queue.close()
        store.close()
    return 0
