#!/usr/bin/env python3
"""One outside-in benchmark: end-to-end numbers for four workloads and
a traced split of their wall time across the repro layers.

Run from the repository root (the package is imported from ``src/``)::

    python3 perfbench/bench_layers.py --workload figure2-serial
    python3 perfbench/bench_layers.py --workload load-sweep --seed 7
    python3 perfbench/bench_layers.py --workload serve-mixed --trace 1
    python3 perfbench/bench_layers.py --workload figure2-pool -o c.json
    python3 perfbench/bench_layers.py compare --parent p*.json --change c*.json
    python3 -m pytest perfbench/bench_layers.py        # smoke test

Workloads (``perfbench/README.md`` says why each was chosen):

``figure2-serial`` / ``figure2-pool``
    The paper's Figure-2 grid — 4 servers x (none, mscs, watchd),
    parameter faults — through ``Campaign`` on a ``SerialBackend`` into
    a single-file ``RunStore``, or on ``ProcessPoolBackend(2)`` into an
    8-segment ``ShardedRunStore``.  The grid is cut into campaigns of
    about 40 expected runs each; their union is exactly the grid.
``load-sweep``
    ``run_load_tasks`` on Apache1 under watchd, closed loop, 50/100/200
    clients x 5 request cycles, 40 repetitions: 120 load runs.
``serve-mixed``
    A real ``repro serve`` daemon (2 workers, durable store) and one
    closed-loop client making 400 submissions: every third resubmits an
    earlier spec (a cache hit), each is polled every 2 ms until done.

A job is one campaign, load run or submission.  Every workload runs in
a fresh child interpreter; ``setup_s`` is the median over three
children of the time from spawn to the first job.  The figure2 and
load workloads run whole passes over their jobs while one more pass is
expected to fit in ``--seconds``.  Job seconds are rescaled to the
reference host's speed by readings taken between jobs, with the child
and everything it started stopped (``HostLink``, ``host_scale``).
The first pass is checked against the digests pinned in
``perfbench/pins.json`` at seed 2000; at other seeds a seeded sample of
runs is re-executed on the other execution path, and every later pass
must reproduce the first byte for byte.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) named in ``BENCHMARK.json``.  The exit code is 0 only
when every correctness check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import urllib.error
import urllib.request
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRIPT = Path(__file__).resolve()
WORK = ROOT / ".bench_build" / "perfbench"
PINS = HERE / "pins.json"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ("figure2-serial", "figure2-pool", "load-sweep", "serve-mixed")
DEFAULT_SEED = 2000
DEFAULT_SECONDS = 20.0
SETUP_REPEATS = 3
POOL_JOBS = 2
SEGMENTS = 8
CROSS_CHECK_RUNS = 24   # runs re-executed on the other backend
SERVE_POLL_S = 0.002
SERVE_EXPORTS = (
    "CreateEventA", "CreateFileA", "ReadFile", "CloseHandle",
    "WaitForSingleObject", "SetErrorMode", "Sleep", "LoadLibraryA",
    "GetModuleHandleA", "HeapAlloc", "GetTickCount", "SetEvent",
)
SERVE_SERVERS = ("Apache1", "Apache2", "IIS", "SQL")
SERVE_MIDDLEWARE = ("none", "watchd", "mscs")
# host_reading() on the reference host (2-vCPU Xeon VM) when it is not
# contended.  Timings are rescaled by REFERENCE_S / reading, taken
# around every job: that host's CPU share swings 20-70% for seconds to
# minutes at a time, which raw wall-clock medians cannot ride out.
REFERENCE_S = 4.5e-4
RUN_BUDGET_S = 170.0    # one workload, all its children, end to end
SETUP_TIMEOUT_S = 60.0

clock = time.perf_counter


class Sizes:
    """Workload sizes: the full benchmark, or the pytest smoke run."""

    def __init__(self, functions, job_runs, sweep, reps, iterations,
                 submissions):
        self.functions = functions      # None: every injectable export
        self.job_runs = job_runs        # expected runs per figure2 job
        self.sweep = sweep              # load-sweep client counts
        self.reps = reps                # load-sweep repetitions
        self.iterations = iterations    # request cycles per load client
        self.submissions = submissions  # serve-mixed submissions


FULL = Sizes(functions=None, job_runs=40, sweep=(50, 100, 200), reps=40,
             iterations=5, submissions=400)
SMOKE = Sizes(functions=("SetErrorMode", "CreateEventA", "CreateFileA",
                         "ReadFile", "CloseHandle", "WaitForSingleObject"),
              job_runs=50, sweep=(5, 10), reps=2, iterations=2,
              submissions=6)


# ----------------------------------------------------------------------
# Small helpers shared by both sides
# ----------------------------------------------------------------------
def source_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def import_repro():
    """Import the package from this checkout's ``src/``, never from an
    installed copy."""
    if not source_present():
        raise SystemExit(f"bench_layers: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"bench_layers: imported repro from "
                         f"{repro.__file__}, not {SRC}")


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["TMPDIR"] = str(work)
    return env


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _reference_work() -> int:
    """Fixed interpreter work (generators, small dicts and tuples) that
    touches no repro code: how long it takes says how fast this host is
    running Python at the moment."""
    def items(count):
        for index in range(count):
            yield index, {"k": index}, (index, index)

    total = 0
    for _ in range(60):
        for index, box, pair in items(40):
            total += index + box["k"] + pair[1]
    return total


def host_reading() -> float:
    """Median seconds of three runs of the reference work, with the
    collector paused so a collection of the caller's heap is not
    counted."""
    times = []
    paused = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            started = clock()
            _reference_work()
            times.append(clock() - started)
    finally:
        if paused:
            gc.enable()
    return statistics.median(times)


def probe_main() -> int:
    """Body of the :class:`HostProbe` helper: one reading per request
    line on stdin, until stdin closes."""
    for _request in sys.stdin:
        print(repr(host_reading()), flush=True)
    return 0


class HostProbe:
    """Reads host speed on both vCPUs at once: the reference work runs
    here and in a helper process at the same time, and the reading is
    the mean.  Pool workers and the daemon keep both vCPUs busy, and a
    serial process migrates between them; on the reference host the
    two-vCPU reading tracks every workload at least as well as a
    one-vCPU one.  It lives in the parent, outside the measured child's
    process group (see :func:`_await_child`).  The helper is a plain
    subprocess, not a ``multiprocessing`` one, whose spawn method would
    leave a resource-tracker process behind that nothing waits for.
    """

    def __init__(self):
        self._helper = subprocess.Popen(
            [sys.executable, str(SCRIPT), "_probe"], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def read(self) -> float:
        self._helper.stdin.write("?\n")
        self._helper.stdin.flush()
        mine = host_reading()
        return (mine + float(self._helper.stdout.readline())) / 2

    def close(self) -> None:
        try:
            self._helper.stdin.close()
        except OSError:
            pass
        try:
            self._helper.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._helper.kill()
            self._helper.wait()
        self._helper.stdout.close()


class HostLink:
    """The measured child's end of the host readings.  ``read`` asks
    the parent, which stops the child's whole process group (the child,
    its pool workers, the daemon), reads its :class:`HostProbe`,
    resumes the group and replies.  Nothing the code under test runs —
    a background thread, a spinning worker, a busy-polling daemon — can
    share the CPU with a reading, so a change to that code moves job
    seconds and never the readings that rescale them."""

    def __init__(self, fds: str):
        request, reply = (int(fd) for fd in fds.split(","))
        self._request = os.fdopen(request, "wb", buffering=0)
        self._reply = os.fdopen(reply, "rb")
        self.readings = []

    def read(self) -> float:
        self._request.write(b"?")
        reading = float(self._reply.readline())
        self.readings.append(reading)
        return reading

    def close(self) -> None:
        self._request.close()
        self._reply.close()


def _await_child(child, requests, replies, probe, deadline):
    """Wait for ``child`` to exit, answering its :class:`HostLink`
    requests with its process group stopped; the exit code, or ``None``
    when ``deadline`` passes first."""
    while child.poll() is None:
        left = deadline - time.monotonic()
        if left <= 0:
            return None
        if not select.select([requests], [], [], min(left, 0.5))[0]:
            continue
        if not os.read(requests, 1):
            try:
                return child.wait(timeout=max(0.0,
                                              deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                return None
        try:
            os.killpg(child.pid, signal.SIGSTOP)
        except ProcessLookupError:
            continue
        try:
            reading = probe.read()
        finally:
            os.killpg(child.pid, signal.SIGCONT)
        os.write(replies, f"{reading!r}\n".encode("ascii"))
    return child.returncode


def host_scale(readings, at: int) -> float:
    """Factor turning the seconds of the job between readings ``at`` and
    ``at + 1`` into reference-host seconds: ``REFERENCE_S`` over the
    mean of the readings within two jobs of it (one reading is a
    sub-millisecond sample; the window smooths it)."""
    return REFERENCE_S / statistics.mean(readings[max(0, at - 2):at + 4])


def store_lines(path: Path) -> dict:
    """``{(fp, key): line}`` for a single-file or sharded store."""
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    lines = {}
    for name in files:
        with open(name, "rb") as handle:
            for line in handle:
                entry = json.loads(line)
                lines[(entry["fp"], entry["key"])] = line
    return lines


def digest(lines) -> str:
    return hashlib.sha256(b"".join(sorted(lines))).hexdigest()


def store_bytes(path: Path) -> int:
    files = path.glob("*.jsonl") if path.is_dir() else [path]
    return sum(name.stat().st_size for name in files if name.exists())


def load_pins() -> dict:
    with open(PINS, encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Child side: one workload in a fresh interpreter
# ----------------------------------------------------------------------
class Context:
    def __init__(self, args):
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.work = Path(args.workdir)
        self.sizes = SMOKE if args.smoke else FULL
        self.pinned = (not args.smoke and self.seed == load_pins()["seed"])
        self.failures = []
        self.attempted = 0
        self.probe = HostLink(args.link)

    def fail(self, message: str) -> None:
        print(f"bench_layers: FAILED: {message}", file=sys.stderr)
        self.failures.append(message)


def warm_up(backend, seed: int) -> None:
    """Two untimed fault-free runs through ``backend``: warms imports
    and caches, and makes a process pool fork both of its workers."""
    from repro.core.plan import RunTask, TaskKind
    from repro.core.runner import RunConfig
    from repro.core.workload import MiddlewareKind, get_workload

    tasks = [RunTask(f"warm-{index}", TaskKind.PROFILE, None, None, index)
             for index in range(POOL_JOBS)]
    backend.run_tasks(tasks, get_workload("IIS"), MiddlewareKind.NONE,
                      RunConfig(base_seed=seed))


def rerun_sample(lines, backend, base_seed_of, ctx) -> None:
    """Re-execute a seeded sample of stored runs on ``backend``; each
    must reproduce its stored line byte for byte.  ``base_seed_of``
    maps a fingerprint to the base seed its runs were made with."""
    from repro.core.plan import RunTask, TaskKind
    from repro.core.runner import RunConfig
    from repro.core.store import fault_from_dict, run_result_to_dict
    from repro.core.workload import MiddlewareKind, get_workload

    groups = {}
    for fp, key in random.Random(ctx.seed).sample(
            sorted(lines), min(CROSS_CHECK_RUNS, len(lines))):
        run = json.loads(lines[(fp, key)])["run"]
        groups.setdefault((run["workload"], run["middleware"],
                           base_seed_of(fp)), []).append((fp, key, run))
    for (workload, middleware, seed), entries in sorted(groups.items()):
        tasks = [RunTask(f"check-{index}", TaskKind.RELEASE,
                         fault_from_dict(run["fault"]), None, index)
                 for index, (_fp, _key, run) in enumerate(entries)]
        results = backend.run_tasks(tasks, get_workload(workload),
                                    MiddlewareKind(middleware),
                                    RunConfig(base_seed=seed))
        for (fp, key, _run), result in zip(entries, results):
            line = json.dumps({"fp": fp, "key": key,
                               "run": run_result_to_dict(result)}) + "\n"
            if line.encode("utf-8") != lines[(fp, key)]:
                ctx.fail(f"{key} differs when re-executed on {backend!r}")


class Passes:
    """A workload measured as whole passes over a fixed list of jobs.

    Only whole passes run, so every pass has the same mix of work
    whatever the host's speed.  The host is probed before the first job
    and after every job (see :func:`host_scale`).  Under ``--trace 1``
    pass 0 is traced and pass 1 repeats it untraced: the pair gives the
    tracing overhead and proves tracing changes no byte of output.
    """

    pin_name = ""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.plan = []         # one entry per job, handed to run_job
        # (pass, runs, requests, seconds, index of the reading before)
        self.jobs = []
        self.readings = []
        self.passes = []       # (store path, seconds, CPU seconds)

    def _time_job(self, number, item, store) -> None:
        """Run and time one job; a raising job is a failed op."""
        started = clock()
        try:
            runs, requests = self.run_job(item, store)
        except Exception:
            traceback.print_exc()
            self.ctx.attempted += 1
            self.ctx.fail(f"job {item!r} of pass {number} raised")
            return
        finally:
            seconds = clock() - started
            self.readings.append(self.ctx.probe.read())
        self.ctx.attempted += runs
        self.jobs.append((number, runs, requests, seconds,
                          len(self.readings) - 2))

    def measure(self, tracer=None) -> None:
        """Passes run while one more is expected to fit in
        ``--seconds``; the first always runs."""
        started = clock()
        while True:
            number = len(self.passes)
            path, store = self.open_store(number)
            state = layers.install(tracer) if tracer and number == 0 \
                else None
            self.readings.append(self.ctx.probe.read())
            pass_started = clock()
            cpu = time.process_time()
            try:
                for item in self.plan:
                    self._time_job(number, item, store)
            finally:
                if state is not None:
                    layers.restore(state)
                store.close()
            # Drop the pass's in-memory index before the next pass
            # builds its own, so peak RSS does not depend on how many
            # passes fit.
            del store
            self.passes.append((path, clock() - pass_started,
                                time.process_time() - cpu))
            done = len(self.passes)
            if self.ctx.trace:
                if done == 2:
                    return
            elif (clock() - started) * (done + 1) / done > self.ctx.seconds:
                return

    def check(self, pins) -> str:
        """Every later pass must reproduce pass 0 byte for byte; pass 0
        must match the pins, or else the other execution path."""
        ctx = self.ctx
        first = store_lines(self.passes[0][0])
        for path, _seconds, _cpu in self.passes[1:]:
            if store_lines(path) != first:
                ctx.fail(f"{path.name} differs from pass 0"
                         + (" (traced vs untraced)" if ctx.trace else ""))
        value = digest(first.values())
        if ctx.pinned:
            self.check_pins(pins[self.pin_name], first, value)
        elif not ctx.trace:
            self.cross_check(first)
        return value

    # ------------------------------------------------------------------
    def _scaled_jobs(self):
        """``(pass, runs, requests, reference-host seconds)`` per job."""
        readings = self.readings
        return [(number, runs, requests, seconds * host_scale(readings, at))
                for number, runs, requests, seconds, at in self.jobs]

    def report(self) -> dict:
        jobs = self._scaled_jobs()
        seconds = sum(job[3] for job in jobs)
        latencies = [job[3] for job in jobs]
        return {
            "runs_per_s": sum(job[1] for job in jobs) / seconds,
            "requests_per_s": sum(job[2] for job in jobs) / seconds,
            "job_p50_ms": layers.percentile(latencies, 50) * 1e3,
            "job_p90_ms": layers.percentile(latencies, 90) * 1e3,
        }

    def overhead(self) -> float:
        """Traced pass 0 over untraced pass 1, in scaled seconds,
        minus one."""
        totals = [0.0, 0.0]
        for number, _runs, _requests, seconds in self._scaled_jobs():
            totals[number] += seconds
        return totals[0] / totals[1] - 1

    def close(self) -> None:
        pass


class Figure2(Passes):
    """The Figure-2 grid, cut into campaigns of equal expected size."""

    pin_name = "figure2"

    def __init__(self, ctx: Context, pool: bool):
        super().__init__(ctx)
        self.pool = pool
        self.backend = None

    def setup(self) -> None:
        from repro.core.exec import ProcessPoolBackend, SerialBackend

        self.backend = (ProcessPoolBackend(POOL_JOBS) if self.pool
                        else SerialBackend())
        warm_up(self.backend, self.ctx.seed)
        self.plan = self._plan()

    def _plan(self):
        """Campaigns of about ``job_runs`` expected runs each, cells
        interleaved.  Each cell's functions are dealt heaviest-first onto
        its lightest campaign; a function weighs its fault count when the
        cell's profile run calls it and nothing otherwise (the profile
        gate skips it without a run).  Equal-sized campaigns make one
        latency distribution, not one per server.  The union of the
        campaigns is exactly the grid."""
        from repro.analysis.experiment import MIDDLEWARE
        from repro.analysis.experiment import WORKLOADS as SERVERS
        from repro.core.faults import DEFAULT_FAULT_TYPES
        from repro.core.runner import RunConfig, execute_run
        from repro.core.workload import get_workload
        from repro.nt.kernel32.signatures import REGISTRY

        wanted = self.ctx.sizes.functions
        config = RunConfig(base_seed=self.ctx.seed)
        cells = []
        for name in SERVERS:
            workload = get_workload(name)
            table = workload.registry or REGISTRY
            sigs = [sig for sig in table.values() if sig.injectable
                    and (wanted is None or sig.name in wanted)]
            for middleware in MIDDLEWARE:
                called = execute_run(workload, middleware, None,
                                     config).called_functions
                weighted = sorted(
                    (((len(sig.params) * len(DEFAULT_FAULT_TYPES)
                       if sig.name in called else 0), index, sig.name)
                     for index, sig in enumerate(sigs)),
                    key=lambda item: (-item[0], item[1]))
                count = max(1, round(sum(item[0] for item in weighted)
                                     / self.ctx.sizes.job_runs))
                loads = [0] * count
                groups = [[] for _ in range(count)]
                for position, (weight, _index, function) in \
                        enumerate(weighted):
                    # Uncalled functions cost only planning: spread them.
                    target = position % count if not weight else min(
                        range(count), key=lambda k: (loads[k], k))
                    loads[target] += weight
                    groups[target].append(function)
                cells.append([(name, middleware, group) for group in groups])
        return [cell[index] for index in range(max(map(len, cells)))
                for cell in cells if index < len(cell)]

    def open_store(self, number: int):
        from repro.core.store import RunStore, ShardedRunStore

        if self.pool:
            path = self.ctx.work / f"figure2-pass{number}.d"
            return path, ShardedRunStore(path, segments=SEGMENTS)
        path = self.ctx.work / f"figure2-pass{number}.jsonl"
        return path, RunStore(path)

    def run_job(self, item, store):
        from repro.core.campaign import Campaign
        from repro.core.runner import RunConfig

        workload, middleware, functions = item
        result = Campaign(workload, middleware, functions=functions,
                          config=RunConfig(base_seed=self.ctx.seed),
                          backend=self.backend, store=store).run()
        return result.executed_count, sum(
            len(run.client_record.requests) for run in result.runs)

    def close(self) -> None:
        if self.backend is not None:
            self.backend.close()

    def check_pins(self, pin, first, value) -> None:
        size = sum(len(line) for line in first.values())
        measured = (len(first), size, value)
        if measured != (pin["runs"], pin["bytes"], pin["sha256"]):
            self.ctx.fail(f"figure2 store (runs, bytes, sha256) "
                          f"{measured} != pinned")

    def cross_check(self, first) -> None:
        """The serial workload's sample re-runs on a pool, the pool
        workload's in-process: the determinism contract between
        backends."""
        from repro.core.exec import ProcessPoolBackend, SerialBackend

        other = SerialBackend() if self.pool else \
            ProcessPoolBackend(POOL_JOBS)
        try:
            rerun_sample(first, other, lambda fp: self.ctx.seed, self.ctx)
        finally:
            other.close()


class LoadSweep(Passes):
    """Closed-loop Apache1/watchd client sweep; a job is one load run."""

    pin_name = "load-sweep"

    def setup(self) -> None:
        from repro.core.runner import RunConfig
        from repro.core.workload import MiddlewareKind
        from repro.load import LoadSpec, execute_load_run, plan_load_tasks

        sizes = self.ctx.sizes
        self.config = RunConfig(base_seed=self.ctx.seed)
        spec = LoadSpec("Apache1", MiddlewareKind.WATCHD,
                        clients=sizes.sweep[0], iterations=sizes.iterations)
        # Repetition-major, so a pass sweeps 50/100/200 clients in turn.
        self.plan = sorted(plan_load_tasks(spec, reps=sizes.reps,
                                           sweep=sizes.sweep),
                           key=lambda task: task.rep)
        execute_load_run(spec.replace(clients=5, iterations=1), 0,
                         self.config)

    def open_store(self, number: int):
        from repro.core.store import RunStore

        path = self.ctx.work / f"load-pass{number}.jsonl"
        return path, RunStore(path)

    def run_job(self, task, store):
        from repro.load import run_load_tasks

        runs = run_load_tasks([task], self.config, store=store).runs
        return len(runs), sum(run.request_count for run in runs)

    def check_pins(self, pin, first, value) -> None:
        runs = [json.loads(line)["run"] for line in first.values()]
        measured = (len(runs), value,
                    sum(run["engine_events"] for run in runs),
                    sum(len(cycle["requests"]) for run in runs
                        for client in run["clients"]
                        for cycle in client["cycles"]))
        if measured != (pin["runs"], pin["sha256"], pin["engine_events"],
                        pin["requests"]):
            self.ctx.fail(f"load-sweep store (runs, sha256, events, "
                          f"requests) {measured} != pinned")

    def cross_check(self, first) -> None:
        """Re-execute a seeded sample of load runs on the process-pool
        path: the bytes must match the serial pass."""
        from repro.core.store import RunStore
        from repro.load import run_load_tasks

        sample = random.Random(self.ctx.seed).sample(
            self.plan, min(POOL_JOBS, len(self.plan)))
        path = self.ctx.work / "load-check.jsonl"
        store = RunStore(path)
        try:
            run_load_tasks(sample, self.config, jobs=POOL_JOBS, store=store)
        finally:
            store.close()
        for key, line in store_lines(path).items():
            if first.get(key) != line:
                self.ctx.fail(f"{key[1]} differs between the serial and "
                              f"pool load paths")


class ServeMixed:
    """A live daemon and one closed-loop client."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.daemon = None
        self.base = None
        self.store = None
        # Per phase, one record per submission; latencies are in
        # reference-host seconds (see host_scale).
        self.submissions = []
        self.daemon_metrics = None
        self.daemon_cpu_s = 0.0
        self.merged = []
        self.base_seeds = {}    # fingerprint -> base_seed submitted

    # --- the daemon ---------------------------------------------------
    def _start(self, number: int, traced: bool) -> None:
        self.store = self.ctx.work / f"serve-{number}.d"
        if traced:
            self.daemon_out = self.ctx.work / f"daemon-{number}.json"
            argv = [sys.executable, str(SCRIPT), "_daemon",
                    "--store", str(self.store), "--jobs", str(POOL_JOBS),
                    "--seed", str(self.ctx.seed),
                    "--out", str(self.daemon_out)]
        else:
            argv = [sys.executable, "-m", "repro", "serve",
                    "--store", str(self.store), "--port", "0",
                    "--jobs", str(POOL_JOBS)]
        log = open(self.ctx.work / f"daemon-{number}.log", "wb")
        try:
            self.daemon = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=log, cwd=ROOT,
                env=child_env(self.ctx.work))
        finally:
            log.close()
        banner = self._read_banner()
        self.base = banner.split("listening on ", 1)[1].split()[0]
        deadline = time.monotonic() + SETUP_TIMEOUT_S
        while True:
            try:
                if self._http("GET", "/healthz")[1].get("ok"):
                    break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)
        # The untimed warm-up run: a small campaign outside the measured
        # sequence (its base seed is never a fresh submission's).
        warm = {"kind": "campaign", "workload": "IIS",
                "functions": ["SetErrorMode", "CreateEventA", "CreateFileA"],
                "base_seed": self.ctx.seed - 1}
        record = self._submit(warm)
        self.base_seeds[record["fingerprint"]] = warm["base_seed"]
        if record["state"] != "done":
            raise RuntimeError(f"warm-up submission ended {record['state']}")

    def _read_banner(self) -> str:
        deadline = time.monotonic() + SETUP_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.daemon.stdout], [], [], 0.5)
            if ready:
                line = self.daemon.stdout.readline().decode("utf-8")
                if "listening on" in line:
                    return line
                if not line:
                    break
        raise RuntimeError("daemon never reported its address")

    def _stop(self) -> None:
        """SIGINT lets the daemon close its pool and store, then wait."""
        daemon, self.daemon = self.daemon, None
        if daemon is None:
            return
        if daemon.poll() is None:
            daemon.send_signal(signal.SIGINT)
            try:
                daemon.wait(timeout=60)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait()
        daemon.stdout.close()

    # --- the client ---------------------------------------------------
    def _http(self, method, path, body=None):
        data = json.dumps(body).encode("utf-8") if body is not None else None
        request = urllib.request.Request(self.base + path, data=data,
                                         method=method)
        if data is not None:
            request.add_header("Content-Type", "application/json")
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())

    def _submit(self, spec) -> dict:
        """POST, then poll until a terminal state; returns a record."""
        started = clock()
        _status, job = self._http("POST", "/campaigns", spec)
        posted = clock()
        polls = 0
        while True:
            _status, status = self._http("GET", f"/campaigns/{job['id']}")
            polls += 1
            if status["state"] in ("done", "failed", "cancelled"):
                break
            time.sleep(SERVE_POLL_S)
        return {"latency": clock() - started, "post": posted - started,
                "polls": polls, "state": status["state"],
                "executed": status["progress"]["executed"],
                "fingerprint": status["fingerprints"][0]}

    def specs(self):
        """The submission sequence.  Every third submission resubmits a
        random earlier fresh spec (a cache hit).  Fresh campaigns cycle
        through the 12 server x middleware cells in a seeded order, with
        3, 4 or 5 random exports and ``base_seed = seed + i``.  Fixed
        shares keep the latency mix the same at every seed."""
        rng = random.Random(self.ctx.seed)
        cells = [(server, middleware) for server in SERVE_SERVERS
                 for middleware in SERVE_MIDDLEWARE]
        rng.shuffle(cells)
        fresh = []
        for index in range(self.ctx.sizes.submissions):
            if index % 3 == 2:
                yield "cached", rng.choice(fresh)
                continue
            server, middleware = cells[len(fresh) % len(cells)]
            spec = {"kind": "campaign", "workload": server,
                    "middleware": middleware,
                    "functions": sorted(rng.sample(
                        SERVE_EXPORTS, 3 + len(fresh) % 3)),
                    "base_seed": self.ctx.seed + index}
            fresh.append(spec)
            yield "fresh", spec

    def _phase(self) -> None:
        """Make every submission of :meth:`specs`, probing the host
        between them (outside the timed latencies)."""
        records = []
        readings = [self.ctx.probe.read()]
        for kind, spec in self.specs():
            self.ctx.attempted += 1
            submitted = clock()
            try:
                record = self._submit(spec)
            except (urllib.error.HTTPError, OSError) as exc:
                self.ctx.fail(f"submission {len(records)}: {exc}")
                record = {"latency": clock() - submitted, "post": 0.0,
                          "polls": 0, "state": "error", "executed": 0,
                          "fingerprint": None}
            readings.append(self.ctx.probe.read())
            record["kind"] = kind
            self.base_seeds[record["fingerprint"]] = spec["base_seed"]
            if record["state"] != "done":
                self.ctx.fail(f"submission {len(records)} ended "
                              f"{record['state']}")
            elif kind == "cached" and record["executed"]:
                self.ctx.fail(f"resubmission {len(records)} executed "
                              f"{record['executed']} runs")
            records.append(record)
        for at, record in enumerate(records):
            scale = host_scale(readings, at)
            record["latency"] *= scale
            record["post"] *= scale
        self.submissions.append(records)

    def setup(self) -> None:
        self._start(0, traced=False)

    def measure(self, tracer=None) -> None:
        self._phase()
        self._finish_phase()
        if not self.ctx.trace:
            return
        before = children_cpu_s()
        self._start(1, traced=True)
        self._phase()
        self._finish_phase()
        self.daemon_cpu_s = children_cpu_s() - before
        with open(self.daemon_out, encoding="utf-8") as handle:
            self.daemon_metrics = json.load(handle)

    def _finish_phase(self) -> None:
        from repro.core.store import ShardedRunStore

        self._stop()
        merged = self.store.with_suffix(".merged.jsonl")
        ShardedRunStore(self.store).merge_to(merged)
        self.merged.append(merged)

    def close(self) -> None:
        self._stop()

    # ------------------------------------------------------------------
    def _submitted_lines(self) -> list:
        """The untraced daemon's merged store lines that belong to the
        measured submissions (the warm-up campaign's are left out)."""
        submitted = {record["fingerprint"] for record in self.submissions[0]}
        return [line for (fp, _key), line
                in store_lines(self.merged[0]).items() if fp in submitted]

    def check(self, pins) -> str:
        ctx = self.ctx
        value = digest(self._submitted_lines())
        if ctx.trace:
            if store_lines(self.merged[0]) != store_lines(self.merged[1]):
                ctx.fail("traced daemon store differs from untraced")
            if self.daemon_metrics.get("unrestored"):
                ctx.fail(f"daemon left shims installed: "
                         f"{self.daemon_metrics['unrestored']}")
        if ctx.pinned:
            pin = pins["serve-mixed"]
            if (ctx.sizes.submissions, value) != \
                    (pin["submissions"], pin["sha256"]):
                ctx.fail(f"serve-mixed digest {value[:12]} != pinned "
                         f"{pin['sha256'][:12]}")
        elif not ctx.trace:
            self._cross_check()
        return value

    def _cross_check(self) -> None:
        """Daemon-executed runs must be byte-identical when executed
        in-process: the daemon is the campaign engine behind HTTP."""
        from repro.core.exec import SerialBackend

        rerun_sample(store_lines(self.merged[0]), SerialBackend(),
                     self.base_seeds.__getitem__, self.ctx)

    def report(self) -> dict:
        records = self.submissions[0]
        latencies = [record["latency"] for record in records]
        requests = sum(
            len(json.loads(line)["run"]["client_record"]["requests"])
            for line in self._submitted_lines())
        seconds = sum(latencies)
        return {
            "runs_per_s": sum(record["executed"]
                              for record in records) / seconds,
            "requests_per_s": requests / seconds,
            "job_p50_ms": layers.percentile(latencies, 50) * 1e3,
            "job_p90_ms": layers.percentile(latencies, 90) * 1e3,
        }

    def overhead(self) -> float:
        """Traced over untraced time for the same submissions, minus 1."""
        untraced, traced = (sum(record["latency"] for record in records)
                            for records in self.submissions)
        return traced / untraced - 1


def _make(name: str, ctx: Context):
    if name == "figure2-serial":
        return Figure2(ctx, pool=False)
    if name == "figure2-pool":
        return Figure2(ctx, pool=True)
    if name == "load-sweep":
        return LoadSweep(ctx)
    return ServeMixed(ctx)


def serve_client_metrics(records, daemon_cpu_s) -> dict:
    """Client-side serve metrics of the traced daemon's submissions;
    with no records (the other workloads) every value is zero."""
    fresh = [r["latency"] for r in records if r["kind"] == "fresh"]
    cached = [r["latency"] for r in records if r["kind"] == "cached"]
    return {
        "serve.post_p50_ms": (layers.percentile(
            [r["post"] for r in records], 50) * 1e3, "ms"),
        "serve.polls_per_job": (statistics.mean(
            [r["polls"] for r in records] or [0.0]), "count"),
        "serve.fresh_p50_ms": (layers.percentile(fresh, 50) * 1e3, "ms"),
        "serve.cached_p50_ms": (layers.percentile(cached, 50) * 1e3, "ms"),
        "serve.daemon_cpu_s": (daemon_cpu_s, "s"),
    }


def child_main(argv) -> int:
    parser = argparse.ArgumentParser(prog="bench_layers.py _child")
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--link", required=True,
                        help="request,reply descriptors of the HostLink")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    import_repro()
    ctx = Context(args)
    try:
        result = _child_run(args, ctx)
    finally:
        ctx.probe.close()
    _write(args.out, result)
    return 0


def _child_run(args, ctx) -> dict:
    bench = _make(args.workload, ctx)
    result = {}
    try:
        bench.setup()
        result["ready_at"] = time.monotonic()
        result["ready_reading"] = ctx.probe.read()
        if args.setup_only:
            return result
        tracer = layers.LayerTracer() if ctx.trace else None
        saved = layers.originals()
        bench.measure(tracer)
        # Kept beside the metrics so compare can show the host moved.
        result["host_reading_ms"] = statistics.mean(
            ctx.probe.readings) * 1e3
        result["unrestored"] = layers.unrestored(saved)
        if result["unrestored"]:
            ctx.fail(f"shims left installed: {result['unrestored']}")
    finally:
        bench.close()
    # Before the gate, which reads whole stores into memory.
    rss = peak_rss_mb()

    result["digest"] = bench.check(load_pins())
    if ctx.trace:
        result["metrics"], result["table"] = _layer_report(
            args.workload, bench, tracer)
        if tracer is not None and tracer.spans:
            WORK.mkdir(parents=True, exist_ok=True)
            tracer.write_spans(WORK / f"spans-{args.workload}.json")
    else:
        metrics = {name: (value, UNITS[name])
                   for name, value in bench.report().items()}
        metrics["peak_rss_mb"] = (rss, "MB")
        result["metrics"] = metrics
    result["attempted"] = max(ctx.attempted, 1)
    result["failed"] = len(ctx.failures)
    result["correct"] = not ctx.failures
    return result


UNITS = {"runs_per_s": "1/s", "requests_per_s": "1/s",
         "job_p50_ms": "ms", "job_p90_ms": "ms"}


def _layer_report(workload, bench, tracer):
    """Per-layer metrics and the self-time table of the traced part."""
    if workload == "serve-mixed":
        daemon = bench.daemon_metrics
        metrics = {name: tuple(entry)
                   for name, entry in daemon["metrics"].items()}
        table = daemon["table"]
        metrics.update(serve_client_metrics(bench.submissions[1],
                                            bench.daemon_cpu_s))
    else:
        store, wall, cpu = bench.passes[0]
        metrics = tracer.metrics(wall)
        table = tracer.self_table(wall)
        metrics["core.exec.parent_cpu_s"] = (cpu, "s")
        workers = children_cpu_s() if workload == "figure2-pool" else 0.0
        measured = sum(seconds for _path, seconds, _cpu in bench.passes)
        metrics["core.exec.worker_cpu_s"] = (workers, "s")
        metrics["core.exec.pool_efficiency"] = (
            workers / (POOL_JOBS * measured) if workers else 0.0, "ratio")
        metrics["core.store.bytes"] = (store_bytes(store), "bytes")
        metrics.update(serve_client_metrics([], 0.0))
    metrics["trace.overhead"] = (bench.overhead(), "ratio")
    return metrics, table


def _write(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


# ----------------------------------------------------------------------
# The traced daemon entry point
# ----------------------------------------------------------------------
def daemon_main(argv) -> int:
    """``repro serve`` with the layer shims installed: the same
    ``serve_forever``, plus a tracer whose numbers are written to
    ``--out`` when SIGINT stops the daemon."""
    parser = argparse.ArgumentParser(prog="bench_layers.py _daemon")
    parser.add_argument("--store", required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import_repro()
    from repro.serve.daemon import serve_forever

    tracer = layers.LayerTracer()
    saved = layers.originals()
    marks = {}

    def ready(server):
        # Fork the pool before the shims exist, so workers run untraced
        # code; they report through rusage only.
        warm_up(server.queue.backend, args.seed)
        marks["state"] = layers.install(tracer)
        marks["cpu"] = time.process_time()
        marks["start"] = clock()

    try:
        serve_forever(args.store, jobs=args.jobs, durable=True, ready=ready)
    finally:
        if "state" in marks:
            layers.restore(marks["state"])
    wall = clock() - marks["start"]
    workers = children_cpu_s()
    metrics = tracer.metrics(wall)
    metrics["core.exec.parent_cpu_s"] = (time.process_time() - marks["cpu"],
                                         "s")
    metrics["core.exec.worker_cpu_s"] = (workers, "s")
    metrics["core.exec.pool_efficiency"] = (workers / (args.jobs * wall),
                                            "ratio")
    metrics["core.store.bytes"] = (store_bytes(Path(args.store)), "bytes")
    if tracer.spans:
        WORK.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(WORK / "spans-serve-mixed.json")
    _write(args.out, {"metrics": metrics, "table": tracer.self_table(wall),
                      "unrestored": layers.unrestored(saved)})
    return 0


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the subreaper of everything it starts: a
    descendant whose parent exits is re-parented here instead of to
    init, so :func:`reap_group` and :func:`reap_children` can wait for
    it to end."""
    import ctypes

    try:
        ctypes.CDLL(None, use_errno=True).prctl(
            PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def reap_group(child) -> None:
    """Kill the process group ``child`` leads and wait for ``child`` and
    for every member re-parented here (see :func:`adopt_orphans`)."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    child.wait()
    while True:
        try:
            os.waitpid(-child.pid, 0)
        except ChildProcessError:
            return


def _children() -> list:
    me = os.getpid()
    found = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", encoding="ascii",
                      errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            found.append(int(name))
    return found


def reap_children() -> None:
    """Kill and wait for every process still parented here, whichever
    process group or session it moved to."""
    while True:
        pids = _children()
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in pids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass


def _spawn(workload, seed, seconds, trace, work, number, setup_only, smoke,
           probe, deadline):
    out = work / f"child-{number}.json"
    requests, their_requests = os.pipe()
    their_replies, replies = os.pipe()
    argv = [sys.executable, str(SCRIPT), "_child", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--workdir", str(work), "--out", str(out),
            "--link", f"{their_requests},{their_replies}"]
    if setup_only:
        argv.append("--setup-only")
    if smoke:
        argv.append("--smoke")
    reading = probe.read()
    spawned = time.monotonic()
    try:
        child = subprocess.Popen(argv, cwd=ROOT, env=child_env(work),
                                 stdout=subprocess.DEVNULL,
                                 start_new_session=True,
                                 pass_fds=(their_requests, their_replies))
    finally:
        os.close(their_requests)
        os.close(their_replies)
    try:
        code = _await_child(child, requests, replies, probe, deadline)
    finally:
        # The child leads its own process group: this also ends the
        # daemon and pool workers of a child that hung or crashed.
        reap_group(child)
        os.close(requests)
        os.close(replies)
    if code != 0:
        raise RuntimeError(f"{workload} child exited "
                           f"{'on timeout' if code is None else code}")
    with open(out, encoding="utf-8") as handle:
        result = json.load(handle)
    result["setup_s"] = (result["ready_at"] - spawned) * host_scale(
        [reading, result["ready_reading"]], 0)
    return result


def run_workload(workload, seed, seconds, trace, smoke=False) -> dict:
    """Measure one workload; returns the machine-readable result plus the
    details the human-readable report prints."""
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    probe = HostProbe()
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        setups = []
        if not trace:
            for number in range(SETUP_REPEATS - 1):
                setups.append(_spawn(workload, seed, seconds, trace, work,
                                     number, True, smoke, probe,
                                     deadline)["setup_s"])
        child = _spawn(workload, seed, seconds, trace, work,
                       SETUP_REPEATS, False, smoke, probe, deadline)
    except RuntimeError:
        print(f"bench_layers: {workload} failed; logs kept in {work}",
              file=sys.stderr)
        raise
    finally:
        probe.close()
    shutil.rmtree(work, ignore_errors=True)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in child["metrics"].items()}
    if not trace:
        setups.append(child["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups),
                              "unit": "s"}
    return {"workload": workload, "seed": seed, "trace": trace,
            "correct": child["correct"], "attempted": child["attempted"],
            "failed": child["failed"], "metrics": metrics,
            "digest": child["digest"], "table": child.get("table"),
            "unrestored": child.get("unrestored", []),
            "host_reading_ms": child["host_reading_ms"]}


def _print_result(result) -> None:
    print(f"== {result['workload']} (seed {result['seed']}, "
          f"{'traced' if result['trace'] else 'untraced'}): "
          f"{result['attempted']} ops, {result['failed']} failed, "
          f"digest {result['digest'][:12]}, "
          f"mean host reading {result['host_reading_ms']:.4f} ms")
    for name, metric in sorted(result["metrics"].items()):
        print(f"   {name:32s} {metric['value']:14.4f} {metric['unit']}")
    if result.get("table"):
        print("   self time by boundary (share of traced wall):")
        for name, seconds, share in result["table"]:
            print(f"     {name:30s} {seconds:9.3f} s {share:7.1%}")
        outside = result["table"][-1][2]
        print(f"   accounted for: {1 - outside:.1%} of traced wall")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    if argv[:1] == ["_child"]:
        return child_main(argv[1:])
    if argv[:1] == ["_daemon"]:
        return daemon_main(argv[1:])
    if argv[:1] == ["_probe"]:
        return probe_main()
    parser = argparse.ArgumentParser(
        description="End-to-end and per-layer benchmark (see the module "
                    "docstring); 'compare' is a subcommand.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring budget of the workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics instead")
    parser.add_argument("-o", "--output", default=None, metavar="PATH",
                        help="also write the result to this JSON file")
    args = parser.parse_args(argv)
    if not source_present():
        print(f"bench_layers: no repro package under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2

    # SIGTERM unwinds like SIGINT, so every cleanup below runs on it too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    adopt_orphans()
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace)
    except RuntimeError as exc:
        print(f"bench_layers: {exc}", file=sys.stderr)
        return 1
    finally:
        reap_children()
    _print_result(result)
    if args.output:
        _write(args.output, result)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# compare: the claim rule over two sets of results
# ----------------------------------------------------------------------
HOST = "host_reading_ms"


def _collect(paths) -> dict:
    """``{workload: {metric: [values in file order]}}`` of untraced
    results from ``-o`` files, with the mean host reading of each run
    under ``HOST``."""
    found = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
        if result["trace"]:
            continue
        metrics = found.setdefault(result["workload"], {})
        for name, metric in result["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
        metrics.setdefault(HOST, []).append(result["host_reading_ms"])
    return found


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent, change, better, bound) -> str:
    """The claim rule: a gain needs a >= 9/10 pair win rate and a median
    gap larger than the parent's interquartile range; a loss is a median
    worse than the parent's by more than ``bound`` (a share of it); a
    parent spread wider than the bound leaves the metric unresolved
    unless every change run beats every parent run."""
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = _quartiles(parent)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (c_med - p_med) > q3 - q1:
        return "better"
    if sign * (p_med - c_med) > bound * abs(p_med):
        return "WORSE"
    if (q3 - q1) > bound * abs(p_med):
        if min(sign * c for c in change) > max(sign * p for p in parent):
            return "better (every run)"
        return "unresolved"
    return "within bound"


def compare_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_layers.py compare",
        description="Per-workload medians and quartiles of two result "
                    "sets, judged by the claim rule and the bounds in "
                    "BENCHMARK.json.  Exit 1 when any metric is WORSE.")
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    parent, change = _collect(args.parent), _collect(args.change)
    worse = False
    print(f"{'workload':15s} {'metric':15s} {'parent median [q1, q3]':>32s}"
          f" {'change median [q1, q3]':>32s}  wins  verdict")
    for workload in WORKLOADS:
        if workload not in parent or workload not in change:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = parent[workload].get(name)
            c = change[workload].get(name)
            if not p or not c:
                continue
            outcome = verdict(p, c, metric["better"], metric["bound"])
            worse |= outcome == "WORSE"
            sign = 1.0 if metric["better"] == "higher" else -1.0
            wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
            print(f"{workload:15s} {name:15s} "
                  f"{_summary(p):>32s} {_summary(c):>32s} "
                  f"{wins:>2d}/{min(len(p), len(c)):<2d} {outcome}")
        # Readings are taken with the code under test stopped, so only
        # the host moves them; a shift means the two sides ran on a
        # host in different states and the scaled metrics carry it.
        p, c = parent[workload][HOST], change[workload][HOST]
        q1, q3 = _quartiles(p)
        shift = abs(statistics.median(c) - statistics.median(p))
        print(f"{workload:15s} {HOST:15s} "
              f"{_summary(p):>32s} {_summary(c):>32s}        "
              f"{'host moved' if shift > q3 - q1 else 'host steady'}")
    return 1 if worse else 0


def _summary(values) -> str:
    q1, q3 = _quartiles(values)
    return (f"{statistics.median(values):.4g} "
            f"[{q1:.4g}, {q3:.4g}] n={len(values)}")


# ----------------------------------------------------------------------
# Smoke test (python -m pytest perfbench/bench_layers.py)
# ----------------------------------------------------------------------
def test_smoke_every_workload():
    """Every workload at a tiny size, untraced and traced: every metric
    named in BENCHMARK.json is emitted with its unit, nothing fails,
    tracing changes no output, and every shim is removed again."""
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    for workload in WORKLOADS:
        plain = run_workload(workload, DEFAULT_SEED, 0.5, 0, smoke=True)
        traced = run_workload(workload, DEFAULT_SEED, 0.5, 1, smoke=True)
        for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
            assert result["correct"] and result["failed"] == 0, result
            for metric in spec[kind]:
                emitted = result["metrics"][metric["name"]]
                assert emitted["unit"] == metric["unit"], metric
        assert traced["digest"] == plain["digest"], workload
        assert traced["unrestored"] == [], traced["unrestored"]


def test_claim_rule():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(parent, [110.0, 111.0, 109.0, 110.5, 109.5],
                   "higher", 0.1) == "better"
    assert verdict(parent, [80.0, 81.0, 79.0, 80.5, 79.5],
                   "higher", 0.1) == "WORSE"
    assert verdict(parent, [99.0, 101.5, 100.0, 100.0, 100.5],
                   "higher", 0.1) == "within bound"
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0]
    assert verdict(noisy, [95.0, 105.0, 90.0, 110.0, 100.0],
                   "lower", 0.1) == "unresolved"


if __name__ == "__main__":
    raise SystemExit(main())
