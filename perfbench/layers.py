"""Per-layer wall-time attribution for ``bench_layers.py --trace 1``.

:func:`install` wraps the public boundaries of each repro layer with
timing shims, from outside the package, and :func:`restore` puts every
original back.  Each boundary has a call counter and two accumulators:

- *busy* — inclusive wall time, counted for the outermost active
  instance of a boundary only, so recursion is never counted twice;
- *self* — exclusive wall time: the boundary's duration minus the
  nested boundaries and garbage-collector pauses inside it.

The self times of all boundaries plus the time outside every boundary
add up to the traced wall time, which is what lets the layer table
account for a whole run.  Spans (name, start, end, parent) are kept only
for per-run, per-job and per-collection boundaries, to bound memory.

kernel32 call handlers and blocking implementations are generators;
they are timed per resumption (the shim drives the inner generator
itself), so time a handler spends suspended in the event loop is not
charged to it.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from collections import defaultdict

clock = time.perf_counter

# Boundaries whose every instance is kept as a span.
SPAN_NAMES = frozenset({"core.campaign.run", "core.runner.run",
                        "load.runner.run", "gc"})
# Boundaries whose per-instance durations feed percentiles.
SAMPLE_NAMES = frozenset({"core.runner.run", "load.runner.run"})

_MISSING = object()


class LayerTracer:
    """Counters, busy/self accumulators and spans for one traced run."""

    def __init__(self):
        self.count = defaultdict(int)
        self.busy = defaultdict(float)
        self.own = defaultdict(float)
        self.events = 0
        self.samples = defaultdict(list)
        self.spans = []
        self._depth = defaultdict(int)
        # The active sections, as parallel stacks: a list per section
        # would be a container allocation, which would itself move the
        # collector's thresholds and so the pauses being measured.
        self._names = []
        self._starts = []
        self._nested = []
        self._span_ids = []
        self._next_span = 0
        self._gc_started = None

    # ------------------------------------------------------------------
    def enter(self, name):
        if name in SPAN_NAMES:
            self._span_ids.append(self._next_span)
            self._next_span += 1
        self._names.append(name)
        self._nested.append(0.0)
        self._depth[name] += 1
        self._starts.append(clock())

    def leave(self):
        """Close the innermost section (sections always nest)."""
        end = clock()
        name = self._names.pop()
        start = self._starts.pop()
        elapsed = end - start
        self.own[name] += elapsed - self._nested.pop()
        depth = self._depth[name] - 1
        self._depth[name] = depth
        if depth == 0:
            self.busy[name] += elapsed
        if self._nested:
            self._nested[-1] += elapsed
        if name in SPAN_NAMES:
            span = self._span_ids.pop()
            parent = self._span_ids[-1] if self._span_ids else None
            self.spans.append((name, start, end, span, parent))
            if name in SAMPLE_NAMES:
                self.samples[name].append(elapsed)

    def on_gc(self, phase, info):
        """``gc.callbacks`` hook: each collection is a leaf section."""
        if phase == "start":
            self._gc_started = clock()
            return
        if self._gc_started is None:
            return
        end = clock()
        elapsed = end - self._gc_started
        self.count[f"gc.gen{info['generation']}"] += 1
        self.own["gc"] += elapsed
        self.busy["gc"] += elapsed
        if self._nested:
            self._nested[-1] += elapsed
        parent = self._span_ids[-1] if self._span_ids else None
        self.spans.append(("gc", self._gc_started, end, None, parent))
        self._gc_started = None

    # ------------------------------------------------------------------
    def timed(self, name, fn, counter=None):
        """A shim timing every call of ``fn`` as boundary ``name``."""
        enter, leave, count = self.enter, self.leave, self.count
        counter = counter or name

        def shim(*args, **kwargs):
            count[counter] += 1
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        shim.__wrapped__ = fn
        return shim

    def steps(self, name, gen):
        """Drive ``gen`` (PEP 380 semantics), timing each resumption."""
        enter, leave = self.enter, self.leave
        value = error = None
        while True:
            enter(name)
            try:
                command = gen.send(value) if error is None \
                    else gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                leave()
            value = error = None
            try:
                value = yield command
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:
                error = exc

    def timed_generator(self, name, fn):
        """A shim for a generator function, timed per resumption."""
        steps, count = self.steps, self.count

        def shim(*args):
            count[name] += 1
            return steps(name, fn(*args))

        shim.__wrapped__ = fn
        return shim

    # ------------------------------------------------------------------
    def self_table(self, wall):
        """``[(boundary, self seconds, share of wall)]``, largest first,
        closed by the time outside every boundary."""
        rows = sorted(((name, seconds) for name, seconds
                       in self.own.items() if seconds),
                      key=lambda item: -item[1])
        table = [(name, seconds, seconds / wall if wall else 0.0)
                 for name, seconds in rows]
        outside = wall - sum(self.own.values())
        table.append(("(outside any boundary)", outside,
                      outside / wall if wall else 0.0))
        return table

    def metrics(self, wall):
        """The per-layer metrics this tracer measures, as
        ``{name: (value, unit)}``; rusage and client-side metrics are
        added by the harness."""
        count, busy, own = self.count, self.busy, self.own
        calls = count["nt.context.handler"]
        gets = count["core.store.get"]
        runs = self.samples["core.runner.run"]
        load_runs = self.samples["load.runner.run"]
        return {
            "nt.machine.boots": (count["nt.machine.boots"], "count"),
            "nt.machine.boot_s": (busy["nt.machine.boot"], "s"),
            "nt.machine.teardown_s": (busy["nt.machine.teardown"], "s"),
            "sim.engine.bursts": (count["sim.engine.run"], "count"),
            "sim.engine.run_s": (busy["sim.engine.run"], "s"),
            "sim.engine.self_s": (own["sim.engine.run"], "s"),
            "sim.engine.events": (self.events, "count"),
            "sim.engine.events_per_s": (
                _ratio(self.events, busy["sim.engine.run"]), "1/s"),
            "nt.context.calls": (calls, "count"),
            "nt.context.compiles": (count["nt.context.compile"], "count"),
            "nt.context.compiles_per_call": (
                _ratio(count["nt.context.compile"], calls), "ratio"),
            "nt.context.compile_s": (busy["nt.context.compile"], "s"),
            "nt.context.dispatch_s": (own["nt.context.handler"], "s"),
            "nt.kernel32.impl_s": (busy["nt.kernel32.impl"], "s"),
            "core.collector.collect_s": (busy["core.collector.collect"],
                                         "s"),
            "core.store.puts": (count["core.store.put"], "count"),
            "core.store.put_s": (busy["core.store.put"], "s"),
            "core.store.gets": (gets, "count"),
            "core.store.get_s": (busy["core.store.get"], "s"),
            "core.store.hit_ratio": (
                _ratio(count["core.store.hit"], gets), "ratio"),
            "core.exec.run_tasks_s": (busy["core.exec.run_tasks"], "s"),
            "core.runner.runs": (len(runs), "count"),
            "core.runner.run_p50_ms": (percentile(runs, 50) * 1e3, "ms"),
            "core.runner.run_p99_ms": (percentile(runs, 99) * 1e3, "ms"),
            "core.runner.unattributed_s": (own["core.runner.run"], "s"),
            "gc.pause_s": (busy["gc"], "s"),
            "gc.pause_share": (_ratio(busy["gc"], wall), "ratio"),
            "gc.gen0": (count["gc.gen0"], "count"),
            "gc.gen1": (count["gc.gen1"], "count"),
            "gc.gen2": (count["gc.gen2"], "count"),
            "load.runner.runs": (len(load_runs), "count"),
            "load.runner.run_p50_ms": (
                percentile(load_runs, 50) * 1e3, "ms"),
        }

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "id", "parent"],
                       "spans": self.spans}, handle)
            handle.write("\n")


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def percentile(values, pct):
    """The ``pct``-th percentile (inclusive method); 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def _targets():
    """``(owner, attribute, boundary, counter)`` for every callable the
    shims replace.  Owners are imported here, not at module import, so
    the harness can set up ``sys.path`` first."""
    from repro.core import campaign, exec as core_exec, runner, store
    from repro.core.workload import WorkloadSpec
    from repro.load import campaign as load_campaign
    from repro.nt import context, machine
    from repro.nt.kernel32 import runtime
    from repro.sim import engine

    return [
        (machine.Machine, "__init__", "nt.machine.boot", "nt.machine.boots"),
        (WorkloadSpec, "setup", "nt.machine.boot", None),
        (WorkloadSpec, "deploy_middleware", "nt.machine.boot", None),
        (machine.Machine, "shutdown", "nt.machine.teardown", None),
        (machine.Machine, "check_connection_hygiene", "nt.machine.teardown",
         None),
        (engine.Engine, "run", "sim.engine.run", None),
        (context, "build_call_handler", "nt.context.compile", None),
        (runtime, "lookup", "nt.kernel32.impl", None),
        (runner, "collect", "core.collector.collect", None),
        (store._StoreIndex, "get", "core.store.get", None),
        (store.RunStore, "put", "core.store.put", None),
        (store.ShardedRunStore, "put", "core.store.put", None),
        (core_exec.ProcessPoolBackend, "run_tasks", "core.exec.run_tasks",
         None),
        (core_exec, "execute_run", "core.runner.run", None),
        (load_campaign, "execute_load_run", "load.runner.run", None),
        (campaign.Campaign, "run", "core.campaign.run", None),
    ]


def originals():
    """``(owner, attribute, callable)`` for everything :func:`install`
    replaces — the identity check after :func:`restore` compares
    against these."""
    return [(owner, name, vars(owner)[name])
            for owner, name, _boundary, _counter in _targets()]


def install(tracer):
    """Wrap every boundary; returns the state :func:`restore` needs."""
    from repro.nt.kernel32 import runtime
    from repro.nt.kernel32.signatures import REGISTRY

    replaced = []
    shims = []
    for owner, name, boundary, counter in _targets():
        fn = vars(owner)[name]
        replaced.append((owner, name, fn))
        shims.append((owner, name,
                      _shim(tracer, boundary, counter, fn, runtime)))
    # Handlers resolve their implementation once per signature and cache
    # it on the signature; clear the cache so resolution goes through the
    # wrapped lookup, and put it back on restore.
    dispatch = []
    for sig in REGISTRY.values():
        try:
            cached = sig._dispatch
        except AttributeError:
            cached = _MISSING
        else:
            del sig._dispatch
        dispatch.append((sig, cached))
    for owner, name, shim in shims:
        setattr(owner, name, shim)
    gc.callbacks.append(tracer.on_gc)
    return {"originals": replaced, "dispatch": dispatch,
            "gc": tracer.on_gc}


def restore(state):
    """Undo :func:`install`: originals, handler caches, gc hook."""
    if state["gc"] in gc.callbacks:
        gc.callbacks.remove(state["gc"])
    for owner, name, fn in state["originals"]:
        setattr(owner, name, fn)
    for sig, cached in state["dispatch"]:
        if cached is _MISSING:
            if hasattr(sig, "_dispatch"):
                del sig._dispatch
        else:
            sig._dispatch = cached


def unrestored(saved):
    """Names whose current attribute is not the saved original."""
    return [f"{getattr(owner, '__name__', owner)}.{name}"
            for owner, name, fn in saved if vars(owner)[name] is not fn]


def _shim(tracer, boundary, counter, fn, runtime):
    """The timing shim replacing ``fn`` at ``boundary``."""
    timed = tracer.timed
    if boundary == "sim.engine.run":
        run = timed(boundary, fn)

        def engine_run(engine, *args, **kwargs):
            before = engine.events_processed
            try:
                return run(engine, *args, **kwargs)
            finally:
                tracer.events += engine.events_processed - before

        return engine_run
    if boundary == "nt.context.compile":
        build = timed(boundary, fn)

        def build_call_handler(ctx, sig):
            return tracer.timed_generator("nt.context.handler",
                                          build(ctx, sig))

        return build_call_handler
    if boundary == "nt.kernel32.impl":
        def lookup(name):
            impl = fn(name)
            if impl is None:
                return None
            if runtime.is_blocking(name):
                return tracer.timed_generator(boundary, impl)
            return timed(boundary, impl)

        return lookup
    if boundary == "core.store.get":
        get = timed(boundary, fn)

        def store_get(store, *args, **kwargs):
            result = get(store, *args, **kwargs)
            if result is not None:
                tracer.count["core.store.hit"] += 1
            return result

        return store_get
    return timed(boundary, fn, counter)
