"""Command-line interface — the control surface of the tool.

The original DTS is "controlled via a graphical interface and a set of
configuration files"; this CLI is the headless equivalent, driving the
same configuration files and campaign machinery:

    python -m repro faultlist -o faults.lst
    python -m repro profile --workload IIS --middleware watchd
    python -m repro inject --workload SQL --fault "ReadFileEx 2 zero 1"
    python -m repro run --config dts.ini
    python -m repro reproduce --write-report EXPERIMENTS.md
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
import time
from typing import Optional, Sequence

from .analysis.experiment import ExperimentSuite
from .analysis.figures import OutcomeDistribution
from .analysis.report import generate_experiments_report, shape_checks
from .core.campaign import Campaign, profile_workload
from .core.config import DtsConfig
from .core.faultlist import dump_fault_list, generate_fault_list
from .core.faults import (
    FAMILY_SPECS,
    FaultSpec,
    FaultType,
    ReturnFaultSpec,
    fault_family,
)
from .core.runner import RunConfig, execute_run
from .core.workload import WORKLOADS, MiddlewareKind, get_workload
from .load.spec import (
    DEFAULT_ARRIVAL_RATE,
    DEFAULT_STAGGER,
    DEFAULT_THINK_TIME,
)
from .nt.kernel32.signatures import REGISTRY
from .trace import (
    TRACE_LEVEL_NAMES,
    TraceLevel,
    derive_metrics,
    render_diff,
    render_metrics,
    render_timeline,
)


class CliError(Exception):
    """A command's refusal: :func:`main` prints the message and exits
    with ``code`` — 2 for a usage error, 1 for a failed lookup or
    check."""

    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _count(text: str) -> int:
    """argparse type of ``--jobs`` and ``serve --segments``: a count
    >= 1."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"want an integer, got {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def _port(text: str) -> int:
    """argparse type of ``serve --port``: a TCP port, 0 for ephemeral."""
    try:
        port = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"want an integer, got {text!r}") from None
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(
            f"must be in 0..65535, got {port}")
    return port


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DTS (Dependability Test Suite) reproduction — "
                    "KERNEL32 parameter-corruption fault injection.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    faultlist = commands.add_parser(
        "faultlist", help="generate a fault-list file")
    faultlist.add_argument("-o", "--output", required=True,
                           help="path to write the fault list to")
    faultlist.add_argument("--functions", default=None,
                           help="comma-separated export names "
                                "(default: all 551 injectable)")

    profile = commands.add_parser(
        "profile", help="fault-free profiling run (Table 1 counts)")
    _add_target_arguments(profile)

    inject = commands.add_parser(
        "inject", help="run a single fault injection")
    _add_target_arguments(inject)
    inject.add_argument("--fault", required=True,
                        help="fault-list line: '<function> <param> "
                             "<zero|ones|flip> <invocation>'")

    run = commands.add_parser(
        "run", help="run a whole workload set from a config file")
    run.add_argument("--config", required=True,
                     help="path to the DTS main configuration file")
    run.add_argument("--functions", default=None,
                     help="restrict to a comma-separated function subset")
    run.add_argument("--fault-family", default="param",
                     choices=(*(spec.family for spec in FAMILY_SPECS),
                              "all"),
                     help="fault family to inject: parameter corruption "
                          "(default), return-value corruption, sustained "
                          "I/O-path faults, resource exhaustion, or "
                          "'all' for a family-by-family comparison")
    _add_execution_arguments(run)
    run.add_argument("--prune-equivalent", default=None, metavar="FILE",
                     help="equivalence manifest (repro lint "
                          "--emit-equivalence): statically equivalent "
                          "faults run once and the census is expanded "
                          "from class representatives")
    run.add_argument("--resume", action="store_true",
                     help="reuse runs already checkpointed in the store "
                          "and execute only the missing ones")

    reproduce = commands.add_parser(
        "reproduce", help="regenerate every table and figure of the paper")
    reproduce.add_argument("--write-report", metavar="PATH", default=None,
                           help="also write the EXPERIMENTS.md report here")
    _add_execution_arguments(reproduce)
    for sub in (profile, inject, run, reproduce):
        sub.add_argument("--trace-level", default=None,
                         choices=TRACE_LEVEL_NAMES,
                         help="record a structured event trace per run "
                              "(default: off; run: [trace] level)")

    trace = commands.add_parser(
        "trace", help="inspect stored run traces: timeline, derived "
                      "metrics, or an event-by-event diff of two runs")
    trace.add_argument("store", help="path to a JSONL run store")
    trace.add_argument("key", nargs="?", default=None,
                       help="fault key, e.g. 'param:CreateFileA:0:zero:1',"
                            " 'return:ReadFile:ones:2' or 'profile' "
                            "(omit to list the store's traced runs)")
    trace.add_argument("--fingerprint", default=None, metavar="PREFIX",
                       help="campaign fingerprint (prefix) to "
                            "disambiguate stores holding several "
                            "campaigns")
    trace.add_argument("--diff", default=None, metavar="KEY",
                       help="diff this run's trace against KEY's, "
                            "event by event")
    trace.add_argument("--metrics", action="store_true",
                       help="show derived detection/restart metrics "
                            "instead of the timeline")

    load = commands.add_parser(
        "load", help="concurrent multi-client load run (Figure 4 at "
                     "scale): N simulated clients against one workload, "
                     "optionally under injection")
    _add_target_arguments(load)
    load.add_argument("--clients", type=int, default=10, metavar="N",
                      help="size of the client population (default 10)")
    load.add_argument("--sweep", default=None, metavar="N,N,...",
                      help="comma-separated client counts to sweep "
                           "(overrides --clients)")
    load.add_argument("--mode", choices=("closed", "open"),
                      default="closed",
                      help="closed: fixed population with think time; "
                           "open: fixed arrival rate, one cycle each")
    load.add_argument("--iterations", type=int, default=1,
                      help="request cycles per closed-loop client")
    load.add_argument("--think-time", type=float,
                      default=DEFAULT_THINK_TIME, metavar="SECONDS",
                      help="closed-loop think time between cycles")
    load.add_argument("--stagger", type=float, default=DEFAULT_STAGGER,
                      metavar="SECONDS",
                      help="closed-loop arrival spacing between clients")
    load.add_argument("--arrival-rate", type=float,
                      default=DEFAULT_ARRIVAL_RATE, metavar="PER_SECOND",
                      help="open-loop client arrival rate")
    load.add_argument("--reps", type=int, default=1,
                      help="independent repetitions per configuration "
                           "(each re-seeded; >=2 gives real error bars)")
    load.add_argument("--fault", default=None,
                      help="arm a fault for every run: '<function> "
                           "<param> <zero|ones|flip> <invocation>' or "
                           "'<function> <zero|ones|flip> <invocation>' "
                           "for a return-value fault")
    _add_execution_arguments(load)
    load.add_argument("--resume", action="store_true",
                      help="reuse runs already checkpointed in the store")

    lint = commands.add_parser(
        "lint", help="DTS-aware static analysis (signature conformance, "
                     "unchecked returns, handle leaks, sim hangs, "
                     "yield-point races, determinism, fault-space "
                     "validity)")
    lint.add_argument("paths", nargs="*", default=None, metavar="PATH",
                      help="files or directories to analyse "
                           "(default: src examples)")
    lint.add_argument("--format", choices=("text", "json", "sarif"),
                      default="text",
                      dest="output_format", help="report format")
    lint.add_argument("--baseline", default=None, metavar="FILE",
                      help="baseline of accepted findings (default: "
                           "lint-baseline.json when present; 'none' "
                           "disables)")
    lint.add_argument("--write-baseline", default=None, metavar="FILE",
                      help="write every current finding to FILE as the new "
                           "baseline and exit 0")
    lint.add_argument("--update-baseline", action="store_true",
                      help="regenerate the active baseline file in place "
                           "(deterministic: sorted keys, stable counts)")
    lint.add_argument("--jobs", type=_count, default=1, metavar="N",
                      help="analyse files through a process pool of N "
                           "workers (default: 1, serial)")
    lint.add_argument("--rules", "--select", default=None, dest="rules",
                      help="comma-separated rule names or families to run "
                           "(e.g. --select valueflow)")
    lint.add_argument("--census-diff", action="store_true",
                      help="reconcile the static activatable-fault "
                           "prediction against dynamic evidence (fresh "
                           "profile runs, or --census-store); exits "
                           "non-zero on unexplained activations")
    lint.add_argument("--census-store", action="append", default=None,
                      metavar="PATH",
                      help="JSONL run store(s) to read dynamic census "
                           "evidence from instead of executing profile "
                           "runs (repeatable)")
    lint.add_argument("--emit-equivalence", default=None, metavar="FILE",
                      help="write the static fault-equivalence manifest "
                           "to FILE (consumed by repro run "
                           "--prune-equivalent) and exit")
    lint.add_argument("--equiv-check", action="store_true",
                      help="dynamic oracle for the equivalence manifest: "
                           "execute every member of sampled classes and "
                           "fail on outcome divergence")
    lint.add_argument("--equiv-sample", type=int, default=None,
                      metavar="N",
                      help="classes sampled by --equiv-check "
                           "(default: 6; 0 checks every class)")

    serve = commands.add_parser(
        "serve", help="campaign-as-a-service daemon: accept campaign/"
                      "load specs over HTTP+JSON, queue them onto a "
                      "shared process pool and a sharded run store")
    serve.add_argument("--store", required=True, metavar="DIR",
                       help="sharded run store directory (created on "
                            "first submission; restarting on an "
                            "existing one resumes its checkpoints)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=_port, default=8642,
                       help="bind port; 0 picks an ephemeral port "
                            "(default: 8642)")
    serve.add_argument("--jobs", type=_count, default=1, metavar="N",
                       help="process-pool workers shared by all jobs "
                            "(default: 1, serial)")
    serve.add_argument("--segments", type=_count, default=None,
                       metavar="N",
                       help="segment files in a newly created store "
                            "(default: 8; existing stores keep theirs)")
    serve.add_argument("--no-durable", action="store_true",
                       help="skip the per-append fsync (faster, but a "
                            "power loss may drop recent runs)")
    serve.add_argument("--verbose", action="store_true",
                       help="log each HTTP request to stderr")
    return parser


def _add_execution_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--jobs", type=_count, default=None, metavar="N",
                     help="run injections through a process pool of N "
                          "workers (default: [execution] jobs, else 1)")
    sub.add_argument("--store", default=None, metavar="PATH",
                     help="checkpoint completed runs to this JSONL run "
                          "store (enables --resume and cross-campaign "
                          "result caching)")


def _add_target_arguments(sub: argparse.ArgumentParser) -> None:
    """The workload and middleware options of profile, inject and load
    (resolved by :func:`_resolve_workload` and
    :func:`_resolve_middleware`)."""
    sub.add_argument("--workload", required=True,
                     help="workload name or alias: apache, apache2, iis, "
                          "sql (case-insensitive), or a registry name")
    sub.add_argument("--middleware", default="none",
                     help="none, mscs, watchd, or watchd1/2/3 "
                          "(the suffix selects the watchd version)")
    sub.add_argument("--watchd-version", type=int, default=None,
                     choices=(1, 2, 3),
                     help="watchd version when --middleware is 'watchd' "
                          "(default 3; watchdN implies N)")
    sub.add_argument("--seed", type=int, default=2000)


class CliProgress:
    """Progress line with throughput and ETA, safe for dumb terminals."""

    def __init__(self, out):
        self.out = out
        self.started = time.monotonic()
        self.printed = False

    def __call__(self, done, total, run) -> None:
        elapsed = max(time.monotonic() - self.started, 1e-9)
        rate = done / elapsed
        eta = (total - done) / rate if rate > 0 else 0.0
        print(f"\r  {done}/{total} runs  {rate:7.1f} runs/s  "
              f"ETA {eta:5.1f}s", end="", file=self.out, flush=True)
        self.printed = True

    def finish(self) -> None:
        if self.printed:
            print(file=self.out)


def _open_store(path: Optional[str], resume: bool, out,
                durable: bool = False):
    """Build the run store for a command, enforcing resume semantics.

    An existing store is only reused when ``--resume`` is given, so a
    stale file is never picked up by accident.  A path naming a
    directory (or spelled with a ``.d`` suffix) opens a sharded store;
    anything else a single JSONL file.  No path means no store.
    """
    from .core.store import open_store, store_exists

    if path is None:
        if resume:
            raise CliError("--resume needs a run store (--store PATH or "
                           "[execution] store)")
        return None
    if store_exists(path) and not resume:
        raise CliError(f"run store {path} already exists; pass --resume "
                       f"to reuse its checkpointed runs, or choose a new "
                       f"path")
    try:
        store = open_store(path, durable=durable)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot open store {path}: {exc}") from None
    if resume and len(store):
        corrupt = (f"; {store.corrupt_lines} corrupt mid-file line(s) "
                   f"ignored, the runs they held will re-execute"
                   if store.corrupt_lines else "")
        print(f"resuming from {path}: {len(store)} checkpointed "
              f"run(s){corrupt}", file=out)
    return store


def _write_text(path: str, text: str, prefix: str = "") -> None:
    """Write an output file; an unwritable path is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except BrokenPipeError:
        raise  # a closed reader: main() ends the CLI with exit 1
    except OSError as exc:
        raise CliError(f"{prefix}cannot write {path}: "
                       f"{exc.strerror or exc}") from None


_WORKLOAD_ALIASES = {"apache": "Apache1", "sqlserver": "SQL"}


def _resolve_workload(name: str) -> str:
    """Map a CLI workload name or alias to a registry name."""
    if name in WORKLOADS:
        return name
    lowered = name.lower()
    alias = _WORKLOAD_ALIASES.get(lowered)
    if alias is not None:
        return alias
    for registered in WORKLOADS:
        if registered.lower() == lowered:
            return registered
    known = sorted(WORKLOADS) + sorted(_WORKLOAD_ALIASES)
    raise CliError(f"unknown workload {name!r}; known: {', '.join(known)}")


def _resolve_middleware(value: str, watchd_version):
    """Parse none|mscs|watchd|watchdN into ``(kind, watchd_version)``."""
    lowered = value.lower()
    if lowered.startswith("watchd") and lowered[6:] in ("1", "2", "3"):
        implied = int(lowered[6:])
        if watchd_version is not None and watchd_version != implied:
            raise CliError(f"--middleware {value} conflicts with "
                           f"--watchd-version {watchd_version}")
        return MiddlewareKind.WATCHD, implied
    try:
        kind = MiddlewareKind(lowered)
    except ValueError:
        raise CliError(f"unknown middleware {value!r}; known: none, mscs, "
                       f"watchd, watchd1, watchd2, watchd3") from None
    return kind, (watchd_version if watchd_version is not None else 3)


def _parse_fault(line: str, workload, returns: bool = False):
    """A fault-list line checked against ``workload``'s registry.

    With ``returns``, a 3-token line is a return fault.
    """
    parts = line.split()
    try:
        if returns and len(parts) == 3:
            function, fault_type, invocation = parts
            fault = ReturnFaultSpec(function, FaultType(fault_type),
                                    int(invocation))
        else:
            fault = FaultSpec.from_line(line)
        # Arming checks the export (and the parameter index).
        fault.injector(workload.target_role, workload.registry)
    except ValueError as exc:
        raise CliError(f"bad --fault: {exc}") from None
    return fault


# ----------------------------------------------------------------------
# Command bodies
# ----------------------------------------------------------------------
def cmd_faultlist(args, out) -> int:
    functions = args.functions.split(",") if args.functions else None
    try:
        FaultSpec.check_functions(functions, REGISTRY)
    except ValueError as exc:
        raise CliError(f"repro faultlist: {exc}") from None
    faults = generate_fault_list(functions)
    _write_text(args.output, dump_fault_list(faults),
                prefix="repro faultlist: ")
    print(f"wrote {len(faults)} faults to {args.output}", file=out)
    return 0


def cmd_profile(args, out) -> int:
    workload = _resolve_workload(args.workload)
    middleware, watchd_version = _resolve_middleware(args.middleware,
                                                     args.watchd_version)
    called = profile_workload(
        workload, middleware,
        config=RunConfig(base_seed=args.seed, watchd_version=watchd_version,
                         trace_level=args.trace_level or "off"))
    print(f"{workload} / {args.middleware}: "
          f"{len(called)} KERNEL32 functions called", file=out)
    for name in sorted(called):
        print(f"  {name}", file=out)
    return 0


def cmd_inject(args, out) -> int:
    workload = get_workload(_resolve_workload(args.workload))
    middleware, watchd_version = _resolve_middleware(args.middleware,
                                                     args.watchd_version)
    fault = _parse_fault(args.fault, workload)
    result = execute_run(
        workload, middleware, fault,
        RunConfig(base_seed=args.seed, watchd_version=watchd_version,
                  trace_level=args.trace_level or "off"))
    print(f"fault      : {fault!r}", file=out)
    print(f"activated  : {result.activated}", file=out)
    print(f"outcome    : {result.outcome.value}", file=out)
    print(f"failure    : {result.failure_mode.value}", file=out)
    rt = (f"{result.response_time:.2f}s"
          if result.response_time is not None else "none")
    print(f"resp. time : {rt}", file=out)
    print(f"restarts   : {result.restarts_detected}", file=out)
    print(f"retries    : {result.retries_used}", file=out)
    if result.trace:
        print(f"\ntrace ({result.trace_level.label}, "
              f"{len(result.trace)} events):", file=out)
        print(render_timeline(result.trace), file=out)
    return 0


def cmd_run(args, out) -> int:
    try:
        config = DtsConfig.from_file(args.config)
        config.workload_spec()  # an unknown workload fails here, not mid-run
    except (OSError, ValueError, KeyError, configparser.Error) as exc:
        # configparser messages span lines; the report is one line.
        reason = str(exc.args[0] if isinstance(exc, KeyError) else exc)
        raise CliError(f"bad --config {args.config}: "
                       f"{' '.join(reason.split())}") from None
    if args.trace_level is not None:
        config.trace_level = TraceLevel.parse(args.trace_level)
    from .analysis.fault_families import FAMILY_ORDER, build_family_comparison

    families = ([f for f in FAMILY_ORDER if f != "return"]
                if args.fault_family == "all" else [args.fault_family])
    # --functions names kernel32 exports; it only restricts the
    # parameter/return spaces (io/resource enumerate their own axes).
    spec_types = {family: fault_family(family) for family in families}
    functions = args.functions.split(",") if args.functions else None
    try:
        for spec_type in spec_types.values():
            if spec_type.takes_functions:
                spec_type.check_functions(functions,
                                          config.workload_spec().registry)
    except ValueError as exc:
        raise CliError(f"bad --functions: {exc}") from None

    prune = None
    if args.prune_equivalent is not None:
        from .lint.valueflow import EquivalenceManifest

        try:
            prune = EquivalenceManifest.load(args.prune_equivalent)
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot load equivalence manifest "
                           f"{args.prune_equivalent}: {exc}") from None

    jobs = args.jobs if args.jobs is not None else config.jobs
    store = _open_store(args.store or config.store, args.resume, out)
    label = f"{config.workload} / {config.middleware.label}"
    results = {}
    progress = CliProgress(out)
    try:
        for family, spec_type in spec_types.items():
            campaign = Campaign(
                config.workload, config.middleware,
                functions=functions if spec_type.takes_functions else None,
                config=config.run_config(),
                jobs=jobs, store=store,
                progress=progress, mechanism=spec_type.mechanism,
                prune=prune)
            results[family] = campaign.run()
    finally:
        progress.finish()
        if store is not None:
            store.close()

    if len(results) > 1:
        print(build_family_comparison(label, results).render(), file=out)
        result = results[families[0]]
    else:
        result = results[families[0]]
        dist = OutcomeDistribution.from_result(label, result)
        print(dist.render(), file=out)
    for family in families:
        set_result = results[family]
        prefix = f"[{family}] " if len(results) > 1 else ""
        print(f"{prefix}activated faults : "
              f"{set_result.activated_count}", file=out)
        print(f"{prefix}failure coverage : "
              f"{set_result.failure_coverage:.1%}", file=out)
        print(f"{prefix}skipped functions: "
              f"{len(set_result.skipped_functions)}", file=out)
        if store is not None:
            print(f"{prefix}resumed from store: "
                  f"{set_result.cached_count} cached, "
                  f"{set_result.executed_count} executed", file=out)
    if prune is not None:
        print(f"pruned by equivalence: {result.inferred_count} runs "
              f"inferred ({prune.fingerprint})", file=out)
    return 0


def cmd_reproduce(args, out) -> int:
    from .core.exec import backend_for

    # The reproduce store is a cross-figure cache: an existing file is
    # reused by design, so Figure 3 re-executes nothing after Figure 2.
    store = (_open_store(args.store, resume=True, out=out)
             if args.store else None)
    backend = backend_for(args.jobs)
    suite = ExperimentSuite(
        base_seed=2000,
        log=lambda message: print(f"  {message}", file=out, flush=True),
        backend=backend, store=store,
        trace_level=args.trace_level or "off")
    try:
        report = generate_experiments_report(suite)
        checks = shape_checks(suite)
    finally:
        backend.close()
        if store is not None:
            store.close()
    if args.write_report:
        _write_text(args.write_report, report)
    print(report, file=out)
    held = sum(1 for check in checks if check.holds)
    if args.write_report:
        print(f"wrote {args.write_report}", file=out)
    print(f"shape claims: {held}/{len(checks)} hold", file=out)
    return 0 if held == len(checks) else 1


def _lookup_traced_run(store, key: str, fingerprint):
    """The one stored run under fault ``key`` (and fingerprint
    prefix)."""
    matches = store.find(key)
    if fingerprint:
        matches = [(fp, run) for fp, run in matches
                   if fp.startswith(fingerprint)]
    if not matches:
        raise CliError(f"no stored run for key {key!r}"
                       + (f" under fingerprint {fingerprint}*"
                          if fingerprint else ""), code=1)
    if len(matches) > 1:
        raise CliError("\n".join(
            [f"key {key!r} is ambiguous across campaigns; pass "
             f"--fingerprint one of:"]
            + [f"  {fp}" for fp, _run in matches]))
    return matches[0][1]


def cmd_trace(args, out) -> int:
    from .core.store import open_store, store_exists

    if not store_exists(args.store):
        raise CliError(f"no such run store: {args.store}")
    try:
        store = open_store(args.store)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot open store {args.store}: {exc}") from None
    with store:
        if args.key is None:
            # Listing mode: every stored run, traced ones annotated.
            for fp, key in store.keys():
                result = store.get(fp, key)
                mark = (f"{result.trace_level.label:<7} "
                        f"{len(result.trace):5d} events"
                        if result.trace else "untraced")
                print(f"  {fp}  {key:<40} {mark}", file=out)
            print(f"{len(store)} stored runs", file=out)
            if store.corrupt_lines:
                print(f"{store.corrupt_lines} corrupt mid-file line(s) "
                      f"ignored", file=out)
                return 1
            return 0

        result = _lookup_traced_run(store, args.key, args.fingerprint)
        if not result.trace:
            raise CliError(f"run {args.key!r} was stored untraced; re-run "
                           f"it with --trace-level outcome (or higher)",
                           code=1)

        if args.diff is not None:
            other = _lookup_traced_run(store, args.diff, args.fingerprint)
            if not other.trace:
                raise CliError(f"run {args.diff!r} was stored untraced",
                               code=1)
            print(render_diff(result.trace, other.trace,
                              left_label=args.key,
                              right_label=args.diff), file=out)
            from .trace import diff_traces
            return 0 if diff_traces(result.trace, other.trace) is None \
                else 1

        if args.metrics:
            print(render_metrics(derive_metrics(result.trace)), file=out)
        else:
            print(f"{args.key} ({result.trace_level.label}, "
                  f"{len(result.trace)} events)", file=out)
            print(render_timeline(result.trace), file=out)
        return 0


def cmd_load(args, out) -> int:
    from .analysis.loadscale import aggregate_load_runs, render_load_scale
    from .load import LoadSpec, plan_load_tasks, run_load_tasks

    workload_name = _resolve_workload(args.workload)
    middleware, watchd_version = _resolve_middleware(args.middleware,
                                                     args.watchd_version)
    fault = None
    if args.fault is not None:
        fault = _parse_fault(args.fault, get_workload(workload_name),
                             returns=True)

    sweep = None
    if args.sweep:
        try:
            sweep = [int(part) for part in args.sweep.split(",") if part]
        except ValueError:
            raise CliError(f"bad --sweep: {args.sweep!r} (want "
                           f"comma-separated integers)") from None

    try:
        spec = LoadSpec(workload=workload_name, middleware=middleware,
                        clients=args.clients, mode=args.mode,
                        iterations=args.iterations,
                        think_time=args.think_time, stagger=args.stagger,
                        arrival_rate=args.arrival_rate, fault=fault)
        tasks = plan_load_tasks(spec, reps=args.reps, sweep=sweep)
    except ValueError as exc:
        raise CliError(str(exc)) from None

    config = RunConfig(base_seed=args.seed,
                       watchd_version=watchd_version)
    store = _open_store(args.store, args.resume, out)
    jobs = args.jobs if args.jobs is not None else 1
    progress = CliProgress(out)
    try:
        execution = run_load_tasks(tasks, config, jobs=jobs, store=store,
                                   progress=progress)
    finally:
        progress.finish()
        if store is not None:
            store.close()

    print(render_load_scale(aggregate_load_runs(execution.runs)),
          file=out)
    total_requests = sum(run.request_count for run in execution.runs)
    total_events = sum(run.engine_events for run in execution.runs)
    print(f"\n{len(execution.runs)} load runs, {total_requests} requests, "
          f"{total_events} engine events", file=out)
    if store is not None:
        print(f"resumed from store: {execution.cached_count} cached, "
              f"{execution.executed_count} executed", file=out)
    return 0


def cmd_serve(args, out) -> int:
    from .core.store import is_sharded_path
    from .serve import serve_forever

    if args.segments is not None and not is_sharded_path(args.store):
        raise CliError(f"repro serve: --segments needs a sharded store "
                       f"(a directory or a .d path), not {args.store}")
    return serve_forever(args.store, host=args.host, port=args.port,
                         jobs=args.jobs, segments=args.segments,
                         durable=not args.no_durable,
                         verbose=args.verbose, out=out)


def _load_baseline(path: str) -> dict:
    from .lint import load_baseline

    try:
        return load_baseline(path)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read baseline: {exc}") from None


def cmd_lint(args, out) -> int:
    from .lint import default_rules, dump_baseline, parse_modules, run_lint

    rules = default_rules()
    if args.rules:
        # --select accepts rule names and rule families alike, so CI
        # jobs can isolate e.g. the whole valueflow tier in one flag.
        wanted = {name.strip() for name in args.rules.split(",")}
        known = ({rule.name for rule in rules}
                 | {rule.family for rule in rules if rule.family})
        unknown = wanted - known
        if unknown:
            raise CliError(f"unknown rule(s): {', '.join(sorted(unknown))} "
                           f"(known: {', '.join(sorted(known))})")
        rules = [rule for rule in rules
                 if rule.name in wanted or rule.family in wanted]

    paths = args.paths or ["src", "examples"]

    if args.update_baseline and args.write_baseline:
        raise CliError("--update-baseline and --write-baseline are "
                       "mutually exclusive (the former rewrites the "
                       "active baseline file)")
    if args.census_store and not args.census_diff:
        raise CliError("--census-store requires --census-diff")
    if args.census_diff and args.output_format == "sarif":
        raise CliError("--census-diff cannot be combined with --format "
                       "sarif (use text or json)")
    if args.equiv_sample is not None and not args.equiv_check:
        raise CliError("--equiv-sample requires --equiv-check")
    if args.equiv_check and args.output_format == "sarif":
        raise CliError("--equiv-check cannot be combined with --format "
                       "sarif (use text or json)")
    for store_path in args.census_store or ():
        if not os.path.exists(store_path):
            raise CliError(f"no such run store: {store_path}")

    if args.emit_equivalence:
        # Manifest emission is a standalone mode: it needs the parsed
        # module set and the value-flow facts, not the findings.
        from .lint.valueflow import valueflow_for

        try:
            modules = parse_modules(paths)
        except FileNotFoundError as exc:
            raise CliError(f"no such path: {exc.args[0]}") from None
        manifest = valueflow_for(modules).manifest
        _write_text(args.emit_equivalence, manifest.dumps())
        print(f"wrote {args.emit_equivalence}: "
              f"{len(manifest.classes)} class(es), "
              f"{manifest.collapsible_count} collapsible run(s) "
              f"({manifest.fingerprint})", file=out)
        return 0

    baseline = {}
    baseline_path = args.baseline
    if baseline_path is None and os.path.exists("lint-baseline.json"):
        baseline_path = "lint-baseline.json"
    if args.update_baseline:
        if not baseline_path or baseline_path == "none":
            baseline_path = "lint-baseline.json"
    elif baseline_path and baseline_path != "none":
        baseline = _load_baseline(baseline_path)

    if args.write_baseline:
        # A fresh baseline captures everything, unfiltered.
        baseline = {}

    try:
        result = run_lint(paths, rules=rules, baseline=baseline,
                          jobs=args.jobs)
    except FileNotFoundError as exc:
        raise CliError(f"no such path: {exc.args[0]}") from None

    if args.update_baseline:
        # `dump_baseline` sorts keys and counts occurrences, so the
        # regenerated file is deterministic and a round-trip on an
        # unchanged tree is a no-op.  Prior entries survive only if
        # their file is outside this run's scope *and* still exists —
        # suppressions for deleted files are pruned, suppressions for
        # fixed in-scope files simply aren't re-emitted.
        from .lint import baseline_entry_path

        keep: dict = {}
        pruned = 0
        previous = (_load_baseline(baseline_path)
                    if os.path.exists(baseline_path) else {})
        for key, count in previous.items():
            entry_path = baseline_entry_path(key)
            if entry_path in result.checked_paths:
                continue  # in scope: this run's findings decide
            if not os.path.exists(entry_path):
                pruned += 1
                continue
            keep[key] = count
        _write_text(baseline_path, dump_baseline(result.findings, keep=keep))
        print(f"regenerated {baseline_path} with "
              f"{len(result.findings)} finding(s), {len(keep)} "
              f"out-of-scope entr(y/ies) kept, {pruned} stale "
              f"entr(y/ies) pruned", file=out)
        return 0

    if args.write_baseline:
        _write_text(args.write_baseline, dump_baseline(result.findings))
        print(f"wrote {len(result.findings)} finding(s) to "
              f"{args.write_baseline}", file=out)
        return 0

    # The census and the equivalence oracle read the parsed module set,
    # not the findings: one rule-free parse serves both.
    modules = (parse_modules(paths)
               if args.census_diff or args.equiv_check else None)
    census_report = None
    if args.census_diff:
        from .lint.censusdiff import census_diff

        census_report = census_diff(
            modules, store_paths=args.census_store or ())

    equiv_report = None
    if args.equiv_check:
        from .lint.valueflow import equiv_check

        sample = args.equiv_sample if args.equiv_sample is not None else 6
        equiv_report = equiv_check(modules, sample=sample)

    if args.output_format == "json":
        import json as json_module

        payload = json_module.loads(result.render_json())
        if census_report is not None:
            payload["census"] = census_report.to_json()
        if equiv_report is not None:
            payload["equiv"] = equiv_report.to_json()
        print(json_module.dumps(payload, indent=2), file=out)
    elif args.output_format == "sarif":
        from .lint.sarif import render_sarif
        print(render_sarif(result, rules), file=out)
    else:
        print(result.render_text(), file=out)
        if census_report is not None:
            print(census_report.render_text(), file=out)
        if equiv_report is not None:
            print(equiv_report.render_text(), file=out)
    status = 0 if result.clean else 1
    if census_report is not None and not census_report.clean:
        status = 1
    if equiv_report is not None and not equiv_report.clean:
        status = 1
    return status


_COMMANDS = {
    "faultlist": cmd_faultlist,
    "profile": cmd_profile,
    "inject": cmd_inject,
    "run": cmd_run,
    "reproduce": cmd_reproduce,
    "trace": cmd_trace,
    "load": cmd_load,
    "lint": cmd_lint,
    "serve": cmd_serve,
}


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Parse ``argv`` and run one command — the CLI's one exit
    boundary: a :class:`CliError` becomes its message and code."""
    args = build_parser().parse_args(argv)
    out = out or sys.stdout
    try:
        return _COMMANDS[args.command](args, out)
    except CliError as exc:
        out.write(f"{exc}\n")
        return exc.code
    except BrokenPipeError:
        # The reader went away (``repro faultlist -o /dev/stdout | head``).
        # Point stdout at the null device so the flush at interpreter
        # exit has nowhere to fail, and exit 1 without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
