#!/usr/bin/env python
"""Lint wall-time against worker count (files/sec at 1/2/4/8).

Not a paper artifact — this measures the analyzer itself: the full
twelve-rule suite (including the whole-program race/determinism
families, the interprocedural tier, and the value-flow tier) runs over
``src`` and ``examples`` serially and through the ``--jobs`` process
pool, and every configuration is checked to produce identical findings
(the analyzer honours the same determinism contract it enforces).

It also prices the whole-program tiers: the interprocedural rule set
against the base (pre-call-graph) set, and the value-flow rule set
against the interprocedural one, best-of-N serially, each gated at
< 2x — every tier reads each file's one parse and one ``ModuleIndex``,
and the call graph and the value-flow facts are built once per run
(single-slot caches keyed by the parsed modules), so each tier's
overhead should stay a fraction of one extra per-module pass.

As a script it writes the measurements to JSON for CI trending::

    python benchmarks/bench_lint.py --smoke -o BENCH_lint.json

Under pytest it runs serial vs 2 workers once and asserts the
identical-findings contract, non-zero throughput, and the
interprocedural overhead gate.  Speedup is hardware-dependent
(per-file analysis is tens of milliseconds, so the pool's fork cost
dominates on small trees); the JSON records ``cpu_count`` so CI
numbers are read in context.
"""

import argparse
import json
import os
import time

from repro.lint import default_rules, run_lint

DEFAULT_PATHS = ["src", "examples"]
SMOKE_PATHS = [os.path.join("src", "repro", "lint"),
               os.path.join("src", "repro", "servers")]
DEFAULT_WORKERS = (1, 2, 4, 8)

# The PR-6 interprocedural tier (call graph + three rule families) may
# cost at most this factor over the base per-module/engine rule set.
INTERPROCEDURAL_RULES = frozenset(
    {"error-propagation", "corruption-escape", "fault-reachability"})
INTERPROCEDURAL_GATE = 2.0

# The value-flow tier (abstract interpretation + two rule families) may
# cost at most this factor over the interprocedural rule set.
VALUEFLOW_RULES = frozenset({"dead-param", "use-before-validate"})
VALUEFLOW_GATE = 2.0


def base_rules():
    """The pre-call-graph rule set the overhead gates compare against."""
    return [rule for rule in default_rules()
            if rule.name not in INTERPROCEDURAL_RULES
            and rule.name not in VALUEFLOW_RULES]


def interproc_rules():
    """Everything below the value-flow tier (base + interprocedural)."""
    return [rule for rule in default_rules()
            if rule.name not in VALUEFLOW_RULES]


def measure(jobs: int, paths):
    """One full lint pass at the given worker count -> (stats, result)."""
    started = time.perf_counter()
    result = run_lint(paths, rules=default_rules(), jobs=jobs)
    elapsed = time.perf_counter() - started
    stats = {"jobs": jobs, "files": result.files_checked,
             "seconds": round(elapsed, 3),
             "files_per_sec": round(result.files_checked / elapsed, 1)}
    return stats, result


def fingerprint(result) -> list:
    """Order-stable identity of a lint run's findings."""
    return [(f.rule, f.path, f.line, f.message) for f in result.findings]


def run_scaling(workers, paths) -> dict:
    """Measure every worker count and verify identical findings."""
    results = []
    reference = None
    for jobs in workers:
        stats, result = measure(jobs, paths)
        findings = fingerprint(result)
        if reference is None:
            reference = findings
        elif findings != reference:
            raise AssertionError(
                f"jobs={jobs} broke determinism: "
                f"{len(findings)} findings != {len(reference)}")
        results.append(stats)
    return {
        "benchmark": "lint-parallel-scaling",
        "paths": list(paths),
        "rules": sorted(rule.name for rule in default_rules()),
        "cpu_count": os.cpu_count(),
        "findings": len(reference),
        "results": results,
    }


def _best_of(make_rules, paths, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        run_lint(paths, rules=make_rules())
        times.append(time.perf_counter() - started)
    return min(times)


def measure_overhead(paths, repeats: int = 3) -> dict:
    """Interprocedural rule set vs the base set, best-of-``repeats``."""
    base_seconds = _best_of(base_rules, paths, repeats)
    full_seconds = _best_of(interproc_rules, paths, repeats)
    ratio = full_seconds / base_seconds
    return {
        "base_rules": sorted(rule.name for rule in base_rules()),
        "base_seconds": round(base_seconds, 3),
        "full_seconds": round(full_seconds, 3),
        "ratio": round(ratio, 2),
        "gate": INTERPROCEDURAL_GATE,
        "within_gate": ratio < INTERPROCEDURAL_GATE,
    }


def measure_valueflow_overhead(paths, repeats: int = 3) -> dict:
    """Full twelve-rule suite vs the interprocedural set,
    best-of-``repeats`` — prices the abstract-interpretation tier."""
    interproc_seconds = _best_of(interproc_rules, paths, repeats)
    full_seconds = _best_of(default_rules, paths, repeats)
    ratio = full_seconds / interproc_seconds
    return {
        "valueflow_rules": sorted(VALUEFLOW_RULES),
        "interproc_seconds": round(interproc_seconds, 3),
        "full_seconds": round(full_seconds, 3),
        "ratio": round(ratio, 2),
        "gate": VALUEFLOW_GATE,
        "within_gate": ratio < VALUEFLOW_GATE,
    }


def test_lint_scaling_smoke():
    """Pytest entry: pool findings match serial, throughput is real."""
    report = run_scaling((1, 2), SMOKE_PATHS)
    assert all(entry["files_per_sec"] > 0 for entry in report["results"])
    assert report["results"][0]["files"] == report["results"][1]["files"]


def test_interprocedural_overhead_gate():
    """Pytest entry: the call-graph tier stays under its 2x budget."""
    overhead = measure_overhead(SMOKE_PATHS)
    assert overhead["within_gate"], (
        f"interprocedural tier costs {overhead['ratio']}x the base "
        f"rule set (gate {INTERPROCEDURAL_GATE}x)")


def test_valueflow_overhead_gate():
    """Pytest entry: the value-flow tier stays under its 2x budget."""
    overhead = measure_valueflow_overhead(SMOKE_PATHS)
    assert overhead["within_gate"], (
        f"valueflow tier costs {overhead['ratio']}x the "
        f"interprocedural rule set (gate {VALUEFLOW_GATE}x)")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", default=None,
                        help="comma-separated worker counts "
                             f"(default {','.join(map(str, DEFAULT_WORKERS))})")
    parser.add_argument("--smoke", action="store_true",
                        help="lint only the lint/servers packages")
    parser.add_argument("-o", "--output", default=None, metavar="PATH",
                        help="write the measurements to this JSON file")
    args = parser.parse_args(argv)

    workers = (tuple(int(n) for n in args.workers.split(","))
               if args.workers else DEFAULT_WORKERS)
    paths = SMOKE_PATHS if args.smoke else DEFAULT_PATHS
    report = run_scaling(workers, paths)
    report["smoke"] = args.smoke
    report["interprocedural"] = measure_overhead(paths)
    report["valueflow"] = measure_valueflow_overhead(paths)

    print(f"lint scaling — {len(report['rules'])} rules over "
          f"{', '.join(report['paths'])}, {os.cpu_count()} CPU(s)")
    for entry in report["results"]:
        print(f"  jobs={entry['jobs']:<2d} {entry['files']:>4d} files in "
              f"{entry['seconds']:7.2f}s  -> {entry['files_per_sec']:8.1f} "
              f"files/s")
    overhead = report["interprocedural"]
    print(f"interprocedural tier: base {overhead['base_seconds']}s, "
          f"full {overhead['full_seconds']}s -> {overhead['ratio']}x "
          f"(gate {overhead['gate']}x)")
    valueflow = report["valueflow"]
    print(f"valueflow tier: interproc {valueflow['interproc_seconds']}s, "
          f"full {valueflow['full_seconds']}s -> {valueflow['ratio']}x "
          f"(gate {valueflow['gate']}x)")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote {args.output}")
    if not overhead["within_gate"]:
        raise SystemExit(
            f"interprocedural tier costs {overhead['ratio']}x the base "
            f"rule set, over the {overhead['gate']}x gate")
    if not valueflow["within_gate"]:
        raise SystemExit(
            f"valueflow tier costs {valueflow['ratio']}x the "
            f"interprocedural rule set, over the "
            f"{valueflow['gate']}x gate")


if __name__ == "__main__":
    main()
