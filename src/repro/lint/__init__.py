"""``repro.lint`` — DTS-aware static analysis for the reproduction.

Twelve passes over the codebase, each rooted in a property the paper's
method depends on, checked here before anything runs.  Five are
per-file pattern matchers; ``yield-race`` and ``determinism`` sit on a
shared whole-program engine (:mod:`repro.lint.engine`) that models the
cooperative substrate: per-generator segment CFGs cut at ``yield``
points, module symbol tables, and delegation-aware suspension
reachability.  ``error-propagation``, ``corruption-escape``, and
``fault-reachability`` add an interprocedural tier on top
(:mod:`repro.lint.callgraph`): a whole-program call graph rooted at
the process-image registrations, with per-function dataflow summaries.
The newest tier (:mod:`repro.lint.valueflow`, family ``valueflow``)
abstractly interprets every intercepted kernel32 implementation to
compute per-parameter usage facts; the same facts power the
``dead-param`` / ``use-before-validate`` rules and the static
fault-equivalence manifest that ``repro run --prune-equivalent``
uses to collapse the campaign grid.

One lint run parses each file once, and each parsed module builds one
:class:`~repro.lint.engine.ModuleIndex` (``ParsedModule.index``) that
every tier reads: its symbol table, its import map with relative
imports resolved, and its class table.  The call graph and the
value-flow facts are built once per run, and ``--census-diff`` /
``--equiv-check`` reuse the lint pass's modules (``LintResult.modules``).

==========================  ==========================================
rule                        catches
==========================  ==========================================
``signature-conformance``   implementations / call sites that drift
                            from the 681-export registry, and calls
                            that bypass the interception layer
``unchecked-return``        discarded HANDLE/BOOL results of simulated
                            library calls (error-propagation hazard)
``error-propagation``       detected failures that die before a caller
                            can act: dropped error-signalling results,
                            must-check results used without ever being
                            examined, inert failure branches
``corruption-escape``       values tainted by injectable parameters
                            flowing unvalidated into restart-surviving
                            state (filesystem writes, the NT event
                            log, machine-rooted / module-global stores)
``fault-reachability``      fault-list entries targeting functions no
                            registered workload role can statically
                            reach — dead fault space
``handle-leak``             acquisitions never released or handed off
``sim-hang``                generator loops that never yield to the
                            discrete-event engine (delegation-aware:
                            ``yield from`` only counts if the delegate
                            can actually suspend)
``yield-race``              shared state carried across a suspension
                            point without re-validation — lost
                            updates and check-then-act races between
                            cooperatively scheduled coroutines
``determinism``             serial-vs-pool bit-identity breakers:
                            wall clock / entropy reads, process-global
                            RNG, hash-salted set iteration order,
                            iterated ``id()``-keyed containers
``fault-space``             fault-list files / inline FaultSpecs that
                            name faults the registry cannot inject
``dead-param``              intercepted-signature parameters whose
                            implementation never reads them, and
                            role-reachable helpers with never-loaded
                            formals — fault space that cannot activate
``use-before-validate``     values from nullable accessors
                            dereferenced before the null check that
                            the surrounding code performs later
==========================  ==========================================

Run via ``python -m repro lint [--format text|json|sarif] [--jobs N]
[--baseline lint-baseline.json] [--update-baseline] [--rules/--select
NAMES] [--census-diff [--census-store STORE.jsonl]] [--equiv-check
[--equiv-sample N]] [--emit-equivalence FILE] [paths...]``; exit code
0 means clean (a note is printed when findings exist but every one is
baseline-suppressed), 1 means non-baselined findings (or unexplained
census activations, or equivalence-oracle divergence), 2 means a
usage error.
"""

from .callgraph import CallGraph, callgraph_for
from .censusdiff import CensusReport, census_diff
from .core import (
    Analyzer,
    FaultListFile,
    Finding,
    LintResult,
    ParsedModule,
    Rule,
    apply_baseline,
    baseline_entry_path,
    default_rules,
    dump_baseline,
    load_baseline,
    parse_modules,
    run_lint,
)
from .engine import (
    GeneratorCFG,
    ModuleIndex,
    ProjectIndex,
    build_cfg,
    module_name_for_path,
)
from .sarif import render_sarif
from .valueflow import (
    DeadParamRule,
    EquivalenceManifest,
    UseBeforeValidateRule,
    ValueFlow,
    analyze_valueflow,
    compute_equivalence,
    equiv_check,
    valueflow_for,
)

__all__ = [
    "Analyzer",
    "CallGraph",
    "CensusReport",
    "DeadParamRule",
    "EquivalenceManifest",
    "UseBeforeValidateRule",
    "ValueFlow",
    "FaultListFile",
    "Finding",
    "GeneratorCFG",
    "LintResult",
    "ModuleIndex",
    "ParsedModule",
    "ProjectIndex",
    "Rule",
    "analyze_valueflow",
    "apply_baseline",
    "baseline_entry_path",
    "build_cfg",
    "callgraph_for",
    "census_diff",
    "compute_equivalence",
    "default_rules",
    "dump_baseline",
    "equiv_check",
    "load_baseline",
    "module_name_for_path",
    "parse_modules",
    "render_sarif",
    "run_lint",
    "valueflow_for",
]
