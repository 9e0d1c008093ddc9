"""The static-analysis framework: findings, rules, and the analyzer.

The paper's central observation is that most failures trace back to
applications and middleware mishandling the library-call boundary —
corrupted parameters accepted unchecked, error returns ignored, handles
leaked, event loops that stop yielding.  ``repro.lint`` turns the
signature registry (the same 681-export table the fault injector
enumerates) into a *static* correctness tool: every rule cross-checks
source code against the declared fault space, so drift between the two
is caught before a 3,306-fault campaign runs.

Architecture
------------
- :class:`Finding` — one diagnostic, with a line-independent ``key``
  used by the baseline mechanism.
- :class:`Rule` — a named pass.  Rules see parsed modules one at a
  time (``check_module``), the whole project at once
  (``check_project``), and non-Python fault-list files
  (``check_fault_file``).
- :class:`Analyzer` — collects files, parses each once, runs the
  rules, and applies a baseline.  Each :class:`ParsedModule` carries
  its one :class:`~repro.lint.engine.ModuleIndex`, built on first read,
  and the :class:`LintResult` carries the modules, so every tier and
  every CLI pass after the findings (census, equivalence oracle) reads
  one parse and one index per file.

The baseline file maps finding keys to allowed occurrence counts, so
deliberate hazards (the simulated servers' sloppy error handling *is*
the object of study) stay documented without silencing new instances
of the same mistake.
"""

from __future__ import annotations

import ast
import functools
import json
import os
from typing import Iterable, Iterator, Optional, Sequence

from ..core.exec import backend_for

# File extensions treated as fault-list files when scanning directories.
FAULT_LIST_SUFFIXES = (".lst", ".flt", ".faults")

_SKIP_DIR_NAMES = {"__pycache__", ".git", ".pytest_cache"}


class Finding:
    """One diagnostic produced by a rule."""

    __slots__ = ("rule", "path", "line", "message", "symbol", "suggestion")

    def __init__(self, rule: str, path: str, line: int, message: str,
                 symbol: str = "", suggestion: str = ""):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message
        self.symbol = symbol
        self.suggestion = suggestion

    @property
    def key(self) -> str:
        """Baseline key: stable across unrelated line-number drift.

        The suggestion is deliberately excluded — rewording a fix-it
        must not invalidate an existing baseline entry.
        """
        return f"{self.rule}|{self.path}|{self.symbol}|{self.message}"

    def render(self) -> str:
        where = f"{self.path}:{self.line}"
        sym = f" in {self.symbol}" if self.symbol else ""
        text = f"{where}: [{self.rule}] {self.message}{sym}"
        if self.suggestion:
            text += f"\n    fix: {self.suggestion}"
        return text

    def to_json(self) -> dict:
        payload = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
        }
        if self.suggestion:
            payload["suggestion"] = self.suggestion
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Finding {self.render()}>"


class ParsedModule:
    """One successfully parsed Python source file."""

    __slots__ = ("path", "tree", "source", "_index")

    def __init__(self, path: str, tree: ast.Module, source: str):
        self.path = path
        self.tree = tree
        self.source = source
        self._index = None

    @property
    def index(self):
        """The module's :class:`~repro.lint.engine.ModuleIndex`, built
        once on first read and shared by every tier."""
        if self._index is None:
            from .engine import ModuleIndex

            self._index = ModuleIndex(self.path, self.tree)
        return self._index

    def __reduce__(self):
        # A pool worker's index stays behind: the parent rebuilds it on
        # demand instead of unpickling every CFG and symbol table.
        return ParsedModule, (self.path, self.tree, self.source)


class FaultListFile:
    """One fault-list file picked up by the scan."""

    __slots__ = ("path", "text")

    def __init__(self, path: str, text: str):
        self.path = path
        self.text = text


class Rule:
    """Base class for one analysis pass."""

    name = ""
    description = ""
    # Rule family, selectable as a group via ``--select`` (e.g. both
    # valueflow rules answer to ``--select valueflow``).  Defaults to
    # the rule's own name, so every rule belongs to a family.
    family = ""

    def check_module(self, module: ParsedModule) -> Iterable[Finding]:
        return ()

    def check_project(self, modules: Sequence[ParsedModule]) -> Iterable[Finding]:
        return ()

    def check_fault_file(self, fault_file: FaultListFile) -> Iterable[Finding]:
        return ()


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPE_NODES = _FUNCTION_NODES + (ast.Lambda, ast.ClassDef)


def walk_in_scope(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested scopes."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(child, _SCOPE_NODES):
            stack.extend(ast.iter_child_nodes(child))


def sim_api_call(node: ast.AST) -> Optional[tuple[str, str, ast.Call]]:
    """Recognise a simulated library call site.

    Matches ``k32.Name(...)``, ``ctx.k32.Name(...)``, ``libc.name(...)``
    etc. — any call whose receiver chain ends in an attribute or name
    spelled ``k32`` or ``libc``.  Returns ``(api, function, call)``
    where ``api`` is ``"k32"`` or ``"libc"``, or None.
    """
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
        return None
    receiver = node.func.value
    if isinstance(receiver, ast.Name):
        api = receiver.id
    elif isinstance(receiver, ast.Attribute):
        api = receiver.attr
    else:
        return None
    if api not in ("k32", "libc"):
        return None
    return api, node.func.attr, node


def unwrap_yield(node: ast.AST) -> ast.AST:
    """Strip ``yield from`` / ``yield`` wrappers from an expression."""
    while isinstance(node, (ast.Yield, ast.YieldFrom)):
        if node.value is None:
            break
        node = node.value
    return node


def suggest(name: str, candidates: Iterable[str]) -> str:
    """A ``did you mean`` suffix using difflib, or empty string."""
    import difflib

    matches = difflib.get_close_matches(name, list(candidates), n=1)
    return f" (did you mean {matches[0]!r}?)" if matches else ""


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
BASELINE_VERSION = 1
DEFAULT_BASELINE = "lint-baseline.json"


def load_baseline(path: str) -> dict[str, int]:
    """Read a baseline file into a ``key -> allowed count`` map."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or data.get("version") != BASELINE_VERSION:
        raise ValueError(f"{path}: not a version-{BASELINE_VERSION} "
                         "lint baseline")
    suppress = data.get("suppress", {})
    if not isinstance(suppress, dict):
        raise ValueError(f"{path}: 'suppress' must be an object")
    for key, count in suppress.items():
        if isinstance(count, bool) or not isinstance(count, int) or \
                count < 0:
            raise ValueError(f"{path}: count of {key!r} must be a "
                             f"non-negative integer, got {count!r}")
    return dict(suppress)


def dump_baseline(findings: Iterable[Finding],
                  keep: Optional[dict[str, int]] = None) -> str:
    """Serialise the given findings as a baseline file.

    ``keep`` carries prior baseline entries to retain verbatim —
    suppressions for files outside the current run's scope.  Fresh
    findings win on key collisions, so in-scope counts always reflect
    this run.
    """
    suppress: dict[str, int] = {}
    for finding in findings:
        suppress[finding.key] = suppress.get(finding.key, 0) + 1
    for key, count in (keep or {}).items():
        suppress.setdefault(key, count)
    payload = {
        "version": BASELINE_VERSION,
        "suppress": dict(sorted(suppress.items())),
    }
    return json.dumps(payload, indent=2) + "\n"


def baseline_entry_path(key: str) -> str:
    """The file path a baseline key refers to (``rule|path|symbol|…``)."""
    parts = key.split("|", 2)
    return parts[1] if len(parts) > 1 else ""


def apply_baseline(findings: Sequence[Finding],
                   baseline: dict[str, int]) -> tuple[list[Finding], int]:
    """Split findings into (new, suppressed_count).

    Each baseline key suppresses up to its allowed count of matching
    findings; occurrences beyond the count are reported, so a baseline
    enforces "no *new* instances" rather than blanket silence.
    """
    remaining = dict(baseline)
    fresh: list[Finding] = []
    suppressed = 0
    for finding in findings:
        allowed = remaining.get(finding.key, 0)
        if allowed > 0:
            remaining[finding.key] = allowed - 1
            suppressed += 1
        else:
            fresh.append(finding)
    return fresh, suppressed


# ----------------------------------------------------------------------
# Analyzer
# ----------------------------------------------------------------------
def _lint_file(rules: Sequence[Rule], task: tuple) -> tuple:
    """Parse and per-file-check one ``(path, display)`` task.

    Module-level so a process pool can pickle it; returns the parsed
    module (``None`` on a syntax error — the parent still needs the
    modules for project rules) and the findings from every
    ``check_module`` pass.
    """
    path, display = task
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return None, [Finding("parse-error", display, exc.lineno or 1,
                              f"syntax error: {exc.msg}")]
    module = ParsedModule(display, tree, source)
    return module, [finding for rule in rules
                    for finding in rule.check_module(module)]


def _lint_files(tasks: Sequence[tuple], rules: Sequence[Rule],
                jobs: int = 1) -> tuple:
    """:func:`_lint_file` over a batch on ``jobs`` workers.

    Returns the parsed modules and the ``check_module`` findings in
    file order, so the output is bit-identical to a serial run.
    """
    with backend_for(jobs) as backend:
        per_file = backend.map(functools.partial(_lint_file, rules), tasks)
    modules = [module for module, _ in per_file if module is not None]
    return modules, [finding for _, found in per_file for finding in found]


class LintResult:
    """Outcome of one analyzer run."""

    __slots__ = ("findings", "suppressed", "files_checked",
                 "checked_paths", "modules")

    def __init__(self, findings: list[Finding], suppressed: int,
                 files_checked: int,
                 checked_paths: frozenset = frozenset(),
                 modules: Sequence[ParsedModule] = ()):
        self.findings = findings
        self.suppressed = suppressed
        self.files_checked = files_checked
        # Display paths this run actually analysed — baseline
        # regeneration uses them to tell "file fixed" (in scope, no
        # findings) from "file out of scope" (entry kept).
        self.checked_paths = checked_paths
        # The parsed modules the rules read, for the passes that run
        # after the findings (census, equivalence oracle).
        self.modules = modules

    @property
    def clean(self) -> bool:
        return not self.findings

    def render_text(self) -> str:
        lines = [finding.render() for finding in self.findings]
        lines.append(
            f"{len(self.findings)} finding(s), {self.suppressed} baselined, "
            f"{self.files_checked} file(s) checked")
        if self.clean and self.suppressed:
            lines.append("note: baseline-suppressed findings only — "
                         "no new findings")
        return "\n".join(lines)

    def render_json(self) -> str:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return json.dumps({
            "findings": [finding.to_json() for finding in self.findings],
            "suppressed": self.suppressed,
            "files_checked": self.files_checked,
            "counts": counts,
        }, indent=2)


class Analyzer:
    """Collect files, run rules, apply the baseline."""

    def __init__(self, rules: Sequence[Rule],
                 baseline: Optional[dict[str, int]] = None):
        self.rules = list(rules)
        self.baseline = baseline or {}

    # ------------------------------------------------------------------
    def collect(self, paths: Sequence[str]) -> tuple[list[str], list[str]]:
        """Expand paths into (python_files, fault_list_files)."""
        py_files: list[str] = []
        fault_files: list[str] = []
        for path in paths:
            if os.path.isdir(path):
                for dirpath, dirnames, filenames in os.walk(path):
                    dirnames[:] = sorted(
                        d for d in dirnames
                        if d not in _SKIP_DIR_NAMES
                        and not d.endswith(".egg-info"))
                    for filename in sorted(filenames):
                        full = os.path.join(dirpath, filename)
                        if filename.endswith(".py"):
                            py_files.append(full)
                        elif filename.endswith(FAULT_LIST_SUFFIXES):
                            fault_files.append(full)
            elif os.path.isfile(path):
                if path.endswith(FAULT_LIST_SUFFIXES):
                    fault_files.append(path)
                else:
                    py_files.append(path)
            else:
                raise FileNotFoundError(path)
        return py_files, fault_files

    @staticmethod
    def _display_path(path: str) -> str:
        relative = os.path.relpath(path)
        if not relative.startswith(".."):
            path = relative
        return path.replace(os.sep, "/")

    # ------------------------------------------------------------------
    def run(self, paths: Sequence[str], jobs: int = 1) -> LintResult:
        py_files, fault_files = self.collect(paths)
        tasks = [(path, self._display_path(path)) for path in py_files]
        modules, findings = _lint_files(tasks, self.rules, jobs)

        for rule in self.rules:
            findings.extend(rule.check_project(modules))
        for path in fault_files:
            display = self._display_path(path)
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
            fault_file = FaultListFile(display, text)
            for rule in self.rules:
                findings.extend(rule.check_fault_file(fault_file))

        findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
        fresh, suppressed = apply_baseline(findings, self.baseline)
        checked = frozenset(display for _path, display in tasks) | \
            frozenset(self._display_path(path) for path in fault_files)
        return LintResult(fresh, suppressed,
                          len(py_files) + len(fault_files),
                          checked_paths=checked, modules=modules)


def parse_modules(paths: Sequence[str]) -> list:
    """Every Python module under ``paths``, parsed with no rule run —
    the input of ``--emit-equivalence``, which reads the module set
    rather than the findings."""
    analyzer = Analyzer([])
    py_files, _fault_files = analyzer.collect(paths)
    tasks = [(path, analyzer._display_path(path)) for path in py_files]
    modules, _parse_findings = _lint_files(tasks, [])
    return modules


def default_rules() -> list[Rule]:
    """The twelve passes of the suite, in reporting order."""
    from .conformance import SignatureConformanceRule
    from .determinism import DeterminismRule
    from .escape import CorruptionEscapeRule
    from .faultspace import FaultSpaceRule
    from .handles import HandleLeakRule
    from .censusdiff import FaultReachabilityRule
    from .propagation import ErrorPropagationRule
    from .races import YieldRaceRule
    from .returns import UncheckedReturnRule
    from .simhang import SimHangRule
    from .valueflow import DeadParamRule, UseBeforeValidateRule

    return [
        SignatureConformanceRule(),
        UncheckedReturnRule(),
        ErrorPropagationRule(),
        CorruptionEscapeRule(),
        HandleLeakRule(),
        SimHangRule(),
        YieldRaceRule(),
        DeterminismRule(),
        DeadParamRule(),
        UseBeforeValidateRule(),
        FaultSpaceRule(),
        FaultReachabilityRule(),
    ]


def run_lint(paths: Sequence[str],
             rules: Optional[Sequence[Rule]] = None,
             baseline: Optional[dict[str, int]] = None,
             jobs: int = 1) -> LintResult:
    """Convenience entry point used by the CLI and tests."""
    analyzer = Analyzer(rules if rules is not None else default_rules(),
                        baseline)
    return analyzer.run(paths, jobs=jobs)
