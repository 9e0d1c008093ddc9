"""The whole-program analysis engine under the two-tier linter.

The five original passes are per-file pattern matchers: each looks at
one AST and needs no memory of the rest of the tree.  The race and
determinism families (:mod:`repro.lint.races`,
:mod:`repro.lint.determinism`) need more — *where a generator can be
suspended*, *which state is shared between interleaved coroutines*, and
*what a name resolves to* — so this module builds the three indexes
they (and any adopting rule) share:

- :class:`ModuleIndex` — one module's symbol table: top-level
  bindings, the import map (relative from-imports resolved against the
  module's dotted name), the class table with each class's ``ast.Name``
  bases, every function with its dotted qualname and owning class, and
  whether a delegation target can actually suspend
  (:meth:`ModuleIndex.can_suspend` follows ``yield from`` chains).
  A lint run builds exactly one per parsed module
  (:attr:`~repro.lint.core.ParsedModule.index`), and every tier — the
  per-file rules, the call graph, the census — reads that one.
- :class:`GeneratorCFG` — one generator function sliced into
  *segments*: maximal regions that execute atomically between two
  suspension points (``yield`` / ``yield from``).  Each shared-state
  access is recorded with the segment it falls in, so "does this value
  survive a suspension" becomes integer comparison.
- :class:`ProjectIndex` — the module indexes for a whole tree, keyed
  by dotted module name, with a canonical :meth:`ProjectIndex.summary`
  for stability checks.

The CFG is deliberately an *abstraction*, not an interpreter: control
flow is over-approximated (both branches of an ``if`` are walked, loop
bodies are walked once, exception edges are ignored).  That errs toward
reporting — exactly right for the atomicity property, where a hazard on
any path is a hazard.

Everything here is derived from the AST alone; building an index twice
over the same tree yields identical structures, which the determinism
sanitizer's own test suite asserts (the analyzer must hold itself to
the invariant it enforces).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Sequence

from .core import _FUNCTION_NODES, walk_in_scope

# Receiver roots considered *shared* between interleaved coroutines: the
# instance a server/middleware method runs on, and everything reachable
# from the per-process context / machine singletons.
SHARED_ROOTS = frozenset({"self", "cls", "ctx", "machine"})

# Method names that mutate their receiver in place.
MUTATORS = frozenset({
    "append", "add", "remove", "discard", "pop", "popitem", "clear",
    "extend", "insert", "update", "setdefault", "sort", "reverse",
})

Chain = tuple  # tuple[str, ...]: ("self", "count") or ("COUNTER",)


def chain_text(chain: Chain) -> str:
    return ".".join(chain)


def attribute_chain(node: ast.AST) -> Optional[Chain]:
    """``self.a.b`` -> ("self", "a", "b"); None for non-chain shapes."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return tuple(reversed(parts))


class SuspensionPoint:
    """One place a generator hands control back to the event engine."""

    __slots__ = ("line", "kind", "node")

    def __init__(self, line: int, kind: str, node: ast.AST):
        self.line = line
        self.kind = kind  # "yield" | "yield-from"
        self.node = node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SuspensionPoint {self.kind}@{self.line}>"


class Access:
    """One read/write/mutation of a shared location.

    ``segment`` is the index of the atomic region the access falls in;
    two accesses with equal segments cannot be separated by a
    suspension.  ``in_test`` marks reads that occur inside an ``if`` /
    ``while`` condition (the *check* half of check-then-act).  Writes
    produced by ``x = expr`` carry the locals and shared chains the
    right-hand side read, so dataflow questions ("does this write use a
    value captured before the yield?") stay cheap.
    """

    __slots__ = ("chain", "kind", "line", "segment", "in_test",
                 "rhs_locals", "rhs_chains", "cross_aug")

    def __init__(self, chain: Chain, kind: str, line: int, segment: int,
                 in_test: bool = False,
                 rhs_locals: frozenset = frozenset(),
                 rhs_chains: frozenset = frozenset(),
                 cross_aug: bool = False):
        self.chain = chain
        self.kind = kind  # "read" | "write" | "mutate"
        self.line = line
        self.segment = segment
        self.in_test = in_test
        self.rhs_locals = rhs_locals
        self.rhs_chains = rhs_chains
        self.cross_aug = cross_aug

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Access {self.kind} {chain_text(self.chain)} "
                f"seg={self.segment} line={self.line}>")


class Capture:
    """A local name bound (in part) from a shared location's value."""

    __slots__ = ("local", "chain", "line", "segment")

    def __init__(self, local: str, chain: Chain, line: int, segment: int):
        self.local = local
        self.chain = chain
        self.line = line
        self.segment = segment


class Branch:
    """An ``if``/``while`` whose test read shared state.

    ``access_range`` is the slice of the CFG's access list covering the
    branch body, so a rule can ask "was the checked location written
    inside the branch, after a suspension?" without re-walking the AST.
    """

    __slots__ = ("kind", "line", "test_chains", "test_segment",
                 "access_range", "suspends")

    def __init__(self, kind: str, line: int, test_chains: frozenset,
                 test_segment: int, access_range: tuple,
                 suspends: bool):
        self.kind = kind  # "if" | "while"
        self.line = line
        self.test_chains = test_chains
        self.test_segment = test_segment
        self.access_range = access_range
        self.suspends = suspends


class GeneratorCFG:
    """One generator function, sliced at its suspension points."""

    __slots__ = ("qualname", "node", "suspensions", "accesses",
                 "captures", "branches", "segment_count")

    def __init__(self, qualname: str, node: ast.AST):
        self.qualname = qualname
        self.node = node
        self.suspensions: list[SuspensionPoint] = []
        self.accesses: list[Access] = []
        self.captures: list[Capture] = []
        self.branches: list[Branch] = []
        self.segment_count = 1

    def summary(self) -> dict:
        """Canonical, comparison-friendly description of the CFG."""
        return {
            "segments": self.segment_count,
            "suspensions": [(s.line, s.kind) for s in self.suspensions],
            "accesses": [(a.segment, a.kind, chain_text(a.chain), a.line)
                         for a in self.accesses],
        }


class _CfgBuilder:
    """Walks a function body in approximate execution order.

    The segment counter bumps at every suspension point encountered;
    expression subtrees are visited in evaluation order (operands before
    the ``yield`` they feed, assigned values before their targets), so
    an access's segment matches where it really executes relative to
    each suspension.
    """

    def __init__(self, cfg: GeneratorCFG, module_globals: frozenset,
                 fn: ast.AST):
        self.cfg = cfg
        self.module_globals = module_globals
        self.locals = self._function_locals(fn)
        self.global_decls = {
            name for node in ast.walk(fn) if isinstance(node, ast.Global)
            for name in node.names}
        self.segment = 0
        self.in_test = False

    # ------------------------------------------------------------------
    @staticmethod
    def _function_locals(fn: ast.AST) -> set:
        names = {arg.arg for arg in
                 list(fn.args.posonlyargs) + list(fn.args.args)
                 + list(fn.args.kwonlyargs)}
        for extra in (fn.args.vararg, fn.args.kwarg):
            if extra is not None:
                names.add(extra.arg)
        globals_declared = {
            name for node in ast.walk(fn) if isinstance(node, ast.Global)
            for name in node.names}
        for node in ast.walk(fn):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign,
                                 ast.For, ast.NamedExpr)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Name):
                            names.add(sub.id)
        return names - globals_declared

    # ------------------------------------------------------------------
    # Shared-location classification
    # ------------------------------------------------------------------
    def _shared_chain(self, node: ast.AST) -> Optional[Chain]:
        if isinstance(node, ast.Attribute):
            chain = attribute_chain(node)
            if chain is not None and chain[0] in SHARED_ROOTS:
                return chain
            return None
        if isinstance(node, ast.Name):
            name = node.id
            if name in self.global_decls or (
                    name in self.module_globals and name not in self.locals):
                return (name,)
        return None

    def _record(self, chain: Chain, kind: str, line: int, **kw) -> None:
        self.cfg.accesses.append(Access(chain, kind, line, self.segment,
                                        in_test=self.in_test, **kw))

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def visit_body(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self.visit_stmt(stmt)

    def visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Expr):
            self.visit_expr(stmt.value)
        elif isinstance(stmt, ast.Assign):
            self._visit_assign(stmt.value, stmt.targets, stmt.lineno)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._visit_assign(stmt.value, [stmt.target], stmt.lineno)
        elif isinstance(stmt, ast.AugAssign):
            self._visit_aug_assign(stmt)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._visit_branch(stmt)
        elif isinstance(stmt, ast.For):
            self.visit_expr(stmt.iter)
            self._visit_target(stmt.target, stmt.lineno,
                               rhs_locals=frozenset(),
                               rhs_chains=frozenset())
            self.visit_body(stmt.body)
            self.visit_body(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            self.visit_body(stmt.body)
            for handler in stmt.handlers:
                self.visit_body(handler.body)
            self.visit_body(stmt.orelse)
            self.visit_body(stmt.finalbody)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self.visit_expr(item.context_expr)
                if item.optional_vars is not None:
                    self._visit_target(item.optional_vars, stmt.lineno,
                                       rhs_locals=frozenset(),
                                       rhs_chains=frozenset())
            self.visit_body(stmt.body)
        elif isinstance(stmt, (ast.Return, ast.Raise)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.visit_expr(child)
        elif isinstance(stmt, ast.Assert):
            self.visit_expr(stmt.test)
            if stmt.msg is not None:
                self.visit_expr(stmt.msg)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                chain = self._shared_chain(target)
                if chain is not None:
                    self._record(chain, "write", stmt.lineno)
        elif isinstance(stmt, _FUNCTION_NODES + (ast.ClassDef,)):
            pass  # nested scope: analysed as its own CFG
        # Pass/Break/Continue/Import/Global/Nonlocal: nothing to record.

    # ------------------------------------------------------------------
    def _rhs_reads(self, value: ast.expr) -> tuple:
        """Locals and shared chains read by an expression."""
        locals_read, chains_read = set(), set()
        for node in ast.walk(value):
            if isinstance(node, ast.Name) and node.id in self.locals:
                locals_read.add(node.id)
            chain = self._shared_chain(node)
            if chain is not None:
                chains_read.add(chain)
        return frozenset(locals_read), frozenset(chains_read)

    def _visit_assign(self, value: ast.expr, targets, lineno: int) -> None:
        rhs_locals, rhs_chains = self._rhs_reads(value)
        value_segment = self.segment
        self.visit_expr(value)
        for target in targets:
            self._visit_target(target, lineno, rhs_locals=rhs_locals,
                               rhs_chains=rhs_chains)
        # Locals bound (even via tuple unpacking) from a shared read are
        # captures: the value may be stale after the next suspension.
        if rhs_chains:
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and sub.id in self.locals:
                        for chain in rhs_chains:
                            self.cfg.captures.append(Capture(
                                sub.id, chain, lineno, value_segment))

    def _visit_aug_assign(self, stmt: ast.AugAssign) -> None:
        chain = self._shared_chain(stmt.target)
        read_segment = self.segment
        if chain is not None:
            self._record(chain, "read", stmt.lineno)
        rhs_locals, rhs_chains = self._rhs_reads(stmt.value)
        self.visit_expr(stmt.value)
        if chain is not None:
            self._record(chain, "write", stmt.lineno,
                         rhs_locals=rhs_locals,
                         rhs_chains=rhs_chains | {chain},
                         cross_aug=self.segment != read_segment)
        elif isinstance(stmt.target, ast.Subscript):
            base = self._shared_chain(stmt.target.value)
            if base is not None:
                self._record(base, "mutate", stmt.lineno)

    def _visit_target(self, target: ast.AST, lineno: int, *,
                      rhs_locals: frozenset, rhs_chains: frozenset) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._visit_target(element, lineno, rhs_locals=rhs_locals,
                                   rhs_chains=rhs_chains)
        elif isinstance(target, ast.Starred):
            self._visit_target(target.value, lineno, rhs_locals=rhs_locals,
                               rhs_chains=rhs_chains)
        elif isinstance(target, ast.Subscript):
            base = self._shared_chain(target.value)
            if base is not None:
                self._record(base, "mutate", lineno, rhs_locals=rhs_locals,
                             rhs_chains=rhs_chains)
            self.visit_expr(target.slice)
        else:
            chain = self._shared_chain(target)
            if chain is not None:
                self._record(chain, "write", lineno, rhs_locals=rhs_locals,
                             rhs_chains=rhs_chains)

    # ------------------------------------------------------------------
    def _visit_branch(self, stmt) -> None:
        kind = "if" if isinstance(stmt, ast.If) else "while"
        test_segment = self.segment
        before = len(self.cfg.accesses)
        self.in_test = True
        self.visit_expr(stmt.test)
        self.in_test = False
        test_chains = frozenset(
            access.chain for access in self.cfg.accesses[before:]
            if access.kind == "read")
        body_start = len(self.cfg.accesses)
        segment_before_body = self.segment
        self.visit_body(stmt.body)
        self.visit_body(stmt.orelse)
        if test_chains:
            self.cfg.branches.append(Branch(
                kind, stmt.lineno, test_chains, test_segment,
                (body_start, len(self.cfg.accesses)),
                suspends=self.segment != segment_before_body))

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def visit_expr(self, node: ast.expr) -> None:
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if node.value is not None:
                self.visit_expr(node.value)
            kind = "yield" if isinstance(node, ast.Yield) else "yield-from"
            self.cfg.suspensions.append(
                SuspensionPoint(node.lineno, kind, node))
            self.segment += 1
            self.cfg.segment_count = self.segment + 1
            return
        if isinstance(node, ast.Attribute):
            chain = self._shared_chain(node)
            if chain is not None:
                self._record(chain, "read", node.lineno)
                return
            self.visit_expr(node.value)
            return
        if isinstance(node, ast.Subscript):
            base = self._shared_chain(node.value)
            if base is not None:
                self._record(base, "read", node.lineno)
            else:
                self.visit_expr(node.value)
            self.visit_expr(node.slice)
            return
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in MUTATORS:
                base = self._shared_chain(func.value)
                if base is not None:
                    self._record(base, "mutate", node.lineno)
                else:
                    self.visit_expr(func.value)
            else:
                self.visit_expr(func)
            for arg in node.args:
                self.visit_expr(arg if not isinstance(arg, ast.Starred)
                                else arg.value)
            for keyword in node.keywords:
                self.visit_expr(keyword.value)
            return
        if isinstance(node, ast.Name):
            chain = self._shared_chain(node)
            if chain is not None:
                self._record(chain, "read", node.lineno)
            return
        if isinstance(node, ast.Lambda):
            return  # separate scope
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            # Only the first iterable evaluates in this scope.
            if node.generators:
                self.visit_expr(node.generators[0].iter)
            return
        if isinstance(node, ast.NamedExpr):
            self.visit_expr(node.value)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.visit_expr(child)


def build_cfg(qualname: str, fn: ast.AST,
              module_globals: frozenset) -> GeneratorCFG:
    """Build the segment CFG for one (generator) function."""
    cfg = GeneratorCFG(qualname, fn)
    builder = _CfgBuilder(cfg, module_globals, fn)
    builder.visit_body(fn.body)
    return cfg


# ----------------------------------------------------------------------
# Module-level symbol table
# ----------------------------------------------------------------------
class FunctionInfo:
    """One function definition with its resolution context."""

    __slots__ = ("qualname", "node", "class_name", "is_generator")

    def __init__(self, qualname: str, node: ast.AST,
                 class_name: Optional[str], is_generator: bool):
        self.qualname = qualname
        self.node = node
        self.class_name = class_name
        self.is_generator = is_generator


class ModuleIndex:
    """Symbol table and generator CFGs for one parsed module."""

    def __init__(self, path: str, tree: ast.Module):
        self.path = path
        self.tree = tree
        self.name = module_name_for_path(path)
        self.module_globals = frozenset(self._top_level_names(tree))
        self.imports: dict[str, str] = {}          # alias -> module
        # alias -> (module, name), relative from-imports resolved
        self.from_imports: dict[str, tuple] = {}
        # class qualname -> its ``ast.Name`` bases, for the top-level
        # classes and the classes nested directly in them
        self.class_bases: dict[str, tuple] = {}
        # Every def in source order, duplicates included (a property's
        # getter and setter share a qualname); ``functions`` keeps the
        # last def of each qualname.
        self.defs: list[FunctionInfo] = []
        self.functions: dict[str, FunctionInfo] = {}
        self._methods: dict[tuple, FunctionInfo] = {}
        self._cfgs: dict[str, GeneratorCFG] = {}
        self._suspend_memo: dict[str, Optional[bool]] = {}
        self._collect_imports(tree)
        self._collect_classes(tree, prefix="")
        self._collect_functions(tree, prefix="", class_name=None)

    # ------------------------------------------------------------------
    @staticmethod
    def _top_level_names(tree: ast.Module) -> Iterator[str]:
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Name):
                            yield sub.id
            elif isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name):
                yield stmt.target.id

    def _collect_imports(self, tree: ast.Module) -> None:
        is_package = self.path.replace("\\", "/").endswith("__init__.py")
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports[alias.asname or alias.name.split(".")[0]] \
                        = alias.name
            elif isinstance(node, ast.ImportFrom):
                module = node.module if not node.level else resolve_relative(
                    self.name, node.level, node.module, is_package)
                if not module:
                    continue
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = \
                        (module, alias.name)

    def _collect_classes(self, node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                qualname = f"{prefix}{child.name}"
                self.class_bases[qualname] = tuple(
                    base.id for base in child.bases
                    if isinstance(base, ast.Name))
                self._collect_classes(child, f"{qualname}.")

    def _collect_functions(self, node: ast.AST, prefix: str,
                           class_name: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNCTION_NODES):
                qualname = f"{prefix}{child.name}"
                is_gen = not isinstance(child, ast.AsyncFunctionDef) and any(
                    isinstance(sub, (ast.Yield, ast.YieldFrom))
                    for sub in walk_in_scope(child))
                info = FunctionInfo(qualname, child, class_name, is_gen)
                self.defs.append(info)
                self.functions[qualname] = info
                if class_name is not None:
                    self._methods.setdefault((class_name, child.name), info)
                self._collect_functions(child, f"{qualname}.", class_name)
            elif isinstance(child, ast.ClassDef):
                self._collect_functions(child, f"{prefix}{child.name}.",
                                        child.name)
            else:
                self._collect_functions(child, prefix, class_name)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def function(self, name: str) -> Optional[FunctionInfo]:
        """A module-level function by bare name."""
        info = self.functions.get(name)
        if info is not None and info.class_name is None:
            return info
        return None

    def imported_module(self, name: str) -> Optional[str]:
        """The dotted module an alias names, or None.  A from-import
        can bind a module too: ``from ..middleware import watchd``."""
        target = self.imports.get(name)
        if target is not None:
            return target
        entry = self.from_imports.get(name)
        return ".".join(entry) if entry is not None else None

    def method(self, class_name: Optional[str],
               name: str) -> Optional[FunctionInfo]:
        if class_name is None:
            return None
        return self._methods.get((class_name, name))

    def resolve_call(self, call: ast.Call,
                     class_name: Optional[str]) -> Optional[FunctionInfo]:
        """The in-module target of a call, or None when unresolvable."""
        func = call.func
        if isinstance(func, ast.Name):
            return self.function(func.id)
        if isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name) and \
                func.value.id in ("self", "cls"):
            return self.method(class_name, func.attr)
        return None

    # ------------------------------------------------------------------
    # CFGs
    # ------------------------------------------------------------------
    def cfg(self, qualname: str) -> Optional[GeneratorCFG]:
        """The segment CFG of a generator function (built on demand)."""
        info = self.functions.get(qualname)
        if info is None or not info.is_generator:
            return None
        cached = self._cfgs.get(qualname)
        if cached is None:
            cached = build_cfg(qualname, info.node, self.module_globals)
            self._cfgs[qualname] = cached
        return cached

    def generators(self) -> Iterator[FunctionInfo]:
        for qualname in sorted(self.functions):
            info = self.functions[qualname]
            if info.is_generator:
                yield info

    # ------------------------------------------------------------------
    # Suspension reachability (for yield-from delegation)
    # ------------------------------------------------------------------
    def can_suspend(self, info: FunctionInfo) -> bool:
        """Whether a generator can ever hand control to the engine.

        A generator that only ever delegates to empty iterables (or to
        other such generators) runs start-to-finish without suspending:
        ``yield from`` over it is *not* progress for the event loop.
        Cycles with no bare ``yield`` anywhere cannot suspend either.
        """
        return bool(self._can_suspend(info.qualname))

    def _can_suspend(self, qualname: str) -> Optional[bool]:
        memo = self._suspend_memo
        if qualname in memo:
            return memo[qualname]  # None marks "in progress" (a cycle)
        memo[qualname] = None
        info = self.functions[qualname]
        result = False
        for node in walk_in_scope(info.node):
            if isinstance(node, ast.Yield):
                result = True
                break
            if isinstance(node, ast.YieldFrom) and \
                    self.yield_from_suspends(node, info.class_name):
                result = True
                break
        memo[qualname] = result
        return result

    def yield_from_suspends(self, node: ast.YieldFrom,
                            class_name: Optional[str]) -> bool:
        """Whether one ``yield from`` can actually suspend the caller."""
        operand = node.value
        if isinstance(operand, (ast.Tuple, ast.List, ast.Set)):
            return bool(operand.elts)  # empty literal: nothing yielded
        if isinstance(operand, ast.Call):
            target = self.resolve_call(operand, class_name)
            if target is None:
                return True  # out-of-module target: assume it suspends
            if not target.is_generator:
                return True  # plain call returning an iterable: unknown
            verdict = self._can_suspend(target.qualname)
            return bool(verdict)  # in-progress cycle counts as "cannot"
        return True  # a name/attribute: contents unknowable


# ----------------------------------------------------------------------
# Project-wide index
# ----------------------------------------------------------------------
def module_name_for_path(path: str) -> str:
    """``src/repro/sim/engine.py`` -> ``repro.sim.engine``."""
    parts = path.replace("\\", "/").split("/")
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    return ".".join(parts) if parts else path


def resolve_relative(module_name: str, level: int,
                     target: Optional[str], is_package: bool) -> Optional[str]:
    """``from ..net.http import X`` inside ``repro.servers.apache`` ->
    ``repro.net.http``."""
    parts = module_name.split(".")
    if not is_package:
        parts = parts[:-1]
    drop = level - 1
    if drop > len(parts):
        return None
    base = parts[:len(parts) - drop] if drop else parts
    if target:
        base = base + target.split(".")
    return ".".join(base) if base else None


class ProjectIndex:
    """Module indexes for a whole tree, keyed by dotted module name."""

    def __init__(self):
        self.modules: dict[str, ModuleIndex] = {}

    @classmethod
    def build(cls, modules: Sequence) -> "ProjectIndex":
        """Gather the index of every :class:`~repro.lint.core.ParsedModule`
        given (each module builds its own once)."""
        index = cls()
        for module in modules:
            index.modules[module.index.name] = module.index
        return index

    def summary(self) -> dict:
        """Canonical nested-dict form, for stability comparisons."""
        out: dict = {}
        for name in sorted(self.modules):
            module = self.modules[name]
            generators = {}
            for info in module.generators():
                cfg = module.cfg(info.qualname)
                generators[info.qualname] = cfg.summary()
            out[name] = {
                "path": module.path,
                "globals": sorted(module.module_globals),
                "functions": sorted(module.functions),
                "generators": generators,
            }
        return out
