"""Determinism sanitizer — serial-vs-pool bit-identity, statically.

The parallel campaign backend promises results *bit-identical* to a
serial run (see ``repro.core.exec``): every run is seeded from the
fault key alone, so worker count and completion order must not be
observable.  Four things silently break that promise, and each is
statically recognisable:

**Wall clock / entropy** — ``time.time()``, ``datetime.now()``,
``os.urandom()``, ``uuid.uuid4()``: different on every run, different
in every worker.  Simulated time comes from ``engine.now``; entropy
from the seeded stream tree in :mod:`repro.sim.rng`.
(``time.monotonic``/``perf_counter`` stay legal — progress meters and
benchmarks measure the *host*, not the simulation.)

**Module-level random** — ``random.random()`` and friends share one
process-global generator: pool workers each see a different sequence,
and even serially, an unrelated consumer added anywhere shifts every
later draw.  ``random.Random()`` with no seed is the same hazard in
object form.  ``repro.sim.rng.RandomStreams`` exists precisely so each
consumer gets its own seeded stream.

**Set iteration order** — ``str`` hashes are salted per process
(PYTHONHASHSEED), so iterating a ``set`` — including set algebra like
``a & b.keys()`` — visits elements in a process-dependent order.  Fed
into event scheduling or fault ordering, that is a different campaign
per worker.  ``dict`` views are *not* flagged: insertion order is
guaranteed and our insertions are deterministic.

**id()-keyed containers** — ``id()`` values are memory addresses;
keying a container by them is fine for pure lookup (``repro.nt.memory``
interns objects that way) but iterating such a container — even via
``sorted()`` — orders by addresses that change run to run.  Flagged
only when the module both id-keys a container *and* iterates it.

Findings carry fix-it suggestions pointing at the sanctioned
replacement.  Set-typed-ness is inferred through the module index
(:mod:`repro.lint.engine`): local assignments, ``self.*`` assignments
anywhere in the class, and ``set``/``frozenset`` annotations all count.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from .core import Finding, ParsedModule, Rule, walk_in_scope
from .engine import ModuleIndex, attribute_chain, chain_text

RULE = "determinism"

# (module, attribute) pairs that read the host clock or entropy pool.
_WALLCLOCK_CALLS = {
    ("time", "time"): "engine.now (virtual time)",
    ("time", "time_ns"): "engine.now (virtual time)",
    ("os", "urandom"): "repro.sim.rng (seeded streams)",
    ("uuid", "uuid1"): "a seeded stream or a sequence number",
    ("uuid", "uuid4"): "a seeded stream or a sequence number",
}
# Methods of datetime.datetime / datetime.date that read the clock.
_DATETIME_NOW = frozenset({"now", "utcnow", "today"})
_DATETIME_CLASSES = frozenset({"datetime", "date"})

_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})
_SET_OPS = (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
# Calls that realise their argument's iteration order.
_ORDER_REALISERS = frozenset({"list", "tuple", "enumerate", "iter"})

_ID_KEY_ADDERS = frozenset({"add", "append"})


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _is_id_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "id")


def _container_key(node: ast.AST, scope: str) -> Optional[tuple]:
    """A matchable identity for a container expression.

    ``self.x`` chains match class-wide (attribute state outlives any one
    call); bare locals match only within their own function scope.
    """
    chain = attribute_chain(node)
    if chain is None:
        return None
    if len(chain) == 1:
        return ("local", scope, chain[0])
    return ("chain", chain)


class _SetTypes:
    """Infers which names / self-attributes hold sets in a module."""

    def __init__(self, index: ModuleIndex):
        self.index = index
        self.set_attrs: set[str] = set()   # self.<attr> assigned a set
        self._scan_attrs(index.tree)

    def _scan_attrs(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            value = None
            target = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target = node.target
                if self._is_set_annotation(node.annotation):
                    value = ast.Set(elts=[])  # treat as set-typed
                else:
                    value = node.value
            if target is None:
                continue
            if isinstance(target, ast.Attribute) and \
                    isinstance(target.value, ast.Name) and \
                    target.value.id == "self" and value is not None and \
                    self.is_set_expr(value, locals_env=frozenset()):
                self.set_attrs.add(target.attr)

    @staticmethod
    def _is_set_annotation(annotation: ast.AST) -> bool:
        if isinstance(annotation, ast.Name):
            return annotation.id in _SET_CONSTRUCTORS | {"Set", "FrozenSet"}
        if isinstance(annotation, ast.Subscript):
            return _SetTypes._is_set_annotation(annotation.value)
        if isinstance(annotation, ast.Constant) and \
                isinstance(annotation.value, str):
            text = annotation.value.split("[")[0].strip()
            return text in ("set", "frozenset", "Set", "FrozenSet")
        return False

    # ------------------------------------------------------------------
    def is_set_expr(self, node: ast.AST, locals_env: frozenset) -> bool:
        """Whether an expression is statically known to be a set."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name in _SET_CONSTRUCTORS:
                return True
            # d.keys() alone is ordered; inside set algebra it loses
            # that order, which the BinOp arm below captures.
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
            return (self.is_set_expr(node.left, locals_env)
                    or self.is_set_expr(node.right, locals_env))
        if isinstance(node, ast.Name):
            return node.id in locals_env
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                node.value.id == "self":
            return node.attr in self.set_attrs
        return False

    def function_set_locals(self, fn: ast.AST) -> frozenset:
        """Names assigned a set expression anywhere in the function."""
        env: set[str] = set()
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for arg in (list(fn.args.posonlyargs) + list(fn.args.args)
                        + list(fn.args.kwonlyargs)):
                if arg.annotation is not None and \
                        self._is_set_annotation(arg.annotation):
                    env.add(arg.arg)
        # Two passes so `a = set(); b = a | other` resolves.
        for _ in range(2):
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                        and isinstance(node.targets[0], ast.Name) \
                        and self.is_set_expr(node.value, frozenset(env)):
                    env.add(node.targets[0].id)
        return frozenset(env)


class DeterminismRule(Rule):
    name = RULE
    description = ("sim-facing code must not read wall clock, entropy, "
                   "global RNG state, or hash-salted iteration order")

    def check_module(self, module: ParsedModule) -> Iterable[Finding]:
        index = module.index
        findings: list[Finding] = []
        set_types = _SetTypes(index)
        findings.extend(self._check_clock_and_rng(module, index))
        findings.extend(self._check_set_iteration(module, index, set_types))
        findings.extend(self._check_id_keys(module, index))
        return findings

    # ------------------------------------------------------------------
    # Wall clock, entropy, module-level random
    # ------------------------------------------------------------------
    def _check_clock_and_rng(self, module: ParsedModule,
                             index: ModuleIndex) -> Iterable[Finding]:
        for qualname, node in self._calls_with_scope(index):
            func = node.func
            # datetime.now() / datetime.datetime.now() are class-method
            # shapes the plain import resolver cannot see through.
            if isinstance(func, ast.Attribute) and \
                    func.attr in _DATETIME_NOW and \
                    self._is_datetime_receiver(func, index):
                yield Finding(
                    RULE, module.path, node.lineno,
                    f"datetime {func.attr}() reads the host wall clock — "
                    f"serial and pooled campaign runs would diverge",
                    symbol=qualname,
                    suggestion="derive timestamps from engine.now, or "
                               "stamp results outside the simulation")
                continue
            resolved = self._resolve_call_target(func, index)
            if resolved is None:
                continue
            source_module, attr = resolved
            replacement = _WALLCLOCK_CALLS.get((source_module, attr))
            if replacement is not None:
                yield Finding(
                    RULE, module.path, node.lineno,
                    f"{source_module}.{attr}() reads the host "
                    f"wall clock/entropy pool — serial and pooled "
                    f"campaign runs would diverge",
                    symbol=qualname,
                    suggestion=f"use {replacement} instead")
            if source_module == "random":
                if attr == "Random":
                    if not node.args and not node.keywords:
                        yield Finding(
                            RULE, module.path, node.lineno,
                            "random.Random() without a seed draws its "
                            "state from the OS — every process gets a "
                            "different sequence",
                            symbol=qualname,
                            suggestion="seed it: random.Random("
                                       "repro.sim.rng.derive_seed(...))")
                elif attr not in ("SystemRandom",):
                    yield Finding(
                        RULE, module.path, node.lineno,
                        f"random.{attr}() uses the process-global "
                        f"generator — pool workers each see a different "
                        f"sequence, and any new consumer shifts every "
                        f"later draw",
                        symbol=qualname,
                        suggestion="draw from a named stream: "
                                   "repro.sim.rng.RandomStreams(seed)"
                                   ".get(name)")

    @staticmethod
    def _calls_with_scope(index: ModuleIndex):
        """Every Call node paired with its enclosing function qualname."""
        seen: set[int] = set()
        for qualname in sorted(index.functions):
            info = index.functions[qualname]
            for node in walk_in_scope(info.node):
                if isinstance(node, ast.Call) and id(node) not in seen:
                    seen.add(id(node))
                    yield qualname, node
        for node in ast.walk(index.tree):
            if isinstance(node, ast.Call) and id(node) not in seen:
                seen.add(id(node))
                yield "", node

    @staticmethod
    def _resolve_call_target(func: ast.AST,
                             index: ModuleIndex) -> Optional[tuple]:
        """``(stdlib_module, attribute)`` for a call, via the imports."""
        if isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name):
            source = index.imports.get(func.value.id)
            if source is not None:
                return source, func.attr
            origin = index.from_imports.get(func.value.id)
            if origin is not None:
                # e.g. `from datetime import datetime` -> datetime.now()
                return origin[0], func.attr
            return None
        if isinstance(func, ast.Name):
            origin = index.from_imports.get(func.id)
            if origin is not None:
                return origin[0], origin[1]
        return None

    @staticmethod
    def _is_datetime_receiver(func: ast.AST, index: ModuleIndex) -> bool:
        """``datetime.now`` / ``datetime.datetime.now`` shapes."""
        if not isinstance(func, ast.Attribute):
            return False
        receiver = func.value
        if isinstance(receiver, ast.Name):
            origin = index.from_imports.get(receiver.id)
            return origin is not None and origin[0] == "datetime" and \
                origin[1] in _DATETIME_CLASSES
        if isinstance(receiver, ast.Attribute) and \
                isinstance(receiver.value, ast.Name):
            return index.imports.get(receiver.value.id) == "datetime" and \
                receiver.attr in _DATETIME_CLASSES
        return False

    # ------------------------------------------------------------------
    # Set iteration order
    # ------------------------------------------------------------------
    def _check_set_iteration(self, module: ParsedModule, index: ModuleIndex,
                             set_types: _SetTypes) -> Iterable[Finding]:
        scopes = [("", index.tree, frozenset())]
        for qualname in sorted(index.functions):
            info = index.functions[qualname]
            scopes.append((qualname, info.node,
                           set_types.function_set_locals(info.node)))
        seen: set[int] = set()
        for qualname, scope, env in scopes:
            nodes = (walk_in_scope(scope) if qualname
                     else ast.iter_child_nodes(scope))
            for node in self._iteration_sites(nodes, seen):
                iterated, how = node
                if set_types.is_set_expr(iterated, env):
                    yield Finding(
                        RULE, module.path, iterated.lineno,
                        f"iteration over a set ({how}) follows the salted, "
                        f"process-dependent hash order — pooled workers "
                        f"would visit elements differently",
                        symbol=qualname,
                        suggestion="wrap the iterable in sorted(...), or "
                                   "keep an insertion-ordered structure "
                                   "(list / dict keys)")

    @staticmethod
    def _iteration_sites(nodes, seen: set):
        for node in nodes:
            if id(node) in seen:
                continue
            if isinstance(node, ast.For):
                seen.add(id(node.iter))
                yield node.iter, "for loop"
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for comp in node.generators:
                    if id(comp.iter) not in seen:
                        seen.add(id(comp.iter))
                        yield comp.iter, "comprehension"
            elif isinstance(node, ast.Call):
                name = _call_name(node)
                if name in _ORDER_REALISERS and len(node.args) == 1:
                    if id(node.args[0]) not in seen:
                        seen.add(id(node.args[0]))
                        yield node.args[0], f"{name}()"

    # ------------------------------------------------------------------
    # id()-keyed containers that get iterated
    # ------------------------------------------------------------------
    def _check_id_keys(self, module: ParsedModule,
                       index: ModuleIndex) -> Iterable[Finding]:
        id_keyed: set[tuple] = set()
        iterations: list[tuple] = []  # (container_key, line, qualname)
        scopes = [("", index.tree)]
        scopes.extend((qualname, index.functions[qualname].node)
                      for qualname in sorted(index.functions))
        for qualname, scope in scopes:
            nodes = (walk_in_scope(scope) if qualname
                     else ast.iter_child_nodes(scope))
            for node in nodes:
                self._collect_id_marks(node, qualname, id_keyed)
                self._collect_iterations(node, qualname, iterations)
        if not id_keyed:
            return
        # A comprehension's iterable is also walked as a plain Call
        # node, so the same site can be collected twice.
        unique = sorted(set(iterations),
                        key=lambda entry: (entry[1], entry[2]))
        for container, line, qualname in unique:
            if container in id_keyed:
                name = (container[2] if container[0] == "local"
                        else chain_text(container[1]))
                yield Finding(
                    RULE, module.path, line,
                    f"container {name!r} is keyed by id() and iterated — "
                    f"id() values are memory addresses that change run to "
                    f"run, so even sorted() output is unstable",
                    symbol=qualname,
                    suggestion="key by a stable identifier (name, "
                               "sequence number) before iterating, or "
                               "never iterate the id()-keyed view")

    @staticmethod
    def _collect_id_marks(node: ast.AST, scope: str,
                          id_keyed: set) -> None:
        if isinstance(node, ast.Subscript) and _is_id_call(node.slice):
            key = _container_key(node.value, scope)
            if key is not None:
                id_keyed.add(key)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and node.args and \
                    _is_id_call(node.args[0]) and \
                    func.attr in _ID_KEY_ADDERS | {"get", "pop",
                                                   "setdefault"}:
                key = _container_key(func.value, scope)
                if key is not None:
                    id_keyed.add(key)
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                isinstance(node.value, ast.Dict) and \
                any(key is not None and _is_id_call(key)
                    for key in node.value.keys):
            key = _container_key(node.targets[0], scope)
            if key is not None:
                id_keyed.add(key)

    @staticmethod
    def _collect_iterations(node: ast.AST, scope: str,
                            iterations: list) -> None:
        def container_of(expr: ast.AST) -> Optional[ast.AST]:
            # `x`, `x.keys()`, `x.values()`, `x.items()`, `sorted(x)`
            if isinstance(expr, ast.Call):
                func = expr.func
                if isinstance(func, ast.Attribute) and \
                        func.attr in ("keys", "values", "items"):
                    return func.value
                if _call_name(expr) in _ORDER_REALISERS | {"sorted"} and \
                        len(expr.args) >= 1:
                    return container_of(expr.args[0])
                return None
            return expr

        candidates: list[ast.AST] = []
        if isinstance(node, ast.For):
            candidates.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            candidates.extend(comp.iter for comp in node.generators)
        elif isinstance(node, ast.Call) and \
                _call_name(node) in _ORDER_REALISERS | {"sorted"} and \
                len(node.args) >= 1:
            candidates.append(node.args[0])
        for candidate in candidates:
            container = container_of(candidate)
            if container is None:
                continue
            key = _container_key(container, scope)
            if key is not None:
                iterations.append((key, candidate.lineno, scope))
