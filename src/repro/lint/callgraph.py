"""The interprocedural tier: whole-program call graph + summaries.

The segment-CFG engine (:mod:`repro.lint.engine`) models *one*
generator at a time.  The paper's worst failures are invisible at that
granularity: a corrupted parameter crosses an API boundary, an error
return is checked in a helper but swallowed before any caller can act,
corrupted state escapes into data that survives a restart.  Seeing any
of those requires knowing *who calls whom* across the whole tree and
*what flows where* inside each function — which is what this module
builds:

- :class:`FunctionSummary` — one function's dataflow facts: the
  simulated library calls it makes (and whether their results are
  bound, discarded or checked), the in-project calls it makes (with
  result disposition), which names are ever *examined* (compared,
  branched on, boolean-tested), which returns signal failure, which
  values derive from corruptible API results, and which flow into
  restart-surviving sinks.
- :class:`CallGraph` — the summaries for every function of a
  :class:`~repro.lint.engine.ProjectIndex`, linked by resolved call
  edges (direct calls, ``self``/``cls`` methods, cross-module calls
  through import maps including relative imports, ``yield from``
  delegation, calls inside ``lambda`` bodies — the ``ThreadEntry`` /
  ``register_image`` factory idiom — and bound-method references
  passed as arguments).  The graph derives no names itself: each
  module's one :class:`~repro.lint.engine.ModuleIndex` owns its import
  map and its class table (class keys and ``ast.Name`` bases), and a
  lint run builds the graph once.  Roots are discovered from the
  process-image registrations the simulator itself uses: every
  ``register_image(..., role=...)`` / ``spawn(..., role=...)`` site
  names a class whose ``main`` generator is an entry point, keyed by
  the role faults are injected into.

Resolution is deliberately *conservative toward reachability*: an
unresolvable call contributes no edge (the census layer separately
cross-checks the resulting under-approximation against dynamic
evidence), while everything resolvable — however indirectly spelled —
does.  Construction is deterministic: modules and functions are
processed in sorted order, and :meth:`CallGraph.summary` produces a
canonical structure that is invariant under module discovery-order
permutation (property-tested, like the engine's index).
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional, Sequence

from .engine import ProjectIndex, attribute_chain
from .core import ParsedModule, sim_api_call, unwrap_yield

# Function key: (module dotted name, qualified function name).
FuncKey = tuple  # tuple[str, str]

# API write calls whose *data* parameter lands in restart-surviving
# storage (the simulated filesystem / a pipe another process persists).
PERSISTENT_WRITE_PARAMS = {
    ("k32", "WriteFile"): 1,
    ("k32", "WriteFileEx"): 1,
    ("k32", "_lwrite"): 1,
    ("libc", "write"): 1,
}

# Failure-test constant values: comparing a result against one of these
# is how the servers spell "did the call fail?".
_FAILURE_CONSTANTS = frozenset({0, False, None})
_INVALID_NAMES = frozenset({
    "INVALID_HANDLE_VALUE", "INVALID_FILE_SIZE", "NULL",
})


def _is_failure_constant(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        value = node.value
        return value is None or value is False or value == 0
    if isinstance(node, ast.Name):
        return node.id in _INVALID_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in _INVALID_NAMES
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return all(_is_failure_constant(elt) for elt in node.elts)
    return False


def failure_test(test: ast.AST) -> Optional[tuple[str, bool]]:
    """Classify a branch test as a failure check on one name.

    Returns ``(name, body_is_failure)`` — ``body_is_failure`` is True
    when the *body* of the branch executes on failure (``if not ok:``,
    ``if h in (0, INVALID_HANDLE_VALUE):``), False when the body is the
    success path (``if ok:``, ``if handle != 0:``).  None when the test
    is not a recognisable single-name failure check.
    """
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        inner = failure_test(test.operand)
        if inner is not None:
            return inner[0], not inner[1]
        if isinstance(test.operand, ast.Name):
            return test.operand.id, True
        return None
    if isinstance(test, ast.Name):
        return test.id, False
    if isinstance(test, ast.Compare) and len(test.ops) == 1 and \
            isinstance(test.left, ast.Name):
        name = test.left.id
        op = test.ops[0]
        right = test.comparators[0]
        if _is_failure_constant(right):
            if isinstance(op, (ast.Eq, ast.Is, ast.In)):
                return name, True
            if isinstance(op, (ast.NotEq, ast.IsNot, ast.NotIn)):
                return name, False
        elif isinstance(op, ast.NotEq) and isinstance(right, ast.Constant):
            # `if ok != 1:` — failure is "not the success constant".
            return name, True
        elif isinstance(op, ast.Eq) and isinstance(right, ast.Constant):
            return name, False
    return None


class ApiCall:
    """One simulated library call site inside a function."""

    __slots__ = ("api", "name", "line", "bound", "discarded", "arg_names")

    def __init__(self, api: str, name: str, line: int,
                 bound: tuple = (), discarded: bool = False,
                 arg_names: tuple = ()):
        self.api = api            # "k32" | "libc"
        self.name = name          # export name
        self.line = line
        self.bound = bound        # local names the result was bound to
        self.discarded = discarded
        # Per-position tuples of local names read by each argument.
        self.arg_names = arg_names

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ApiCall {self.api}.{self.name}@{self.line}>"


class CallSite:
    """One resolved in-project call inside a function."""

    __slots__ = ("callee", "line", "bound", "discarded", "arg_names",
                 "via_reference")

    def __init__(self, callee: FuncKey, line: int, bound: tuple = (),
                 discarded: bool = False, arg_names: tuple = (),
                 via_reference: bool = False):
        self.callee = callee
        self.line = line
        self.bound = bound
        self.discarded = discarded
        self.arg_names = arg_names
        # True for edges created by *referencing* a function (a bound
        # method handed to ThreadEntry / CreateThread / a registry)
        # rather than calling it: reachability follows them, but the
        # result-disposition rules must not (there is no result here).
        self.via_reference = via_reference

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CallSite {self.callee}@{self.line}>"


class ReturnInfo:
    """One ``return`` statement, classified."""

    __slots__ = ("line", "kind", "name", "failure_guarded", "names")

    def __init__(self, line: int, kind: str, name: Optional[str],
                 failure_guarded: bool, names: frozenset = frozenset()):
        self.line = line
        # "none" | "false" | "zero" | "name" | "other" | "bare"
        self.kind = kind
        self.name = name              # for kind == "name"
        self.failure_guarded = failure_guarded
        self.names = names            # every local name the value reads

    @property
    def signals_failure(self) -> bool:
        return self.kind in ("none", "false", "zero", "bare") and \
            self.failure_guarded


class SinkUse:
    """A name flowing into restart-surviving state."""

    __slots__ = ("name", "kind", "line", "detail")

    def __init__(self, name: str, kind: str, line: int, detail: str):
        self.name = name
        # "api-write" | "eventlog" | "machine-state" | "global-state"
        self.kind = kind
        self.line = line
        self.detail = detail


class RoleRegistration:
    """One ``register_image`` / ``spawn`` site binding a role to a
    program class."""

    __slots__ = ("role", "class_key", "module", "line")

    def __init__(self, role: str, class_key: FuncKey, module: str,
                 line: int):
        self.role = role
        self.class_key = class_key  # (module, "Class.main")
        self.module = module
        self.line = line


class FunctionSummary:
    """Everything the interprocedural rules need to know about one
    function, derived once from its AST."""

    __slots__ = ("key", "module_name", "qualname", "node", "class_name",
                 "param_names", "api_calls", "calls", "checked_names",
                 "api_arg_uses", "returns", "sinks", "assignments",
                 "swallowed_branches", "subscript_uses")

    def __init__(self, key: FuncKey, node: ast.AST,
                 class_name: Optional[str]):
        self.key = key
        self.module_name, self.qualname = key
        self.node = node
        self.class_name = class_name
        self.param_names: tuple = ()
        self.api_calls: list[ApiCall] = []
        self.calls: list[CallSite] = []
        # name -> first line it was examined (test / compare / boolop)
        self.checked_names: dict[str, int] = {}
        # (local name, api, export, line): name used as an API argument
        self.api_arg_uses: list[tuple] = []
        self.returns: list[ReturnInfo] = []
        self.sinks: list[SinkUse] = []
        # line-ordered (target, frozenset(rhs names), line) — the local
        # dataflow skeleton taint propagation walks.
        self.assignments: list[tuple] = []
        # (line, name) of `if <failure test on name>:` branches whose
        # failure side does nothing at all.
        self.swallowed_branches: list[tuple] = []
        # names dereferenced via subscript/attribute (use sites for the
        # unexamined-result check)
        self.subscript_uses: list[tuple] = []


# ----------------------------------------------------------------------
# Summary construction
# ----------------------------------------------------------------------
class _SummaryBuilder(ast.NodeVisitor):
    """Walks one function body (lambdas included, nested defs excluded)
    and fills its :class:`FunctionSummary`."""

    def __init__(self, summary: FunctionSummary, resolver: "_Resolver"):
        self.summary = summary
        self.resolver = resolver
        self._failure_guards: list[str] = []  # names guarding this path

    # -- scope fencing --------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested scope: summarised separately

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        # ThreadEntry(lambda: self._stats_thread(ctx)) — the body runs
        # on behalf of this function, so its calls are this function's
        # edges.
        self.visit(node.body)

    # -- statements -----------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        self._handle_assign(node.value, node.targets, node.lineno)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._handle_assign(node.value, [node.target], node.lineno)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._handle_assign(node.value, [node.target], node.lineno,
                            augmented=True)

    def _handle_assign(self, value: ast.expr, targets, line: int,
                       augmented: bool = False) -> None:
        bound = tuple(sorted(
            sub.id for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Name)))
        rhs_names = frozenset(
            sub.id for sub in ast.walk(value) if isinstance(sub, ast.Name))
        for name in bound:
            self.summary.assignments.append((name, rhs_names, line))
        inner = unwrap_yield(value)
        handled = self._record_call(inner, line, bound=bound)
        if not handled:
            self.visit(value)
        else:
            self._visit_call_args(inner)
        for target in targets:
            self._record_store(target, rhs_names, line)

    def visit_Expr(self, node: ast.Expr) -> None:
        inner = unwrap_yield(node.value)
        handled = self._record_call(inner, node.lineno, discarded=True)
        if not handled:
            self.visit(node.value)
        else:
            self._visit_call_args(inner)

    def visit_Return(self, node: ast.Return) -> None:
        guarded = bool(self._failure_guards)
        value = node.value
        if value is None:
            info = ReturnInfo(node.lineno, "bare", None, guarded)
        else:
            value = unwrap_yield(value)
            names = frozenset(sub.id for sub in ast.walk(value)
                              if isinstance(sub, ast.Name))
            if isinstance(value, ast.Constant):
                const = value.value
                if const is None:
                    kind = "none"
                elif const is False:
                    kind = "false"
                elif const == 0 and const is not True:
                    kind = "zero"
                else:
                    kind = "other"
                info = ReturnInfo(node.lineno, kind, None, guarded)
            elif isinstance(value, ast.Name):
                info = ReturnInfo(node.lineno, "name", value.id, guarded,
                                  names)
            else:
                info = ReturnInfo(node.lineno, "other", None, guarded,
                                  names)
        self.summary.returns.append(info)
        if node.value is not None:
            self.visit(node.value)

    def visit_If(self, node: ast.If) -> None:
        self._mark_checked(node.test)
        self.visit(node.test)
        verdict = failure_test(node.test)
        if verdict is None:
            for stmt in node.body + node.orelse:
                self.visit(stmt)
            return
        name, body_is_failure = verdict
        failure_side = node.body if body_is_failure else node.orelse
        success_side = node.orelse if body_is_failure else node.body
        if failure_side and _branch_is_inert(failure_side):
            self.summary.swallowed_branches.append((node.lineno, name))
        self._failure_guards.append(name)
        for stmt in failure_side:
            self.visit(stmt)
        self._failure_guards.pop()
        for stmt in success_side:
            self.visit(stmt)

    def visit_While(self, node: ast.While) -> None:
        self._mark_checked(node.test)
        self.generic_visit(node)

    def visit_Assert(self, node: ast.Assert) -> None:
        self._mark_checked(node.test)
        self.generic_visit(node)

    # -- expressions ----------------------------------------------------
    def visit_IfExp(self, node: ast.IfExp) -> None:
        self._mark_checked(node.test)
        self.generic_visit(node)

    def visit_BoolOp(self, node: ast.BoolOp) -> None:
        for operand in node.values:
            self._mark_checked(operand, deep=False)
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        self._mark_checked(node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        handled = self._record_call(node, node.lineno, discarded=False)
        if handled:
            self._visit_call_args(node)
        else:
            self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.value, ast.Name):
            self.summary.subscript_uses.append(
                (node.value.id, node.lineno))
        self.generic_visit(node)

    # -- helpers --------------------------------------------------------
    def _mark_checked(self, node: ast.AST, deep: bool = True) -> None:
        checked = self.summary.checked_names
        if isinstance(node, ast.Name):
            checked.setdefault(node.id, node.lineno)
            return
        if not deep:
            return
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                checked.setdefault(sub.id, sub.lineno)

    def _arg_name_tuple(self, call: ast.Call) -> tuple:
        names = []
        for arg in call.args:
            arg = arg.value if isinstance(arg, ast.Starred) else arg
            names.append(tuple(sorted(
                sub.id for sub in ast.walk(arg)
                if isinstance(sub, ast.Name))))
        return tuple(names)

    def _visit_call_args(self, call: ast.Call) -> None:
        for arg in call.args:
            self.visit(arg.value if isinstance(arg, ast.Starred) else arg)
        for keyword in call.keywords:
            self.visit(keyword.value)

    def _record_call(self, node: ast.AST, line: int, bound: tuple = (),
                     discarded: bool = False) -> bool:
        """Record an API call or in-project call site.  Returns True if
        ``node`` was a call this builder fully handled."""
        if not isinstance(node, ast.Call):
            return False
        matched = sim_api_call(node)
        if matched is not None:
            api, name, call = matched
            arg_names = self._arg_name_tuple(call)
            self.summary.api_calls.append(ApiCall(
                api, name, line, bound=bound, discarded=discarded,
                arg_names=arg_names))
            for position, names in enumerate(arg_names):
                for arg_name in names:
                    self.summary.api_arg_uses.append(
                        (arg_name, api, name, line))
                    sink_param = PERSISTENT_WRITE_PARAMS.get((api, name))
                    if sink_param == position:
                        self.summary.sinks.append(SinkUse(
                            arg_name, "api-write", line,
                            f"{api}.{name} data parameter"))
            self._check_function_references(call)
            return True
        self.resolver.record_registration(self.summary, node)
        if self._record_eventlog(node, line):
            return False
        callee = self.resolver.resolve(self.summary, node)
        if callee is not None:
            self.summary.calls.append(CallSite(
                callee, line, bound=bound, discarded=discarded,
                arg_names=self._arg_name_tuple(node)))
            self._check_function_references(node)
            return True
        self._check_function_references(node)
        return False

    def _record_eventlog(self, node: ast.Call, line: int) -> bool:
        """``*.eventlog.write(...)`` — the NT event log survives
        restarts; anything logged is persistent state."""
        func = node.func
        if not isinstance(func, ast.Attribute):
            return False
        receiver = func.value
        if isinstance(receiver, ast.Attribute) and \
                receiver.attr == "eventlog":
            for arg in node.args:
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Name):
                        self.summary.sinks.append(SinkUse(
                            sub.id, "eventlog", line,
                            f"eventlog.{func.attr} argument"))
            return True
        return False

    def _check_function_references(self, call: ast.Call) -> None:
        """Bound methods / functions passed *as values* — CreateThread
        entries, image factories — create reference edges."""
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            target = None
            if isinstance(arg, ast.Attribute) and \
                    isinstance(arg.value, ast.Name) and \
                    arg.value.id in ("self", "cls"):
                target = self.resolver.resolve_method(
                    self.summary, arg.attr)
            elif isinstance(arg, ast.Name):
                target = self.resolver.resolve_name(self.summary, arg.id)
            if target is not None:
                self.summary.calls.append(CallSite(
                    target, arg.lineno, via_reference=True))

    def _record_store(self, target: ast.AST, rhs_names: frozenset,
                      line: int) -> None:
        """Writes into machine-rooted or module-global state are
        restart-surviving sinks: a server process restart replaces the
        program object (``self`` dies), but the machine — filesystem,
        named objects, logs — and module globals carry over."""
        node = target.value if isinstance(target, ast.Subscript) else target
        chain = attribute_chain(node)
        if chain is None or len(chain) < (
                1 if isinstance(target, ast.Subscript) else 2):
            return
        root = chain[0]
        if root == "machine" or (root == "ctx" and "machine" in chain):
            detail = f"machine-rooted state {'.'.join(chain)}"
        elif root in self.resolver.module_globals(self.summary.module_name):
            detail = f"module-global state {'.'.join(chain)}"
        else:
            return
        for name in sorted(rhs_names):
            self.summary.sinks.append(SinkUse(
                name, "persistent-store", line, detail))


def _branch_is_inert(body: Sequence[ast.stmt]) -> bool:
    """A failure branch that neither escalates nor repairs: only
    ``pass``, docstrings or bare constants."""
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and \
                isinstance(stmt.value, ast.Constant):
            continue
        return False
    return True


# ----------------------------------------------------------------------
# Resolution across modules
# ----------------------------------------------------------------------
class _Resolver:
    """Resolves call expressions to function keys, project-wide."""

    def __init__(self, graph: "CallGraph"):
        self.graph = graph

    def module_globals(self, module_name: str) -> frozenset:
        return self.graph.project.modules[module_name].module_globals

    # ------------------------------------------------------------------
    def resolve(self, summary: FunctionSummary,
                call: ast.Call) -> Optional[FuncKey]:
        func = call.func
        module_name = summary.module_name
        if isinstance(func, ast.Name):
            return self.resolve_name(summary, func.id)
        if isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name):
            receiver = func.value.id
            if receiver in ("self", "cls"):
                return self.resolve_method(summary, func.attr)
            # A local instantiated from a known class in this function:
            # `daemon = Watchd(...); daemon.main(ctx)` — or more
            # importantly `machine.processes.spawn(daemon)`.
            class_key = self.graph.local_class(summary, receiver)
            if class_key is not None:
                return self.graph.lookup_method(class_key, func.attr)
            # Module-qualified call: `watchd_module.install(machine)`.
            index = self.graph.project.modules[module_name]
            target_module = index.imported_module(receiver)
            if target_module is not None:
                return self.graph.lookup_function(target_module, func.attr)
        return None

    def resolve_name(self, summary: FunctionSummary,
                     name: str) -> Optional[FuncKey]:
        module_name = summary.module_name
        key = self.graph.lookup_function(module_name, name)
        if key is not None:
            return key
        entry = self.graph.project.modules[module_name].from_imports.get(name)
        if entry is not None:
            target_module, symbol = entry
            resolved = self.graph.lookup_function(target_module, symbol)
            if resolved is not None:
                return resolved
            # An imported *class*: its constructor + main matter to
            # reachability only through registrations; constructor
            # edges keep __init__ state analysable.
            return self.graph.lookup_method(
                (target_module, symbol), "__init__")
        # A class defined in this module, instantiated by bare name.
        return self.graph.lookup_method((module_name, name), "__init__")

    def resolve_method(self, summary: FunctionSummary,
                       name: str) -> Optional[FuncKey]:
        if summary.class_name is None:
            return None
        return self.graph.lookup_method(
            (summary.module_name, summary.class_name), name,
            follow_bases=True)

    # ------------------------------------------------------------------
    def record_registration(self, summary: FunctionSummary,
                            call: ast.Call) -> None:
        """``register_image(name, factory, role=...)`` and
        ``spawn(program, role=...)`` bind roles to program classes."""
        func = call.func
        if not isinstance(func, ast.Attribute) or \
                func.attr not in ("register_image", "spawn"):
            return
        role = None
        for keyword in call.keywords:
            if keyword.arg == "role" and \
                    isinstance(keyword.value, ast.Constant):
                role = keyword.value.value
        if role is None:
            return
        target_arg = call.args[1] if func.attr == "register_image" \
            and len(call.args) >= 2 else (call.args[0] if call.args else None)
        class_key = self._program_class(summary, target_arg)
        if class_key is not None:
            self.graph.registrations.append(RoleRegistration(
                str(role), class_key, summary.module_name, call.lineno))

    def _program_class(self, summary: FunctionSummary,
                       node: Optional[ast.AST]) -> Optional[FuncKey]:
        """The (module, Class) behind a factory lambda, a constructor
        call, or a local bound from one."""
        if node is None:
            return None
        if isinstance(node, ast.Lambda):
            return self._program_class(summary, node.body)
        if isinstance(node, ast.Call):
            ctor = node.func
            if isinstance(ctor, ast.Name):
                return self._class_by_name(summary, ctor.id)
            if isinstance(ctor, ast.Attribute) and \
                    isinstance(ctor.value, ast.Name):
                index = self.graph.project.modules[summary.module_name]
                target_module = index.imported_module(ctor.value.id)
                if target_module is not None and \
                        self.graph.has_class((target_module, ctor.attr)):
                    return (target_module, ctor.attr)
            return None
        if isinstance(node, ast.Name):
            local = self.graph.local_class(summary, node.id)
            if local is not None:
                return local
            return self._class_by_name(summary, node.id)
        return None

    def _class_by_name(self, summary: FunctionSummary,
                       name: str) -> Optional[FuncKey]:
        module_name = summary.module_name
        if self.graph.has_class((module_name, name)):
            return (module_name, name)
        entry = self.graph.project.modules[module_name].from_imports.get(name)
        if entry is not None and self.graph.has_class(entry):
            return entry
        return None


# ----------------------------------------------------------------------
# The graph
# ----------------------------------------------------------------------
class CallGraph:
    """Summaries + resolved edges + role roots for a whole project."""

    def __init__(self, project: ProjectIndex):
        self.project = project
        self.summaries: dict[FuncKey, FunctionSummary] = {}
        self.registrations: list[RoleRegistration] = []
        self._build()

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, modules: Sequence[ParsedModule]) -> "CallGraph":
        return cls(ProjectIndex.build(modules))

    def _build(self) -> None:
        resolver = _Resolver(self)
        for module_name in sorted(self.project.modules):
            index = self.project.modules[module_name]
            for qualname in sorted(index.functions):
                info = index.functions[qualname]
                summary = FunctionSummary(
                    (module_name, qualname), info.node, info.class_name)
                summary.param_names = tuple(
                    arg.arg for arg in
                    list(info.node.args.posonlyargs)
                    + list(info.node.args.args)
                    + list(info.node.args.kwonlyargs))
                self.summaries[summary.key] = summary
        # Summaries must all exist before edges resolve (forward calls).
        for key in sorted(self.summaries):
            summary = self.summaries[key]
            builder = _SummaryBuilder(summary, resolver)
            for stmt in summary.node.body:
                builder.visit(stmt)
        self.registrations.sort(
            key=lambda reg: (reg.role, reg.module, reg.line))

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def _bases(self, class_key: FuncKey) -> Optional[tuple]:
        """The ``ast.Name`` bases of a known class, None if unknown."""
        module_name, class_name = class_key
        index = self.project.modules.get(module_name)
        return None if index is None else index.class_bases.get(class_name)

    def has_class(self, class_key: FuncKey) -> bool:
        return self._bases(class_key) is not None

    def lookup_function(self, module_name: str,
                        name: str) -> Optional[FuncKey]:
        index = self.project.modules.get(module_name)
        if index is None:
            return None
        info = index.functions.get(name)
        if info is not None and info.class_name is None:
            return (module_name, name)
        return None

    def lookup_method(self, class_key: FuncKey, method: str,
                      follow_bases: bool = False) -> Optional[FuncKey]:
        module_name, class_name = class_key
        key = (module_name, f"{class_name}.{method}")
        if key in self.summaries:
            return key
        if follow_bases:
            for base in self._bases(class_key) or ():
                resolved = self.lookup_method((module_name, base), method,
                                              follow_bases=True)
                if resolved is not None:
                    return resolved
        return None

    def local_class(self, summary: FunctionSummary,
                    local: str) -> Optional[FuncKey]:
        """Best-effort local type inference: the class whose constructor
        last bound ``local`` inside ``summary``."""
        resolver = _Resolver(self)
        result = None
        for node in ast.walk(summary.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                    isinstance(node.targets[0], ast.Name) and \
                    node.targets[0].id == local and \
                    isinstance(node.value, ast.Call):
                key = resolver._program_class(summary, node.value)
                if key is not None:
                    result = key
        return result

    # ------------------------------------------------------------------
    # Roots and reachability
    # ------------------------------------------------------------------
    def roles(self) -> dict[str, list[FuncKey]]:
        """role -> entry function keys (``Class.main``), sorted."""
        table: dict[str, list[FuncKey]] = {}
        for reg in self.registrations:
            main = self.lookup_method(reg.class_key, "main",
                                      follow_bases=True)
            if main is None:
                continue
            bucket = table.setdefault(reg.role, [])
            if main not in bucket:
                bucket.append(main)
        return {role: sorted(keys) for role, keys in sorted(table.items())}

    def root_keys(self) -> list[FuncKey]:
        """Every registered program entry point, deduplicated."""
        roots: set = set()
        for keys in self.roles().values():
            roots.update(keys)
        return sorted(roots)

    def reachable_from(self, roots: Iterable[FuncKey]) -> set:
        """Transitive closure over call edges (references included)."""
        seen: set = set()
        stack = [key for key in roots if key in self.summaries]
        while stack:
            key = stack.pop()
            if key in seen:
                continue
            seen.add(key)
            for site in self.summaries[key].calls:
                if site.callee in self.summaries and site.callee not in seen:
                    stack.append(site.callee)
        return seen

    def reachable_api(self, roots: Iterable[FuncKey]) -> set:
        """All (api, export) pairs reachable from the given roots."""
        exports: set = set()
        for key in self.reachable_from(roots):
            for api_call in self.summaries[key].api_calls:
                exports.add((api_call.api, api_call.name))
        return exports

    # ------------------------------------------------------------------
    # Derived interprocedural sets
    # ------------------------------------------------------------------
    def error_producers(self) -> dict[FuncKey, str]:
        """Functions whose return value signals failure.

        Seeds: a failure-guarded ``return None/False/0`` (the helper
        detected the error and told its caller), or returning the raw
        result of a must-check API call.  Closure: returning another
        producer's result propagates the signal one level up.

        A function whose *every* return is valueless is not a producer:
        its failure return is indistinguishable from its success return
        (the guard-clause / finding-generator early-exit idiom), so no
        caller could act on the result anyway.
        """
        producers: dict[FuncKey, str] = {}
        for key in sorted(self.summaries):
            summary = self.summaries[key]
            if not any(info.kind in ("name", "other")
                       for info in summary.returns):
                continue
            for info in summary.returns:
                if info.signals_failure:
                    spelled = {"none": "None", "false": "False",
                               "zero": "0", "bare": "None"}[info.kind]
                    producers[key] = (
                        f"returns {spelled} on a detected failure")
                    break
        changed = True
        while changed:
            changed = False
            for key in sorted(self.summaries):
                if key in producers:
                    continue
                summary = self.summaries[key]
                bound_calls = {
                    name: site.callee for site in summary.calls
                    if not site.via_reference for name in site.bound}
                for info in summary.returns:
                    if info.kind != "name" or info.name not in bound_calls:
                        continue
                    callee = bound_calls[info.name]
                    if callee in producers and \
                            info.name not in summary.checked_names:
                        producers[key] = (
                            f"passes through the failure return of "
                            f"{callee[1]}")
                        changed = True
                        break
        return producers

    def sink_params(self) -> dict[FuncKey, set]:
        """param position -> flows into a restart-surviving sink,
        computed to fixpoint across call edges."""
        table: dict[FuncKey, set] = {key: set() for key in self.summaries}
        for key in sorted(self.summaries):
            summary = self.summaries[key]
            tainted = _local_flow_closure(summary, set(summary.param_names))
            positions = {name: idx
                         for idx, name in enumerate(summary.param_names)}
            for sink in summary.sinks:
                origin = _flows_from(summary, sink.name, positions, tainted)
                table[key].update(origin)
        changed = True
        while changed:
            changed = False
            for key in sorted(self.summaries):
                summary = self.summaries[key]
                positions = {name: idx
                             for idx, name in enumerate(summary.param_names)}
                for site in summary.calls:
                    if site.via_reference or site.callee not in table:
                        continue
                    callee_sinks = table[site.callee]
                    if not callee_sinks:
                        continue
                    for arg_pos, names in enumerate(site.arg_names):
                        # map callee positional param (self-shifted)
                        callee_summary = self.summaries[site.callee]
                        shift = 1 if callee_summary.param_names[:1] in \
                            (("self",), ("cls",)) and \
                            callee_summary.class_name is not None else 0
                        if arg_pos + shift not in callee_sinks:
                            continue
                        for name in names:
                            if name in positions and \
                                    positions[name] not in table[key]:
                                table[key].add(positions[name])
                                changed = True
        return table

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Canonical, order-independent description (stability tests)."""
        roles = {role: [list(key) for key in keys]
                 for role, keys in self.roles().items()}
        functions = {}
        for key in sorted(self.summaries):
            s = self.summaries[key]
            functions["{}::{}".format(*key)] = {
                "api": sorted({(c.api, c.name) for c in s.api_calls}),
                "calls": sorted({"{}::{}".format(*site.callee)
                                 for site in s.calls}),
                "returns": [(r.line, r.kind, r.failure_guarded)
                            for r in s.returns],
            }
        return {"roles": roles, "functions": functions}


def _local_flow_closure(summary: FunctionSummary,
                        seeds: set) -> set:
    """Names transitively assigned from ``seeds`` inside one function."""
    tainted = set(seeds)
    for _ in range(2):  # two passes close simple forward+loop flows
        for target, rhs_names, _line in summary.assignments:
            if rhs_names & tainted:
                tainted.add(target)
    return tainted


def _flows_from(summary: FunctionSummary, name: str,
                positions: dict, tainted_params: set) -> set:
    """Which of the function's param positions can reach ``name``."""
    if name in positions:
        return {positions[name]}
    if name in tainted_params:
        # reached through local assignments — attribute to every param
        # that feeds it (conservative: walk assignment skeleton back)
        sources: set = set()
        frontier = {name}
        for _ in range(4):
            next_frontier: set = set()
            for target, rhs_names, _line in summary.assignments:
                if target in frontier:
                    for rhs in rhs_names:
                        if rhs in positions:
                            sources.add(positions[rhs])
                        elif rhs in tainted_params:
                            next_frontier.add(rhs)
            frontier = next_frontier
            if not frontier:
                break
        return sources
    return set()


# ----------------------------------------------------------------------
# Shared single-slot cache
# ----------------------------------------------------------------------
# The three interprocedural passes (error-propagation, corruption-
# escape, fault-reachability) run back-to-back over the same parsed
# module list; building the graph once per *run* instead of once per
# rule keeps the whole tier inside its <2x wall-time budget.  Keyed by
# tree identity so a re-parse (different run) misses.
_CACHE: list = [None, None]  # [key, graph]


def callgraph_for(modules: Sequence[ParsedModule]) -> CallGraph:
    key = tuple((module.path, id(module.tree)) for module in modules)
    if _CACHE[0] == key:
        return _CACHE[1]
    graph = CallGraph.build(modules)
    _CACHE[0] = key
    _CACHE[1] = graph
    return graph
