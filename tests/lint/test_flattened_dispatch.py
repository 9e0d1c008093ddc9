"""Lint visibility of the flattened dispatch chain.

Per-syscall dispatch is one kind of *pre-bound handler closure*
(``repro.nt.context.build_call_handler``): a generator function nested
inside a plain function, one handler per export, cached on the
signature, with per-process state read at call time — for NT and POSIX
contexts alike.  These tests pin the properties that keep that shape
inside the analyzer's field of view:

- nested handler closures are indexed, so sim-hang and yield-race
  findings inside a pre-bound handler are still reported;
- the production ``build_call_handler.call`` generator itself stays
  indexed and suspendable (the regression this file exists for), and
  it is the only dispatch generator;
- the program-side spelling ``yield from ctx.k32.Name(...)`` that the
  call-graph roots and the census oracle key on is unchanged.
"""

import ast

from repro.lint.callgraph import CallGraph
from repro.lint.engine import ModuleIndex
from repro.lint.races import YieldRaceRule
from repro.lint.simhang import SimHangRule

from .conftest import parse_project, rules_of

CONTEXT_PATH = "src/repro/nt/context.py"
POSIX_CONTEXT_PATH = "src/repro/posix/context.py"

# A miniature of the production shape: registration-time binding in a
# plain outer function, a generator handler in the closure.
HANDLER_TEMPLATE = """
    def build_call_handler(ctx, sig):
        machine = ctx.machine
        hooks = machine.interception.hooks

        def call(*sem_args):
    {body}

        call.__name__ = sig.name
        return call
"""


def _handler(body: str) -> str:
    indented = "\n".join("        " + line if line.strip() else line
                         for line in body.splitlines())
    return HANDLER_TEMPLATE.format(body=indented)


class TestSimHangInsidePreBoundHandlers:
    def test_yieldless_spin_in_handler_closure_is_caught(self, lint_source):
        findings = lint_source(_handler("""
            while machine.pending:
                hooks.scan()
            yield from machine.dispatch(sem_args)
        """), rules=[SimHangRule()])
        assert rules_of(findings) == ["sim-hang"]
        assert findings[0].symbol == "build_call_handler.call"

    def test_handler_that_delegates_to_the_impl_is_clean(self, lint_source):
        findings = lint_source(_handler("""
            while machine.pending:
                result = yield from machine.dispatch(sem_args)
                if result:
                    return result
            return 0
        """), rules=[SimHangRule()])
        assert findings == []


class TestYieldRaceInsidePreBoundHandlers:
    def test_lost_update_across_impl_suspension_is_caught(self, lint_source):
        findings = lint_source(_handler("""
            count = machine.call_count
            result = yield from machine.dispatch(sem_args)
            machine.call_count = count + 1
            return result
        """), rules=[YieldRaceRule()])
        assert "yield-race" in rules_of(findings)

    def test_re_read_after_suspension_is_clean(self, lint_source):
        findings = lint_source(_handler("""
            result = yield from machine.dispatch(sem_args)
            machine.call_count = machine.call_count + 1
            return result
        """), rules=[YieldRaceRule()])
        assert findings == []


def _index(path: str) -> ModuleIndex:
    with open(path, encoding="utf-8") as handle:
        return ModuleIndex(path, ast.parse(handle.read()))


def _generators(path: str) -> list[str]:
    return sorted(name for name, info in _index(path).functions.items()
                  if info.is_generator)


class TestProductionHandlerStaysVisible:
    def test_flattened_handler_is_indexed_as_a_generator(self):
        # If build_call_handler.call ever becomes invisible to the
        # module index (renamed, generated, exec'd...), hang/race
        # analysis of the entire syscall hot path silently vanishes.
        info = _index(CONTEXT_PATH).functions.get("build_call_handler.call")
        assert info is not None, "pre-bound handler closure not indexed"
        assert info.is_generator
        # It is the only dispatch generator: both contexts compile their
        # handlers through it and keep no per-call path of their own
        # (``compute`` is the CPU-time model, not dispatch).
        assert _generators(CONTEXT_PATH) == [
            "Win32Context.compute", "build_call_handler.call"]
        assert _generators(POSIX_CONTEXT_PATH) == ["PosixContext.compute"]
        for path in (CONTEXT_PATH, POSIX_CONTEXT_PATH):
            assert not any(name.endswith("._invoke")
                           for name in _index(path).functions), path

    def test_handler_suspension_is_modelled(self):
        index = _index(CONTEXT_PATH)
        # `result = yield from impl(frame)` inside the handler makes it
        # a suspension point for atomicity analysis.
        assert index.can_suspend(index.functions["build_call_handler.call"])


class TestProgramSideSpellingUnchanged:
    def test_k32_calls_still_reach_the_census_roots(self):
        modules = parse_project({
            "pkg/server.py": """
                class EchoServer:
                    def main(self, ctx):
                        handle = yield from ctx.k32.CreateFileA("conf", 1)
                        yield from ctx.k32.CloseHandle(handle)
            """,
            "pkg/boot.py": """
                from .server import EchoServer

                def deploy(machine):
                    machine.processes.register_image(
                        EchoServer(), role="server")
            """,
        })
        graph = CallGraph.build(modules)
        roles = graph.roles()
        assert "server" in roles
        api = graph.reachable_api(roles["server"])
        assert ("k32", "CreateFileA") in api
        assert ("k32", "CloseHandle") in api
