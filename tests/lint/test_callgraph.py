"""The interprocedural call graph: edges, roots, summaries, stability."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint.callgraph import (
    CallGraph,
    callgraph_for,
    failure_test,
)
from repro.lint.escape import CorruptionEscapeRule
from repro.lint.propagation import ErrorPropagationRule

from .conftest import parse_project

# A miniature project exercising every edge kind the resolver knows:
# relative imports, delegation chains (`yield from self._x`), a thread
# callback through a lambda (the ThreadEntry idiom), a factory
# registration binding a role, and a cross-module helper.
PROJECT = {
    "pkg/helpers.py": """
        def read_config(ctx, path):
            handle = yield from ctx.k32.CreateFileA(
                path, 1, 0, None, 3, 0, None)
            if handle == 0:
                return None
            ok = yield from ctx.k32.ReadFile(handle, None, 64, None, None)
            yield from ctx.k32.CloseHandle(handle)
            if not ok:
                return None
            return ok
    """,
    "pkg/server.py": """
        from .helpers import read_config

        class EchoServer:
            def __init__(self, name):
                self.name = name

            def main(self, ctx):
                conf = yield from read_config(ctx, "echo.ini")
                if conf is None:
                    return
                entry = ThreadEntry(lambda: self._worker(ctx))
                thread = yield from ctx.k32.CreateThread(
                    None, 0, entry, None, 0, None)
                if thread == 0:
                    return
                yield from self._serve(ctx)

            def _worker(self, ctx):
                yield from ctx.k32.Sleep(5)

            def _serve(self, ctx):
                yield from ctx.k32.ExitProcess(0)
    """,
    "pkg/setup.py": """
        from .server import EchoServer

        def register(machine):
            machine.processes.register_image(
                "echo.exe", lambda cmd: EchoServer("echo"), role="echo")
    """,
}


@pytest.fixture(scope="module")
def graph():
    return CallGraph.build(parse_project(PROJECT))


def key_for(graph, suffix):
    matches = [key for key in graph.summaries if key[1] == suffix]
    assert len(matches) == 1, (suffix, matches)
    return matches[0]


class TestEdges:
    def test_relative_import_call_resolves(self, graph):
        main = graph.summaries[key_for(graph, "EchoServer.main")]
        callees = {site.callee[1] for site in main.calls}
        assert "read_config" in callees

    def test_delegation_edge(self, graph):
        main = graph.summaries[key_for(graph, "EchoServer.main")]
        callees = {site.callee[1] for site in main.calls
                   if not site.via_reference}
        assert "EchoServer._serve" in callees

    def test_lambda_callback_creates_edge(self, graph):
        main = graph.summaries[key_for(graph, "EchoServer.main")]
        worker_sites = [site for site in main.calls
                        if site.callee[1] == "EchoServer._worker"]
        assert worker_sites

    def test_bound_method_argument_is_reference_edge(self):
        project = dict(PROJECT)
        project["pkg/server.py"] = PROJECT["pkg/server.py"].replace(
            "ThreadEntry(lambda: self._worker(ctx))",
            "ThreadEntry(self._worker)")
        graph = CallGraph.build(parse_project(project))
        main = graph.summaries[key_for(graph, "EchoServer.main")]
        worker_sites = [site for site in main.calls
                        if site.callee[1] == "EchoServer._worker"]
        assert worker_sites and all(site.via_reference
                                    for site in worker_sites)
        exports = {name for api, name in
                   graph.reachable_api(graph.root_keys())}
        assert "Sleep" in exports

    def test_role_registration_found(self, graph):
        roles = graph.roles()
        assert list(roles) == ["echo"]
        assert roles["echo"][0][1] == "EchoServer.main"

    def test_reachable_api_includes_thread_callback(self, graph):
        exports = {name for api, name in
                   graph.reachable_api(graph.root_keys())}
        assert "Sleep" in exports          # via the lambda callback
        assert "CreateFileA" in exports    # via the cross-module helper
        assert "ExitProcess" in exports    # via delegation

    def test_error_producer_detected(self, graph):
        producers = graph.error_producers()
        names = {key[1] for key in producers}
        assert "read_config" in names


class TestFailureTest:
    @pytest.mark.parametrize("test,expected", [
        ("not ok", ("ok", True)),
        ("ok", ("ok", False)),
        ("h == 0", ("h", True)),
        ("h != 0", ("h", False)),
        ("h is None", ("h", True)),
        ("h in (0, INVALID_HANDLE_VALUE)", ("h", True)),
        ("ok != 1", ("ok", True)),
        ("x + y", None),
    ])
    def test_classification(self, test, expected):
        import ast
        node = ast.parse(test, mode="eval").body
        assert failure_test(node) == expected


class TestStability:
    """Construction and finding order are invariant under module
    discovery-order permutation (the ISSUE's property test)."""

    @settings(max_examples=25, deadline=None)
    @given(order=st.permutations(list(range(len(PROJECT)))))
    def test_summary_is_order_invariant(self, order):
        baseline = CallGraph.build(parse_project(PROJECT)).summary()
        modules = parse_project(PROJECT)
        permuted = [modules[index] for index in order]
        assert CallGraph.build(permuted).summary() == baseline

    @settings(max_examples=10, deadline=None)
    @given(order=st.permutations(list(range(len(PROJECT)))))
    def test_finding_order_is_order_invariant(self, order):
        modules = parse_project(PROJECT)
        rules = [ErrorPropagationRule(), CorruptionEscapeRule()]
        baseline = [finding.render()
                    for rule in rules
                    for finding in rule.check_project(modules)]
        permuted = [modules[index] for index in order]
        permuted_findings = [finding.render()
                             for rule in rules
                             for finding in rule.check_project(permuted)]
        assert permuted_findings == baseline


class TestCache:
    def test_same_modules_hit_cache(self):
        modules = parse_project(PROJECT)
        assert callgraph_for(modules) is callgraph_for(modules)

    def test_reparse_misses_cache(self):
        first = callgraph_for(parse_project(PROJECT))
        second = callgraph_for(parse_project(PROJECT))
        assert first is not second
