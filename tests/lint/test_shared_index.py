"""One parse and one module index per lint run, shared by every tier.

Counts ``ast.parse`` calls, :class:`ModuleIndex` builds, call-graph
builds and value-flow analyses over one ``run_lint`` and over one
``repro lint --census-diff`` invocation on a small tree.
"""

import ast
import collections
import pickle
import textwrap
from io import StringIO

import pytest

from repro.cli import main
from repro.lint import callgraph, engine, run_lint, valueflow
from repro.lint.core import ParsedModule

TREE = {
    "pkg/__init__.py": "",
    "pkg/helpers.py": """
        def read_config(ctx, path):
            handle = yield from ctx.k32.CreateFileA(
                path, 1, 0, None, 3, 0, None)
            if handle == 0:
                return None
            yield from ctx.k32.CloseHandle(handle)
            return handle
    """,
    "pkg/server.py": """
        from .helpers import read_config


        class Base:
            def main(self, ctx):
                while True:
                    yield from ctx.k32.Sleep(10)


        class Server(Base):
            def main(self, ctx):
                config = yield from read_config(ctx, "x")
                if config:
                    self.config = config
                yield from super().main(ctx)


        def install(machine):
            machine.register_image("srv.exe", lambda: Server(),
                                   role="server")
    """,
}


@pytest.fixture
def tree(tmp_path):
    for name, source in TREE.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path


@pytest.fixture
def builds(monkeypatch):
    """Counter of parses, index builds, graph builds and value-flow
    analyses made while the test runs (the caches start empty)."""
    tally = collections.Counter()

    def count(name, owner, attr):
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            tally[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    count("parse", ast, "parse")
    count("index", engine.ModuleIndex, "__init__")
    count("graph", callgraph.CallGraph, "__init__")
    count("valueflow", valueflow, "analyze_valueflow")
    monkeypatch.setattr(callgraph, "_CACHE", [None, None])
    monkeypatch.setattr(valueflow, "_CACHE", [None, None])
    return tally


def test_run_lint_parses_and_indexes_each_file_once(tree, builds):
    result = run_lint([str(tree)])
    assert result.files_checked == len(TREE)
    assert len(result.modules) == len(TREE)
    assert builds == {"parse": len(TREE), "index": len(TREE),
                      "graph": 1, "valueflow": 1}


def test_census_diff_reuses_the_lint_pass_modules(tree, tmp_path, builds):
    store = tmp_path / "runs.jsonl"
    store.write_text("", encoding="utf-8")
    out = StringIO()
    code = main(["lint", "--baseline", "none", "--census-diff",
                 "--census-store", str(store), str(tree)], out=out)
    assert "census-diff" in out.getvalue()
    assert code in (0, 1)
    assert builds == {"parse": len(TREE), "index": len(TREE),
                      "graph": 1, "valueflow": 1}


def test_every_tier_reads_the_module_own_index(tree):
    result = run_lint([str(tree)])
    graph = callgraph.callgraph_for(result.modules)
    for module in result.modules:
        assert graph.project.modules[module.index.name] is module.index


def test_a_pickled_module_leaves_its_index_behind():
    source = "def f():\n    yield\n"
    module = ParsedModule("pkg/mod.py", ast.parse(source), source)
    assert [info.qualname for info in module.index.generators()] == ["f"]
    copy = pickle.loads(pickle.dumps(module))
    assert copy._index is None
    assert (copy.path, copy.source) == (module.path, module.source)
    assert sorted(copy.index.functions) == ["f"]
