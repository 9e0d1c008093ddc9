"""The whole-program engine: CFG slicing, indexes, stability."""

import ast
import glob
import os
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint.core import ParsedModule
from repro.lint.engine import (
    GeneratorCFG,
    ModuleIndex,
    ProjectIndex,
    build_cfg,
    module_name_for_path,
    resolve_relative,
)

SERVER_DIR = os.path.join("src", "repro", "servers")


def index_of(source: str, path: str = "mod.py") -> ModuleIndex:
    return ModuleIndex(path, ast.parse(textwrap.dedent(source)))


def cfg_of(source: str, qualname: str) -> GeneratorCFG:
    index = index_of(source)
    cfg = index.cfg(qualname)
    assert cfg is not None, f"{qualname} is not an indexed generator"
    return cfg


class TestSegments:
    def test_yield_splits_segments(self):
        cfg = cfg_of("""
            class S:
                def run(self, k32):
                    self.a = 1
                    yield from k32.Sleep(1)
                    self.b = 2
                    yield
                    self.c = 3
        """, "S.run")
        assert cfg.segment_count == 3
        assert [s.kind for s in cfg.suspensions] == ["yield-from", "yield"]
        segments = {chain[-1]: access.segment
                    for access in cfg.accesses
                    for chain in [access.chain]}
        assert segments == {"a": 0, "b": 1, "c": 2}

    def test_rhs_evaluates_before_target(self):
        # `self.x = yield ...` reads nothing, but the write lands in
        # the post-yield segment: the value arrives after resuming.
        cfg = cfg_of("""
            class S:
                def run(self):
                    self.x = yield
        """, "S.run")
        write, = [a for a in cfg.accesses if a.kind == "write"]
        assert write.segment == 1

    def test_captures_record_pre_yield_segment(self):
        cfg = cfg_of("""
            class S:
                def run(self, k32):
                    snapshot = self.count
                    yield from k32.Sleep(1)
                    self.count = snapshot
        """, "S.run")
        capture, = cfg.captures
        assert capture.local == "snapshot"
        assert capture.segment == 0
        write = [a for a in cfg.accesses if a.kind == "write"][-1]
        assert write.segment == 1
        assert "snapshot" in write.rhs_locals

    def test_mutator_calls_are_mutations(self):
        cfg = cfg_of("""
            class S:
                def run(self):
                    self.backlog.append(1)
                    yield
        """, "S.run")
        access, = [a for a in cfg.accesses if a.kind == "mutate"]
        assert access.chain == ("self", "backlog")

    def test_branch_records_test_chains_and_suspension(self):
        cfg = cfg_of("""
            class S:
                def run(self, k32):
                    if self.worker is None:
                        yield from k32.Sleep(1)
                        self.worker = 1
        """, "S.run")
        branch, = cfg.branches
        assert branch.kind == "if"
        assert ("self", "worker") in branch.test_chains
        assert branch.suspends


class TestNestedGenerators:
    SOURCE = """
        class Server:
            def outer(self, k32):
                yield from k32.Sleep(1)

                def inner():
                    yield 1
                    yield 2

                yield from inner()

            def plain(self):
                return 1
    """

    def test_nested_generator_gets_its_own_cfg(self):
        index = index_of(self.SOURCE)
        names = [info.qualname for info in index.generators()]
        assert names == ["Server.outer", "Server.outer.inner"]

        outer = index.cfg("Server.outer")
        inner = index.cfg("Server.outer.inner")
        # The inner def's yields belong to the inner CFG only.
        assert outer.segment_count == 3
        assert inner.segment_count == 3
        assert [s.kind for s in inner.suspensions] == ["yield", "yield"]

    def test_non_generators_have_no_cfg(self):
        index = index_of(self.SOURCE)
        assert index.cfg("Server.plain") is None


class TestSuspensionReachability:
    def test_empty_literal_delegation_cannot_suspend(self):
        index = index_of("""
            def helper():
                yield from ()

            def chained():
                yield from helper()

            def real():
                yield 1
        """)
        assert not index.can_suspend(index.function("helper"))
        assert not index.can_suspend(index.function("chained"))
        assert index.can_suspend(index.function("real"))

    def test_delegation_cycle_without_yield_cannot_suspend(self):
        index = index_of("""
            def ping():
                yield from pong()

            def pong():
                yield from ping()
        """)
        assert not index.can_suspend(index.function("ping"))
        assert not index.can_suspend(index.function("pong"))

    def test_out_of_module_delegation_is_assumed_to_suspend(self):
        index = index_of("""
            def proc(k32):
                yield from k32.Sleep(1)
        """)
        assert index.can_suspend(index.function("proc"))


class TestServersEnumeration:
    """Every real server module slices cleanly at its yield points."""

    @pytest.mark.parametrize("path", sorted(
        glob.glob(os.path.join(SERVER_DIR, "*.py"))))
    def test_every_generator_cfg_builds(self, path):
        with open(path, "r", encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        index = ModuleIndex(path, tree)
        generators = list(index.generators())
        for info in generators:
            cfg = index.cfg(info.qualname)
            assert cfg.segment_count == len(cfg.suspensions) + 1
            for access in cfg.accesses:
                assert 0 <= access.segment < cfg.segment_count
        if generators:
            # A server module's coroutine processes must include at
            # least one generator that can actually suspend.
            assert any(index.can_suspend(info) for info in generators)


class TestModuleNames:
    def test_src_prefix_is_stripped(self):
        assert module_name_for_path("src/repro/sim/engine.py") == \
            "repro.sim.engine"

    def test_package_init_maps_to_package(self):
        assert module_name_for_path("src/repro/lint/__init__.py") == \
            "repro.lint"


class TestResolveRelative:
    def test_sibling(self):
        assert resolve_relative("pkg.server", 1, "helpers", False) == \
            "pkg.helpers"

    def test_parent(self):
        assert resolve_relative("a.b.c", 2, "d", False) == "a.d"

    def test_package_init(self):
        assert resolve_relative("pkg", 1, "helpers", True) == \
            "pkg.helpers"

    def test_overflow_is_none(self):
        assert resolve_relative("pkg", 3, "x", False) is None


class TestNameTable:
    """The index owns the module's names: imports (relative ones
    resolved), the class table, and every def."""

    def test_relative_from_imports_resolve_against_the_module(self):
        index = index_of("""
            import os.path
            from ..net import http
            from .helpers import read_config as read
        """, path="src/repro/servers/apache.py")
        assert index.name == "repro.servers.apache"
        assert index.from_imports["read"] == \
            ("repro.servers.helpers", "read_config")
        assert index.imported_module("http") == "repro.net.http"
        assert index.imported_module("os") == "os.path"
        assert index.imported_module("read_config") is None

    def test_package_relative_import(self):
        index = index_of("from . import engine\n",
                         path="src/repro/sim/__init__.py")
        assert index.imported_module("engine") == "repro.sim.engine"

    def test_class_table_holds_name_bases(self):
        index = index_of("""
            class Base:
                pass

            class Server(Base, mixins.Logged):
                class Inner(Base):
                    pass

            def factory():
                class Local(Base):
                    pass
        """)
        assert index.class_bases == {"Base": (), "Server": ("Base",),
                                     "Server.Inner": ("Base",)}

    def test_defs_keep_every_same_named_definition(self):
        index = index_of("""
            class Box:
                @property
                def size(self):
                    return 1

                @size.setter
                def size(self, value):
                    pass
        """)
        assert [info.qualname for info in index.defs] == \
            ["Box.size", "Box.size"]
        assert index.functions["Box.size"] is index.defs[-1]


# A tiny grammar of sim-style modules for the stability property.
_NAMES = st.sampled_from(["alpha", "beta", "gamma", "delta"])
_BODIES = st.sampled_from([
    "self.count = self.count + 1",
    "value = self.count\n        yield from k32.Sleep(1)\n"
    "        self.count = value",
    "yield from k32.Sleep(1)",
    "self.backlog.append(1)\n        yield",
    "if self.worker is None:\n            yield\n"
    "            self.worker = 1",
])


@st.composite
def sim_modules(draw):
    count = draw(st.integers(min_value=1, max_value=3))
    chunks = []
    for position in range(count):
        name = draw(_NAMES)
        body = draw(_BODIES)
        chunks.append(
            f"class S{position}_{name}:\n"
            f"    def run(self, k32):\n"
            f"        {body}\n")
    return "\n".join(chunks)


class TestProjectIndexStability:
    @settings(max_examples=25, deadline=None)
    @given(sources=st.lists(sim_modules(), min_size=1, max_size=3))
    def test_two_builds_summarise_identically(self, sources):
        modules = [
            ParsedModule(f"src/repro/servers/mod{position}.py",
                         ast.parse(source), source)
            for position, source in enumerate(sources)
        ]
        first = ProjectIndex.build(modules).summary()
        second = ProjectIndex.build(modules).summary()
        assert first == second

    def test_real_tree_summary_is_stable(self):
        modules = []
        for path in sorted(glob.glob(os.path.join(SERVER_DIR, "*.py"))):
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            modules.append(
                ParsedModule(path, ast.parse(source, filename=path),
                             source))
        first = ProjectIndex.build(modules).summary()
        # A fresh parse must produce the identical summary: nothing in
        # the index may depend on object identity or hash order.
        reparsed = [ParsedModule(m.path, ast.parse(m.source), m.source)
                    for m in modules]
        second = ProjectIndex.build(reparsed).summary()
        assert first == second
        assert set(first) == {module_name_for_path(m.path)
                              for m in modules}
