"""Unchecked-return rule: discarded HANDLE/BOOL results."""

from repro.lint.returns import UncheckedReturnRule

RULES = [UncheckedReturnRule()]


class TestPositives:
    def test_discarded_handle_result(self, lint_source):
        findings = lint_source("""
            def main(ctx):
                k32 = ctx.k32
                yield from k32.CreateEventA(None, True, False, "ev")
        """, rules=RULES)
        assert len(findings) == 1
        assert "CreateEventA" in findings[0].message
        assert "HANDLE" in findings[0].message

    def test_discarded_bool_io_result(self, lint_source):
        findings = lint_source("""
            def main(ctx):
                yield from ctx.k32.WriteFile(1, b"x", 1, None, None)
        """, rules=RULES)
        assert len(findings) == 1
        assert "BOOL" in findings[0].message

    def test_discarded_libc_result(self, lint_source):
        findings = lint_source("""
            def main(ctx):
                libc = ctx.libc
                yield from libc.open("/etc/httpd.conf", 0, 0)
        """, rules=RULES)
        assert len(findings) == 1
        assert "libc.open" in findings[0].message

    def test_every_same_named_def_is_checked(self, lint_source):
        # A property's getter and setter share one qualname; the rule
        # walks both definitions.
        findings = lint_source("""
            class Box:
                @property
                def handle(self):
                    self.k32.CreateEventA(None, True, False, "get")

                @handle.setter
                def handle(self, value):
                    self.k32.CreateEventA(None, True, False, "set")
        """, rules=RULES)
        assert [(f.line, f.symbol) for f in findings] == \
            [(5, "Box.handle"), (9, "Box.handle")]

    def test_plain_call_without_yield_also_flagged(self, lint_source):
        findings = lint_source("""
            def helper(k32):
                k32.CreateMutexA(None, False, None)
        """, rules=RULES)
        assert len(findings) == 1


class TestNegatives:
    def test_assigned_result_is_checked(self, lint_source):
        findings = lint_source("""
            def main(ctx):
                handle = yield from ctx.k32.CreateEventA(None, True, False, "e")
        """, rules=RULES)
        assert findings == []

    def test_underscore_is_deliberate_discard(self, lint_source):
        findings = lint_source("""
            def main(ctx):
                _ = yield from ctx.k32.WriteFile(1, b"x", 1, None, None)
        """, rules=RULES)
        assert findings == []

    def test_result_used_in_condition_is_checked(self, lint_source):
        findings = lint_source("""
            def main(ctx):
                if not (yield from ctx.k32.ReadFile(1, b"", 0, None, None)):
                    return
        """, rules=RULES)
        assert findings == []

    def test_close_handle_discard_is_idiomatic(self, lint_source):
        findings = lint_source("""
            def main(ctx):
                yield from ctx.k32.CloseHandle(7)
        """, rules=RULES)
        assert findings == []

    def test_void_style_calls_not_flagged(self, lint_source):
        findings = lint_source("""
            def main(ctx):
                yield from ctx.k32.Sleep(100)
                yield from ctx.k32.SetLastError(0)
        """, rules=RULES)
        assert findings == []

    def test_non_sim_calls_ignored(self, lint_source):
        findings = lint_source("""
            def main(log):
                log.CreateEventA("not a sim api")
        """, rules=RULES)
        assert findings == []
