"""Framework-level tests: findings, baseline semantics, the analyzer."""

import json
import textwrap

import pytest

from repro.lint import (
    Analyzer,
    Finding,
    apply_baseline,
    default_rules,
    dump_baseline,
    load_baseline,
    run_lint,
)
from repro.lint.core import DEFAULT_BASELINE


class TestFinding:
    def test_key_is_line_independent(self):
        first = Finding("r", "a.py", 10, "msg", symbol="f")
        second = Finding("r", "a.py", 99, "msg", symbol="f")
        assert first.key == second.key

    def test_key_distinguishes_rule_path_symbol_message(self):
        base = Finding("r", "a.py", 1, "msg", symbol="f")
        for other in (Finding("q", "a.py", 1, "msg", symbol="f"),
                      Finding("r", "b.py", 1, "msg", symbol="f"),
                      Finding("r", "a.py", 1, "other", symbol="f"),
                      Finding("r", "a.py", 1, "msg", symbol="g")):
            assert base.key != other.key

    def test_render_mentions_rule_and_location(self):
        text = Finding("sim-hang", "x.py", 7, "spins", symbol="S.main").render()
        assert "x.py:7" in text
        assert "[sim-hang]" in text
        assert "S.main" in text


class TestBaseline:
    def _finding(self, message="m", line=1):
        return Finding("rule", "p.py", line, message)

    def test_roundtrip(self, tmp_path):
        findings = [self._finding("a"), self._finding("a", line=9),
                    self._finding("b")]
        path = tmp_path / "baseline.json"
        path.write_text(dump_baseline(findings), encoding="utf-8")
        baseline = load_baseline(str(path))
        assert baseline == {findings[0].key: 2, findings[2].key: 1}

    def test_apply_suppresses_up_to_count(self):
        findings = [self._finding("a", line=n) for n in (1, 2, 3)]
        fresh, suppressed = apply_baseline(findings, {findings[0].key: 2})
        # Two identical findings suppressed; the third is *new* growth.
        assert suppressed == 2
        assert len(fresh) == 1

    def test_apply_with_empty_baseline(self):
        findings = [self._finding()]
        fresh, suppressed = apply_baseline(findings, {})
        assert fresh == findings and suppressed == 0

    def test_load_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99, "suppress": {}}))
        with pytest.raises(ValueError):
            load_baseline(str(path))

    @pytest.mark.parametrize("count", [None, [1], 1.7, True, -1, "2"])
    def test_load_rejects_a_count_that_is_not_a_non_negative_int(
            self, tmp_path, count):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 1,
                                    "suppress": {"rule|p.py||m": count}}))
        with pytest.raises(ValueError, match="non-negative integer"):
            load_baseline(str(path))

    def test_default_baseline_name(self):
        assert DEFAULT_BASELINE == "lint-baseline.json"


# One finding of each rule whose message once quoted a line number:
# error-propagation ("bound at line N") and use-before-validate.
DRIFT_SOURCES = {
    "workload.py": """
        def main(ctx):
            handle = yield from ctx.k32.CreateFileA(
                "x", 1, 0, None, 3, 0, None)
            yield from ctx.k32.CloseHandle(handle)
    """,
    "impl.py": """
        @k32impl("SetEvent")
        def set_event(frame):
            event = frame.handle_object(0)
            label = event.label
            if event is None:
                return frame.fail(6)
            return frame.succeed(1)
    """,
}


class TestBaselineLineDrift:
    """A blank line above a binding moves every line number below it;
    the baseline keys must not move with them."""

    def _lint(self, tmp_path, baseline=None, pad=False):
        for name, source in DRIFT_SOURCES.items():
            text = textwrap.dedent(source)
            if pad:  # a blank line between the def and the binding
                text = text.replace("):\n", "):\n\n", 1)
            (tmp_path / name).write_text(text, encoding="utf-8")
        return run_lint([str(tmp_path)], baseline=baseline)

    def test_keys_survive_a_blank_line_above_the_binding(self, tmp_path):
        before = self._lint(tmp_path).findings
        assert {"error-propagation", "use-before-validate"} <= \
            {finding.rule for finding in before}
        after = self._lint(tmp_path, pad=True).findings
        assert [f.line + 1 for f in before] == [f.line for f in after]
        assert sorted(f.key for f in before) == \
            sorted(f.key for f in after)

    def test_baseline_still_suppresses_after_the_drift(self, tmp_path):
        before = self._lint(tmp_path).findings
        baseline = json.loads(dump_baseline(before))["suppress"]
        result = self._lint(tmp_path, baseline=baseline, pad=True)
        assert result.findings == []
        assert result.suppressed == len(before)


class TestAnalyzer:
    def test_syntax_error_is_a_finding_not_a_crash(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n", encoding="utf-8")
        result = run_lint([str(bad)])
        assert [f.rule for f in result.findings] == ["parse-error"]

    def test_collect_skips_pycache_and_egg_info(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text("syntax error(")
        (tmp_path / "pkg.egg-info").mkdir()
        (tmp_path / "pkg.egg-info" / "junk.py").write_text("syntax error(")
        (tmp_path / "ok.py").write_text("x = 1\n")
        analyzer = Analyzer(default_rules())
        py_files, fault_files = analyzer.collect([str(tmp_path)])
        assert [p for p in py_files if "junk" in p] == []
        assert fault_files == []

    def test_collect_picks_up_fault_lists_in_directories(self, tmp_path):
        (tmp_path / "campaign.lst").write_text("CreateFileA 0 zero 1\n")
        analyzer = Analyzer(default_rules())
        _, fault_files = analyzer.collect([str(tmp_path)])
        assert len(fault_files) == 1

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            run_lint(["/no/such/path/anywhere"])

    def test_clean_module_is_clean(self, tmp_path):
        (tmp_path / "fine.py").write_text("def f():\n    return 1\n")
        result = run_lint([str(tmp_path)])
        assert result.clean
        assert result.files_checked == 1

    def test_json_rendering_parses(self, tmp_path):
        (tmp_path / "fine.py").write_text("x = 1\n")
        payload = json.loads(run_lint([str(tmp_path)]).render_json())
        assert payload["findings"] == []
        assert payload["files_checked"] == 1

    def test_default_rules_are_the_twelve_passes(self):
        names = {rule.name for rule in default_rules()}
        assert names == {"signature-conformance", "unchecked-return",
                         "error-propagation", "corruption-escape",
                         "handle-leak", "sim-hang", "yield-race",
                         "determinism", "fault-space",
                         "fault-reachability", "dead-param",
                         "use-before-validate"}
