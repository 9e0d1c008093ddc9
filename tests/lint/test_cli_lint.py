"""`repro lint` CLI: exit codes, formats, baseline handling."""

import json
import os
import textwrap
from io import StringIO

import pytest

from repro.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

CLEAN_SOURCE = """
    def main(ctx):
        handle = yield from ctx.k32.CreateFileA(
            "x", 1, 0, None, 3, 0, None)
        if not handle:
            return
        got = yield from ctx.k32.ReadFile(handle, None, 64, None, None)
        yield from ctx.k32.CloseHandle(handle)
"""


def run_cli(*argv):
    out = StringIO()
    code = main(["lint", "--baseline", "none", *argv], out=out)
    return code, out.getvalue()


@pytest.fixture
def clean_tree(tmp_path):
    path = tmp_path / "workload.py"
    path.write_text(textwrap.dedent(CLEAN_SOURCE), encoding="utf-8")
    return tmp_path


class TestExitCodes:
    def test_clean_input_exits_zero(self, clean_tree):
        code, text = run_cli(str(clean_tree))
        assert code == 0
        assert "0 finding(s)" in text

    def test_seeded_fixtures_exit_one(self):
        code, text = run_cli(FIXTURES)
        assert code == 1
        assert "finding" in text

    def test_bad_fault_list_fixture_alone_exits_one(self):
        code, text = run_cli(os.path.join(FIXTURES, "bad_faultlist.lst"))
        assert code == 1
        assert "CreateFielA" in text

    def test_bad_sim_process_fixture_alone_exits_one(self):
        code, text = run_cli(os.path.join(FIXTURES, "bad_simproc.py"))
        assert code == 1
        assert "hang" in text

    def test_missing_path_exits_two(self, tmp_path):
        code, text = run_cli(str(tmp_path / "no-such-dir"))
        assert code == 2
        assert "no such path" in text

    def test_unknown_rule_exits_two(self, clean_tree):
        code, text = run_cli("--rules", "no-such-rule", str(clean_tree))
        assert code == 2
        assert "unknown rule" in text

    def test_unreadable_baseline_exits_two(self, clean_tree, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text("{not json", encoding="utf-8")
        out = StringIO()
        code = main(["lint", "--baseline", str(bad), str(clean_tree)],
                    out=out)
        assert code == 2
        assert "baseline" in out.getvalue()


    @pytest.mark.parametrize("count", ["null", "[1]", "1.7", "true"])
    def test_malformed_baseline_count_is_one_line_exit_two(
            self, clean_tree, tmp_path, count):
        bad = tmp_path / "baseline.json"
        bad.write_text('{"version": 1, "suppress": {"k": %s}}' % count,
                       encoding="utf-8")
        out = StringIO()
        code = main(["lint", "--baseline", str(bad), str(clean_tree)],
                    out=out)
        assert code == 2
        assert out.getvalue().startswith("cannot read baseline: ")
        assert out.getvalue().count("\n") == 1


class TestOutputFormats:
    def test_json_output_parses_and_carries_findings(self):
        code, text = run_cli("--format", "json", FIXTURES)
        assert code == 1
        payload = json.loads(text)
        rules = {finding["rule"] for finding in payload["findings"]}
        assert "fault-space" in rules
        assert "sim-hang" in rules

    def test_sarif_output_parses_and_carries_findings(self):
        code, text = run_cli("--format", "sarif", FIXTURES)
        assert code == 1
        document = json.loads(text)
        assert document["version"] == "2.1.0"
        rules = {result["ruleId"]
                 for result in document["runs"][0]["results"]}
        assert "yield-race" in rules
        assert "determinism" in rules

    def test_text_output_names_rule_and_location(self):
        code, text = run_cli(os.path.join(FIXTURES, "bad_simproc.py"))
        assert "bad_simproc.py" in text
        assert "sim-hang" in text

    def test_rule_subset_restricts_findings(self):
        code, text = run_cli("--rules", "sim-hang",
                             os.path.join(FIXTURES, "bad_simproc.py"))
        assert code == 1
        assert "sim-hang" in text
        assert "handle-leak" not in text


class TestBaseline:
    def test_write_baseline_then_rerun_is_clean(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        out = StringIO()
        code = main(["lint", "--baseline", "none",
                     "--write-baseline", str(baseline), FIXTURES], out=out)
        assert code == 0
        assert baseline.exists()

        out = StringIO()
        code = main(["lint", "--baseline", str(baseline), FIXTURES], out=out)
        assert code == 0
        assert "baselined" in out.getvalue()

    def test_baseline_does_not_hide_new_findings(self, tmp_path):
        source = tmp_path / "proc.py"
        source.write_text(textwrap.dedent("""
            def main(ctx):
                yield from ctx.k32.CreateEventA(None, True, False, "e")
        """), encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        out = StringIO()
        assert main(["lint", "--baseline", "none",
                     "--write-baseline", str(baseline),
                     str(source)], out=out) == 0

        source.write_text(textwrap.dedent("""
            def main(ctx):
                yield from ctx.k32.CreateEventA(None, True, False, "e")
                yield from ctx.k32.CreateEventA(None, True, False, "f")
        """), encoding="utf-8")
        out = StringIO()
        code = main(["lint", "--baseline", str(baseline), str(source)],
                    out=out)
        assert code == 1

    def test_update_baseline_round_trip_is_a_noop(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        out = StringIO()
        code = main(["lint", "--baseline", str(baseline),
                     "--update-baseline", FIXTURES], out=out)
        assert code == 0
        first = baseline.read_text(encoding="utf-8")
        assert json.loads(first)["suppress"]  # fixtures are seeded bad

        out = StringIO()
        code = main(["lint", "--baseline", str(baseline),
                     "--update-baseline", FIXTURES], out=out)
        assert code == 0
        assert baseline.read_text(encoding="utf-8") == first

        # The regenerated baseline fully covers the tree it captured.
        out = StringIO()
        code = main(["lint", "--baseline", str(baseline), FIXTURES],
                    out=out)
        assert code == 0

    def test_update_baseline_is_sorted(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        out = StringIO()
        assert main(["lint", "--baseline", str(baseline),
                     "--update-baseline", FIXTURES], out=out) == 0
        keys = list(json.loads(
            baseline.read_text(encoding="utf-8"))["suppress"])
        assert keys == sorted(keys)

    def test_update_baseline_conflicts_with_write_baseline(self, tmp_path):
        out = StringIO()
        code = main(["lint", "--update-baseline",
                     "--write-baseline", str(tmp_path / "b.json"),
                     FIXTURES], out=out)
        assert code == 2
        assert "mutually exclusive" in out.getvalue()


LEAKY_SOURCE = """
    def main(ctx):
        yield from ctx.k32.CreateEventA(None, True, False, "e")
"""


class TestBaselinePrune:
    @pytest.fixture
    def two_leaky_files(self, tmp_path):
        for name in ("first.py", "second.py"):
            (tmp_path / name).write_text(
                textwrap.dedent(LEAKY_SOURCE), encoding="utf-8")
        return tmp_path

    def test_deleted_file_entries_are_pruned(self, two_leaky_files,
                                             tmp_path):
        baseline = tmp_path / "baseline.json"
        out = StringIO()
        assert main(["lint", "--baseline", str(baseline),
                     "--update-baseline", str(two_leaky_files)],
                    out=out) == 0
        before = json.loads(baseline.read_text(encoding="utf-8"))
        assert len(before["suppress"]) == 2

        (two_leaky_files / "second.py").unlink()
        out = StringIO()
        assert main(["lint", "--baseline", str(baseline),
                     "--update-baseline", str(two_leaky_files)],
                    out=out) == 0
        assert "1 stale entr" in out.getvalue()
        after = json.loads(baseline.read_text(encoding="utf-8"))
        assert len(after["suppress"]) == 1
        assert all("second.py" not in key for key in after["suppress"])

    def test_out_of_scope_entries_survive_partial_update(
            self, two_leaky_files, tmp_path):
        # Regenerating the baseline for one file must not drop the
        # other file's entries as long as that file still exists.
        baseline = tmp_path / "baseline.json"
        out = StringIO()
        assert main(["lint", "--baseline", str(baseline),
                     "--update-baseline", str(two_leaky_files)],
                    out=out) == 0

        out = StringIO()
        assert main(["lint", "--baseline", str(baseline),
                     "--update-baseline",
                     str(two_leaky_files / "first.py")], out=out) == 0
        assert "1 out-of-scope entr" in out.getvalue()
        after = json.loads(baseline.read_text(encoding="utf-8"))
        assert len(after["suppress"]) == 2

        # And the merged baseline still covers the whole tree.
        out = StringIO()
        assert main(["lint", "--baseline", str(baseline),
                     str(two_leaky_files)], out=out) == 0


class TestCensusDiffCli:
    def test_census_store_requires_census_diff(self, clean_tree):
        code, text = run_cli("--census-store", "x.jsonl",
                             str(clean_tree))
        assert code == 2
        assert "--census-diff" in text

    def test_census_diff_rejects_sarif(self, clean_tree):
        code, text = run_cli("--census-diff", "--format", "sarif",
                             str(clean_tree))
        assert code == 2
        assert "sarif" in text

    def test_missing_store_exits_two(self, clean_tree, tmp_path):
        code, text = run_cli("--census-diff", "--census-store",
                             str(tmp_path / "none.jsonl"),
                             str(clean_tree))
        assert code == 2
        assert "no such" in text

    def test_live_census_without_roles_flags_unexplained(self, clean_tree):
        # The live census still observes the registered workloads; a
        # tree with no registrations cannot explain any of it.
        code, text = run_cli("--census-diff", str(clean_tree))
        assert code == 1
        assert "unexplained" in text

    def test_empty_store_census_is_clean(self, clean_tree, tmp_path):
        store = tmp_path / "runs.jsonl"
        store.write_text("", encoding="utf-8")
        code, text = run_cli("--census-diff", "--census-store",
                             str(store), str(clean_tree))
        assert code == 0
        assert "clean" in text

    def test_census_diff_json_merges_report(self, clean_tree, tmp_path):
        store = tmp_path / "runs.jsonl"
        store.write_text("", encoding="utf-8")
        code, text = run_cli("--census-diff", "--census-store",
                             str(store), "--format", "json",
                             str(clean_tree))
        assert code == 0
        payload = json.loads(text)
        assert payload["census"]["clean"] is True
        assert payload["census"]["fault_space"]["exports"] == 681


IMPL_SOURCE = """
    @k32impl("Sleep")
    def sleep_impl(frame):
        return frame.succeed(0)
"""


class TestRuleSelection:
    def test_select_is_an_alias_for_rules(self, tmp_path):
        path = tmp_path / "impl.py"
        path.write_text(textwrap.dedent(IMPL_SOURCE), encoding="utf-8")
        code, text = run_cli("--select", "dead-param", str(path))
        assert code == 1
        assert "dead-param" in text

    def test_select_accepts_a_rule_family(self, tmp_path):
        path = tmp_path / "impl.py"
        path.write_text(textwrap.dedent(IMPL_SOURCE), encoding="utf-8")
        code, text = run_cli("--select", "valueflow", str(path))
        assert code == 1
        assert "dead-param" in text
        # Family selection excludes everything outside the family.
        code, text = run_cli("--select", "valueflow", FIXTURES)
        assert "sim-hang" not in text

    def test_unknown_family_exits_two(self, clean_tree):
        code, text = run_cli("--select", "no-such-family",
                             str(clean_tree))
        assert code == 2
        assert "unknown rule" in text


class TestSuppressedOnlyNote:
    def test_suppressed_only_run_passes_with_note(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        out = StringIO()
        assert main(["lint", "--baseline", "none",
                     "--write-baseline", str(baseline), FIXTURES],
                    out=out) == 0
        out = StringIO()
        code = main(["lint", "--baseline", str(baseline), FIXTURES],
                    out=out)
        assert code == 0
        assert "baseline-suppressed findings only" in out.getvalue()

    def test_clean_tree_prints_no_note(self, clean_tree):
        code, text = run_cli(str(clean_tree))
        assert code == 0
        assert "baseline-suppressed" not in text


class TestEquivalenceCli:
    def test_emit_equivalence_writes_manifest(self, clean_tree,
                                              tmp_path):
        manifest = tmp_path / "equiv.json"
        code, text = run_cli("--emit-equivalence", str(manifest),
                             str(clean_tree))
        assert code == 0
        assert "wrote" in text
        payload = json.loads(manifest.read_text(encoding="utf-8"))
        assert payload["version"] == 1
        assert payload["fingerprint"] in text
        # Generic (unimplemented-export) classes exist even for a tree
        # without @k32impl sites; registered-at-runtime exports outside
        # the linted scope must not contribute (unsound from partials).
        assert payload["classes"]

    def test_emit_equivalence_is_deterministic(self, clean_tree,
                                               tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        run_cli("--emit-equivalence", str(first), str(clean_tree))
        run_cli("--emit-equivalence", str(second), str(clean_tree))
        assert first.read_text(encoding="utf-8") == \
            second.read_text(encoding="utf-8")

    def test_equiv_sample_requires_equiv_check(self, clean_tree):
        code, text = run_cli("--equiv-sample", "3", str(clean_tree))
        assert code == 2
        assert "--equiv-check" in text

    def test_negative_equiv_sample_is_a_usage_error(self, clean_tree,
                                                    monkeypatch, capsys):
        def no_runs(*args, **kwargs):
            raise AssertionError("a run executed before the usage check")

        monkeypatch.setattr("repro.core.runner.execute_run", no_runs)
        with pytest.raises(SystemExit) as exit_info:
            run_cli("--equiv-check", "--equiv-sample", "-1",
                    str(clean_tree))
        assert exit_info.value.code == 2
        assert "--equiv-sample" in capsys.readouterr().err

    def test_equiv_check_rejects_sarif(self, clean_tree):
        code, text = run_cli("--equiv-check", "--format", "sarif",
                             str(clean_tree))
        assert code == 2
        assert "sarif" in text

    def test_equiv_check_reports_oracle_outcome(self, clean_tree):
        code, text = run_cli("--equiv-check", "--equiv-sample", "2",
                             str(clean_tree))
        assert code == 0
        assert "equivalence oracle" in text


class TestJobs:
    def test_parallel_findings_match_serial(self):
        serial_code, serial_text = run_cli("--format", "json", FIXTURES)
        parallel_code, parallel_text = run_cli("--format", "json",
                                               "--jobs", "4", FIXTURES)
        assert serial_code == parallel_code == 1
        assert json.loads(serial_text) == json.loads(parallel_text)

    def test_zero_jobs_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("--jobs", "0", FIXTURES)
        assert exit_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err
