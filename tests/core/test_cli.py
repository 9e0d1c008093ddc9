"""Tests for the command-line interface."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestFaultlist:
    def test_generates_full_list(self, tmp_path):
        path = tmp_path / "faults.lst"
        code, text = _run(["faultlist", "-o", str(path)])
        assert code == 0
        assert "wrote" in text
        content = path.read_text()
        assert "CreateFileA 0 zero 1" in content

    def test_restricted_functions(self, tmp_path):
        path = tmp_path / "faults.lst"
        code, text = _run(["faultlist", "-o", str(path),
                           "--functions", "SetEvent,ReadFile"])
        assert code == 0
        assert "wrote 18 faults" in text  # 1*3 + 5*3

    def test_unknown_export_is_one_line_exit_2(self, tmp_path):
        path = tmp_path / "faults.lst"
        code, text = _run(["faultlist", "-o", str(path),
                           "--functions", "SetEvent,ReadFil"])
        assert code == 2
        assert text == ("repro faultlist: unknown export 'ReadFil' "
                        "(did you mean 'ReadFile'?)\n")
        assert not path.exists()

    def test_unwritable_output_is_one_line_exit_2(self, tmp_path):
        path = tmp_path / "missing" / "faults.lst"
        code, text = _run(["faultlist", "-o", str(path)])
        assert code == 2
        assert text == (f"repro faultlist: cannot write {path}: "
                        "No such file or directory\n")

    def test_closed_stdout_pipe_exits_1_without_a_traceback(self):
        """``repro faultlist -o /dev/stdout | head -1``: the listing
        (about 120 kB) overflows the pipe, the reader closes it after
        one line, and the writer gets a broken pipe."""
        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "faultlist",
             "-o", "/dev/stdout"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert process.stdout.readline().startswith(b"#")
        process.stdout.close()
        _, stderr = process.communicate(timeout=120)
        assert process.returncode == 1
        assert stderr == b""


class TestProfile:
    def test_profile_counts_match_table1(self):
        code, text = _run(["profile", "--workload", "Apache1",
                           "--middleware", "none"])
        assert code == 0
        assert "13 KERNEL32 functions called" in text
        assert "CreateProcessA" in text

    def test_profile_with_watchd(self):
        code, text = _run(["profile", "--workload", "IIS",
                           "--middleware", "watchd"])
        assert "70 KERNEL32 functions called" in text


class TestInject:
    def test_single_injection_reports_outcome(self):
        code, text = _run(["inject", "--workload", "IIS",
                           "--middleware", "none",
                           "--fault", "CreateEventA 3 zero 1"])
        assert code == 0
        assert "outcome    : normal-success" in text
        assert "activated  : True" in text

    def test_crash_fault_under_watchd(self):
        code, text = _run(["inject", "--workload", "IIS",
                           "--middleware", "watchd",
                           "--fault", "CreateFileA 0 zero 1"])
        assert "restart-success" in text

    def test_malformed_fault_rejected(self):
        code, text = _run(["inject", "--workload", "IIS",
                           "--fault", "nonsense"])
        assert code == 2
        assert text == "bad --fault: malformed fault line: 'nonsense'\n"

    @pytest.mark.parametrize("line, reason", [
        ("CreateFileA x zero 1", "invalid literal for int()"),
        ("CreateFileA 0 bogus 1", "'bogus' is not a valid FaultType"),
        ("NoSuchExport 0 zero 1", "unknown export 'NoSuchExport'"),
        ("CreateFileA 9 zero 1", "cannot corrupt index 9"),
    ])
    def test_bad_fault_is_one_line_exit_2(self, line, reason):
        """Bad input is a one-line error, never a traceback — checked
        against the workload's registry before any machine boots."""
        code, text = _run(["inject", "--workload", "IIS", "--fault", line])
        assert code == 2
        assert text.startswith("bad --fault: ")
        assert reason in text
        assert text.count("\n") == 1


class TestRun:
    def test_campaign_from_config_file(self, tmp_path):
        from repro.core.config import DtsConfig

        config_path = tmp_path / "dts.ini"
        config_path.write_text(DtsConfig(workload="IIS").to_text())
        code, text = _run(["run", "--config", str(config_path),
                           "--functions", "SetErrorMode,GetACP"])
        assert code == 0
        assert "IIS / Stand-alone" in text
        assert "activated faults : 3" in text


@pytest.mark.parametrize("family", ["param", "return"])
def test_run_with_an_unknown_function_is_one_line_exit_2(tmp_path, family):
    from repro.core.config import DtsConfig

    config_path = tmp_path / "dts.ini"
    config_path.write_text(DtsConfig(workload="IIS").to_text())
    for name, hint in [("NoSuchExport", ""),
                       ("ReadFil", " (did you mean 'ReadFile'?)")]:
        code, out = _run(["run", "--config", str(config_path),
                          "--fault-family", family,
                          "--functions", f"SetErrorMode,{name}"])
        assert code == 2
        assert out == f"bad --functions: unknown export {name!r}{hint}\n"


class TestRunBadConfig:
    @pytest.mark.parametrize("text, reason", [
        (None, "No such file"),
        ("workload = IIS\n", "no section headers"),
        ("[dts]\nworkload = Nope\n", "unknown workload 'Nope'"),
        ("[dts]\nbase_seed = abc\n",
         "base_seed must be an integer, got 'abc'"),
        ("[execution]\njobs = 0\n", "jobs must be >= 1"),
        ("[dts]\nfault_list = x\n", "unknown key 'fault_list' in [dts]"),
        ("[timeouts]\nreply = 15\n", "unknown key 'reply' in [timeouts]"),
        ("[timeouts]\nretry_wait = 15\n",
         "unknown key 'retry_wait' in [timeouts]"),
        ("[bogus]\nkey = 1\n", "unknown section [bogus]"),
    ], ids=["missing", "no-section", "workload", "seed", "jobs",
            "fault-list", "reply", "retry-wait", "bogus-section"])
    def test_bad_config_is_one_line_exit_2(self, tmp_path, text, reason):
        path = tmp_path / "dts.ini"
        if text is not None:
            path.write_text(text)
        code, out = _run(["run", "--config", str(path),
                          "--functions", "SetErrorMode"])
        assert code == 2
        assert out.startswith(f"bad --config {path}: ")
        assert reason in out
        assert out.count("\n") == 1


@pytest.mark.parametrize("manifest", [
    '{"format": 3, "segm', '{"format": 3}', '{"format": 3, "segments": 0}',
], ids=["torn", "no-segments", "zero"])
@pytest.mark.parametrize("command", ["run", "trace", "load"])
def test_a_bad_sharded_manifest_is_one_line_exit_2(tmp_path, manifest,
                                                   command):
    from repro.core.config import DtsConfig

    store = tmp_path / "s.d"
    store.mkdir()
    (store / "MANIFEST.json").write_text(manifest)
    config_path = tmp_path / "dts.ini"
    config_path.write_text(DtsConfig(workload="IIS").to_text())
    argv = {
        "run": ["run", "--config", str(config_path), "--functions",
                "SetErrorMode", "--store", str(store), "--resume"],
        "trace": ["trace", str(store)],
        "load": ["load", "--workload", "iis", "--clients", "2",
                 "--store", str(store), "--resume"],
    }[command]
    code, out = _run(argv)
    assert code == 2
    assert out.startswith(f"cannot open store {store}: ")
    assert "MANIFEST.json" in out
    assert out.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["run", "--config", "dts.ini"],
    ["reproduce"],
    ["load", "--workload", "apache"],
    ["lint"],
    ["serve", "--store", "store.d"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("jobs", ["0", "-1", "two"])
def test_jobs_must_be_a_count_of_at_least_one(argv, jobs, capsys):
    with pytest.raises(SystemExit) as exit_info:
        _run(argv + ["--jobs", jobs])
    assert exit_info.value.code == 2
    assert "argument --jobs" in capsys.readouterr().err


class TestRunExecutionOptions:
    def _config_path(self, tmp_path):
        from repro.core.config import DtsConfig

        path = tmp_path / "dts.ini"
        path.write_text(DtsConfig(workload="IIS").to_text())
        return str(path)

    def test_progress_line_reports_throughput_and_eta(self, tmp_path):
        code, text = _run(["run", "--config", self._config_path(tmp_path),
                           "--functions", "SetErrorMode,GetACP"])
        assert code == 0
        assert "runs/s" in text
        assert "ETA" in text

    def test_jobs_option_matches_serial_outcomes(self, tmp_path):
        config = self._config_path(tmp_path)
        argv = ["run", "--config", config,
                "--functions", "SetErrorMode,CreateEventA"]
        code_serial, text_serial = _run(argv)
        code_pool, text_pool = _run(argv + ["--jobs", "2"])
        assert code_serial == code_pool == 0
        # Identical outcome distribution and summary lines.
        assert text_serial.splitlines()[-3:] == text_pool.splitlines()[-3:]

    def test_store_checkpoint_and_resume(self, tmp_path):
        config = self._config_path(tmp_path)
        store = str(tmp_path / "runs.jsonl")
        argv = ["run", "--config", config, "--functions", "SetErrorMode",
                "--store", store]
        code, text = _run(argv)
        assert code == 0
        assert "0 cached" in text

        # Without --resume an existing store is refused, not reused.
        code, text = _run(argv)
        assert code == 2
        assert "--resume" in text

        code, text = _run(argv + ["--resume"])
        assert code == 0
        assert "0 executed" in text

    def test_resume_reports_interior_store_corruption(self, tmp_path):
        config = self._config_path(tmp_path)
        store = tmp_path / "runs.jsonl"
        argv = ["run", "--config", config,
                "--functions", "SetErrorMode,CreateEventA",
                "--store", str(store)]
        code, _ = _run(argv)
        assert code == 0

        lines = store.read_text().splitlines()
        assert len(lines) >= 3
        lines[1] = "garbage"  # damage an interior line, not the tail
        store.write_text("\n".join(lines) + "\n")

        code, text = _run(argv + ["--resume"])
        assert code == 0
        assert "1 corrupt mid-file line(s) ignored" in text
        assert "re-execute" in text

    def test_resume_into_sharded_store_directory(self, tmp_path):
        config = self._config_path(tmp_path)
        store = tmp_path / "runs.d"
        argv = ["run", "--config", config, "--functions", "SetErrorMode",
                "--store", str(store)]
        code, _ = _run(argv)
        assert code == 0
        assert (store / "MANIFEST.json").exists()

        code, text = _run(argv + ["--resume"])
        assert code == 0
        assert "0 executed" in text

    def test_resume_without_store_rejected(self, tmp_path):
        code, text = _run(["run", "--config", self._config_path(tmp_path),
                           "--functions", "SetErrorMode", "--resume"])
        assert code == 2
        assert "run store" in text

    def test_prune_equivalent_infers_runs(self, tmp_path):
        from repro.lint.valueflow import EquivalenceManifest

        manifest = EquivalenceManifest([
            {"function": "CreateEventA", "param": 3, "name": "lpName",
             "usage": "optional-deref", "faults": ["ones", "flip"]}])
        path = tmp_path / "equiv.json"
        manifest.save(str(path))
        argv = ["run", "--config", self._config_path(tmp_path),
                "--functions", "CreateEventA",
                "--prune-equivalent", str(path)]
        code, text = _run(argv)
        assert code == 0
        assert "pruned by equivalence: 1 runs inferred" in text
        assert manifest.fingerprint in text
        # The expanded census matches the unpruned distribution.
        full_code, full_text = _run(argv[:-2])
        assert full_code == 0
        assert text.splitlines()[-4:-1] == full_text.splitlines()[-3:]

    def test_prune_equivalent_missing_manifest_exits_two(self, tmp_path):
        code, text = _run(["run", "--config",
                           self._config_path(tmp_path),
                           "--functions", "SetErrorMode",
                           "--prune-equivalent",
                           str(tmp_path / "missing.json")])
        assert code == 2
        assert "equivalence manifest" in text

    def test_execution_section_supplies_defaults(self, tmp_path):
        from repro.core.config import DtsConfig

        store = tmp_path / "cfg-runs.jsonl"
        config = DtsConfig(workload="IIS", jobs=1, store=str(store))
        path = tmp_path / "dts.ini"
        path.write_text(config.to_text())
        code, text = _run(["run", "--config", str(path),
                           "--functions", "SetErrorMode"])
        assert code == 0
        assert store.exists()


class TestRunFaultFamilies:
    def _config_path(self, tmp_path):
        from repro.core.config import DtsConfig

        path = tmp_path / "dts.ini"
        path.write_text(DtsConfig(workload="IIS").to_text())
        return str(path)

    def test_io_family_campaign(self, tmp_path):
        code, text = _run(["run", "--config", self._config_path(tmp_path),
                           "--fault-family", "io"])
        assert code == 0
        assert "IIS / Stand-alone" in text
        assert "activated faults :" in text

    def test_resource_family_campaign(self, tmp_path):
        code, text = _run(["run", "--config", self._config_path(tmp_path),
                           "--fault-family", "resource"])
        assert code == 0
        assert "activated faults :" in text
        assert "failure" in text

    def test_all_families_render_a_comparison(self, tmp_path):
        # --functions restricts only the parameter axis; io/resource
        # enumerate their own default spaces.
        code, text = _run(["run", "--config", self._config_path(tmp_path),
                           "--functions", "SetErrorMode,GetACP",
                           "--fault-family", "all"])
        assert code == 0
        assert "Outcome distributions by fault family" in text
        for family in ("param", "io", "resource"):
            assert f"[{family}] activated faults :" in text

    def test_family_store_checkpoints_and_resumes(self, tmp_path):
        store = tmp_path / "family-runs.jsonl"
        argv = ["run", "--config", self._config_path(tmp_path),
                "--fault-family", "resource", "--store", str(store)]
        code, first = _run(argv)
        assert code == 0
        assert store.exists()
        code, second = _run(argv + ["--resume"])
        assert code == 0
        assert "0 executed" in second

    def test_unknown_family_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            _run(["run", "--config", self._config_path(tmp_path),
                  "--fault-family", "chaos"])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        _run(["explode"])


def test_missing_required_arguments_rejected():
    with pytest.raises(SystemExit):
        _run(["profile"])


CLEAN_MODULE = "def main(ctx):\n    yield from ctx.k32.GetTickCount()\n"


def _reproduce_stubbed(monkeypatch):
    """Skip the suite: ``reproduce`` reports one canned report."""
    monkeypatch.setattr("repro.cli.generate_experiments_report",
                        lambda suite: "# report\n")
    monkeypatch.setattr("repro.cli.shape_checks", lambda suite: [])


@pytest.mark.parametrize("command", [
    ["lint", "--baseline", "none", "--write-baseline"],
    ["lint", "--baseline", "none", "--emit-equivalence"],
    ["lint", "--update-baseline", "--baseline"],
    ["reproduce", "--write-report"],
], ids=["write-baseline", "emit-equivalence", "update-baseline",
        "write-report"])
def test_an_unwritable_output_file_is_one_line_exit_2(tmp_path, monkeypatch,
                                                      command):
    _reproduce_stubbed(monkeypatch)
    module = tmp_path / "clean.py"
    module.write_text(CLEAN_MODULE)
    target = tmp_path / "missing" / "out.json"
    argv = command + [str(target)]
    if command[0] == "lint":
        argv.append(str(module))
    code, out = _run(argv)
    assert code == 2
    assert out == f"cannot write {target}: No such file or directory\n"
    assert "Traceback" not in out


def test_reproduce_writes_the_report_it_prints(tmp_path, monkeypatch):
    _reproduce_stubbed(monkeypatch)
    target = tmp_path / "EXPERIMENTS.md"
    code, out = _run(["reproduce", "--write-report", str(target)])
    assert code == 0
    assert target.read_text() == "# report\n"
    assert out == (f"# report\n\nwrote {target}\n"
                   "shape claims: 0/0 hold\n")


def test_an_unwritable_report_fails_before_the_suite_is_built(tmp_path,
                                                              monkeypatch):
    def no_suite(*args, **kwargs):
        raise AssertionError("the experiment suite was built")

    monkeypatch.setattr("repro.cli.ExperimentSuite", no_suite)
    target = tmp_path / "missing" / "EXPERIMENTS.md"
    code, out = _run(["reproduce", "--write-report", str(target)])
    assert code == 2
    assert out == f"cannot write {target}: No such file or directory\n"


class TestTargetNames:
    """profile, inject and load name workloads and middleware alike."""

    def test_aliases_and_versioned_watchd_are_accepted(self):
        code, text = _run(["profile", "--workload", "iis",
                           "--middleware", "watchd2"])
        assert code == 0
        assert text.startswith("IIS / watchd2: 70 KERNEL32 functions")

    @pytest.mark.parametrize("command", ["profile", "inject", "load"])
    @pytest.mark.parametrize("flags, message", [
        (["--workload", "nginx"], "unknown workload 'nginx'; known: "
                                  "Apache1, Apache2, IIS, SQL, apache, "
                                  "sqlserver\n"),
        (["--workload", "IIS", "--middleware", "warchdog"],
         "unknown middleware 'warchdog'; known: none, mscs, watchd, "
         "watchd1, watchd2, watchd3\n"),
        (["--workload", "IIS", "--middleware", "watchd1",
          "--watchd-version", "2"],
         "middleware watchd1 conflicts with watchd_version 2\n"),
    ], ids=["workload", "middleware", "version"])
    def test_a_bad_name_is_one_line_exit_2(self, command, flags, message):
        argv = [command, *flags]
        if command == "inject":
            argv += ["--fault", "CreateEventA 3 zero 1"]
        code, out = _run(argv)
        assert code == 2
        assert out == message


class TestServeSegments:
    @pytest.fixture
    def daemon_calls(self, monkeypatch):
        calls = []
        monkeypatch.setattr("repro.serve.serve_forever",
                            lambda store, **kwargs: calls.append(
                                (store, kwargs["segments"])) or 0)
        return calls

    @pytest.mark.parametrize("segments", ["0", "-3", "two"])
    def test_segments_must_be_a_count_of_at_least_one(
            self, tmp_path, segments, daemon_calls, capsys):
        with pytest.raises(SystemExit) as exit_info:
            _run(["serve", "--store", str(tmp_path / "srv.d"),
                  "--segments", segments])
        assert exit_info.value.code == 2
        assert "argument --segments" in capsys.readouterr().err
        assert daemon_calls == []

    def test_segments_on_a_single_file_store_is_one_line_exit_2(
            self, tmp_path, daemon_calls):
        store = tmp_path / "srv"
        code, out = _run(["serve", "--store", str(store),
                          "--segments", "4"])
        assert code == 2
        assert out == (f"repro serve: --segments needs a sharded store "
                       f"(a directory or a .d path), not {store}\n")
        assert daemon_calls == []
        code, out = _run(["serve", "--store", f"{store}.d",
                          "--segments", "4"])
        assert code == 0
        assert daemon_calls == [(f"{store}.d", 4)]
