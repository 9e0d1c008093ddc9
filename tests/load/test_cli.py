"""`repro load` CLI: aliases, middleware parsing, sweeps, stores."""

from io import StringIO

import pytest

from repro.cli import main


def run_cli(*argv):
    out = StringIO()
    code = main(["load", *argv], out=out)
    return code, out.getvalue()


class TestWorkloadNames:
    def test_apache_alias_runs_apache1(self):
        code, text = run_cli("--workload", "apache", "--clients", "2")
        assert code == 0
        assert "Figure 4 at scale" in text
        assert "1 load runs" in text

    def test_registry_name_is_accepted_verbatim(self):
        code, text = run_cli("--workload", "Apache1", "--clients", "2")
        assert code == 0

    def test_unknown_workload_exits_2_and_lists_known(self):
        code, text = run_cli("--workload", "nginx", "--clients", "2")
        assert code == 2
        assert "Apache1" in text


class TestMiddlewareParsing:
    def test_watchd1_sets_version(self):
        code, text = run_cli("--workload", "apache", "--clients", "2",
                             "--middleware", "watchd1")
        assert code == 0
        assert "watchd" in text

    def test_bad_middleware_exits_2(self):
        code, text = run_cli("--workload", "apache", "--clients", "2",
                             "--middleware", "warchdog")
        assert code == 2


class TestSweep:
    def test_sweep_runs_one_spec_per_count(self):
        code, text = run_cli("--workload", "apache", "--sweep", "2,3")
        assert code == 0
        assert "2 load runs" in text

    def test_bad_sweep_exits_2(self):
        code, text = run_cli("--workload", "apache", "--sweep", "two,3")
        assert code == 2
        assert "bad --sweep" in text


class TestStore:
    def test_second_invocation_is_served_from_cache(self, tmp_path):
        store = str(tmp_path / "runs.jsonl")
        code, text = run_cli("--workload", "apache", "--clients", "2",
                             "--store", store)
        assert code == 0
        assert "1 executed" in text
        code, text = run_cli("--workload", "apache", "--clients", "2",
                             "--store", store, "--resume")
        assert code == 0
        assert "1 cached" in text
        assert "0 executed" in text

    def test_existing_store_without_resume_exits_2(self, tmp_path):
        store = str(tmp_path / "runs.jsonl")
        code, _ = run_cli("--workload", "apache", "--clients", "2",
                          "--store", store)
        assert code == 0
        code, text = run_cli("--workload", "apache", "--clients", "2",
                             "--store", store)
        assert code == 2
        assert "--resume" in text


class TestModes:
    def test_open_loop_flag_is_accepted(self):
        code, text = run_cli("--workload", "apache", "--clients", "2",
                             "--mode", "open", "--arrival-rate", "4.0")
        assert code == 0

    def test_bad_client_count_exits_2(self):
        code, text = run_cli("--workload", "apache", "--clients", "0")
        assert code == 2
        assert "clients" in text

    def test_non_finite_think_time_exits_2(self):
        code, text = run_cli("--workload", "apache", "--clients", "2",
                             "--think-time", "nan")
        assert code == 2
        assert "think_time must be finite" in text


def test_trace_level_is_not_a_load_option(capsys):
    """Load runs are recorded untraced; the option is a usage error
    rather than a flag that is parsed and ignored."""
    with pytest.raises(SystemExit) as exit_info:
        run_cli("--workload", "apache", "--clients", "2",
                "--trace-level", "outcome")
    assert exit_info.value.code == 2
    assert "--trace-level" in capsys.readouterr().err
