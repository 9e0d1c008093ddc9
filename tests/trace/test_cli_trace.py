"""The ``repro trace`` subcommand and the ``--trace-level`` flags."""

import io

import pytest

from repro.cli import main
from repro.core.config import DtsConfig
from repro.trace import TraceLevel


KEY = "param:SetErrorMode:0:zero:1"


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def small_store(tmp_path_factory):
    base = tmp_path_factory.mktemp("trace-cli")
    config = DtsConfig(workload="IIS", trace_level="outcome")
    ini = base / "dts.ini"
    ini.write_text(config.to_text(), encoding="ascii")
    store = base / "runs.jsonl"
    code, text = run_cli("run", "--config", str(ini), "--store", str(store),
                         "--functions", "SetErrorMode")
    assert code == 0, text
    return store


def test_trace_listing_names_every_stored_run(small_store):
    code, text = run_cli("trace", str(small_store))
    assert code == 0
    assert KEY in text
    assert "profile" in text
    assert "outcome" in text and "untraced" not in text


def test_trace_listing_reports_corrupt_lines(small_store, tmp_path):
    lines = small_store.read_text().splitlines()
    assert len(lines) >= 3
    lines[1] = "garbage"  # an interior line, not a torn tail
    damaged = tmp_path / "damaged.jsonl"
    damaged.write_text("\n".join(lines) + "\n")
    code, text = run_cli("trace", str(damaged))
    assert code == 1
    assert f"{len(lines) - 1} stored runs" in text
    assert "1 corrupt mid-file line(s) ignored" in text


def test_trace_timeline_renders_schema_events(small_store):
    code, text = run_cli("trace", str(small_store), KEY)
    assert code == 0
    assert "run.start" in text and "run.end" in text
    assert "fault.armed" in text


def test_trace_metrics_view(small_store):
    code, text = run_cli("trace", str(small_store), KEY, "--metrics")
    assert code == 0
    assert "activated function" in text
    assert "restarts" in text and "outcome" in text


def test_trace_diff_of_identical_run_reports_identity(small_store):
    code, text = run_cli("trace", str(small_store), KEY, "--diff", KEY)
    assert code == 0
    assert "identical" in text


def test_trace_diff_of_distinct_runs_finds_divergence(small_store):
    other = "param:SetErrorMode:0:ones:1"
    code, text = run_cli("trace", str(small_store), KEY, "--diff", other)
    assert code == 1
    assert "diverge" in text


def test_trace_errors_are_clean(small_store, tmp_path):
    code, text = run_cli("trace", str(tmp_path / "missing.jsonl"))
    assert code == 2 and "no such run store" in text
    code, text = run_cli("trace", str(small_store), "param:NoSuch:0:zero:1")
    assert code == 1 and "no stored run" in text


def test_inject_prints_timeline_when_traced():
    code, text = run_cli("inject", "--workload", "IIS",
                         "--fault", "SetErrorMode 0 zero 1",
                         "--trace-level", "calls")
    assert code == 0
    assert "run.start" in text and "call.enter" in text

    code, text = run_cli("inject", "--workload", "IIS",
                         "--fault", "SetErrorMode 0 zero 1")
    assert code == 0
    assert "run.start" not in text  # untraced by default


def test_config_trace_section_round_trips():
    config = DtsConfig(trace_level="calls")
    parsed = DtsConfig.from_text(config.to_text())
    assert parsed.trace_level is TraceLevel.CALLS
    assert parsed.run_config().trace_level is TraceLevel.CALLS
    # Absent section defaults to off.
    assert DtsConfig.from_text("[dts]\nworkload = IIS\n").trace_level \
        is TraceLevel.OFF
