"""Unit tests for the main configuration file."""

import io

import pytest

from repro.cli import build_parser, main
from repro.cli import _target as cli_target
from repro.core.config import KEYS, DtsConfig
from repro.core.store import RunStore, config_fingerprint
from repro.core.workload import MiddlewareKind


def test_defaults():
    config = DtsConfig()
    assert config.workload == "Apache1"
    assert config.middleware is MiddlewareKind.NONE
    assert config.watchd_version == 3
    assert config.cpu_mhz == 100          # the paper's primary testbed


def test_text_roundtrip():
    original = DtsConfig(workload="SQL", middleware=MiddlewareKind.WATCHD,
                         watchd_version=2,
                         base_seed=7, server_up_timeout=50.0,
                         client_timeout=120.0, cpu_mhz=400)
    parsed = DtsConfig.from_text(original.to_text())
    assert parsed.workload == "SQL"
    assert parsed.middleware is MiddlewareKind.WATCHD
    assert parsed.watchd_version == 2
    assert parsed.base_seed == 7
    assert parsed.server_up_timeout == 50.0
    assert parsed.client_timeout == 120.0
    assert parsed.cpu_mhz == 400


def test_file_roundtrip(tmp_path):
    path = tmp_path / "dts.ini"
    path.write_text(DtsConfig(workload="IIS").to_text())
    assert DtsConfig.from_file(path).workload == "IIS"


def test_partial_file_uses_defaults():
    config = DtsConfig.from_text("[dts]\nworkload = IIS\n")
    assert config.workload == "IIS"
    assert config.middleware is MiddlewareKind.NONE
    assert config.client_timeout == 240.0


def test_run_config_propagation():
    config = DtsConfig(base_seed=99, watchd_version=2, cpu_mhz=400)
    run_config = config.run_config()
    assert run_config.base_seed == 99
    assert run_config.watchd_version == 2
    assert run_config.cpu_mhz == 400


def test_workload_spec_resolution():
    assert DtsConfig(workload="SQL").workload_spec().name == "SQL"
    with pytest.raises(KeyError):
        DtsConfig(workload="Netscape").workload_spec()


def test_execution_defaults():
    config = DtsConfig()
    assert config.jobs == 1
    assert config.store is None


def test_execution_section_roundtrip():
    original = DtsConfig(workload="IIS", jobs=4, store="runs.jsonl")
    parsed = DtsConfig.from_text(original.to_text())
    assert parsed.jobs == 4
    assert parsed.store == "runs.jsonl"


def test_missing_execution_section_uses_defaults():
    config = DtsConfig.from_text("[dts]\nworkload = IIS\n")
    assert config.jobs == 1
    assert config.store is None


def test_empty_store_value_means_none():
    config = DtsConfig.from_text("[execution]\njobs = 2\nstore =\n")
    assert config.jobs == 2
    assert config.store is None


def test_bad_middleware_rejected():
    with pytest.raises(ValueError):
        DtsConfig.from_text("[dts]\nmiddleware = chaosmonkey\n")


def test_every_key_round_trips_through_the_one_table():
    original = DtsConfig(workload="SQL", middleware=MiddlewareKind.MSCS,
                         watchd_version=1, base_seed=11,
                         server_up_timeout=1234567.5, client_timeout=0.25,
                         cpu_mhz=400, jobs=3, store="s.jsonl",
                         trace_level="calls")
    text = original.to_text()
    assert [line.split(" = ")[0] for line in text.splitlines()
            if " = " in line] == [key for _section, key, *_ in KEYS]
    parsed = DtsConfig.from_text(text)
    assert parsed.to_text() == text
    assert ({attribute: getattr(parsed, attribute)
             for _section, _key, attribute, _kind in KEYS}
            == {attribute: getattr(original, attribute)
                for _section, _key, attribute, _kind in KEYS})


def test_iis_under_watchd2_runs_with_the_cli_fingerprint(tmp_path):
    path = tmp_path / "dts.ini"
    path.write_text("[dts]\nworkload = iis\nmiddleware = watchd2\n")
    store = tmp_path / "runs.jsonl"
    out = io.StringIO()
    code = main(["run", "--config", str(path), "--functions",
                 "SetErrorMode", "--store", str(store)], out=out)
    assert code == 0, out.getvalue()
    flags = build_parser().parse_args(
        ["profile", "--workload", "IIS", "--middleware", "watchd",
         "--watchd-version", "2"])
    with RunStore(store) as runs:
        assert {fp for fp, _key in runs.keys()} == {
            config_fingerprint(*cli_target(flags))}
