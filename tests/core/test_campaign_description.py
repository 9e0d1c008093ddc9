"""One campaign description, three encodings.

A campaign's target and run settings can be written as CLI flags, as
the DTS main configuration file or as a daemon spec.  Each is a thin
encoding over ``resolve_workload``/``resolve_middleware`` and
``RunConfig``: the same campaign gets the same store fingerprint
whichever way it is written, and a bad value is refused by each of
them (exit 2, HTTP 400, ValueError) with the core's message.
"""

import io
import json
import threading
import urllib.error
import urllib.request

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cli import _target as cli_target
from repro.cli import build_parser, main
from repro.core.config import DtsConfig
from repro.core.runner import RunConfig
from repro.core.store import ShardedRunStore, config_fingerprint
from repro.core.workload import (
    MiddlewareKind,
    resolve_middleware,
    resolve_workload,
)
from repro.load import LoadSpec
from repro.serve import ReproServer, spec_from_dict

# The naming rule, spelled out independently of the resolvers.
CANONICAL = {"apache1": "Apache1", "apache2": "Apache2", "iis": "IIS",
             "sql": "SQL", "apache": "Apache1", "sqlserver": "SQL"}
CASES = (str, str.lower, str.upper, str.swapcase)


def ini_fingerprint(text: str) -> str:
    config = DtsConfig.from_text(text)
    return config_fingerprint(config.workload, config.middleware,
                              config.run_config())


def spec_fingerprint(body: dict) -> str:
    return spec_from_dict(body).fingerprint()


def flags_fingerprint(argv) -> str:
    return config_fingerprint(*cli_target(
        build_parser().parse_args(["profile", *argv])))


@st.composite
def targets(draw):
    workload = draw(st.sampled_from(sorted(CANONICAL)))
    middleware = draw(st.sampled_from(
        ("none", "mscs", "watchd", "watchd1", "watchd2", "watchd3")))
    implied = middleware[6:] or None
    version = (draw(st.sampled_from((None, int(implied)))) if implied
               else draw(st.sampled_from((None, 1, 2, 3))))
    return dict(
        workload=draw(st.sampled_from(CASES))(workload),
        middleware=draw(st.sampled_from(CASES))(middleware),
        watchd_version=version,
        base_seed=draw(st.integers(min_value=0, max_value=2**40)),
        trace_level=draw(st.sampled_from(("off", "outcome", "calls",
                                          "full"))),
        server_up_timeout=draw(st.floats(min_value=0.5, max_value=1e4)),
        client_timeout=draw(st.floats(min_value=0.5, max_value=1e4)),
        cpu_mhz=draw(st.integers(min_value=1, max_value=4000)))


def _ini(target, run_settings=True) -> str:
    lines = ["[dts]", f"workload = {target['workload']}",
             f"middleware = {target['middleware']}",
             f"base_seed = {target['base_seed']}"]
    if target["watchd_version"] is not None:
        lines.append(f"watchd_version = {target['watchd_version']}")
    if run_settings:
        lines += ["[timeouts]",
                  f"server_up = {target['server_up_timeout']!r}",
                  f"client = {target['client_timeout']!r}",
                  "[machine]", f"cpu_mhz = {target['cpu_mhz']}"]
    lines += ["[trace]", f"level = {target['trace_level']}"]
    return "\n".join(lines) + "\n"


@given(target=targets())
def test_every_encoding_gives_the_same_fingerprint(target):
    lowered = target["middleware"].lower()
    kind = MiddlewareKind(lowered.rstrip("123"))
    version = (int(lowered[6:]) if lowered[6:]
               else target["watchd_version"] or 3)
    workload = CANONICAL[target["workload"].lower()]
    expected = config_fingerprint(workload, kind, RunConfig(
        base_seed=target["base_seed"], watchd_version=version,
        server_up_timeout=target["server_up_timeout"],
        client_timeout=target["client_timeout"],
        cpu_mhz=target["cpu_mhz"]))
    assert ini_fingerprint(_ini(target)) == expected

    # The flags and the daemon spec carry no timeouts or clock rate.
    expected = config_fingerprint(workload, kind, RunConfig(
        base_seed=target["base_seed"], watchd_version=version))
    body = {name: target[name] for name in
            ("workload", "middleware", "base_seed", "trace_level")}
    argv = ["--workload", target["workload"],
            "--middleware", target["middleware"],
            "--seed", str(target["base_seed"]),
            "--trace-level", target["trace_level"]]
    if target["watchd_version"] is not None:
        body["watchd_version"] = target["watchd_version"]
        argv += ["--watchd-version", str(target["watchd_version"])]
    assert ini_fingerprint(_ini(target, run_settings=False)) == expected
    assert spec_fingerprint(body) == expected
    assert flags_fingerprint(argv) == expected


# ----------------------------------------------------------------------
# Fingerprints recorded before the encodings shared one description
# ----------------------------------------------------------------------
@pytest.mark.parametrize("ini, body, flags, fingerprint", [
    ("", {"workload": "Apache1"}, ["--workload", "apache"],
     "55c1051505ebf7e4"),
    ("[dts]\nworkload = apache\nmiddleware = watchd1\n",
     {"workload": "Apache1", "middleware": "watchd", "watchd_version": 1},
     ["--workload", "Apache1", "--middleware", "watchd1"],
     "464649ce41cf9440"),
    ("[dts]\nworkload = iis\nmiddleware = watchd2\n",
     {"workload": "IIS", "middleware": "WATCHD", "watchd_version": 2},
     ["--workload", "IIS", "--middleware", "watchd", "--watchd-version",
      "2"],
     "d80b2aada9af5804"),
    ("[dts]\nworkload = sqlserver\nmiddleware = MSCS\nbase_seed = 7\n",
     {"workload": "sql", "middleware": "mscs", "base_seed": 7},
     ["--workload", "SQL", "--middleware", "mscs", "--seed", "7"],
     "6bf48b941af43887"),
    ("[dts]\nworkload = Apache2\nmiddleware = watchd\nbase_seed = 99\n"
     "[timeouts]\nserver_up = 50\nclient = 120\n[machine]\ncpu_mhz = 400\n",
     None, None, "5570b1a594a6c379"),
], ids=["default", "watchd1", "watchd2", "mscs", "timeouts-cpu"])
def test_recorded_fingerprints(ini, body, flags, fingerprint):
    assert ini_fingerprint(ini) == fingerprint
    if body is not None:
        assert spec_fingerprint(body) == fingerprint
        assert flags_fingerprint(flags) == fingerprint


def test_recorded_fingerprints_of_other_run_kinds():
    assert spec_fingerprint({"workload": "iis", "mechanism": "io"}) == \
        config_fingerprint("IIS", MiddlewareKind.NONE, RunConfig(), "io") == \
        "c4e9c6b1472c8ac2"
    load = LoadSpec("IIS", MiddlewareKind.WATCHD, clients=5, iterations=2)
    spec = spec_from_dict({"kind": "load", "spec": dict(
        load.to_dict(), workload="iis", middleware="watchd2")})
    assert spec.load.fingerprint(spec.run_config()) == \
        load.fingerprint(RunConfig(watchd_version=2)) == "86bf83860e935c42"


# ----------------------------------------------------------------------
# A bad value is refused at every boundary that can express it
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    store = ShardedRunStore(tmp_path_factory.mktemp("serve") / "s.d",
                            segments=2)
    server = ReproServer(("127.0.0.1", 0), store, jobs=1)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.close()
    thread.join(timeout=10)


def _post(server, body):
    request = urllib.request.Request(
        server.url + "/campaigns", data=json.dumps(body).encode("utf-8"),
        method="POST", headers={"Content-Type": "application/json"})
    with pytest.raises(urllib.error.HTTPError) as refusal:
        urllib.request.urlopen(request, timeout=30)
    return refusal.value.code, json.loads(refusal.value.read())["error"]


def _core(workload="IIS", middleware="none", watchd_version=None,
          **run_settings):
    kind, version = resolve_middleware(middleware, watchd_version)
    return (resolve_workload(workload), kind,
            RunConfig(watchd_version=version, **run_settings))


# (core call, INI text, daemon fields, flags, message); None where a
# boundary has no way to say it.
BAD_VALUES = {
    "watchd-version": (
        dict(middleware="watchd", watchd_version=7),
        "[dts]\nmiddleware = watchd\nwatchd_version = 7\n",
        {"middleware": "watchd", "watchd_version": 7},
        ["--middleware", "watchd", "--watchd-version", "7"],
        "watchd_version must be 1, 2 or 3, got 7"),
    "watchd-suffix": (
        dict(middleware="watchd0"), "[dts]\nmiddleware = watchd0\n",
        {"middleware": "watchd0"}, ["--middleware", "watchd0"],
        "watchd_version must be 1, 2 or 3, got 0"),
    "conflict": (
        dict(middleware="watchd1", watchd_version=2),
        "[dts]\nmiddleware = watchd1\nwatchd_version = 2\n",
        {"middleware": "watchd1", "watchd_version": 2},
        ["--middleware", "watchd1", "--watchd-version", "2"],
        "middleware watchd1 conflicts with watchd_version 2"),
    "workload": (
        dict(workload="nginx"), "[dts]\nworkload = nginx\n",
        {"workload": "nginx"}, ["--workload", "nginx"],
        "unknown workload 'nginx'; known: Apache1, Apache2, IIS, SQL, "
        "apache, sqlserver"),
    "middleware": (
        dict(middleware="warchdog"), "[dts]\nmiddleware = warchdog\n",
        {"middleware": "warchdog"}, ["--middleware", "warchdog"],
        "unknown middleware 'warchdog'; known: none, mscs, watchd, "
        "watchd1, watchd2, watchd3"),
    "seed": (
        dict(base_seed=2.5), "[dts]\nbase_seed = 2.5\n",
        {"base_seed": 2.5}, None, "base_seed must be an integer, got "),
    "trace-level": (
        dict(trace_level="loud"), "[trace]\nlevel = loud\n",
        {"trace_level": "loud"}, None, "unknown trace_level 'loud'"),
    "cpu-mhz": (
        dict(cpu_mhz=0), "[machine]\ncpu_mhz = 0\n", None, None,
        "cpu_mhz must be >= 1, got 0"),
    "client-nan": (
        dict(client_timeout=float("nan")), "[timeouts]\nclient = nan\n",
        None, None, "client_timeout must be finite, got nan"),
    "client-inf": (
        dict(client_timeout=float("inf")), "[timeouts]\nclient = inf\n",
        None, None, "client_timeout must be finite, got inf"),
    "server-up-negative": (
        dict(server_up_timeout=-5.0), "[timeouts]\nserver_up = -5\n",
        None, None, "server_up_timeout must be > 0, got -5.0"),
    "server-up-zero": (
        dict(server_up_timeout=0.0), "[timeouts]\nserver_up = 0\n",
        None, None, "server_up_timeout must be > 0, got 0.0"),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_a_bad_value_is_refused_at_every_boundary(case, tmp_path, daemon):
    core, ini, fields, flags, message = BAD_VALUES[case]
    with pytest.raises(ValueError) as refusal:
        _core(**core)
    assert str(refusal.value).startswith(message)

    path = tmp_path / "dts.ini"
    path.write_text(ini)
    out = io.StringIO()
    assert main(["run", "--config", str(path)], out=out) == 2
    assert out.getvalue().startswith(f"bad --config {path}: {message}")
    assert out.getvalue().count("\n") == 1

    if fields is not None:
        code, error = _post(daemon, dict({"workload": "IIS"}, **fields))
        assert code == 400
        assert error.startswith(message)
    if flags is not None:
        out = io.StringIO()
        argv = ["profile", "--workload", "IIS", *flags]
        if "--workload" in flags:
            argv = ["profile", *flags]
        assert main(argv, out=out) == 2
        assert out.getvalue().startswith(message)
        assert out.getvalue().count("\n") == 1
