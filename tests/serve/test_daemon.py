"""End-to-end tests for the ``repro serve`` daemon.

Two tiers: in-process servers on an ephemeral port for the HTTP
surface, and a real subprocess that gets SIGKILLed mid-campaign to
prove the restart-resumes contract — a daemon restarted on the same
sharded store directory must finish with results byte-identical to an
uninterrupted serial single-file run.
"""

import io
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.cli import CliError, main
from repro.core.campaign import Campaign
from repro.core.exec import SerialBackend
from repro.core.runner import RunConfig
from repro.core.store import RunStore, ShardedRunStore
from repro.core.workload import MiddlewareKind
from repro.load import LoadSpec
from repro.serve import ReproServer, serve_forever
from repro.serve.jobs import JobQueue

FUNCTIONS = ["SetErrorMode", "CreateEventA", "CreateFileA", "ReadFile"]
CAMPAIGN = {"kind": "campaign", "workload": "IIS",
            "functions": FUNCTIONS, "base_seed": 2000}


def _request(base, method, path, body=None):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(base + path, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, response.read().decode("utf-8")


def _wait_for_state(base, job_id, states=("done", "failed", "cancelled"),
                    timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, body = _request(base, "GET", f"/campaigns/{job_id}")
        status = json.loads(body)
        if status["state"] in states:
            return status
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never reached {states}")


@pytest.fixture()
def server(tmp_path):
    store = ShardedRunStore(tmp_path / "store.d", segments=4)
    instance = ReproServer(("127.0.0.1", 0), store, jobs=2)
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    yield instance
    instance.close()
    thread.join(timeout=10)


# ----------------------------------------------------------------------
# The HTTP surface (in-process)
# ----------------------------------------------------------------------
def test_healthz(server):
    status, body = _request(server.url, "GET", "/healthz")
    assert status == 200
    health = json.loads(body)
    assert health["ok"] is True
    assert health["jobs"] == 0


def test_campaign_over_http_executes_and_caches(server):
    status, body = _request(server.url, "POST", "/campaigns", CAMPAIGN)
    assert status == 201
    submitted = json.loads(body)
    assert submitted["id"] == "job-1"

    final = _wait_for_state(server.url, "job-1")
    assert final["state"] == "done"
    assert final["progress"]["executed"] > 0
    assert final["progress"]["cached"] == 0

    # Streamed results: one JSONL line per checkpointed run.
    status, body = _request(server.url, "GET", "/campaigns/job-1/results")
    assert status == 200
    lines = [json.loads(line) for line in body.splitlines() if line]
    assert len(lines) == final["progress"]["executed"]
    assert {line["fp"] for line in lines} == set(final["fingerprints"])
    keys = [line["key"] for line in lines]
    assert keys == sorted(keys)
    assert "profile" in keys

    # An overlapping second campaign dedups through the shared store.
    _request(server.url, "POST", "/campaigns", CAMPAIGN)
    second = _wait_for_state(server.url, "job-2")
    assert second["state"] == "done"
    assert second["progress"]["executed"] == 0
    assert second["progress"]["cached"] == final["progress"]["executed"]

    status, body = _request(server.url, "GET", "/campaigns")
    assert [job["id"] for job in json.loads(body)["jobs"]] == \
        ["job-1", "job-2"]


def test_cancel_over_http(server):
    _request(server.url, "POST", "/campaigns", CAMPAIGN)
    blocked = dict(CAMPAIGN, functions=["WaitForSingleObject"])
    _request(server.url, "POST", "/campaigns", blocked)
    status, body = _request(server.url, "DELETE", "/campaigns/job-2")
    assert status == 200
    assert json.loads(body)["state"] in ("cancelled", "queued")
    final = _wait_for_state(server.url, "job-2")
    assert final["state"] == "cancelled"
    _wait_for_state(server.url, "job-1")


@pytest.mark.parametrize("method, path, body, code, fragment", [
    ("POST", "/campaigns", {"workload": "NoSuchServer"}, 400,
     "unknown workload"),
    ("POST", "/campaigns", {"workload": "IIS", "mechanism": "voltage"},
     400, "unknown mechanism"),
    ("POST", "/campaigns/job-1", {"workload": "IIS"}, 404, "endpoint"),
    ("GET", "/campaigns/job-9", None, 404, "no such job"),
    ("GET", "/campaigns/job-9/results", None, 404, "no such job"),
    ("GET", "/nope", None, 404, "endpoint"),
    ("DELETE", "/campaigns", None, 404, "endpoint"),
    ("DELETE", "/campaigns/job-9", None, 404, "no such job"),
    ("POST", "/campaigns", {"workload": "IIS", "mechanism": "io",
                            "functions": ["NoSuchOp"]},
     400, "unknown io op 'NoSuchOp'"),
    ("POST", "/campaigns", {"workload": "IIS",
                            "functions": ["ReadFil"]},
     400, "unknown export 'ReadFil' (did you mean 'ReadFile'?)"),
    ("POST", "/campaigns", {"workload": "IIS", "mechanism": "resource",
                            "functions": ["disk"]},
     400, "unknown resource 'disk'"),
    ("POST", "/campaigns",
     {"kind": "load", "spec": dict(
         LoadSpec("IIS").to_dict(),
         fault={"mechanism": "parameter", "function": "NoSuch",
                "param_index": 9, "fault_type": "zero", "invocation": 1})},
     400, "bad load spec: unknown export 'NoSuch'"),
    # A field the spec does not have bounces instead of being dropped
    # (which would run a campaign other than the one asked for).
    ("POST", "/campaigns", {"workload": "IIS", "invocations": [0],
                            "functions": ["SetErrorMode"]},
     400, "unknown field(s) 'invocations'"),
    ("POST", "/campaigns", {"workload": "IIS", "fault_types": ["bogus"],
                            "functions": ["SetErrorMode"]},
     400, "unknown field(s) 'fault_types'"),
    ("POST", "/campaigns",
     {"kind": "load", "spec": LoadSpec("IIS").to_dict(), "clients": 5},
     400, "unknown field(s) 'clients'"),
    # A bare string is not iterated one character at a time.
    ("POST", "/campaigns", {"workload": "IIS", "functions": "SetErrorMode"},
     400, "functions must be a list of strings"),
])
def test_http_error_paths(server, method, path, body, code, fragment):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _request(server.url, method, path, body)
    assert excinfo.value.code == code
    assert fragment in excinfo.value.read().decode("utf-8")


def test_post_rejects_junk_bodies(server):
    request = urllib.request.Request(
        server.url + "/campaigns", data=b"{not json", method="POST")
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    assert excinfo.value.code == 400
    assert "JSON" in excinfo.value.read().decode("utf-8")


def test_post_answers_deeply_nested_json_with_400(server):
    """Nesting past the parser's recursion limit raises RecursionError,
    not ValueError; it still gets a 400, not a dropped connection."""
    request = urllib.request.Request(
        server.url + "/campaigns", data=b"[" * 100_000, method="POST")
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    assert excinfo.value.code == 400
    assert "body is not valid JSON" in excinfo.value.read().decode("utf-8")
    assert _request(server.url, "GET", "/healthz")[0] == 200


@pytest.mark.parametrize("kind", [[], {}], ids=["list", "object"])
def test_post_with_a_non_string_kind_is_a_400(server, kind):
    """An unhashable ``kind`` bounces like any unknown kind instead of
    dropping the connection, and the daemon keeps answering."""
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _request(server.url, "POST", "/campaigns", {"kind": kind})
    assert excinfo.value.code == 400
    assert "unknown kind" in excinfo.value.read().decode("utf-8")
    assert _request(server.url, "GET", "/healthz")[0] == 200


# ----------------------------------------------------------------------
# Kill -9 and restart on the same store (real subprocess)
# ----------------------------------------------------------------------
def _spawn_daemon(store_path):
    env = dict(os.environ)
    root = Path(__file__).resolve().parents[2]
    env["PYTHONPATH"] = str(root / "src")
    # A session of its own makes the daemon a process-group leader, so
    # one killpg reaches its forked pool workers too.
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--store",
         str(store_path), "--port", "0", "--jobs", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, cwd=str(root), start_new_session=True)
    banner = process.stdout.readline()
    assert "listening on" in banner, banner
    url = banner.split("listening on ", 1)[1].split(" ")[0]
    return process, url


@pytest.mark.parametrize("name", ["x.d", "x.jsonl"])
def test_serve_with_an_unusable_store_exits_2(tmp_path, name):
    """The store is created before the socket is bound: a path under a
    regular file is one line and exit 2, never a listening daemon."""
    (tmp_path / "f").write_text("")
    store_path = tmp_path / "f" / name
    env = dict(os.environ)
    root = Path(__file__).resolve().parents[2]
    env["PYTHONPATH"] = str(root / "src")
    done = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--store",
         str(store_path), "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, cwd=str(root), timeout=60)
    assert done.returncode == 2, done.stdout
    lines = done.stdout.splitlines()
    assert len(lines) == 1, done.stdout
    assert lines[0].startswith(
        f"repro serve: cannot open store {store_path}: ")
    assert "listening" not in done.stdout


@pytest.mark.parametrize("manifest", [
    '{"format": 3, "segm', '{"format": 3}', '{"format": 3, "segments": 0}',
], ids=["torn", "no-segments", "zero"])
def test_serve_with_a_bad_manifest_exits_2_before_listening(tmp_path,
                                                            manifest):
    store_path = tmp_path / "s.d"
    store_path.mkdir()
    (store_path / "MANIFEST.json").write_text(manifest)
    out = io.StringIO()

    def ready(server):
        server.server_close()
        raise AssertionError("the daemon got as far as listening")

    with pytest.raises(CliError) as refusal:
        serve_forever(str(store_path), out=out, ready=ready)
    assert refusal.value.code == 2
    assert out.getvalue() == ""
    message = str(refusal.value)
    assert len(message.splitlines()) == 1, message
    assert message.startswith(
        f"repro serve: cannot open store {store_path}: ")
    assert "MANIFEST.json" in message


def test_serve_with_zero_segments_exits_2_before_listening(tmp_path):
    """``--segments 0`` is the constructor's error, not the default."""
    store_path = tmp_path / "s.d"
    out = io.StringIO()

    def ready(server):
        server.server_close()
        raise AssertionError("the daemon got as far as listening")

    with pytest.raises(CliError) as refusal:
        serve_forever(str(store_path), segments=0, out=out, ready=ready)
    assert refusal.value.code == 2
    assert str(refusal.value) == (
        f"repro serve: cannot open store {store_path}: "
        "segments must be >= 1, got 0")
    assert out.getvalue() == ""
    assert not store_path.exists()


@pytest.mark.parametrize("port", ["99999", "65536", "-1"])
def test_serve_with_an_out_of_range_port_is_a_usage_error(tmp_path, port,
                                                          capsys):
    """argparse rejects the port before the store is touched."""
    store_path = tmp_path / "s.d"
    with pytest.raises(SystemExit) as exit_info:
        main(["serve", "--store", str(store_path), "--port", port])
    assert exit_info.value.code == 2
    assert "argument --port" in capsys.readouterr().err
    assert not store_path.exists()


def test_serve_on_a_port_in_use_exits_2_and_closes_the_store(tmp_path,
                                                             monkeypatch):
    closed = []
    for owner in (ShardedRunStore, JobQueue):
        def closing(self, *args, _close=owner.close, **kwargs):
            closed.append(type(self))
            _close(self, *args, **kwargs)

        monkeypatch.setattr(owner, "close", closing)
    store_path = tmp_path / "s.d"
    out = io.StringIO()

    def ready(server):
        server.server_close()
        raise AssertionError("the daemon got as far as listening")

    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        with pytest.raises(CliError) as refusal:
            serve_forever(str(store_path), port=port, out=out, ready=ready)
    assert refusal.value.code == 2
    assert out.getvalue() == ""
    message = str(refusal.value)
    assert len(message.splitlines()) == 1, message
    assert message.startswith(
        f"repro serve: cannot listen on 127.0.0.1:{port}: ")
    assert closed == [JobQueue, ShardedRunStore]


def _live_group_members(pgid):
    """Pids in process group ``pgid`` that have not exited (zombies
    awaiting a reaper have)."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # exited while we looked
        # "pid (comm) state ppid pgrp ...": comm may hold spaces.
        state, _ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            members.append(int(entry.name))
    return members


def _kill_daemon(process):
    """SIGKILL the daemon and its pool workers; none may survive."""
    os.killpg(process.pid, signal.SIGKILL)
    process.wait(timeout=30)
    process.stdout.close()
    deadline = time.monotonic() + 30.0
    while _live_group_members(process.pid):
        assert time.monotonic() < deadline, \
            f"daemon group survived SIGKILL: {_live_group_members(process.pid)}"
        time.sleep(0.05)


def test_killed_daemon_restarts_and_resumes(tmp_path):
    """SIGKILL the daemon mid-wave; a restart on the same sharded store
    finishes the campaign byte-identical to an uninterrupted serial
    run into a single-file store."""
    # The uninterrupted serial reference.
    reference_path = tmp_path / "reference.jsonl"
    with RunStore(reference_path) as reference:
        Campaign("IIS", MiddlewareKind.NONE, functions=FUNCTIONS,
                 config=RunConfig(base_seed=2000), store=reference,
                 backend=SerialBackend()).run()
    reference_lines = sorted(
        line + "\n" for line in reference_path.read_text().splitlines())

    store_path = tmp_path / "store.d"
    process, url = _spawn_daemon(store_path)
    try:
        _request(url, "POST", "/campaigns", CAMPAIGN)
        # Let it checkpoint a few runs, then kill -9 mid-campaign.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            done = json.loads(
                _request(url, "GET", "/campaigns/job-1")[1])["progress"]["done"]
            if done >= 2:
                break
            time.sleep(0.02)
        assert done >= 2, "campaign never started executing"
    finally:
        _kill_daemon(process)

    with ShardedRunStore(store_path) as interrupted:
        survivors = len(interrupted)
    assert 0 < survivors < len(reference_lines), \
        "kill landed before any checkpoint or after the whole campaign"

    # Restart on the same store; the resubmitted spec resumes.
    process, url = _spawn_daemon(store_path)
    try:
        _request(url, "POST", "/campaigns", CAMPAIGN)
        final = _wait_for_state(url, "job-1")
        assert final["state"] == "done"
        assert final["progress"]["cached"] >= survivors - 1
        assert final["progress"]["executed"] <= \
            len(reference_lines) - survivors + 1
    finally:
        _kill_daemon(process)

    # Byte-identity: the merged sharded store equals the sorted serial
    # single-file store, line for line.
    with ShardedRunStore(store_path) as store:
        merged = store.merge_to(tmp_path / "merged.jsonl")
    assert merged.read_text() == "".join(reference_lines)
