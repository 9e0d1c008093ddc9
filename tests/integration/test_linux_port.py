"""Tests for the Linux port (Section 5's preliminary experiment)."""

import hashlib

import pytest

from repro.core import Campaign, MiddlewareKind, RunConfig, execute_run
from repro.core.faults import FaultSpec, FaultType
from repro.core.outcomes import Outcome
from repro.core.store import RunStore
from repro.nt import Machine
from repro.posix import (
    APACHE1_LINUX,
    APACHE2_LINUX,
    LIBC_REGISTRY,
    PosixContext,
    get_supervisor,
    injectable_libc_signatures,
)


@pytest.fixture(scope="module")
def config():
    return RunConfig(base_seed=3)


class TestLibcRegistry:
    def test_registry_shape(self):
        assert len(LIBC_REGISTRY) > 60
        assert "open" in LIBC_REGISTRY and "waitpid" in LIBC_REGISTRY
        assert LIBC_REGISTRY["read"].param_count == 3

    def test_zero_param_exports_present(self):
        assert not LIBC_REGISTRY["getpid"].injectable
        assert sum(1 for _ in injectable_libc_signatures()) < \
            len(LIBC_REGISTRY)


class TestLibcBehaviour:
    def _run(self, machine, body):
        class Prog:
            image_name = "prog"
            context_class = PosixContext

            def __init__(self):
                self.result = None

            def main(self, ctx):
                self.result = yield from body(ctx)

        program = Prog()
        process = machine.processes.spawn(program, role="t")
        machine.run(until=60.0)
        return process, program

    def test_open_read_close_roundtrip(self):
        machine = Machine(seed=2)
        machine.fs.write_file("/etc/motd", b"welcome")

        def body(ctx):
            from repro.nt.memory import Buffer

            fd = yield from ctx.libc.open("/etc/motd", 0, 0)
            buffer = Buffer(b"\0" * 16)
            got = yield from ctx.libc.read(fd, buffer, 16)
            yield from ctx.libc.close(fd)
            return bytes(buffer.data[:got])

        _, program = self._run(machine, body)
        assert program.result == b"welcome"

    def test_short_read_zeroes_the_rest_of_the_buffer(self):
        machine = Machine(seed=2)
        machine.fs.write_file("/etc/motd", b"abc")

        def body(ctx):
            from repro.nt.memory import Buffer

            fd = yield from ctx.libc.open("/etc/motd", 0, 0)
            buffer = Buffer(b"\xff" * 8)
            got = yield from ctx.libc.read(fd, buffer, 8)
            return got, bytes(buffer.data)

        _, program = self._run(machine, body)
        assert program.result == (3, b"abc" + b"\0" * 5)

    def test_errno_convention(self):
        machine = Machine(seed=2)

        def body(ctx):
            fd = yield from ctx.libc.open("/missing", 0, 0)
            return fd, ctx.process.last_error

        _, program = self._run(machine, body)
        assert program.result == (0xFFFFFFFF, 2)  # -1, ENOENT

    def test_malloc_free_and_double_free_crash(self):
        machine = Machine(seed=2)

        def body(ctx):
            block = yield from ctx.libc.malloc(64)
            yield from ctx.libc.free(block)
            yield from ctx.libc.free(block)  # glibc would abort

        process, _ = self._run(machine, body)
        assert process.crashed

    def test_usleep_infinite_hangs(self):
        machine = Machine(seed=2)

        def body(ctx):
            yield from ctx.libc.usleep(0xFFFFFFFF)
            return "unreachable"

        process, program = self._run(machine, body)
        assert process.alive
        assert program.result is None

    def test_kill_zero_probes_liveness(self):
        machine = Machine(seed=2)

        def body(ctx):
            me = yield from ctx.libc.getpid()
            alive = yield from ctx.libc.kill(me, 0)
            ghost = yield from ctx.libc.kill(99999, 0)
            return alive, ghost

        _, program = self._run(machine, body)
        assert program.result == (0, 0xFFFFFFFF)


class TestInitSupervisor:
    def test_register_start_stop_status(self):
        machine = Machine(seed=2)
        supervisor = get_supervisor(machine)

        class Daemon:
            image_name = "d"

            def main(self, ctx):
                yield from ctx.k32.Sleep(0xFFFFFFF0)

        machine.processes.register_image("d", lambda cmd: Daemon(), role="d")
        supervisor.register("svc", "d")
        assert supervisor.status("svc") is False
        assert supervisor.start("svc")
        assert supervisor.status("svc") is True
        assert not supervisor.start("svc")  # already running
        assert supervisor.stop("svc")
        assert supervisor.status("svc") is False
        assert supervisor.status("ghost") is None


class TestLinuxCampaigns:
    def test_fault_free_profile(self, config):
        result = execute_run(APACHE2_LINUX, MiddlewareKind.NONE, None,
                             config)
        assert result.outcome is Outcome.NORMAL_SUCCESS
        assert "read" in result.called_functions

    def test_master_crash_standalone_fails(self, config):
        fault = FaultSpec("open", 0, FaultType.ONES)  # wild path pointer
        result = execute_run(APACHE1_LINUX, MiddlewareKind.NONE, fault,
                             config)
        assert result.activated
        assert result.outcome is Outcome.FAILURE

    def test_watchd_recovers_master_crash_fast(self, config):
        fault = FaultSpec("open", 0, FaultType.ONES)
        result = execute_run(APACHE1_LINUX, MiddlewareKind.WATCHD, fault,
                             config)
        assert result.outcome is Outcome.RESTART_SUCCESS
        # No SCM Start-Pending lock on Linux: recovery is prompt.
        assert result.response_time < 40.0

    def test_worker_crash_respawned_without_middleware(self, config):
        fault = FaultSpec("read", 1, FaultType.ONES)  # wild read buffer
        result = execute_run(APACHE2_LINUX, MiddlewareKind.NONE, fault,
                             config)
        assert result.activated
        assert result.outcome in (Outcome.NORMAL_SUCCESS,
                                  Outcome.RETRY_SUCCESS)

    def test_mscs_unavailable_on_linux(self, config):
        with pytest.raises(ValueError):
            execute_run(APACHE1_LINUX, MiddlewareKind.MSCS, None, config)

    def test_watchd_improves_linux_apache(self, config):
        standalone = Campaign(APACHE1_LINUX, MiddlewareKind.NONE,
                              config=config).run()
        watched = Campaign(APACHE1_LINUX, MiddlewareKind.WATCHD,
                           config=config).run()
        assert watched.failure_fraction < 0.3 * standalone.failure_fraction
        assert standalone.failure_fraction > 0.2


# sha256 of the run store the Apache1/Apache2-Linux x none/watchd
# campaigns write at seed 2000 (148 lines at either trace level).  The
# traced store records the same results as the untraced one: restarts
# are read from the watchd log at every trace level (the Linux watchd
# emits no mw.restart events).
STORE_SHA256 = {
    "off": "c43b55a5660f812e0d77b100584632b0"
           "0fbe5b3898b55dc441a6893da400b616",
    "full": "dd78027c871135149967e376678dbd80"
            "71a2b1967403664fd740687ba27bfba3",
}


@pytest.mark.parametrize("trace_level", sorted(STORE_SHA256))
def test_linux_campaign_store_bytes_are_pinned(tmp_path, trace_level):
    # libc calls run through the same handler builder as kernel32
    # calls; any drift in what they encode, count, trace or return
    # changes these bytes.
    path = tmp_path / "linux.jsonl"
    config = RunConfig(base_seed=2000, trace_level=trace_level)
    with RunStore(path) as store:
        for spec in (APACHE1_LINUX, APACHE2_LINUX):
            for middleware in (MiddlewareKind.NONE, MiddlewareKind.WATCHD):
                Campaign(spec, middleware, config=config, store=store).run()
    data = path.read_bytes()
    assert data.count(b"\n") == 148
    assert hashlib.sha256(data).hexdigest() == STORE_SHA256[trace_level]


def test_tracing_does_not_change_linux_results():
    """Tracing observes a run without influencing it: a traced Linux
    watchd campaign counts the same restarts as an untraced one."""
    def results(level):
        config = RunConfig(base_seed=2000, trace_level=level)
        return [(str(run.fault), run.outcome, run.restarts_detected)
                for run in Campaign(APACHE1_LINUX, MiddlewareKind.WATCHD,
                                    config=config).run().runs]

    untraced = results("off")
    assert any(restarts for _fault, _outcome, restarts in untraced)
    assert results("outcome") == untraced
