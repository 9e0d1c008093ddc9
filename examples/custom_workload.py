#!/usr/bin/env python
"""Plugging a custom workload into DTS (the Section-5 plugin seam).

Defines a tiny "echo" server application from scratch — its own NT
service program with its own kernel32 call profile, a matching client
— registers it as a workload, and runs a fault campaign against it,
exactly as one would test in-house server software with the real tool.

Run:  python examples/custom_workload.py
"""

from repro.analysis import OutcomeDistribution
from repro.clients.record import AttemptResult, ClientRecord, RequestRecord
from repro.core import Campaign, MiddlewareKind, RunConfig
from repro.core.workload import WorkloadSpec, register_workload, unregister_workload
from repro.net.http import ProbePing, ProbePong
from repro.net.transport import RESET, Side
from repro.nt.errors import INVALID_HANDLE_VALUE
from repro.nt.kernel32 import constants as k
from repro.nt.memory import Buffer, OutCell
from repro.sim import TIMED_OUT, Sleep

PORT = 7007
CONFIG_PATH = "C:\\EchoSvc\\echo.ini"


class EchoServer:
    """A minimal NT service: reads its config, then echoes messages."""

    image_name = "echosvc.exe"

    def main(self, ctx):
        k32 = ctx.k32
        yield from k32.GetVersion()
        heap = yield from k32.GetProcessHeap()
        scratch = yield from k32.HeapAlloc(heap, 0, 2048)
        if scratch == 0:
            yield from k32.ExitProcess(3)
        handle = yield from k32.CreateFileA(
            CONFIG_PATH, k.GENERIC_READ, 0, None, k.OPEN_EXISTING, 0, None)
        if handle in (0, INVALID_HANDLE_VALUE):
            yield from k32.ExitProcess(1)
        buffer = Buffer.zeroed(128)
        ok = yield from k32.ReadFile(handle, buffer, 128, OutCell(), None)
        if not ok:
            yield from k32.ExitProcess(1)
        yield from k32.CloseHandle(handle)
        yield from ctx.compute(0.8)
        ctx.machine.scm.notify_running(ctx.process)

        transport = ctx.machine.transport
        listener = transport.listen(PORT, ctx.process)
        if listener is None:
            yield from k32.ExitProcess(1)
        while True:
            conn = yield from transport.accept(listener, timeout=None)
            if conn is RESET or conn is TIMED_OUT:
                yield from k32.ExitProcess(0)
            message = yield from transport.recv(conn, Side.SERVER,
                                                timeout=30.0)
            if isinstance(message, ProbePing):
                transport.send(conn, Side.SERVER, ProbePong())
                continue
            yield from ctx.compute(1.5)
            yield from k32.Sleep(50)
            transport.send(conn, Side.SERVER, f"echo:{message}")


class EchoClient:
    """Sends one message and verifies the echo."""

    image_name = "echoclient.exe"

    def __init__(self):
        self.record = ClientRecord()

    def main(self, ctx):
        self.record.started_at = ctx.now
        transport = ctx.machine.transport
        request = RequestRecord("echo('ping')")
        for attempt in range(3):
            conn = yield from transport.connect(PORT, ctx.process,
                                                timeout=5.0)
            if conn is None:
                request.attempts.append(AttemptResult.REFUSED)
            else:
                try:
                    transport.send(conn, Side.CLIENT, "ping")
                    reply = yield from transport.recv(conn, Side.CLIENT,
                                                      timeout=15.0)
                finally:
                    transport.close(conn, Side.CLIENT)
                if reply == "echo:ping":
                    request.attempts.append(AttemptResult.OK)
                    request.succeeded = True
                    break
                request.attempts.append(
                    AttemptResult.TIMEOUT if reply is TIMED_OUT
                    else AttemptResult.RESET if reply is RESET
                    else AttemptResult.INCORRECT)
            if attempt < 2:
                yield Sleep(15.0)
        self.record.requests.append(request)
        self.record.finished_at = ctx.now


def _install_content(fs):
    fs.write_file(CONFIG_PATH, b"[echo]\nport=7007\n")


def _register_images(machine):
    machine.processes.register_image(
        EchoServer.image_name, lambda cmd: EchoServer(), role="echosvc")


ECHO = WorkloadSpec(
    name="Echo",
    service_name="EchoSvc",
    image_name=EchoServer.image_name,
    wait_hint=15.0,
    port=PORT,
    target_role="echosvc",
    install_content=_install_content,
    register_images=_register_images,
    client_factory=EchoClient,
)


def main() -> None:
    register_workload(ECHO)
    try:
        for middleware in (MiddlewareKind.NONE, MiddlewareKind.WATCHD):
            result = Campaign("Echo", middleware,
                              config=RunConfig(base_seed=99)).run()
            print(OutcomeDistribution.from_result(
                f"Echo / {middleware.label}", result).render())
            print(f"  failure coverage: {result.failure_coverage:.1%}\n")
    finally:
        unregister_workload("Echo")


if __name__ == "__main__":
    main()
