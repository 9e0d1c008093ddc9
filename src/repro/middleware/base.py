"""Common scaffolding for fault-tolerance middleware.

Middleware packages run as processes on the target machine (like the
real MSCS cluster service and NT-SwiFT's watchd daemon) but are not
fault-injection targets — DTS injects the *server* programs only.  They
interact with the world exactly the way their real counterparts do:
through the SCM (start/stop/query), process exit waits, and — for
watchd — an application-level liveness probe over the network.
"""

from __future__ import annotations

from typing import Optional

from ..net.http import ProbePing, ProbePong
from ..net.transport import Side
from ..sim import TIMED_OUT, Sleep, Wait


class MiddlewareLogEntry:
    """One line of a middleware's own log file."""

    __slots__ = ("time", "source", "message")

    def __init__(self, time: float, source: str, message: str):
        self.time = time
        self.source = source
        self.message = message

    def __repr__(self) -> str:
        return f"[{self.time:8.3f}] {self.source}: {self.message}"


def trace_middleware(ctx, name: str, **data) -> None:
    """Emit one ``mw.*`` trace event (heartbeat / detect / restart /
    monitor / …) on the machine's tracer, if tracing is on.

    The collector reads restarts from the middleware's log channel at
    every trace level; middleware emits ``mw.restart`` at exactly the
    points it writes that restart evidence, so the trace-derived count
    (:func:`repro.trace.count_restarts_from_trace`, the restart times
    of ``repro trace --metrics``) agrees with it.
    """
    tracer = ctx.machine.tracer
    if tracer is not None and tracer.outcome_enabled:
        tracer.emit(ctx.machine.engine.now, "mw", name, **data)


def probe_service(ctx, port: int, reply_timeout: float = 12.0):
    """One liveness probe: connect, ping, await pong.

    Returns True when the server answered — the applicative heartbeat
    that distinguishes watchd from MSCS's generic resource monitor
    (which, per the paper, only watches coarse service state).
    """
    transport = ctx.machine.transport
    connection = yield from transport.connect(port, ctx.process, timeout=3.0)
    if connection is None:
        return False
    try:
        transport.send(connection, Side.CLIENT, ProbePing())
        reply = yield from transport.recv(connection, Side.CLIENT,
                                          timeout=reply_timeout)
    finally:
        transport.close(connection, Side.CLIENT)
    return isinstance(reply, ProbePong)


def wait_for_exit(process, timeout: float):
    """Wait on a process handle; True when it died within the window."""
    if process is None or not process.alive:
        return True
    result = yield Wait(process.exit_event, timeout=timeout)
    return result is not TIMED_OUT


def sleep(seconds: float):
    yield Sleep(seconds)
