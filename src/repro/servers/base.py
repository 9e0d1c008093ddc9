"""Shared framework for the simulated server programs.

Each target server (Apache master/child, IIS, SQL Server) is a
:class:`~repro.nt.process_manager.Program` whose ``main`` generator
performs a *realistic sequence of kernel32 calls*: C-runtime startup,
configuration reads, object creation, then the serving loop.  Every
call goes through the interception layer, so the distinct-function
profile of each server is exactly what Table 1 of the paper counts —
and every parameter of every call is corruptible.

Error handling is written out explicitly, because it is the object of
study: where a server checks a return code and aborts cleanly, where it
ignores the failure and limps on (wrong responses), and where it never
checks at all (crashes) determine the outcome distribution the paper
measures.
"""

from __future__ import annotations

from typing import Optional

from ..nt.memory import Buffer

# Environment markers the fault-tolerance middleware leaves behind; the
# servers' conditional code paths on these produce the Table-1 deltas
# (extra functions under MSCS, fewer under watchd).
CLUSTER_ENV_MARKER = "CLUSTERLOG"
WATCHD_ENV_MARKER = "SWIFT_WATCHD"


class ServerBehavior:
    """Tunable timing/behaviour knobs of a server program.

    Times are CPU-seconds on the paper's 100 MHz reference machine and
    are scaled by the machine's ``cpu_scale``.
    """

    def __init__(self, startup_time: float, static_service_time: float,
                 cgi_service_time: float):
        self.startup_time = startup_time
        self.static_service_time = static_service_time
        self.cgi_service_time = cgi_service_time


def abort(ctx, code: int = 1):
    """Clean abort: the program detected a fatal error and exits."""
    yield from ctx.k32.ExitProcess(code)


def env_flag(ctx, name: str):
    """``GetEnvironmentVariableA`` probe used for the middleware markers."""
    buffer = Buffer(b"\0" * 32)
    length = yield from ctx.k32.GetEnvironmentVariableA(name, buffer, 32)
    return length > 0


def parse_ini_int(data: Optional[bytes], section: str, key: str,
                  default: int) -> int:
    """INI lookup over bytes already read (a corrupted read loses keys)."""
    if not data:
        return default
    current = None
    for raw_line in data.decode("latin-1", "replace").splitlines():
        line = raw_line.strip()
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
        elif current == section.lower() and "=" in line:
            name, _, value = line.partition("=")
            if name.strip().lower() == key.lower():
                try:
                    return int(value.strip())
                except ValueError:
                    return default
    return default


def parse_ini_str(data: Optional[bytes], section: str, key: str,
                  default: str) -> str:
    if not data:
        return default
    current = None
    for raw_line in data.decode("latin-1", "replace").splitlines():
        line = raw_line.strip()
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
        elif current == section.lower() and "=" in line:
            name, _, value = line.partition("=")
            if name.strip().lower() == key.lower():
                return value.strip()
    return default
