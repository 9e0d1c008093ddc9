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

from ..nt.ini import ini_value
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
    buffer = Buffer.zeroed(32)
    length = yield from ctx.k32.GetEnvironmentVariableA(name, buffer, 32)
    return length > 0


def heap_body(block, size: int):
    """The first ``size`` bytes of the heap block a page was read into
    (empty when the pointer resolved to nothing).

    When the block holds no more than ``size`` bytes — always, unless
    a fault corrupted the allocation size — this is the block's own
    ``bytearray``, not a copy: build the :class:`HttpResponse` from it
    at once, before the block is reused or freed.
    """
    if block is None:
        return b""
    data = block.data
    return data if len(data) <= size else data[:size]


def parse_ini_int(data: Optional[bytes], section: str, key: str,
                  default: int) -> int:
    """INI lookup over bytes already read (a corrupted read loses keys)."""
    value = ini_value(data, section, key)
    if value is None:
        return default
    try:
        return int(value)
    except ValueError:
        return default
