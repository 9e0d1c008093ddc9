"""DTS main configuration file.

The tool is *"controlled via a graphical interface and a set of
configuration files.  One main configuration file is used to specify
test parameters such as timeout periods, a fault list file name, and
workload parameters."*  This is that file, in INI form::

    [dts]
    workload = iis
    middleware = watchd2
    base_seed = 2000

    [timeouts]
    server_up = 90
    client = 240

    [machine]
    cpu_mhz = 100

    [execution]
    jobs = 4
    store = runs.jsonl

    [trace]
    level = outcome

Every key is optional and one row of :data:`KEYS`.  Names resolve as
for the CLI flags and daemon specs (``watchdN`` implies that version),
:class:`~repro.core.runner.RunConfig` checks the values, and an unknown
section or key is an error, not a setting silently ignored.
"""

from __future__ import annotations

import configparser
import itertools
from typing import Optional

from ..trace import TraceLevel
from .runner import (
    DEFAULT_CLIENT_TIMEOUT,
    DEFAULT_SERVER_UP_TIMEOUT,
    RunConfig,
    check_integer,
)
from .workload import (
    MiddlewareKind,
    WorkloadSpec,
    get_workload,
    resolve_middleware,
    resolve_workload,
)

# The file's layout, in file order: (section, key, DtsConfig attribute,
# value type).  Both from_text and to_text are built from it.
KEYS = (
    ("dts", "workload", "workload", str),
    ("dts", "middleware", "middleware", str),
    ("dts", "watchd_version", "watchd_version", int),
    ("dts", "base_seed", "base_seed", int),
    ("timeouts", "server_up", "server_up_timeout", float),
    ("timeouts", "client", "client_timeout", float),
    ("machine", "cpu_mhz", "cpu_mhz", int),
    ("execution", "jobs", "jobs", int),
    ("execution", "store", "store", str),
    ("trace", "level", "trace_level", str),
)
_SECTIONS = tuple(dict.fromkeys(section for section, *_ in KEYS))


def _decode(kind, key: str, text: str):
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{key} must be "
                         f"{'an integer' if kind is int else 'a number'}, "
                         f"got {text!r}") from None


def _encode(value) -> str:
    if isinstance(value, TraceLevel):
        return value.label
    if isinstance(value, MiddlewareKind):
        return value.value
    return "" if value is None else str(value)


class DtsConfig:
    """Parsed main configuration."""

    def __init__(self, workload: str = "Apache1",
                 middleware: MiddlewareKind = MiddlewareKind.NONE,
                 watchd_version: int = 3,
                 base_seed: int = 2000,
                 server_up_timeout: float = DEFAULT_SERVER_UP_TIMEOUT,
                 client_timeout: float = DEFAULT_CLIENT_TIMEOUT,
                 cpu_mhz: int = 100,
                 jobs: int = 1,
                 store: Optional[str] = None,
                 trace_level="off"):
        self.workload = workload
        self.middleware = middleware
        self.watchd_version = watchd_version
        self.base_seed = base_seed
        self.server_up_timeout = server_up_timeout
        self.client_timeout = client_timeout
        self.cpu_mhz = cpu_mhz
        self.jobs = check_integer("jobs", jobs, minimum=1)
        self.store = store or None
        self.trace_level = trace_level
        # RunConfig checks every run value, and names the level.
        self.trace_level = self.run_config().trace_level

    # ------------------------------------------------------------------
    def workload_spec(self) -> WorkloadSpec:
        return get_workload(self.workload)

    def run_config(self) -> RunConfig:
        return RunConfig(
            base_seed=self.base_seed,
            server_up_timeout=self.server_up_timeout,
            client_timeout=self.client_timeout,
            watchd_version=self.watchd_version,
            cpu_mhz=self.cpu_mhz,
            trace_level=self.trace_level,
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_text(cls, text: str) -> "DtsConfig":
        parser = configparser.ConfigParser()
        parser.read_string(text)
        values = {}
        for section in parser.sections():
            keys = {key: (attribute, kind)
                    for known, key, attribute, kind in KEYS
                    if known == section}
            if not keys:
                raise ValueError(f"unknown section [{section}] "
                                 f"(known: {', '.join(_SECTIONS)})")
            for key, raw in parser.items(section):
                if key not in keys:
                    raise ValueError(f"unknown key {key!r} in [{section}] "
                                     f"(known: {', '.join(keys)})")
                attribute, kind = keys[key]
                values[attribute] = _decode(kind, key, raw)
        values["workload"] = resolve_workload(
            values.get("workload", "Apache1"))
        values["middleware"], values["watchd_version"] = resolve_middleware(
            values.get("middleware", "none"), values.get("watchd_version"))
        return cls(**values)

    @classmethod
    def from_file(cls, path) -> "DtsConfig":
        with open(path, "r", encoding="ascii") as handle:
            return cls.from_text(handle.read())

    def to_text(self) -> str:
        return "\n\n".join(
            "\n".join([f"[{section}]"] + [
                f"{key} = {_encode(getattr(self, attribute))}"
                for _section, key, attribute, _kind in rows])
            for section, rows in itertools.groupby(KEYS, lambda row: row[0])
        ) + "\n"

    def __repr__(self) -> str:
        return (f"<DtsConfig {self.workload}/{self.middleware.value} "
                f"v{self.watchd_version}>")
