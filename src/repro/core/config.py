"""DTS main configuration file.

The tool is *"controlled via a graphical interface and a set of
configuration files.  One main configuration file is used to specify
test parameters such as timeout periods, a fault list file name, and
workload parameters."*  This is that file, in INI form::

    [dts]
    workload = IIS
    middleware = watchd
    watchd_version = 3
    fault_list = faults.lst
    base_seed = 2000

    [timeouts]
    server_up = 90
    client = 240
    reply = 15
    retry_wait = 15

    [machine]
    cpu_mhz = 100

    [execution]
    jobs = 4
    store = runs.jsonl

    [trace]
    level = outcome
"""

from __future__ import annotations

import configparser
from typing import Optional

from ..trace import TraceLevel
from .runner import (
    DEFAULT_CLIENT_TIMEOUT,
    DEFAULT_SERVER_UP_TIMEOUT,
    RunConfig,
)
from .workload import MiddlewareKind, WorkloadSpec, get_workload


class DtsConfig:
    """Parsed main configuration."""

    def __init__(self, workload: str = "Apache1",
                 middleware: MiddlewareKind = MiddlewareKind.NONE,
                 watchd_version: int = 3,
                 fault_list: Optional[str] = None,
                 base_seed: int = 2000,
                 server_up_timeout: float = DEFAULT_SERVER_UP_TIMEOUT,
                 client_timeout: float = DEFAULT_CLIENT_TIMEOUT,
                 reply_timeout: float = 15.0,
                 retry_wait: float = 15.0,
                 cpu_mhz: int = 100,
                 jobs: int = 1,
                 store: Optional[str] = None,
                 trace_level="off"):
        self.workload = workload
        self.middleware = middleware
        self.watchd_version = watchd_version
        self.fault_list = fault_list
        self.base_seed = base_seed
        self.server_up_timeout = server_up_timeout
        self.client_timeout = client_timeout
        self.reply_timeout = reply_timeout
        self.retry_wait = retry_wait
        self.cpu_mhz = cpu_mhz
        self.jobs = jobs
        self.store = store
        self.trace_level = TraceLevel.parse(trace_level)

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
        dts = parser["dts"] if parser.has_section("dts") else {}
        timeouts = parser["timeouts"] if parser.has_section("timeouts") else {}
        machine = parser["machine"] if parser.has_section("machine") else {}
        execution = (parser["execution"]
                     if parser.has_section("execution") else {})
        trace = parser["trace"] if parser.has_section("trace") else {}
        middleware = MiddlewareKind(dts.get("middleware", "none").lower())
        jobs = int(execution.get("jobs", 1))
        if jobs < 1:
            raise ValueError(f"[execution] jobs must be >= 1, got {jobs}")
        return cls(
            workload=dts.get("workload", "Apache1"),
            middleware=middleware,
            watchd_version=int(dts.get("watchd_version", 3)),
            fault_list=dts.get("fault_list") or None,
            base_seed=int(dts.get("base_seed", 2000)),
            server_up_timeout=float(timeouts.get(
                "server_up", DEFAULT_SERVER_UP_TIMEOUT)),
            client_timeout=float(timeouts.get(
                "client", DEFAULT_CLIENT_TIMEOUT)),
            reply_timeout=float(timeouts.get("reply", 15.0)),
            retry_wait=float(timeouts.get("retry_wait", 15.0)),
            cpu_mhz=int(machine.get("cpu_mhz", 100)),
            jobs=jobs,
            store=execution.get("store") or None,
            trace_level=trace.get("level", "off"),
        )

    @classmethod
    def from_file(cls, path) -> "DtsConfig":
        with open(path, "r", encoding="ascii") as handle:
            return cls.from_text(handle.read())

    def to_text(self) -> str:
        return (
            "[dts]\n"
            f"workload = {self.workload}\n"
            f"middleware = {self.middleware.value}\n"
            f"watchd_version = {self.watchd_version}\n"
            f"fault_list = {self.fault_list or ''}\n"
            f"base_seed = {self.base_seed}\n"
            "\n[timeouts]\n"
            f"server_up = {self.server_up_timeout:g}\n"
            f"client = {self.client_timeout:g}\n"
            f"reply = {self.reply_timeout:g}\n"
            f"retry_wait = {self.retry_wait:g}\n"
            "\n[machine]\n"
            f"cpu_mhz = {self.cpu_mhz}\n"
            "\n[execution]\n"
            f"jobs = {self.jobs}\n"
            f"store = {self.store or ''}\n"
            "\n[trace]\n"
            f"level = {self.trace_level.label}\n"
        )

    def __repr__(self) -> str:
        return (f"<DtsConfig {self.workload}/{self.middleware.value} "
                f"v{self.watchd_version}>")
