"""Workload definitions: the four target configurations of Section 4.

A *workload* bundles the server programs, the filesystem content they
need, the synthetic client, and — crucially for DTS — the **target
process role** faults are injected into.  The Apache server appears
twice with the same machine setup but different targets: ``Apache1``
injects the management process, ``Apache2`` the child worker.
"""

from __future__ import annotations

import enum
import re
from typing import Callable, Optional

from ..clients import HttpClient, SqlClient
from ..middleware import mscs as mscs_module
from ..middleware import watchd as watchd_module
from ..middleware.mscs import ClusterService
from ..middleware.watchd import Watchd
from ..nt.machine import Machine
from ..servers import apache, content, iis, sqlserver


class MiddlewareKind(enum.Enum):
    """The three configurations each server program ran under."""

    NONE = "none"
    MSCS = "mscs"
    WATCHD = "watchd"

    @property
    def label(self) -> str:
        return {"none": "Stand-alone", "mscs": "MSCS",
                "watchd": "watchd"}[self.value]


class WorkloadSpec:
    """One (server program, injection target) pair."""

    def __init__(self, name: str, service_name: str, image_name: str,
                 wait_hint: float, port: int, target_role: str,
                 install_content: Callable, register_images: Callable,
                 client_factory: Callable, registry=None):
        self.name = name
        self.service_name = service_name
        self.image_name = image_name
        self.wait_hint = wait_hint
        self.port = port
        self.target_role = target_role
        self._install_content = install_content
        self._register_images = register_images
        self._client_factory = client_factory
        # The export table this workload's faults target; None means
        # KERNEL32 (the Linux port's workloads pass the libc table).
        self.registry = registry

    # ------------------------------------------------------------------
    def setup(self, machine: Machine) -> None:
        """Install content, images and the service on a fresh machine."""
        self._install_content(machine.fs)
        self._register_images(machine)
        machine.scm.create_service(self.service_name, self.image_name,
                                   wait_hint=self.wait_hint)

    def make_client(self):
        return self._client_factory()

    def deploy_middleware(self, machine: Machine, kind: MiddlewareKind,
                          watchd_version: int = 3) -> Optional[object]:
        """Install and start the chosen middleware (which brings the
        service online itself), or start the service directly for the
        stand-alone configuration.  Returns the middleware program."""
        if kind is MiddlewareKind.NONE:
            machine.scm.start_service(self.service_name)
            return None
        if kind is MiddlewareKind.MSCS:
            mscs_module.install(machine)
            monitor = ClusterService(self.service_name)
            machine.processes.spawn(monitor, role="mscs")
            return monitor
        watchd_module.install(machine)
        daemon = Watchd(self.service_name, probe_port=self.port,
                        version=watchd_version)
        machine.processes.spawn(daemon, role="watchd")
        return daemon

    def __repr__(self) -> str:
        return f"<Workload {self.name} target={self.target_role}>"


def _apache_spec(name: str, target_role: str) -> WorkloadSpec:
    return WorkloadSpec(
        name=name,
        service_name=apache.SERVICE_NAME,
        image_name=apache.MASTER_IMAGE,
        wait_hint=apache.SERVICE_WAIT_HINT,
        port=content.HTTP_PORT,
        target_role=target_role,
        install_content=content.install_apache_content,
        register_images=apache.register_images,
        client_factory=HttpClient,
    )


APACHE1 = _apache_spec("Apache1", "apache1")
APACHE2 = _apache_spec("Apache2", "apache2")

IIS = WorkloadSpec(
    name="IIS",
    service_name=iis.SERVICE_NAME,
    image_name=iis.IIS_IMAGE,
    wait_hint=iis.SERVICE_WAIT_HINT,
    port=content.HTTP_PORT,
    target_role="iis",
    install_content=content.install_iis_content,
    register_images=iis.register_images,
    client_factory=HttpClient,
)

SQL = WorkloadSpec(
    name="SQL",
    service_name=sqlserver.SERVICE_NAME,
    image_name=sqlserver.SQL_IMAGE,
    wait_hint=sqlserver.SERVICE_WAIT_HINT,
    port=content.SQL_PORT,
    target_role="sql",
    install_content=content.install_sql_content,
    register_images=sqlserver.register_images,
    client_factory=SqlClient,
)

WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec for spec in (APACHE1, APACHE2, IIS, SQL)
}


def get_workload(name: str) -> WorkloadSpec:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None


WORKLOAD_ALIASES = {"apache": "Apache1", "sqlserver": "SQL"}


def resolve_workload(name: str) -> str:
    """The registry name for a workload name, in any case, or alias:
    the naming rule of the CLI flags, the INI file and daemon specs."""
    if isinstance(name, str) and name in WORKLOADS:
        return name
    lowered = str(name).lower()
    by_case = {registered.lower(): registered for registered in WORKLOADS}
    resolved = WORKLOAD_ALIASES.get(lowered) or by_case.get(lowered)
    if resolved is None:
        known = sorted(WORKLOADS) + sorted(WORKLOAD_ALIASES)
        raise ValueError(
            f"unknown workload {name!r}; known: {', '.join(known)}")
    return resolved


def resolve_middleware(value, watchd_version: Optional[int] = None):
    """``(kind, watchd_version)`` for none|mscs|watchd|watchdN in any
    case; N must agree with an explicit version, which defaults to 3."""
    lowered = str(getattr(value, "value", value)).lower()
    implied = re.fullmatch(r"watchd([0-9]+)", lowered)
    if implied is not None:
        version = int(implied.group(1))
        if watchd_version is not None and watchd_version != version:
            raise ValueError(f"middleware {value} conflicts with "
                             f"watchd_version {watchd_version}")
        return MiddlewareKind.WATCHD, version
    try:
        kind = MiddlewareKind(lowered)
    except ValueError:
        raise ValueError(f"unknown middleware {value!r}; known: none, mscs, "
                         f"watchd, watchd1, watchd2, watchd3") from None
    return kind, (3 if watchd_version is None else watchd_version)


def register_workload(spec: WorkloadSpec, replace: bool = False) -> WorkloadSpec:
    """Add a custom workload to the registry (the plugin mechanism).

    The paper's Section 5: "The DTS architecture has been designed to
    support Java plugin classes to support different fault injection
    mechanisms, workloads, and data collection strategies."  A plugged
    workload is a full citizen: campaigns, the CLI and the analysis
    layer all resolve it by name.
    """
    if spec.name in WORKLOADS and not replace:
        raise ValueError(f"workload {spec.name!r} already registered")
    WORKLOADS[spec.name] = spec
    return spec


def unregister_workload(name: str) -> None:
    """Remove a plugged workload (built-ins may be removed too; tests
    use this to restore a pristine registry)."""
    WORKLOADS.pop(name, None)
