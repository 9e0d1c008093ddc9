"""A minimal init-style service supervisor for the Linux port.

Linux has no Service Control Manager; daemons are started by init
scripts and tracked by PID.  This supervisor provides just that —
start / stop / status by name, no state machine, no database lock —
which is itself an experimental contrast to the NT SCM: the slow
Start-Pending restart pathology of Figure 4 has no Linux equivalent.
"""

from __future__ import annotations

from typing import Callable, Optional


class InitService:
    """One registered daemon."""

    def __init__(self, name: str, image_name: str):
        self.name = name
        self.image_name = image_name
        self.process = None
        self.start_count = 0

    @property
    def running(self) -> bool:
        return self.process is not None and self.process.alive

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return f"<InitService {self.name} {state}>"


class InitSupervisor:
    """The machine's init(8) stand-in."""

    def __init__(self, machine):
        # The process manager, not the machine: the machine holds this
        # supervisor, and a link back would keep a finished run cyclic.
        self.processes = machine.processes
        self.services: dict[str, InitService] = {}

    def register(self, name: str, image_name: str) -> InitService:
        if name in self.services:
            raise ValueError(f"service {name!r} already registered")
        service = InitService(name, image_name)
        self.services[name] = service
        return service

    def start(self, name: str) -> bool:
        """Start a daemon; returns False if unknown or already running."""
        service = self.services.get(name)
        if service is None or service.running:
            return False
        process = self.processes.create_from_image(
            service.image_name, command_line=service.image_name)
        if process is None:
            return False
        service.process = process
        service.start_count += 1
        return True

    def stop(self, name: str) -> bool:
        service = self.services.get(name)
        if service is None or not service.running:
            return False
        service.process.terminate(exit_code=0)
        return True

    def status(self, name: str) -> Optional[bool]:
        """True running / False stopped / None unknown."""
        service = self.services.get(name)
        return None if service is None else service.running

    def pid_of(self, name: str):
        service = self.services.get(name)
        if service is None or not service.running:
            return None
        return service.process


def get_supervisor(machine) -> InitSupervisor:
    """The machine's supervisor, created on first use (Linux machines
    are ordinary :class:`Machine` instances with this attached)."""
    supervisor = getattr(machine, "init_supervisor", None)
    if supervisor is None:
        supervisor = InitSupervisor(machine)
        machine.init_supervisor = supervisor
    return supervisor
