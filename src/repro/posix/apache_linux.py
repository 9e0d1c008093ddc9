"""Apache on Linux — the workload of the paper's preliminary port.

The same master/child architecture as the Win32 build, expressed in
libc calls: the master reads ``httpd.conf``, daemonises, spawns its
single child worker, and respawns it with ``waitpid``/``kill``
semantics; the child serves the identical 115 kB static + 1 kB CGI
workload.  The HttpClient and the whole DTS core are reused untouched.
"""

from __future__ import annotations

from ..net.http import (
    HTTP_NOT_FOUND,
    HTTP_OK,
    HTTP_SERVER_ERROR,
    HttpRequest,
    HttpResponse,
    ProbePing,
    ProbePong,
)
from ..net.transport import RESET, Side
from ..nt.memory import Buffer, OutCell
from ..servers import base, content
from ..sim import TIMED_OUT, Sleep, Wait
from .context import PosixContext
from .libc import ERR, O_CREAT, O_WRONLY
from .initd import get_supervisor

MASTER_IMAGE = "httpd"
CHILD_IMAGE = "httpd-child"
SERVICE_NAME = "httpd"

CONF_PATH = "/etc/httpd/httpd.conf"
DOCROOT = "/var/www/html"
CGI_SCRIPT = "/var/www/cgi-bin/report.pl"

STATIC_SERVICE_TIME = 4.3   # the Linux box is the same 100 MHz class
CGI_SERVICE_TIME = 5.1
CHILD_STARTUP_TIME = 1.2


def install_content(fs) -> None:
    fs.write_file(CONF_PATH, b"[server]\nPort=80\nMaxClients=1\n")
    fs.write_file(f"{DOCROOT}/index.html", content.static_page())
    fs.write_file(CGI_SCRIPT, content.cgi_script_source())


def register_images(machine) -> None:
    machine.processes.register_image(
        MASTER_IMAGE, lambda cmd: LinuxApacheMaster(), role="apache1-linux")
    machine.processes.register_image(
        CHILD_IMAGE, lambda cmd: LinuxApacheChild(), role="apache2-linux")


class LinuxApacheMaster:
    """The httpd master: fork-and-supervise, POSIX style."""

    image_name = MASTER_IMAGE
    context_class = PosixContext

    def main(self, ctx):
        libc = ctx.libc
        fd = yield from libc.open(CONF_PATH, 0, 0)
        if fd == ERR:
            yield from libc._exit(1)
        conf = Buffer.zeroed(256)
        got = yield from libc.read(fd, conf, 256)
        yield from libc.close(fd)
        if got in (0, ERR) or b"Port=80" not in bytes(conf.data):
            yield from libc._exit(1)
        yield from ctx.compute(0.9)

        # "Fork" the single child worker (modelled as a spawn).
        child = ctx.machine.processes.create_from_image(
            CHILD_IMAGE, CHILD_IMAGE, parent=ctx.process)
        if child is None:
            yield from libc._exit(1)

        # Supervision loop: waitpid-with-poll, respawn on death.
        while True:
            alive = yield from libc.kill(child.pid, 0)  # signal 0 = probe
            if alive == ERR or not child.alive:
                status = OutCell()
                yield from libc.waitpid(child.pid, status, 1)  # WNOHANG reap
                yield from libc.usleep(250_000)
                child = ctx.machine.processes.create_from_image(
                    CHILD_IMAGE, CHILD_IMAGE, parent=ctx.process)
                if child is None:
                    yield from libc._exit(1)
            yield from libc.sleep(1)


class LinuxApacheChild:
    """The httpd worker: owns the socket, serves the workload."""

    image_name = CHILD_IMAGE
    context_class = PosixContext

    def main(self, ctx):
        libc = ctx.libc
        ok = yield from libc.access(f"{DOCROOT}/index.html", 4)
        docroot_ok = ok == 0
        yield from libc.getpid()
        yield from ctx.compute(CHILD_STARTUP_TIME)

        transport = ctx.machine.transport
        listener = transport.listen(content.HTTP_PORT, ctx.process)
        if listener is None:
            yield from libc._exit(1)
        while True:
            conn = yield from transport.accept(listener, timeout=None)
            if conn is RESET or conn is TIMED_OUT:
                yield from libc._exit(0)
            request = yield from transport.recv(conn, Side.SERVER,
                                                timeout=60.0)
            if isinstance(request, ProbePing):
                transport.send(conn, Side.SERVER, ProbePong())
                continue
            if request is RESET or request is TIMED_OUT or \
                    not isinstance(request, HttpRequest):
                continue
            if request.is_cgi:
                response = yield from self._serve_cgi(ctx)
            else:
                response = yield from self._serve_static(ctx, request,
                                                         docroot_ok)
            transport.send(conn, Side.SERVER, response)
            yield from libc.usleep(50_000)

    def _serve_static(self, ctx, request, docroot_ok):
        libc = ctx.libc
        if not docroot_ok:
            return HttpResponse(HTTP_NOT_FOUND, b"not found")
        path = DOCROOT + request.path
        stat_cell = OutCell()
        if (yield from libc.stat(path, stat_cell)) == ERR:
            return HttpResponse(HTTP_NOT_FOUND, b"not found")
        size = stat_cell.value["st_size"]
        fd = yield from libc.open(path, 0, 0)
        if fd == ERR:
            return HttpResponse(HTTP_NOT_FOUND, b"not found")
        block_ptr = yield from libc.malloc(size)
        got = yield from libc.read(fd, block_ptr, size)
        yield from libc.close(fd)
        block = ctx.memory(block_ptr)
        if got == ERR or block is None:
            return HttpResponse(HTTP_SERVER_ERROR, b"read failure")
        response = HttpResponse(HTTP_OK, base.heap_body(block, size))
        yield from ctx.compute(STATIC_SERVICE_TIME)
        yield from libc.free(block_ptr)
        return response

    def _serve_cgi(self, ctx):
        libc = ctx.libc
        fd = yield from libc.open(CGI_SCRIPT, 0, 0)
        if fd == ERR:
            return HttpResponse(HTTP_SERVER_ERROR, b"no cgi script")
        source = Buffer.zeroed(512)
        got = yield from libc.read(fd, source, 512)
        yield from libc.close(fd)
        if got in (0, ERR):
            return HttpResponse(HTTP_SERVER_ERROR, b"cgi read failure")
        page = content.cgi_page(bytes(source.data[:got]))
        yield from ctx.compute(CGI_SERVICE_TIME)
        return HttpResponse(HTTP_OK, page)


class LinuxWatchd:
    """watchd on Linux: PID-based death watch + the same liveness probe.

    The NT version's SCM entanglements (the getServiceInfo race, the
    Start-Pending lock) simply do not exist here — restart is kill,
    reap, re-exec."""

    image_name = "watchd"

    def __init__(self, service_name: str = SERVICE_NAME,
                 probe_port: int = content.HTTP_PORT):
        self.service_name = service_name
        self.probe_port = probe_port
        self.restart_count = 0

    def main(self, ctx):
        from ..middleware.base import (probe_service, trace_middleware,
                                       wait_for_exit)

        machine = ctx.machine
        supervisor = get_supervisor(machine)
        if not hasattr(machine, "watchd_log"):
            machine.watchd_log = []
        supervisor.start(self.service_name)
        probe_failures = 0
        time_to_probe = 10.0
        while True:
            process = supervisor.pid_of(self.service_name)
            if process is None:
                self.restart_count += 1
                self._log(machine, f"restarting {self.service_name} "
                                   f"(restart #{self.restart_count})")
                trace_middleware(ctx, "restart", service=self.service_name,
                                 count=self.restart_count)
                yield Sleep(0.5)
                supervisor.start(self.service_name)
                continue
            died = yield from wait_for_exit(process, 5.0)
            if died:
                continue  # loop observes the dead pid and restarts
            time_to_probe -= 5.0
            if time_to_probe > 0:
                continue
            time_to_probe = 10.0
            healthy = yield from probe_service(ctx, self.probe_port)
            if healthy:
                probe_failures = 0
                continue
            probe_failures += 1
            if probe_failures >= 2:
                self._log(machine, f"{self.service_name} unresponsive; "
                                   f"forcing restart")
                trace_middleware(ctx, "detect", service=self.service_name,
                                 reason="hung")
                supervisor.stop(self.service_name)
                probe_failures = 0

    def _log(self, machine, message):
        from ..middleware.base import MiddlewareLogEntry

        machine.watchd_log.append(
            MiddlewareLogEntry(machine.engine.now, "watchd", message))
