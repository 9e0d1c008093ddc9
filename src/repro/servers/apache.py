"""The Apache web server workload (version 1.3.3 for Win32, simulated).

Reproduces the architecture Section 4.1 of the paper analyses:

- **Apache1** — the management (master) process.  It serves no
  requests itself; it spawns the child worker and *respawns it whenever
  it dies* — an application-level failure-detection-and-restart
  mechanism equivalent to what MSCS/watchd provide, which is why those
  packages add nothing for child faults.
- **Apache2** — the single child worker (the paper pins
  ``MaxChildren=1`` for reproducibility), which owns the listening
  socket and services the static and CGI requests.
- **CGI interpreter** — a short-lived process the child spawns per CGI
  request, fed back through an anonymous pipe.

The master reports SERVICE_RUNNING only after the child is accepting —
Apache is a *slow starter*, so faults that kill the master early leave
the SCM in Start-Pending with its database locked (the paper's slow
Apache restart scenario).
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
from ..nt.errors import INVALID_HANDLE_VALUE, WAIT_OBJECT_0
from ..nt.kernel32 import constants as k
from ..nt.memory import Buffer, OutCell
from ..nt.objects import StartupInfo
from ..sim import TIMED_OUT
from . import content
from .base import (
    CLUSTER_ENV_MARKER,
    ServerBehavior,
    abort,
    env_flag,
    heap_body,
    parse_ini_int,
)

MASTER_IMAGE = "apache.exe"
CHILD_IMAGE = "apachechild.exe"
CGI_IMAGE = "cgi.exe"
SERVICE_NAME = "Apache"
# The SCM wait hint Apache 1.3 registers: generous, because the master
# must spawn and synchronise with its child before reporting RUNNING.
SERVICE_WAIT_HINT = 40.0

GO_EVENT = "Apache_Go"
READY_EVENT = "Apache_Ready"
SHUTDOWN_EVENT = "DTS_SHUTDOWN"

BEHAVIOR = ServerBehavior(
    startup_time=1.2,          # master's own initialisation
    static_service_time=4.75,   # 115 kB static page on the 100 MHz box
    cgi_service_time=5.55,      # CGI spawn + 1 kB generated page
)
CHILD_STARTUP_TIME = 1.6


def register_images(machine) -> None:
    """Register all Apache process images on a machine."""
    machine.processes.register_image(
        MASTER_IMAGE, lambda cmd: ApacheMaster(), role="apache1")
    machine.processes.register_image(
        CHILD_IMAGE, lambda cmd: ApacheChild(cmd), role="apache2")
    machine.processes.register_image(
        CGI_IMAGE, lambda cmd: CgiInterpreter(cmd), role="cgi")


class ApacheMaster:
    """Apache1: the management process."""

    image_name = MASTER_IMAGE

    def main(self, ctx):
        k32 = ctx.k32
        # Locate ServerRoot from the image path.
        path_buffer = Buffer.zeroed(260)
        yield from k32.GetModuleFileNameA(0, path_buffer, 260)

        # Read httpd.conf into a stack buffer (1.3-era style).
        conf_handle = yield from k32.CreateFileA(
            content.APACHE_CONF, k.GENERIC_READ, k.FILE_SHARE_READ, None,
            k.OPEN_EXISTING, k.FILE_ATTRIBUTE_NORMAL, None)
        if conf_handle in (0, INVALID_HANDLE_VALUE):
            yield from abort(ctx)  # no configuration, no server
        conf_buffer = Buffer.zeroed(4096)
        read_count = OutCell()
        ok = yield from k32.ReadFile(conf_handle, conf_buffer, 4096,
                                     read_count, None)
        yield from k32.CloseHandle(conf_handle)
        conf = bytes(conf_buffer.data[:read_count.value]) if ok == 1 else b""
        port = parse_ini_int(conf, "server", "Port", 0)
        if port == 0:
            # Apache refuses to start on a config it cannot parse.
            yield from abort(ctx)

        yield from ctx.compute(BEHAVIOR.startup_time)

        # Synchronisation objects shared with the child.
        go_handle = yield from k32.CreateEventA(None, True, False, GO_EVENT)
        ready_handle = yield from k32.CreateEventA(None, True, False, READY_EVENT)
        shutdown_handle = yield from k32.CreateEventA(None, True, False,
                                                      SHUTDOWN_EVENT)
        accept_mutex = yield from k32.CreateMutexA(None, False, "Apache_Accept")
        if 0 in (go_handle, ready_handle, shutdown_handle, accept_mutex):
            yield from abort(ctx)

        if (yield from env_flag(ctx, CLUSTER_ENV_MARKER)):
            # Running under the cluster service: log the fact.  (All of
            # these calls absorb corrupted parameters — GetTickCount and
            # GetCurrentProcessId take none, lstrlenA and
            # OutputDebugStringA are SEH-guarded — which is why the
            # paper saw only normal-success outcomes for the extra
            # functions middleware makes servers call.)
            yield from k32.GetTickCount()
            yield from k32.GetCurrentProcessId()
            yield from k32.lstrlenA("MSCS cluster node")
            yield from k32.OutputDebugStringA("Apache starting under MSCS")

        child_handle = yield from self._spawn_child(ctx)
        if child_handle == 0:
            yield from abort(ctx)
        yield from k32.SetEvent(go_handle)

        # Wait for the child to come up before reporting RUNNING —
        # respawning it if it dies during its own startup (the same
        # respawn logic real Apache applies from the very first child).
        came_up = False
        for _poll in range(30):
            status = yield from k32.WaitForSingleObject(ready_handle, 2000)
            if status == WAIT_OBJECT_0:
                came_up = True
                break
            code = OutCell(k.STILL_ACTIVE)
            yield from k32.GetExitCodeProcess(child_handle, code)
            if code.value != k.STILL_ACTIVE:
                yield from k32.Sleep(250)  # respawn throttle
                child_handle = yield from self._spawn_child(ctx)
                if child_handle == 0:
                    yield from abort(ctx)
                yield from k32.SetEvent(go_handle)
        if not came_up:
            yield from abort(ctx)
        yield from k32.Sleep(100)  # let the child's listener settle
        ctx.machine.scm.notify_running(ctx.process)

        # The management loop: poll the child and respawn it whenever
        # it dies (the application-level restart mechanism of 4.1).
        while True:
            shutdown = yield from k32.WaitForSingleObject(shutdown_handle, 1000)
            if shutdown == WAIT_OBJECT_0:
                yield from k32.ExitProcess(0)
            code = OutCell(k.STILL_ACTIVE)
            yield from k32.GetExitCodeProcess(child_handle, code)
            if code.value != k.STILL_ACTIVE:
                yield from k32.Sleep(250)  # respawn throttle
                child_handle = yield from self._spawn_child(ctx)
                if child_handle == 0:
                    yield from abort(ctx)
                yield from k32.SetEvent(go_handle)

    def _spawn_child(self, ctx):
        info = OutCell()
        ok = yield from ctx.k32.CreateProcessA(
            CHILD_IMAGE, f"{CHILD_IMAGE} -child", None, None, True, 0,
            None, None, StartupInfo("apache-child"), info)
        if ok != 1:
            return 0
        return info.value["hProcess"]


class ApacheChild:
    """Apache2: the worker process that actually serves requests."""

    image_name = CHILD_IMAGE

    def __init__(self, command_line: str = ""):
        self.command_line = command_line

    def main(self, ctx):
        k32 = ctx.k32
        yield from k32.GetCommandLineA()
        yield from k32.GetVersion()
        heap = yield from k32.GetProcessHeap()
        scratch = yield from k32.HeapAlloc(heap, 0, 8192)
        if scratch == 0:
            yield from abort(ctx, 3)

        go_handle = yield from k32.OpenEventA(0, False, GO_EVENT)
        ready_handle = yield from k32.OpenEventA(0, False, READY_EVENT)
        accept_mutex = yield from k32.OpenMutexA(0, False, "Apache_Accept")
        if 0 in (go_handle, ready_handle) or accept_mutex == 0:
            yield from abort(ctx)
        yield from k32.WaitForSingleObject(go_handle, 30_000)

        # Verify the document root and load mime.types.
        attrs = yield from k32.GetFileAttributesA(
            f"{content.APACHE_DOCROOT}\\index.html")
        docroot_ok = attrs != k.INVALID_FILE_ATTRIBUTES
        mime_handle = yield from k32.CreateFileA(
            content.APACHE_MIME, k.GENERIC_READ, k.FILE_SHARE_READ, None,
            k.OPEN_EXISTING, k.FILE_ATTRIBUTE_NORMAL, None)
        if mime_handle not in (0, INVALID_HANDLE_VALUE):
            mime_buffer = Buffer.zeroed(1024)
            yield from k32.ReadFile(mime_handle, mime_buffer, 1024, None, None)
            yield from k32.CloseHandle(mime_handle)

        self._cs = OutCell(label="apache-cs")
        yield from k32.InitializeCriticalSection(self._cs)
        if (yield from env_flag(ctx, CLUSTER_ENV_MARKER)):
            yield from k32.GetTickCount()
            yield from k32.OutputDebugStringA("Apache child under MSCS")

        yield from ctx.compute(CHILD_STARTUP_TIME)

        listener = ctx.machine.transport.listen(content.HTTP_PORT, ctx.process)
        if listener is None:
            yield from abort(ctx)  # bind failure: predecessor lingering
        yield from k32.SetEvent(ready_handle)

        while True:
            conn = yield from ctx.machine.transport.accept(listener, timeout=None)
            if conn is RESET or conn is TIMED_OUT:
                yield from k32.ExitProcess(0)
            yield from self._serve_connection(ctx, heap, conn, docroot_ok)
            yield from k32.Sleep(50)  # inter-request housekeeping

    # ------------------------------------------------------------------
    def _serve_connection(self, ctx, heap, conn, docroot_ok: bool):
        transport = ctx.machine.transport
        request = yield from transport.recv(conn, Side.SERVER, timeout=60.0)
        if isinstance(request, ProbePing):
            transport.send(conn, Side.SERVER, ProbePong())
            return
        if request is RESET or request is TIMED_OUT or \
                not isinstance(request, HttpRequest):
            return
        yield from ctx.k32.EnterCriticalSection(self._cs)
        if request.is_cgi:
            response = yield from self._serve_cgi(ctx, heap, request)
        else:
            response = yield from self._serve_static(ctx, heap, request,
                                                     docroot_ok)
        yield from ctx.k32.LeaveCriticalSection(self._cs)
        transport.send(conn, Side.SERVER, response)

    def _serve_static(self, ctx, heap, request, docroot_ok: bool):
        k32 = ctx.k32
        if not docroot_ok:
            return HttpResponse(HTTP_NOT_FOUND, b"not found")
        path = content.APACHE_DOCROOT + request.path.replace("/", "\\")
        handle = yield from k32.CreateFileA(
            path, k.GENERIC_READ, k.FILE_SHARE_READ, None, k.OPEN_EXISTING,
            k.FILE_ATTRIBUTE_NORMAL, None)
        if handle in (0, INVALID_HANDLE_VALUE):
            return HttpResponse(HTTP_NOT_FOUND, b"not found")
        size = yield from k32.GetFileSize(handle, None)
        if size == k.INVALID_FILE_SIZE:
            yield from k32.CloseHandle(handle)
            return HttpResponse(HTTP_SERVER_ERROR, b"stat failure")
        block_ptr = yield from k32.HeapAlloc(heap, 0, size)
        read_count = OutCell()
        ok = yield from k32.ReadFile(handle, block_ptr, size, read_count, None)
        yield from k32.CloseHandle(handle)
        if ok != 1:
            return HttpResponse(HTTP_SERVER_ERROR, b"read failure")
        # Sized and checksummed now: the body is the heap block itself.
        response = HttpResponse(HTTP_OK, heap_body(ctx.memory(block_ptr), size))
        yield from ctx.compute(BEHAVIOR.static_service_time)
        yield from k32.HeapFree(heap, 0, block_ptr)
        return response

    def _serve_cgi(self, ctx, heap, request):
        k32 = ctx.k32
        read_end = OutCell()
        write_end = OutCell()
        ok = yield from k32.CreatePipe(read_end, write_end, None, 4096)
        if ok != 1:
            return HttpResponse(HTTP_SERVER_ERROR, b"pipe failure")
        info = OutCell()
        ok = yield from k32.CreateProcessA(
            CGI_IMAGE,
            f"{CGI_IMAGE} {content.APACHE_CGI_SCRIPT} {write_end.value}",
            None, None, True, 0, None, None, StartupInfo("cgi"), info)
        if ok != 1:
            return HttpResponse(HTTP_SERVER_ERROR, b"cgi spawn failure")
        status = yield from k32.WaitForSingleObject(
            info.value["hProcess"], 20_000)
        exit_code = OutCell(1)
        yield from k32.GetExitCodeProcess(info.value["hProcess"], exit_code)
        if status != WAIT_OBJECT_0 or exit_code.value != 0:
            return HttpResponse(HTTP_SERVER_ERROR, b"cgi failure")
        output = Buffer.zeroed(content.CGI_PAGE_SIZE)
        read_count = OutCell()
        ok = yield from k32.ReadFile(read_end.value, output,
                                     content.CGI_PAGE_SIZE, read_count, None)
        if ok != 1:
            return HttpResponse(HTTP_SERVER_ERROR, b"cgi read failure")
        yield from ctx.compute(BEHAVIOR.cgi_service_time)
        return HttpResponse(HTTP_OK, bytes(output.data[:read_count.value]))


class CgiInterpreter:
    """The per-request CGI process: reads the script, writes its page
    into the pipe handle passed on the command line, and exits."""

    image_name = CGI_IMAGE

    def __init__(self, command_line: str):
        self.command_line = command_line

    def main(self, ctx):
        k32 = ctx.k32
        parts = self.command_line.split()
        script_path = parts[1] if len(parts) > 1 else ""
        try:
            pipe_handle = int(parts[2]) if len(parts) > 2 else 0
        except ValueError:
            pipe_handle = 0
        handle = yield from k32.CreateFileA(
            script_path, k.GENERIC_READ, k.FILE_SHARE_READ, None,
            k.OPEN_EXISTING, k.FILE_ATTRIBUTE_NORMAL, None)
        if handle in (0, INVALID_HANDLE_VALUE):
            yield from abort(ctx)
        script_buffer = Buffer.zeroed(512)
        read_count = OutCell()
        ok = yield from k32.ReadFile(handle, script_buffer, 512, read_count, None)
        yield from k32.CloseHandle(handle)
        if ok != 1:
            yield from abort(ctx)
        source = bytes(script_buffer.data[:read_count.value])
        page = content.cgi_page(source)
        yield from ctx.compute(0.6)  # interpreter work
        yield from k32.WriteFile(pipe_handle, Buffer(page), len(page),
                                 None, None)
        yield from k32.ExitProcess(0)
