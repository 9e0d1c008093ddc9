"""The Microsoft IIS 3.0 workload (HTTP functionality only, simulated).

Personality, per the paper's measurements:

- **monolithic**: all functionality in one process, so any crash or
  hang takes the whole service with it — no application-level restart
  like Apache's master/child split;
- **fast starter / early RUNNING**: IIS reports ``SERVICE_RUNNING``
  almost immediately and finishes initialising afterwards.  Faults that
  kill it during late initialisation therefore strike *after* the SCM
  released its database lock, which is why merged-handle ``watchd2``
  already fixes IIS (Section 4.3) while SQL Server needs ``watchd3``;
- **less defensive** than Apache: several return codes go unchecked
  (crashes), and configuration-read failures are papered over with
  defaults (wrong-content degradations that no restart cures — the
  residual failures IIS shows even under watchd).

The startup call profile contains exactly the 76 distinct kernel32
functions Table 1 reports, six of which sit in the internal-watchdog
block that IIS skips when NT-SwiFT's environment marker is present
(76 → 70 under watchd); running under MSCS adds no new functions
(76 → 76).
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
from ..nt.objects import StartupInfo, ThreadEntry
from ..sim import TIMED_OUT
from . import content
from .base import (
    CLUSTER_ENV_MARKER,
    WATCHD_ENV_MARKER,
    ServerBehavior,
    abort,
    env_flag,
    heap_body,
)

IIS_IMAGE = "inetinfo.exe"
CGI_IMAGE = "cgi.exe"
SERVICE_NAME = "W3SVC"
SERVICE_WAIT_HINT = 15.0
SHUTDOWN_EVENT = "DTS_SHUTDOWN"

BEHAVIOR = ServerBehavior(
    startup_time=2.6,
    static_service_time=5.15,
    cgi_service_time=6.4,
)


def register_images(machine) -> None:
    from .apache import CgiInterpreter

    machine.processes.register_image(
        IIS_IMAGE, lambda cmd: IisServer(), role="iis")
    if not machine.processes.has_image(CGI_IMAGE):
        machine.processes.register_image(
            CGI_IMAGE, lambda cmd: CgiInterpreter(cmd), role="cgi")


class IisServer:
    """inetinfo.exe: the whole web server in one process."""

    image_name = IIS_IMAGE

    def main(self, ctx):
        k32 = ctx.k32

        # inetinfo reports RUNNING essentially immediately upon service
        # dispatch and performs all web-service initialisation behind
        # that checkpoint — so faults that kill IIS during startup
        # strike *after* the SCM released its lock, which is why the
        # merged-handle watchd2 already recovers them (Section 4.3).
        yield from ctx.compute(0.05)
        ctx.machine.scm.notify_running(ctx.process)

        # --- C runtime and process environment -----------------------
        yield from k32.GetVersion()
        yield from k32.GetCommandLineA()
        heap = yield from k32.GetProcessHeap()
        scratch = yield from k32.HeapAlloc(heap, 0, 16384)
        if scratch == 0:
            yield from abort(ctx, 3)
        startup_info = OutCell()
        yield from k32.GetStartupInfoA(startup_info)
        yield from k32.GetStdHandle(k.STD_OUTPUT_HANDLE)
        yield from k32.SetHandleCount(64)
        yield from k32.GetACP()
        yield from k32.GetCPInfo(1252, OutCell())
        env_block = yield from k32.GetEnvironmentStrings()
        yield from k32.FreeEnvironmentStringsA(env_block)
        yield from k32.SetErrorMode(1)
        yield from k32.SetUnhandledExceptionFilter(None)
        yield from k32.SetConsoleCtrlHandler(None, True)

        # --- System identity ------------------------------------------
        yield from k32.GetVersionExA(OutCell())
        yield from k32.GetSystemInfo(OutCell())
        yield from k32.GetComputerNameA(Buffer.zeroed(32), OutCell(32))
        yield from k32.GetSystemDirectoryA(Buffer.zeroed(64), 64)
        yield from k32.GetWindowsDirectoryA(Buffer.zeroed(64), 64)
        yield from k32.GetModuleFileNameA(0, Buffer.zeroed(260), 260)
        yield from k32.GetCurrentProcessId()
        yield from k32.GetTickCount()

        yield from ctx.compute(0.45)

        # --- Configuration (papered-over on failure: degradations) ----
        docroot_buffer = Buffer.zeroed(128)
        copied = yield from k32.GetPrivateProfileStringA(
            "w3svc", "HomeDirectory", "C:\\WebDefault", docroot_buffer, 128,
            content.IIS_CONFIG)
        docroot = bytes(docroot_buffer.data[:copied]).decode("latin-1") \
            if copied else "C:\\WebDefault"
        port = yield from k32.GetPrivateProfileIntA(
            "w3svc", "Port", content.HTTP_PORT, content.IIS_CONFIG)
        if not 0 < port < 65536:
            port = content.HTTP_PORT

        # --- Metabase: mapped, parsed with no validation --------------
        metabase_handle = yield from k32.CreateFileA(
            content.IIS_METABASE, k.GENERIC_READ, k.FILE_SHARE_READ, None,
            k.OPEN_EXISTING, k.FILE_ATTRIBUTE_NORMAL, None)
        metabase_size = yield from k32.GetFileSize(metabase_handle, None)
        mapping = yield from k32.CreateFileMappingA(
            metabase_handle, None, k.PAGE_READONLY, 0, metabase_size, None)
        view_ptr = yield from k32.MapViewOfFile(mapping, 4, 0, 0, 0)
        view = ctx.memory(view_ptr)
        metabase_ok = view is not None and bytes(view.data[:4]) == b"MBIN"
        yield from k32.UnmapViewOfFile(view_ptr)
        yield from k32.CloseHandle(metabase_handle)

        # --- String plumbing over the script map ----------------------
        script_buffer = Buffer.zeroed(128)
        yield from k32.lstrcpyA(script_buffer, content.IIS_CGI_SCRIPT)
        yield from k32.lstrlenA(script_buffer)
        yield from k32.lstrcmpiA("GET", "get")
        yield from k32.MultiByteToWideChar(k.CP_ACP, 0, "wwwroot", 7,
                                           Buffer.zeroed(32), 32)
        yield from k32.WideCharToMultiByte(k.CP_ACP, 0, "wwwroot", 7,
                                           Buffer.zeroed(32), 32, None, None)

        # --- Content directory scan -----------------------------------
        find_data = OutCell()
        find_handle = yield from k32.FindFirstFileA(
            f"{docroot}\\*", find_data)
        if find_handle not in (0, INVALID_HANDLE_VALUE):
            while (yield from k32.FindNextFileA(find_handle, find_data)) == 1:
                pass
            yield from k32.FindClose(find_handle)
        yield from k32.GetFileAttributesA(f"{docroot}\\index.html")

        # --- ISAPI extensions ------------------------------------------
        isapi = yield from k32.LoadLibraryA("w3isapi.dll")
        if isapi != 0:
            yield from k32.GetProcAddress(isapi, "HttpExtensionProc")
            yield from k32.DisableThreadLibraryCalls(isapi)
        yield from k32.GetModuleHandleA(None)
        filters = yield from k32.LoadLibraryA("sspifilt.dll")
        if filters != 0:
            yield from k32.FreeLibrary(filters)

        # --- Memory pools (allocation results unchecked: IIS style) ---
        pool_heap = yield from k32.HeapCreate(0, 1 << 16, 0)
        cache_ptr = yield from k32.VirtualAlloc(None, 1 << 16, k.MEM_COMMIT,
                                                k.PAGE_READWRITE)
        global_block = yield from k32.GlobalAlloc(k.GPTR, 4096)
        yield from k32.GlobalFree(global_block)
        local_block = yield from k32.LocalAlloc(0, 2048)
        yield from k32.LocalFree(local_block)
        yield from k32.HeapFree(heap, 0, scratch)
        scratch = yield from k32.HeapAlloc(heap, 0, 16384)

        # --- Synchronisation state -------------------------------------
        yield from k32.CreateEventA(None, True, False, SHUTDOWN_EVENT)
        pool_sem = yield from k32.CreateSemaphoreA(None, 4, 4, None)
        yield from k32.CreateMutexA(None, False, None)
        self._cs = OutCell(label="iis-cs")
        yield from k32.InitializeCriticalSection(self._cs)
        tls_index = yield from k32.TlsAlloc()
        yield from k32.TlsSetValue(tls_index, cache_ptr or 1)
        self._request_counter = OutCell(0)
        yield from k32.InterlockedIncrement(self._request_counter)

        # --- Background statistics thread ------------------------------
        stats_entry = ThreadEntry(lambda: self._stats_thread(ctx),
                                  label="iis-stats")
        yield from k32.CreateThread(None, 0, stats_entry, None, 0, None)
        yield from k32.SetThreadPriority(k.CURRENT_THREAD_PSEUDO_HANDLE, 1)

        # --- Internal watchdog (skipped when NT-SwiFT watchd runs) ----
        if not (yield from env_flag(ctx, WATCHD_ENV_MARKER)):
            yield from k32.QueryPerformanceFrequency(OutCell())
            yield from k32.QueryPerformanceCounter(OutCell())
            yield from k32.GetLocalTime(OutCell())
            yield from k32.GetSystemTimeAsFileTime(OutCell())
            timer = yield from k32.CreateWaitableTimerA(None, False, None)
            yield from k32.SetWaitableTimer(timer, OutCell(0), 60_000,
                                            None, None, False)
        if (yield from env_flag(ctx, CLUSTER_ENV_MARKER)):
            # Under MSCS: notes the cluster, reusing already-loaded APIs.
            yield from k32.GetTickCount()
            yield from k32.GetComputerNameA(Buffer.zeroed(32), OutCell(32))

        yield from ctx.compute(BEHAVIOR.startup_time)

        # Late-initialisation settle: waits on an event that is never
        # signalled, relying on the 3-second timeout to proceed — the
        # corruption-to-INFINITE hang spot.
        settle = yield from k32.CreateEventA(None, True, False, None)
        yield from k32.WaitForSingleObject(settle, 3000)

        listener = ctx.machine.transport.listen(port, ctx.process)
        if listener is None:
            yield from abort(ctx)  # bind failure: predecessor lingering
        yield from self._serve_forever(ctx, heap, listener, docroot,
                                       metabase_ok, pool_sem)

    # ------------------------------------------------------------------
    def _stats_thread(self, ctx):
        while True:
            yield from ctx.k32.Sleep(5000)
            yield from ctx.k32.InterlockedIncrement(self._request_counter)

    def _serve_forever(self, ctx, heap, listener, docroot, metabase_ok,
                       pool_sem):
        k32 = ctx.k32
        transport = ctx.machine.transport
        while True:
            conn = yield from transport.accept(listener, timeout=None)
            if conn is RESET or conn is TIMED_OUT:
                yield from k32.ExitProcess(0)
            request = yield from transport.recv(conn, Side.SERVER, timeout=60.0)
            if isinstance(request, ProbePing):
                transport.send(conn, Side.SERVER, ProbePong())
                continue
            if request is RESET or request is TIMED_OUT or \
                    not isinstance(request, HttpRequest):
                continue
            yield from k32.EnterCriticalSection(self._cs)
            if request.is_cgi:
                response = yield from self._serve_cgi(ctx, request)
            else:
                response = yield from self._serve_static(
                    ctx, heap, request, docroot, metabase_ok)
            yield from k32.LeaveCriticalSection(self._cs)
            transport.send(conn, Side.SERVER, response)

    def _serve_static(self, ctx, heap, request, docroot, metabase_ok):
        k32 = ctx.k32
        if not metabase_ok:
            return HttpResponse(HTTP_SERVER_ERROR, b"metabase corrupt")
        path = docroot + request.path.replace("/", "\\")
        handle = yield from k32.CreateFileA(
            path, k.GENERIC_READ, k.FILE_SHARE_READ, None, k.OPEN_EXISTING,
            k.FILE_ATTRIBUTE_NORMAL, None)
        if handle in (0, INVALID_HANDLE_VALUE):
            # A corrupted docroot lands here on every request: the
            # degradation that no middleware restart cures.
            return HttpResponse(HTTP_NOT_FOUND, b"not found")
        yield from k32.SetFilePointer(handle, 0, None, k.FILE_BEGIN)
        size = yield from k32.GetFileSize(handle, None)
        if size == k.INVALID_FILE_SIZE:
            size = 0
        block_ptr = yield from k32.HeapAlloc(heap, 0, size)
        read_count = OutCell()
        # The ReadFile result goes unchecked — IIS style.
        yield from k32.ReadFile(handle, block_ptr, size, read_count, None)
        yield from k32.CloseHandle(handle)
        # Sized and checksummed now: the body is the heap block itself.
        response = HttpResponse(HTTP_OK, heap_body(ctx.memory(block_ptr), size))
        yield from ctx.compute(BEHAVIOR.static_service_time)
        return response

    def _serve_cgi(self, ctx, request):
        k32 = ctx.k32
        read_end = OutCell()
        write_end = OutCell()
        ok = yield from k32.CreatePipe(read_end, write_end, None, 4096)
        if ok != 1:
            return HttpResponse(HTTP_SERVER_ERROR, b"pipe failure")
        info = OutCell()
        ok = yield from k32.CreateProcessA(
            CGI_IMAGE,
            f"{CGI_IMAGE} {content.IIS_CGI_SCRIPT} {write_end.value}",
            None, None, True, 0, None, None, StartupInfo("iis-cgi"), info)
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
