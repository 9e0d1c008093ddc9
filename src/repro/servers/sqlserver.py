"""The Microsoft SQL Server 7 workload (simulated).

Personality, per the paper's measurements:

- **late RUNNING**: SQL Server reports ``SERVICE_RUNNING`` only after
  its recovery phase — loading the master database — completes.  Early
  deaths therefore always strike while the SCM is in Start-Pending with
  its database locked, which is exactly the population ``watchd1`` and
  ``watchd2`` cannot restart (Figure 5: SQL unchanged between v1 and
  v2, dramatically improved by v3's validate-and-retry start);
- **careful error handling**: return codes are checked and bad startup
  states abort cleanly rather than limp on;
- **data-sensitive**: the master data file is loaded with ``ReadFileEx``
  and feeds the real SQL engine, so a corrupted read length yields an
  empty or truncated table.  The recovery code then either detects the
  damage and aborts or comes up with wrong data — reproducing the one
  non-deterministic fault response the paper reports (zeroing
  ``nNumberOfBytesToRead`` of ``ReadFileEx``).

The call profile totals 71 distinct kernel32 functions standalone,
74 under MSCS (+3 in the cluster branch) and 70 under watchd (−1: the
internal watchdog timer), matching Table 1.
"""

from __future__ import annotations

from ..net.http import ProbePing, ProbePong, SqlRequest, SqlResponse
from ..net.transport import RESET, Side
from ..nt.errors import INVALID_HANDLE_VALUE
from ..nt.kernel32 import constants as k
from ..nt.memory import Buffer, OutCell
from ..nt.objects import ThreadEntry
from ..sim import TIMED_OUT
from . import content
from .base import (
    CLUSTER_ENV_MARKER,
    WATCHD_ENV_MARKER,
    ServerBehavior,
    abort,
    env_flag,
)
from .sql import Database, SqlRuntimeError, SqlSyntaxError, recover

SQL_IMAGE = "sqlservr.exe"
SERVICE_NAME = "MSSQLServer"
SERVICE_WAIT_HINT = 25.0
SHUTDOWN_EVENT = "DTS_SHUTDOWN"

BEHAVIOR = ServerBehavior(
    startup_time=3.4,
    static_service_time=0.0,  # unused: SQL serves queries
    cgi_service_time=0.0,
)
QUERY_SERVICE_TIME = 5.6


def register_images(machine) -> None:
    machine.processes.register_image(
        SQL_IMAGE, lambda cmd: SqlServer(), role="sql")


class SqlServer:
    """sqlservr.exe: the database engine process."""

    image_name = SQL_IMAGE

    def main(self, ctx):
        k32 = ctx.k32

        # --- C runtime -------------------------------------------------
        yield from k32.GetVersion()
        yield from k32.GetCommandLineA()
        heap = yield from k32.GetProcessHeap()
        scratch = yield from k32.HeapAlloc(heap, 0, 32768)
        if scratch == 0:
            yield from abort(ctx, 3)
        yield from k32.GetStartupInfoA(OutCell())
        yield from k32.GetStdHandle(k.STD_ERROR_HANDLE)
        yield from k32.SetHandleCount(64)
        yield from k32.GetACP()
        yield from k32.GetCPInfo(1252, OutCell())
        env_block = yield from k32.GetEnvironmentStrings()
        yield from k32.FreeEnvironmentStringsA(env_block)
        yield from k32.SetErrorMode(1)
        yield from k32.SetUnhandledExceptionFilter(None)
        yield from k32.SetConsoleCtrlHandler(None, True)

        # --- System identity -------------------------------------------
        yield from k32.GetVersionExA(OutCell())
        yield from k32.GetSystemInfo(OutCell())
        yield from k32.GetCurrentProcessId()
        yield from k32.GetTickCount()
        yield from k32.GetModuleFileNameA(0, Buffer.zeroed(260), 260)

        # --- Configuration ----------------------------------------------
        data_path_buffer = Buffer.zeroed(128)
        copied = yield from k32.GetPrivateProfileStringA(
            "sqlserver", "MasterDataFile", content.SQL_DATA_FILE,
            data_path_buffer, 128, content.SQL_CONFIG)
        data_path = bytes(data_path_buffer.data[:copied]).decode("latin-1") \
            if copied else content.SQL_DATA_FILE
        port = yield from k32.GetPrivateProfileIntA(
            "sqlserver", "Port", content.SQL_PORT, content.SQL_CONFIG)
        if not 0 < port < 65536:
            port = content.SQL_PORT

        # --- Sort order / locale plumbing --------------------------------
        yield from k32.lstrcpyA(Buffer.zeroed(64), "dictionary_iso_1")
        yield from k32.lstrcmpiA("dictionary", "DICTIONARY")
        yield from k32.lstrlenA("dictionary_iso_1")
        yield from k32.MultiByteToWideChar(k.CP_ACP, 0, "master", 6,
                                           Buffer.zeroed(16), 16)
        yield from k32.WideCharToMultiByte(k.CP_ACP, 0, "master", 6,
                                           Buffer.zeroed(16), 16, None, None)
        yield from k32.CompareStringA(0x0409, 0, "a", 1, "a", 1)
        yield from k32.FormatMessageA(0, None, 0, 0, Buffer.zeroed(64), 64,
                                      None)

        # --- Recovery: load the master database -------------------------
        yield from ctx.compute(1.0)
        raw_script = yield from self._load_data_file(ctx, heap, data_path)
        self._database, recovery_ok = self._recover(ctx, raw_script)
        if not recovery_ok:
            # Recovery detected damage it cannot repair.
            error_handle = yield from k32.CreateFileA(
                f"{content.SQL_ROOT}\\log\\errorlog", k.GENERIC_WRITE, 0,
                None, k.CREATE_ALWAYS, k.FILE_ATTRIBUTE_NORMAL, None)
            if error_handle not in (0, INVALID_HANDLE_VALUE):
                yield from k32.WriteFile(
                    error_handle, Buffer(b"recovery failed"), 15, None, None)
                yield from k32.CloseHandle(error_handle)
            yield from abort(ctx)

        # Startup banner in the errorlog.
        log_handle = yield from k32.CreateFileA(
            f"{content.SQL_ROOT}\\log\\errorlog", k.GENERIC_WRITE, 0, None,
            k.CREATE_ALWAYS, k.FILE_ATTRIBUTE_NORMAL, None)
        if log_handle not in (0, INVALID_HANDLE_VALUE):
            yield from k32.WriteFile(
                log_handle, Buffer(b"SQL Server starting"), 19, None, None)
            yield from k32.CloseHandle(log_handle)

        # --- Lock manager and worker state -------------------------------
        yield from k32.CreateEventA(None, True, False, SHUTDOWN_EVENT)
        stats_event = yield from k32.CreateEventA(None, False, False, None)
        self._stats_event = stats_event
        yield from k32.SetEvent(stats_event)
        yield from k32.ResetEvent(stats_event)
        yield from k32.CreateMutexA(None, False, None)
        worker_sem = yield from k32.CreateSemaphoreA(None, 2, 2, None)
        yield from k32.ReleaseSemaphore(worker_sem, 1, None)
        self._cs = OutCell(label="sql-cs")
        yield from k32.InitializeCriticalSection(self._cs)
        self._query_counter = OutCell(0)
        yield from k32.InterlockedIncrement(self._query_counter)
        yield from k32.InterlockedDecrement(self._query_counter)
        yield from k32.InterlockedExchange(self._query_counter, 0)

        # --- Buffer pool --------------------------------------------------
        pool_heap = yield from k32.HeapCreate(0, 1 << 16, 0)
        pool_ptr = yield from k32.VirtualAlloc(None, 1 << 18, k.MEM_COMMIT,
                                               k.PAGE_READWRITE)
        yield from k32.GlobalMemoryStatus(OutCell())
        work_block = yield from k32.LocalAlloc(0, 4096)
        yield from k32.LocalFree(work_block)
        resized = yield from k32.HeapReAlloc(heap, 0, scratch, 65536)
        if resized:
            yield from k32.HeapFree(heap, 0, resized)
        if pool_ptr:
            yield from k32.VirtualFree(pool_ptr, 0, k.MEM_RELEASE)

        # --- Worker thread (lazy writer) ----------------------------------
        tls_index = yield from k32.TlsAlloc()
        yield from k32.TlsSetValue(tls_index, 1)
        yield from k32.TlsGetValue(tls_index)
        writer_entry = ThreadEntry(lambda: self._lazy_writer(ctx),
                                   label="lazy-writer")
        writer = yield from k32.CreateThread(None, 0, writer_entry, None, 0,
                                             None)
        yield from k32.SetThreadPriority(k.CURRENT_THREAD_PSEUDO_HANDLE, 0)
        yield from k32.DuplicateHandle(
            0xFFFFFFFF, writer, 0xFFFFFFFF, OutCell(), 0, False, 2)

        # --- Timing infrastructure -----------------------------------------
        yield from k32.GetSystemTimeAsFileTime(OutCell())
        yield from k32.QueryPerformanceCounter(OutCell())
        yield from k32.QueryPerformanceFrequency(OutCell())
        yield from k32.GetLocalTime(OutCell())
        yield from k32.OutputDebugStringA("SQL Server recovery complete")
        yield from k32.Sleep(200)  # recovery settle pause

        if not (yield from env_flag(ctx, WATCHD_ENV_MARKER)):
            # Internal watchdog timer, redundant under NT-SwiFT.
            yield from k32.CreateWaitableTimerA(None, False, None)
        if (yield from env_flag(ctx, CLUSTER_ENV_MARKER)):
            # Cluster-aware startup: validates the quorum structures it
            # was handed.  These probing/guarded calls absorb parameter
            # corruption, matching the paper's observation that the
            # middleware-induced extra functions only ever produced
            # normal-success outcomes.
            quorum = Buffer.zeroed(64, label="quorum")
            yield from k32.IsBadReadPtr(quorum, 64)
            yield from k32.IsBadWritePtr(quorum, 64)
            yield from k32.lstrcmpA("primary", "primary")

        yield from ctx.compute(BEHAVIOR.startup_time)

        # SQL Server reports RUNNING only now, after full recovery.
        ctx.machine.scm.notify_running(ctx.process)

        listener = ctx.machine.transport.listen(port, ctx.process)
        if listener is None:
            yield from abort(ctx)  # bind failure: predecessor lingering
        yield from self._serve_forever(ctx, listener)

    # ------------------------------------------------------------------
    def _load_data_file(self, ctx, heap, path):
        """Read the master data file with ``ReadFileEx``."""
        k32 = ctx.k32
        handle = yield from k32.CreateFileA(
            path, k.GENERIC_READ, k.FILE_SHARE_READ, None, k.OPEN_EXISTING,
            k.FILE_ATTRIBUTE_NORMAL, None)
        if handle in (0, INVALID_HANDLE_VALUE):
            return None
        yield from k32.SetFilePointer(handle, 0, None, k.FILE_BEGIN)
        size = yield from k32.GetFileSize(handle, None)
        if size == k.INVALID_FILE_SIZE:
            yield from k32.CloseHandle(handle)
            return None
        block_ptr = yield from k32.HeapAlloc(heap, 0, size)
        overlapped = OutCell(label="overlapped")
        ok = yield from k32.ReadFileEx(handle, block_ptr, size, overlapped,
                                       None)
        yield from k32.FlushFileBuffers(handle)
        yield from k32.CloseHandle(handle)
        if ok != 1:
            return None
        block = ctx.memory(block_ptr)
        if block is None:
            return None
        return bytes(block.data[:size]).split(b"\0", 1)[0]

    def _recover(self, ctx, raw_script):
        """Build the in-memory database from the (possibly damaged)
        data-file bytes.

        Returns ``(database, ok)``.  Whether visibly-damaged data is
        *detected* (abort, ok=False) or silently accepted depends on
        where the truncation landed — modelled with the machine's
        seeded randomness, reproducing the paper's note that the zeroed
        ``ReadFileEx`` length for SQL Server "sometimes caused a
        detected error and sometimes caused a successful restart".
        The replay is memoised per data-file content (:func:`recover`);
        the coin is drawn here, so a damaged file draws it on every
        boot.
        """
        if raw_script is None:
            return Database("master"), False
        database = recover(raw_script)
        healthy = "inventory" in database.tables and \
            len(database.tables["inventory"].rows) >= 40
        if healthy:
            return database, True
        detected = ctx.machine.rng.chance("sql-recovery-check", 0.5)
        return database, not detected

    def _lazy_writer(self, ctx):
        while True:
            yield from ctx.k32.Sleep(8000)
            yield from ctx.k32.InterlockedIncrement(self._query_counter)

    # ------------------------------------------------------------------
    def _serve_forever(self, ctx, listener):
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
                    not isinstance(request, SqlRequest):
                continue
            yield from k32.EnterCriticalSection(self._cs)
            yield from k32.PulseEvent(self._stats_event)
            yield from k32.WaitForSingleObject(self._stats_event, 100)
            response = yield from self._execute_query(ctx, request.query)
            yield from k32.LeaveCriticalSection(self._cs)
            transport.send(conn, Side.SERVER, response)

    def _execute_query(self, ctx, query: str):
        yield from ctx.compute(QUERY_SERVICE_TIME)
        yield from ctx.k32.InterlockedIncrement(self._query_counter)
        try:
            result = self._database.execute(query)
        except (SqlSyntaxError, SqlRuntimeError) as exc:
            return SqlResponse(False, error=str(exc))
        if result is None:
            return SqlResponse(True, 0, 0)
        return SqlResponse(True, result.row_count, result.checksum())
