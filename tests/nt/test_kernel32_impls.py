"""Behavioural tests for kernel32 implementations, exercised through
real simulated processes (the same path fault injection uses)."""

import pytest

from repro.nt import Buffer, OutCell, ThreadEntry
from repro.nt.errors import (
    ERROR_ENVVAR_NOT_FOUND,
    ERROR_FILE_NOT_FOUND,
    ERROR_INVALID_HANDLE,
    INVALID_HANDLE_VALUE,
    WAIT_OBJECT_0,
    WAIT_TIMEOUT,
)
from repro.nt.kernel32 import constants as k


class TestFileApi:
    def test_create_read_close_roundtrip(self, machine, run_program):
        machine.fs.write_file("c:\\data.txt", b"hello world")

        def body(ctx):
            handle = yield from ctx.k32.CreateFileA(
                "c:\\data.txt", k.GENERIC_READ, 0, None, k.OPEN_EXISTING, 0, None)
            buffer = Buffer(b"\0" * 16)
            read = OutCell()
            ok = yield from ctx.k32.ReadFile(handle, buffer, 16, read, None)
            yield from ctx.k32.CloseHandle(handle)
            return ok, bytes(buffer.data[:read.value])

        _, program = run_program(body)
        assert program.result == (1, b"hello world")

    def test_open_missing_file_fails(self, machine, run_program):
        def body(ctx):
            handle = yield from ctx.k32.CreateFileA(
                "c:\\nope.txt", k.GENERIC_READ, 0, None, k.OPEN_EXISTING, 0, None)
            error = yield from ctx.k32.GetLastError()
            return handle, error

        _, program = run_program(body)
        assert program.result == (INVALID_HANDLE_VALUE, ERROR_FILE_NOT_FOUND)

    def test_corrupted_disposition_rejected(self, machine, run_program):
        machine.fs.write_file("c:\\data.txt", b"x")

        def body(ctx):
            return (yield from ctx.k32.CreateFileA(
                "c:\\data.txt", k.GENERIC_READ, 0, None, 0xFFFFFFFF, 0, None))

        _, program = run_program(body)
        assert program.result == INVALID_HANDLE_VALUE

    def test_zero_access_mask_denies_read(self, machine, run_program):
        machine.fs.write_file("c:\\data.txt", b"x")

        def body(ctx):
            handle = yield from ctx.k32.CreateFileA(
                "c:\\data.txt", 0, 0, None, k.OPEN_EXISTING, 0, None)
            ok = yield from ctx.k32.ReadFile(handle, Buffer(b"\0"), 1, None, None)
            error = yield from ctx.k32.GetLastError()
            return ok, error

        _, program = run_program(body)
        assert program.result[0] == 0

    def test_read_count_beyond_buffer_crashes(self, machine, run_program):
        machine.fs.write_file("c:\\data.txt", b"y" * 100)

        def body(ctx):
            handle = yield from ctx.k32.CreateFileA(
                "c:\\data.txt", k.GENERIC_READ, 0, None, k.OPEN_EXISTING, 0, None)
            # All-ones corruption of nNumberOfBytesToRead.
            yield from ctx.k32.ReadFile(handle, Buffer(b"\0" * 8), 0xFFFFFFFF,
                                        None, None)

        process, _ = run_program(body)
        assert process.crashed
        assert process.exit_code == 0xC0000005

    def test_zero_byte_read_is_silent(self, machine, run_program):
        machine.fs.write_file("c:\\data.txt", b"content")

        def body(ctx):
            handle = yield from ctx.k32.CreateFileA(
                "c:\\data.txt", k.GENERIC_READ, 0, None, k.OPEN_EXISTING, 0, None)
            buffer = Buffer(b"\xff" * 4)
            read = OutCell(99)
            ok = yield from ctx.k32.ReadFile(handle, buffer, 0, read, None)
            return ok, read.value, bytes(buffer.data)

        _, program = run_program(body)
        assert program.result == (1, 0, b"\0\0\0\0")

    def test_short_read_zeroes_the_rest_of_the_buffer(self, machine,
                                                      run_program):
        machine.fs.write_file("c:\\data.txt", b"abc")

        def body(ctx):
            handle = yield from ctx.k32.CreateFileA(
                "c:\\data.txt", k.GENERIC_READ, 0, None, k.OPEN_EXISTING, 0, None)
            buffer = Buffer(b"\xff" * 8)
            read = OutCell()
            ok = yield from ctx.k32.ReadFile(handle, buffer, 8, read, None)
            return ok, read.value, bytes(buffer.data)

        _, program = run_program(body)
        assert program.result == (1, 3, b"abc" + b"\0" * 5)

    def test_handles_never_see_each_others_changes(self, machine,
                                                   run_program):
        machine.fs.write_file("c:\\data.txt", b"0123456789")

        def contents(ctx, handle):
            yield from ctx.k32.SetFilePointer(handle, 0, None, k.FILE_BEGIN)
            buffer = Buffer(bytes(16))
            read = OutCell()
            yield from ctx.k32.ReadFile(handle, buffer, 16, read, None)
            return bytes(buffer.data[:read.value])

        def body(ctx):
            def open_file(access):
                return ctx.k32.CreateFileA(
                    "c:\\data.txt", access, k.FILE_SHARE_READ, None,
                    k.OPEN_EXISTING, 0, None)

            writer = yield from open_file(k.GENERIC_READ | k.GENERIC_WRITE)
            reader = yield from open_file(k.GENERIC_READ)
            truncator = yield from open_file(k.GENERIC_READ)
            yield from ctx.k32.WriteFile(writer, Buffer(b"AB"), 2, None, None)
            yield from ctx.k32.SetFilePointer(writer, 4, None, k.FILE_BEGIN)
            yield from ctx.k32.SetEndOfFile(writer)
            # SetEndOfFile does not check the access mask: a read-only
            # handle truncates its own view, and only that.
            yield from ctx.k32.SetFilePointer(truncator, 3, None,
                                              k.FILE_BEGIN)
            truncated = yield from ctx.k32.SetEndOfFile(truncator)
            seen = []
            for handle in (writer, reader, truncator):
                seen.append((yield from contents(ctx, handle)))
            before_close = ctx.machine.fs.read_file("c:\\data.txt")
            for handle in (truncator, reader, writer):
                yield from ctx.k32.CloseHandle(handle)
            return truncated, seen, before_close

        _, program = run_program(body)
        assert program.result == (1, [b"AB23", b"0123456789", b"012"],
                                   b"0123456789")
        # Only the writable handle writes back, on close.
        assert machine.fs.read_file("c:\\data.txt") == b"AB23"

    def test_write_persists_on_close(self, machine, run_program):
        def body(ctx):
            handle = yield from ctx.k32.CreateFileA(
                "c:\\out.log", k.GENERIC_WRITE, 0, None, k.CREATE_ALWAYS, 0, None)
            yield from ctx.k32.WriteFile(handle, Buffer(b"logline"), 7, None, None)
            yield from ctx.k32.CloseHandle(handle)

        run_program(body)
        assert machine.fs.read_file("c:\\out.log") == b"logline"

    def test_find_first_next_close(self, machine, run_program):
        machine.fs.write_file("c:\\docs\\a.html", b"a")
        machine.fs.write_file("c:\\docs\\b.html", b"b")

        def body(ctx):
            cell = OutCell()
            handle = yield from ctx.k32.FindFirstFileA("c:\\docs\\*", cell)
            names = [cell.value]
            while (yield from ctx.k32.FindNextFileA(handle, cell)) == 1:
                names.append(cell.value)
            yield from ctx.k32.FindClose(handle)
            return names

        _, program = run_program(body)
        assert program.result == ["c:\\docs\\a.html", "c:\\docs\\b.html"]

    def test_close_invalid_handle_fails_without_crash(self, run_program):
        def body(ctx):
            ok = yield from ctx.k32.CloseHandle(0xBEE4)
            error = yield from ctx.k32.GetLastError()
            return ok, error

        process, program = run_program(body)
        assert program.result == (0, ERROR_INVALID_HANDLE)
        assert not process.crashed


class TestSyncApi:
    def test_event_set_wakes_waiter(self, machine, run_program):
        def body(ctx):
            handle = yield from ctx.k32.CreateEventA(None, True, False, None)
            yield from ctx.k32.SetEvent(handle)
            return (yield from ctx.k32.WaitForSingleObject(handle, 1000))

        _, program = run_program(body)
        assert program.result == WAIT_OBJECT_0

    def test_wait_timeout(self, machine, run_program):
        def body(ctx):
            handle = yield from ctx.k32.CreateEventA(None, True, False, None)
            return (yield from ctx.k32.WaitForSingleObject(handle, 2000))

        _, program = run_program(body)
        assert program.result == WAIT_TIMEOUT
        assert machine.now >= 2.0

    def test_wait_on_invalid_handle_fails(self, run_program):
        def body(ctx):
            return (yield from ctx.k32.WaitForSingleObject(0xF00C, 100))

        _, program = run_program(body)
        assert program.result == 0xFFFFFFFF  # WAIT_FAILED

    def test_wait_on_pseudo_self_handle_times_out(self, machine, run_program):
        # All-ones handle corruption: waiting on (HANDLE)-1 waits on the
        # calling process itself, which cannot be signaled while it runs.
        def body(ctx):
            return (yield from ctx.k32.WaitForSingleObject(0xFFFFFFFF, 3000))

        _, program = run_program(body)
        assert program.result == WAIT_TIMEOUT
        assert machine.now >= 3.0

    def test_sleep_advances_clock(self, machine, run_program):
        def body(ctx):
            yield from ctx.k32.Sleep(2500)
            return "done"

        _, program = run_program(body)
        assert program.result == "done"
        assert machine.now >= 2.5

    def test_sleep_infinite_hangs_process(self, machine, run_program):
        def body(ctx):
            yield from ctx.k32.Sleep(0xFFFFFFFF)
            return "unreachable"

        process, program = run_program(body, until=500.0)
        assert process.alive
        assert program.result is None

    def test_named_event_shared_across_opens(self, machine, run_program):
        def body(ctx):
            first = yield from ctx.k32.CreateEventA(None, True, False, "Global\\X")
            yield from ctx.k32.SetEvent(first)
            second = yield from ctx.k32.OpenEventA(0, False, "Global\\X")
            return (yield from ctx.k32.WaitForSingleObject(second, 0))

        _, program = run_program(body)
        assert program.result == WAIT_OBJECT_0

    def test_wait_multiple_returns_signaled_index(self, machine, run_program):
        def body(ctx):
            first = yield from ctx.k32.CreateEventA(None, True, False, None)
            second = yield from ctx.k32.CreateEventA(None, True, False, None)
            yield from ctx.k32.SetEvent(second)
            return (yield from ctx.k32.WaitForMultipleObjects(
                2, [first, second], False, 1000))

        _, program = run_program(body)
        assert program.result == WAIT_OBJECT_0 + 1

    def test_semaphore_release_returns_previous_count(self, run_program):
        def body(ctx):
            handle = yield from ctx.k32.CreateSemaphoreA(None, 1, 5, None)
            previous = OutCell()
            ok = yield from ctx.k32.ReleaseSemaphore(handle, 2, previous)
            return ok, previous.value

        _, program = run_program(body)
        assert program.result == (1, 1)


class TestProcessApi:
    def test_exit_process_sets_code(self, run_program):
        def body(ctx):
            yield from ctx.k32.ExitProcess(42)

        process, _ = run_program(body)
        assert process.exit_code == 42
        assert not process.crashed

    def test_terminate_self_via_pseudo_handle(self, run_program):
        # All-ones corruption of a process handle in TerminateProcess
        # makes the caller kill itself.
        def body(ctx):
            yield from ctx.k32.TerminateProcess(0xFFFFFFFF, 7)
            return "unreachable"

        process, program = run_program(body)
        assert process.exit_code == 7
        assert program.result is None

    def test_create_process_runs_registered_image(self, machine, run_program):
        class Child:
            image_name = "child.exe"
            ran = []

            def main(self, ctx):
                Child.ran.append(ctx.process.pid)
                yield from ctx.k32.ExitProcess(5)

        machine.processes.register_image("child.exe", lambda cmd: Child(),
                                         role="child")

        def body(ctx):
            info = OutCell()
            from repro.nt import StartupInfo
            ok = yield from ctx.k32.CreateProcessA(
                "child.exe", None, None, None, False, 0, None, None,
                StartupInfo(), info)
            status = yield from ctx.k32.WaitForSingleObject(
                info.value["hProcess"], 5000)
            code = OutCell()
            yield from ctx.k32.GetExitCodeProcess(info.value["hProcess"], code)
            return ok, status, code.value

        _, program = run_program(body)
        assert program.result == (1, WAIT_OBJECT_0, 5)
        assert Child.ran

    def test_create_process_unknown_image_fails(self, run_program):
        from repro.nt import StartupInfo

        def body(ctx):
            info = OutCell()
            ok = yield from ctx.k32.CreateProcessA(
                "ghost.exe", None, None, None, False, 0, None, None,
                StartupInfo(), info)
            error = yield from ctx.k32.GetLastError()
            return ok, error

        _, program = run_program(body)
        assert program.result == (0, ERROR_FILE_NOT_FOUND)

    def test_create_process_all_ones_flags_rejected(self, machine, run_program):
        from repro.nt import StartupInfo

        machine.processes.register_image(
            "child.exe", lambda cmd: None, role="child")

        def body(ctx):
            info = OutCell()
            return (yield from ctx.k32.CreateProcessA(
                "child.exe", None, None, None, False, 0xFFFFFFFF, None, None,
                StartupInfo(), info))

        _, program = run_program(body)
        assert program.result == 0

    def test_create_suspended_child_never_runs(self, machine, run_program):
        ran = []

        class Child:
            image_name = "child.exe"

            def main(self, ctx):
                ran.append(True)
                yield from ctx.k32.ExitProcess(0)

        machine.processes.register_image("child.exe", lambda cmd: Child(),
                                         role="child")
        from repro.nt import StartupInfo

        def body(ctx):
            info = OutCell()
            ok = yield from ctx.k32.CreateProcessA(
                "child.exe", None, None, None, False, k.CREATE_SUSPENDED,
                None, None, StartupInfo(), info)
            yield from ctx.k32.Sleep(10_000)
            return ok

        _, program = run_program(body)
        assert program.result == 1
        assert ran == []

    def test_null_startup_info_crashes_caller(self, machine, run_program):
        machine.processes.register_image(
            "child.exe", lambda cmd: None, role="child")

        def body(ctx):
            info = OutCell()
            yield from ctx.k32.CreateProcessA(
                "child.exe", None, None, None, False, 0, None, None,
                None, info)

        process, _ = run_program(body)
        assert process.crashed

    def test_parent_death_cascades_to_children(self, machine, run_program):
        class Child:
            image_name = "child.exe"

            def main(self, ctx):
                yield from ctx.k32.Sleep(0xFFFFFFF0)

        machine.processes.register_image("child.exe", lambda cmd: Child(),
                                         role="child")
        from repro.nt import StartupInfo

        def body(ctx):
            info = OutCell()
            yield from ctx.k32.CreateProcessA(
                "child.exe", None, None, None, False, 0, None, None,
                StartupInfo(), info)
            yield from ctx.k32.ExitProcess(1)

        run_program(body)
        children = machine.processes.processes_with_role("child")
        assert children and all(not c.alive for c in children)

    def test_create_thread_runs_entry(self, machine, run_program):
        seen = []

        def body(ctx):
            def thread_body():
                seen.append(ctx.now)
                yield from ctx.k32.Sleep(100)

            handle = yield from ctx.k32.CreateThread(
                None, 0, ThreadEntry(lambda: thread_body()), None, 0, None)
            status = yield from ctx.k32.WaitForSingleObject(handle, 5000)
            return status

        _, program = run_program(body)
        assert program.result == WAIT_OBJECT_0
        assert seen

    def test_corrupted_thread_entry_crashes_process(self, run_program):
        def body(ctx):
            yield from ctx.k32.CreateThread(None, 0, 0xDEAD0000, None, 0, None)
            yield from ctx.k32.Sleep(60_000)

        process, _ = run_program(body)
        assert process.crashed
        assert process.exit_code == 0xC0000005

    def test_tls_roundtrip(self, run_program):
        def body(ctx):
            index = yield from ctx.k32.TlsAlloc()
            yield from ctx.k32.TlsSetValue(index, 1234)
            return (yield from ctx.k32.TlsGetValue(index))

        _, program = run_program(body)
        assert program.result == 1234


class TestMemoryApi:
    def test_heap_alloc_free_roundtrip(self, run_program):
        def body(ctx):
            heap = yield from ctx.k32.GetProcessHeap()
            block = yield from ctx.k32.HeapAlloc(heap, 0, 256)
            ok = yield from ctx.k32.HeapFree(heap, 0, block)
            return block != 0, ok

        _, program = run_program(body)
        assert program.result == (True, 1)

    def test_huge_allocation_fails(self, run_program):
        def body(ctx):
            heap = yield from ctx.k32.GetProcessHeap()
            return (yield from ctx.k32.HeapAlloc(heap, 0, 0xFFFFFFFF))

        _, program = run_program(body)
        assert program.result == 0

    def test_freeing_wild_pointer_crashes(self, run_program):
        def body(ctx):
            heap = yield from ctx.k32.GetProcessHeap()
            yield from ctx.k32.HeapFree(heap, 0, 0xBADBAD00)

        process, _ = run_program(body)
        assert process.crashed
        assert process.exit_code == 0xC0000374  # heap corruption

    def test_is_bad_ptr_probes_never_crash(self, run_program):
        def body(ctx):
            bad_null = yield from ctx.k32.IsBadReadPtr(None, 4)
            bad_wild = yield from ctx.k32.IsBadReadPtr(0x31337000, 4)
            good = yield from ctx.k32.IsBadReadPtr(Buffer(b"ok"), 2)
            return bad_null, bad_wild, good

        process, program = run_program(body)
        assert program.result == (1, 1, 0)
        assert not process.crashed


class TestEnvironmentApi:
    def test_environment_roundtrip(self, run_program):
        def body(ctx):
            yield from ctx.k32.SetEnvironmentVariableA("WATCHD", "1")
            buffer = Buffer(b"\0" * 16)
            length = yield from ctx.k32.GetEnvironmentVariableA("WATCHD", buffer, 16)
            return length, bytes(buffer.data[:length])

        _, program = run_program(body)
        assert program.result == (1, b"1")

    def test_missing_variable(self, run_program):
        def body(ctx):
            length = yield from ctx.k32.GetEnvironmentVariableA("NOPE", None, 0)
            error = yield from ctx.k32.GetLastError()
            return length, error

        _, program = run_program(body)
        assert program.result == (0, ERROR_ENVVAR_NOT_FOUND)

    def test_environment_inherited_by_children(self, machine, run_program):
        seen = {}

        class Child:
            image_name = "child.exe"

            def main(self, ctx):
                buffer = Buffer(b"\0" * 8)
                n = yield from ctx.k32.GetEnvironmentVariableA("MARK", buffer, 8)
                seen["value"] = bytes(buffer.data[:n])

        machine.processes.register_image("child.exe", lambda cmd: Child(),
                                         role="child")
        from repro.nt import StartupInfo

        def body(ctx):
            yield from ctx.k32.SetEnvironmentVariableA("MARK", "yes")
            info = OutCell()
            yield from ctx.k32.CreateProcessA(
                "child.exe", None, None, None, True, 0, None, None,
                StartupInfo(), info)
            yield from ctx.k32.Sleep(1000)

        run_program(body)
        assert seen["value"] == b"yes"


class TestStringApi:
    def test_lstrlen_survives_wild_pointer(self, run_program):
        # The lstr* family is SEH-guarded on NT: corruption is absorbed.
        def body(ctx):
            return (yield from ctx.k32.lstrlenA(0xBAD00000))

        process, program = run_program(body)
        assert program.result == 0
        assert not process.crashed

    def test_lstrcpy_roundtrip(self, run_program):
        def body(ctx):
            dest = Buffer(b"\0" * 16)
            yield from ctx.k32.lstrcpyA(dest, "apache")
            return bytes(dest.data[:6])

        _, program = run_program(body)
        assert program.result == b"apache"

    def test_generic_fallback_validates_pointers(self, run_program):
        # GetStringTypeW has no dedicated implementation; the generic
        # fallback must still fault on a wild required pointer.
        def body(ctx):
            yield from ctx.k32.GetStringTypeW(1, 0xDEAD0001, 4, OutCell())

        process, _ = run_program(body)
        assert process.crashed

    def test_generic_fallback_succeeds_on_valid_args(self, run_program):
        def body(ctx):
            return (yield from ctx.k32.GetStringTypeW(1, "text", 4, OutCell()))

        process, program = run_program(body)
        assert program.result == 1
        assert not process.crashed


class TestTimeApi:
    def test_tick_count_tracks_virtual_clock(self, machine, run_program):
        def body(ctx):
            before = yield from ctx.k32.GetTickCount()
            yield from ctx.k32.Sleep(1500)
            after = yield from ctx.k32.GetTickCount()
            return after - before

        _, program = run_program(body)
        assert program.result == 1500

    def test_performance_counter_consistent_with_frequency(self, run_program):
        def body(ctx):
            frequency = OutCell()
            yield from ctx.k32.QueryPerformanceFrequency(frequency)
            yield from ctx.k32.Sleep(2000)
            counter = OutCell()
            yield from ctx.k32.QueryPerformanceCounter(counter)
            return counter.value, frequency.value

        _, program = run_program(body)
        counter, frequency = program.result
        assert counter == pytest.approx(2.0 * frequency, rel=0.01)


def test_unknown_export_raises_attribute_error(run_program):
    from repro.nt.context import UnknownExportError
    from repro.nt.process_manager import HarnessError

    def body(ctx):
        yield from ctx.k32.TotallyFakeFunction()

    with pytest.raises((UnknownExportError, HarnessError)):
        run_program(body)
