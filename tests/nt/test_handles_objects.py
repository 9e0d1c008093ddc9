"""Tests for the handle table and kernel objects."""

from repro.nt.errors import INVALID_HANDLE_VALUE
from repro.nt.handles import HandleTable, KernelObject
from repro.nt.objects import EventObject, FileObject, MutexObject, SemaphoreObject


class TestHandleTable:
    def test_allocate_and_resolve(self):
        table = HandleTable()
        obj = KernelObject("x")
        handle = table.allocate(obj)
        assert table.resolve(handle) is obj

    def test_handles_are_multiples_of_four(self):
        table = HandleTable()
        for _ in range(5):
            assert table.allocate(KernelObject()) % 4 == 0

    def test_handles_never_reused(self):
        table = HandleTable()
        first = table.allocate(KernelObject())
        table.close(first)
        second = table.allocate(KernelObject())
        assert first != second
        assert table.resolve(first) is None

    def test_zero_and_invalid_never_resolve(self):
        table = HandleTable()
        assert table.resolve(0) is None
        assert table.resolve(INVALID_HANDLE_VALUE) is None

    def test_kind_mismatch_resolves_to_none(self):
        table = HandleTable()
        handle = table.allocate(EventObject(True, False))
        assert table.resolve(handle, FileObject) is None
        assert table.resolve(handle, EventObject) is not None

    def test_flipped_handle_is_invalid(self):
        table = HandleTable()
        handle = table.allocate(KernelObject())
        assert table.resolve(handle ^ 0xFFFFFFFF) is None

    def test_close_unknown_returns_false(self):
        assert not HandleTable().close(0x999)

    def test_live_count(self):
        table = HandleTable()
        handle = table.allocate(KernelObject())
        table.allocate(KernelObject())
        assert table.live_count == 2
        table.close(handle)
        assert table.live_count == 1

    def test_handles_for_object(self):
        table = HandleTable()
        obj = KernelObject()
        handles = {table.allocate(obj), table.allocate(obj)}
        assert set(table.handles_for(obj)) == handles


class TestEventObject:
    def test_manual_reset_latches(self):
        event = EventObject(manual_reset=True, initial_state=False)
        event.set()
        first = event.wait_event()
        second = event.wait_event()
        assert first.fired and second.fired

    def test_auto_reset_releases_one_waiter(self):
        event = EventObject(manual_reset=False, initial_state=False)
        first = event.wait_event()
        second = event.wait_event()
        event.set()
        assert first.fired and not second.fired
        assert not event.signaled

    def test_auto_reset_latches_without_waiters(self):
        event = EventObject(manual_reset=False, initial_state=False)
        event.set()
        assert event.signaled
        waiter = event.wait_event()
        assert waiter.fired
        assert not event.signaled  # consumed

    def test_initial_state_signaled(self):
        event = EventObject(manual_reset=True, initial_state=True)
        assert event.wait_event().fired

    def test_reset_unsignals(self):
        event = EventObject(manual_reset=True, initial_state=True)
        event.reset()
        assert not event.wait_event().fired

    def test_pulse_wakes_without_latching(self):
        event = EventObject(manual_reset=True, initial_state=False)
        waiter = event.wait_event()
        event.pulse()
        assert waiter.fired
        assert not event.wait_event().fired


class TestMutexObject:
    def test_uncontended_acquire(self):
        mutex = MutexObject(False, None)
        assert mutex.acquire_event(pid=1).fired
        assert mutex.owner_pid == 1

    def test_reacquire_by_owner(self):
        mutex = MutexObject(True, 1)
        assert mutex.acquire_event(pid=1).fired

    def test_contended_acquire_waits_until_release(self):
        mutex = MutexObject(True, 1)
        waiter = mutex.acquire_event(pid=2)
        assert not waiter.fired
        assert mutex.release(pid=1)
        assert waiter.fired
        assert mutex.owner_pid == 2

    def test_release_by_non_owner_fails(self):
        mutex = MutexObject(True, 1)
        assert not mutex.release(pid=2)


class TestSemaphoreObject:
    def test_wait_decrements(self):
        sem = SemaphoreObject(2, 2)
        assert sem.wait_event().fired
        assert sem.count == 1

    def test_exhausted_semaphore_blocks(self):
        sem = SemaphoreObject(0, 1)
        waiter = sem.wait_event()
        assert not waiter.fired
        assert sem.release() == 0
        assert waiter.fired

    def test_release_past_maximum_rejected(self):
        sem = SemaphoreObject(1, 1)
        assert sem.release() is None


class TestFileObject:
    def test_positioned_reads(self):
        file_obj = FileObject("f", b"abcdef", writable=False)
        dest = bytearray(b"\xff" * 6)
        assert file_obj.read_into(dest, 2) == 2
        assert dest == b"ab\0\0\0\0"     # the rest of ``dest`` is zeroed
        assert file_obj.read_into(dest, 6) == 4
        assert dest == b"cdef\0\0"
        assert file_obj.read_into(dest, 1) == 0
        assert dest == bytes(6)
        assert file_obj.position == 6

    def test_open_shares_and_first_write_copies(self):
        stored = b"abcdef"
        file_obj = FileObject("f", stored, writable=True)
        assert file_obj.data is stored
        file_obj.write(b"X")
        assert stored == b"abcdef"
        assert type(file_obj.data) is bytearray
        assert file_obj.data == b"Xbcdef"

    def test_write_extends(self):
        file_obj = FileObject("f", b"", writable=True)
        file_obj.write(b"hello")
        assert bytes(file_obj.data) == b"hello"
        assert file_obj.size == 5

    def test_write_at_position_overwrites(self):
        file_obj = FileObject("f", b"abcdef", writable=True)
        file_obj.position = 2
        file_obj.write(b"XY")
        assert bytes(file_obj.data) == b"abXYef"
