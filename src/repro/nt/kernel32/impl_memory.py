"""Heap and virtual-memory API implementations.

Corruption consequences modelled here:

- an all-ones byte count makes every allocator fail (4 GB request),
  exercising the application's out-of-memory handling — or lack of it;
- freeing a corrupted (wild) pointer raises heap corruption, which is
  an immediate crash, unlike the quiet failure of a NULL free;
- the ``IsBad*Ptr`` probes never crash — they are how defensively
  written code (and ``watchd``) validates pointers.
"""

from __future__ import annotations

from ..errors import (
    ERROR_INVALID_ADDRESS,
    ERROR_INVALID_HANDLE,
    ERROR_INVALID_PARAMETER,
    ERROR_NOT_ENOUGH_MEMORY,
    HeapCorruption,
)
from ..memory import ArgKind, Buffer, OutCell
from ..objects import HeapObject
from .runtime import Frame, k32impl

_MAX_SANE_ALLOCATION = 1 << 26  # 64 MB: beyond the testbed's 48 MB of RAM


def _default_heap(frame: Frame) -> HeapObject:
    process = frame.process
    heap = getattr(process, "_default_heap", None)
    if heap is None:
        heap = HeapObject(f"heap:{process.pid}")
        process._default_heap = heap
        process._default_heap_handle = frame.new_handle(heap)
    return heap


@k32impl("GetProcessHeap")
def get_process_heap(frame: Frame) -> int:
    _default_heap(frame)
    return frame.process._default_heap_handle


@k32impl("HeapCreate")
def heap_create(frame: Frame) -> int:
    frame.uint(0)
    initial = frame.uint(1)
    maximum = frame.uint(2)
    if initial > _MAX_SANE_ALLOCATION or (maximum and maximum > _MAX_SANE_ALLOCATION):
        return frame.fail(ERROR_NOT_ENOUGH_MEMORY, 0)
    return frame.succeed(frame.new_handle(HeapObject()))


@k32impl("HeapDestroy")
def heap_destroy(frame: Frame) -> int:
    heap = frame.handle_object(0, HeapObject)
    if heap is None:
        return frame.fail(ERROR_INVALID_HANDLE)
    heap.destroyed = True
    for address in heap.allocations:
        frame.machine.address_space.free(address)
    heap.allocations.clear()
    frame.machine.handles.close(frame.args[0].raw)
    return frame.succeed(1)


def _alloc(frame: Frame, heap: HeapObject, size: int) -> int:
    if size > _MAX_SANE_ALLOCATION:
        return frame.fail(ERROR_NOT_ENOUGH_MEMORY, 0)
    if frame.machine.pressure.deny_alloc(frame.process.role):
        # A sustained memory-pressure fault window is open: the
        # allocation fails exactly as an exhausted heap would.
        return frame.fail(ERROR_NOT_ENOUGH_MEMORY, 0)
    block = Buffer.zeroed(size, label="heap-block")
    address = frame.machine.address_space.intern(block)
    heap.allocations.add(address)
    return frame.succeed(address)


@k32impl("HeapAlloc")
def heap_alloc(frame: Frame) -> int:
    heap = frame.handle_object(0, HeapObject)
    if heap is None or heap.destroyed:
        return frame.fail(ERROR_INVALID_HANDLE, 0)
    frame.uint(1)
    return _alloc(frame, heap, frame.uint(2))


@k32impl("HeapFree")
def heap_free(frame: Frame) -> int:
    heap = frame.handle_object(0, HeapObject)
    if heap is None:
        return frame.fail(ERROR_INVALID_HANDLE)
    frame.uint(1)
    mem = frame.args[2]
    if mem.kind is ArgKind.OBJECT and mem.raw in heap.allocations:
        heap.allocations.discard(mem.raw)
        frame.machine.address_space.free(mem.raw)
        return frame.succeed(1)
    if mem.is_null:
        return frame.fail(ERROR_INVALID_PARAMETER)
    # Freeing a block the heap never issued corrupts its structures.
    raise HeapCorruption(f"HeapFree of 0x{mem.raw:08X}")


@k32impl("HeapReAlloc")
def heap_realloc(frame: Frame) -> int:
    heap = frame.handle_object(0, HeapObject)
    if heap is None:
        return frame.fail(ERROR_INVALID_HANDLE, 0)
    frame.uint(1)
    mem = frame.args[2]
    if mem.kind is not ArgKind.OBJECT or mem.raw not in heap.allocations:
        raise HeapCorruption(f"HeapReAlloc of 0x{mem.raw:08X}")
    return _alloc(frame, heap, frame.uint(3))


@k32impl("HeapSize")
def heap_size(frame: Frame) -> int:
    heap = frame.handle_object(0, HeapObject)
    if heap is None:
        return frame.fail(ERROR_INVALID_HANDLE, 0xFFFFFFFF)
    frame.uint(1)
    block = frame.pointer(2, Buffer)
    return frame.succeed(len(block.data))


@k32impl("HeapValidate")
def heap_validate(frame: Frame) -> int:
    heap = frame.handle_object(0, HeapObject)
    frame.uint(1)
    mem = frame.args[2]
    if heap is None:
        return 0
    if mem.is_null:
        return 1
    return 1 if mem.raw in heap.allocations else 0


def _global_local_alloc(frame: Frame) -> int:
    frame.uint(0)
    return _alloc(frame, _default_heap(frame), frame.uint(1))


def _global_local_free(frame: Frame) -> int:
    heap = _default_heap(frame)
    mem = frame.args[0]
    if mem.is_null:
        return frame.succeed(0)  # freeing NULL is tolerated here
    if mem.kind is ArgKind.OBJECT and mem.raw in heap.allocations:
        heap.allocations.discard(mem.raw)
        frame.machine.address_space.free(mem.raw)
        return frame.succeed(0)
    raise HeapCorruption(f"free of 0x{mem.raw:08X}")


@k32impl("GlobalAlloc")
def global_alloc(frame: Frame) -> int:
    return _global_local_alloc(frame)


@k32impl("LocalAlloc")
def local_alloc(frame: Frame) -> int:
    return _global_local_alloc(frame)


@k32impl("GlobalFree")
def global_free(frame: Frame) -> int:
    return _global_local_free(frame)


@k32impl("LocalFree")
def local_free(frame: Frame) -> int:
    return _global_local_free(frame)


@k32impl("GlobalLock")
def global_lock(frame: Frame) -> int:
    mem = frame.args[0]
    if mem.kind is not ArgKind.OBJECT:
        return frame.fail(ERROR_INVALID_HANDLE, 0)
    return frame.succeed(mem.raw)


@k32impl("GlobalUnlock")
def global_unlock(frame: Frame) -> int:
    mem = frame.args[0]
    if mem.kind is not ArgKind.OBJECT:
        return frame.fail(ERROR_INVALID_HANDLE, 0)
    return frame.succeed(1)


@k32impl("GlobalSize")
def global_size(frame: Frame) -> int:
    mem = frame.args[0]
    if mem.kind is not ArgKind.OBJECT or not isinstance(mem.obj, Buffer):
        return frame.fail(ERROR_INVALID_HANDLE, 0)
    return frame.succeed(len(mem.obj.data))


@k32impl("GlobalMemoryStatus")
def global_memory_status(frame: Frame) -> int:
    cell = frame.pointer(0)
    if isinstance(cell, OutCell):
        cell.value = {
            "dwMemoryLoad": 55,
            "dwTotalPhys": 48 << 20,   # the paper's 48 MB testbed
            "dwAvailPhys": 20 << 20,
            "dwTotalPageFile": 96 << 20,
            "dwAvailPageFile": 60 << 20,
        }
    return 0


@k32impl("VirtualAlloc")
def virtual_alloc(frame: Frame) -> int:
    frame.opt_pointer(0)
    size = frame.uint(1)
    frame.uint(2)
    frame.uint(3)
    if size == 0 or size > _MAX_SANE_ALLOCATION:
        return frame.fail(ERROR_NOT_ENOUGH_MEMORY, 0)
    if frame.machine.pressure.deny_alloc(frame.process.role):
        return frame.fail(ERROR_NOT_ENOUGH_MEMORY, 0)
    block = Buffer.zeroed(size, label="virtual")
    return frame.succeed(frame.machine.address_space.intern(block))


@k32impl("VirtualFree")
def virtual_free(frame: Frame) -> int:
    mem = frame.args[0]
    frame.uint(1)
    frame.uint(2)
    if mem.kind is not ArgKind.OBJECT:
        return frame.fail(ERROR_INVALID_ADDRESS)
    frame.machine.address_space.free(mem.raw)
    return frame.succeed(1)


@k32impl("VirtualProtect")
def virtual_protect(frame: Frame) -> int:
    frame.pointer(0)
    frame.uint(1)
    frame.uint(2)
    frame.out_cell(3).value = 0x04
    return frame.succeed(1)


@k32impl("VirtualQuery")
def virtual_query(frame: Frame) -> int:
    frame.opt_pointer(0)
    cell = frame.pointer(1)
    if isinstance(cell, OutCell):
        cell.value = {"State": 0x1000, "Protect": 0x04}
    frame.uint(2)
    return frame.succeed(28)


@k32impl("VirtualLock")
def virtual_lock(frame: Frame) -> int:
    frame.pointer(0)
    frame.uint(1)
    return frame.succeed(1)


def _is_bad_pointer(frame: Frame) -> int:
    """Shared body of the IsBad*Ptr probes: 1 = bad, 0 = ok, no crash."""
    arg = frame.args[0]
    if arg.is_null:
        return 1
    return 0 if arg.kind is ArgKind.OBJECT else 1


@k32impl("IsBadReadPtr")
def is_bad_read_ptr(frame: Frame) -> int:
    frame.uint(1)  # ucb: accepted as-is, probes test the base word only
    return _is_bad_pointer(frame)


@k32impl("IsBadWritePtr")
def is_bad_write_ptr(frame: Frame) -> int:
    frame.uint(1)  # ucb: accepted as-is, probes test the base word only
    return _is_bad_pointer(frame)


@k32impl("IsBadCodePtr")
def is_bad_code_ptr(frame: Frame) -> int:
    return _is_bad_pointer(frame)


@k32impl("IsBadStringPtrA")
def is_bad_string_ptr_a(frame: Frame) -> int:
    frame.uint(1)  # ucchMax: accepted as-is, probes test the base word
    return _is_bad_pointer(frame)
