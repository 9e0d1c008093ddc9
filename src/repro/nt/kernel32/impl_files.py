"""File, directory and file-mapping API implementations.

The richest corruption surface for the web servers: configuration files
and documents are opened and read here, so a corrupted disposition,
access mask, buffer pointer or byte count turns into a missing config,
a short read (content served with the wrong checksum), an error return
the application may or may not handle, or an access violation.
"""

from __future__ import annotations

from ..errors import (
    AccessViolation,
    ERROR_ACCESS_DENIED,
    ERROR_ALREADY_EXISTS,
    ERROR_FILE_NOT_FOUND,
    ERROR_INVALID_HANDLE,
    ERROR_INVALID_PARAMETER,
    ERROR_NOT_ENOUGH_MEMORY,
    INVALID_HANDLE_VALUE,
)
from ..memory import ArgKind, Buffer, OutCell
from ..objects import FileMappingObject, FileObject, FindObject, PipeObject
from . import constants as k
from .runtime import Frame, k32impl

ERROR_NO_MORE_FILES = 18


def _file_from_handle(frame: Frame, index: int):
    return frame.handle_object(index, FileObject)


@k32impl("CreateFileA")
def create_file_a(frame: Frame) -> int:
    path = frame.string(0)
    access = frame.uint(1)
    frame.uint(2)  # share mode: accepted as-is
    frame.opt_pointer(3)  # security attributes: NULL legal, wild faults
    disposition = frame.uint(4)
    frame.uint(5)  # flags-and-attributes
    template = frame.args[6].raw
    if template not in (0, INVALID_HANDLE_VALUE) and \
            not frame.machine.handles.is_valid(template):
        return frame.fail(ERROR_INVALID_HANDLE, INVALID_HANDLE_VALUE)

    fs = frame.machine.fs
    exists = fs.exists(path)
    if disposition == k.OPEN_EXISTING:
        if not exists:
            return frame.fail(ERROR_FILE_NOT_FOUND, INVALID_HANDLE_VALUE)
        data = fs.read_file(path)
    elif disposition == k.CREATE_NEW:
        if exists:
            return frame.fail(ERROR_ALREADY_EXISTS, INVALID_HANDLE_VALUE)
        data = b""
        fs.write_file(path, data)
    elif disposition in (k.CREATE_ALWAYS, k.TRUNCATE_EXISTING):
        if disposition == k.TRUNCATE_EXISTING and not exists:
            return frame.fail(ERROR_FILE_NOT_FOUND, INVALID_HANDLE_VALUE)
        data = b""
        fs.write_file(path, data)
    elif disposition == k.OPEN_ALWAYS:
        data = fs.read_file(path) or b""
        if not exists:
            fs.write_file(path, data)
    else:
        # A corrupted disposition word is rejected, as on NT.
        return frame.fail(ERROR_INVALID_PARAMETER, INVALID_HANDLE_VALUE)

    file_obj = FileObject(
        path, data,
        writable=bool(access & k.GENERIC_WRITE),
        # A zeroed access mask opens the file for attribute queries
        # only; subsequent reads fail with ERROR_ACCESS_DENIED.
        readable=bool(access & k.GENERIC_READ),
    )
    return frame.succeed(frame.new_handle(file_obj))


@k32impl("CreateFileW")
def create_file_w(frame: Frame) -> int:
    return create_file_a(frame)


def _read_common(frame: Frame, h_index: int, buf_index: int, count_index: int,
                 read_cell_index: int | None) -> int:
    file_obj = _file_from_handle(frame, h_index)
    buffer = frame.buffer(buf_index)
    count = frame.uint(count_index)
    if file_obj is None:
        pipe = frame.handle_object(h_index, PipeObject)
        if pipe is not None:
            chunk = bytes(pipe.buffer[:count])
            del pipe.buffer[:len(chunk)]
            buffer.data[:len(chunk)] = chunk
            if read_cell_index is not None:
                cell = frame.opt_out_cell(read_cell_index)
                if cell is not None:
                    cell.value = len(chunk)
            return frame.succeed(1)
        return frame.fail(ERROR_INVALID_HANDLE)
    if not getattr(file_obj, "readable", True):
        return frame.fail(ERROR_ACCESS_DENIED)
    if count > len(buffer.data):
        # Reading more bytes than the caller's buffer holds overruns it.
        raise AccessViolation(frame.args[buf_index].raw + len(buffer.data),
                              "write")
    read = file_obj.read_into(buffer.data, count)
    if read_cell_index is not None:
        cell = frame.opt_out_cell(read_cell_index)
        if cell is not None:
            cell.value = read
    return frame.succeed(1)


@k32impl("ReadFile")
def read_file(frame: Frame) -> int:
    frame.opt_pointer(4)  # lpOverlapped
    return _read_common(frame, 0, 1, 2, 3)


@k32impl("ReadFileEx")
def read_file_ex(frame: Frame) -> int:
    frame.pointer(3)       # lpOverlapped is required for the Ex variant
    frame.opt_pointer(4)   # completion routine
    return _read_common(frame, 0, 1, 2, None)


@k32impl("WriteFile")
def write_file(frame: Frame) -> int:
    file_obj = _file_from_handle(frame, 0)
    payload_obj = frame.pointer(1)
    count = frame.uint(2)
    frame.opt_pointer(4)
    if isinstance(payload_obj, Buffer):
        data = bytes(payload_obj.data)
    else:
        data = str(payload_obj).encode("latin-1", "replace")
    if count > len(data):
        raise AccessViolation(frame.args[1].raw + len(data), "read")
    data = data[:count]
    if file_obj is None:
        pipe = frame.handle_object(0, PipeObject)
        if pipe is None:
            console = frame.handle_object(0)
            if console is not None and getattr(console, "kind", "") == "console":
                console.written.append(data)
                written = len(data)
            else:
                return frame.fail(ERROR_INVALID_HANDLE)
        else:
            pipe.buffer.extend(data)
            written = len(data)
    else:
        if not file_obj.writable:
            return frame.fail(ERROR_ACCESS_DENIED)
        written = file_obj.write(data)
    cell = frame.opt_out_cell(3)
    if cell is not None:
        cell.value = written
    return frame.succeed(1)


@k32impl("WriteFileEx")
def write_file_ex(frame: Frame) -> int:
    file_obj = _file_from_handle(frame, 0)
    payload_obj = frame.pointer(1)
    count = frame.uint(2)
    frame.pointer(3)
    frame.opt_pointer(4)
    if file_obj is None:
        return frame.fail(ERROR_INVALID_HANDLE)
    if not file_obj.writable:
        return frame.fail(ERROR_ACCESS_DENIED)
    data = bytes(payload_obj.data) if isinstance(payload_obj, Buffer) else b""
    file_obj.write(data[:count])
    return frame.succeed(1)


@k32impl("CloseHandle")
def close_handle(frame: Frame) -> int:
    raw = frame.args[0].raw
    obj = frame.machine.handles.resolve(raw)
    if obj is None:
        return frame.fail(ERROR_INVALID_HANDLE)
    if isinstance(obj, FileObject) and obj.writable and not obj.deleted:
        frame.machine.fs.write_file(obj.path, bytes(obj.data))
    frame.machine.handles.close(raw)
    return frame.succeed(1)


@k32impl("GetFileSize")
def get_file_size(frame: Frame) -> int:
    file_obj = _file_from_handle(frame, 0)
    if file_obj is None:
        return frame.fail(ERROR_INVALID_HANDLE, k.INVALID_FILE_SIZE)
    cell = frame.opt_out_cell(1)
    if cell is not None:
        cell.value = 0
    return frame.succeed(file_obj.size)


@k32impl("GetFileType")
def get_file_type(frame: Frame) -> int:
    obj = frame.handle_object(0)
    if obj is None:
        return frame.fail(ERROR_INVALID_HANDLE, k.FILE_TYPE_UNKNOWN)
    if isinstance(obj, FileObject):
        return frame.succeed(k.FILE_TYPE_DISK)
    if isinstance(obj, PipeObject):
        return frame.succeed(k.FILE_TYPE_PIPE)
    return frame.succeed(k.FILE_TYPE_CHAR)


@k32impl("SetFilePointer")
def set_file_pointer(frame: Frame) -> int:
    file_obj = _file_from_handle(frame, 0)
    if file_obj is None:
        return frame.fail(ERROR_INVALID_HANDLE, k.INVALID_SET_FILE_POINTER)
    distance = frame.uint(1)
    if distance >= 0x80000000:
        distance -= 0x100000000  # the LONG parameter is signed
    frame.opt_out_cell(2)
    method = frame.uint(3)
    if method == k.FILE_BEGIN:
        target = distance
    elif method == k.FILE_CURRENT:
        target = file_obj.position + distance
    elif method == k.FILE_END:
        target = file_obj.size + distance
    else:
        return frame.fail(ERROR_INVALID_PARAMETER, k.INVALID_SET_FILE_POINTER)
    if target < 0:
        return frame.fail(ERROR_INVALID_PARAMETER, k.INVALID_SET_FILE_POINTER)
    file_obj.position = target
    return frame.succeed(target)


@k32impl("SetEndOfFile")
def set_end_of_file(frame: Frame) -> int:
    file_obj = _file_from_handle(frame, 0)
    if file_obj is None:
        return frame.fail(ERROR_INVALID_HANDLE)
    file_obj.truncate()
    return frame.succeed(1)


@k32impl("FlushFileBuffers")
def flush_file_buffers(frame: Frame) -> int:
    file_obj = _file_from_handle(frame, 0)
    if file_obj is None:
        return frame.fail(ERROR_INVALID_HANDLE)
    if file_obj.writable:
        frame.machine.fs.write_file(file_obj.path, bytes(file_obj.data))
    return frame.succeed(1)


@k32impl("DeleteFileA")
def delete_file_a(frame: Frame) -> int:
    path = frame.string(0)
    if not frame.machine.fs.delete(path):
        return frame.fail(ERROR_FILE_NOT_FOUND)
    return frame.succeed(1)


@k32impl("MoveFileA")
def move_file_a(frame: Frame) -> int:
    src = frame.string(0)
    dst = frame.string(1)
    data = frame.machine.fs.read_file(src)
    if data is None:
        return frame.fail(ERROR_FILE_NOT_FOUND)
    frame.machine.fs.write_file(dst, data)
    frame.machine.fs.delete(src)
    return frame.succeed(1)


@k32impl("CopyFileA")
def copy_file_a(frame: Frame) -> int:
    src = frame.string(0)
    dst = frame.string(1)
    fail_if_exists = frame.boolean(2)
    data = frame.machine.fs.read_file(src)
    if data is None:
        return frame.fail(ERROR_FILE_NOT_FOUND)
    if fail_if_exists and frame.machine.fs.exists(dst):
        return frame.fail(ERROR_ALREADY_EXISTS)
    frame.machine.fs.write_file(dst, data)
    return frame.succeed(1)


@k32impl("GetFileAttributesA")
def get_file_attributes_a(frame: Frame) -> int:
    path = frame.string(0)
    if not frame.machine.fs.exists(path):
        return frame.fail(ERROR_FILE_NOT_FOUND, k.INVALID_FILE_ATTRIBUTES)
    return frame.succeed(k.FILE_ATTRIBUTE_NORMAL)


@k32impl("SetFileAttributesA")
def set_file_attributes_a(frame: Frame) -> int:
    path = frame.string(0)
    frame.uint(1)
    if not frame.machine.fs.exists(path):
        return frame.fail(ERROR_FILE_NOT_FOUND)
    return frame.succeed(1)


@k32impl("FindFirstFileA")
def find_first_file_a(frame: Frame) -> int:
    pattern = frame.string(0)
    out = frame.out_cell(1)
    prefix = pattern.rsplit("\\", 1)[0] if "\\" in pattern else pattern
    matches = list(frame.machine.fs.list_dir(prefix))
    if not matches:
        return frame.fail(ERROR_FILE_NOT_FOUND, INVALID_HANDLE_VALUE)
    find_obj = FindObject(matches)
    out.value = find_obj.next_match()
    return frame.succeed(frame.new_handle(find_obj))


@k32impl("FindNextFileA")
def find_next_file_a(frame: Frame) -> int:
    find_obj = frame.handle_object(0, FindObject)
    out = frame.out_cell(1)
    if find_obj is None:
        return frame.fail(ERROR_INVALID_HANDLE)
    match = find_obj.next_match()
    if match is None:
        return frame.fail(ERROR_NO_MORE_FILES)
    out.value = match
    return frame.succeed(1)


@k32impl("FindClose")
def find_close(frame: Frame) -> int:
    if frame.handle_object(0, FindObject) is None:
        return frame.fail(ERROR_INVALID_HANDLE)
    frame.machine.handles.close(frame.args[0].raw)
    return frame.succeed(1)


def _write_string(buffer: Buffer, text: str, capacity: int) -> int:
    """NUL-terminated copy bounded by a caller-declared capacity."""
    encoded = text.encode("latin-1", "replace")[:max(capacity - 1, 0)]
    buffer.data[:len(encoded)] = encoded
    if capacity > 0 and len(buffer.data) > len(encoded):
        buffer.data[len(encoded)] = 0
    return len(encoded)


@k32impl("GetFullPathNameA")
def get_full_path_name_a(frame: Frame) -> int:
    name = frame.string(0)
    capacity = frame.uint(1)
    full = name if "\\" in name else f"C:\\{name}"
    if capacity <= len(full):
        # Returns the size needed — not an error (real semantics; a
        # zeroed buffer length silently degrades into a no-op).
        frame.opt_buffer(2)  # a wild buffer pointer still faults
        return frame.succeed(len(full) + 1)
    buffer = frame.buffer(2)
    frame.opt_out_cell(3)
    return frame.succeed(_write_string(buffer, full, capacity))


@k32impl("SearchPathA")
def search_path_a(frame: Frame) -> int:
    frame.opt_string(0)
    name = frame.string(1)
    frame.opt_string(2)
    capacity = frame.uint(3)
    if not frame.machine.fs.exists(name) and not frame.machine.fs.exists(f"C:\\{name}"):
        return frame.fail(ERROR_FILE_NOT_FOUND, 0)
    full = name if "\\" in name else f"C:\\{name}"
    if capacity <= len(full):
        return frame.succeed(len(full) + 1)
    buffer = frame.buffer(4)
    frame.opt_out_cell(5)
    return frame.succeed(_write_string(buffer, full, capacity))


@k32impl("GetTempPathA")
def get_temp_path_a(frame: Frame) -> int:
    capacity = frame.uint(0)
    temp = "C:\\TEMP\\"
    if capacity <= len(temp):
        return frame.succeed(len(temp) + 1)
    return frame.succeed(_write_string(frame.buffer(1), temp, capacity))


@k32impl("GetTempFileNameA")
def get_temp_file_name_a(frame: Frame) -> int:
    path = frame.string(0)
    prefix = frame.string(1)
    unique = frame.uint(2) or 1
    buffer = frame.buffer(3)
    name = f"{path}\\{prefix}{unique:04X}.tmp"
    frame.machine.fs.write_file(name, b"")
    _write_string(buffer, name, len(buffer.data) or len(name) + 1)
    return frame.succeed(unique)


@k32impl("CreateDirectoryA")
def create_directory_a(frame: Frame) -> int:
    frame.string(0)
    frame.opt_pointer(1)
    return frame.succeed(1)


@k32impl("GetCurrentDirectoryA")
def get_current_directory_a(frame: Frame) -> int:
    capacity = frame.uint(0)
    current = "C:\\WINNT\\system32"
    if capacity <= len(current):
        return frame.succeed(len(current) + 1)
    return frame.succeed(_write_string(frame.buffer(1), current, capacity))


@k32impl("SetCurrentDirectoryA")
def set_current_directory_a(frame: Frame) -> int:
    frame.string(0)
    return frame.succeed(1)


@k32impl("GetDriveTypeA")
def get_drive_type_a(frame: Frame) -> int:
    frame.opt_string(0)
    return frame.succeed(k.DRIVE_FIXED)


@k32impl("GetDiskFreeSpaceA")
def get_disk_free_space_a(frame: Frame) -> int:
    frame.opt_string(0)
    values = (32, 512, 1 << 20, 1 << 21)
    for index, value in enumerate(values, start=1):
        cell = frame.opt_out_cell(index)
        if cell is not None:
            cell.value = value
    return frame.succeed(1)


@k32impl("GetVolumeInformationA")
def get_volume_information_a(frame: Frame) -> int:
    frame.opt_string(0)
    name_buf = frame.opt_buffer(1)
    if name_buf is not None:
        _write_string(name_buf, "SYSTEM", frame.uint(2))
    for index in (3, 4, 5):
        cell = frame.opt_out_cell(index)
        if cell is not None:
            cell.value = 0x1234ABCD if index == 3 else 255
    fs_buf = frame.opt_buffer(6)
    if fs_buf is not None:
        _write_string(fs_buf, "NTFS", frame.uint(7))
    return frame.succeed(1)


@k32impl("CreateFileMappingA")
def create_file_mapping_a(frame: Frame) -> int:
    backing = _file_from_handle(frame, 0)
    frame.opt_pointer(1)
    frame.uint(2)
    frame.uint(3)  # dwMaximumSizeHigh: accepted as-is, sizes stay < 2**32
    size = frame.uint(4) or (backing.size if backing is not None else 0)
    frame.opt_string(5)
    if backing is None and frame.args[0].raw not in (0, INVALID_HANDLE_VALUE):
        return frame.fail(ERROR_INVALID_HANDLE, 0)
    if size > 1 << 28:
        return frame.fail(ERROR_NOT_ENOUGH_MEMORY, 0)
    mapping = FileMappingObject(backing, size)
    return frame.succeed(frame.new_handle(mapping))


@k32impl("MapViewOfFile")
def map_view_of_file(frame: Frame) -> int:
    mapping = frame.handle_object(0, FileMappingObject)
    frame.uint(1)  # dwDesiredAccess: every simulated view is read/write
    frame.uint(2)  # dwFileOffsetHigh: accepted as-is, views start at 0
    frame.uint(3)  # dwFileOffsetLow: accepted as-is, views start at 0
    frame.uint(4)  # dwNumberOfBytesToMap: 0 = whole mapping, always whole
    if mapping is None:
        return frame.fail(ERROR_INVALID_HANDLE, 0)
    data = bytes(mapping.backing.data) if mapping.backing else b"\0" * mapping.size
    view = Buffer(data, label="file-view")
    return frame.succeed(frame.machine.address_space.intern(view))


@k32impl("UnmapViewOfFile")
def unmap_view_of_file(frame: Frame) -> int:
    arg = frame.args[0]
    if arg.kind is not ArgKind.OBJECT:
        return frame.fail(ERROR_INVALID_PARAMETER)
    frame.machine.address_space.free(arg.raw)
    return frame.succeed(1)


@k32impl("FlushViewOfFile")
def flush_view_of_file(frame: Frame) -> int:
    frame.pointer(0)
    frame.uint(1)
    return frame.succeed(1)


@k32impl("GetOverlappedResult")
def get_overlapped_result(frame: Frame) -> int:
    if frame.handle_object(0) is None:
        return frame.fail(ERROR_INVALID_HANDLE)
    frame.pointer(1)
    frame.out_cell(2).value = 0
    frame.boolean(3)
    return frame.succeed(1)


@k32impl("CompareFileTime")
def compare_file_time(frame: Frame) -> int:
    frame.pointer(0)
    frame.pointer(1)
    return 0


@k32impl("GetSystemTimeAsFileTime")
def get_system_time_as_file_time(frame: Frame) -> int:
    cell = frame.out_cell(0)
    cell.value = int(frame.machine.engine.now * 10_000_000)
    return frame.succeed(1)
