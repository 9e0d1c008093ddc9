"""String and NLS API implementations.

The ``lstr*`` family is special: on NT these entry points wrap their
work in a structured-exception handler and *return failure instead of
crashing* on bad pointers — famously making them survive corruption
that kills ordinary code.  The implementations reproduce that, giving
the fault campaign a class of silently-absorbed pointer corruptions.
"""

from __future__ import annotations

from ..errors import ERROR_INVALID_PARAMETER, StructuredException, error_name
from ..memory import Buffer, CString, OutCell
from . import constants as k
from .impl_files import _write_string
from .runtime import Frame, k32impl


def _guarded_string(frame: Frame, index: int):
    """Read a string param under an lstr-style SEH guard.

    Returns (ok, text): bad pointers yield (False, "") rather than a
    crash.
    """
    try:
        arg = frame.args[index]
        if arg.is_null:
            return True, None
        obj = arg.obj
        if isinstance(obj, CString):
            return True, obj.text
        if isinstance(obj, Buffer):
            return True, bytes(obj.data.split(b"\0", 1)[0]).decode("latin-1")
        return False, ""
    except StructuredException:  # pragma: no cover - defensive
        return False, ""


@k32impl("lstrlenA")
def lstrlen_a(frame: Frame) -> int:
    ok, text = _guarded_string(frame, 0)
    if not ok or text is None:
        return 0
    return len(text)


@k32impl("lstrcpyA")
def lstrcpy_a(frame: Frame) -> int:
    dest = frame.args[0]
    ok, text = _guarded_string(frame, 1)
    if not ok or text is None or not isinstance(dest.obj, Buffer):
        return 0  # lstr SEH guard: fail quietly
    _write_string(dest.obj, text, len(dest.obj.data) or len(text) + 1)
    return dest.raw


@k32impl("lstrcpynA")
def lstrcpyn_a(frame: Frame) -> int:
    dest = frame.args[0]
    ok, text = _guarded_string(frame, 1)
    limit = frame.uint(2)
    if not ok or text is None or not isinstance(dest.obj, Buffer) or limit == 0:
        return 0
    _write_string(dest.obj, text[:limit - 1], limit)
    return dest.raw


@k32impl("lstrcatA")
def lstrcat_a(frame: Frame) -> int:
    dest = frame.args[0]
    ok, text = _guarded_string(frame, 1)
    if not ok or text is None or not isinstance(dest.obj, Buffer):
        return 0
    existing = bytes(dest.obj.data.split(b"\0", 1)[0]).decode("latin-1")
    _write_string(dest.obj, existing + text,
                  len(dest.obj.data) or len(existing + text) + 1)
    return dest.raw


def _compare(frame: Frame, fold_case: bool) -> int:
    ok1, first = _guarded_string(frame, 0)
    ok2, second = _guarded_string(frame, 1)
    if not ok1 or not ok2 or first is None or second is None:
        return 0
    if fold_case:
        first, second = first.lower(), second.lower()
    if first == second:
        return 0
    return -1 if first < second else 1


@k32impl("lstrcmpA")
def lstrcmp_a(frame: Frame) -> int:
    return _compare(frame, fold_case=False)


@k32impl("lstrcmpiA")
def lstrcmpi_a(frame: Frame) -> int:
    return _compare(frame, fold_case=True)


@k32impl("CompareStringA")
def compare_string_a(frame: Frame) -> int:
    locale = frame.uint(0)
    frame.uint(1)
    first = frame.string(2)
    frame.uint(3)
    second = frame.string(4)
    frame.uint(5)
    if locale > 0xFFFF:
        return frame.fail(ERROR_INVALID_PARAMETER, 0)
    if first == second:
        return frame.succeed(k.CSTR_EQUAL)
    return frame.succeed(k.CSTR_LESS_THAN if first < second else k.CSTR_GREATER_THAN)


@k32impl("MultiByteToWideChar")
def multi_byte_to_wide_char(frame: Frame) -> int:
    code_page = frame.uint(0)
    frame.uint(1)
    source = frame.string(2)
    length = frame.uint(3)
    dest = frame.opt_buffer(4)
    capacity = frame.uint(5)
    if code_page not in (0, 1, 437, 850, 1252, 65001):
        return frame.fail(ERROR_INVALID_PARAMETER, 0)
    if length == 0:
        # A zeroed cbMultiByte is rejected — the error-return path.
        return frame.fail(ERROR_INVALID_PARAMETER, 0)
    count = len(source) if length == 0xFFFFFFFF else min(len(source), length)
    if dest is None or capacity == 0:
        return frame.succeed(count + 1)
    _write_string(dest, source[:count], capacity)
    return frame.succeed(min(count, capacity))


@k32impl("WideCharToMultiByte")
def wide_char_to_multi_byte(frame: Frame) -> int:
    code_page = frame.uint(0)
    frame.uint(1)
    source = frame.string(2)
    length = frame.uint(3)
    dest = frame.opt_buffer(4)
    capacity = frame.uint(5)
    frame.opt_string(6)
    frame.opt_out_cell(7)
    if code_page not in (0, 1, 437, 850, 1252, 65001):
        return frame.fail(ERROR_INVALID_PARAMETER, 0)
    if length == 0:
        return frame.fail(ERROR_INVALID_PARAMETER, 0)
    count = len(source) if length == 0xFFFFFFFF else min(len(source), length)
    if dest is None or capacity == 0:
        return frame.succeed(count + 1)
    _write_string(dest, source[:count], capacity)
    return frame.succeed(min(count, capacity))


@k32impl("GetACP")
def get_acp(frame: Frame) -> int:
    return 1252


@k32impl("GetOEMCP")
def get_oemcp(frame: Frame) -> int:
    return 437


@k32impl("GetCPInfo")
def get_cp_info(frame: Frame) -> int:
    code_page = frame.uint(0)
    cell = frame.pointer(1)
    if code_page not in (0, 1, 437, 850, 1252, 65001):
        return frame.fail(ERROR_INVALID_PARAMETER)
    if isinstance(cell, OutCell):
        cell.value = {"MaxCharSize": 1, "DefaultChar": "?"}
    return frame.succeed(1)


@k32impl("FormatMessageA")
def format_message_a(frame: Frame) -> int:
    frame.uint(0)
    frame.opt_pointer(1)
    message_id = frame.uint(2)
    frame.uint(3)
    buffer = frame.buffer(4)
    capacity = frame.uint(5)
    frame.opt_pointer(6)
    text = f"{error_name(message_id)} (0x{message_id:08X})"
    if capacity == 0:
        return frame.fail(ERROR_INVALID_PARAMETER, 0)
    return frame.succeed(_write_string(buffer, text, capacity))


@k32impl("GetLocaleInfoA")
def get_locale_info_a(frame: Frame) -> int:
    locale = frame.uint(0)
    frame.uint(1)
    dest = frame.opt_buffer(2)
    capacity = frame.uint(3)
    if locale > 0xFFFF:
        return frame.fail(ERROR_INVALID_PARAMETER, 0)
    text = "en-US"
    if dest is None or capacity == 0:
        return frame.succeed(len(text) + 1)
    return frame.succeed(_write_string(dest, text, capacity))
