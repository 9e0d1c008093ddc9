"""Profile-string (INI file) API implementations.

Server configuration is read through these, so a corrupted buffer size
or file-name pointer during startup yields a *misconfigured* server —
the path to the "incorrect response received" failure flavour.
"""

from __future__ import annotations

from typing import Optional

from ..ini import ini_value
from .impl_files import _write_string
from .runtime import Frame, k32impl

_WIN_INI = "C:\\WINNT\\win.ini"


def _ini_lookup(frame: Frame, path: str, section: Optional[str],
                key: Optional[str]) -> Optional[str]:
    """INI lookup over the in-memory filesystem."""
    if section is None or key is None:
        return None
    return ini_value(frame.machine.fs.read_file(path), section, key)


@k32impl("GetPrivateProfileStringA")
def get_private_profile_string_a(frame: Frame) -> int:
    section = frame.opt_string(0)
    key = frame.opt_string(1)
    default = frame.opt_string(2) or ""
    buffer = frame.buffer(3)
    capacity = frame.uint(4)
    path = frame.string(5)
    value = _ini_lookup(frame, path, section, key)
    if value is None:
        value = default
    if capacity == 0:
        return frame.succeed(0)  # zeroed size: the value is silently lost
    return frame.succeed(_write_string(buffer, value, capacity))


@k32impl("GetPrivateProfileIntA")
def get_private_profile_int_a(frame: Frame) -> int:
    section = frame.string(0)
    key = frame.string(1)
    default = frame.uint(2)
    path = frame.string(3)
    value = _ini_lookup(frame, path, section, key)
    if value is None:
        return default
    try:
        return int(value)
    except ValueError:
        return default


@k32impl("WritePrivateProfileStringA")
def write_private_profile_string_a(frame: Frame) -> int:
    section = frame.opt_string(0)
    key = frame.opt_string(1)
    value = frame.opt_string(2)
    path = frame.string(3)
    if section is None:
        return frame.succeed(1)
    data = frame.machine.fs.read_file(path) or b""
    text = data.decode("latin-1", "replace")
    addition = f"\n[{section}]\n{key}={value}\n" if key else ""
    frame.machine.fs.write_file(path, text + addition)
    return frame.succeed(1)


@k32impl("GetProfileStringA")
def get_profile_string_a(frame: Frame) -> int:
    section = frame.opt_string(0)
    key = frame.opt_string(1)
    default = frame.opt_string(2) or ""
    buffer = frame.buffer(3)
    capacity = frame.uint(4)
    value = _ini_lookup(frame, _WIN_INI, section, key)
    if value is None:
        value = default
    if capacity == 0:
        return frame.succeed(0)
    return frame.succeed(_write_string(buffer, value, capacity))


@k32impl("GetProfileIntA")
def get_profile_int_a(frame: Frame) -> int:
    section = frame.string(0)
    key = frame.string(1)
    default = frame.uint(2)
    value = _ini_lookup(frame, _WIN_INI, section, key)
    if value is None:
        return default
    try:
        return int(value)
    except ValueError:
        return default
