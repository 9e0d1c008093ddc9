"""INI text lookup, shared by the profile-string APIs and the servers.

Every boot reads the same configuration texts key by key, so each
distinct text is parsed once per process into a lookup table.  A text
damaged by a fault is a text of its own: it gets its own table and
keeps its damage.
"""

from __future__ import annotations

import functools
from types import MappingProxyType
from typing import Mapping, Optional


@functools.lru_cache(maxsize=64)
def _parse(data: bytes) -> Mapping[tuple[str, str], str]:
    """``(section, key) -> value`` of an INI text, section and key
    lower-cased; the first occurrence of a key in a section wins.
    Blank lines and ``;`` comment lines are skipped."""
    values: dict[tuple[str, str], str] = {}
    current = None
    for raw_line in data.decode("latin-1", "replace").splitlines():
        line = raw_line.strip()
        if not line or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
        elif current is not None and "=" in line:
            name, _, value = line.partition("=")
            values.setdefault((current, name.strip().lower()), value.strip())
    return MappingProxyType(values)


def ini_value(data: Optional[bytes], section: str, key: str) -> Optional[str]:
    """The value of ``key`` in ``[section]`` of the INI text ``data``
    (case-insensitive names, surrounding blanks stripped), or None."""
    if not data:
        return None
    return _parse(data).get((section.lower(), key.lower()))
