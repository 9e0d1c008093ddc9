"""Minimal HTTP/1.0 message model for the web-server workloads.

The paper's HttpClient issues two requests: a 115 kB static page and a
1 kB page generated through CGI.  Correctness checking works by content
checksum: the client knows the checksum of the document it expects, and
a server that read its file with a corrupted length (or served from a
corrupted configuration) produces a body whose checksum does not match
— an *incorrect response*, one of the two failure flavours Figure 4
distinguishes.
"""

from __future__ import annotations

import zlib
from typing import Optional

HTTP_OK = 200
HTTP_NOT_FOUND = 404
HTTP_SERVER_ERROR = 500


# Bodies this long are checked against the remembered ones before
# being checksummed: a byte comparison of the 115 kB static page costs
# a few microseconds, its CRC tens.  Shorter bodies are cheaper to CRC.
_MEMO_MIN_SIZE = 4096
_MEMO_ENTRIES = 4
# (copy of a body, its checksum), newest first; replaced whole, never
# mutated, so a concurrent reader always sees a consistent tuple.
_memo: tuple[tuple[bytes, int], ...] = ()


def content_checksum(data: bytes | bytearray) -> int:
    """Stable checksum standing in for a full-body comparison.

    A long body byte-equal to one of the last few distinct long bodies
    returns that body's remembered checksum; every other body is
    checksummed.  The memo compares ``bytes``/``bytearray`` bodies only
    (a ``memoryview`` compares element by element, slower than the CRC).
    """
    global _memo
    if len(data) < _MEMO_MIN_SIZE or isinstance(data, memoryview):
        return zlib.crc32(data) & 0xFFFFFFFF
    memo = _memo
    for body, checksum in memo:
        if body == data:
            return checksum
    checksum = zlib.crc32(data) & 0xFFFFFFFF
    _memo = ((bytes(data), checksum),) + memo[:_MEMO_ENTRIES - 1]
    return checksum


class HttpRequest:
    """A GET request."""

    __slots__ = ("path", "is_cgi")

    def __init__(self, path: str, is_cgi: bool = False):
        self.path = path
        self.is_cgi = is_cgi

    def __repr__(self) -> str:
        kind = "CGI" if self.is_cgi else "static"
        return f"<GET {self.path} ({kind})>"


class HttpResponse:
    """A response carrying its body as size + checksum."""

    __slots__ = ("status", "body_size", "checksum")

    def __init__(self, status: int, body: Optional[bytes] = None,
                 body_size: int = 0, checksum: int = 0):
        self.status = status
        if body is not None:
            self.body_size = len(body)
            self.checksum = content_checksum(body)
        else:
            self.body_size = body_size
            self.checksum = checksum

    def matches(self, expected_size: int, expected_checksum: int) -> bool:
        """Does this response carry exactly the expected document?"""
        return (self.status == HTTP_OK
                and self.body_size == expected_size
                and self.checksum == expected_checksum)

    def __repr__(self) -> str:
        return f"<HTTP {self.status} {self.body_size}B crc={self.checksum:08x}>"


class ProbePing:
    """Liveness probe sent by watchd's heartbeat to any server."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<ProbePing>"


class ProbePong:
    """A healthy server's immediate reply to a ProbePing."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<ProbePong>"


class SqlRequest:
    """A SQL batch sent to the database server."""

    __slots__ = ("query",)

    def __init__(self, query: str):
        self.query = query

    def __repr__(self) -> str:
        return f"<SQL {self.query!r}>"


class SqlResponse:
    """Result of a SQL batch: row count + checksum over the row data."""

    __slots__ = ("ok", "row_count", "checksum", "error")

    def __init__(self, ok: bool, row_count: int = 0, checksum: int = 0,
                 error: str = ""):
        self.ok = ok
        self.row_count = row_count
        self.checksum = checksum
        self.error = error

    def matches(self, expected_rows: int, expected_checksum: int) -> bool:
        return (self.ok and self.row_count == expected_rows
                and self.checksum == expected_checksum)

    def __repr__(self) -> str:
        if self.ok:
            return f"<SQL ok rows={self.row_count} crc={self.checksum:08x}>"
        return f"<SQL error {self.error!r}>"
