"""Tests for the HTTP/SQL message model."""

import zlib

from repro.net.http import (
    HTTP_NOT_FOUND,
    HTTP_OK,
    HttpRequest,
    HttpResponse,
    ProbePing,
    ProbePong,
    SqlRequest,
    SqlResponse,
    content_checksum,
)


class TestChecksum:
    def test_deterministic(self):
        assert content_checksum(b"abc") == content_checksum(b"abc")

    def test_sensitive_to_every_byte(self):
        assert content_checksum(b"abc") != content_checksum(b"abd")
        assert content_checksum(b"abc") != content_checksum(b"abc\0")

    def test_32_bit_range(self):
        assert 0 <= content_checksum(b"") <= 0xFFFFFFFF


class TestChecksumMemo:
    def test_repeated_long_body_is_checksummed_once(self, monkeypatch):
        page = b"memo test page " * 2000
        crcs = []

        def counted_crc32(data, *rest):
            crcs.append(len(data))
            return real_crc32(data, *rest)

        real_crc32 = zlib.crc32
        monkeypatch.setattr(zlib, "crc32", counted_crc32)
        assert content_checksum(page) == real_crc32(page)
        # Byte-equal, in a fresh bytearray: the remembered checksum.
        assert content_checksum(bytearray(page)) == real_crc32(page)
        assert crcs == [len(page)]

    def test_same_length_different_body_after_a_hit(self):
        page = bytearray(b"memo hit page " * 2000)
        expected = zlib.crc32(page)
        assert content_checksum(bytes(page)) == expected
        assert content_checksum(page) == expected          # a hit
        page[len(page) // 2] ^= 0x01                       # same object
        assert content_checksum(page) == zlib.crc32(page) != expected
        other = bytes(len(page))                           # same length
        assert content_checksum(other) == zlib.crc32(other)

    def test_memoryview_body_is_checksummed(self):
        page = b"memo view page " * 2000
        content_checksum(page)
        view = memoryview(page)[1:]
        assert content_checksum(view) == zlib.crc32(view)


class TestHttpResponse:
    def test_from_body(self):
        response = HttpResponse(HTTP_OK, b"hello")
        assert response.body_size == 5
        assert response.checksum == content_checksum(b"hello")

    def test_matches_requires_status_size_and_checksum(self):
        body = b"content"
        good = HttpResponse(HTTP_OK, body)
        assert good.matches(len(body), content_checksum(body))
        assert not good.matches(len(body) + 1, content_checksum(body))
        assert not good.matches(len(body), content_checksum(body) ^ 1)
        assert not HttpResponse(HTTP_NOT_FOUND, body).matches(
            len(body), content_checksum(body))

    def test_zero_padded_short_read_detected(self):
        # The corrupted-read scenario: right length, wrong bytes.
        original = b"x" * 64
        padded = b"x" * 32 + b"\0" * 32
        response = HttpResponse(HTTP_OK, padded)
        assert not response.matches(64, content_checksum(original))


class TestSqlResponse:
    def test_matches(self):
        response = SqlResponse(True, row_count=3, checksum=99)
        assert response.matches(3, 99)
        assert not response.matches(2, 99)
        assert not response.matches(3, 98)

    def test_error_response_never_matches(self):
        assert not SqlResponse(False, error="syntax").matches(0, 0)

    def test_reprs(self):
        assert "ok" in repr(SqlResponse(True, 3, 1))
        assert "error" in repr(SqlResponse(False, error="bad"))


def test_request_reprs():
    assert "static" in repr(HttpRequest("/index.html"))
    assert "CGI" in repr(HttpRequest("/cgi", is_cgi=True))
    assert "SQL" in repr(SqlRequest("SELECT 1"))
    assert "Ping" in repr(ProbePing())
    assert "Pong" in repr(ProbePong())
