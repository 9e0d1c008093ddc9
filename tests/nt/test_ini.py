"""INI lookup shared by the profile-string APIs and the servers."""

from repro.nt.ini import _parse, ini_value
from repro.servers.base import parse_ini_int

TEXT = (b"top=ignored\n"
        b"[Server]\n"
        b"  Port = 80  \n"
        b"; Port=99\n"
        b"\n"
        b"Name=first\n"
        b"[other]\n"
        b"port=81\n"
        b"[SERVER]\n"
        b"name=second\n"
        b"Extra=x=y\n")


def test_lookup_rules():
    assert ini_value(TEXT, "server", "PORT") == "80"
    # The first occurrence wins, also across a repeated section.
    assert ini_value(TEXT, "Server", "name") == "first"
    assert ini_value(TEXT, "server", "extra") == "x=y"
    assert ini_value(TEXT, "other", "port") == "81"
    # Keys before any section header belong to no section.
    assert ini_value(TEXT, "", "top") is None
    assert ini_value(TEXT, "server", "missing") is None
    assert ini_value(TEXT, "nosuch", "port") is None
    assert ini_value(None, "server", "port") is None
    assert ini_value(b"", "server", "port") is None


def test_comment_lines_are_skipped():
    text = b"[s]\n;k=commented\nk=live\n"
    assert ini_value(text, "s", "k") == "live"
    assert ini_value(text, "s", ";k") is None


def test_each_distinct_text_is_parsed_once():
    text = b"[once]\nkey=1\nother=2\n"
    ini_value(text, "once", "key")
    misses = _parse.cache_info().misses
    assert ini_value(bytes(text), "once", "other") == "2"
    assert ini_value(text, "ONCE", "KEY") == "1"
    assert _parse.cache_info().misses == misses


def test_parse_ini_int():
    assert parse_ini_int(TEXT, "server", "port", 0) == 80
    assert parse_ini_int(TEXT, "server", "name", 7) == 7   # not a number
    assert parse_ini_int(TEXT, "server", "missing", 7) == 7
    assert parse_ini_int(b"", "server", "port", 7) == 7
    # A read cut short by a fault loses the key.
    assert parse_ini_int(TEXT[:20], "server", "port", 0) == 0
