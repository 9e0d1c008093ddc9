"""Workload content: documents, configuration files and databases.

Reproduces the paper's request targets:

- a **115 kB static HTML file** (the HttpClient's first request);
- a **1 kB HTML page generated through CGI** (the second request);
- a **single-table database** answered by an SQL SELECT (SqlClient).

All content is deterministic, so its checksums — the client-side
correctness criteria — are computable without running a server.
Every machine boot installs the same run-invariant bytes, so the
zero-argument generators are memoised with ``functools.cache``: one
generation per process serves all runs, and ``bytes`` is immutable.
:func:`cgi_page` is memoised the same way per script content, in a
bounded LRU since a damaged script read is content of its own.
"""

from __future__ import annotations

import functools

from ..net.http import content_checksum
from .sql import Database

STATIC_PAGE_SIZE = 115 * 1024
CGI_PAGE_SIZE = 1024

HTTP_PORT = 80
SQL_PORT = 1433

STATIC_PATH = "/index.html"
CGI_PATH = "/cgi-bin/report.pl"

APACHE_ROOT = "C:\\Apache"
APACHE_CONF = f"{APACHE_ROOT}\\conf\\httpd.conf"
APACHE_MIME = f"{APACHE_ROOT}\\conf\\mime.types"
APACHE_DOCROOT = f"{APACHE_ROOT}\\htdocs"
APACHE_CGI_SCRIPT = f"{APACHE_ROOT}\\cgi-bin\\report.pl"

IIS_ROOT = "C:\\InetPub"
IIS_METABASE = "C:\\WINNT\\system32\\inetsrv\\metabase.bin"
IIS_CONFIG = "C:\\WINNT\\system32\\inetsrv\\iis.ini"
IIS_DOCROOT = f"{IIS_ROOT}\\wwwroot"
IIS_CGI_SCRIPT = f"{IIS_ROOT}\\scripts\\report.pl"

SQL_ROOT = "C:\\MSSQL7"
SQL_CONFIG = f"{SQL_ROOT}\\binn\\sqlservr.ini"
SQL_DATA_FILE = f"{SQL_ROOT}\\data\\master.dat"

SQL_QUERY = "SELECT item_id, name, quantity FROM inventory WHERE quantity > 20"


@functools.cache
def static_page() -> bytes:
    """The 115 kB static HTML document, byte-for-byte deterministic."""
    header = (b"<html><head><title>DTS workload: large static page</title>"
              b"</head><body>\n")
    footer = b"</body></html>\n"
    filler_line = (b"<p>" + b"dependability test suite workload filler " * 2
                   + b"</p>\n")
    body = bytearray(header)
    index = 0
    while len(body) + len(footer) + len(filler_line) + 16 <= STATIC_PAGE_SIZE:
        body += b"<!-- %06d -->" % index + filler_line
        index += 1
    body += b"x" * (STATIC_PAGE_SIZE - len(body) - len(footer))
    body += footer
    assert len(body) == STATIC_PAGE_SIZE
    return bytes(body)


def cgi_script_source() -> bytes:
    """The CGI 'script' the servers hand to the CGI interpreter."""
    return (b"#!perl\n"
            b"# DTS workload CGI: emits a 1 kB report page\n"
            b"print report(1024);\n")


@functools.lru_cache(maxsize=64)
def cgi_page(script_source: bytes) -> bytes:
    """What a healthy CGI run of ``script_source`` produces: 1 kB page.

    Derives from the script content so that a corrupted script read
    yields a detectably different page.  Built once per distinct script
    per process (a bounded LRU keyed by the bytes).
    """
    seed = content_checksum(script_source)
    head = b"<html><body><h1>CGI report</h1>\n"
    tail = b"</body></html>\n"
    body = bytearray(head)
    counter = 0
    while len(body) + len(tail) + 24 <= CGI_PAGE_SIZE:
        body += b"<li>entry %08x</li>\n" % ((seed + counter) & 0xFFFFFFFF)
        counter += 1
    body += b"y" * (CGI_PAGE_SIZE - len(body) - len(tail))
    body += tail
    assert len(body) == CGI_PAGE_SIZE
    return bytes(body)


def apache_conf() -> bytes:
    """httpd.conf pinned to one child process, per Section 4.1."""
    return (b"[server]\n"
            b"ServerRoot=C:\\Apache\n"
            b"DocumentRoot=C:\\Apache\\htdocs\n"
            b"Port=80\n"
            b"MaxChildren=1\n"          # the paper's reproducibility pin
            b"Timeout=300\n")


def mime_types() -> bytes:
    return (b"text/html html htm\n"
            b"text/plain txt\n"
            b"image/gif gif\n"
            b"application/octet-stream bin\n")


def iis_config() -> bytes:
    return (b"[w3svc]\n"
            b"Port=80\n"
            b"HomeDirectory=C:\\InetPub\\wwwroot\n"
            b"ScriptDirectory=C:\\InetPub\\scripts\n"
            b"MaxConnections=100\n"
            b"LogType=0\n")


@functools.cache
def iis_metabase() -> bytes:
    """Opaque binary blob the IIS startup parses."""
    header = b"MBIN" + (2).to_bytes(4, "little")
    records = b"".join(
        bytes([i & 0xFF]) * 16 for i in range(64)
    )
    return header + records


def sql_config() -> bytes:
    return (b"[sqlserver]\n"
            b"Port=1433\n"
            b"MasterDataFile=C:\\MSSQL7\\data\\master.dat\n"
            b"Recovery=simple\n")


@functools.cache
def sql_data_script() -> bytes:
    """The SQL script the server loads its single table from."""
    lines = ["CREATE TABLE inventory "
             "(item_id INTEGER, name TEXT, quantity INTEGER, price REAL);"]
    for item_id in range(1, 41):
        quantity = (item_id * 7) % 60
        price = round(0.5 + item_id * 0.25, 2)
        lines.append(
            f"INSERT INTO inventory VALUES "
            f"({item_id}, 'part-{item_id:03d}', {quantity}, {price});"
        )
    return "\n".join(lines).encode("latin-1")


def reference_database() -> Database:
    """A pristine database loaded directly from the data script."""
    database = Database("master")
    database.load_script(sql_data_script().decode("latin-1"))
    return database


class ExpectedResults:
    """The correctness criteria the synthetic clients verify against."""

    def __init__(self) -> None:
        page = static_page()
        self.static_size = len(page)
        self.static_checksum = content_checksum(page)
        cgi = cgi_page(cgi_script_source())
        self.cgi_size = len(cgi)
        self.cgi_checksum = content_checksum(cgi)
        result = reference_database().execute(SQL_QUERY)
        self.sql_rows = result.row_count
        self.sql_checksum = result.checksum()


@functools.cache
def expected_results() -> ExpectedResults:
    """The expected values (content generation is deterministic)."""
    return ExpectedResults()


def install_apache_content(fs) -> None:
    """Populate a machine's filesystem for the Apache workload."""
    fs.write_file(APACHE_CONF, apache_conf())
    fs.write_file(APACHE_MIME, mime_types())
    fs.write_file(f"{APACHE_DOCROOT}\\index.html", static_page())
    fs.write_file(APACHE_CGI_SCRIPT, cgi_script_source())


def install_iis_content(fs) -> None:
    """Populate a machine's filesystem for the IIS workload."""
    fs.write_file(IIS_CONFIG, iis_config())
    fs.write_file(IIS_METABASE, iis_metabase())
    fs.write_file(f"{IIS_DOCROOT}\\index.html", static_page())
    fs.write_file(IIS_CGI_SCRIPT, cgi_script_source())
    fs.write_file("C:\\WINNT\\win.ini", b"[windows]\nload=\n")


def install_sql_content(fs) -> None:
    """Populate a machine's filesystem for the SQL Server workload."""
    fs.write_file(SQL_CONFIG, sql_config())
    fs.write_file(SQL_DATA_FILE, sql_data_script())
