"""Tests for the workload content (documents, configs, databases)."""

import pytest

from repro.net.http import content_checksum
from repro.servers import content


def test_static_page_is_exactly_115_kib():
    page = content.static_page()
    assert len(page) == 115 * 1024
    assert page.startswith(b"<html>")
    assert page.endswith(b"</body></html>\n")


def test_static_page_deterministic():
    assert content.static_page() == content.static_page()


def test_cgi_page_is_exactly_1_kib_and_script_dependent():
    script = content.cgi_script_source()
    page = content.cgi_page(script)
    assert len(page) == 1024
    # A corrupted (different) script source produces a different page.
    assert content.cgi_page(script + b"#tampered") != page


def test_cgi_page_is_built_once_per_script():
    script = content.cgi_script_source()
    page = content.cgi_page(script)
    assert content.cgi_page(bytes(bytearray(script))) is page
    assert content.cgi_page.__wrapped__(script) == page


def test_apache_conf_pins_one_child():
    conf = content.apache_conf()
    assert b"MaxChildren=1" in conf
    assert b"Port=80" in conf


def test_reference_database_answers_workload_query():
    result = content.reference_database().execute(content.SQL_QUERY)
    assert result.row_count > 0


def test_expected_results_consistent_with_generators():
    expected = content.expected_results()
    assert expected.static_size == 115 * 1024
    assert expected.static_checksum == content_checksum(content.static_page())
    assert expected.cgi_size == 1024
    result = content.reference_database().execute(content.SQL_QUERY)
    assert expected.sql_rows == result.row_count
    assert expected.sql_checksum == result.checksum()


@pytest.mark.parametrize("generator", [
    content.sql_data_script, content.iis_metabase, content.static_page])
def test_run_invariant_content_is_generated_once(generator):
    first = generator()
    assert generator() is first
    assert first == generator.__wrapped__()


def test_expected_results_cached():
    assert content.expected_results() is content.expected_results()


def test_installers_populate_filesystems():
    from repro.nt import FileSystem

    fs = FileSystem()
    content.install_apache_content(fs)
    assert fs.size(f"{content.APACHE_DOCROOT}\\index.html") == 115 * 1024
    assert fs.exists(content.APACHE_CONF)
    assert fs.exists(content.APACHE_CGI_SCRIPT)

    fs = FileSystem()
    content.install_iis_content(fs)
    assert fs.exists(content.IIS_METABASE)
    assert fs.read_file(content.IIS_METABASE).startswith(b"MBIN")

    fs = FileSystem()
    content.install_sql_content(fs)
    script = fs.read_file(content.SQL_DATA_FILE)
    assert b"CREATE TABLE inventory" in script
