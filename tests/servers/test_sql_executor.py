"""Unit and property-based tests for the SQL executor."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.servers.content import SQL_QUERY, sql_data_script
from repro.servers.sql import (
    Database,
    SqlRuntimeError,
    SqlSyntaxError,
    parse,
    recover,
)
from repro.servers.sql import executor


@pytest.fixture
def db():
    database = Database()
    database.load_script("""
        CREATE TABLE inventory (item_id INTEGER, name TEXT,
                                quantity INTEGER, price REAL);
        INSERT INTO inventory VALUES (1, 'widget', 40, 2.5);
        INSERT INTO inventory VALUES (2, 'gadget', 10, 9.0);
        INSERT INTO inventory VALUES (3, 'sprocket', 75, 1.25);
        INSERT INTO inventory VALUES (4, 'cog', 40, 0.5);
    """)
    return database


class TestSelect:
    def test_select_star(self, db):
        result = db.execute("SELECT * FROM inventory")
        assert result.row_count == 4
        assert result.columns == ["item_id", "name", "quantity", "price"]

    def test_projection(self, db):
        result = db.execute("SELECT name, price FROM inventory WHERE item_id = 2")
        assert result.rows == [("gadget", 9.0)]

    def test_where_comparisons(self, db):
        assert db.execute(
            "SELECT * FROM inventory WHERE quantity > 20").row_count == 3
        assert db.execute(
            "SELECT * FROM inventory WHERE quantity >= 40").row_count == 3
        assert db.execute(
            "SELECT * FROM inventory WHERE quantity < 40").row_count == 1
        assert db.execute(
            "SELECT * FROM inventory WHERE name = 'cog'").row_count == 1
        assert db.execute(
            "SELECT * FROM inventory WHERE name <> 'cog'").row_count == 3

    def test_boolean_logic(self, db):
        result = db.execute("SELECT name FROM inventory "
                            "WHERE quantity = 40 AND price < 1")
        assert result.rows == [("cog",)]
        result = db.execute("SELECT name FROM inventory "
                            "WHERE item_id = 1 OR item_id = 3")
        assert result.row_count == 2
        result = db.execute("SELECT name FROM inventory WHERE NOT quantity = 40")
        assert result.row_count == 2

    def test_order_by(self, db):
        result = db.execute("SELECT name FROM inventory ORDER BY price")
        assert [r[0] for r in result.rows] == [
            "cog", "sprocket", "widget", "gadget"]
        result = db.execute("SELECT name FROM inventory ORDER BY price DESC")
        assert result.rows[0] == ("gadget",)

    def test_order_by_multiple_keys(self, db):
        result = db.execute(
            "SELECT name FROM inventory ORDER BY quantity DESC, name")
        assert [r[0] for r in result.rows] == [
            "sprocket", "cog", "widget", "gadget"]

    def test_limit(self, db):
        assert db.execute("SELECT * FROM inventory LIMIT 2").row_count == 2
        assert db.execute("SELECT * FROM inventory LIMIT 0").row_count == 0

    def test_distinct(self, db):
        result = db.execute("SELECT DISTINCT quantity FROM inventory")
        assert result.row_count == 3

    def test_aggregates(self, db):
        result = db.execute("SELECT COUNT(*), SUM(quantity), MIN(price), "
                            "MAX(price), AVG(quantity) FROM inventory")
        assert result.rows == [(4, 165, 0.5, 9.0, 41.25)]

    def test_aggregate_over_empty_filter(self, db):
        result = db.execute(
            "SELECT COUNT(*), SUM(quantity) FROM inventory WHERE item_id > 99")
        assert result.rows == [(0, None)]

    def test_mixed_aggregate_and_plain_rejected(self, db):
        with pytest.raises(SqlRuntimeError):
            db.execute("SELECT name, COUNT(*) FROM inventory")


class TestErrors:
    def test_unknown_table(self, db):
        with pytest.raises(SqlRuntimeError):
            db.execute("SELECT * FROM ghosts")

    def test_unknown_column(self, db):
        with pytest.raises(SqlRuntimeError):
            db.execute("SELECT colour FROM inventory")

    def test_syntax_error_propagates(self, db):
        with pytest.raises(SqlSyntaxError):
            db.execute("SELEKT * FROM inventory")

    def test_duplicate_table_rejected(self, db):
        with pytest.raises(SqlRuntimeError):
            db.execute("CREATE TABLE inventory (x INTEGER)")

    def test_insert_arity_mismatch(self, db):
        with pytest.raises(SqlRuntimeError):
            db.execute("INSERT INTO inventory VALUES (1, 'x')")

    def test_insert_unknown_column(self, db):
        with pytest.raises(SqlRuntimeError):
            db.execute("INSERT INTO inventory (colour) VALUES ('red')")

    def test_type_coercion_failure(self, db):
        with pytest.raises(SqlRuntimeError):
            db.execute("INSERT INTO inventory VALUES ('NaN', 'x', 'y', 'z')")


class TestChecksum:
    def test_checksum_is_deterministic(self, db):
        first = db.execute("SELECT * FROM inventory").checksum()
        second = db.execute("SELECT * FROM inventory").checksum()
        assert first == second

    def test_checksum_sensitive_to_content(self, db):
        before = db.execute("SELECT * FROM inventory").checksum()
        db.execute("INSERT INTO inventory VALUES (5, 'nut', 3, 0.1)")
        after = db.execute("SELECT * FROM inventory").checksum()
        assert before != after

    def test_checksum_sensitive_to_order(self, db):
        asc = db.execute("SELECT name FROM inventory ORDER BY price")
        desc = db.execute("SELECT name FROM inventory ORDER BY price DESC")
        assert asc.checksum() != desc.checksum()


class TestLoadScript:
    def test_counts_statements(self):
        database = Database()
        count = database.load_script(
            "CREATE TABLE t (x INTEGER); INSERT INTO t VALUES (1);")
        assert count == 2
        assert database.execute("SELECT * FROM t").row_count == 1

    def test_truncated_script_fails_partway(self):
        database = Database()
        with pytest.raises((SqlSyntaxError, SqlRuntimeError)):
            database.load_script(
                "CREATE TABLE t (x INTEGER); INSERT INTO t VAL")


def _statements():
    script = sql_data_script().decode("latin-1")
    return [p for p in script.split(";") if p.strip()] + [SQL_QUERY]


def _structure(node):
    """Every field of an AST, recursively (statement nodes have no
    structural repr of their own)."""
    if isinstance(node, list):
        return [_structure(item) for item in node]
    slots = getattr(type(node), "__slots__", None)
    if not slots:
        return node
    return (type(node).__name__,
            {name: _structure(getattr(node, name)) for name in slots})


class TestParseMemo:
    """The executor parses each distinct statement once per process and
    shares the tree between databases; execution must only read it."""

    def test_memoised_trees_are_shared_and_never_mutated(self):
        statements = _statements()
        first = Database()
        first_result = [first.execute(s) for s in statements][-1]
        second = Database()
        second_result = [second.execute(s) for s in statements][-1]

        for text in statements:
            shared = executor._parse(text)
            assert executor._parse(text) is shared
            assert repr(_structure(shared)) == repr(_structure(parse(text)))
        assert first.tables.keys() == second.tables.keys() == {"inventory"}
        assert first.table("inventory").rows == \
            second.table("inventory").rows
        assert len(first.table("inventory")) == 40
        assert first_result.rows == second_result.rows
        assert first_result.checksum() == second_result.checksum()

    def test_syntax_errors_raise_on_every_call(self, db):
        for _attempt in range(2):
            with pytest.raises(SqlSyntaxError):
                db.execute("INSERT INTO inventory VAL")

    def test_public_parse_returns_a_fresh_tree(self):
        assert parse(SQL_QUERY) is not parse(SQL_QUERY)

    def test_truncated_script_recovery_unchanged_by_a_warm_memo(self):
        script = sql_data_script().decode("latin-1")
        torn = script[:script.index("'part-021'")]

        def recover():
            database = Database()
            with pytest.raises(SqlSyntaxError):
                database.load_script(torn)
            return database.table("inventory").rows

        executor._parse.cache_clear()
        cold = recover()
        Database().load_script(script)
        assert recover() == cold
        assert len(cold) == 20


class TestRecoveryMemo:
    """``recover`` replays a data file once per distinct content and
    hands every caller tables of its own."""

    def test_recovered_copies_match_a_replay_and_are_independent(self):
        data = sql_data_script()
        reference = Database()
        reference.load_script(data.decode("latin-1"))
        first, second = recover(data), recover(data)
        for database in (first, second):
            assert database.table("inventory").rows == \
                reference.table("inventory").rows
            assert database.table("inventory").column_names == \
                reference.table("inventory").column_names
        first.execute("INSERT INTO inventory VALUES (41, 'x', 1, 1.0)")
        assert len(first.table("inventory")) == 41
        assert len(second.table("inventory")) == 40
        assert len(recover(data).table("inventory")) == 40

    def test_torn_data_stops_at_the_first_failing_statement(self):
        data = sql_data_script()
        torn = data[:data.index(b"'part-021'")]
        for _attempt in range(2):  # cold, then from the memo
            assert len(recover(torn).table("inventory")) == 20
        assert recover(b"").tables == {}


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------
ROWS = st.lists(
    st.tuples(st.integers(-1000, 1000), st.integers(0, 100)),
    min_size=0, max_size=30,
)


def _table_of(rows):
    database = Database()
    database.execute("CREATE TABLE t (id INTEGER, qty INTEGER)")
    for index, (ident, qty) in enumerate(rows):
        database.execute(f"INSERT INTO t VALUES ({ident}, {qty})")
    return database


@given(ROWS, st.integers(0, 100))
def test_where_partition_property(rows, threshold):
    """WHERE qty > T and WHERE NOT qty > T partition the table."""
    database = _table_of(rows)
    above = database.execute(f"SELECT * FROM t WHERE qty > {threshold}")
    below = database.execute(f"SELECT * FROM t WHERE NOT qty > {threshold}")
    assert above.row_count + below.row_count == len(rows)
    assert all(r[1] > threshold for r in above.rows)
    assert all(r[1] <= threshold for r in below.rows)


@given(ROWS)
def test_order_by_sorts(rows):
    database = _table_of(rows)
    result = database.execute("SELECT qty FROM t ORDER BY qty")
    values = [r[0] for r in result.rows]
    assert values == sorted(values)


@given(ROWS)
def test_count_and_sum_match_python(rows):
    database = _table_of(rows)
    result = database.execute("SELECT COUNT(*), SUM(qty) FROM t")
    count, total = result.rows[0]
    assert count == len(rows)
    assert total == (sum(q for _i, q in rows) if rows else None)


@given(ROWS, st.integers(0, 10))
def test_limit_bounds_result(rows, limit):
    database = _table_of(rows)
    result = database.execute(f"SELECT * FROM t LIMIT {limit}")
    assert result.row_count == min(limit, len(rows))
