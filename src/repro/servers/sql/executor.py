"""Statement execution over in-memory tables."""

from __future__ import annotations

import functools
import zlib
from typing import Optional

from .ast_nodes import (
    Aggregate,
    BoolOp,
    ColumnRef,
    Comparison,
    CreateTable,
    Insert,
    Literal,
    NotOp,
    Select,
)
from .lexer import SqlSyntaxError
from .parser import parse
from .table import SqlRuntimeError, Table

# Statement text -> AST, private to the executor.  SQL Server replays
# the same master.dat statements on every boot, so each distinct
# statement is parsed once per process.  Sharing trees is safe because
# execution only reads them (rows and results are built fresh), and a
# SqlSyntaxError is never cached, so a torn statement raises every time.
_parse = functools.lru_cache(maxsize=256)(parse)


def recover(data: bytes) -> "Database":
    """The ``master`` database rebuilt from a data file's bytes.

    The ;-separated statements run in order; the first one that fails
    ends the replay (the torn tail of a truncated file).  The replay
    runs once per distinct content per process (:func:`_recovered`,
    a bounded LRU beside ``_parse``); every call returns a copy with
    tables and row lists of its own, so what one boot inserts no other
    boot sees.
    """
    return _recovered(data).copy()


@functools.lru_cache(maxsize=64)
def _recovered(data: bytes) -> "Database":
    database = Database("master")
    for piece in data.decode("latin-1", "replace").split(";"):
        if not piece.strip():
            continue
        try:
            database.execute(piece)
        except (SqlSyntaxError, SqlRuntimeError):
            break
    return database


class ResultSet:
    """Rows plus the checksum the SqlClient verifies responses with."""

    def __init__(self, columns: list[str], rows: list[tuple]):
        self.columns = columns
        self.rows = rows

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def checksum(self) -> int:
        """Order- and content-sensitive checksum over the result."""
        digest = zlib.crc32(repr(self.columns).encode())
        for row in self.rows:
            digest = zlib.crc32(repr(row).encode(), digest)
        return digest & 0xFFFFFFFF

    def __repr__(self) -> str:
        return f"<ResultSet {self.columns} x{len(self.rows)}>"


class Database:
    """A named collection of tables executing parsed statements."""

    def __init__(self, name: str = "master"):
        self.name = name
        self.tables: dict[str, Table] = {}

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def execute(self, sql: str) -> Optional[ResultSet]:
        """Parse and run one statement.

        Returns a :class:`ResultSet` for SELECT, None for DDL/DML.
        Raises :class:`SqlSyntaxError` or :class:`SqlRuntimeError`.
        """
        statement = _parse(sql)
        if isinstance(statement, CreateTable):
            return self._create(statement)
        if isinstance(statement, Insert):
            return self._insert(statement)
        if isinstance(statement, Select):
            return self._select(statement)
        raise SqlRuntimeError(f"unsupported statement {statement!r}")

    def load_script(self, script: str) -> int:
        """Run a ;-separated batch (the database's on-disk data file).

        Returns the number of statements executed.
        """
        count = 0
        for piece in script.split(";"):
            if piece.strip():
                self.execute(piece)
                count += 1
        return count

    def copy(self) -> "Database":
        """A database with the same tables, each a :meth:`Table.copy`."""
        clone = Database(self.name)
        clone.tables = {key: table.copy()
                        for key, table in self.tables.items()}
        return clone

    def table(self, name: str) -> Table:
        table = self.tables.get(name.lower())
        if table is None:
            raise SqlRuntimeError(f"no table named {name!r}")
        return table

    # ------------------------------------------------------------------
    # Statement execution
    # ------------------------------------------------------------------
    def _create(self, statement: CreateTable) -> None:
        key = statement.name.lower()
        if key in self.tables:
            raise SqlRuntimeError(f"table {statement.name!r} already exists")
        self.tables[key] = Table(
            statement.name,
            [(c.name, c.type_name) for c in statement.columns],
        )
        return None

    def _insert(self, statement: Insert) -> None:
        self.table(statement.table).insert(statement.columns, statement.values)
        return None

    def _select(self, statement: Select) -> ResultSet:
        table = self.table(statement.table)
        rows = table.rows
        if statement.where is not None:
            rows = [r for r in rows if _truthy(_eval(statement.where, table, r))]
        if statement.order_by:
            for item in reversed(statement.order_by):
                index = table.column_index(item.column)
                rows = sorted(rows, key=lambda r: _sort_key(r[index]),
                              reverse=item.descending)
        if statement.columns == "*":
            columns = list(table.column_names)
            projected = [tuple(r) for r in rows]
        elif any(isinstance(c, Aggregate) for c in statement.columns):
            return self._aggregate(statement, table, rows)
        else:
            indices = [table.column_index(c.name) for c in statement.columns]
            columns = [c.name for c in statement.columns]
            projected = [tuple(r[i] for i in indices) for r in rows]
        if statement.distinct:
            seen, unique = set(), []
            for row in projected:
                if row not in seen:
                    seen.add(row)
                    unique.append(row)
            projected = unique
        if statement.limit is not None:
            projected = projected[:statement.limit]
        return ResultSet(columns, projected)

    def _aggregate(self, statement: Select, table: Table,
                   rows: list[tuple]) -> ResultSet:
        values, names = [], []
        for item in statement.columns:
            if not isinstance(item, Aggregate):
                raise SqlRuntimeError(
                    "cannot mix plain columns with aggregates")
            names.append(repr(item))
            if item.argument is None:
                values.append(len(rows))
                continue
            index = table.column_index(item.argument.name)
            data = [r[index] for r in rows if r[index] is not None]
            if item.func == "COUNT":
                values.append(len(data))
            elif not data:
                values.append(None)
            elif item.func == "SUM":
                values.append(sum(data))
            elif item.func == "AVG":
                values.append(sum(data) / len(data))
            elif item.func == "MIN":
                values.append(min(data))
            elif item.func == "MAX":
                values.append(max(data))
        return ResultSet(names, [tuple(values)])


# ----------------------------------------------------------------------
# Expression evaluation
# ----------------------------------------------------------------------
def _sort_key(value):
    # NULLs sort first; mixed types sort by type name then value.
    return (value is not None, type(value).__name__, value)


def _truthy(value) -> bool:
    return bool(value)


def _eval(expr, table: Table, row: tuple):
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        return row[table.column_index(expr.name)]
    if isinstance(expr, NotOp):
        return not _truthy(_eval(expr.operand, table, row))
    if isinstance(expr, BoolOp):
        left = _truthy(_eval(expr.left, table, row))
        if expr.op == "AND":
            return left and _truthy(_eval(expr.right, table, row))
        return left or _truthy(_eval(expr.right, table, row))
    if isinstance(expr, Comparison):
        left = _eval(expr.left, table, row)
        right = _eval(expr.right, table, row)
        if left is None or right is None:
            return False  # SQL tri-state logic collapsed to false
        try:
            if expr.op == "=":
                return left == right
            if expr.op == "<>":
                return left != right
            if expr.op == "<":
                return left < right
            if expr.op == "<=":
                return left <= right
            if expr.op == ">":
                return left > right
            if expr.op == ">=":
                return left >= right
        except TypeError as exc:
            raise SqlRuntimeError(
                f"cannot compare {left!r} with {right!r}") from exc
    raise SqlRuntimeError(f"cannot evaluate {expr!r}")
