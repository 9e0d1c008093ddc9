"""Table storage for the mini SQL engine."""

from __future__ import annotations

from typing import Optional

_CASTS = {
    "INTEGER": int,
    "REAL": float,
    "TEXT": str,
}


class SqlRuntimeError(ValueError):
    """Execution-time error (unknown table/column, type mismatch)."""


class Table:
    """A heap of rows with typed, named columns."""

    def __init__(self, name: str, columns: list[tuple[str, str]]):
        self.name = name
        self.column_names = [c for c, _t in columns]
        self.column_types = {c: t for c, t in columns}
        self._index = {c: i for i, c in enumerate(self.column_names)}
        self.rows: list[tuple] = []

    # ------------------------------------------------------------------
    def column_index(self, name: str) -> int:
        index = self._index.get(name)
        if index is None:
            raise SqlRuntimeError(
                f"no column {name!r} in table {self.name!r}")
        return index

    def coerce(self, column: str, value):
        """Cast a value to the column's declared type (NULL passes)."""
        if value is None:
            return None
        cast = _CASTS[self.column_types[column]]
        try:
            return cast(value)
        except (TypeError, ValueError) as exc:
            raise SqlRuntimeError(
                f"cannot store {value!r} in {self.name}.{column}") from exc

    def insert(self, columns: Optional[list[str]], values: list) -> None:
        names = columns if columns is not None else self.column_names
        if len(names) != len(values):
            raise SqlRuntimeError(
                f"{len(names)} columns but {len(values)} values")
        by_name = {}
        for name, value in zip(names, values):
            if name not in self._index:
                raise SqlRuntimeError(
                    f"no column {name!r} in table {self.name!r}")
            by_name[name] = self.coerce(name, value)
        row = tuple(by_name.get(c) for c in self.column_names)
        self.rows.append(row)

    def copy(self) -> "Table":
        """The same columns over a row list of its own (the rows
        themselves are tuples, shared)."""
        clone = Table(self.name, [(c, self.column_types[c])
                                  for c in self.column_names])
        clone.rows = list(self.rows)
        return clone

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"<Table {self.name} cols={self.column_names} rows={len(self.rows)}>"
