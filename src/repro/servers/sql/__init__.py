"""Mini SQL engine: the storage and query substrate of the simulated
Microsoft SQL Server workload.

Supports the subset the paper's SqlClient exercises (a single-table
SELECT) plus the DDL/DML needed to load the database from its data
file: ``CREATE TABLE``, ``INSERT``, ``SELECT`` with ``WHERE``,
``ORDER BY``, ``LIMIT``, ``DISTINCT`` and the standard aggregates.
"""

from .executor import Database, ResultSet, recover
from .lexer import SqlSyntaxError, Token, TokenType, tokenize
from .parser import parse
from .table import SqlRuntimeError, Table

__all__ = [
    "Database",
    "ResultSet",
    "Table",
    "parse",
    "recover",
    "tokenize",
    "Token",
    "TokenType",
    "SqlSyntaxError",
    "SqlRuntimeError",
]
