"""Errors raised by the canonical-SQL lexer, parser and normalizer."""

from __future__ import annotations


class SqlError(Exception):
    """Base class for canonical-SQL processing errors."""


class ParseError(SqlError):
    """Input text cannot be parsed into a query structure."""


class StructureError(ParseError):
    """Text does not split into the seven clause lines of a finished query."""


class ClauseOrderViolation(StructureError):
    """A clause line appears outside the fixed canonical clause order."""


class NormalizationError(SqlError):
    """A query cannot be rewritten into the canonical dialect."""


class SelfJoinUnsupported(NormalizationError):
    """The same table occurs twice in FROM, which the alias-free dialect cannot express."""


class SetOperationUnsupported(NormalizationError):
    """UNION / INTERSECT / EXCEPT queries are outside the dialect."""


class AmbiguousColumn(NormalizationError):
    """An unqualified column is owned by more than one FROM table."""


class UnknownName(NormalizationError):
    """A table or column reference does not resolve against the schema."""
