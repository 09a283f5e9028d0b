"""The JustQL SQL engine (Section VI).

The pipeline mirrors the paper: a one-regex lexer and a parser (the
ANTLR substitute; recursive descent for statements, one precedence-
climbing loop for expressions) produce an AST; the analyzer resolves it
against the catalog into a logical plan; the rule-based optimizer folds
constants and pushes selections/projections down; the executor maps
spatio-temporal predicates onto index scans and everything else onto the
DataFrame engine.

Entry point: :func:`repro.sql.executor.execute_statement`, usually reached
through ``JustEngine.sql``.
"""

from repro.sql.result import ResultSet

__all__ = ["ResultSet"]
