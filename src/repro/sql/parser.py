"""Parser for JustQL (the ANTLR substitute).

Statements are recursive descent; expressions are one precedence-
climbing loop over the binding powers below, the loop ANTLR 4 makes of
a left-recursive expression rule.
"""

from __future__ import annotations

import ast as _pyast
import math

from repro.errors import ParseError
from repro.sql.ast import (
    Aliased,
    ExplainStmt,
    JoinClause,
    Between,
    BinaryOp,
    Column,
    CreateTableStmt,
    CreateViewStmt,
    DescStmt,
    DropStmt,
    Expr,
    FuncCall,
    InFunc,
    InsertStmt,
    IsNull,
    Literal,
    LoadStmt,
    SelectStmt,
    ShowStmt,
    Star,
    Statement,
    StoreViewStmt,
    SubquerySource,
    TableSource,
    UnaryOp,
)
from repro.sql.lexer import Token, tokenize

#: Binding powers, loosest first.  Predicates do not chain, and after a
#: predicate or a NOT operand only AND/OR may follow.
_OR, _AND, _NOT, _PREDICATE, _ADDITIVE, _MULTIPLICATIVE, _UNARY = range(1, 8)
_OPEN = _UNARY + 1  # no ceiling

#: Infix operators by token text (keywords lower-cased).
_INFIX = {
    "or": _OR, "and": _AND,
    "=": _PREDICATE, "!=": _PREDICATE, "<>": _PREDICATE, "<": _PREDICATE,
    "<=": _PREDICATE, ">": _PREDICATE, ">=": _PREDICATE,
    "between": _PREDICATE, "within": _PREDICATE, "like": _PREDICATE,
    "in": _PREDICATE, "is": _PREDICATE,
    "+": _ADDITIVE, "-": _ADDITIVE,
    "*": _MULTIPLICATIVE, "/": _MULTIPLICATIVE, "%": _MULTIPLICATIVE,
}

_CONSTANTS = {"true": True, "false": False, "null": None}


def parse_statement(statement: str) -> Statement:
    """Parse one JustQL statement into an AST node."""
    return _Parser(statement).parse()


def parse_filter(text: str) -> tuple[Expr | None, int | None]:
    """A LOAD FILTER string: ``[expression] [LIMIT n]``, then the end.

    ``'trajId="1068" limit 10'`` is a predicate over source rows and a
    cap on the rows loaded; either part may be missing.
    """
    parser = _Parser(text)
    token = parser.peek()
    expr = None
    if token.kind != "end" and token.lowered != "limit":
        expr = parser._parse_expr()
    limit = parser._parse_limit() if parser.accept_keyword("limit") \
        else None
    parser.expect_end()
    return expr, limit


class _Parser:
    def __init__(self, statement: str):
        self.statement = statement
        self.tokens = tokenize(statement)
        self.index = 0

    # -- token helpers ------------------------------------------------------
    # The token list ends with one ``end`` token, which is never consumed.
    # A token's ``lowered`` names a keyword or symbol alone (see Token).
    def peek(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind != "end":
            self.index += 1
        return token

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.tokens[self.index].position,
                          self.statement)

    def accept_keyword(self, word: str) -> bool:
        if self.tokens[self.index].lowered == word:
            self.index += 1
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            raise self.error(f"expected {word.upper()}, "
                             f"got {self.peek().text!r}")

    def accept_symbol(self, symbol: str) -> bool:
        if self.tokens[self.index].lowered == symbol:
            self.index += 1
            return True
        return False

    def expect_symbol(self, symbol: str) -> None:
        if not self.accept_symbol(symbol):
            raise self.error(f"expected {symbol!r}, got {self.peek().text!r}")

    def expect_name(self) -> str:
        token = self.tokens[self.index]
        if token.kind == "ident" or token.kind == "keyword":
            self.index += 1
            return token.text
        raise self.error(f"expected a name, got {token.text!r}")

    def expect_end(self) -> None:
        token = self.tokens[self.index]
        if token.kind != "end":
            raise self.error(f"trailing input: {token.text!r}")

    # -- statement dispatch ------------------------------------------------------
    def parse(self) -> Statement:
        token = self.peek()
        if token.kind != "keyword":
            raise self.error(f"statement must start with a keyword, "
                             f"got {token.text!r}")
        handler = _STATEMENTS.get(token.lowered)
        if handler is None:
            raise self.error(f"unsupported statement "
                             f"{token.lowered.upper()!r}")
        result = getattr(self, handler)()
        self.accept_symbol(";")
        self.expect_end()
        return result

    # -- SELECT --------------------------------------------------------------------
    def _parse_select(self) -> SelectStmt:
        self.expect_keyword("select")
        distinct = self.accept_keyword("distinct")
        projections = [self._parse_projection()]
        while self.accept_symbol(","):
            projections.append(self._parse_projection())
        source = None
        joins: list[JoinClause] = []
        if self.accept_keyword("from"):
            source = self._parse_source()
            joins = self._parse_joins()
        where = None
        if self.accept_keyword("where"):
            where = self._parse_expr()
        group_by: list[Expr] = []
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            group_by.append(self._parse_expr())
            while self.accept_symbol(","):
                group_by.append(self._parse_expr())
        having = None
        if self.accept_keyword("having"):
            having = self._parse_expr()
        order_by: list[tuple[Expr, bool]] = []
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            order_by.append(self._parse_order_item())
            while self.accept_symbol(","):
                order_by.append(self._parse_order_item())
        limit = self._parse_limit() if self.accept_keyword("limit") else None
        return SelectStmt(projections, source, where, group_by, having,
                          order_by, limit, distinct, joins)

    def _parse_joins(self) -> "list[JoinClause]":
        joins: list[JoinClause] = []
        while True:
            how = "inner"
            if self.accept_keyword("left"):
                how = "left"
                self.expect_keyword("join")
            elif self.accept_keyword("inner"):
                self.expect_keyword("join")
            elif self.accept_keyword("join"):
                pass
            else:
                return joins
            source = self._parse_source()
            self.expect_keyword("on")
            left = self.expect_name()
            self.expect_symbol("=")
            right = self.expect_name()
            joins.append(JoinClause(source, left, right, how))

    def _parse_explain(self) -> ExplainStmt:
        self.expect_keyword("explain")
        analyze = self.accept_keyword("analyze")
        return ExplainStmt(self._parse_select(), analyze=analyze)

    def _parse_order_item(self) -> tuple[Expr, bool]:
        expr = self._parse_expr()
        ascending = True
        if self.accept_keyword("desc"):
            ascending = False
        else:
            self.accept_keyword("asc")
        return expr, ascending

    def _parse_projection(self) -> Expr:
        if self.accept_symbol("*"):
            return Star()
        expr = self._parse_expr()
        if self.accept_keyword("as"):
            return Aliased(expr, self.expect_name())
        token = self.peek()
        if token.kind == "ident":
            self.advance()
            return Aliased(expr, token.text)
        return expr

    def _parse_source(self):
        if self.accept_symbol("("):
            select = self._parse_select()
            self.expect_symbol(")")
            alias = None
            if self.peek().kind == "ident":
                alias = self.advance().text
            return SubquerySource(select, alias)
        name = self._parse_dotted_name()
        alias = None
        if self.peek().kind == "ident":
            alias = self.advance().text
        return TableSource(name, alias)

    def _parse_dotted_name(self) -> str:
        """A possibly-dotted table name such as ``sys.regions``."""
        name = self.expect_name()
        while self.accept_symbol("."):
            name += "." + self.expect_name()
        return name

    # -- expressions -------------------------------------------------------------------
    def _parse_expr(self, min_bp: int = 0) -> Expr:
        """One expression whose infix operators all bind tighter than
        ``min_bp`` (see ``_INFIX``).

        A prefix NOT is an operator only where an AND/OR operand may
        start (``min_bp <= _NOT``); deeper down it is a column name, as
        any keyword is.  ``ceiling`` is the loosest operator that may
        still follow: after a predicate or a NOT operand only AND/OR
        may, so ``a = b = c`` and ``a IS NULL + 1`` stop at the second
        operator and fail in the caller.
        """
        tokens = self.tokens
        lowered = tokens[self.index].lowered
        ceiling = _OPEN
        if lowered == "not" and min_bp <= _NOT:
            self.index += 1
            left = UnaryOp("not", self._parse_expr(_NOT))
            ceiling = _AND
        elif lowered == "-":
            self.index += 1
            left = UnaryOp("-", self._parse_expr(_UNARY))
        else:
            left = self._parse_primary()
        while True:
            op = tokens[self.index].lowered
            if op == "not" and tokens[self.index + 1].lowered == "in":
                level = _PREDICATE  # NOT IN (...)
            else:
                level = _INFIX.get(op, 0)
            if level <= min_bp or level > ceiling:
                return left
            self.index += 1
            if level == _PREDICATE:
                left = self._parse_predicate(op, left)
                ceiling = _AND
            else:
                left = BinaryOp(op, left, self._parse_expr(level))
                ceiling = level

    def _parse_predicate(self, op: str, left: Expr) -> Expr:
        """The rest of ``left <op> ...`` once ``op`` is consumed."""
        if op == "between":
            low = self._parse_expr(_PREDICATE)
            self.expect_keyword("and")
            return Between(left, low, self._parse_expr(_PREDICATE))
        if op == "is":
            negated = self.accept_keyword("not")
            self.expect_keyword("null")
            return IsNull(left, negated)
        if op == "not":
            self.expect_keyword("in")
            if self.peek().lowered != "(":
                raise self.error("NOT IN expects a list of values")
            return UnaryOp("not", self._parse_in_list(left))
        if op == "in" and self.peek().lowered == "(":
            return self._parse_in_list(left)
        right = self._parse_expr(_PREDICATE)
        if op == "in":
            if not isinstance(right, FuncCall):
                raise self.error("IN expects a set function such as st_KNN")
            return InFunc(left, right)
        return BinaryOp("!=" if op == "<>" else op, left, right)

    def _parse_in_list(self, left: Expr) -> Expr:
        """``(e1, ..., en)`` after ``left IN``, as ``left = e1 OR ... OR
        left = en``: SQL's IN, NULLs included (no match but a NULL
        comparison is NULL, so NOT IN is NULL there too)."""
        self.expect_symbol("(")
        expr = BinaryOp("=", left, self._parse_expr())
        while self.accept_symbol(","):
            expr = BinaryOp("or", expr,
                            BinaryOp("=", left, self._parse_expr()))
        self.expect_symbol(")")
        return expr

    def _parse_primary(self) -> Expr:
        token = self.tokens[self.index]
        kind = token.kind
        if kind == "number":
            self.index += 1
            return Literal(self._number(token))
        if kind == "string":
            self.index += 1
            return Literal(token.text)
        if token.lowered == "(":
            self.index += 1
            expr = self._parse_expr()
            self.expect_symbol(")")
            return expr
        if token.lowered in _CONSTANTS:
            self.index += 1
            return Literal(_CONSTANTS[token.lowered])
        if kind != "ident" and kind != "keyword":
            raise self.error(f"unexpected token {token.text!r} in expression")
        self.index += 1
        if not self.accept_symbol("("):
            return Column(token.text)
        args: list[Expr] = []
        if not self.accept_symbol(")"):
            while True:
                if self.accept_symbol("*"):
                    args.append(Star())
                else:
                    args.append(self._parse_expr())
                if self.accept_symbol(")"):
                    break
                self.expect_symbol(",")
        return FuncCall(token.lowered, tuple(args))

    def _number(self, token: Token) -> int | float:
        """A number token's value; a dangling exponent (``1e``, ``2E+``)
        or an integer too long to convert is a ParseError at the
        literal."""
        text = token.text
        try:
            if "." in text or "e" in text or "E" in text:
                return float(text)
            return int(text)
        except ValueError:
            raise ParseError(f"malformed number {text!r}", token.position,
                             self.statement) from None

    def _parse_limit(self) -> int:
        """The count after LIMIT: a finite number, truncated."""
        token = self.advance()
        if token.kind != "number":
            raise self.error("LIMIT expects a number")
        self._number(token)  # a dangling exponent is a ParseError
        value = float(token.text)
        if not math.isfinite(value):
            raise ParseError(f"LIMIT {token.text} is not finite",
                             token.position, self.statement)
        return int(value)

    # -- CREATE / DROP / SHOW / DESC -----------------------------------------------------
    def _parse_create(self) -> Statement:
        self.expect_keyword("create")
        if self.accept_keyword("view"):
            name = self.expect_name()
            self.expect_keyword("as")
            return CreateViewStmt(name, self._parse_select())
        self.expect_keyword("table")
        name = self.expect_name()
        if self.accept_keyword("as"):
            plugin = self.expect_name()
            userdata = self._parse_optional_with()
            userdata.update(self._parse_optional_userdata())
            return CreateTableStmt(name, [], plugin, userdata)
        self.expect_symbol("(")
        columns = []
        while True:
            columns.append(self._parse_column_definition())
            if self.accept_symbol(")"):
                break
            self.expect_symbol(",")
        userdata = self._parse_optional_with()
        userdata.update(self._parse_optional_userdata())
        return CreateTableStmt(name, columns, None, userdata)

    def _parse_column_definition(self) -> tuple[str, str]:
        """Column name plus the raw type spec text (``point:srid=4326``)."""
        name = self.expect_name()
        start = self.peek().position
        depth = 0
        while True:
            token = self.peek()
            if token.kind == "end":
                raise self.error("unterminated column definition")
            if token.kind == "symbol":
                if token.text == "(":
                    depth += 1
                elif token.text == ")":
                    if depth == 0:
                        break
                    depth -= 1
                elif token.text == "," and depth == 0:
                    break
            self.advance()
        type_spec = self.statement[start:self.peek().position].strip()
        if not type_spec:
            raise self.error(f"column {name!r} is missing a type")
        return name, type_spec

    def _parse_optional_userdata(self) -> dict:
        if not self.accept_keyword("userdata"):
            return {}
        return self._parse_braced_dict()

    def _parse_optional_with(self) -> dict:
        """``WITH (key = value, ...)`` table options, folded into userdata.

        Bare option names get the ``just.`` prefix — ``WITH
        (presplit=8, salt_buckets=4)`` is sugar for ``USERDATA
        {'just.presplit': 8, 'just.salt_buckets': 4}`` — while dotted
        names pass through verbatim.  An explicit USERDATA clause after
        the WITH clause wins on conflicting keys.
        """
        if not self.accept_keyword("with"):
            return {}
        self.expect_symbol("(")
        options: dict = {}
        while True:
            key = self.expect_name()
            while self.accept_symbol("."):
                key = f"{key}.{self.expect_name()}"
            self.expect_symbol("=")
            if "." not in key:
                key = f"just.{key}"
            options[key] = self._parse_with_value()
            if self.accept_symbol(")"):
                break
            self.expect_symbol(",")
        return options

    def _parse_with_value(self):
        """One WITH option value: number, string, boolean, or bare word."""
        token = self.peek()
        if token.kind == "number":
            self.advance()
            return self._number(token)
        if token.kind == "string":
            self.advance()
            return token.text
        if self.accept_keyword("true"):
            return True
        if self.accept_keyword("false"):
            return False
        if token.kind in ("ident", "keyword"):
            self.advance()
            return token.text
        raise self.error(f"expected a WITH option value, "
                         f"got {token.text!r}")

    def _parse_braced_dict(self) -> dict:
        """Parse a ``{...}`` JSON-ish literal from the raw statement text."""
        token = self.peek()
        if not (token.kind == "symbol" and token.text == "{"):
            raise self.error("expected a '{...}' literal")
        start = token.position
        text = self.statement
        depth = 0
        i = start
        in_string: str | None = None
        while i < len(text):
            ch = text[i]
            if in_string:
                if ch == in_string:
                    in_string = None
            elif ch in "'\"":
                in_string = ch
            elif ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        else:
            raise self.error("unterminated '{...}' literal")
        raw = text[start:i + 1]
        try:
            value = _pyast.literal_eval(raw)
        except (ValueError, SyntaxError, TypeError, RecursionError,
                MemoryError) as exc:
            raise ParseError(f"malformed JSON literal: {exc}", start,
                             text) from None
        if not isinstance(value, dict):
            raise ParseError("expected a JSON object", start, text)
        # Skip past the consumed literal.
        while self.peek().kind != "end" and self.peek().position <= i:
            self.advance()
        return value

    def _parse_drop(self) -> DropStmt:
        self.expect_keyword("drop")
        if self.accept_keyword("table"):
            kind = "table"
        elif self.accept_keyword("view"):
            kind = "view"
        else:
            raise self.error("DROP expects TABLE or VIEW")
        return DropStmt(kind, self.expect_name())

    def _parse_show(self) -> ShowStmt:
        self.expect_keyword("show")
        if self.accept_keyword("tables"):
            return ShowStmt("tables")
        if self.accept_keyword("views"):
            return ShowStmt("views")
        raise self.error("SHOW expects TABLES or VIEWS")

    def _parse_desc(self) -> DescStmt:
        self.advance()  # DESC or DESCRIBE
        self.accept_keyword("table") or self.accept_keyword("view")
        return DescStmt(self._parse_dotted_name())

    # -- INSERT ---------------------------------------------------------------------------
    def _parse_insert(self) -> InsertStmt:
        self.expect_keyword("insert")
        self.expect_keyword("into")
        table = self.expect_name()
        columns: list[str] = []
        if self.accept_symbol("("):
            while True:
                columns.append(self.expect_name())
                if self.accept_symbol(")"):
                    break
                self.expect_symbol(",")
        self.expect_keyword("values")
        rows: list[list[Expr]] = []
        while True:
            self.expect_symbol("(")
            row: list[Expr] = []
            while True:
                row.append(self._parse_expr())
                if self.accept_symbol(")"):
                    break
                self.expect_symbol(",")
            rows.append(row)
            if not self.accept_symbol(","):
                break
        return InsertStmt(table, columns, rows)

    # -- LOAD / STORE ------------------------------------------------------------------------
    def _parse_load(self) -> LoadStmt:
        self.expect_keyword("load")
        source = self._raw_until_keyword("to")
        self.expect_keyword("to")
        target = self._raw_until_keyword("config")
        self.expect_keyword("config")
        config = self._parse_braced_dict()
        filter_text = None
        if self.accept_keyword("filter"):
            token = self.advance()
            if token.kind != "string":
                raise self.error("FILTER expects a quoted string")
            filter_text = token.text
        _, _, table = target.partition(":")
        return LoadStmt(source.strip(), (table or target).strip(), config,
                        filter_text)

    def _raw_until_keyword(self, word: str) -> str:
        start = self.peek().position
        while True:
            token = self.peek()
            if token.kind == "end":
                raise self.error(f"expected {word.upper()} clause")
            if token.kind == "keyword" and token.lowered == word:
                return self.statement[start:token.position].strip()
            self.advance()

    def _parse_store(self) -> StoreViewStmt:
        self.expect_keyword("store")
        self.expect_keyword("view")
        view = self.expect_name()
        self.expect_keyword("to")
        self.expect_keyword("table")
        table = self.expect_name()
        return StoreViewStmt(view, table)


#: Statement handlers by leading keyword.
_STATEMENTS = {
    "select": "_parse_select",
    "explain": "_parse_explain",
    "create": "_parse_create",
    "drop": "_parse_drop",
    "show": "_parse_show",
    "desc": "_parse_desc",
    "describe": "_parse_desc",
    "insert": "_parse_insert",
    "load": "_parse_load",
    "store": "_parse_store",
}
