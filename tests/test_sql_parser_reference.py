"""The JustQL front end against the one it replaced.

``tests/oracles.py::ReferenceParser`` is the character-loop lexer and
the eight-level recursive descent the parser ran before its master
regex and precedence loop; it shares the statement-level code, so these
checks compare the lexer and the expression grammar.  Both must give
equal tokens and equal ASTs, or a ParseError at the same position.

Two differences are intended.  The numeric literals the old front end
turned into raw ``ValueError``/``OverflowError`` — a non-ASCII digit
(``²``), which it lexed as a number, and a dangling exponent (``1e``) —
are ParseErrors now; the strings in this repository that contain them
are listed in ``NUMBER_BUGFIX``.  And ``expr [NOT] IN (e1, ..., en)``,
which the old grammar rejected (a list is not a set function, and NOT
was trailing input), now parses as an OR chain of ``=``; those strings
are listed in ``IN_LIST``.
"""

import ast
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import parse_expression
from oracles import ReferenceParser, reference_tokenize
from repro.cli import split_statements
from repro.errors import ParseError
from repro.sql.lexer import _MASTER, tokenize
from repro.sql.parser import _Parser

ROOT = Path(__file__).resolve().parent.parent

#: Strings of ``src/``, ``tests/`` and ``examples/`` on which the two
#: front ends differ: each holds a number literal of the kinds above,
#: and the new front end raises ParseError on all of them.  (LIMIT is
#: statement-level code, shared, so ``LIMIT 1e`` does not differ.)
NUMBER_BUGFIX = {
    "SELECT 1e FROM t",
    "SELECT 2.5E+ FROM t",
    "SELECT ² FROM t",
    "a = 1e limit 2",
    "1e",
    "1E+",
    "²",
    "٣",
    "00ef09987f23a4c6",  # a golden digest: ``00e`` is a dangling exponent
}


#: Strings of ``src/``, ``tests/`` and ``examples/`` that use a
#: ``[NOT] IN (...)`` list: the old front end raised ParseError on each,
#: the new one parses it (or, for NOT IN before a set function, fails
#: at the function instead of at NOT).
IN_LIST = {
    "1 IN (NULL, 1)",
    "3 IN (1, NULL)",
    "3 NOT IN (1, 2)",
    "3 NOT IN (1, NULL)",
    "NULL IN (1, 2)",
    "NULL NOT IN (1)",
    "geom NOT IN st_KNN(geom, 3)",
    "SELECT fid FROM poi WHERE fid IN (3, 7, 42)",
    "SELECT fid FROM poi WHERE fid < 5 AND fid NOT IN (1, 3)",
}

_IN_LIST = re.compile(r"\bin\s*\(|\bnot\s+in\b", re.I)


def _outcome(run):
    """``("ok", value)``, ``("error", position)`` for a ParseError, or
    ``("raw", type name)`` for any other exception."""
    try:
        return "ok", run()
    except ParseError as exc:
        return "error", exc.position
    except (ValueError, OverflowError) as exc:
        return "raw", type(exc).__name__


def _parse(parser_class, text):
    return _outcome(lambda: parser_class(text).parse())


def _reference_expression(text):
    parser = ReferenceParser(text)
    expr = parser._parse_expr()
    parser.expect_end()
    return expr


def _expressions(text):
    """``parse_expression`` and the reference's outcomes on ``text``."""
    return (_outcome(lambda: parse_expression(text)),
            _outcome(lambda: _reference_expression(text)))


def _differences(text) -> list[str]:
    """What differs between the two front ends on ``text``."""
    out = []
    if _outcome(lambda: tokenize(text)) != \
            _outcome(lambda: reference_tokenize(text)):
        out.append("tokens")
    if _parse(_Parser, text) != _parse(ReferenceParser, text):
        out.append("statement")
    new, old = _expressions(text)
    if new != old:
        out.append("expression")
    return out


# -- every string in the repository -------------------------------------------

def _python_strings() -> set[str]:
    strings = set()
    for folder in ("src", "tests", "examples"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Constant) \
                        and isinstance(node.value, str):
                    strings.add(node.value)
    return strings


_FENCE = re.compile(r"```[^\n]*\n(.*?)```", re.S)
_SPAN = re.compile(r"``?([^`\n]+)``?")


def _document_strings() -> set[str]:
    """The tour's statements, and the code blocks (whole and split at
    ``;``) and inline code spans of every Markdown file."""
    strings = set(split_statements(
        (ROOT / "examples" / "justql_tour.sql").read_text()))
    for path in sorted(ROOT.rglob("*.md")):
        text = path.read_text()
        for block in _FENCE.findall(text):
            strings.add(block)
            strings.update(split_statements(block))
        strings.update(_SPAN.findall(_FENCE.sub("", text)))
    return strings


def _is_number_bugfix(text) -> bool:
    """The new front end raises ParseError where the old one raised a
    builtin error or lexed a non-ASCII digit as a number."""
    new_expression, old_expression = _expressions(text)
    new = _parse(_Parser, text), new_expression
    if any(kind != "error" for kind, _ in new):
        return False
    old = _parse(ReferenceParser, text), old_expression
    return any(kind == "raw" for kind, _ in old) or any(
        token.kind == "number" and not token.text.isascii()
        for token in reference_tokenize(text))


def _is_in_list_change(text) -> bool:
    """The text uses ``[NOT] IN (...)``, the tokens agree, and wherever
    the parses differ the old front end raised ParseError."""
    if not _IN_LIST.search(text) or "tokens" in _differences(text):
        return False
    pairs = [(_parse(_Parser, text), _parse(ReferenceParser, text)),
             _expressions(text)]
    return all(old[0] == "error" for new, old in pairs if new != old)


def test_python_strings_agree_but_the_listed_ones():
    strings = _python_strings()
    differing = {text for text in strings if _differences(text)}
    assert NUMBER_BUGFIX <= differing
    assert IN_LIST <= differing
    assert all(map(_is_in_list_change, IN_LIST))
    assert [text for text in differing
            if not _is_number_bugfix(text) and text not in IN_LIST] == []
    parsed = [text for text in strings
              if _parse(_Parser, text)[0] == "ok"]
    assert len(parsed) > 250  # the corpus is statements, not only prose


def test_documents_and_the_tour_agree():
    strings = _document_strings()
    differing = [text for text in strings if _differences(text)
                 and not _is_number_bugfix(text)
                 and not _is_in_list_change(text)]
    assert differing == []
    tour = split_statements(
        (ROOT / "examples" / "justql_tour.sql").read_text())
    assert all(_parse(_Parser, text)[0] == "ok" for text in tour)


# -- the grammar, generated ---------------------------------------------------

_NAMES = st.sampled_from(["a", "b", "geom", "time", "Amount", "_x",
                          "not", "limit", "Null", "True", "false", "is"])
_NUMBERS = st.one_of(st.integers(0, 10**20).map(str),
                     st.sampled_from(["0.5", ".25", "1.", "1e3", "2.5E-2",
                                      "7e+1", "116.30000000000001"]))
_STRINGS = st.text(alphabet="ab '\"", max_size=6).map(
    lambda s: "'" + s.replace("'", "''") + "'")
_ATOMS = st.one_of(_NAMES, _NUMBERS, _STRINGS,
                   st.sampled_from(["TRUE", "FALSE", "NULL", "count(*)",
                                    "now()"]))

_INFIX = ["OR", "AND", "=", "!=", "<>", "<", "<=", ">", ">=", "LIKE",
          "WITHIN", "+", "-", "*", "/", "%", "or", "And"]


def _extend(children):
    return st.one_of(
        st.tuples(children, st.sampled_from(_INFIX), children).map(
            " ".join),
        children.map(lambda e: f"NOT {e}"),
        children.map(lambda e: f"-{e}"),
        children.map(lambda e: f"- {e}"),
        children.map(lambda e: f"({e})"),
        st.tuples(children, children, children).map(
            lambda t: f"{t[0]} BETWEEN {t[1]} AND {t[2]}"),
        st.tuples(children, st.sampled_from(["IS NULL", "IS NOT NULL",
                                             "is not null"])).map(
            " ".join),
        st.tuples(children, st.lists(children, max_size=3)).map(
            lambda t: f"{t[0]} IN st_KNN({', '.join(t[1])})"),
        st.tuples(children, children).map(lambda t: f"{t[0]} IN {t[1]}"),
        st.tuples(children, children).map(
            lambda t: f"{t[0]} WITHIN st_makeMBR({t[1]}, 1, 2, 3)"),
        st.lists(children, max_size=3).map(
            lambda args: f"f({', '.join(args)})"),
    )


_EXPRESSIONS = st.recursive(_ATOMS, _extend, max_leaves=12)


@settings(max_examples=400, deadline=None)
@given(_EXPRESSIONS)
def test_generated_expressions_agree(expression):
    new, old = _expressions(expression)
    assert new == old or _is_in_list_change(expression)


@settings(max_examples=300, deadline=None)
@given(_EXPRESSIONS, _EXPRESSIONS, _EXPRESSIONS,
       st.sampled_from(["", " LIMIT 5", " LIMIT 2.5"]))
def test_generated_statements_agree(projection, where, order, limit):
    statement = (f"SELECT {projection} FROM t WHERE {where} "
                 f"ORDER BY {order} DESC{limit}")
    assert _parse(_Parser, statement) == \
        _parse(ReferenceParser, statement) \
        or _is_in_list_change(statement)
    tokens = _outcome(lambda: tokenize(statement))
    assert tokens == _outcome(lambda: reference_tokenize(statement))


# -- a predicate after a predicate, and runs of quotes ----------------------

@pytest.mark.parametrize("statement,position", [
    ("SELECT a FROM t WHERE a = b = c", 28),
    ("SELECT a FROM t WHERE x AND a = b = c", 34),
    ("SELECT a FROM t WHERE x OR a = b = c", 33),
    ("SELECT a FROM t WHERE NOT a = b = c", 32),
    ("SELECT a FROM t WHERE NOT a + 1 = 2 < 3", 36),
    ("SELECT a IS NULL + 1 FROM t", 17),
    ("SELECT a BETWEEN 1 AND 2 = 3 FROM t", 25),
    ("SELECT '''", 7),
    ("SELECT ''''''' FROM t", 7),
])
def test_chained_predicates_and_quote_runs_fail_alike(statement,
                                                      position):
    assert _parse(_Parser, statement) == ("error", position)
    assert _parse(ReferenceParser, statement) == ("error", position)


def test_quote_runs_lex_alike():
    for text in ["''", "''''", "'a''b'", '""""', "'''a'", "'x'''"]:
        assert tokenize(text) == reference_tokenize(text)


def test_master_regex_compiles_on_python_3_10():
    """No possessive quantifier or atomic group (both 3.11)."""
    pattern = _MASTER.pattern
    assert "(?>" not in pattern
    assert not re.search(r"(?<!\\)[*+?}]\+", pattern)
