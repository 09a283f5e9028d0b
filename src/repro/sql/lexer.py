"""Tokenizer for JustQL: one compiled master regex, one pass.

Each match of :data:`_MASTER` is one token, in a named group, after the
whitespace and comments before it.  ``finditer`` never skips a
character: the ``bad`` alternative matches any one character and is
reported, and the ``end`` alternative ends the token list.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.errors import ParseError

KEYWORDS = {
    "create", "table", "view", "views", "tables", "drop", "show", "desc",
    "describe", "as", "select", "from", "where", "group", "order", "by",
    "asc", "desc", "limit", "and", "or", "not", "between", "in", "within",
    "insert", "into", "values", "load", "to", "config", "filter",
    "userdata", "with", "store", "distinct", "having", "join", "on", "null",
    "true", "false", "is", "like", "explain", "inner", "left", "analyze",
}

_SYMBOLS = ("<=", ">=", "!=", "<>", "::", "(", ")", ",", ".", ";", "=",
            "<", ">", "*", "+", "-", "/", "%", "{", "}", ":", "[", "]", "|")

#: One token and the whitespace and ``--`` comments before it.  The
#: alternatives, in match order: a number starts with an ASCII digit (or
#: ``.`` and one), and its exponent may dangle (``1e``), which the
#: parser rejects at the literal.  A quoted string is the unrolled loop
#: ``q [^q]* (qq [^q]*)* q`` whose closing quote may not be followed by
#: another, so ``''`` is always an escape and ``'''`` is unterminated,
#: not an empty string and a stray quote.  ``uname`` is a name that
#: starts with a non-ASCII word character, which only a letter may do;
#: ``bad`` is any other character, and ``end`` the end of the text.
_MASTER = re.compile(r"(?:\s|--[^\n]*\n?)*(?:" + "|".join((
    r"(?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]*)?)",
    r"(?P<name>[A-Za-z_]\w*)",
    r"(?P<string>'[^']*(?:''[^']*)*'(?!')|\"[^\"]*(?:\"\"[^\"]*)*\"(?!\"))",
    "(?P<symbol>" + "|".join(map(re.escape, _SYMBOLS)) + ")",
    r"(?P<uname>[^\W0-9]\w*)",
    r"(?P<end>\Z)",
    r"(?P<bad>[\s\S])",
)) + ")")


class Token(NamedTuple):
    """One lexical token: kind is ``ident``, ``keyword``, ``number``,
    ``string``, ``symbol``, or ``end``; ``text`` is a string's value.

    ``lowered`` is the token's source text, lower-cased for a name
    (``ident``/``keyword``), quotes included for a string.  So it names
    a symbol or keyword alone: no other token has ``lowered == "and"``
    or ``lowered == ")"``.
    """

    kind: str
    text: str
    position: int
    lowered: str


#: Builds a Token from one tuple, without NamedTuple's Python-level
#: ``__new__`` frame (one per token on the statement path).
_new_token = tuple.__new__


def tokenize(statement: str) -> list[Token]:
    """Tokenize a JustQL statement; raises ParseError on bad input."""
    tokens: list[Token] = []
    append = tokens.append
    for match in _MASTER.finditer(statement):
        kind = match.lastgroup
        text = match.group(kind)
        position = match.start(kind)
        if kind == "name" or kind == "uname" and text[0].isalpha():
            lowered = text.lower()
            kind = "keyword" if lowered in KEYWORDS else "ident"
            append(_new_token(Token, (kind, text, position, lowered)))
        elif kind == "number" or kind == "symbol":
            append(_new_token(Token, (kind, text, position, text)))
        elif kind == "string":
            quote = text[0]
            append(_new_token(Token, (
                kind, text[1:-1].replace(quote + quote, quote), position,
                text)))
        elif kind == "end":
            append(_new_token(Token, (kind, "", position, "")))
            break
        elif kind == "bad" and text in "'\"":
            raise ParseError("unterminated string literal", position,
                             statement)
        else:
            raise ParseError(f"unexpected character {text[0]!r}", position,
                             statement)
    return tokens
