"""The lexical grammar of the ZQL dialect: tokens for the parser, and
the literal-stripped statement digest for the plan cache."""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Any, Iterator

from repro.errors import QuerySyntaxError

KEYWORDS = {
    "select",
    "distinct",
    "from",
    "where",
    "in",
    "exists",
    "not",
    "and",
    "as",
    "union",
    "intersect",
    "except",
    "order",
    "group",
    "having",
    "by",
    "asc",
    "desc",
    "true",
    "false",
    "null",
    # DML
    "insert",
    "into",
    "values",
    "update",
    "set",
    "delete",
}


class TokenKind(enum.Enum):
    """Lexical categories of the dialect."""

    IDENT = "ident"
    KEYWORD = "keyword"
    NUMBER = "number"
    STRING = "string"
    SYMBOL = "symbol"
    PARAM = "param"
    END = "end"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    value: Any
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == word

    def is_symbol(self, sym: str) -> bool:
        return self.kind is TokenKind.SYMBOL and self.text == sym


# The lexical grammar, once: ``tokenize`` and ``strip_literals`` are both
# built from these sub-patterns.  A ``.`` belongs to a number only between
# digits (``c.x`` and ``1.name`` keep it as the path separator).
_STRING = r"\"[^\"]*\"|'[^']*'"
_NUMBER = r"\d+(?:\.\d+)?"
_NAME = r"[^\W\d]\w*"
_TOKEN = re.compile(
    rf"\s*(?:(?P<string>{_STRING})|(?P<number>{_NUMBER})|\$(?P<param>{_NAME})"
    rf"|(?P<word>{_NAME})|(?P<symbol>==|!=|<=|>=|&&|[(),.<>*;=]))"
)
# A digit that follows a word character continues a name (``c1``, ``$p2``).
_LITERAL = re.compile(rf"({_STRING}|(?<!\w){_NUMBER})")


def literal_value(raw: str) -> Any:
    """The value a STRING or NUMBER token's source text denotes."""
    if raw[0] in "\"'":
        return raw[1:-1]
    return float(raw) if "." in raw else int(raw)


def tokenize(text: str) -> list[Token]:
    """Tokenize the full input; always ends with an END token."""
    tokens = list(_scan(text))
    tokens.append(Token(TokenKind.END, "", None, len(text)))
    return tokens


def _scan(text: str) -> Iterator[Token]:
    pos = 0
    while (match := _TOKEN.match(text, pos)) is not None:
        kind = match.lastgroup
        raw = match.group(kind)
        start = match.start(kind)
        if kind == "string":
            value = literal_value(raw)
            yield Token(TokenKind.STRING, value, value, start)
        elif kind == "number":
            yield Token(TokenKind.NUMBER, raw, literal_value(raw), start)
        elif kind == "param":
            yield Token(TokenKind.PARAM, raw, raw, start - 1)
        elif kind == "symbol":
            yield Token(TokenKind.SYMBOL, raw, raw, start)
        elif (lower := raw.lower()) in KEYWORDS:
            yield Token(TokenKind.KEYWORD, lower, lower, start)
        else:
            yield Token(TokenKind.IDENT, raw, raw, start)
        pos = match.end()
    rest = text[pos:].lstrip()
    if rest:
        pos, ch = len(text) - len(rest), rest[0]
        if ch in "\"'":
            raise QuerySyntaxError("unterminated string literal", pos)
        if ch == "$":
            raise QuerySyntaxError("expected parameter name after '$'", pos)
        raise QuerySyntaxError(f"unexpected character {ch!r}", pos)


def strip_literals(text: str) -> tuple[tuple[str, ...], list[str]]:
    """One pass over ``text``: its digest and its literals' source texts.

    The digest is everything *between* the STRING and NUMBER tokens, so two
    texts share a digest exactly when they differ in nothing but literal
    values — the plan cache recognises a statement shape by it without
    parsing.  Never raises: a text that does not tokenize has a digest no
    parsed text shares (an unterminated quote stays in it), and the parser
    reports the error.
    """
    parts = _LITERAL.split(text)
    return tuple(parts[::2]), parts[1::2]


def literal_positions(digest: tuple[str, ...], raws: list[str]) -> list[int]:
    """Where each literal of :func:`strip_literals` started in the text, in
    order — the ``position`` of the token ``tokenize`` makes of it."""
    positions = []
    position = 0
    for between, raw in zip(digest, raws):
        position += len(between)
        positions.append(position)
        position += len(raw)
    return positions


__all__ = [
    "KEYWORDS",
    "Token",
    "TokenKind",
    "literal_positions",
    "literal_value",
    "strip_literals",
    "tokenize",
]
