"""Tokenizer for single Java source statements.

Produces one token per identifier, keyword, literal, or operator.  Angle
brackets always tokenize singly (except ``<=``/``>=``) so that generics
like ``Set < String >`` split apart; as a consequence shift operators
also split and such statements later fail validation, which is the
conservative direction.  String and char literals are opaque single
tokens including their quotes.  A ``//`` comment outside a literal ends
the line.  ``_TOKEN`` is the one token grammar: ``tokenize``,
``strip_line_comment`` and ``brace_counts`` (mining's method-scope scan)
each scan a line with it.

The canonical serialized form of a token list is the single-space join;
re-tokenizing that form yields the identical list.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class TokenizeError(ValueError):
    """Raised for lines that cannot be tokenized (unterminated literals)."""


@dataclass(frozen=True)
class TokenizedStatement:
    tokens: tuple[str, ...]

    def serialized(self) -> str:
        return " ".join(self.tokens)


JAVA_KEYWORDS = frozenset(
    """abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package private
    protected public return short static strictfp super switch synchronized
    this throw throws transient try void volatile while""".split()
)

# Maximal-munch operators.  Shift operators and the diamond are deliberately
# absent so < and > always stand alone outside of <= and >=.
_MULTI_OPS = (
    "==", "!=", "<=", ">=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "->", "::",
)

_IDENT = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")
_QUOTES = ('"', "'")

# One token per match, first alternative first.  A lone quote is a
# literal the line leaves open.  Only the six ASCII whitespace characters
# separate tokens, so any other character (\xa0 too) is a token.
_TOKEN = re.compile(
    r"//.*"
    r"""|"(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\.)*'"""
    r"""|["']"""
    rf"|{_IDENT.pattern}"
    r"|0[xX][A-Za-z0-9_$.]*"
    r"|[0-9](?:[eE][+-](?=[0-9])|[A-Za-z0-9_$.])*"  # 1.5e-3, 2E+8
    rf"|{'|'.join(map(re.escape, _MULTI_OPS))}"
    r"""|[^ \t\n\r\f\v"']""",
    re.DOTALL,
)


def strip_line_comment(line: str) -> str:
    """Remove a // comment that is not inside a string or char literal.
    A line that leaves a literal open before any comment is returned
    as it is."""
    if "//" not in line:
        return line
    # a comment token runs to the end of the line, so it comes last
    tokens = _TOKEN.findall(line)
    if '"' in tokens or "'" in tokens or not tokens[-1].startswith("//"):
        return line
    return line[: -len(tokens[-1])]


def tokenize(raw: str) -> TokenizedStatement:
    """Tokenize one physical source line.  Raises TokenizeError on
    unterminated string/char literals."""
    tokens = _TOKEN.findall(raw)
    # only a line with a slash or a quote can hold a comment or an open literal
    if "/" in raw or '"' in raw or "'" in raw:
        if '"' in tokens or "'" in tokens:
            i = next(m.start() for m in _TOKEN.finditer(raw) if m.group() in _QUOTES)
            kind = "string" if raw[i] == '"' else "char"
            raise TokenizeError(f"unterminated {kind} literal: {raw[i:]!r}")
        if tokens[-1].startswith("//"):
            tokens.pop()
    return TokenizedStatement(tuple(tokens))


def brace_counts(line: str) -> tuple[int, int]:
    """(opens, closes): the braces of a comment-stripped line that lie
    outside string and char literals, up to a literal left open."""
    if '"' not in line and "'" not in line:
        return line.count("{"), line.count("}")
    tokens = _TOKEN.findall(line)
    for quote in _QUOTES:
        if quote in tokens:
            del tokens[tokens.index(quote):]
    return tokens.count("{"), tokens.count("}")


def is_identifier(token: str) -> bool:
    return _IDENT.fullmatch(token) is not None and token not in JAVA_KEYWORDS


def is_number(token: str) -> bool:
    return bool(token) and token[0] in "0123456789"


def is_literal(token: str) -> bool:
    return is_number(token) or (bool(token) and token[0] in "\"'")
