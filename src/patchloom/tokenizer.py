"""Tokenizer for single Java source statements.

Produces one token per identifier, keyword, literal, or operator.  Angle
brackets always tokenize singly (except ``<=``/``>=``) so that generics
like ``Set < String >`` split apart; as a consequence shift operators
also split and such statements later fail validation, which is the
conservative direction.  String and char literals are opaque single
tokens including their quotes.  ``//`` comments are stripped first.

The canonical serialized form of a token list is the single-space join;
re-tokenizing that form yields the identical list.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class TokenizeError(ValueError):
    """Raised for lines that cannot be tokenized (unterminated literals)."""


@dataclass(frozen=True)
class TokenizedStatement:
    tokens: tuple[str, ...]
    raw: str

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

_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$")
_IDENT_CONT = _IDENT_START | frozenset("0123456789")
_DIGITS = frozenset("0123456789")


def strip_line_comment(line: str) -> str:
    """Remove a // comment that is not inside a string or char literal."""
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c in "\"'":
            quote = c
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    i += 1
                    break
                i += 1
        elif c == "/" and i + 1 < n and line[i + 1] == "/":
            return line[:i]
        else:
            i += 1
    return line


def tokenize(raw: str) -> TokenizedStatement:
    """Tokenize one physical source line.  Raises TokenizeError on
    unterminated string/char literals."""
    line = strip_line_comment(raw)
    tokens: list[str] = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c in " \t\f\v\r\n":
            i += 1
            continue
        if c in _IDENT_START:
            j = i + 1
            while j < n and line[j] in _IDENT_CONT:
                j += 1
            tokens.append(line[i:j])
            i = j
            continue
        if c in _DIGITS:
            i = _scan_number(line, i, tokens)
            continue
        if c in "\"'":
            i = _scan_literal(line, i, tokens)
            continue
        two = line[i : i + 2]
        if two in _MULTI_OPS:
            tokens.append(two)
            i += 2
            continue
        tokens.append(c)
        i += 1
    return TokenizedStatement(tuple(tokens), raw)


def _scan_number(line: str, i: int, tokens: list[str]) -> int:
    n = len(line)
    j = i
    while j < n:
        c = line[j]
        if c in _IDENT_CONT or c == ".":
            # exponent sign: 1.5e-3, 2E+8
            if c in "eE" and j + 1 < n and line[j + 1] in "+-" and j + 2 < n and line[j + 2] in _DIGITS:
                hexlike = line[i : i + 2].lower() == "0x"
                if not hexlike:
                    j += 2
                    continue
            j += 1
        else:
            break
    tokens.append(line[i:j])
    return j


def _scan_literal(line: str, i: int, tokens: list[str]) -> int:
    quote = line[i]
    n = len(line)
    j = i + 1
    while j < n:
        if line[j] == "\\":
            j += 2
            continue
        if line[j] == quote:
            tokens.append(line[i : j + 1])
            return j + 1
        j += 1
    kind = "string" if quote == '"' else "char"
    raise TokenizeError(f"unterminated {kind} literal: {line[i:]!r}")


def is_identifier(token: str) -> bool:
    return bool(token) and token[0] in _IDENT_START and all(c in _IDENT_CONT for c in token) \
        and token not in JAVA_KEYWORDS


def is_number(token: str) -> bool:
    return bool(token) and token[0] in _DIGITS


def is_literal(token: str) -> bool:
    return is_number(token) or (bool(token) and token[0] in "\"'")
