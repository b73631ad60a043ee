"""Argument abstraction for tokenized statements.

Method-call argument lists collapse to the placeholder token ``arg`` and
array index expressions to ``val``; the verbatim contents go into an
ArgumentTable so they can be reinserted into a generated statement
later.  Only outermost groups are abstracted: anything nested inside a
collapsed group is kept verbatim in the table entry.

One deliberate exception: an index expression made only of literals
(e.g. ``commands [ 10 ]``) stays concrete.  Constant-index fixes such as
off-by-one changes are real corrective patterns and abstracting the
constant would erase them from the corpus.

Reinsertion follows the query's table: a placeholder whose callee name
matches a recorded call takes that call's contents; remaining
placeholders take remaining entries of the same kind left to right;
anything still unmatched becomes an empty group.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tokenizer import (
    TokenizedStatement,
    is_identifier,
    is_literal,
)

ARG_TOKEN = "arg"
VAL_TOKEN = "val"


class AbstractionError(ValueError):
    """Raised for statements with unbalanced parentheses or brackets."""


@dataclass(frozen=True)
class ArgEntry:
    kind: str                 # "arg" for calls, "val" for array accesses
    callee: str
    contents: tuple[str, ...]


@dataclass(frozen=True)
class ArgumentTable:
    entries: tuple[ArgEntry, ...] = ()

    def __len__(self) -> int:
        return len(self.entries)


# Keywords that may directly precede an argument-list '(' and should be
# treated as callees (explicit constructor invocations).
_CALLABLE_KEYWORDS = frozenset({"this", "super"})


def _is_callee(token: str) -> bool:
    return is_identifier(token) or token in _CALLABLE_KEYWORDS


def _match_forward(tokens, start: int, open_tok: str, close_tok: str) -> int:
    """Index of the close_tok matching tokens[start] == open_tok."""
    depth = 0
    for i in range(start, len(tokens)):
        if tokens[i] == open_tok:
            depth += 1
        elif tokens[i] == close_tok:
            depth -= 1
            if depth == 0:
                return i
    raise AbstractionError(f"unbalanced {open_tok!r} at token {start}")


def abstract_arguments(stmt: TokenizedStatement) -> tuple[TokenizedStatement, ArgumentTable]:
    tokens = stmt.tokens
    out: list[str] = []
    entries: list[ArgEntry] = []
    _abstract_region(tokens, 0, len(tokens), out, entries)
    abstracted = TokenizedStatement(tuple(out))
    return abstracted, ArgumentTable(tuple(entries))


def _abstract_region(tokens, lo: int, hi: int, out: list[str], entries: list[ArgEntry]) -> None:
    i = lo
    while i < hi:
        tok = tokens[i]
        if tok == "(" and i > lo and _is_callee(tokens[i - 1]):
            close = _match_forward(tokens, i, "(", ")")
            inner = tokens[i + 1 : close]
            if inner:
                out.append("(")
                out.append(ARG_TOKEN)
                out.append(")")
                entries.append(ArgEntry(ARG_TOKEN, tokens[i - 1], tuple(inner)))
            else:
                out.append("(")
                out.append(")")
            i = close + 1
            continue
        if tok == "(":
            # grouping or cast: recurse so nested calls still abstract
            close = _match_forward(tokens, i, "(", ")")
            out.append("(")
            _abstract_region(tokens, i + 1, close, out, entries)
            out.append(")")
            i = close + 1
            continue
        if tok == "[":
            close = _match_forward(tokens, i, "[", "]")
            inner = tokens[i + 1 : close]
            if inner and not all(is_literal(t) for t in inner):
                callee = tokens[i - 1] if i > lo and is_identifier(tokens[i - 1]) else ""
                out.append("[")
                out.append(VAL_TOKEN)
                out.append("]")
                entries.append(ArgEntry(VAL_TOKEN, callee, tuple(inner)))
                i = close + 1
                continue
            out.append("[")
            out.extend(inner)
            out.append("]")
            i = close + 1
            continue
        if tok in (")", "]"):
            raise AbstractionError(f"unbalanced {tok!r} at token {i}")
        out.append(tok)
        i += 1


def _placeholder_sites(tokens) -> list[tuple[int, str, str]]:
    """(token_index, kind, callee) for each arg/val placeholder."""
    sites = []
    for i, tok in enumerate(tokens):
        if tok == ARG_TOKEN and 0 < i < len(tokens) - 1 and tokens[i - 1] == "(" and tokens[i + 1] == ")":
            callee = tokens[i - 2] if i >= 2 and _is_callee(tokens[i - 2]) else ""
            sites.append((i, ARG_TOKEN, callee))
        elif tok == VAL_TOKEN and 0 < i < len(tokens) - 1 and tokens[i - 1] == "[" and tokens[i + 1] == "]":
            callee = tokens[i - 2] if i >= 2 and is_identifier(tokens[i - 2]) else ""
            sites.append((i, VAL_TOKEN, callee))
    return sites


def reinsert_arguments(generated: TokenizedStatement, query_args: ArgumentTable) -> TokenizedStatement:
    tokens = list(generated.tokens)
    sites = _placeholder_sites(tokens)
    assigned: dict[int, tuple[str, ...] | None] = {}
    used = [False] * len(query_args.entries)

    # pass 1: same callee name, same kind
    for site_i, (pos, kind, callee) in enumerate(sites):
        if not callee:
            continue
        for ei, entry in enumerate(query_args.entries):
            if not used[ei] and entry.kind == kind and entry.callee == callee:
                assigned[site_i] = entry.contents
                used[ei] = True
                break

    # pass 2: left-to-right order within each kind
    for site_i, (pos, kind, callee) in enumerate(sites):
        if site_i in assigned:
            continue
        for ei, entry in enumerate(query_args.entries):
            if not used[ei] and entry.kind == kind:
                assigned[site_i] = entry.contents
                used[ei] = True
                break
        else:
            assigned[site_i] = None   # stays empty

    result: list[str] = []
    site_by_pos = {pos: site_i for site_i, (pos, _, _) in enumerate(sites)}
    for i, tok in enumerate(tokens):
        if i in site_by_pos:
            contents = assigned[site_by_pos[i]]
            if contents is not None:
                result.extend(contents)
            # None: drop the placeholder, leaving an empty ( ) or [ ]
        else:
            result.append(tok)
    return TokenizedStatement(tuple(result))
