"""Tokenizer checks against the golden file plus structural properties,
and a differential check of the token pattern against the character-loop
lexer kept in conftest."""

import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from patchloom import mining, synthdata
from patchloom.mining import method_ranges
from patchloom.repo import normalize_lines
from patchloom.tokenizer import (
    TokenizeError,
    brace_counts,
    is_identifier,
    is_literal,
    is_number,
    strip_line_comment,
    tokenize,
)

from conftest import (
    DATA_DIR,
    load_tagged,
    reference_brace_counts,
    reference_strip_line_comment,
    reference_tokenize,
)

GOLDEN = load_tagged(os.path.join(DATA_DIR, "tokenizer_golden.txt"))


@pytest.mark.parametrize("raw,expected", GOLDEN,
                         ids=[r[:40] for r, _ in GOLDEN])
def test_golden_line(raw, expected):
    assert " ".join(tokenize(raw).tokens) == expected


@pytest.mark.parametrize("raw,expected", GOLDEN,
                         ids=[r[:40] for r, _ in GOLDEN])
def test_golden_line_retokenizes_to_itself(raw, expected):
    # serialized token text is a fixed point of the tokenizer
    again = tokenize(expected)
    assert " ".join(again.tokens) == expected


def test_string_literal_is_one_token():
    toks = tokenize('log . warn ( "a + b; // not a comment" ) ;').tokens
    assert '"a + b; // not a comment"' in toks


def test_comment_stripped_outside_strings_only():
    assert strip_line_comment('int i = 0 ; // trailing') == 'int i = 0 ; '
    kept = 'String s = "http://x" ;'
    assert strip_line_comment(kept) == kept
    mixed = 'String s = "a//b" ; // real'
    assert strip_line_comment(mixed) == 'String s = "a//b" ; '


def test_unterminated_string_raises():
    with pytest.raises(TokenizeError):
        tokenize('log . warn ( "oops ) ;')


def test_unterminated_char_raises():
    with pytest.raises(TokenizeError):
        tokenize("char c = 'x ;")


def test_generics_split_one_bracket_at_a_time():
    toks = tokenize("Map<String,List<Integer>> m;").tokens
    assert toks == ("Map", "<", "String", ",", "List", "<", "Integer",
                    ">", ">", "m", ";")


def test_no_shift_operator_tokens():
    # >> and << never fuse; generics would be unsplittable otherwise
    assert ">>" not in tokenize("a = b >> 2 ;").tokens
    assert "<<" not in tokenize("a = b << 2 ;").tokens


def test_classifiers():
    assert is_identifier("hello") and is_identifier("_x9") and is_identifier("$ref")
    assert not is_identifier("9lives") and not is_identifier("+")
    assert is_number("42") and is_number("0x1F") and is_number("3.14f")
    assert not is_number("i")
    assert is_literal('"s"') and is_literal("'c'") and is_literal("42")
    # words like true and null stay plain identifiers for abstraction
    assert not is_literal("true") and not is_literal("null")
    assert not is_literal("count")


@given(st.text(alphabet="abc01+=;(). \"'", max_size=30))
@settings(max_examples=300, deadline=None)
def test_tokenize_total_or_clean_error(raw):
    """Every input either tokenizes or raises TokenizeError; when it
    tokenizes, the serialized form is a fixed point."""
    try:
        stmt = tokenize(raw)
    except TokenizeError:
        return
    text = " ".join(stmt.tokens)
    assert tuple(tokenize(text).tokens) == stmt.tokens


# ---------------------------------------------------------------------------
# the token pattern against the character-loop oracle

# fragments a Java line is made of, weighted toward the characters where
# the two lexers could part: quotes, escapes, comments, exponents, hex
_FRAGMENTS = (
    '"', '"', "'", "'", "\\", "\\", "//", "/", "/=", "{", "}", "{", "}",
    "0x", "0X", "1e+", "2E-", "e", "E", "+", "-", "0", "7", ".", "x", "L",
    "f", "_", "$", "a", "id", "Foo", "int", " ", " ", "  ", "\t", "\f",
    "\v", "\r", "\n", "=", "==", "<", ">", "!", "&", "|", ":", ";", "(",
    ")", "[", "]", ",", "?", "*", "%", "^", "\xa0", "\u00e9", "\u2028",
    "\x1c", "\u0663", "\u00b2",
)


def _random_lines(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    return ["".join(rng.choices(_FRAGMENTS, k=rng.randint(0, 24)))
            for _ in range(count)]


def _corpus_lines() -> list[str]:
    lines = [stmt for _, stmt in load_tagged(os.path.join(DATA_DIR, "statements_labeled.txt"))]
    lines += [text for row in GOLDEN for text in row]
    for seed in (1, 2, 3):
        bench = synthdata.make_benchmark(seed=seed)
        for pairs in (bench.train_pairs, bench.held_out, bench.queries):
            lines += [text for row in pairs for text in row[:2]]
    return lines


def _repo_bodies() -> list[list[str]]:
    bodies = set()
    for seed in (1, 2, 3):
        for commit in synthdata.make_repo(seed=seed)["commits"]:
            bodies.update(commit["files"].values())
    return [normalize_lines(body.splitlines()) for body in sorted(bodies)]


PATTERN = (lambda line: tokenize(line).tokens, strip_line_comment, brace_counts)
CHARACTER_LOOP = (reference_tokenize, reference_strip_line_comment, reference_brace_counts)


def _lex(line: str, lexer):
    """Tokens (or the error message), stripped text and its brace counts."""
    tokens_of, strip, braces = lexer
    try:
        tokens = tokens_of(line)
    except TokenizeError as exc:
        tokens = str(exc)
    stripped = strip(line)
    return tokens, stripped, braces(stripped)


def test_token_pattern_agrees_with_the_character_loop_on_every_line():
    lines = _random_lines(seed=13, count=50_000) + _corpus_lines()
    repo_lines = [line for body in _repo_bodies() for line in body]
    for line in lines + repo_lines:
        assert _lex(line, PATTERN) == _lex(line, CHARACTER_LOOP), repr(line)


def test_method_ranges_agree_with_the_character_loop(monkeypatch):
    random_lines = _random_lines(seed=17, count=25_000)
    chunks = [random_lines[i : i + 25] for i in range(0, len(random_lines), 25)]
    chunks += _repo_bodies()
    got = [method_ranges(chunk) for chunk in chunks]
    monkeypatch.setattr(mining, "strip_line_comment", reference_strip_line_comment)
    monkeypatch.setattr(mining, "brace_counts", reference_brace_counts)
    assert got == [method_ranges(chunk) for chunk in chunks]
