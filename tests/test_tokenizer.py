"""Tokenizer checks against the golden file plus structural properties."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from patchloom.tokenizer import (
    TokenizeError,
    is_identifier,
    is_literal,
    is_number,
    strip_line_comment,
    tokenize,
)

from conftest import DATA_DIR, load_tagged

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
