"""Argument abstraction and reinsertion.

The round-trip identity over the labeled statement corpus is the main
oracle: abstracting a statement and reinserting from its own table must
reproduce the original text.  The remaining tests pin the matching
rules for foreign tables.
"""

import os

import pytest

from patchloom.arguments import (
    AbstractionError,
    ArgumentTable,
    abstract_arguments,
    reinsert_arguments,
)
from patchloom.tokenizer import TokenizedStatement, tokenize

from conftest import DATA_DIR, load_tagged

VALID_LINES = [text for label, text in
               load_tagged(os.path.join(DATA_DIR, "statements_labeled.txt"))
               if label == "VALID"]


@pytest.mark.parametrize("text", VALID_LINES, ids=[t[:44] for t in VALID_LINES])
def test_round_trip_identity(text):
    stmt = tokenize(text)
    abstracted, table = abstract_arguments(stmt)
    rebuilt = reinsert_arguments(abstracted, table)
    assert rebuilt.tokens == stmt.tokens


def _abstract(text: str):
    return abstract_arguments(tokenize(text))


def test_call_arguments_collapse_to_one_token():
    abstracted, table = _abstract("log . warn ( msg , cause ) ;")
    assert abstracted.tokens == ("log", ".", "warn", "(", "arg", ")", ";")
    assert len(table) == 1
    entry = table.entries[0]
    assert entry.kind == "arg"
    assert entry.callee == "warn"
    assert entry.contents == ("msg", ",", "cause")


def test_empty_call_stays_empty():
    abstracted, table = _abstract("reader . close ( ) ;")
    assert abstracted.tokens == ("reader", ".", "close", "(", ")", ";")
    assert len(table) == 0


def test_literal_index_is_kept_concrete():
    abstracted, _ = _abstract("values [ 0 ] = x ;")
    assert abstracted.tokens == ("values", "[", "0", "]", "=", "x", ";")


def test_expression_index_becomes_val():
    abstracted, table = _abstract("values [ i + 1 ] = x ;")
    assert abstracted.tokens == ("values", "[", "val", "]", "=", "x", ";")
    assert table.entries[0].kind == "val"
    assert table.entries[0].contents == ("i", "+", "1")


def test_only_outermost_group_is_abstracted():
    abstracted, table = _abstract("run ( fetch ( a [ i ] ) , b ) ;")
    assert abstracted.tokens == ("run", "(", "arg", ")", ";")
    assert len(table) == 1
    assert table.entries[0].contents == ("fetch", "(", "a", "[", "i", "]", ")",
                                         ",", "b")


def test_control_flow_parens_not_treated_as_calls():
    abstracted, table = _abstract("if ( a < b ) {")
    assert abstracted.tokens == ("if", "(", "a", "<", "b", ")", "{")
    assert len(table) == 0


def test_reinsert_prefers_matching_callee_name():
    # generated output reorders the calls; the table still maps by name
    _, table = _abstract("first ( a ) ; second ( b ) ;")
    generated = TokenizedStatement(
        ("second", "(", "arg", ")", ";", "first", "(", "arg", ")", ";"))
    rebuilt = reinsert_arguments(generated, table)
    assert rebuilt.tokens == ("second", "(", "b", ")", ";",
                              "first", "(", "a", ")", ";")


def test_reinsert_falls_back_to_positional_order():
    _, table = _abstract("alpha ( a ) ; beta ( b ) ;")
    generated = TokenizedStatement(
        ("gamma", "(", "arg", ")", ";", "delta", "(", "arg", ")", ";"))
    rebuilt = reinsert_arguments(generated, table)
    # no callee names match, so groups fill left to right
    assert rebuilt.tokens == ("gamma", "(", "a", ")", ";",
                              "delta", "(", "b", ")", ";")


def test_reinsert_empty_group_when_table_runs_out():
    generated = TokenizedStatement(("probe", "(", "arg", ")", ";"))
    rebuilt = reinsert_arguments(generated, ArgumentTable(entries=[]))
    assert rebuilt.tokens == ("probe", "(", ")", ";")


def test_val_site_without_donor_leaves_empty_brackets():
    # the caller counts unfilled val sites before reinsertion; the
    # reinserter itself just drops the placeholder
    generated = TokenizedStatement(("x", "[", "val", "]", ";"))
    rebuilt = reinsert_arguments(generated, ArgumentTable(entries=[]))
    assert rebuilt.tokens == ("x", "[", "]", ";")


def test_unbalanced_parens_raise():
    with pytest.raises(AbstractionError):
        _abstract("run ( a ;")


def test_constructor_delegation_abstracts_like_a_call():
    abstracted, table = _abstract("this ( a , b ) ;")
    assert abstracted.tokens == ("this", "(", "arg", ")", ";")
    assert table.entries[0].callee == "this"
    assert table.entries[0].contents == ("a", ",", "b")
