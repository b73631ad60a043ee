"""Statement validator driven by the hand-labeled corpus plus a few
targeted shapes around backtracking and brace handling, and a pinned
verdict string over seeded edits of the labeled lines."""

import hashlib
import os
import random

import pytest

from patchloom.parsing import validate_statement
from patchloom.tokenizer import TokenizedStatement, tokenize

from conftest import DATA_DIR, load_tagged

LABELED = load_tagged(os.path.join(DATA_DIR, "statements_labeled.txt"))


@pytest.mark.parametrize("label,text", LABELED, ids=[t[:44] for _, t in LABELED])
def test_labeled_statement(label, text):
    assert label in ("VALID", "INVALID")
    assert validate_statement(tokenize(text)) == (label == "VALID")


def _ok(text: str) -> bool:
    return validate_statement(tokenize(text))


def test_generic_declaration_backtracks_from_comparison():
    # "a < b" starts like a generic type but must fall back to expression
    assert _ok("if ( a < b ) {")
    assert _ok("List < String > names = new ArrayList < String > ( ) ;")
    assert _ok("List < > names = new ArrayList < > ( ) ;")


def test_array_creation_rejects_a_diamond():
    # javac's parser rejects an array of '<>'; an array of a generic type
    # parses, and fails only later, in attribution
    assert not _ok("o = new Foo < > [ 3 ] ;")
    assert not _ok("o = new Foo < > [ ] { } ;")
    assert _ok("o = new Foo < String > [ 3 ] ;")
    assert _ok("o = new Foo < Bar < String > > [ 3 ] ;")


def test_void_is_no_type_outside_a_class_literal():
    # javac's parser takes void only as a method result or in void.class
    assert not _ok("void x = y ;")
    assert not _ok("x = ( void ) y ;")
    assert not _ok("List < void > xs = null ;")
    assert not _ok("for ( void x : xs ) {")
    assert not _ok("try ( void r = f ( ) ) {")
    assert _ok("c = void . class ;")


def test_try_bodies_are_elided_only_at_the_end():
    # javac rejects a try or catch body that is missing before the next
    # clause; only the last one on the line may be elided
    assert not _ok("try catch ( E e ) {")
    assert not _ok("try finally {")
    assert not _ok("try { x = 1 ; } catch ( E e ) finally {")
    assert _ok("try { x = 1 ; } catch ( E e )")


def test_switch_bodies_parse_case_groups():
    assert not _ok("switch ( x ) { y ++ ; case 1 : }")
    assert _ok("switch ( x ) { }")
    assert _ok("switch ( k ) { case A : case B : f ( ) ; break ; default : { g ( ) ; } }")
    assert _ok("switch ( x ) { case a ? 1 : 2 : switch ( y ) { default : } }")


def test_all_brace_lines_rejected():
    assert not _ok("}")
    assert not _ok("} }")
    assert not _ok("{")


def test_trailing_open_brace_allowed_on_control_flow():
    assert _ok("if ( x != null ) {")
    assert _ok("for ( int i = 0 ; i < n ; i ++ ) {")
    assert _ok("while ( reader . ready ( ) ) {")
    assert _ok("try { x = 1 ; } catch ( E e ) {")
    assert _ok("try { x = 1 ; } catch ( E e ) { } finally {")


def test_headless_fragments_rejected():
    assert not _ok("else {")  # bare else is not a statement on its own
    assert not _ok("( x + y )")
    assert not _ok("int = 4 ;")


def test_calls_and_assignments():
    assert _ok("monitor . update ( arg ) ;")
    assert _ok("this . total += arg ;")
    assert _ok("values [ val ] = arg ;")
    assert not _ok("monitor . update ( arg ;")


def test_abstracted_placeholders_parse_as_expressions():
    assert _ok("return handler . resolve ( arg ) ;")
    assert _ok("int n = values [ val ] ;")


def _edited_corpus() -> list[tuple[str, ...]]:
    """Seeded single-token edits (insert, delete, replace, swap) and
    two-line splices of the labeled lines, with tokens drawn from the
    labeled lines' own vocabulary."""
    rng = random.Random(20181018)
    lines = [tokenize(text).tokens for _, text in LABELED]
    vocab = sorted({tok for toks in lines for tok in toks})
    corpus = []
    for toks in lines:
        for _ in range(30):
            new = list(toks)
            op = rng.randrange(4)
            if op == 0 or len(new) < 2:
                new.insert(rng.randrange(len(new) + 1), rng.choice(vocab))
            elif op == 1:
                del new[rng.randrange(len(new))]
            elif op == 2:
                new[rng.randrange(len(new))] = rng.choice(vocab)
            else:
                j = rng.randrange(len(new) - 1)
                new[j], new[j + 1] = new[j + 1], new[j]
            corpus.append(tuple(new))
        for _ in range(10):
            other = rng.choice(lines)
            corpus.append(toks[:rng.randrange(len(toks) + 1)]
                          + other[rng.randrange(len(other) + 1):])
    return corpus


def test_verdicts_on_edited_lines_are_pinned():
    # The pin was taken with the validator whose control bodies are only
    # left open at the end of the line or one statement (no stop before a
    # mid-line else or while), which requires blocks after try, catch and
    # finally, parses switch bodies as case groups, takes only statement
    # expressions in a for header's init and update parts, no bare super,
    # no literal after a '.' and no literal as a declarator's name.  The corpus derives from the labeled
    # file, so a change there needs a new pin, taken with the validator it
    # last passed on.
    corpus = _edited_corpus()
    verdicts = "".join("1" if validate_statement(TokenizedStatement(toks)) else "0"
                       for toks in corpus)
    assert len(corpus) == 11160
    assert verdicts.count("1") == 1351
    assert hashlib.sha256(verdicts.encode()).hexdigest() == (
        "7b4e8fdd12d0099d0aff8194c9b8d5e43d8674a2782021f18a073bcc10f3826d")
