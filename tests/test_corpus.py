"""Corpus pipeline: hunk filtering, post selection, the chronological
split, rare-token handling, categorization, and the on-disk layout."""

import pytest

from patchloom.arguments import abstract_arguments
from patchloom.corpus import (
    CATEGORY_NU,
    CATEGORY_UQ,
    CATEGORY_UR,
    CorpusError,
    PipelineLedger,
    StatementPair,
    build_pairs,
    categorize,
    drop_identical,
    read_parallel,
    replace_rare,
    select_post_correction,
    split_chronological,
    write_corpus,
)
from patchloom.mining import ChangeHunk
from patchloom.tokenizer import tokenize
from patchloom.vocab import UNK, Vocabulary


def hunk(deleted, added, commit_post="c2", origin="c1", year_pre=2013,
         year_post=2014, scoped=True, path="A.java"):
    return ChangeHunk(
        deleted_lines=tuple(deleted), added_lines=tuple(added),
        file_path=path, commit_post=commit_post, commit_pre_origin=origin,
        year_pre=year_pre, year_post=year_post, method_scoped=scoped,
    )


def pair(pre_text, post_text, commit_post="c2", origin="c1", year_pre=2013,
         year_post=2014, bugfix=False):
    pre_abs, pre_args = abstract_arguments(tokenize(pre_text))
    post_abs, post_args = abstract_arguments(tokenize(post_text))
    return StatementPair(
        pre=pre_abs, post=post_abs, pre_args=pre_args, post_args=post_args,
        commit_pre_origin=origin, commit_post=commit_post,
        year_pre=year_pre, year_post=year_post, bugfix=bugfix,
    )


# ---------------------------------------------------------------------------
# build_pairs

def test_build_pairs_keeps_single_statement_method_scoped_changes():
    pairs = build_pairs([hunk(["return this . height ;"], ["return height ;"])])
    assert len(pairs) == 1
    assert pairs[0].pre.tokens == ("return", "this", ".", "height", ";")
    assert pairs[0].post.tokens == ("return", "height", ";")


def test_build_pairs_abstracts_call_arguments():
    pairs = build_pairs([hunk(["log . warn ( a , b ) ;"],
                              ["log . error ( a , b ) ;"])])
    assert pairs[0].pre.tokens == ("log", ".", "warn", "(", "arg", ")", ";")
    assert pairs[0].concrete_pre.tokens == tokenize("log . warn ( a , b ) ;").tokens
    assert pairs[0].concrete_post.tokens == tokenize("log . error ( a , b ) ;").tokens


def test_build_pairs_filters_and_ledger_counts():
    hunks = [
        hunk(["int kept = 1 ;"], ["int kept = 2 ;"]),            # survives
        hunk([], ["int added = 1 ;"]),                           # add-only
        hunk(["int gone = 1 ;"], []),                            # delete-only
        hunk(["int outside = 1 ;"], ["int outside = 2 ;"], scoped=False),
        hunk(["int a = 1 ;", "int b = 1 ;"], ["int a = 2 ;"]),   # multi-line
        hunk(['bad ( " ;'], ["int ok = 1 ;"]),                   # tokenize fail
        hunk(["i ;"], ["j ;"]),                                  # too short
        hunk(["run ( ( a ;"], ["int ok = 1 ;"]),                 # abstraction fail
        hunk(["} } }"], ["int ok = 1 ;"]),                       # parse fail
    ]
    ledger = PipelineLedger()
    pairs = build_pairs(hunks, ledger=ledger)
    assert len(pairs) == 1
    dropped = {row["step"]: row["dropped"] for row in ledger.rows()}
    assert dropped["delete-only or add-only hunk"] == 2
    assert dropped["outside a single method body"] == 1
    assert dropped["multi-statement change"] == 1
    assert dropped["tokenization failure"] == 1
    assert dropped["shorter than 3 tokens"] == 1
    assert dropped["argument abstraction failure"] == 1
    assert dropped["parse validation failure"] == 1
    assert dropped["surviving"] == 1
    assert ledger.initial == len(hunks)


def test_build_pairs_can_keep_unscoped():
    hunks = [hunk(["int outside = 1 ;"], ["int outside = 2 ;"], scoped=False)]
    assert build_pairs(hunks) == []
    assert len(build_pairs(hunks, require_method_scope=False)) == 1


def test_build_pairs_marks_bugfix_from_fix_commits():
    hunks = [
        hunk(["int a = 1 ;"], ["int a = 2 ;"], commit_post="fix9", origin="bug1"),
        hunk(["int b = 1 ;"], ["int b = 2 ;"], commit_post="c7", origin="c3"),
    ]
    pairs = build_pairs(hunks, fix_commits={"fix9"})
    flags = {p.commit_post: p.bugfix for p in pairs}
    assert flags == {"fix9": True, "c7": False}


# ---------------------------------------------------------------------------
# post selection

def test_select_prefers_latest_year_over_frequency():
    group = [
        pair("int a = 0 ;", "int a = 1 ;", year_post=2013, commit_post="x1"),
        pair("int a = 0 ;", "int a = 1 ;", year_post=2013, commit_post="x2"),
        pair("int a = 0 ;", "int a = 2 ;", year_post=2014, commit_post="x3"),
    ]
    selected = select_post_correction(group)
    assert len(selected) == 1
    assert selected[0].post.tokens == ("int", "a", "=", "2", ";")


def test_select_breaks_year_tie_by_group_frequency():
    group = [
        pair("int a = 0 ;", "int a = 5 ;", year_post=2013, commit_post="x1"),
        pair("int a = 0 ;", "int a = 5 ;", year_post=2014, commit_post="x2"),
        pair("int a = 0 ;", "int a = 9 ;", year_post=2014, commit_post="x3"),
    ]
    selected = select_post_correction(group)
    # both posts exist in 2014; "= 5" appears twice over the group
    assert selected[0].post.tokens == ("int", "a", "=", "5", ";")


def test_select_breaks_full_tie_alphabetically():
    group = [
        pair("int a = 0 ;", "int a = 9 ;", year_post=2014, commit_post="x1"),
        pair("int a = 0 ;", "int a = 5 ;", year_post=2014, commit_post="x2"),
    ]
    selected = select_post_correction(group)
    assert selected[0].post.tokens == ("int", "a", "=", "5", ";")


def test_select_keeps_distinct_pres_apart():
    group = [
        pair("int a = 0 ;", "int a = 1 ;"),
        pair("int b = 0 ;", "int b = 1 ;"),
    ]
    assert len(select_post_correction(group)) == 2


def test_drop_identical():
    pairs = [
        pair("int a = 0 ;", "int a = 0 ;"),
        pair("int b = 0 ;", "int b = 1 ;"),
    ]
    kept = drop_identical(pairs)
    assert len(kept) == 1
    assert kept[0].post.tokens == ("int", "b", "=", "1", ";")


def test_abstraction_can_make_pairs_identical():
    # the sides differ only inside call arguments, so the abstracted
    # forms collapse; such pairs are what drop_identical exists for
    p = pair("run ( a ) ;", "run ( b ) ;")
    assert p.pre.tokens == p.post.tokens
    assert drop_identical([p]) == []


# ---------------------------------------------------------------------------
# rare tokens and categories

def test_replace_rare_substitutes_singletons_per_side():
    pairs = [
        pair("int shared = zebra ;", "int shared = 1 ;"),
        pair("int shared = 2 ;", "int shared = 2 ;"),
    ]
    out = replace_rare(pairs, unk_threshold=1)
    assert "zebra" not in out.src_vocab
    assert UNK in out.pairs[0].pre.tokens
    # "shared" appears twice on each side and survives
    assert "shared" in out.src_vocab and "shared" in out.tgt_vocab
    # the literal 1 is a target-side singleton
    assert "1" not in out.tgt_vocab
    assert UNK in out.pairs[0].post.tokens


def test_categorize_precedence():
    src_vocab = Vocabulary(("int", "a", "=", "0", ";"))
    tgt_vocab = Vocabulary(("int", "a", "=", "1", ";"))
    known = pair("int a = 0 ;", "int a = 1 ;")
    assert categorize(known, src_vocab, tgt_vocab) == CATEGORY_NU
    unknown_ref = pair("int a = 0 ;", "int a = 7 ;")
    assert categorize(unknown_ref, src_vocab, tgt_vocab) == CATEGORY_UR
    unknown_query = pair("int z = 0 ;", "int z = 7 ;")
    # query unknowns win even when the reference is also unknown
    assert categorize(unknown_query, src_vocab, tgt_vocab) == CATEGORY_UQ


# ---------------------------------------------------------------------------
# chronological split

def _split_input():
    return [
        pair("int a = 0 ;", "int a = 1 ;", year_pre=2012, year_post=2013,
             commit_post="t1"),
        pair("int b = 0 ;", "int b = 1 ;", year_pre=2013, year_post=2013,
             commit_post="t2"),
        pair("int c = 0 ;", "int c = 1 ;", year_pre=2014, year_post=2014,
             commit_post="e1"),
        # straddler: introduced before the test year, fixed inside it
        pair("int d = 0 ;", "int d = 1 ;", year_pre=2013, year_post=2014,
             commit_post="s1"),
        # beyond the test year entirely
        pair("int e = 0 ;", "int e = 1 ;", year_pre=2015, year_post=2015,
             commit_post="f1"),
    ]


def test_split_routes_by_year_and_excludes_straddlers():
    ledger = PipelineLedger(initial=5)
    train, test = split_chronological(_split_input(), 2014, unk_threshold=0,
                                      ledger=ledger)
    train_pres = {p.pre.tokens[1] for p in train.pairs}
    assert train_pres == {"a", "b"}
    assert [p.pre.tokens[1] for p in test] == ["c"]
    dropped = {row["step"]: row["dropped"] for row in ledger.rows()}
    assert dropped["straddling or post-test-year"] == 2


def test_split_categorizes_test_pairs():
    train, test = split_chronological(_split_input(), 2014, unk_threshold=0)
    assert all(p.category in (CATEGORY_NU, CATEGORY_UQ, CATEGORY_UR)
               for p in test)
    # "c" never occurs in training, so the query has an unknown token
    assert test[0].category == CATEGORY_UQ


def test_split_post_selection_applies_to_train_only():
    pairs = [
        pair("int a = 0 ;", "int a = 1 ;", year_pre=2013, year_post=2013,
             commit_post="t1"),
        pair("int a = 0 ;", "int a = 2 ;", year_pre=2013, year_post=2013,
             commit_post="t2"),
        pair("int q = 0 ;", "int q = 1 ;", year_pre=2014, year_post=2014,
             commit_post="e1"),
        pair("int q = 0 ;", "int q = 2 ;", year_pre=2014, year_post=2014,
             commit_post="e2"),
    ]
    train, test = split_chronological(pairs, 2014, unk_threshold=0)
    assert len(train.pairs) == 1   # one pre kept once
    assert len(test) == 2          # duplicates allowed on the test side


def test_split_raises_when_a_side_is_empty():
    only_train = [_split_input()[0]]
    with pytest.raises(CorpusError):
        split_chronological(only_train, 2014)
    only_test = [_split_input()[2]]
    with pytest.raises(CorpusError):
        split_chronological(only_test, 2014)


def test_replace_rare_runs_inside_split():
    pairs = [
        pair("int a = 0 ;", "int a = 1 ;", year_pre=2013, year_post=2013,
             commit_post="t1"),
        pair("int b = 0 ;", "int b = 1 ;", year_pre=2013, year_post=2013,
             commit_post="t2"),
        pair("int q = 0 ;", "int q = 1 ;", year_pre=2014, year_post=2014,
             commit_post="e1"),
    ]
    train, _ = split_chronological(pairs, 2014, unk_threshold=1)
    # a and b each occur once in train and collapse to <unk>
    assert "a" not in train.src_vocab
    assert any(UNK in p.pre.tokens for p in train.pairs)


# ---------------------------------------------------------------------------
# on-disk round trip

def test_write_and_read_corpus(tmp_path):
    pairs = [
        pair("int a = 0 ;", "int a = 1 ;", year_pre=2013, year_post=2013,
             commit_post="t1"),
        pair("log . warn ( x ) ;", "log . error ( x ) ;", year_pre=2013,
             year_post=2013, commit_post="t2"),
        pair("reader . close ( a , b ) ;", "writer . close ( a , b ) ;",
             year_pre=2014, year_post=2014, commit_post="e1", bugfix=True),
    ]
    ledger = PipelineLedger(initial=3)
    train, test = split_chronological(pairs, 2014, unk_threshold=0,
                                      ledger=ledger)
    out = tmp_path / "corpus"
    write_corpus(str(out), train, test, ledger=ledger)

    names = {p.name for p in out.iterdir()}
    assert names == {
        "train.src", "train.tgt", "train.meta.tsv",
        "test.src", "test.tgt", "test.meta.tsv",
        "test.queries", "test.refs",
        "vocab.src.json", "vocab.tgt.json", "ledger.json",
    }

    src, tgt = read_parallel(str(out), "train")
    assert src == [list(p.pre.tokens) for p in train.pairs]
    assert tgt == [list(p.post.tokens) for p in train.pairs]

    assert Vocabulary.load(str(out / "vocab.src.json")) == train.src_vocab


def test_read_parallel_length_mismatch_raises(tmp_path):
    (tmp_path / "bad.src").write_text("a b\nc d\n")
    (tmp_path / "bad.tgt").write_text("a b\n")
    with pytest.raises(CorpusError):
        read_parallel(str(tmp_path), "bad")
