"""Patch generation on a trained model: NA rules and their precedence,
argument reinsertion, the exact-match baseline, re-thresholding, and
answering a whole query list in one call."""

import dataclasses
import json

import pytest

from patchloom.generation import (
    NA_IDENTICAL,
    NA_INVALID,
    NA_LOW_SCORE,
    NA_NO_MATCH,
    NA_UNTOKENIZABLE,
    BaselineIndex,
    GenerationResult,
    ModelProposer,
    answer_all,
    baseline_suggest,
    generate,
    rethreshold,
    write_results,
)


def run(rule_model, query, threshold=None, **kwargs):
    return generate(query, rule_model.params, rule_model.src_vocab,
                    rule_model.tgt_vocab, threshold=threshold, **kwargs)


def test_learned_rewrite_is_provided(rule_model):
    res = run(rule_model, "return this . width ;")
    assert res.na_reason is None
    assert res.patch is not None
    assert res.patch.tokens.tokens == ("return", "width", ";")
    assert res.valid
    assert res.score is not None and res.score < 0.0
    assert res.source == "model"


def test_arguments_travel_through_the_rewrite(rule_model):
    res = run(rule_model, "cursor . log ( a + b ) ;")
    assert res.patch is not None
    assert res.patch.tokens.tokens == ("cursor", ".", "debug", "(", "a", "+",
                                       "b", ")", ";")
    assert res.unfilled_val_sites == 0


def test_identity_output_is_withheld(rule_model):
    res = run(rule_model, "int cursor = 0 ;")
    assert res.patch is None
    assert res.na_reason == NA_IDENTICAL
    assert res.identical


def test_low_score_na_under_tight_threshold(rule_model):
    # scores are log probabilities, so a threshold of zero rejects all
    res = run(rule_model, "return this . width ;", threshold=0.0)
    assert res.patch is None
    assert res.na_reason == NA_LOW_SCORE
    assert res.score is not None


def test_low_score_takes_precedence_over_identical(rule_model):
    res = run(rule_model, "int cursor = 0 ;", threshold=0.0)
    assert res.na_reason == NA_LOW_SCORE


def test_untokenizable_query(rule_model):
    res = run(rule_model, 'return "unclosed ;')
    assert res.patch is None
    assert res.na_reason == NA_UNTOKENIZABLE
    assert res.score is None


@pytest.mark.parametrize("query", ["", "   ", "// note", "\t// trailing"])
def test_a_query_without_tokens_is_untokenizable_for_model_and_baseline(
        rule_model, query):
    index = BaselineIndex.from_parallel(rule_model.pre_lines,
                                        rule_model.post_lines)
    for res in (run(rule_model, query), baseline_suggest(query, index)):
        assert res.na_reason == NA_UNTOKENIZABLE
        assert res.patch is None and res.score is None


class RecordingProposer:
    source = "model"

    def __init__(self):
        self.calls = []

    def __call__(self, queries_abs):
        self.calls.append(list(queries_abs))
        return [None] * len(queries_abs)


def test_queries_without_tokens_never_reach_the_proposer():
    proposer = RecordingProposer()
    results = answer_all(["", "return this . width ;", "// note",
                          'return "unclosed ;'], proposer, None)
    assert proposer.calls == [[("return", "this", ".", "width", ";")]]
    assert [r.na_reason for r in results] == [
        NA_UNTOKENIZABLE, NA_NO_MATCH, NA_UNTOKENIZABLE, NA_UNTOKENIZABLE]
    assert [r.source for r in results] == ["model"] * 4


def assert_same_answers(got, want):
    """Equal answers; scores within 1e-9, since a source's float64 score
    may move in its last bits with the sources it is decoded beside."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert dataclasses.replace(a, score=None) == dataclasses.replace(b, score=None)
        assert (a.score is None) == (b.score is None)
        if a.score is not None:
            assert a.score == pytest.approx(b.score, abs=1e-9)


def test_a_list_is_answered_as_its_queries_one_at_a_time(rule_model):
    m = rule_model
    queries = RETHRESHOLD_QUERIES + ["", "cursor . log ( a + b ) ;",
                                     'return "unclosed ;', "// note"]
    proposer = ModelProposer(m.params, m.src_vocab, m.tgt_vocab)
    for threshold in THRESHOLDS:
        assert_same_answers(answer_all(queries, proposer, threshold),
                            [run(m, q, threshold=threshold) for q in queries])
    index = BaselineIndex.from_parallel(m.pre_lines, m.post_lines)
    assert_same_answers(answer_all(queries, index, None),
                        [baseline_suggest(q, index) for q in queries])


def test_an_empty_query_list_has_no_answers(rule_model):
    m = rule_model
    assert answer_all([], ModelProposer(m.params, m.src_vocab, m.tgt_vocab),
                      None) == []


def test_default_threshold_accepts_confident_rewrites(rule_model):
    # the trained fixture scores its rules well above the default cut
    res = generate("return this . height ;", rule_model.params,
                   rule_model.src_vocab, rule_model.tgt_vocab)
    assert res.patch is not None
    assert res.score > -0.7


def test_rethreshold_matches_fresh_generation(rule_model):
    loose = run(rule_model, "return this . width ;", threshold=None)
    tight = rethreshold(loose, 0.0)
    assert tight.na_reason == NA_LOW_SCORE
    again = rethreshold(tight, None)
    assert again.na_reason is None
    assert again.patch is not None
    assert again.patch.tokens.tokens == loose.patch.tokens.tokens


def test_rethreshold_preserves_untokenizable(rule_model):
    res = run(rule_model, 'return "unclosed ;')
    assert rethreshold(res, None).na_reason == NA_UNTOKENIZABLE


RETHRESHOLD_QUERIES = ["return this . width ;", "int cursor = 0 ;",
                       "monitor . log ( k ) ;", "return this . queue ;"]
THRESHOLDS = (None, -0.7, -0.05, 0.0)


def test_rethreshold_is_monotonic_in_threshold(rule_model):
    results = [run(rule_model, q) for q in RETHRESHOLD_QUERIES]
    provided_at = []
    for threshold in THRESHOLDS:
        adjusted = [rethreshold(r, threshold) for r in results]
        provided_at.append(sum(1 for r in adjusted if r.patch is not None))
    # tightening the threshold never provides more patches
    assert provided_at == sorted(provided_at, reverse=True)


def test_rethreshold_equals_generating_at_that_threshold(rule_model):
    # sweep re-thresholds one unthresholded run instead of decoding again
    for query in RETHRESHOLD_QUERIES:
        loose = run(rule_model, query)
        for threshold in THRESHOLDS:
            assert rethreshold(loose, threshold) == run(
                rule_model, query, threshold=threshold), (query, threshold)


def test_invalid_concrete_output_is_withheld():
    # finalization logic alone: a decoded but unparseable candidate
    res = GenerationResult(
        query="int a = 0 ;", source="model", score=-0.01,
        concrete_output=("int", "a", "=", ";"),
        valid=False, identical=False, finished=True,
    )
    out = rethreshold(res, None)
    assert out.patch is None
    assert out.na_reason == NA_INVALID


# ---------------------------------------------------------------------------
# baseline

def test_baseline_returns_seen_mapping(rule_model):
    index = BaselineIndex.from_parallel(rule_model.pre_lines,
                                        rule_model.post_lines)
    res = baseline_suggest("return this . width ;", index)
    assert res.source == "baseline"
    assert res.patch is not None
    assert res.patch.tokens.tokens == ("return", "width", ";")


def test_baseline_reinserts_concrete_arguments(rule_model):
    index = BaselineIndex.from_parallel(rule_model.pre_lines,
                                        rule_model.post_lines)
    res = baseline_suggest("monitor . log ( x , y ) ;", index)
    assert res.patch is not None
    assert res.patch.tokens.tokens == ("monitor", ".", "debug", "(", "x", ",",
                                       "y", ")", ";")


def test_baseline_unseen_query_is_na(rule_model):
    index = BaselineIndex.from_parallel(rule_model.pre_lines,
                                        rule_model.post_lines)
    res = baseline_suggest("byte [ ] raw = decode ( s ) ;", index)
    assert res.patch is None
    assert res.na_reason == NA_NO_MATCH


@pytest.mark.parametrize("query", ["return this . width ;",
                                   "byte [ ] raw = decode ( s ) ;"])
def test_baseline_answers_ignore_the_threshold(rule_model, query):
    index = BaselineIndex.from_parallel(rule_model.pre_lines,
                                        rule_model.post_lines)
    res = baseline_suggest(query, index)
    for threshold in THRESHOLDS:
        assert rethreshold(res, threshold) == res, threshold


def test_baseline_identity_mapping_is_withheld():
    index = BaselineIndex.from_parallel([["int", "a", ";"]], [["int", "a", ";"]])
    res = baseline_suggest("int a ;", index)
    assert res.patch is None
    assert res.na_reason == NA_IDENTICAL


def test_baseline_first_mapping_wins():
    index = BaselineIndex.from_parallel(
        [["x", ";"], ["x", ";"]], [["y", ";"], ["z", ";"]])
    assert index.entries[("x", ";")] == ("y", ";")
    assert len(index) == 1


def test_write_results_jsonl(tmp_path, rule_model):
    results = [run(rule_model, "return this . width ;"),
               run(rule_model, 'return "unclosed ;')]
    path = tmp_path / "patches.jsonl"
    write_results(str(path), results)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == 2
    assert rows[0]["patch"] == "return width ;"
    assert rows[0]["na_reason"] is None
    assert rows[1]["patch"] is None
    assert rows[1]["na_reason"] == NA_UNTOKENIZABLE
    assert {"query", "patch", "score", "valid", "na_reason", "source"} <= set(rows[0])
