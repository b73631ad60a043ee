"""Outcome classification and metric computation.

The published per-project count tables live in fixtures/ as CSV; the
driver recomputes precision, recall, and F1 from the raw counts and
checks the printed figures to half a percent.  Rows printed as "--"
have no correct patches and an undefined precision.
"""

import csv
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from patchloom.evaluation import (
    ARG_INCORRECT,
    CORRECT,
    INCORRECT,
    NA,
    EvalReport,
    classify_output,
    compute_metrics,
    evaluate,
    metrics_from_counts,
    render_table,
    sweep_thresholds,
    validity_rate,
    write_report_csv,
    write_report_json,
    write_sweep_csv,
)
from patchloom.generation import GeneratedPatch, GenerationResult, rethreshold
from patchloom.tokenizer import TokenizedStatement, tokenize

from conftest import FIXTURES_DIR


def load_count_rows():
    rows = []
    for table in ("table5.csv", "table8.csv"):
        with open(os.path.join(FIXTURES_DIR, table), encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                rows.append((table, row))
    return rows


COUNT_ROWS = load_count_rows()


@pytest.mark.parametrize(
    "table,row", COUNT_ROWS,
    ids=[f"{t[:-4]}-{r['project']}-{r['variant']}" for t, r in COUNT_ROWS])
def test_published_metrics_recompute_from_counts(table, row):
    correct = int(row["correct"])
    arg_incorrect = int(row["arg_incorrect"])
    incorrect = int(row["incorrect"])
    na = int(row["na"])
    report = metrics_from_counts(correct, arg_incorrect, incorrect, na)
    assert report.n_queries == int(row["n_queries"])
    if row["precision"] == "--":
        assert report.undefined
        assert correct == 0
    else:
        assert abs(report.precision - float(row["precision"])) <= 0.005
        assert abs(report.recall - float(row["recall"])) <= 0.005
        assert abs(report.f1 - float(row["f1"])) <= 0.005


def test_undefined_row_is_the_baseline_without_correct_patches():
    undefined = [(t, r) for t, r in COUNT_ROWS if r["precision"] == "--"]
    assert len(undefined) == 1
    table, row = undefined[0]
    assert table == "table8.csv"
    assert row["project"] == "wicket" and row["variant"] == "baseline"


# ---------------------------------------------------------------------------
# classification

def patch_result(tokens, score=-0.1):
    stmt = TokenizedStatement(tuple(tokens.split()))
    return GenerationResult(query="q", source="model", score=score,
                            patch=GeneratedPatch(tokens=stmt))


def test_classify_exact_match():
    ref = tokenize("return width ;")
    assert classify_output(patch_result("return width ;"), ref) == CORRECT


def test_classify_argument_mismatch():
    ref = tokenize("log . warn ( msg , cause ) ;")
    got = patch_result("log . warn ( msg ) ;")
    assert classify_output(got, ref) == ARG_INCORRECT


def test_classify_structural_mismatch():
    ref = tokenize("return width ;")
    assert classify_output(patch_result("return height ;"), ref) == INCORRECT


def test_classify_withheld():
    res = GenerationResult(query="q", source="model", na_reason="low-score")
    assert classify_output(res, tokenize("return width ;")) == NA


def test_classify_unabstractable_patch_is_incorrect():
    ref = tokenize("run ( a ) ;")
    broken = patch_result("run ( a ;")
    assert classify_output(broken, ref) == INCORRECT


# ---------------------------------------------------------------------------
# metric identities

@given(correct=st.integers(0, 50), arg_incorrect=st.integers(0, 50),
       incorrect=st.integers(0, 50), na=st.integers(0, 50))
@settings(max_examples=300, deadline=None)
def test_metric_bounds_and_identities(correct, arg_incorrect, incorrect, na):
    rep = metrics_from_counts(correct, arg_incorrect, incorrect, na)
    assert 0.0 <= rep.precision <= 1.0
    assert 0.0 <= rep.recall <= 1.0
    assert 0.0 <= rep.f1 <= 1.0
    assert rep.precision >= rep.recall  # provided <= n_queries
    assert rep.undefined == (correct == 0)
    assert rep.provided == correct + arg_incorrect + incorrect
    if rep.precision + rep.recall > 0:
        want = 2 * rep.precision * rep.recall / (rep.precision + rep.recall)
        assert rep.f1 == pytest.approx(want)
    else:
        assert rep.f1 == 0.0


def test_compute_metrics_counts_outcomes():
    outcomes = [CORRECT, CORRECT, ARG_INCORRECT, INCORRECT, NA, NA]
    rep = compute_metrics(outcomes)
    assert (rep.correct, rep.arg_incorrect, rep.incorrect, rep.na) == (2, 1, 1, 2)
    assert rep.precision == pytest.approx(2 / 4)
    assert rep.recall == pytest.approx(2 / 6)


# ---------------------------------------------------------------------------
# evaluate with filters

def _battery():
    results = [
        patch_result("return width ;"),        # correct
        patch_result("return height ;"),       # incorrect vs reference
        GenerationResult(query="q3", source="model", na_reason="low-score"),
        patch_result("return depth ;"),        # correct
    ]
    references = [tokenize("return width ;"), tokenize("return total ;"),
                  tokenize("return limit ;"), tokenize("return depth ;")]
    categories = ["NU", "UQ", "NU", "NU"]
    bugfix = [True, False, False, True]
    return results, references, categories, bugfix


def test_evaluate_unfiltered():
    results, references, _, _ = _battery()
    rep = evaluate(results, references)
    assert (rep.correct, rep.incorrect, rep.na) == (2, 1, 1)
    assert rep.n_queries == 4


def test_evaluate_category_filter():
    results, references, categories, _ = _battery()
    rep = evaluate(results, references, categories=categories,
                   category_filter="NU")
    assert rep.n_queries == 3
    assert rep.correct == 2 and rep.incorrect == 0 and rep.na == 1
    assert rep.category_filter == "NU"


def test_evaluate_bugfix_filter():
    results, references, categories, bugfix = _battery()
    rep = evaluate(results, references, categories=categories,
                   bugfix_flags=bugfix, bugfix_filter="bugfix")
    assert rep.n_queries == 2
    assert rep.correct == 2
    rep_other = evaluate(results, references, bugfix_flags=bugfix,
                         bugfix_filter="nonbugfix")
    assert rep_other.n_queries == 2
    assert rep_other.correct == 0


def test_evaluate_length_mismatch_raises():
    results, references, _, _ = _battery()
    with pytest.raises(ValueError):
        evaluate(results, references[:-1])


# ---------------------------------------------------------------------------
# sweeping and validity

def scored_result(text, score, identical=False):
    tokens = tuple(text.split())
    return GenerationResult(
        query=text, source="model", score=score,
        concrete_output=tokens, valid=True, identical=identical, finished=True,
    )


def test_sweep_recomputes_each_threshold():
    results = [scored_result("return width ;", -0.2),
               scored_result("return depth ;", -0.6),
               scored_result("return limit ;", -1.1)]
    references = [tokenize("return width ;"), tokenize("return depth ;"),
                  tokenize("return limit ;")]
    sweep = sweep_thresholds(results, references,
                             thresholds=[-1.2, -0.7, -0.4, -0.1])
    by_threshold = {t: rep for t, rep in sweep}
    assert by_threshold[-1.2].correct == 3
    assert by_threshold[-0.7].correct == 2
    assert by_threshold[-0.4].correct == 1
    assert by_threshold[-0.1].correct == 0
    # oracle: each report equals an independent rethreshold + evaluate
    for threshold, rep in sweep:
        redone = evaluate([rethreshold(r, threshold) for r in results],
                          references, threshold=threshold)
        assert rep.as_dict() == redone.as_dict()
    nas = [rep.na for _, rep in sorted(sweep, key=lambda x: x[0])]
    assert nas == sorted(nas)  # stricter threshold, weakly more NA


def test_validity_rate_recounts():
    results = [scored_result("a ;", -0.1), scored_result("b ;", -0.2)]
    results[1].valid = False
    assert validity_rate(results) == pytest.approx(0.5)
    assert validity_rate([]) == 0.0


# ---------------------------------------------------------------------------
# rendering and writers

def test_render_table_marks_undefined_rows():
    good = metrics_from_counts(3, 1, 1, 2, threshold=-0.7)
    bad = metrics_from_counts(0, 0, 3, 25)
    text = render_table([("jetty", good), ("wicket", bad)])
    lines = text.splitlines()
    assert "project" in lines[0]
    wicket_line = next(l for l in lines if l.startswith("wicket"))
    assert "--" in wicket_line
    jetty_line = next(l for l in lines if l.startswith("jetty"))
    assert "--" not in jetty_line
    assert "-0.7" in jetty_line


def test_report_writers_round_trip(tmp_path):
    rows = [("camel", metrics_from_counts(26, 2, 2, 12, threshold=-0.7))]
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    write_report_csv(str(csv_path), rows)
    write_report_json(str(json_path), rows)

    with open(csv_path, encoding="utf-8") as fh:
        back = list(csv.DictReader(fh))
    assert back[0]["project"] == "camel"
    assert int(back[0]["correct"]) == 26
    assert float(back[0]["precision"]) == pytest.approx(26 / 30, abs=1e-4)

    data = json.loads(json_path.read_text())
    assert data[0]["project"] == "camel"
    assert data[0]["f1"] == pytest.approx(rows[0][1].f1)


def test_sweep_writer(tmp_path):
    sweep = [(-0.7, metrics_from_counts(2, 1, 1, 2, threshold=-0.7))]
    base = metrics_from_counts(1, 1, 1, 3)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(str(path), sweep, base)
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["threshold"] == "-0.7"
    assert float(rows[0]["f1_model"]) == pytest.approx(sweep[0][1].f1, abs=1e-4)
    assert float(rows[0]["f1_baseline"]) == pytest.approx(base.f1, abs=1e-4)
