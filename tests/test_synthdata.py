"""Synthetic rewrite-rule data: benchmark pairs, the release gate's
harness, and the in-memory repository used for offline pipeline
checks."""

import dataclasses

import numpy as np
import pytest

from patchloom.arguments import abstract_arguments, reinsert_arguments
from patchloom.mining import MiningReport, identify_fix_commits, mine_hunks
from patchloom.parsing import validate_statement
from patchloom.repo import InMemoryRepo
from patchloom.synthdata import (
    GATE_CONFIG,
    RULES,
    make_benchmark,
    make_repo,
    make_rule_pair,
    run_benchmark,
)
from patchloom.tokenizer import tokenize


def rule_of(pre: str):
    """Classify a pre-statement by the documented rule shapes."""
    if pre.startswith("return this . "):
        return "this-removal"
    if " ] = this . " in pre:
        return "index-increment"
    if pre.startswith("List < "):
        return "diamond"
    if " . trace ( " in pre:
        return "log-level"
    if pre.startswith("if ( null != "):
        return "yoda-flip"
    return None


def small_benchmark():
    return make_benchmark(seed=7, n_train=100, n_held_out=20, n_queries=20)


def test_same_seed_same_benchmark():
    a = small_benchmark()
    b = small_benchmark()
    assert a.train_pairs == b.train_pairs
    assert a.held_out == b.held_out
    assert a.queries == b.queries


def test_different_seed_differs():
    a = small_benchmark()
    b = make_benchmark(seed=8, n_train=100, n_held_out=20, n_queries=20)
    assert a.train_pairs != b.train_pairs


@pytest.mark.parametrize("rule", RULES)
def test_rule_pairs_survive_the_statement_pipeline(rule):
    rng = np.random.default_rng(3)
    for _ in range(5):
        pre, post = make_rule_pair(rng, rule)
        assert pre != post
        for side in (pre, post):
            stmt = tokenize(side)
            assert validate_statement(stmt)
            abstracted, table = abstract_arguments(stmt)
            restored = reinsert_arguments(abstracted, table)
            assert restored.tokens == stmt.tokens


def test_unknown_rule_rejected():
    with pytest.raises(ValueError):
        make_rule_pair(np.random.default_rng(0), "tabs-to-spaces")


def test_distractor_fraction_is_exact():
    bench = small_benchmark()
    assert len(bench.train_pairs) == 100
    distractors = [p for p, _ in bench.train_pairs if rule_of(p) is None]
    assert len(distractors) == 10


def test_held_out_is_rule_pairs_covering_every_rule():
    bench = small_benchmark()
    assert len(bench.held_out) == 20
    seen = {rule_of(pre) for pre, _ in bench.held_out}
    assert seen == set(RULES)


def test_novel_queries_are_textually_unseen():
    bench = small_benchmark()
    assert len(bench.queries) == 20
    train_pres = {pre for pre, _ in bench.train_pairs}
    novel = [q for q in bench.queries if q[2]]
    seen = [q for q in bench.queries if not q[2]]
    assert len(novel) == 8  # 40% of 20
    for query, reference, _ in novel:
        assert query not in train_pres
        assert query != reference
    for query, reference, _ in seen:
        assert query in train_pres


def test_repo_commit_chain_is_well_formed():
    snapshot = make_repo(seed=11, n_train_pairs=8, n_test_pairs=4,
                         test_year=2015)
    commits = snapshot["commits"]
    ids = [c["id"] for c in commits]
    assert len(set(ids)) == len(ids)
    assert commits[0]["parents"] == []
    for prev, cur in zip(commits, commits[1:]):
        assert cur["parents"] == [prev["id"]]


def test_repo_mines_single_statement_fixes():
    snapshot = make_repo(seed=11, n_train_pairs=8, n_test_pairs=4,
                         test_year=2015)
    repo = InMemoryRepo(snapshot["commits"])
    report = MiningReport()
    hunks = list(mine_hunks(repo, report=report))

    changes = [h for h in hunks if h.deleted_lines and h.added_lines]
    # 8 training fixes, 4 test-year fixes, 3 straddlers
    assert len(changes) == 15
    for hunk in changes:
        assert len(hunk.deleted_lines) == 1
        assert len(hunk.added_lines) == 1
        assert hunk.method_scoped
        assert rule_of(hunk.deleted_lines[0]) is not None

    test_year = [h for h in changes if h.year_post == 2015]
    assert len(test_year) == 7  # 4 test pairs + 3 straddlers
    straddlers = [h for h in test_year if h.year_pre < 2015]
    assert len(straddlers) == 3

    delete_only = [h for h in hunks if not h.added_lines]
    assert len(delete_only) == 1

    fix_ids = identify_fix_commits(repo.commits())
    assert len(fix_ids) == 15
    assert {h.commit_post for h in changes} <= fix_ids


def test_repo_is_deterministic():
    a = make_repo(seed=11, n_train_pairs=6, n_test_pairs=3)
    b = make_repo(seed=11, n_train_pairs=6, n_test_pairs=3)
    assert a == b


def test_run_benchmark_is_deterministic():
    # the release gate's harness at a size that runs in seconds
    bench = make_benchmark(n_train=100, n_held_out=20, n_queries=20)
    config = dataclasses.replace(GATE_CONFIG, max_epochs=1, hidden_size=8)
    first, second = run_benchmark(bench, config), run_benchmark(bench, config)
    assert (first.hits, first.total) == (second.hits, second.total)
    assert first.total == 20
    assert first.model_report == second.model_report
    assert first.baseline_report == second.baseline_report
    for run in (first, second):
        assert run.model_report.n_queries == run.baseline_report.n_queries == 20
        assert run.model_report.threshold == -0.7
