"""Release gate: one test per headline claim, each with a stated
tolerance and a time budget, reporting a single verdict line.

The verdict lines are echoed after the run by the terminal-summary hook
in conftest so they stay visible even though pytest captures stdout.
The numeric-core check is `patchloom selftest`'s (cli.numeric_checks).
The synthetic-benchmark check runs scripts/run_synthetic_pipeline.py's
harness (synthdata.run_benchmark); it trains a real model and is the
one test marked slow.  Everything else finishes in seconds.
"""

import csv
import json
import os
import time

import numpy as np
import pytest

from patchloom.arguments import abstract_arguments, reinsert_arguments
from patchloom.cli import main, numeric_checks, numeric_failures
from patchloom.evaluation import metrics_from_counts, validity_rate
from patchloom.generation import GenerationResult
from patchloom.linediff import apply_hunks, histogram_diff
from patchloom.mining import MiningReport, mine_hunks
from patchloom.repo import open_repository
from patchloom.synthdata import (
    GATE_CONFIG,
    make_benchmark,
    make_repo,
    run_benchmark,
)
from patchloom.tokenizer import tokenize

from conftest import ACCEPTANCE_LINES, DATA_DIR, FIXTURES_DIR, load_tagged


def _report(label: str, status: str, detail: str) -> None:
    line = f"{label}: {status} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)


# ---------------------------------------------------------------------------
# published per-project count tables reproduce their printed metrics

def test_reported_count_tables_reproduce_metrics_within_tolerance():
    started = time.monotonic()
    checked = 0
    worst = 0.0
    undefined_rows = []
    for table in ("table5.csv", "table8.csv"):
        with open(os.path.join(FIXTURES_DIR, table), encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                rep = metrics_from_counts(
                    int(row["correct"]), int(row["arg_incorrect"]),
                    int(row["incorrect"]), int(row["na"]))
                assert rep.n_queries == int(row["n_queries"])
                if row["precision"] == "--":
                    undefined_rows.append((table, row["project"], row["variant"]))
                    assert rep.undefined
                    continue
                for key, got in (("precision", rep.precision),
                                 ("recall", rep.recall), ("f1", rep.f1)):
                    gap = abs(got - float(row[key]))
                    worst = max(worst, gap)
                checked += 1
    elapsed = time.monotonic() - started
    ok = worst <= 0.005 and undefined_rows == [("table8.csv", "wicket", "baseline")] and elapsed < 1.0
    _report("published count tables", "PASS" if ok else "FAIL",
            f"{checked} rows within {worst:.4f} of print, "
            f"{len(undefined_rows)} undefined, {elapsed:.2f}s")
    assert worst <= 0.005
    assert undefined_rows == [("table8.csv", "wicket", "baseline")]
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# validity fraction over a battery of generation results

def test_reported_validity_fraction_reproduces():
    started = time.monotonic()
    results = []
    for i in range(233):
        results.append(GenerationResult(
            query=f"q{i} ;", source="model", valid=(i < 230)))
    rate = validity_rate(results)
    elapsed = time.monotonic() - started
    ok = round(rate, 3) == 0.987 and abs(rate - 230 / 233) < 1e-12 and elapsed < 1.0
    _report("validity fraction", "PASS" if ok else "FAIL",
            f"230/233 = {rate:.4f} rounds to {round(rate, 3)}, {elapsed:.2f}s")
    assert round(rate, 3) == 0.987
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# numeric core: gradients, normalization, exact beam search

def test_numeric_core_gradient_distribution_and_beam_guarantees():
    started = time.monotonic()
    checks = numeric_checks()
    failures = numeric_failures(checks)
    elapsed = time.monotonic() - started
    _report("numeric core", "PASS" if not failures and elapsed < 30 else "FAIL",
            ", ".join(f"{name} {value:.2e}" for name, value in checks.items())
            + f", {elapsed:.1f}s")
    assert not failures, checks
    assert elapsed < 30


# ---------------------------------------------------------------------------
# synthetic rewrite benchmark: learned model against the exact-match baseline

@pytest.mark.slow
def test_synthetic_benchmark_training_meets_exact_match_and_beats_baseline():
    run = run_benchmark(make_benchmark(), GATE_CONFIG)
    # passed: held-out exact match >= GATE_MIN_EXACT, model F1 > baseline F1
    ok = not run.logbook.aborted and run.passed and run.seconds < 900
    detail = (f"held-out exact {run.hits}/{run.total}, query F1 "
              f"{run.model_report.f1:.4f} vs baseline {run.baseline_report.f1:.4f}, "
              f"train {run.train_seconds:.0f}s, total {run.seconds:.0f}s")
    _report("synthetic rewrite benchmark", "PASS" if ok else "FAIL", detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# structural round trips and a byte-identical rerun

def _run_pipeline(base) -> dict[str, bytes]:
    base.mkdir()
    repo_path = base / "repo.json"
    repo_path.write_text(json.dumps(make_repo()))
    corpus = base / "corpus"
    assert main(["mine", "--repo", str(repo_path),
                 "--out", str(base / "hunks.jsonl")]) == 0
    assert main(["build-corpus", "--repo", str(repo_path),
                 "--hunks", str(base / "hunks.jsonl"),
                 "--test-year", "2015", "--out", str(corpus),
                 "--unk-threshold", "0"]) == 0
    assert main(["train", "--corpus", str(corpus),
                 "--out", str(base / "model.bin"),
                 "--hidden-size", "24", "--embed-size", "12",
                 "--max-epochs", "2", "--seed", "1"]) == 0
    assert main(["generate", "--model", str(base / "model.bin"),
                 "--query-file", str(corpus / "test.queries"),
                 "--out", str(base / "gen.jsonl"), "--no-threshold"]) == 0
    artifacts = {}
    for path in sorted(base.rglob("*")):
        if path.is_file() and path.name != "repo.json":
            artifacts[str(path.relative_to(base))] = path.read_bytes()
    # the training log records wall-clock seconds per epoch, so it is
    # compared structurally with timing stripped rather than byte-wise
    log = json.loads(artifacts.pop("model.bin.log.json"))
    for epoch in log["epochs"]:
        epoch.pop("seconds")
    return artifacts, log


def test_pipeline_round_trips_and_seeded_rerun_determinism(tmp_path, monkeypatch):
    monkeypatch.delenv("PATCHLOOM_SEED", raising=False)
    started = time.monotonic()

    rng = np.random.default_rng(42)
    alphabet = [f"stmt_{i} ;" for i in range(12)]
    doc = [alphabet[int(rng.integers(12))] for _ in range(40)]
    diffs = 0
    for _ in range(1000):
        new = list(doc)
        op = int(rng.integers(3))
        if op == 0 or not new:
            new.insert(int(rng.integers(len(new) + 1)),
                       alphabet[int(rng.integers(12))])
        elif op == 1:
            del new[int(rng.integers(len(new)))]
        else:
            new[int(rng.integers(len(new)))] = alphabet[int(rng.integers(12))]
        hunks = histogram_diff(doc, new)
        assert apply_hunks(doc, new, hunks) == new
        doc = new
        diffs += 1

    valid_lines = [payload for tag, payload in
                   load_tagged(os.path.join(DATA_DIR, "statements_labeled.txt"))
                   if tag == "VALID"]
    assert len(valid_lines) >= 200
    for line in valid_lines:
        stmt = tokenize(line)
        abstracted, table = abstract_arguments(stmt)
        assert reinsert_arguments(abstracted, table).tokens == stmt.tokens

    first, first_log = _run_pipeline(tmp_path / "a")
    second, second_log = _run_pipeline(tmp_path / "b")
    same_files = first.keys() == second.keys()
    mismatched = [name for name in first if first.get(name) != second.get(name)]
    if first_log != second_log:
        mismatched.append("model.bin.log.json")
    elapsed = time.monotonic() - started

    ok = (diffs == 1000 and same_files and not mismatched and elapsed < 60)
    _report("pipeline round trips", "PASS" if ok else "FAIL",
            f"{diffs} diff round trips, {len(valid_lines)} statement "
            f"identities, rerun {'byte-identical' if not mismatched else 'DIFFERS: ' + ','.join(mismatched)} "
            f"over {len(first)} artifacts, {elapsed:.1f}s")
    assert same_files
    assert not mismatched, f"artifacts differ between identical runs: {mismatched}"
    assert elapsed < 60


# ---------------------------------------------------------------------------
# optional check against locally provided repository data

def test_external_dataset_smoke_requires_opt_in_env():
    root = os.environ.get("PATCHLOOM_DATASET_DIR")
    if not root:
        _report("external dataset mining", "SKIP",
                "PATCHLOOM_DATASET_DIR not set; nothing is downloaded")
        pytest.skip("set PATCHLOOM_DATASET_DIR to a directory of repository "
                    "snapshots or git checkouts to run this check")
    assert os.path.isdir(root), f"PATCHLOOM_DATASET_DIR={root!r} is not a directory"
    sources = []
    for entry in sorted(os.listdir(root)):
        full = os.path.join(root, entry)
        if entry.endswith(".json") or os.path.isdir(full):
            sources.append(full)
    assert sources, f"no repository sources under {root!r}"
    mined = 0
    commits = 0
    for path in sources:
        repo = open_repository(path)
        report = MiningReport()
        list(mine_hunks(repo, report=report))
        assert report.commits_seen > 0, f"{path} yielded no commits"
        mined += report.hunks_emitted
        commits += report.commits_seen
    _report("external dataset mining", "PASS",
            f"{len(sources)} sources, {commits} commits, {mined} hunks")
