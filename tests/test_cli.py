"""Command-line wiring, exercised in process through main().

The pipeline test drives mine, build-corpus, train, generate, baseline,
evaluate, and sweep against a deterministic in-memory repository; the
model is deliberately undertrained since only the plumbing is under
test here.
"""

import csv
import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

import patchloom
from patchloom import cli
from patchloom.cli import main
from patchloom.model import LexiconTable, ModelParameters
from patchloom.modelio import load_model, save_model
from patchloom.synthdata import make_repo
from patchloom.vocab import RESERVED, Vocabulary

from conftest import FIXTURES_DIR


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_counts_mode_renders_fixture_table(capsys):
    table = os.path.join(FIXTURES_DIR, "table5.csv")
    assert main(["evaluate", "--counts", table]) == 0
    out = capsys.readouterr().out
    for project in ("ambari", "camel", "hadoop", "jetty", "wicket"):
        assert project in out


def test_missing_input_exits_1(tmp_path):
    rc = main(["baseline", "--corpus", str(tmp_path / "nowhere"),
               "--query-file", str(tmp_path / "queries.txt"),
               "--out", str(tmp_path / "out.jsonl")])
    assert rc == 1


def test_bad_config_exits_2(tmp_path):
    config = tmp_path / "run.conf"
    # a key that train does not read fails as loudly as a typo
    for line in ("hiden_size = 32", "threshold = -0.5"):
        config.write_text(line + "\n")
        rc = main(["train", "--corpus", str(tmp_path), "--out",
                   str(tmp_path / "m.bin"), "--config", str(config)])
        assert rc == 2, line


def test_evaluate_without_inputs_exits_1(tmp_path):
    assert main(["evaluate", "--name", "x"]) == 1


def test_version_flag_exits_0():
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


def test_pipeline_end_to_end(tmp_path, capsys):
    repo_path = tmp_path / "repo.json"
    repo_path.write_text(json.dumps(make_repo()))
    hunks = tmp_path / "hunks.jsonl"
    corpus = tmp_path / "corpus"
    model = tmp_path / "model.bin"

    assert main(["mine", "--repo", str(repo_path), "--out", str(hunks)]) == 0
    hunk_lines = hunks.read_text().splitlines()
    assert len(hunk_lines) > 40

    assert main(["build-corpus", "--repo", str(repo_path),
                 "--hunks", str(hunks), "--test-year", "2015",
                 "--out", str(corpus), "--unk-threshold", "0"]) == 0
    produced = sorted(os.listdir(corpus))
    for name in ("train.src", "train.tgt", "test.queries", "test.refs",
                 "test.meta.tsv", "vocab.src.json", "vocab.tgt.json",
                 "ledger.json"):
        assert name in produced
    n_queries = len((corpus / "test.queries").read_text().splitlines())
    assert n_queries == 12

    assert main(["train", "--corpus", str(corpus), "--out", str(model),
                 "--hidden-size", "32", "--embed-size", "16",
                 "--max-epochs", "2", "--seed", "1"]) == 0
    assert model.stat().st_size > 0

    gen = tmp_path / "gen.jsonl"
    assert main(["generate", "--model", str(model),
                 "--query-file", str(corpus / "test.queries"),
                 "--out", str(gen), "--no-threshold"]) == 0
    gen_rows = [json.loads(line) for line in gen.read_text().splitlines()]
    assert len(gen_rows) == n_queries
    assert set(gen_rows[0]) == {"query", "patch", "score", "valid",
                                "na_reason", "source"}

    base = tmp_path / "base.jsonl"
    assert main(["baseline", "--corpus", str(corpus),
                 "--query-file", str(corpus / "test.queries"),
                 "--out", str(base)]) == 0
    base_rows = [json.loads(line) for line in base.read_text().splitlines()]
    assert len(base_rows) == n_queries
    assert all(row["source"] == "baseline" for row in base_rows)

    report = tmp_path / "report.csv"
    assert main(["evaluate", "--patches", str(gen),
                 "--refs", str(corpus / "test.refs"),
                 "--meta", str(corpus / "test.meta.tsv"),
                 "--name", "synth", "--out", str(report)]) == 0
    assert "synth" in capsys.readouterr().out
    with open(report, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["project"] == "synth"
    assert (tmp_path / "report.json").exists()

    sweep = tmp_path / "sweep.csv"
    assert main(["sweep", "--model", str(model), "--corpus", str(corpus),
                 "--out", str(sweep),
                 "--thresholds", "-0.7", "-0.1"]) == 0
    with open(sweep, encoding="utf-8") as fh:
        sweep_rows = list(csv.DictReader(fh))
    assert [row["threshold"] for row in sweep_rows] == ["-0.7", "-0.1"]
    assert all(row["f1_baseline"] for row in sweep_rows)


def test_evaluate_category_flag(tmp_path, capsys):
    # category filtering flows through to the report row
    gen = tmp_path / "gen.jsonl"
    gen.write_text(json.dumps({
        "query": "return this . x ;", "patch": "return x ;",
        "score": -0.1, "valid": True, "na_reason": None,
        "source": "model"}) + "\n")
    refs = tmp_path / "refs.txt"
    refs.write_text("return x ;\n")
    meta = tmp_path / "meta.tsv"
    meta.write_text("category\tbugfix\nUQ\t1\n")
    assert main(["evaluate", "--patches", str(gen), "--refs", str(refs),
                 "--meta", str(meta), "--category", "NU",
                 "--name", "filtered"]) == 0
    out = capsys.readouterr().out
    # the single UQ query is filtered out, leaving an empty battery
    line = next(l for l in out.splitlines() if l.startswith("filtered"))
    assert " 0 " in line


def _cli_in_subprocess(argv):
    """Run the CLI as its own process, so stderr holds whatever the
    command prints, tracebacks included."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(patchloom.__file__)))
    return subprocess.run([sys.executable, "-m", "patchloom.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def _generate_in_subprocess(tmp_path, model_path):
    queries = tmp_path / "queries.txt"
    queries.write_text("int a = b ;\n")
    return _cli_in_subprocess(["generate", "--model", str(model_path), "--query-file",
                               str(queries), "--out", str(tmp_path / "out.jsonl")])


def test_train_at_lex_weight_zero_builds_no_lexicon(tmp_path, monkeypatch):
    # the model never reads a lexicon at lex_weight 0, so train skips the EM
    def refuse(pairs):
        raise AssertionError("build_lexicon called at lex_weight 0")

    monkeypatch.setattr(cli, "build_lexicon", refuse)
    src = ["int a = b ;", "return a ;", "a = b ;", "return b ;"]
    tgt = ["int a = c ;", "return c ;", "a = c ;", "return a ;"]
    (tmp_path / "train.src").write_text("\n".join(src) + "\n")
    (tmp_path / "train.tgt").write_text("\n".join(tgt) + "\n")
    for side, lines in (("src", src), ("tgt", tgt)):
        tokens = dict.fromkeys(t for line in lines for t in line.split())
        Vocabulary(tokens).save(str(tmp_path / f"vocab.{side}.json"))
    model = tmp_path / "m.plm"
    assert main(["train", "--corpus", str(tmp_path), "--out", str(model),
                 "--hidden-size", "4", "--embed-size", "3", "--max-epochs", "1",
                 "--lex-weight", "0"]) == 0
    params, _, _ = load_model(str(model))
    assert params.lex_weight == 0.0
    assert params.lexicon is None


def _small_model(path, lexicon):
    params = ModelParameters.initialize(np.random.default_rng(0), 8, 11,
                                        hidden_size=4, embed_size=3)
    params.lexicon = LexiconTable.from_rows(lexicon, 8)
    save_model(str(path), params, Vocabulary(("int", "a", "b")),
               Vocabulary(("int", "a", "b", "=", ";", "c")))


@pytest.mark.parametrize("command", ["generate", "sweep"])
def test_a_loaded_model_is_copied_to_float64_once(tmp_path, monkeypatch, command):
    # load_model reads the float32 file straight into float64, the
    # precision decoding computes in, so decoding copies nothing
    model = tmp_path / "model.plm"
    _small_model(model, {0: {3: 1.0}})
    (tmp_path / "train.src").write_text("int a = b ;\n")
    (tmp_path / "train.tgt").write_text("int a = c ;\n")
    (tmp_path / "test.queries").write_text("int a = b ;\na = b ;\n")
    (tmp_path / "test.refs").write_text("int a = c ;\na = c ;\n")
    loaded, copies = [], []
    monkeypatch.setattr(cli, "load_model", lambda path: (
        loaded.append(load_model(path)), loaded[-1])[-1])
    for method in ("astype", "copy"):
        original = getattr(ModelParameters, method)
        monkeypatch.setattr(ModelParameters, method, lambda self, *args, _m=original: (
            copies.append(_m.__name__), _m(self, *args))[-1])
    argv = {"generate": ["--query-file", str(tmp_path / "test.queries")],
            "sweep": ["--corpus", str(tmp_path)]}[command]
    assert main([command, "--model", str(model), "--max-len", "4",
                 "--out", str(tmp_path / "out")] + argv) == 0
    [(params, _, _)] = loaded
    assert params.flat.dtype == np.float64
    assert copies == []


def test_blank_and_comment_only_query_lines_get_one_answer_each(tmp_path):
    # a line with no tokens is NA untokenizable and never reaches the
    # batch, where an empty source would fail the whole chunk's encode
    model = tmp_path / "model.plm"
    _small_model(model, {})
    (tmp_path / "train.src").write_text("int a = b ;\n")
    (tmp_path / "train.tgt").write_text("int a = c ;\n")
    lines = ["int a = b ;", "", "// note", "a = b ;", "   ", "int a = b ;"]
    queries = tmp_path / "queries.txt"
    queries.write_text("\n".join(lines) + "\n")
    empty = [False, True, True, False, True, False]
    for argv in (["generate", "--model", str(model), "--max-len", "5"],
                 ["baseline", "--corpus", str(tmp_path)]):
        out = tmp_path / f"{argv[0]}.jsonl"
        assert main(argv + ["--query-file", str(queries), "--out", str(out)]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [row["query"] for row in rows] == lines
        assert [row["na_reason"] == "untokenizable" for row in rows] == empty
    assert json.loads((tmp_path / "baseline.jsonl").read_text().splitlines()[0])[
        "patch"] == "int a = c ;"


def test_truncated_model_exits_1_without_traceback(tmp_path):
    model = tmp_path / "model.plm"
    _small_model(model, {})
    model.write_bytes(model.read_bytes()[:100])
    proc = _generate_in_subprocess(tmp_path, model)
    assert proc.returncode == 1
    assert "truncated model file" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_model_with_out_of_vocabulary_lexicon_id_exits_1_without_traceback(tmp_path):
    model = tmp_path / "model.plm"
    _small_model(model, {5: {999: 1.0}})
    proc = _generate_in_subprocess(tmp_path, model)
    assert proc.returncode == 1
    assert "target id 999" in proc.stderr
    assert "Traceback" not in proc.stderr


def _mismatched_corpus(tmp_path):
    (tmp_path / "train.src").write_text("a b\nc d\n")
    (tmp_path / "train.tgt").write_text("a\n")
    return ["train", "--corpus", str(tmp_path), "--out", str(tmp_path / "m.plm")], "train.src"


def _corpus_with_an_empty_source_line(tmp_path):
    (tmp_path / "train.src").write_text("a b\n\n")
    (tmp_path / "train.tgt").write_text("a\nb\n")
    return ["train", "--corpus", str(tmp_path), "--out", str(tmp_path / "m.plm")], "train.src:2"


def _directory_as_config(tmp_path):
    (tmp_path / "run.conf").mkdir()
    return ["train", "--corpus", str(tmp_path), "--out", str(tmp_path / "m.plm"),
            "--config", str(tmp_path / "run.conf")], "run.conf"


def _directory_as_output(tmp_path):
    (tmp_path / "repo.json").write_text(json.dumps({"commits": []}))
    (tmp_path / "hunks.jsonl").mkdir()
    return ["mine", "--repo", str(tmp_path / "repo.json"), "--out",
            str(tmp_path / "hunks.jsonl")], "hunks.jsonl"


def _train_with_source_vocabulary(tmp_path, tokens):
    (tmp_path / "train.src").write_text("a b\n")
    (tmp_path / "train.tgt").write_text("a\n")
    (tmp_path / "vocab.src.json").write_text(json.dumps(tokens))
    Vocabulary(("a",)).save(str(tmp_path / "vocab.tgt.json"))
    return ["train", "--corpus", str(tmp_path), "--out", str(tmp_path / "m.plm"),
            "--hidden-size", "4", "--embed-size", "3", "--max-epochs", "1"], "vocab.src.json"


def _hidden_size_too_large_to_allocate(tmp_path):
    # the parameter buffer would take 568 PiB, so its allocation fails at once
    argv, _ = _train_with_source_vocabulary(tmp_path, list(RESERVED) + ["a", "b"])
    return argv + ["--hidden-size", "100000000"], "out of memory"


def _config_hidden_size_too_large_to_allocate(tmp_path):
    _train_with_source_vocabulary(tmp_path, list(RESERVED) + ["a", "b"])
    (tmp_path / "run.conf").write_text("hidden_size = 100000000\n")
    return ["train", "--corpus", str(tmp_path), "--out", str(tmp_path / "m.plm"),
            "--config", str(tmp_path / "run.conf")], "out of memory"


def _vocabulary_without_reserved_prefix(tmp_path):
    return _train_with_source_vocabulary(tmp_path, ["a", "b"])


def _vocabulary_with_a_numeric_token(tmp_path):
    return _train_with_source_vocabulary(tmp_path, list(RESERVED) + ["a", 5])


def _vocabulary_repeating_a_token(tmp_path):
    return _train_with_source_vocabulary(tmp_path, list(RESERVED) + ["a", "b", "a"])


def _hunk_line_without_fields(tmp_path):
    (tmp_path / "repo.json").write_text(json.dumps({"commits": []}))
    (tmp_path / "hunks.jsonl").write_text('{"bad": 1}\n')
    return ["build-corpus", "--repo", str(tmp_path / "repo.json"), "--hunks",
            str(tmp_path / "hunks.jsonl"), "--test-year", "2015", "--out",
            str(tmp_path / "corpus")], "hunks.jsonl:1"


def _build_corpus_on_hunk(tmp_path, **fields):
    """build-corpus on make_repo's mined hunks, the first one's fields
    replaced by fields."""
    repo, hunks = tmp_path / "repo.json", tmp_path / "hunks.jsonl"
    repo.write_text(json.dumps(make_repo()))
    assert main(["mine", "--repo", str(repo), "--out", str(hunks)]) == 0
    first, *rest = hunks.read_text().splitlines()
    hunks.write_text("\n".join([json.dumps(dict(json.loads(first), **fields))] + rest))
    return ["build-corpus", "--repo", str(repo), "--hunks", str(hunks),
            "--test-year", "2015", "--out", str(tmp_path / "corpus")], "hunks.jsonl:1"


def _hunk_with_a_string_for_deleted_lines(tmp_path):
    return _build_corpus_on_hunk(tmp_path, deleted_lines="abc")


def _hunk_with_a_string_for_method_scoped(tmp_path):
    return _build_corpus_on_hunk(tmp_path, method_scoped="no")


def _hunk_with_a_boolean_year(tmp_path):
    return _build_corpus_on_hunk(tmp_path, year_pre=True)


def _hunk_with_a_numeric_commit_id(tmp_path):
    return _build_corpus_on_hunk(tmp_path, commit_post=2)


def _snapshot_commit_without_time(tmp_path):
    (tmp_path / "repo.json").write_text(json.dumps({"commits": [{"id": 1}]}))
    return ["mine", "--repo", str(tmp_path / "repo.json"), "--out",
            str(tmp_path / "hunks.jsonl")], "repo.json"


def _edited_snapshot(tmp_path, edit):
    """make_repo's snapshot at repo.json, its last commit changed by edit."""
    snapshot = make_repo()
    edit(snapshot["commits"][-1])
    (tmp_path / "repo.json").write_text(json.dumps(snapshot))
    return str(tmp_path / "repo.json")


def _snapshot_file_with_a_numeric_content(tmp_path):
    repo = _edited_snapshot(tmp_path, lambda c: c["files"].update(
        {path: 7 for path in c["files"]}))
    return ["mine", "--repo", repo, "--out", str(tmp_path / "hunks.jsonl")], "repo.json"


def _snapshot_commit_with_a_numeric_message(tmp_path):
    repo = _edited_snapshot(tmp_path, lambda c: c.update(message=7))
    return ["build-corpus", "--repo", repo, "--test-year", "2015",
            "--out", str(tmp_path / "corpus")], "repo.json"


def _snapshot_commit_with_a_boolean_time(tmp_path):
    repo = _edited_snapshot(tmp_path, lambda c: c.update(time=True))
    return ["mine", "--repo", repo, "--out", str(tmp_path / "hunks.jsonl")], "repo.json"


def _snapshot_commit_with_a_time_out_of_range(tmp_path):
    repo = _edited_snapshot(tmp_path, lambda c: c.update(time=1e300))
    return ["mine", "--repo", repo, "--out", str(tmp_path / "hunks.jsonl")], "repo.json"


def _snapshot_commit_with_a_string_for_parents(tmp_path):
    repo = _edited_snapshot(tmp_path, lambda c: c.update(parents=c["parents"][0]))
    return ["mine", "--repo", repo, "--out", str(tmp_path / "hunks.jsonl")], "repo.json"


RESULT = json.dumps({"query": "return this . x ;", "patch": "return x ;",
                     "score": -0.1, "valid": True, "na_reason": None,
                     "source": "model"})


def _evaluate(tmp_path, result_lines, n_refs=None, meta=None):
    (tmp_path / "patches.jsonl").write_text("\n".join(result_lines) + "\n")
    n_refs = len(result_lines) if n_refs is None else n_refs
    (tmp_path / "refs.txt").write_text("return x ;\n" * n_refs)
    argv = ["evaluate", "--patches", str(tmp_path / "patches.jsonl"),
            "--refs", str(tmp_path / "refs.txt")]
    if meta is not None:
        (tmp_path / "meta.tsv").write_text(meta)
        argv += ["--meta", str(tmp_path / "meta.tsv")]
    return argv


def _result_line_without_fields(tmp_path):
    return _evaluate(tmp_path, ['{"x": 1}']), "patches.jsonl:1"


def _result_line_with_a_numeric_query(tmp_path):
    line = json.dumps(dict(json.loads(RESULT), query=3))
    return _evaluate(tmp_path, [RESULT, line]), "patches.jsonl:2"


def _result_line_with_both_patch_and_na_reason(tmp_path):
    line = json.dumps(dict(json.loads(RESULT), na_reason="low-score"))
    return _evaluate(tmp_path, [RESULT, line]), "patches.jsonl:2"


def _result_line_with_neither_patch_nor_na_reason(tmp_path):
    line = json.dumps(dict(json.loads(RESULT), patch=None))
    return _evaluate(tmp_path, [line, RESULT]), "patches.jsonl:1"


def _result_line_with_an_unknown_na_reason(tmp_path):
    line = json.dumps(dict(json.loads(RESULT), patch=None, na_reason="banana"))
    return _evaluate(tmp_path, [RESULT, line]), "patches.jsonl:2"


def _result_line_with_an_unknown_source(tmp_path):
    line = json.dumps(dict(json.loads(RESULT), source="oracle"))
    return _evaluate(tmp_path, [line]), "patches.jsonl:1"


def _result_line_with_an_invalid_patch(tmp_path):
    line = json.dumps(dict(json.loads(RESULT), valid=False))
    return _evaluate(tmp_path, [RESULT, line]), "patches.jsonl:2"


def _empty_meta(tmp_path):
    return _evaluate(tmp_path, [RESULT], meta=""), "meta.tsv"


def _meta_with_fewer_rows_than_results(tmp_path):
    argv = _evaluate(tmp_path, [RESULT, RESULT], meta="category\tbugfix\nUQ\t1\n")
    return argv + ["--category", "NU"], "meta.tsv"


def _meta_row_with_fewer_fields_than_the_header(tmp_path):
    argv = _evaluate(tmp_path, [RESULT, RESULT],
                     meta="category\tbugfix\nUQ\t1\nUQ\n")
    return argv + ["--bugfix-only"], "meta.tsv:3"


def _refs_with_more_lines_than_results(tmp_path):
    return _evaluate(tmp_path, [RESULT], n_refs=2), "refs.txt"


def _counts(tmp_path, text):
    (tmp_path / "counts.csv").write_text(text)
    return ["evaluate", "--counts", str(tmp_path / "counts.csv")]


def _counts_row_with_a_non_integer_count(tmp_path):
    return _counts(tmp_path, "project,correct\nx,abc\n"), "counts.csv:2"


def _counts_row_with_a_negative_count(tmp_path):
    text = "project,correct,arg_incorrect,incorrect,na\nx,-5,0,0,1\n"
    return _counts(tmp_path, text), "counts.csv:2"


def _counts_row_missing_a_column(tmp_path):
    text = "project,correct,arg_incorrect,incorrect,na\nx,1,0,0,1\ny,1,0\n"
    return _counts(tmp_path, text), "counts.csv:3"


@pytest.mark.parametrize("make_case", [
    _mismatched_corpus,
    _corpus_with_an_empty_source_line,
    _directory_as_config,
    _directory_as_output,
    _hidden_size_too_large_to_allocate,
    _config_hidden_size_too_large_to_allocate,
    _vocabulary_without_reserved_prefix,
    _vocabulary_with_a_numeric_token,
    _vocabulary_repeating_a_token,
    _hunk_line_without_fields,
    _hunk_with_a_string_for_deleted_lines,
    _hunk_with_a_string_for_method_scoped,
    _hunk_with_a_boolean_year,
    _hunk_with_a_numeric_commit_id,
    _snapshot_commit_without_time,
    _snapshot_file_with_a_numeric_content,
    _snapshot_commit_with_a_numeric_message,
    _snapshot_commit_with_a_boolean_time,
    _snapshot_commit_with_a_time_out_of_range,
    _snapshot_commit_with_a_string_for_parents,
    _result_line_without_fields,
    _result_line_with_a_numeric_query,
    _result_line_with_both_patch_and_na_reason,
    _result_line_with_neither_patch_nor_na_reason,
    _result_line_with_an_unknown_na_reason,
    _result_line_with_an_unknown_source,
    _result_line_with_an_invalid_patch,
    _empty_meta,
    _meta_with_fewer_rows_than_results,
    _meta_row_with_fewer_fields_than_the_header,
    _refs_with_more_lines_than_results,
    _counts_row_with_a_non_integer_count,
    _counts_row_with_a_negative_count,
    _counts_row_missing_a_column,
])
def test_malformed_input_exits_1_with_one_error_line(tmp_path, caplog, make_case):
    argv, names = make_case(tmp_path)
    assert main(argv) == 1
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1
    assert errors[0].exc_info is None, "logged with a traceback"
    assert names in errors[0].getMessage()


NOT_UTF8 = b"int a = b ;\n\xff\xfe\n"


def _undecodable_query_file(tmp_path):
    _small_model(tmp_path / "model.plm", {})
    return ["generate", "--model", str(tmp_path / "model.plm"), "--query-file",
            str(tmp_path / "queries.txt"), "--out", str(tmp_path / "out.jsonl")], "queries.txt"


def _train_on_corpus(tmp_path):
    (tmp_path / "train.src").write_text("a b\n")
    (tmp_path / "train.tgt").write_text("a\n")
    return ["train", "--corpus", str(tmp_path), "--out", str(tmp_path / "m.plm")]


def _undecodable_train_src(tmp_path):
    return _train_on_corpus(tmp_path), "train.src"


def _undecodable_train_tgt(tmp_path):
    return _train_on_corpus(tmp_path), "train.tgt"


def _undecodable_hunks(tmp_path):
    (tmp_path / "repo.json").write_text(json.dumps({"commits": []}))
    return ["build-corpus", "--repo", str(tmp_path / "repo.json"), "--hunks",
            str(tmp_path / "hunks.jsonl"), "--test-year", "2015", "--out",
            str(tmp_path / "corpus")], "hunks.jsonl"


def _undecodable_patches(tmp_path):
    (tmp_path / "refs.txt").write_text("return x ;\n")
    return ["evaluate", "--patches", str(tmp_path / "patches.jsonl"),
            "--refs", str(tmp_path / "refs.txt")], "patches.jsonl"


def _undecodable_config(tmp_path):
    return ["train", "--corpus", str(tmp_path), "--out", str(tmp_path / "m.plm"),
            "--config", str(tmp_path / "run.conf")], "run.conf"


def _undecodable_counts(tmp_path):
    return ["evaluate", "--counts", str(tmp_path / "counts.csv")], "counts.csv"


@pytest.mark.parametrize("make_case", [
    _undecodable_query_file,
    _undecodable_train_src,
    _undecodable_train_tgt,
    _undecodable_hunks,
    _undecodable_patches,
    _undecodable_config,
    _undecodable_counts,
])
def test_undecodable_input_exits_with_one_error_line(tmp_path, make_case):
    argv, name = make_case(tmp_path)
    (tmp_path / name).write_bytes(NOT_UTF8)
    proc = _cli_in_subprocess(argv)
    assert proc.returncode == (2 if name == "run.conf" else 1)
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if " ERROR " in line]
    assert len(errors) == 1 and name in errors[0], proc.stderr


@pytest.mark.parametrize("command", ["generate", "sweep"])
@pytest.mark.parametrize("flag", ["--beam-size", "--max-len"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_beam_size_and_max_len_below_one_are_usage_errors(tmp_path, capsys, command,
                                                          flag, value):
    argv = [command, "--model", str(tmp_path / "m.plm"), "--out", str(tmp_path / "o"),
            "--query-file" if command == "generate" else "--corpus", str(tmp_path),
            flag, value]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert f"{flag}: must be at least 1" in capsys.readouterr().err
