"""Command-line pipeline orchestration.

Subcommands: mine, build-corpus, train, generate, evaluate, baseline,
sweep, selftest.  Stages communicate only through documented files
(hunks.jsonl, the corpus directory, the PLM1 model file,
patches.jsonl, report CSV/JSON).  Logging goes to stderr; data goes to
files or stdout.  Exit codes: 0 success, 1 domain errors (missing
inputs, failed checks), 2 usage/config errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import sys
import time

import numpy as np

from . import __version__
from .config import ConfigError, load_config
from .corpus import (
    CorpusError,
    PipelineLedger,
    build_pairs,
    read_parallel,
    split_chronological,
    write_corpus,
)
from .decoding import Decoder, beam_search, exhaustive_search
from .evaluation import (
    DEFAULT_SWEEP,
    evaluate as evaluate_results,
    metrics_from_counts,
    render_table,
    sweep_thresholds,
    validity_rate,
    write_report_csv,
    write_report_json,
    write_sweep_csv,
)
from .generation import (
    BaselineIndex,
    ModelProposer,
    ResultFormatError,
    answer_all,
    read_results,
    write_results,
)
# perfbench/spans.py traces these names here; the subcommands answer
# through answer_all
from .generation import baseline_suggest, generate as generate_patch  # noqa: F401
from .lexicon import build_lexicon, lexicon_to_ids
from .mining import (HunkFormatError, MiningReport, identify_fix_commits,
                     mine_hunks, read_hunks, write_hunks)
from .model import LexiconTable, ModelParameters
from .modelio import ModelFormatError, load_model, save_model
from .repo import RepositoryError, open_repository
from .tokenizer import TokenizedStatement
from .training import gradient_check, train as train_model
from .vocab import BOS_ID, EOS_ID, Vocabulary, VocabularyError

log = logging.getLogger("patchloom")


class CliError(RuntimeError):
    """Domain error: maps to exit code 1."""


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise CliError(f"{path}: not UTF-8 text ({exc})") from None


def positive_int(text: str) -> int:
    """argparse type for --beam-size and --max-len: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


# ---------------------------------------------------------------------------
# subcommands

def cmd_mine(args: argparse.Namespace) -> int:
    report = MiningReport()
    started = time.monotonic()
    with open_repository(args.repo) as repo:
        hunks = list(mine_hunks(repo, since=args.since, until=args.until,
                                report=report))
    count = write_hunks(args.out, hunks)
    log.info("mine: %d commits, %d hunks -> %s (%.1fs) %s",
             report.commits_seen, count, args.out,
             time.monotonic() - started, report.as_dict())
    return 0


def cmd_build_corpus(args: argparse.Namespace) -> int:
    with open_repository(args.repo) as repo:
        hunks = read_hunks(args.hunks) if args.hunks else list(mine_hunks(repo))
        fix_ids = identify_fix_commits(repo.commits())
    ledger = PipelineLedger()
    pairs = build_pairs(hunks, fix_ids,
                        require_method_scope=not args.keep_unscoped,
                        ledger=ledger)
    train, test = split_chronological(
        pairs, args.test_year, unk_threshold=args.unk_threshold, ledger=ledger)
    write_corpus(args.out, train, test, ledger=ledger)
    log.info("build-corpus: %d train pairs, %d test pairs -> %s",
             len(train.pairs), len(test), args.out)
    for row in ledger.rows():
        log.info("build-corpus ledger: %-36s %6d  %5.1f%%",
                 row["step"], row["dropped"], row["pct"])
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = load_config(args.config, {k: getattr(args, k) for k in (
        "seed", "hidden_size", "embed_size", "max_epochs", "learning_rate",
        "dropout", "minibatch_words", "lex_weight")})
    src_lines, tgt_lines = read_parallel(args.corpus, "train")
    src_vocab = Vocabulary.load(os.path.join(args.corpus, "vocab.src.json"))
    tgt_vocab = Vocabulary.load(os.path.join(args.corpus, "vocab.tgt.json"))
    token_pairs = list(zip(src_lines, tgt_lines))
    # at lex_weight 0 the model never reads a lexicon, so none is built
    lexicon = (lexicon_to_ids(build_lexicon(token_pairs), src_vocab, tgt_vocab)
               if config.lex_weight > 0.0 else None)
    encoded = [
        (src_vocab.encode(src), tgt_vocab.encode(tgt, eos=True))
        for src, tgt in token_pairs
    ]
    started = time.monotonic()
    params, logbook = train_model(
        encoded, len(src_vocab), len(tgt_vocab), config,
        lexicon=lexicon)
    save_model(args.out, params, src_vocab, tgt_vocab)
    log.info("train: %d pairs, best dev loss %.4f at epoch %d (%.1fs) -> %s",
             len(encoded), logbook.best_dev_loss, logbook.best_epoch,
             time.monotonic() - started, args.out)
    with open(args.out + ".log.json", "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(logbook), fh, indent=2)
    if logbook.aborted:
        log.error("train: aborted on non-finite loss; saved last good snapshot")
        return 1
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    params, src_vocab, tgt_vocab = load_model(args.model)
    queries = _read_lines(args.query_file)
    threshold = None if args.no_threshold else args.threshold
    started = time.monotonic()
    results = answer_all(queries, ModelProposer(
        params, src_vocab, tgt_vocab, args.beam_size, args.max_len), threshold)
    write_results(args.out, results)
    n_provided = sum(1 for r in results if r.patch is not None)
    unfilled = sum(r.unfilled_val_sites for r in results)
    log.info("generate: %d queries, %d provided, validity %.3f, "
             "%d unfilled val sites (%.1fs) -> %s",
             len(queries), n_provided, validity_rate(results), unfilled,
             time.monotonic() - started, args.out)
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    src_lines, tgt_lines = read_parallel(args.corpus, "train")
    index = BaselineIndex.from_parallel(src_lines, tgt_lines)
    queries = _read_lines(args.query_file)
    results = answer_all(queries, index, threshold=None)
    write_results(args.out, results)
    n_provided = sum(1 for r in results if r.patch is not None)
    log.info("baseline: %d queries, %d matched -> %s",
             len(queries), n_provided, args.out)
    return 0


def _load_meta(path: str) -> tuple[list[str], list[bool]]:
    lines = _read_lines(path)
    if not lines:
        raise CliError(f"{path}: empty metadata file, expected a header row")
    header = lines[0].split("\t")
    categories, bugfix = [], []
    for lineno, line in enumerate(lines[1:], 2):
        fields = line.split("\t")
        if len(fields) != len(header):
            raise CliError(f"{path}:{lineno}: {len(fields)} fields, the header has {len(header)}")
        row = dict(zip(header, fields))
        categories.append(row.get("category", "all"))
        bugfix.append(row.get("bugfix") == "1")
    return categories, bugfix


def cmd_evaluate(args: argparse.Namespace) -> int:
    if args.counts:
        rows = []
        reader = csv.DictReader(_read_lines(args.counts))
        for record in reader:
            try:
                counts = [int(record[key]) for key in
                          ("correct", "arg_incorrect", "incorrect", "na")]
                if min(counts) < 0:
                    raise ValueError(f"negative count {min(counts)}")
                project = record["project"]
            except (KeyError, TypeError, ValueError) as exc:
                raise CliError(f"{args.counts}:{reader.line_num}: not a "
                               f"counts row ({exc!r})") from None
            rows.append((project, metrics_from_counts(
                *counts, category_filter=record.get("variant", "all"))))
        print(render_table(rows))
        return 0
    if not (args.patches and args.refs):
        raise CliError("evaluate needs either --counts or --patches/--refs")
    results = read_results(args.patches)
    refs = [TokenizedStatement(tuple(line.split()))
            for line in _read_lines(args.refs)]
    if len(refs) != len(results):
        raise CliError(f"{args.refs} has {len(refs)} references for "
                       f"{len(results)} results in {args.patches}")
    categories = bugfix = None
    if args.meta:
        categories, bugfix = _load_meta(args.meta)
        if len(categories) != len(results):
            raise CliError(f"{args.meta} has {len(categories)} rows for "
                           f"{len(results)} results in {args.patches}")
    report = evaluate_results(
        results, refs, categories, bugfix,
        category_filter=args.category,
        bugfix_filter="bugfix" if args.bugfix_only else "all",
        threshold=args.threshold)
    rows = [(args.name, report)]
    print(render_table(rows))
    if args.out:
        write_report_csv(args.out, rows)
        write_report_json(os.path.splitext(args.out)[0] + ".json", rows)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    params, src_vocab, tgt_vocab = load_model(args.model)
    queries = _read_lines(os.path.join(args.corpus, "test.queries"))
    ref_lines = _read_lines(os.path.join(args.corpus, "test.refs"))
    refs = [TokenizedStatement(tuple(line.split())) for line in ref_lines]
    results = answer_all(queries, ModelProposer(
        params, src_vocab, tgt_vocab, args.beam_size, args.max_len), threshold=None)
    src_lines, tgt_lines = read_parallel(args.corpus, "train")
    index = BaselineIndex.from_parallel(src_lines, tgt_lines)
    base_results = answer_all(queries, index, threshold=None)
    base_report = evaluate_results(base_results, refs)
    sweep = sweep_thresholds(results, refs, thresholds=args.thresholds)
    write_sweep_csv(args.out, sweep, base_report)
    for threshold, rep in sweep:
        log.info("sweep: threshold %+.1f F1 %.3f (baseline %.3f)",
                 threshold, rep.f1, base_report.f1)
    return 0


# the release gate's numeric checks; each passes when its worst case over
# the fixtures is below its bound
NUMERIC_BOUNDS = {
    "gradient error": 1e-4,    # relative, analytic against central differences
    "distribution gap": 1e-6,  # |sum of a step's probabilities - 1|
    "beam gap": 1e-9,          # |beam 81 score - exhaustive search score|
    "batch gap": 1e-9,         # |score decoded alone - score decoded in a batch|
}


def _distribution_gap(params: ModelParameters) -> float:
    decoder = Decoder(params, [[3, 4, 5]])
    _, logp = decoder.step(decoder.start, np.array([BOS_ID]), [(0, 0, 1)])
    return abs(float(np.exp(logp).sum()) - 1.0)


def _beam_gap(params: ModelParameters) -> float:
    top = beam_search(params, [[0, 2]], beam_size=81, max_len=4)[0][0]
    best = exhaustive_search(params, [0, 2], max_len=4)
    return (abs(top.log_prob - best.log_prob) if top.tokens == best.tokens
            else float("inf"))


# mixed lengths, so the batch pads every source but the longest
BATCH_SOURCES = [[0, 2], [1], [2, 1, 0, 1, 2], [0]]


def _batch_gap(params: ModelParameters) -> float:
    batched = beam_search(params, BATCH_SOURCES, beam_size=4, max_len=5)
    gap = 0.0
    for src, together in zip(BATCH_SOURCES, batched):
        alone = beam_search(params, [src], beam_size=4, max_len=5)[0]
        if [h.tokens for h in alone] != [h.tokens for h in together]:
            return float("inf")
        gap = max([gap] + [abs(a.log_prob - b.log_prob)
                           for a, b in zip(alone, together)])
    return gap


def numeric_checks() -> dict[str, float]:
    """The worst case of each of NUMERIC_BOUNDS' checks on small random
    models with and without a lexicon.  The beam gap is inf when a wide
    beam's tokens differ from exhaustive search's, the batch gap when a
    source's hypotheses decoded in a batch differ from those decoded
    alone."""
    rng = np.random.default_rng(123)
    # scale well above the training default: keeps true gradients clear of
    # the central-difference noise floor so relative errors are meaningful
    params = ModelParameters.initialize(rng, 10, 10, hidden_size=4,
                                        embed_size=5, scale=0.8)
    tiny = ModelParameters.initialize(rng, 3, 3, hidden_size=3, embed_size=3)
    params64 = ModelParameters.initialize(
        np.random.default_rng(11), 10, 10, hidden_size=4, embed_size=5,
        scale=0.8, dtype=np.float64)
    params.lexicon = params64.lexicon = LexiconTable.from_rows(
        {3: {4: 0.6, 5: 0.4}}, 10)
    grad_err = max(gradient_check(params, [([3, 4, 5], [4, 5, EOS_ID])]),
                   gradient_check(params64, [([3, 4, 5], [6, 7, EOS_ID])]))

    distributions = [params]
    for seed in range(3):
        distributions.append(ModelParameters.initialize(
            np.random.default_rng(seed), 8, 9, hidden_size=6, embed_size=4,
            scale=0.8))
    distributions[-1].lexicon = LexiconTable.from_rows(
        {3: {4: 0.7, 5: 0.3}, 4: {6: 1.0}}, 8)

    beams = [tiny] + [
        ModelParameters.initialize(np.random.default_rng(seed), 3, 3,
                                   hidden_size=3, embed_size=2,
                                   lex_weight=0.0, scale=0.8)
        for seed in range(5)]
    return {"gradient error": grad_err,
            "distribution gap": max(map(_distribution_gap, distributions)),
            "beam gap": max(map(_beam_gap, beams)),
            "batch gap": max(map(_batch_gap, beams + distributions))}


def numeric_failures(checks: dict[str, float]) -> list[str]:
    return [name for name, value in checks.items()
            if not value < NUMERIC_BOUNDS[name]]


def cmd_selftest(args: argparse.Namespace) -> int:
    checks = numeric_checks()
    for name, value in checks.items():
        log.info("selftest: %s %.2e (bound %g)", name, value, NUMERIC_BOUNDS[name])
    failures = numeric_failures(checks)
    for name in failures:
        log.error("selftest FAILED: %s %.2e is not below %g",
                  name, checks[name], NUMERIC_BOUNDS[name])
    if failures:
        return 1
    print("selftest: all checks passed")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patchloom",
        description="Statement-level corrective patch generation from "
                    "version-control history")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug logging to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="extract change hunks from history")
    p.add_argument("--repo", required=True,
                   help="path to a git checkout or a .json snapshot repo")
    p.add_argument("--out", required=True, help="hunks.jsonl output path")
    p.add_argument("--since", type=int, default=None, help="first year")
    p.add_argument("--until", type=int, default=None, help="last year")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("build-corpus", help="filter, split, and write corpora")
    p.add_argument("--repo", required=True)
    p.add_argument("--hunks", default=None,
                   help="hunks.jsonl from mine; omitted = mine in process")
    p.add_argument("--test-year", type=int, required=True)
    p.add_argument("--out", required=True, help="corpus directory")
    p.add_argument("--unk-threshold", type=int, default=1)
    p.add_argument("--keep-unscoped", action="store_true",
                   help="keep hunks outside single method bodies")
    p.set_defaults(func=cmd_build_corpus)

    p = sub.add_parser("train", help="train the sequence model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="model file path")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--hidden-size", dest="hidden_size", type=int, default=None)
    p.add_argument("--embed-size", dest="embed_size", type=int, default=None)
    p.add_argument("--max-epochs", dest="max_epochs", type=int, default=None)
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    p.add_argument("--dropout", type=float, default=None)
    p.add_argument("--minibatch-words", dest="minibatch_words", type=int, default=None)
    p.add_argument("--lex-weight", dest="lex_weight", type=float, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="generate candidate patches")
    p.add_argument("--model", required=True)
    p.add_argument("--query-file", required=True,
                   help="one concrete statement per line")
    p.add_argument("--out", required=True, help="patches.jsonl output")
    p.add_argument("--threshold", type=float, default=-0.7)
    p.add_argument("--no-threshold", action="store_true",
                   help="disable the score threshold (validity studies)")
    p.add_argument("--beam-size", dest="beam_size", type=positive_int, default=10)
    p.add_argument("--max-len", dest="max_len", type=positive_int, default=100)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("baseline", help="pattern-matching baseline")
    p.add_argument("--corpus", required=True)
    p.add_argument("--query-file", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("evaluate", help="classify patches and compute metrics")
    p.add_argument("--counts", default=None,
                   help="CSV of outcome counts; prints recomputed metrics")
    p.add_argument("--patches", default=None, help="patches.jsonl")
    p.add_argument("--refs", default=None, help="concrete references file")
    p.add_argument("--meta", default=None, help="test.meta.tsv for filters")
    p.add_argument("--category", default="all",
                   choices=["all", "NU", "UQ", "UR"])
    p.add_argument("--bugfix-only", action="store_true")
    p.add_argument("--threshold", type=float, default=None,
                   help="recorded in the report only")
    p.add_argument("--name", default="run", help="row label in reports")
    p.add_argument("--out", default=None, help="report CSV path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="threshold sweep over cached outputs")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="sweep CSV path")
    p.add_argument("--beam-size", dest="beam_size", type=positive_int, default=10)
    p.add_argument("--max-len", dest="max_len", type=positive_int, default=100)
    p.add_argument("--thresholds", type=float, nargs="+", default=DEFAULT_SWEEP)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "selftest", help="the release gate's numeric checks: gradients, "
                         "distribution sums, beam against exhaustive search, "
                         "batched against single-source decoding")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    try:
        return args.func(args)
    except ConfigError as exc:
        log.error("configuration error: %s", exc)
        return 2
    except (CliError, CorpusError, HunkFormatError, ModelFormatError,
            RepositoryError, ResultFormatError, VocabularyError,
            OSError) as exc:
        log.error("%s", exc)
        return 1
    except Exception:
        log.exception("unhandled failure")
        return 1


if __name__ == "__main__":
    sys.exit(main())
