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
    GeneratedPatch,
    GenerationResult,
    baseline_suggest,
    generate as generate_patch,
    write_results,
)
from .lexicon import build_lexicon, lexicon_to_ids
from .mining import (HunkFormatError, MiningReport, identify_fix_commits,
                     link_inducing, mine_hunks, read_hunks, write_hunks)
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
        return fh.read().splitlines()


# ---------------------------------------------------------------------------
# subcommands

def cmd_mine(args: argparse.Namespace) -> int:
    repo = open_repository(args.repo)
    report = MiningReport()
    started = time.monotonic()
    hunks = list(mine_hunks(repo, since=args.since, until=args.until,
                            report=report))
    count = write_hunks(args.out, hunks)
    log.info("mine: %d commits, %d hunks -> %s (%.1fs) %s",
             report.commits_seen, count, args.out,
             time.monotonic() - started, report.as_dict())
    return 0


def cmd_build_corpus(args: argparse.Namespace) -> int:
    repo = open_repository(args.repo)
    if args.hunks:
        hunks = read_hunks(args.hunks)
    else:
        hunks = list(mine_hunks(repo))
    fix_ids = identify_fix_commits(repo.commits())
    links = link_inducing(h for h in hunks if h.commit_post in fix_ids)
    ledger = PipelineLedger()
    pairs = build_pairs(hunks, links,
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
    token_lexicon = build_lexicon(token_pairs)
    lexicon = lexicon_to_ids(token_lexicon, src_vocab, tgt_vocab)
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
        json.dump({
            "best_epoch": logbook.best_epoch,
            "best_dev_loss": logbook.best_dev_loss,
            "aborted": logbook.aborted,
            "epochs": [
                {"epoch": e.epoch, "train_loss": e.train_loss,
                 "dev_loss": e.dev_loss, "learning_rate": e.learning_rate,
                 "seconds": e.seconds}
                for e in logbook.epochs
            ],
        }, fh, indent=2)
    if logbook.aborted:
        log.error("train: aborted on non-finite loss; saved last good snapshot")
        return 1
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    params, src_vocab, tgt_vocab = load_model(args.model)
    # decoding computes in float64 (see decoding.py): cast once, not per query
    params = params.astype(np.float64)
    queries = _read_lines(args.query_file)
    threshold = None if args.no_threshold else args.threshold
    results = []
    started = time.monotonic()
    for query in queries:
        results.append(generate_patch(
            query, params, src_vocab, tgt_vocab, threshold=threshold,
            beam_size=args.beam_size, max_len=args.max_len))
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
    results = [baseline_suggest(q, index) for q in queries]
    write_results(args.out, results)
    n_provided = sum(1 for r in results if r.patch is not None)
    log.info("baseline: %d queries, %d matched -> %s",
             len(queries), n_provided, args.out)
    return 0


def _load_results(path: str) -> list[GenerationResult]:
    results = []
    for line in _read_lines(path):
        if not line.strip():
            continue
        obj = json.loads(line)
        result = GenerationResult(
            query=obj["query"], source=obj["source"],
            na_reason=obj["na_reason"], score=obj["score"],
            valid=obj["valid"])
        if obj["patch"] is not None:
            tokens = tuple(obj["patch"].split())
            result.patch = GeneratedPatch(
                tokens=TokenizedStatement(tokens, obj["query"]),
                score=obj["score"] if obj["score"] is not None else 0.0,
                valid=obj["valid"], source=obj["source"])
            result.concrete_output = tokens
        results.append(result)
    return results


def _load_meta(path: str) -> tuple[list[str], list[bool]]:
    lines = _read_lines(path)
    header = lines[0].split("\t")
    categories, bugfix = [], []
    for line in lines[1:]:
        row = dict(zip(header, line.split("\t")))
        categories.append(row.get("category", "all"))
        bugfix.append(row.get("bugfix") == "1")
    return categories, bugfix


def cmd_evaluate(args: argparse.Namespace) -> int:
    if args.counts:
        rows = []
        with open(args.counts, encoding="utf-8") as fh:
            for record in csv.DictReader(fh):
                rep = metrics_from_counts(
                    int(record["correct"]), int(record["arg_incorrect"]),
                    int(record["incorrect"]), int(record["na"]),
                    category_filter=record.get("variant", "all"))
                rows.append((record["project"], rep))
        print(render_table(rows))
        return 0
    if not (args.patches and args.refs):
        raise CliError("evaluate needs either --counts or --patches/--refs")
    results = _load_results(args.patches)
    refs = [TokenizedStatement(tuple(line.split()), line)
            for line in _read_lines(args.refs)]
    categories = bugfix = None
    if args.meta:
        categories, bugfix = _load_meta(args.meta)
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
    # decoding computes in float64 (see decoding.py): cast once, not per query
    params = params.astype(np.float64)
    queries = _read_lines(os.path.join(args.corpus, "test.queries"))
    ref_lines = _read_lines(os.path.join(args.corpus, "test.refs"))
    refs = [TokenizedStatement(tuple(line.split()), line) for line in ref_lines]
    results = [
        generate_patch(q, params, src_vocab, tgt_vocab, threshold=None,
                       beam_size=args.beam_size, max_len=args.max_len)
        for q in queries
    ]
    src_lines, tgt_lines = read_parallel(args.corpus, "train")
    index = BaselineIndex.from_parallel(src_lines, tgt_lines)
    base_results = [baseline_suggest(q, index) for q in queries]
    base_report = evaluate_results(base_results, refs)
    sweep = sweep_thresholds(results, refs, thresholds=args.thresholds)
    write_sweep_csv(args.out, sweep, base_report)
    for threshold, rep in sweep:
        log.info("sweep: threshold %+.1f F1 %.3f (baseline %.3f)",
                 threshold, rep.f1, base_report.f1)
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    from .decoding import Decoder, beam_search, exhaustive_search
    from .model import LexiconTable, ModelParameters

    failures = []
    rng = np.random.default_rng(123)

    # scale well above the training default: keeps true gradients clear of
    # the central-difference noise floor so relative errors are meaningful
    params = ModelParameters.initialize(rng, 10, 10, hidden_size=4,
                                        embed_size=5, scale=0.8)
    params.lexicon = LexiconTable.from_rows({3: {4: 0.6, 5: 0.4}}, 10)
    err = gradient_check(params, [([3, 4, 5], [4, 5, EOS_ID])])
    log.info("selftest: gradient check max relative error %.2e", err)
    if not err < 1e-4:
        failures.append(f"gradient check error {err:.2e} >= 1e-4")

    decoder = Decoder(params, [3, 4, 5])
    _, logp = decoder.step(decoder.start, np.array([BOS_ID]))
    gap = abs(float(np.exp(logp).sum()) - 1.0)
    log.info("selftest: distribution sum deviation %.2e", gap)
    if not gap < 1e-6:
        failures.append(f"distribution sum off by {gap:.2e}")

    tiny = ModelParameters.initialize(rng, 3, 3, hidden_size=3, embed_size=3)
    top = beam_search(tiny, [0, 2], beam_size=81, max_len=4)[0]
    best = exhaustive_search(tiny, [0, 2], max_len=4)
    if top.tokens != best.tokens or abs(top.log_prob - best.log_prob) > 1e-9:
        failures.append("beam search differs from exhaustive search")
    else:
        log.info("selftest: beam search matches exhaustive search")

    if failures:
        for failure in failures:
            log.error("selftest FAILED: %s", failure)
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
    p.add_argument("--beam-size", dest="beam_size", type=int, default=10)
    p.add_argument("--max-len", dest="max_len", type=int, default=100)
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
    p.add_argument("--beam-size", dest="beam_size", type=int, default=10)
    p.add_argument("--max-len", dest="max_len", type=int, default=100)
    p.add_argument("--thresholds", type=float, nargs="+", default=DEFAULT_SWEEP)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("selftest", help="numeric sanity checks")
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
            RepositoryError, VocabularyError, FileNotFoundError) as exc:
        log.error("%s", exc)
        return 1
    except Exception:
        log.exception("unhandled failure")
        return 1


if __name__ == "__main__":
    sys.exit(main())
