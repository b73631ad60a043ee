"""The benchmark's three workloads.

Each one runs as a closed loop from one process with one client: every
call into patchloom starts when the previous one has returned, as for
an offline batch tool.  A workload has three parts:

  setup(k)         build inputs and state from the seed (timed as setup_s)
  run_pass(state)  one pass of the timed phase, repeated for the window;
                   its "ops" are the seconds of each call, in a fixed order
  report(...)      figures beyond the gated metrics, and correctness checks

Every call goes through a module attribute (training.train, not a name
imported here), so the traced run's patches see it.  Sizes are chosen
so that one pass takes a few seconds and a window of run_seconds holds
several passes; README.md says why each size differs from the release
gate's where it does.
"""

from __future__ import annotations

import calendar
import contextlib
import datetime as dt
import hashlib
import io
import json
import math
import os
import statistics
import subprocess
import time
import traceback
from collections import Counter

from patchloom import (arguments, cli, evaluation, generation, lexicon,
                       mining, repo, synthdata, tokenizer, training)
from patchloom.vocab import Vocabulary


# release-gate shapes and optimizer (scripts/run_synthetic_pipeline.py)
GATE = dict(hidden_size=128, embed_size=64, minibatch_words=64,
            learning_rate=0.003, dropout=0.0, decay_factor=0.9,
            dev_fraction=0.1)

TRAIN_PAIRS = 500
TRAIN_EPOCHS = 1
TRAIN_LEX_WEIGHT = 0.1          # the CLI default

GEN_PAIRS = 400
GEN_EPOCHS = 4
# above the gate rate, so four epochs give a model whose beams all finish
# and whose answers mix patches with NA reasons
GEN_LEARNING_RATE = 0.01
GEN_THRESHOLD = -0.7
GEN_BEAM = 10
GEN_MAX_LEN = 100
# held-out exact match must stay above this; at the commit that added the
# benchmark it was 0.045-0.285 over 30 seeds (README.md), so a value this
# low means the model or the decoder broke
GEN_EXACT_MATCH_FLOOR = 0.01

PIPE_TRAIN_PAIRS = 40
PIPE_TEST_YEAR = 2015
PIPE_EPOCHS = 1
# the one-epoch H=512 model rarely emits </s>, so most beams run to
# max_len; a short max_len keeps the seed-to-seed difference small
PIPE_MAX_LEN = 10


def no_span(name, root=False):
    """Stands in for Tracer.span in untraced passes."""
    return contextlib.nullcontext()


_median = statistics.median


def _abstracted(line: str) -> tuple[str, ...]:
    return arguments.abstract_arguments(tokenizer.tokenize(line))[0].tokens


def _encode_pairs(token_pairs):
    src_counts = Counter(t for s, _ in token_pairs for t in s)
    tgt_counts = Counter(t for _, g in token_pairs for t in g)
    src_vocab = Vocabulary.from_counts(src_counts, unk_threshold=0)
    tgt_vocab = Vocabulary.from_counts(tgt_counts, unk_threshold=0)
    encoded = [(src_vocab.encode(list(s)), tgt_vocab.encode(list(g), eos=True))
               for s, g in token_pairs]
    return src_vocab, tgt_vocab, encoded


def _dev_count(n: int, dev_fraction: float) -> int:
    """Pairs training.train holds out, from the end, for dev loss."""
    n_dev = max(1, int(round(n * dev_fraction)))
    return min(n_dev, n - 1) if n > 1 else 0


def _split_tokens(target_lengths: list[int], dev_fraction: float) -> int:
    """Target tokens per epoch in training.train's training split."""
    n_dev = _dev_count(len(target_lengths), dev_fraction)
    return sum(target_lengths[:len(target_lengths) - n_dev])


def _tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest of a fixed ladder of percentiles with at least ten samples
    beyond it: (percentile, value, sample count), nearest rank."""
    ordered = sorted(samples)
    n = len(ordered)
    best = 50.0
    for pct in (90.0, 95.0, 99.0, 99.9, 99.99):
        if n * (1.0 - pct / 100.0) >= 10.0:
            best = pct
    rank = max(1, math.ceil(best / 100.0 * n))
    return best, ordered[rank - 1], n


# ---------------------------------------------------------------------------

class Train:
    """IBM Model-1 lexicon plus a fixed number of training epochs at the
    release-gate shapes, lexicon on."""

    name = "train"
    speed_scaled = True

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.config = training.TrainingConfig(
            max_epochs=TRAIN_EPOCHS, seed=seed, lex_weight=TRAIN_LEX_WEIGHT,
            **GATE)

    def setup(self, k: int) -> dict:
        bench = synthdata.make_benchmark(seed=self.seed, n_train=TRAIN_PAIRS,
                                         n_held_out=0, n_queries=0)
        token_pairs = [(_abstracted(a), _abstracted(b))
                       for a, b in bench.train_pairs]
        src_vocab, tgt_vocab, encoded = _encode_pairs(token_pairs)
        tokens = _split_tokens([len(t) for _, t in encoded],
                               self.config.dev_fraction)
        n_train = len(encoded) - _dev_count(len(encoded), self.config.dev_fraction)
        batches = len(training.make_batches(encoded[:n_train],
                                            self.config.minibatch_words))
        return dict(token_pairs=token_pairs, src_vocab=src_vocab,
                    tgt_vocab=tgt_vocab, encoded=encoded,
                    tokens_per_epoch=tokens, batches_per_epoch=batches)

    def run_pass(self, state: dict, index: int, span=no_span) -> dict:
        started = time.perf_counter()
        lex = lexicon.lexicon_to_ids(lexicon.build_lexicon(state["token_pairs"]),
                                     state["src_vocab"], state["tgt_vocab"])
        lexicon_done = time.perf_counter()
        params, logbook = training.train(
            state["encoded"], len(state["src_vocab"]), len(state["tgt_vocab"]),
            self.config, lexicon=lex)
        done = time.perf_counter()
        state["lexicon"] = lex
        epochs = len(logbook.epochs)
        return dict(
            seconds=done - started, lexicon_s=lexicon_done - started,
            train_s=done - lexicon_done,
            ops=[lexicon_done - started, done - lexicon_done],
            attempted=state["batches_per_epoch"] * self.config.max_epochs,
            failed=int(logbook.aborted),
            tokens=state["tokens_per_epoch"] * epochs, epochs=epochs,
            losses=[(e.train_loss, e.dev_loss) for e in logbook.epochs],
            dev_loss=logbook.epochs[-1].dev_loss if epochs else math.inf,
            finite=params.all_finite(),
        )

    def report(self, state, setups, passes):
        untrained_config = training.TrainingConfig(
            max_epochs=0, seed=self.seed, lex_weight=TRAIN_LEX_WEIGHT, **GATE)
        initial, _ = training.train(
            state["encoded"], len(state["src_vocab"]), len(state["tgt_vocab"]),
            untrained_config, lexicon=state["lexicon"])
        n_dev = _dev_count(len(state["encoded"]), self.config.dev_fraction)
        untrained = training.corpus_loss(initial, state["encoded"][-n_dev:])
        dev = passes[0]["dev_loss"]
        checks = [
            ("every pass trains all epochs",
             all(p["epochs"] == self.config.max_epochs for p in passes), ""),
            ("every epoch's loss is finite",
             all(math.isfinite(a) and math.isfinite(b)
                 for p in passes for a, b in p["losses"]), ""),
            ("final parameters are finite", all(p["finite"] for p in passes), ""),
            ("dev loss below the untrained model's", dev < untrained,
             f"{dev:.4f} vs {untrained:.4f}"),
            ("passes are identical", len({p["dev_loss"] for p in passes}) == 1, ""),
        ]
        extra = {
            "train_tokens_per_s": (_median(
                [p["tokens"] / (p["train_s"] * p["scale"]) for p in passes]),
                "tokens/s"),
            "dev_loss": (dev, "nats/token"),
            "lexicon_s": (_median([p["lexicon_s"] for p in passes]), "s"),
            "train_s": (_median([p["train_s"] for p in passes]), "s"),
            "untrained_dev_loss": (untrained, "nats/token"),
            "tokens_per_epoch": (state["tokens_per_epoch"], "count"),
            "batches_per_epoch": (state["batches_per_epoch"], "count"),
        }
        return extra, checks


# ---------------------------------------------------------------------------

class Generate:
    """Beam-search generation over held-out statements and queries with a
    model trained in setup (lexicon off), then the baseline and scoring."""

    name = "generate"
    speed_scaled = True

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.config = training.TrainingConfig(
            max_epochs=GEN_EPOCHS, seed=seed, lex_weight=0.0,
            **dict(GATE, learning_rate=GEN_LEARNING_RATE))

    def setup(self, k: int) -> dict:
        bench = synthdata.make_benchmark(seed=self.seed, n_train=GEN_PAIRS)
        token_pairs = [(_abstracted(a), _abstracted(b))
                       for a, b in bench.train_pairs]
        src_vocab, tgt_vocab, encoded = _encode_pairs(token_pairs)
        started = time.perf_counter()
        params, logbook = training.train(encoded, len(src_vocab),
                                         len(tgt_vocab), self.config)
        train_s = time.perf_counter() - started
        tokens = _split_tokens([len(t) for _, t in encoded],
                               self.config.dev_fraction) * len(logbook.epochs)
        index = generation.BaselineIndex.from_parallel(
            [list(s) for s, _ in token_pairs], [list(t) for _, t in token_pairs])
        return dict(
            params=params, src_vocab=src_vocab, tgt_vocab=tgt_vocab,
            index=index,
            held_out=[pre for pre, _ in bench.held_out],
            held_out_refs=[tokenizer.tokenize(post).serialized()
                           for _, post in bench.held_out],
            queries=[q for q, _, _ in bench.queries],
            query_refs=[tokenizer.tokenize(r) for _, r, _ in bench.queries],
            train_tokens=tokens, train_s=train_s,
            dev_loss=logbook.epochs[-1].dev_loss if logbook.epochs else math.inf,
            aborted=logbook.aborted,
        )

    def run_pass(self, state: dict, index: int, span=no_span) -> dict:
        params, sv, tv = state["params"], state["src_vocab"], state["tgt_vocab"]
        results, latencies = [], []
        failed = 0
        started = time.perf_counter()
        # held-out exact match is scored without a threshold, as in the
        # release gate; the queries go through the threshold
        thresholds = ([None] * len(state["held_out"])
                      + [GEN_THRESHOLD] * len(state["queries"]))
        for query, threshold in zip(state["held_out"] + state["queries"],
                                    thresholds):
            t0 = time.perf_counter()
            try:
                result = generation.generate(
                    query, params, sv, tv, threshold=threshold,
                    beam_size=GEN_BEAM, max_len=GEN_MAX_LEN)
            except Exception:
                traceback.print_exc()
                result = None
                failed += 1
            latencies.append(time.perf_counter() - t0)
            results.append(result)
        generate_s = time.perf_counter() - started
        n_held = len(state["held_out"])
        held, answered = results[:n_held], results[n_held:]
        baseline = [generation.baseline_suggest(q, state["index"])
                    for q in state["queries"]]
        base_report = evaluation.evaluate(baseline, state["query_refs"])
        model_report = None
        if not failed:
            model_report = evaluation.evaluate(
                answered, state["query_refs"], threshold=GEN_THRESHOLD)
        done = time.perf_counter()
        seconds = done - started
        hits = sum(1 for r, want in zip(held, state["held_out_refs"])
                   if r is not None and r.patch is not None
                   and r.patch.tokens.serialized() == want)
        return dict(
            seconds=seconds, generate_s=generate_s, latencies=latencies,
            ops=latencies + [done - started - generate_s],
            attempted=len(results), failed=failed,
            exact_match=hits / n_held,
            outputs=[None if r is None else (
                r.patch.tokens.serialized() if r.patch else None,
                r.na_reason, r.score, r.finished) for r in results],
            model_f1=model_report.f1 if model_report else math.nan,
            baseline_f1=base_report.f1,
        )

    def report(self, state, setups, passes):
        first = passes[0]["outputs"]
        complete = [o for o in first if o is not None]
        na = Counter(o[1] for o in complete if o[1] is not None)
        exact = passes[0]["exact_match"]
        checks = [
            ("setup training finished without abort",
             not any(s["aborted"] for s in setups), ""),
            ("setups train identical models",
             len({s["dev_loss"] for s in setups}) == 1, ""),
            ("every result carries a patch or an NA reason",
             all((o[0] is None) != (o[1] is None) for o in complete)
             and len(complete) == len(first), ""),
            ("every beam finishes", all(o[3] for o in complete),
             f"{sum(not o[3] for o in complete)} unfinished"),
            (f"exact match above {GEN_EXACT_MATCH_FLOOR}",
             exact > GEN_EXACT_MATCH_FLOOR, f"{exact:.3f}"),
            ("passes are identical",
             all(p["outputs"] == first for p in passes), ""),
        ]
        latencies = [x for p in passes for x in p["latencies"]]
        pct, tail, n = _tail(latencies)
        queries = sum(len(p["latencies"]) for p in passes)
        extra = {
            "train_tokens_per_s": (_median(
                [s["train_tokens"] / (s["train_s"] * s["scale"]) for s in setups]),
                "tokens/s"),
            "dev_loss": (setups[0]["dev_loss"], "nats/token"),
            "queries_per_s": (queries / sum(p["generate_s"] for p in passes), "1/s"),
            "query_ms.p50": (1000.0 * _median(latencies), "ms"),
            "query_ms.tail": (1000.0 * tail, "ms"),
            "query_ms.tail_percentile": (pct, "%"),
            "query_ms.samples": (n, "count"),
            "exact_match": (exact, "ratio"),
            "provided_ratio": (sum(o[0] is not None for o in complete)
                               / max(1, len(complete)), "ratio"),
            "model_f1": (passes[0]["model_f1"], "ratio"),
            "baseline_f1": (passes[0]["baseline_f1"], "ratio"),
        }
        for reason, value in sorted(na.items()):
            extra[f"na.{reason}"] = (value, "count")
        return extra, checks


# ---------------------------------------------------------------------------

def write_git_repo(commits: list[dict], path: str) -> None:
    """Commit an in-memory history into a new git repository in one
    fast-import stream.  Commit times increase by one second per commit,
    so they are strictly increasing inside each year: GitCliRepo orders
    commits by (time, hash), and tied times would scramble the history."""
    # no template files and no fsync: a run writes many repositories, and
    # every extra file and flush slows the file system for later set-ups
    subprocess.run(["git", "init", "-q", "--template=", path], check=True)
    chunks, previous = [], {}
    for i, commit in enumerate(commits):
        year = dt.datetime.fromisoformat(commit["time"]).year
        when = calendar.timegm((year, 1, 1, 0, 0, 0)) + i
        message = commit["message"].encode()
        chunks.append(
            f"commit refs/heads/main\nmark :{i + 1}\n"
            f"author Bench <bench@example.invalid> {when} +0000\n"
            f"committer Bench <bench@example.invalid> {when} +0000\n"
            f"data {len(message)}\n".encode() + message + b"\n")
        if i:
            chunks.append(f"from :{i}\n".encode())
        files = commit["files"]
        for p in sorted(set(previous) - set(files)):
            chunks.append(f"D {p}\n".encode())
        for p in sorted(files):
            if previous.get(p) != files[p]:
                body = files[p].encode()
                chunks.append(f"M 100644 inline {p}\ndata {len(body)}\n".encode()
                              + body + b"\n")
        previous = files
    subprocess.run(["git", "-C", path, "-c", "core.fsync=none", "fast-import",
                    "--quiet"], input=b"".join(chunks), check=True)


def _hunk_key(h: mining.ChangeHunk) -> tuple:
    return (h.file_path, h.deleted_lines, h.added_lines, h.year_pre,
            h.year_post, h.method_scoped)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


class PipelineGit:
    """The six CLI subcommands, in process, over a real git repository
    written from synthdata.make_repo."""

    name = "pipeline-git"
    # most of its time is starting git processes and H=512 matrix
    # products, which the machine's speed changes move much less than the
    # reference computation; scaling did not narrow its spread
    speed_scaled = False
    SUBCOMMANDS = ("mine", "build-corpus", "train", "generate", "baseline",
                   "evaluate")

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self, k: int) -> dict:
        data = synthdata.make_repo(seed=self.seed, n_train_pairs=PIPE_TRAIN_PAIRS,
                                   test_year=PIPE_TEST_YEAR)
        path = os.path.join(self.workdir, f"repo{k}")
        write_git_repo(data["commits"], path)
        return dict(repo=path, commits=data["commits"])

    def _argv(self, sub: str, repo_path: str, out: str) -> list[str]:
        corpus = os.path.join(out, "corpus")
        model = os.path.join(out, "model.plm")
        queries = os.path.join(corpus, "test.queries")
        return {
            "mine": ["--repo", repo_path, "--out", os.path.join(out, "hunks.jsonl")],
            "build-corpus": ["--repo", repo_path, "--hunks",
                             os.path.join(out, "hunks.jsonl"), "--test-year",
                             str(PIPE_TEST_YEAR), "--out", corpus],
            "train": ["--corpus", corpus, "--out", model, "--max-epochs",
                      str(PIPE_EPOCHS), "--seed", str(self.seed)],
            "generate": ["--model", model, "--query-file", queries, "--out",
                         os.path.join(out, "patches.jsonl"), "--max-len",
                         str(PIPE_MAX_LEN)],
            "baseline": ["--corpus", corpus, "--query-file", queries, "--out",
                         os.path.join(out, "baseline.jsonl")],
            "evaluate": ["--patches", os.path.join(out, "patches.jsonl"),
                         "--refs", os.path.join(corpus, "test.refs"), "--meta",
                         os.path.join(corpus, "test.meta.tsv"), "--out",
                         os.path.join(out, "report.csv")],
        }[sub]

    def run_pass(self, state: dict, index: int, span=no_span) -> dict:
        out = os.path.join(self.workdir, f"pass{index}")
        os.makedirs(out)
        seconds, codes = {}, {}
        started = time.perf_counter()
        for sub in self.SUBCOMMANDS:
            t0 = time.perf_counter()
            # evaluate prints its table; stdout carries only the result
            with span(f"cli.{sub}", root=True), \
                    contextlib.redirect_stdout(io.StringIO()):
                codes[sub] = cli.main([sub] + self._argv(sub, state["repo"], out))
            seconds[sub] = time.perf_counter() - t0
        total = time.perf_counter() - started
        record = dict(seconds=total, sub_s=seconds, codes=codes,
                      ops=[seconds[sub] for sub in self.SUBCOMMANDS],
                      attempted=len(codes),
                      failed=sum(1 for c in codes.values() if c != 0))
        if not record["failed"]:
            corpus = os.path.join(out, "corpus")
            with open(os.path.join(out, "model.plm.log.json"), encoding="utf-8") as fh:
                log = json.load(fh)
            targets = [len(line.split()) + 1
                       for line in _lines(os.path.join(corpus, "train.tgt"))]
            tokens = _split_tokens(targets, training.TrainingConfig().dev_fraction)
            record.update(
                hunks=mining.read_hunks(os.path.join(out, "hunks.jsonl")),
                train_pairs=len(targets),
                test_pairs=len(_lines(os.path.join(corpus, "test.queries"))),
                tokens=tokens * len(log["epochs"]),
                dev_loss=log["epochs"][-1]["dev_loss"],
                digests=(_digest(os.path.join(out, "hunks.jsonl")),
                         _digest(os.path.join(out, "patches.jsonl"))),
            )
        return record

    def report(self, state, setups, passes):
        ok = all(p["failed"] == 0 for p in passes)
        checks = [("every subcommand exits 0", ok,
                   "; ".join(f"pass {i} {s}={c}" for i, p in enumerate(passes)
                             for s, c in p["codes"].items() if c != 0))]
        if not ok:
            return {}, checks
        first = passes[0]
        reference = list(mining.mine_hunks(repo.InMemoryRepo(state["commits"])))
        got = [_hunk_key(h) for h in first["hunks"]]
        want = [_hunk_key(h) for h in reference]
        checks += [
            ("git and in-memory adapters mine the same hunks",
             got == want and len(got) > 0, f"{len(got)} vs {len(want)} hunks"),
            ("corpus keeps a train pair and a test pair",
             first["train_pairs"] >= 1 and first["test_pairs"] >= 1,
             f"{first['train_pairs']} train, {first['test_pairs']} test"),
            ("passes are identical",
             all(p["digests"] == first["digests"] for p in passes), ""),
        ]
        extra = {f"{sub}_s": (_median([p["sub_s"][sub] for p in passes]), "s")
                 for sub in self.SUBCOMMANDS}
        extra.update({
            "train_tokens_per_s": (_median(
                [p["tokens"] / (p["sub_s"]["train"] * p["scale"]) for p in passes]),
                "tokens/s"),
            "dev_loss": (first["dev_loss"], "nats/token"),
            "hunks": (len(got), "count"),
            "commits": (len(state["commits"]), "count"),
            "train_pairs": (first["train_pairs"], "count"),
            "test_pairs": (first["test_pairs"], "count"),
        })
        return extra, checks


WORKLOADS = {w.name: w for w in (Train, Generate, PipelineGit)}
