"""In-memory span recorder and the patch table that attaches it to
patchloom's public functions from outside the package.

A span is (name, start, end, parent, trace).  Spans opened while no
span is open, or at a request boundary (one generate query, one
training batch, one CLI subcommand), start a new trace id; every other
span inherits its parent's.  Spans are kept in flat arrays and only
written out when the run ends.

Each public name is patched where it is looked up at call time: a
function imported into another module by name is patched in that module
too, because patching only the defining module would miss those calls.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import os
import statistics
import time
from array import array
from collections import Counter

import numpy as np

# Spans that start a new trace id: one request each.
ROOTS = ("generation.generate", "generation.baseline_suggest", "training.batch")


class _SubprocessProxy:
    """Stands in for the subprocess module inside patchloom.repo so that
    every process repo starts is counted, without touching the global
    subprocess module the benchmark itself uses."""

    def __init__(self, real, tracer: "Tracer"):
        self._real = real
        self.run = tracer.wrap(real.run, "repo.git")
        self.Popen = tracer.wrap(real.Popen, "repo.git")

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trace = array("i")
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._traces = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str, root: bool = False) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        parent = self._stack[-1] if self._stack else -1
        if root or parent < 0:
            self._traces += 1
            trace = self._traces
        else:
            trace = self.trace[parent]
        self.name.append(nid)
        self.parent.append(parent)
        self.trace.append(trace)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, root: bool = False):
        idx = self.open(name, root)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn, name: str, after=None):
        """fn recorded as a span; after(args, kwargs, result) may update
        counters once fn has returned."""
        root = name in ROOTS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name, root)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def replace(self, owner, attr: str, value) -> None:
        """Set owner.attr until restore()."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        self.replace(owner, attr, self.wrap(getattr(owner, attr), name, after))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.name)

    def write(self, path: str) -> None:
        """All spans as gzip TSV: name, start, end, parent, trace."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("index\tname\tstart\tend\tparent\ttrace\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.trace[i]}\n")


def install(tracer: Tracer) -> None:
    """Patch every traced boundary of patchloom.  Undo with restore()."""
    from patchloom import (cli, corpus, decoding, evaluation, generation,
                           lexicon, mining, model, modelio, repo, training)

    count = tracer.counters
    P = tracer.patch

    tracer.replace(repo, "subprocess", _SubprocessProxy(repo.subprocess, tracer))
    for adapter in (repo.GitCliRepo, repo.InMemoryRepo):
        P(adapter, "commits", "repo.commits")
        P(adapter, "commit", "repo.commit")
        P(adapter, "changed_java_files", "repo.changed_java_files")
        P(adapter, "file_lines", "repo.file_lines")

    def diffed(args, kwargs, result):
        count["linediff.lines"] += len(args[0]) + len(args[1])

    P(mining, "histogram_diff", "linediff.histogram_diff", diffed)
    P(mining, "blame_origin", "mining.blame_origin")

    def eager_mine(fn):
        # mine_hunks is a generator: draining it inside the span makes the
        # span cover the mining work; every caller in cli drains it anyway
        @functools.wraps(fn)
        def drained(*args, **kwargs):
            hunks = list(fn(*args, **kwargs))
            count["mining.hunks"] += len(hunks)
            return iter(hunks)
        return drained

    for owner in (cli, mining):
        tracer.replace(owner, "mine_hunks", tracer.wrap(
            eager_mine(owner.mine_hunks), "mining.mine_hunks"))

    def pairs_in(args, kwargs, result):
        count["corpus.hunks_in"] += len(args[0])

    def pairs_out(args, kwargs, result):
        train, test = result
        count["corpus.pairs_out"] += len(train.pairs) + len(test)

    P(cli, "build_pairs", "corpus.build_pairs", pairs_in)
    P(cli, "split_chronological", "corpus.split_chronological", pairs_out)
    for owner in (corpus, generation):
        P(owner, "validate_statement", "parsing.validate_statement")
        P(owner, "tokenize", "tokenizer.tokenize")

    for owner in (cli, lexicon):
        P(owner, "build_lexicon", "lexicon.build_lexicon")

    def batch_tokens(args, kwargs, result):
        count["training.tokens"] += result[1]

    P(training, "batch_loss_and_gradients", "training.batch", batch_tokens)
    P(training, "forward_pair", "training.forward_pair")
    P(training, "backward_pair", "training.backward_pair")
    P(training, "corpus_loss", "training.corpus_loss")
    P(training.AdamState, "update", "training.adam_update")
    P(training, "train", "training.train")
    P(cli, "train_model", "training.train")

    for owner in (model, decoding):
        P(owner, "lstm_step", "model.lstm_step")
        P(owner, "attend", "model.attend")
        P(owner, "attentional_vector", "model.attentional_vector")
        P(owner, "predict_distribution", "model.predict_distribution")
        P(owner, "encode", "model.encode")
    P(generation, "beam_search", "decoding.beam_search")

    def outcome(args, kwargs, result):
        if result.source == "model":
            count["generation.model_results"] += 1
            count["generation.provided"] += result.patch is not None
            count["decoding.unfinished"] += not result.finished
        if result.na_reason is not None:
            count["generation.na." + result.na_reason] += 1

    for owner, attr in ((generation, "generate"), (cli, "generate_patch")):
        P(owner, attr, "generation.generate", outcome)
    for owner in (generation, cli):
        P(owner, "baseline_suggest", "generation.baseline_suggest", outcome)

    P(evaluation, "evaluate", "evaluation.evaluate")
    P(cli, "evaluate_results", "evaluation.evaluate")

    def saved(args, kwargs, result):
        count["modelio.bytes"] += os.path.getsize(args[0])

    for owner in (modelio, cli):
        P(owner, "save_model", "modelio.save_model", saved)
        P(owner, "load_model", "modelio.load_model")


# -- per-layer metrics ---------------------------------------------------------

NA_REASONS = ("untokenizable", "low-score", "identical", "invalid", "no-match")
SUBCOMMANDS = ("mine", "build-corpus", "train", "generate", "baseline", "evaluate")

# name -> (span, statistic); statistic is "calls", "total" (inclusive
# seconds) or "self" (seconds minus the time child spans cover)
SPAN_METRICS = {
    "repo.git_calls": ("repo.git", "calls"),
    "repo.file_lines.calls": ("repo.file_lines", "calls"),
    "repo.file_lines_s": ("repo.file_lines", "total"),
    "repo.commit.calls": ("repo.commit", "calls"),
    "repo.commit_s": ("repo.commit", "total"),
    "repo.changed_java_files_s": ("repo.changed_java_files", "total"),
    "linediff.histogram_diff.calls": ("linediff.histogram_diff", "calls"),
    "linediff.histogram_diff_s": ("linediff.histogram_diff", "total"),
    "mining.mine_hunks_s": ("mining.mine_hunks", "self"),
    "mining.blame_origin.calls": ("mining.blame_origin", "calls"),
    "mining.blame_origin_s": ("mining.blame_origin", "total"),
    "corpus.build_pairs_s": ("corpus.build_pairs", "total"),
    "corpus.split_chronological_s": ("corpus.split_chronological", "total"),
    "parsing.validate_statement.calls": ("parsing.validate_statement", "calls"),
    "parsing.validate_statement_s": ("parsing.validate_statement", "total"),
    "tokenizer.tokenize.calls": ("tokenizer.tokenize", "calls"),
    "lexicon.build_lexicon_s": ("lexicon.build_lexicon", "total"),
    "training.forward_pair.calls": ("training.forward_pair", "calls"),
    "training.forward_pair_s": ("training.forward_pair", "total"),
    "training.backward_pair_s": ("training.backward_pair", "total"),
    "training.adam_update.calls": ("training.adam_update", "calls"),
    "training.adam_update_s": ("training.adam_update", "total"),
    "training.corpus_loss_s": ("training.corpus_loss", "total"),
    "model.lstm_step.calls": ("model.lstm_step", "calls"),
    "model.lstm_step_s": ("model.lstm_step", "total"),
    "model.attend.calls": ("model.attend", "calls"),
    "model.attend_s": ("model.attend", "total"),
    "model.predict_distribution_s": ("model.predict_distribution", "total"),
    "model.encode_s": ("model.encode", "total"),
    "decoding.beam_search.calls": ("decoding.beam_search", "calls"),
    "decoding.beam_search_s": ("decoding.beam_search", "self"),
    "generation.generate_s": ("generation.generate", "self"),
    "generation.baseline_suggest_s": ("generation.baseline_suggest", "total"),
    "evaluation.evaluate_s": ("evaluation.evaluate", "total"),
    "modelio.save_model_s": ("modelio.save_model", "total"),
    "modelio.load_model_s": ("modelio.load_model", "total"),
}
for _sub in SUBCOMMANDS:
    SPAN_METRICS[f"cli.{_sub}_s"] = (f"cli.{_sub}", "total")

COUNTER_METRICS = ("linediff.lines", "mining.hunks", "training.tokens",
                   "decoding.unfinished", "modelio.bytes") + tuple(
    "generation.na." + reason for reason in NA_REASONS)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, lo: int, hi: int, counters: Counter) -> dict:
    """Per-layer values for spans [lo, hi) and the counters of that pass."""
    # slicing an array copies it, so no buffer of the live arrays is held
    names = np.frombuffer(tracer.name[lo:hi], dtype=np.int32)
    parents = np.frombuffer(tracer.parent[lo:hi], dtype=np.int32) - lo
    dur = (np.frombuffer(tracer.end[lo:hi], dtype=np.float64)
           - np.frombuffer(tracer.start[lo:hi], dtype=np.float64))
    inside = parents >= 0
    child_time = np.zeros(hi - lo)
    np.add.at(child_time, parents[inside], dur[inside])
    nid = {name: i for i, name in enumerate(tracer.names)}

    def select(span: str) -> np.ndarray:
        return names == nid.get(span, -1)

    def children_named(span: str, child: str) -> np.ndarray:
        """Per span of `span`: number of direct children named `child`."""
        n = np.zeros(hi - lo, dtype=np.int64)
        is_child = select(child) & inside
        np.add.at(n, parents[is_child], 1)
        return n[select(span)]

    out = {}
    for metric, (span, stat) in SPAN_METRICS.items():
        mask = select(span)
        if stat == "calls":
            out[metric] = int(mask.sum())
        elif stat == "total":
            out[metric] = float(dur[mask].sum())
        else:
            out[metric] = float((dur[mask] - child_time[mask]).sum())
    for metric in COUNTER_METRICS:
        out[metric] = counters[metric]

    file_lines = out["repo.file_lines.calls"]
    hits = int((children_named("repo.file_lines", "repo.git") == 0).sum())
    out["repo.file_lines.hit_ratio"] = _ratio(hits, file_lines)
    blame_diffs = int(children_named("mining.blame_origin",
                                     "linediff.histogram_diff").sum())
    out["mining.diffs_per_blame"] = _ratio(blame_diffs,
                                           out["mining.blame_origin.calls"])
    out["corpus.survival_ratio"] = _ratio(counters["corpus.pairs_out"],
                                          counters["corpus.hunks_in"])
    hyp_steps = int(children_named("decoding.beam_search",
                                   "model.predict_distribution").sum())
    out["decoding.hyp_steps"] = hyp_steps
    out["decoding.hyp_steps_per_query"] = _ratio(
        hyp_steps, out["decoding.beam_search.calls"])
    out["model.attentional_vector.per_hyp_step"] = _ratio(
        int(select("model.attentional_vector").sum()), hyp_steps)
    out["generation.provided_ratio"] = _ratio(
        counters["generation.provided"], counters["generation.model_results"])
    return out


# Counts that later count-based claims rest on; two traced passes over
# the same inputs must give identical values.
EXACT = (
    "repo.git_calls", "linediff.histogram_diff.calls",
    "mining.blame_origin.calls", "decoding.hyp_steps", "model.lstm_step.calls",
    "model.attentional_vector.per_hyp_step", "training.forward_pair.calls",
    "training.adam_update.calls",
)


def summarize(per_pass: list[dict]) -> tuple[dict, list[str]]:
    """Median of each per-layer value over traced passes, and the EXACT
    counts that differ between them."""
    summary = {name: statistics.median(p[name] for p in per_pass)
               for name in per_pass[0]}
    differing = [name for name in EXACT if len({p[name] for p in per_pass}) != 1]
    return summary, differing
