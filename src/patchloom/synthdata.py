"""Deterministic synthetic data: rewrite-rule statement pairs, a
benchmark corpus with the release gate's harness (run_benchmark), and
an in-memory repository for offline pipeline runs.

Five deterministic rewrite rules produce (buggy, fixed) statement
pairs:

  this-removal        return this . x ;          -> return x ;
  index-increment     a [ 10 ] = v . toString ( ) ;  -> a [ 11 ] = ...
  diamond             List < T > x = new ArrayList < T > ( ) ;
                                                 -> ... new ArrayList < > ( ) ;
  log-level           log . trace ( "..." , e ) ;   -> log . info ( ... ) ;
  yoda-flip           if ( null != x ) {         -> if ( x != null ) {

plus 10% distractor pairs with unrelated random edits.  Novel queries
recombine identifiers already seen in training so every token stays in
vocabulary while the full statement is textually new; exact-match
baselines miss them, a model that learned the rule does not.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .arguments import abstract_arguments
from .evaluation import EvalReport, evaluate
from .generation import (DEFAULT_THRESHOLD, BaselineIndex, GenerationResult,
                         ModelProposer, answer_all)
from .model import ModelParameters
from .tokenizer import TokenizedStatement, tokenize
from .training import TrainingConfig, TrainingLog, train
from .vocab import Vocabulary

IDENTIFIERS = (
    "height width depth length offset index cursor counter total limit "
    "buffer stream reader writer handler parser cache client session token "
    "payload record bundle config status result target source holder "
    "factory mapping channel router monitor metric ticket broker queue "
    "worker anchor segment window"
).split()

ARRAY_NAMES = "commands slots entries values frames pages cells items".split()
LOGGER_NAMES = "log logger LOGGER tracer".split()
ELEM_TYPES = "String Integer Long Object".split()
CONST_KEYS = (0, 1, 2, 5, 10)

RULES = ("this-removal", "index-increment", "diamond", "log-level", "yoda-flip")
NOVEL_FRACTION = 0.4        # of the queries
DISTRACTOR_FRACTION = 0.1   # of the training pairs


def _pick(rng: np.random.Generator, pool) -> str:
    return pool[int(rng.integers(len(pool)))]


def make_rule_pair(rng: np.random.Generator, rule: str) -> tuple[str, str]:
    if rule == "this-removal":
        name = _pick(rng, IDENTIFIERS)
        return f"return this . {name} ;", f"return {name} ;"
    if rule == "index-increment":
        arr = _pick(rng, ARRAY_NAMES)
        key = CONST_KEYS[int(rng.integers(len(CONST_KEYS)))]
        obj = _pick(rng, IDENTIFIERS)
        rhs = f"this . {obj} . toString ( )"
        return (f"{arr} [ {key} ] = {rhs} ;",
                f"{arr} [ {key + 1} ] = {rhs} ;")
    if rule == "diamond":
        elem = _pick(rng, ELEM_TYPES)
        name = _pick(rng, IDENTIFIERS)
        return (f"List < {elem} > {name} = new ArrayList < {elem} > ( ) ;",
                f"List < {elem} > {name} = new ArrayList < > ( ) ;")
    if rule == "log-level":
        logger = _pick(rng, LOGGER_NAMES)
        msg = _pick(rng, IDENTIFIERS)
        return (f'{logger} . trace ( "{msg}" , cause ) ;',
                f'{logger} . info ( "{msg}" , cause ) ;')
    if rule == "yoda-flip":
        name = _pick(rng, IDENTIFIERS)
        return (f"if ( null != {name} ) {{", f"if ( {name} != null ) {{")
    raise ValueError(f"unknown rule {rule!r}")


def make_distractor(rng: np.random.Generator) -> tuple[str, str]:
    a = _pick(rng, IDENTIFIERS)
    b = _pick(rng, IDENTIFIERS)
    forms = (
        f"int {a} = {b} . size ( ) ;",
        f"{a} = {b} + 1 ;",
        f"throw new IllegalStateException ( {a} ) ;",
        f"{a} . close ( ) ;",
        f"return {a} . equals ( {b} ) ;",
    )
    pre = forms[int(rng.integers(len(forms)))]
    post = forms[int(rng.integers(len(forms)))]
    return pre, post


@dataclass
class Benchmark:
    train_pairs: list[tuple[str, str]]          # concrete (pre, post) lines
    held_out: list[tuple[str, str]]
    queries: list[tuple[str, str, bool]]        # (query, reference, novel?)


def make_benchmark(
    seed: int = 7,
    n_train: int = 2000,
    n_held_out: int = 200,
    n_queries: int = 200,
) -> Benchmark:
    rng = np.random.default_rng(seed)
    n_distract = int(round(n_train * DISTRACTOR_FRACTION))
    n_rules = n_train - n_distract

    train: list[tuple[str, str]] = []
    for i in range(n_rules):
        rule = RULES[i % len(RULES)]
        train.append(make_rule_pair(rng, rule))
    for _ in range(n_distract):
        train.append(make_distractor(rng))
    perm = rng.permutation(len(train)).tolist()
    train = [train[i] for i in perm]

    held_out = [make_rule_pair(rng, RULES[i % len(RULES)])
                for i in range(n_held_out)]

    train_pres = {pre for pre, _ in train}
    n_novel = int(round(n_queries * NOVEL_FRACTION))
    n_seen = n_queries - n_novel
    # queries drawn from training rule pairs (exact matches for a baseline),
    # which are the first n_rules pairs before the shuffle
    rule_train = [pair for pair, i in zip(train, perm) if i < n_rules]
    queries: list[tuple[str, str, bool]] = []
    for i in range(n_seen):
        pre, post = rule_train[int(rng.integers(len(rule_train)))]
        queries.append((pre, post, False))
    made = 0
    attempts = 0
    while made < n_novel and attempts < 100000:
        attempts += 1
        rule = RULES[(made + attempts) % len(RULES)]
        pre, post = make_rule_pair(rng, rule)
        if pre not in train_pres:
            queries.append((pre, post, True))
            made += 1
    if made < n_novel:
        raise RuntimeError("could not build enough novel queries")
    return Benchmark(train, held_out, queries)


# ---------------------------------------------------------------------------
# the release gate on the benchmark

# the release gate's training configuration
GATE_CONFIG = TrainingConfig(
    hidden_size=128, embed_size=64, max_epochs=50, minibatch_words=64,
    learning_rate=0.003, dropout=0.0, seed=1, decay_factor=0.9,
    dev_fraction=0.1, lex_weight=0.0)

# held-out exact match the gate requires, besides model F1 > baseline F1
GATE_MIN_EXACT = 0.90


@dataclass
class BenchmarkRun:
    """What run_benchmark measured.  results (the model's query outputs)
    and references let a threshold sweep re-threshold without decoding."""
    hits: int
    total: int
    model_report: EvalReport
    baseline_report: EvalReport
    results: list[GenerationResult]
    references: list[TokenizedStatement]
    params: ModelParameters
    src_vocab: Vocabulary
    tgt_vocab: Vocabulary
    logbook: TrainingLog
    train_seconds: float
    decode_seconds: float    # answering the held-out set and the queries
    seconds: float

    @property
    def exact(self) -> float:
        return self.hits / self.total

    @property
    def passed(self) -> bool:
        return (self.exact >= GATE_MIN_EXACT
                and self.model_report.f1 > self.baseline_report.f1)


def _abstracted(line: str) -> tuple[str, ...]:
    return abstract_arguments(tokenize(line))[0].tokens


def run_benchmark(bench: Benchmark, config: TrainingConfig) -> BenchmarkRun:
    """Train on bench's pairs, abstracted, with config; then score the
    model by exact match on the held-out pairs (no threshold) and by
    evaluate on the queries (at DEFAULT_THRESHOLD) against the
    exact-match baseline built from the same pairs."""
    started = time.monotonic()
    pairs = [(_abstracted(a), _abstracted(b)) for a, b in bench.train_pairs]
    src_vocab = Vocabulary.from_counts(
        Counter(t for s, _ in pairs for t in s), unk_threshold=0)
    tgt_vocab = Vocabulary.from_counts(
        Counter(t for _, t in pairs for t in t), unk_threshold=0)
    encoded = [(src_vocab.encode(s), tgt_vocab.encode(t, eos=True))
               for s, t in pairs]
    params, logbook = train(encoded, len(src_vocab), len(tgt_vocab), config)
    train_seconds = time.monotonic() - started

    model = ModelProposer(params, src_vocab, tgt_vocab)
    queries = [q for q, _, _ in bench.queries]
    decode_started = time.monotonic()
    held_out = answer_all([pre for pre, _ in bench.held_out], model, threshold=None)
    results = answer_all(queries, model, threshold=DEFAULT_THRESHOLD)
    decode_seconds = time.monotonic() - decode_started
    hits = sum(res.patch is not None
               and res.patch.tokens.tokens == tokenize(post).tokens
               for res, (_, post) in zip(held_out, bench.held_out))

    references = [tokenize(r) for _, r, _ in bench.queries]
    index = BaselineIndex.from_parallel([s for s, _ in pairs],
                                        [t for _, t in pairs])
    base_results = answer_all(queries, index, threshold=None)
    return BenchmarkRun(
        hits=hits, total=len(bench.held_out),
        model_report=evaluate(results, references, threshold=DEFAULT_THRESHOLD),
        baseline_report=evaluate(base_results, references),
        results=results, references=references, params=params,
        src_vocab=src_vocab, tgt_vocab=tgt_vocab, logbook=logbook,
        train_seconds=train_seconds, decode_seconds=decode_seconds,
        seconds=time.monotonic() - started)


# ---------------------------------------------------------------------------
# synthetic repository

def make_repo(
    seed: int = 11,
    n_train_pairs: int = 40,
    n_test_pairs: int = 12,
    test_year: int = 2015,
) -> dict:
    """In-memory repository description whose mined history yields rule
    pairs: each statement lives in its own one-method file, introduced
    in one commit and rewritten in a later fix commit."""
    rng = np.random.default_rng(seed)
    train_years = (test_year - 3, test_year - 2, test_year - 1)
    commits: list[dict] = []
    trees: dict[str, str] = {}
    clock = [0]

    def commit(year: int, message: str) -> dict:
        clock[0] += 1
        obj = {
            "id": f"c{clock[0]:04d}",
            "time": f"{year}-01-01T00:00:00+00:00",
            "message": message,
            "parents": [commits[-1]["id"]] if commits else [],
            "files": dict(trees),
        }
        commits.append(obj)
        return obj

    def file_body(index: int, stmt: str) -> str:
        return (f"public class F{index} {{\n"
                f"public void run ( ) {{\n"
                f"{stmt}\n"
                f"}}\n"
                f"}}\n")

    commit(train_years[0] - 1, "initial import")

    pairs = []
    for i in range(n_train_pairs):
        rule = RULES[i % len(RULES)]
        intro_year = int(train_years[int(rng.integers(len(train_years)))])
        fix_year = int(train_years[int(rng.integers(len(train_years)))])
        fix_year = max(fix_year, intro_year)
        pairs.append((i, rule, intro_year, fix_year))
    for j in range(n_test_pairs):
        i = n_train_pairs + j
        rule = RULES[i % len(RULES)]
        pairs.append((i, rule, test_year, test_year))
    # a couple of straddlers: introduced before the test year, fixed in it
    for k in range(3):
        i = n_train_pairs + n_test_pairs + k
        rule = RULES[i % len(RULES)]
        pairs.append((i, rule, train_years[-1], test_year))

    events: list[tuple[int, int, str, str, str]] = []
    for index, rule, intro_year, fix_year in pairs:
        pre, post = make_rule_pair(rng, rule)
        path = f"src/F{index}.java"
        events.append((intro_year, 0, path, file_body(index, pre),
                       f"add feature module {index}"))
        events.append((fix_year, 1, path, file_body(index, post),
                       f"fix defect in module {index}"))
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    for year, _, path, content, message in events:
        trees[path] = content
        commit(year, message)

    # delete-only noise: drop a statement from one file
    noisy = "src/N0.java"
    trees[noisy] = (f"public class N0 {{\npublic void run ( ) {{\n"
                    f"int unused = 1 ;\nreturn ;\n}}\n}}\n")
    commit(train_years[1], "add scratch file")
    trees[noisy] = f"public class N0 {{\npublic void run ( ) {{\nreturn ;\n}}\n}}\n"
    commit(train_years[2], "tidy scratch file")

    return {"commits": commits}
