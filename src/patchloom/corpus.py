"""Corpus construction: pair filtering, post selection, chronological
split, rare-token replacement, and unknown-token categorization.

The pipeline over mined hunks is:

  (1) keep 1-deleted / 1-added hunks          (single-statement changes)
  (2) tokenize both sides
  (3) drop statements shorter than 3 tokens
  (4) abstract method/array arguments
  (5) drop statements that fail parse validation
  --- chronological split ---
  (6) per unique pre, keep one post (train side only)
  (7) drop pairs whose abstracted pre equals the post

Rare-token replacement (count == 1 -> <unk>) applies to the training
corpus per side after step (7).  Test pairs keep their raw tokens; they
are categorized against the training vocabularies instead:

  NU  no unknown token on either side
  UQ  some query token outside the source vocabulary (takes precedence)
  UR  query fully known, some reference token outside the target one
"""

from __future__ import annotations

import logging
import os
from collections import Counter
from dataclasses import dataclass, replace
from typing import Collection, Iterable

from .arguments import ArgumentTable, abstract_arguments, AbstractionError, reinsert_arguments
from .mining import ChangeHunk
from .parsing import validate_statement
from .tokenizer import TokenizedStatement, TokenizeError, tokenize
from .vocab import UNK, Vocabulary

log = logging.getLogger(__name__)

MIN_TOKENS = 3

CATEGORY_NU = "NU"
CATEGORY_UQ = "UQ"
CATEGORY_UR = "UR"
CATEGORY_UNASSIGNED = "unassigned"


class CorpusError(RuntimeError):
    pass


@dataclass(frozen=True)
class StatementPair:
    pre: TokenizedStatement
    post: TokenizedStatement
    pre_args: ArgumentTable
    post_args: ArgumentTable
    commit_pre_origin: str
    commit_post: str
    year_pre: int
    year_post: int
    bugfix: bool = False
    category: str = CATEGORY_UNASSIGNED

    @property
    def concrete_pre(self) -> TokenizedStatement:
        return reinsert_arguments(self.pre, self.pre_args)

    @property
    def concrete_post(self) -> TokenizedStatement:
        return reinsert_arguments(self.post, self.post_args)


@dataclass
class Corpus:
    pairs: list[StatementPair]
    src_vocab: Vocabulary
    tgt_vocab: Vocabulary


class PipelineLedger:
    """Step-by-step filtering counts in the shape of a data-reduction
    table: each step records how many candidates it dropped."""

    def __init__(self, initial: int = 0):
        self.initial = initial
        self.steps: list[tuple[str, int]] = []

    def drop(self, step: str, count: int) -> None:
        self.steps.append((step, count))

    @property
    def surviving(self) -> int:
        return self.initial - sum(c for _, c in self.steps)

    def rows(self) -> list[dict]:
        rows = []
        for step, count in self.steps:
            pct = 100.0 * count / self.initial if self.initial else 0.0
            rows.append({"step": step, "dropped": count, "pct": round(pct, 1)})
        pct = 100.0 * self.surviving / self.initial if self.initial else 0.0
        rows.append({"step": "surviving", "dropped": self.surviving, "pct": round(pct, 1)})
        return rows

    def as_dict(self) -> dict:
        return {"initial": self.initial, "rows": self.rows()}


# ---------------------------------------------------------------------------
# steps (1)-(5)

def build_pairs(
    hunks: Iterable[ChangeHunk],
    fix_commits: Collection[str] = frozenset(),
    require_method_scope: bool = True,
    ledger: PipelineLedger | None = None,
) -> list[StatementPair]:
    """Steps (1)-(5) over mined hunks, in canonical order.  A pair is a
    bug fix when its fixing commit is in fix_commits: its deleted line
    blames to commit_pre_origin, so that is exactly when SZZ links the
    fix to the commit that induced the bug."""
    hunks = list(hunks)
    if ledger is None:
        ledger = PipelineLedger()
    ledger.initial = len(hunks)

    pair_hunks = [h for h in hunks if h.deleted_lines and h.added_lines]
    ledger.drop("delete-only or add-only hunk", len(hunks) - len(pair_hunks))

    if require_method_scope:
        scoped = [h for h in pair_hunks if h.method_scoped]
        ledger.drop("outside a single method body", len(pair_hunks) - len(scoped))
    else:
        scoped = pair_hunks

    single = [h for h in scoped if len(h.deleted_lines) == 1 and len(h.added_lines) == 1]
    ledger.drop("multi-statement change", len(scoped) - len(single))

    pairs: list[StatementPair] = []
    n_tokenize = n_short = n_abstract = n_parse = 0
    for hunk in single:
        try:
            pre_tok = tokenize(hunk.deleted_lines[0])
            post_tok = tokenize(hunk.added_lines[0])
        except TokenizeError:
            n_tokenize += 1
            continue
        if len(pre_tok.tokens) < MIN_TOKENS or len(post_tok.tokens) < MIN_TOKENS:
            n_short += 1
            continue
        try:
            pre_abs, pre_args = abstract_arguments(pre_tok)
            post_abs, post_args = abstract_arguments(post_tok)
        except AbstractionError:
            n_abstract += 1
            continue
        if not (validate_statement(pre_abs) and validate_statement(post_abs)):
            n_parse += 1
            continue
        pairs.append(StatementPair(
            pre=pre_abs,
            post=post_abs,
            pre_args=pre_args,
            post_args=post_args,
            commit_pre_origin=hunk.commit_pre_origin,
            commit_post=hunk.commit_post,
            year_pre=hunk.year_pre,
            year_post=hunk.year_post,
            bugfix=hunk.commit_post in fix_commits,
        ))
    ledger.drop("tokenization failure", n_tokenize)
    ledger.drop("shorter than 3 tokens", n_short)
    ledger.drop("argument abstraction failure", n_abstract)
    ledger.drop("parse validation failure", n_parse)
    return _canonical_order(pairs)


def _canonical_order(pairs: list[StatementPair]) -> list[StatementPair]:
    return sorted(pairs, key=lambda p: (
        p.year_post, p.commit_post, p.pre.serialized(), p.post.serialized()
    ))


# ---------------------------------------------------------------------------
# step (6)

def select_post_correction(pairs: list[StatementPair]) -> list[StatementPair]:
    """One pair per unique abstracted pre: posts from the most recent
    year, then the most frequent over the whole group, then the
    alphabetically first."""
    groups: dict[tuple[str, ...], list[StatementPair]] = {}
    for pair in pairs:
        groups.setdefault(pair.pre.tokens, []).append(pair)
    selected = []
    for key in groups:
        group = groups[key]
        max_year = max(p.year_post for p in group)
        freq = Counter(p.post.tokens for p in group)
        candidates = {p.post.tokens for p in group if p.year_post == max_year}
        winner = min(candidates, key=lambda t: (-freq[t], " ".join(t)))
        carriers = [
            p for p in group
            if p.post.tokens == winner and p.year_post == max_year
        ]
        selected.append(min(
            carriers, key=lambda p: (p.commit_post, p.commit_pre_origin)
        ))
    return _canonical_order(selected)


# ---------------------------------------------------------------------------
# step (7)

def drop_identical(pairs: list[StatementPair]) -> list[StatementPair]:
    return [p for p in pairs if p.pre.tokens != p.post.tokens]


# ---------------------------------------------------------------------------
# rare tokens

def replace_rare(corpus: Corpus, unk_threshold: int = 1) -> Corpus:
    """Per-side singleton replacement and final vocabularies."""
    src_counts = Counter(t for p in corpus.pairs for t in p.pre.tokens)
    tgt_counts = Counter(t for p in corpus.pairs for t in p.post.tokens)
    src_vocab = Vocabulary.from_counts(src_counts, unk_threshold)
    tgt_vocab = Vocabulary.from_counts(tgt_counts, unk_threshold)

    def sub(tokens: tuple[str, ...], vocab: Vocabulary) -> tuple[str, ...]:
        return tuple(t if t in vocab else UNK for t in tokens)

    new_pairs = []
    for p in corpus.pairs:
        new_pairs.append(replace(
            p,
            pre=TokenizedStatement(sub(p.pre.tokens, src_vocab)),
            post=TokenizedStatement(sub(p.post.tokens, tgt_vocab)),
        ))
    return Corpus(new_pairs, src_vocab, tgt_vocab)


# ---------------------------------------------------------------------------
# categorization

def categorize(
    pair: StatementPair, src_vocab: Vocabulary, tgt_vocab: Vocabulary
) -> str:
    if any(t not in src_vocab for t in pair.pre.tokens):
        return CATEGORY_UQ
    if any(t not in tgt_vocab for t in pair.post.tokens):
        return CATEGORY_UR
    return CATEGORY_NU


# ---------------------------------------------------------------------------
# chronological split and orchestration

def split_chronological(
    pairs: list[StatementPair],
    test_year: int,
    unk_threshold: int = 1,
    ledger: PipelineLedger | None = None,
) -> tuple[Corpus, list[StatementPair]]:
    """Train on pairs completed before test_year, test on pairs created
    and fixed inside it; straddling pairs are excluded."""
    train_raw = [p for p in pairs if p.year_post < test_year]
    test_raw = [
        p for p in pairs
        if p.year_pre == test_year and p.year_post == test_year
    ]
    if ledger is not None:
        excluded = len(pairs) - len(train_raw) - len(test_raw)
        ledger.drop("straddling or post-test-year", excluded)

    train_selected = select_post_correction(train_raw)
    train_pairs = drop_identical(train_selected)
    if ledger is not None:
        ledger.drop("duplicate pre-statement (train)", len(train_raw) - len(train_selected))
        ledger.drop("identical pre/post (train)", len(train_selected) - len(train_pairs))

    test_pairs = drop_identical(test_raw)
    if ledger is not None:
        ledger.drop("identical pre/post (test)", len(test_raw) - len(test_pairs))

    if not train_pairs:
        raise CorpusError(f"no training pairs before year {test_year}")
    if not test_pairs:
        raise CorpusError(f"no test pairs inside year {test_year}")

    train = replace_rare(
        Corpus(train_pairs, Vocabulary(), Vocabulary()), unk_threshold
    )
    test_final = [
        replace(p, category=categorize(p, train.src_vocab, train.tgt_vocab))
        for p in test_pairs
    ]
    return train, test_final


# ---------------------------------------------------------------------------
# on-disk corpus

def write_corpus(dirpath: str, train: Corpus, test: list[StatementPair],
                 ledger: PipelineLedger | None = None) -> None:
    os.makedirs(dirpath, exist_ok=True)

    def dump(name: str, lines: Iterable[str]) -> None:
        with open(os.path.join(dirpath, name), "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")

    dump("train.src", (p.pre.serialized() for p in train.pairs))
    dump("train.tgt", (p.post.serialized() for p in train.pairs))
    dump("train.meta.tsv", _meta_rows(train.pairs, with_category=False))
    dump("test.src", (p.pre.serialized() for p in test))
    dump("test.tgt", (p.post.serialized() for p in test))
    dump("test.meta.tsv", _meta_rows(test, with_category=True))
    dump("test.queries", (p.concrete_pre.serialized() for p in test))
    dump("test.refs", (p.concrete_post.serialized() for p in test))
    train.src_vocab.save(os.path.join(dirpath, "vocab.src.json"))
    train.tgt_vocab.save(os.path.join(dirpath, "vocab.tgt.json"))
    if ledger is not None:
        import json
        with open(os.path.join(dirpath, "ledger.json"), "w", encoding="utf-8") as fh:
            json.dump(ledger.as_dict(), fh, indent=2)


def _meta_rows(pairs: list[StatementPair], with_category: bool) -> Iterable[str]:
    header = ["pair_id", "commit_pre_origin", "commit_post",
              "year_pre", "year_post", "bugfix"]
    if with_category:
        header.append("category")
    yield "\t".join(header)
    for i, p in enumerate(pairs):
        row = [str(i), p.commit_pre_origin, p.commit_post,
               str(p.year_pre), str(p.year_post), "1" if p.bugfix else "0"]
        if with_category:
            row.append(p.category)
        yield "\t".join(row)


def read_parallel(dirpath: str, prefix: str) -> tuple[list[list[str]], list[list[str]]]:
    """Aligned token lists from <prefix>.src / <prefix>.tgt."""
    def slurp(name: str) -> list[list[str]]:
        path = os.path.join(dirpath, name)
        with open(path, encoding="utf-8") as fh:
            try:
                return [line.split() for line in fh.read().splitlines()]
            except UnicodeDecodeError as exc:
                raise CorpusError(f"{path}: not UTF-8 text ({exc})") from None

    src = slurp(f"{prefix}.src")
    if [] in src:
        raise CorpusError(f"{os.path.join(dirpath, prefix)}.src:"
                          f"{src.index([]) + 1}: empty source line")
    tgt = slurp(f"{prefix}.tgt")
    if len(src) != len(tgt):
        raise CorpusError(f"{os.path.join(dirpath, prefix)}.src and .tgt differ: "
                          f"{len(src)} vs {len(tgt)} lines")
    return src, tgt
