"""Candidate patch generation and the pattern-matching baseline.

For a raw query line: tokenize, abstract arguments, decode with beam
search, then apply the NA rules in order: score below threshold,
identical to the abstracted query (checked before reinsertion, so a
structural fix to an argument position is not mistaken for identity),
or invalid after argument reinsertion.  Validity is recorded before
thresholding so validity rates can be computed from the same outputs.

The baseline looks the abstracted query up among training
pre-statements verbatim and answers with the recorded post-statement,
with the query's arguments reinserted; no score is attached.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .arguments import (
    VAL_TOKEN,
    AbstractionError,
    _placeholder_sites,
    abstract_arguments,
    reinsert_arguments,
)
from .decoding import beam_search
from .model import ModelParameters
from .parsing import validate_statement
from .tokenizer import TokenizedStatement, TokenizeError, tokenize
from .vocab import Vocabulary

DEFAULT_THRESHOLD = -0.7

NA_UNTOKENIZABLE = "untokenizable"
NA_LOW_SCORE = "low-score"
NA_IDENTICAL = "identical"
NA_INVALID = "invalid"
NA_NO_MATCH = "no-match"


@dataclass
class GeneratedPatch:
    tokens: TokenizedStatement
    score: float
    valid: bool
    source: str   # "model" or "baseline"


@dataclass
class GenerationResult:
    """One query's outcome, with enough detail to re-threshold later."""
    query: str
    source: str
    patch: GeneratedPatch | None = None
    na_reason: str | None = None
    score: float | None = None
    abstracted_output: tuple[str, ...] | None = None
    concrete_output: tuple[str, ...] | None = None
    valid: bool = False
    identical: bool = False
    finished: bool = True
    unfilled_val_sites: int = 0

    def to_json_obj(self) -> dict:
        return {
            "query": self.query,
            "patch": " ".join(self.patch.tokens.tokens) if self.patch else None,
            "score": self.score,
            "valid": self.valid,
            "na_reason": self.na_reason,
            "source": self.source,
        }


def _finalize(result: GenerationResult, threshold: float | None) -> GenerationResult:
    """Apply the NA rules to an already-decoded result."""
    if result.na_reason == NA_UNTOKENIZABLE:
        return result
    if threshold is not None and result.score is not None and result.score < threshold:
        result.patch = None
        result.na_reason = NA_LOW_SCORE
        return result
    if result.identical:
        result.patch = None
        result.na_reason = NA_IDENTICAL
        return result
    if not result.valid:
        result.patch = None
        result.na_reason = NA_INVALID
        return result
    result.na_reason = None
    result.patch = GeneratedPatch(
        tokens=TokenizedStatement(result.concrete_output, result.query),
        score=result.score if result.score is not None else 0.0,
        valid=True,
        source=result.source,
    )
    return result


def generate(
    query: str,
    params: ModelParameters,
    src_vocab: Vocabulary,
    tgt_vocab: Vocabulary,
    threshold: float | None = DEFAULT_THRESHOLD,
    beam_size: int = 10,
    max_len: int = 100,
) -> GenerationResult:
    """The model's patch for one query, or the reason there is none."""
    result = GenerationResult(query=query, source="model")
    try:
        query_tok = tokenize(query)
        query_abs, query_args = abstract_arguments(query_tok)
    except (TokenizeError, AbstractionError):
        result.na_reason = NA_UNTOKENIZABLE
        result.valid = False
        return result

    src_ids = src_vocab.encode(list(query_abs.tokens))
    hyps = beam_search(params, src_ids, beam_size=beam_size, max_len=max_len)
    best = hyps[0]
    out_tokens = tuple(tgt_vocab.decode(best.output_ids))
    result.score = float(best.log_prob)
    result.finished = best.finished
    result.abstracted_output = out_tokens
    result.identical = out_tokens == query_abs.tokens

    concrete = reinsert_arguments(
        TokenizedStatement(out_tokens, query), query_args)
    result.concrete_output = concrete.tokens
    sites = _placeholder_sites(list(out_tokens))
    val_sites = sum(1 for _, kind, _ in sites if kind == VAL_TOKEN)
    val_avail = sum(1 for e in query_args.entries if e.kind == VAL_TOKEN)
    result.unfilled_val_sites = max(0, val_sites - val_avail)
    result.valid = (
        best.finished
        and len(concrete.tokens) > 0
        and validate_statement(concrete)
    )
    return _finalize(result, threshold)


def rethreshold(result: GenerationResult, threshold: float | None) -> GenerationResult:
    """Re-apply the NA rules at a different threshold using cached
    decoder output; no model call involved."""
    clone = GenerationResult(**{k: getattr(result, k) for k in (
        "query", "source", "score", "abstracted_output", "concrete_output",
        "valid", "identical", "finished", "unfilled_val_sites")})
    if result.na_reason == NA_UNTOKENIZABLE:
        clone.na_reason = NA_UNTOKENIZABLE
        return clone
    if result.source == "baseline" and result.na_reason == NA_NO_MATCH:
        clone.na_reason = NA_NO_MATCH
        return clone
    return _finalize(clone, threshold)


class BaselineIndex:
    """Exact-match lookup from abstracted pre-statements to their
    selected post-statements, as token tuples."""

    def __init__(self, entries: dict[tuple[str, ...], tuple[str, ...]]):
        self.entries = dict(entries)

    @classmethod
    def from_parallel(cls, src_lines: list[list[str]], tgt_lines: list[list[str]]) -> "BaselineIndex":
        entries: dict[tuple[str, ...], tuple[str, ...]] = {}
        for src, tgt in zip(src_lines, tgt_lines):
            entries.setdefault(tuple(src), tuple(tgt))
        return cls(entries)

    def __len__(self) -> int:
        return len(self.entries)


def baseline_suggest(query: str, index: BaselineIndex) -> GenerationResult:
    result = GenerationResult(query=query, source="baseline")
    try:
        query_tok = tokenize(query)
        query_abs, query_args = abstract_arguments(query_tok)
    except (TokenizeError, AbstractionError):
        result.na_reason = NA_UNTOKENIZABLE
        return result
    post = index.entries.get(query_abs.tokens)
    if post is None:
        result.na_reason = NA_NO_MATCH
        return result
    result.abstracted_output = post
    result.identical = post == query_abs.tokens
    concrete = reinsert_arguments(TokenizedStatement(post, query), query_args)
    result.concrete_output = concrete.tokens
    result.valid = len(concrete.tokens) > 0 and validate_statement(concrete)
    return _finalize(result, threshold=None)


def write_results(path: str, results: list[GenerationResult]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for result in results:
            fh.write(json.dumps(result.to_json_obj(), sort_keys=True) + "\n")
