"""Candidate patch generation and the pattern-matching baseline.

Model and baseline answer a list of raw query lines along one path,
`answer_all`: tokenize and abstract each query once (NA untokenizable
when that fails or leaves no token), hand the abstracted list to a
proposer in one call, then, for each query, take the proposer's
abstracted output (none: NA no-match), reinsert the query's arguments
and validate.  `ModelProposer` proposes each query's best hypothesis
and its score from one beam_search over the whole list;
`BaselineIndex` proposes, with no score, the post-statement recorded for
the abstracted query among training pre-statements.  `generate` and
`baseline_suggest` answer a list of one.

`_finalize` alone settles an output's NA reason, by these rules in
order: score below threshold, identical to the abstracted query (checked
before reinsertion, so a structural fix to an argument position is not
mistaken for identity), or invalid after reinsertion.  Validity is
recorded before thresholding, and `rethreshold` re-runs `_finalize`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable

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
NA_REASONS = (NA_UNTOKENIZABLE, NA_LOW_SCORE, NA_IDENTICAL, NA_INVALID, NA_NO_MATCH)


@dataclass
class GeneratedPatch:
    tokens: TokenizedStatement


@dataclass
class GenerationResult:
    """One query's outcome, with enough detail to re-threshold later."""
    query: str
    source: str
    patch: GeneratedPatch | None = None
    na_reason: str | None = None
    score: float | None = None
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

    @classmethod
    def from_json_obj(cls, obj: dict) -> "GenerationResult":
        """Raises KeyError, TypeError or ValueError on an object that
        to_json_obj cannot have written."""
        if not isinstance(obj["query"], str):
            raise TypeError("query is not a string")
        if obj["source"] not in ("model", "baseline"):
            raise ValueError(f"source {obj['source']!r} is neither model nor baseline")
        if obj["na_reason"] not in (None, *NA_REASONS):
            raise ValueError(f"unknown na_reason {obj['na_reason']!r}")
        if obj["patch"] is not None and not isinstance(obj["patch"], str):
            raise TypeError("patch is neither a string nor null")
        if (obj["patch"] is None) == (obj["na_reason"] is None):
            raise ValueError("exactly one of patch and na_reason must be set")
        score = obj["score"]
        if score is not None and (isinstance(score, bool)
                                  or not isinstance(score, (int, float))):
            raise TypeError("score is neither a number nor null")
        if not isinstance(obj["valid"], bool):
            raise TypeError("valid is not a boolean")
        if obj["patch"] is not None and not obj["valid"]:
            raise ValueError("a patch is never invalid")
        result = cls(query=obj["query"], source=obj["source"],
                     na_reason=obj["na_reason"], score=score, valid=obj["valid"])
        if obj["patch"] is not None:
            result.concrete_output = tuple(obj["patch"].split())
            result.patch = GeneratedPatch(TokenizedStatement(result.concrete_output))
        return result


def _finalize(result: GenerationResult, threshold: float | None) -> GenerationResult:
    """Settle the NA reason and the patch of a proposed output.  An
    untokenizable or unmatched query has no output to judge."""
    if result.na_reason in (NA_UNTOKENIZABLE, NA_NO_MATCH):
        return result
    if threshold is not None and result.score is not None and result.score < threshold:
        result.na_reason = NA_LOW_SCORE
    elif result.identical:
        result.na_reason = NA_IDENTICAL
    elif not result.valid:
        result.na_reason = NA_INVALID
    else:
        result.na_reason = None
    result.patch = (None if result.na_reason is not None else
                    GeneratedPatch(TokenizedStatement(result.concrete_output)))
    return result


def answer_all(queries: list[str], propose_many: Callable,
               threshold: float | None) -> list[GenerationResult]:
    """The answers to queries, in order.  Each query is tokenized and
    abstracted once; a query that fails, or has no tokens, is NA
    untokenizable and reaches no proposer.  propose_many maps the list of
    the other queries' abstracted tokens to one proposal each, (abstracted
    output, score, finished) or None when it has no output, and names its
    answers' source in propose_many.source."""
    results, pending = [], []
    for query in queries:
        result = GenerationResult(query=query, source=propose_many.source)
        results.append(result)
        try:
            query_abs, query_args = abstract_arguments(tokenize(query))
        except (TokenizeError, AbstractionError):
            query_abs = None
        if query_abs is None or not query_abs.tokens:
            result.na_reason = NA_UNTOKENIZABLE
        else:
            pending.append((result, query_abs, query_args))
    proposals = propose_many([query_abs.tokens for _, query_abs, _ in pending])
    for (result, query_abs, query_args), proposal in zip(pending, proposals):
        if proposal is None:
            result.na_reason = NA_NO_MATCH
            continue
        out_tokens, result.score, result.finished = proposal
        result.identical = out_tokens == query_abs.tokens
        concrete = reinsert_arguments(TokenizedStatement(out_tokens), query_args)
        result.concrete_output = concrete.tokens
        sites = _placeholder_sites(list(out_tokens))
        val_sites = sum(1 for _, kind, _ in sites if kind == VAL_TOKEN)
        val_avail = sum(1 for e in query_args.entries if e.kind == VAL_TOKEN)
        result.unfilled_val_sites = max(0, val_sites - val_avail)
        result.valid = (
            result.finished
            and len(concrete.tokens) > 0
            and validate_statement(concrete)
        )
        _finalize(result, threshold)
    return results


@dataclass(frozen=True)
class ModelProposer:
    """Proposes each query's best beam-search hypothesis and its score,
    decoding the whole list in one beam_search call."""

    params: ModelParameters
    src_vocab: Vocabulary
    tgt_vocab: Vocabulary
    beam_size: int = 10
    max_len: int = 100
    source = "model"

    def __call__(self, queries_abs: list[tuple[str, ...]]) -> list[tuple]:
        sources = [self.src_vocab.encode(list(q)) for q in queries_abs]
        return [(tuple(self.tgt_vocab.decode(hyps[0].output_ids)),
                 float(hyps[0].log_prob), hyps[0].finished)
                for hyps in beam_search(self.params, sources, beam_size=self.beam_size,
                                        max_len=self.max_len)]


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
    proposer = ModelProposer(params, src_vocab, tgt_vocab, beam_size, max_len)
    return answer_all([query], proposer, threshold)[0]


def rethreshold(result: GenerationResult, threshold: float | None) -> GenerationResult:
    """Re-apply the NA rules at a different threshold using cached
    decoder output; no model call involved."""
    return _finalize(replace(result), threshold)


class BaselineIndex:
    """Exact-match lookup from abstracted pre-statements to their
    selected post-statements, as token tuples; called on a list of
    abstracted queries, it is the baseline's proposer for answer_all."""

    source = "baseline"

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

    def __call__(self, queries_abs: list[tuple[str, ...]]) -> list[tuple | None]:
        posts = [self.entries.get(q) for q in queries_abs]
        return [None if post is None else (post, None, True) for post in posts]


def baseline_suggest(query: str, index: BaselineIndex) -> GenerationResult:
    """The post-statement recorded for the query's abstracted form, with
    the query's arguments reinserted, or the reason there is none."""
    return answer_all([query], index, threshold=None)[0]


def write_results(path: str, results: list[GenerationResult]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for result in results:
            fh.write(json.dumps(result.to_json_obj(), sort_keys=True) + "\n")


class ResultFormatError(ValueError):
    """A patches.jsonl line that write_results cannot have written."""


def read_results(path: str) -> list[GenerationResult]:
    results = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                try:
                    results.append(GenerationResult.from_json_obj(
                        json.loads(line.decode("utf-8"))))
                except (KeyError, TypeError, ValueError) as exc:
                    raise ResultFormatError(
                        f"{path}:{lineno}: not a generation result ({exc!r})") from None
    return results
