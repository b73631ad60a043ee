"""Outcome classification, metrics, threshold sweeps, and reports.

Outcomes follow the four-way taxonomy: Correct (token-identical to the
concrete reference), ArgIncorrect (identical once both sides are
argument-abstracted), Incorrect, NA.  precision = correct / provided
where provided counts all non-NA answers; recall = correct / queries;
F1 is their harmonic mean.  When correct == 0 the ratios degenerate
(F1 is 0/0), so reports carry an `undefined` flag and render the
affected cells as "--"; machine-readable output keeps 0.0 there.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass

from .arguments import AbstractionError, abstract_arguments
from .generation import GenerationResult, rethreshold
from .tokenizer import TokenizedStatement

log = logging.getLogger(__name__)

CORRECT = "Correct"
ARG_INCORRECT = "ArgIncorrect"
INCORRECT = "Incorrect"
NA = "NA"

OUTCOMES = (CORRECT, ARG_INCORRECT, INCORRECT, NA)

DEFAULT_SWEEP = [round(-1.2 + 0.1 * i, 1) for i in range(12)]  # -1.2 .. -0.1


@dataclass
class EvalReport:
    correct: int
    arg_incorrect: int
    incorrect: int
    na: int
    n_queries: int
    precision: float
    recall: float
    f1: float
    undefined: bool
    threshold: float | None = None
    category_filter: str = "all"
    bugfix_filter: str = "all"

    @property
    def provided(self) -> int:
        return self.correct + self.arg_incorrect + self.incorrect

    def as_dict(self) -> dict:
        return {
            "correct": self.correct,
            "arg_incorrect": self.arg_incorrect,
            "incorrect": self.incorrect,
            "na": self.na,
            "n_queries": self.n_queries,
            "provided": self.provided,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "undefined": self.undefined,
            "threshold": self.threshold,
            "category_filter": self.category_filter,
            "bugfix_filter": self.bugfix_filter,
        }


def _abstract_tokens(tokens: tuple[str, ...]) -> tuple[str, ...] | None:
    try:
        abstracted, _ = abstract_arguments(TokenizedStatement(tokens))
        return abstracted.tokens
    except AbstractionError:
        return None


def classify_output(
    result: GenerationResult, reference: TokenizedStatement
) -> str:
    """reference must be concrete (arguments present)."""
    if result.patch is None:
        return NA
    patch_tokens = result.patch.tokens.tokens
    if patch_tokens == reference.tokens:
        return CORRECT
    patch_abs = _abstract_tokens(patch_tokens)
    ref_abs = _abstract_tokens(reference.tokens)
    if patch_abs is not None and ref_abs is not None and patch_abs == ref_abs:
        return ARG_INCORRECT
    return INCORRECT


def compute_metrics(
    outcomes: list[str],
    threshold: float | None = None,
    category_filter: str = "all",
    bugfix_filter: str = "all",
) -> EvalReport:
    counts = {o: 0 for o in OUTCOMES}
    for o in outcomes:
        counts[o] += 1
    return metrics_from_counts(
        counts[CORRECT], counts[ARG_INCORRECT], counts[INCORRECT], counts[NA],
        threshold=threshold, category_filter=category_filter,
        bugfix_filter=bugfix_filter)


def metrics_from_counts(
    correct: int, arg_incorrect: int, incorrect: int, na: int,
    threshold: float | None = None,
    category_filter: str = "all",
    bugfix_filter: str = "all",
) -> EvalReport:
    n = correct + arg_incorrect + incorrect + na
    provided = correct + arg_incorrect + incorrect
    precision = correct / provided if provided > 0 else 0.0
    recall = correct / n if n > 0 else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall > 0 else 0.0)
    return EvalReport(
        correct=correct, arg_incorrect=arg_incorrect, incorrect=incorrect,
        na=na, n_queries=n, precision=precision, recall=recall, f1=f1,
        undefined=(correct == 0), threshold=threshold,
        category_filter=category_filter, bugfix_filter=bugfix_filter)


def evaluate(
    results: list[GenerationResult],
    references: list[TokenizedStatement],
    categories: list[str] | None = None,
    bugfix_flags: list[bool] | None = None,
    category_filter: str = "all",
    bugfix_filter: str = "all",
    threshold: float | None = None,
) -> EvalReport:
    if len(results) != len(references):
        raise ValueError("results and references differ in length")
    outcomes = []
    for i, (result, ref) in enumerate(zip(results, references)):
        if categories is not None and category_filter != "all" \
                and categories[i] != category_filter:
            continue
        if bugfix_flags is not None and bugfix_filter != "all":
            want = bugfix_filter == "bugfix"
            if bugfix_flags[i] != want:
                continue
        outcomes.append(classify_output(result, ref))
    return compute_metrics(outcomes, threshold=threshold,
                           category_filter=category_filter,
                           bugfix_filter=bugfix_filter)


def sweep_thresholds(
    results: list[GenerationResult],
    references: list[TokenizedStatement],
    thresholds: list[float] = DEFAULT_SWEEP,
) -> list[tuple[float, EvalReport]]:
    """One evaluation per threshold from cached decoder outputs."""
    out = []
    for threshold in thresholds:
        adjusted = [rethreshold(r, threshold) for r in results]
        out.append((threshold, evaluate(adjusted, references, threshold=threshold)))
    return out


def validity_rate(results: list[GenerationResult]) -> float:
    """Fraction of parseable, complete outputs among all queries;
    meaningful when results were produced without a threshold."""
    if not results:
        return 0.0
    return sum(1 for r in results if r.valid) / len(results)


# ---------------------------------------------------------------------------
# report emission

def _fmt(value: float, undefined: bool) -> str:
    return "--" if undefined else f"{value:.2f}"


def render_table(rows: list[tuple[str, EvalReport]]) -> str:
    header = (f"{'project':<16} {'filter':<10} {'thr':>5} {'C':>5} {'AI':>5} "
              f"{'I':>5} {'NA':>5} {'n':>5} {'P':>6} {'R':>6} {'F1':>6}")
    lines = [header, "-" * len(header)]
    for name, rep in rows:
        thr = f"{rep.threshold:.1f}" if rep.threshold is not None else "-"
        lines.append(
            f"{name:<16} {rep.category_filter:<10} {thr:>5} {rep.correct:>5} "
            f"{rep.arg_incorrect:>5} {rep.incorrect:>5} {rep.na:>5} "
            f"{rep.n_queries:>5} {_fmt(rep.precision, rep.undefined):>6} "
            f"{_fmt(rep.recall, rep.undefined):>6} {_fmt(rep.f1, rep.undefined):>6}")
    return "\n".join(lines)


def write_report_csv(path: str, rows: list[tuple[str, EvalReport]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["project", "filter", "threshold", "correct",
                         "arg_incorrect", "incorrect", "na",
                         "precision", "recall", "f1"])
        for name, rep in rows:
            writer.writerow([
                name, rep.category_filter,
                "" if rep.threshold is None else rep.threshold,
                rep.correct, rep.arg_incorrect, rep.incorrect, rep.na,
                f"{rep.precision:.4f}", f"{rep.recall:.4f}", f"{rep.f1:.4f}"])


def write_report_json(path: str, rows: list[tuple[str, EvalReport]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([{"project": name, **rep.as_dict()} for name, rep in rows],
                  fh, indent=2)


def write_sweep_csv(
    path: str, sweep: list[tuple[float, EvalReport]], baseline: EvalReport | None
) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "f1_model", "f1_baseline"])
        for threshold, rep in sweep:
            base = f"{baseline.f1:.4f}" if baseline is not None else ""
            writer.writerow([threshold, f"{rep.f1:.4f}", base])
