"""Token-correspondence lexicon via IBM Model-1 expectation
maximization, without a NULL word.

Ten EM iterations over the aligned corpus, then each source row is
truncated to its top 20 target entries and renormalized so rows sum to
one.  lexicon_to_ids turns the result into the model's LexiconTable,
which feeds the decoder's lexicon bias.

The EM runs over arrays.  Each pair with both sides non-empty
contributes one entry per (source position, target position), pairs in
corpus order and each pair target position by target position: the
order of the textbook triple loop.  Each distinct (source token, target
token) cell gets a number in the order the entries first reach it,
which is the order that loop inserts it into its source token's row.
An iteration gathers t(f | e) for every entry and makes three
np.bincount calls: each target position's denominator, each cell's
expected count, and each row's total.  np.bincount adds its weights one
at a time in input order, starting from 0.0, so each sum adds the same
floats in the same order as the loop's `+=` and its
`sum(row.values())`, and the table is bit-identical to the loop's.
np.sum and np.add.reduceat would change the bits, since they add
pairwise.  (From Python 3.12 on, sum() over floats compensates its
rounding, so there the loop itself gives other bits; these arrays do
not.)
"""

from __future__ import annotations

from itertools import chain, product
from typing import Hashable, NamedTuple, Sequence

import numpy as np

from .model import LexiconTable

DEFAULT_ITERATIONS = 10
DEFAULT_TOP = 20


class _Grid(NamedTuple):
    """The pairs with both sides non-empty as (source position x target
    position) entries in loop order, each naming its cell and its target
    position.  Cells are numbered in first-seen order, and so are the
    source tokens that name the rows."""
    cell: np.ndarray      # (K,) cell of each entry
    target: np.ndarray    # (K,) target position of each entry
    src_tokens: list      # source token of each row
    cell_row: np.ndarray  # (C,) row of each cell
    cell_tgt: list        # (C,) target token of each cell


class _Numbering(dict):
    """Numbers keys in first-seen order: a missing key gets len(self)."""

    def __missing__(self, key):
        self[key] = number = len(self)
        return number


def _grid(pairs) -> _Grid:
    used = [(src, tgt) for src, tgt in pairs if src and tgt]
    # product(tgt, src) walks a pair's entries in loop order
    cells = _Numbering()
    cell = np.fromiter(
        chain.from_iterable(map(cells.__getitem__, product(tgt, src)) for src, tgt in used),
        dtype=np.intp, count=sum(len(src) * len(tgt) for src, tgt in used))
    # each target position holds its pair's whole source side
    width = np.repeat(np.fromiter((len(src) for src, _ in used), np.intp, len(used)),
                      np.fromiter((len(tgt) for _, tgt in used), np.intp, len(used)))
    del used
    target = np.repeat(np.arange(len(width)), width)
    rows = _Numbering()
    cell_row = np.fromiter(map(rows.__getitem__, (e for _, e in cells)),
                           dtype=np.intp, count=len(cells))
    return _Grid(cell, target, list(rows), cell_row, [f for f, _ in cells])


def _iterate(grid: _Grid, t: np.ndarray, p: np.ndarray,
             denom: np.ndarray) -> np.ndarray:
    """One EM iteration: the next t(f | e) per cell from this one.  No
    division meets a 0: t starts uniform, and a positive t gives every
    target position a positive denominator, every cell a positive share
    of its target position's unit count and every row a positive total,
    so the next t is positive too.  p and denom are (K,) scratch
    buffers; mode="clip" spares np.take the copy of out that its default
    mode makes, and every index is in range."""
    np.take(t, grid.cell, out=p, mode="clip")
    # every target position has entries, so no minlength is needed
    np.take(np.bincount(grid.target, weights=p), grid.target, out=denom,
            mode="clip")
    np.divide(p, denom, out=p)
    counts = np.bincount(grid.cell, weights=p, minlength=len(t))
    totals = np.bincount(grid.cell_row, weights=counts,
                         minlength=len(grid.src_tokens))
    return counts / totals[grid.cell_row]


def build_lexicon(
    pairs: Sequence[tuple[Sequence[Hashable], Sequence[Hashable]]],
    iterations: int = DEFAULT_ITERATIONS,
    top: int = DEFAULT_TOP,
) -> dict:
    """t(tgt | src) translation table from (src_seq, tgt_seq) pairs."""
    grid = _grid(pairs)
    if not len(grid.cell) or iterations < 1:
        return {}       # no pair has both sides, or no iteration ran
    n_targets = len(set(chain.from_iterable(tgt for _, tgt in pairs)))
    t = np.full(len(grid.cell_row), 1.0 / n_targets)
    p = np.empty(len(grid.cell))
    denom = np.empty(len(grid.cell))
    for _ in range(iterations):
        t = _iterate(grid, t, p, denom)

    table: dict = {}
    for row, f, value in zip(grid.cell_row.tolist(), grid.cell_tgt, t.tolist()):
        table.setdefault(grid.src_tokens[row], {})[f] = value

    # truncate and renormalize, with a canonical entry order
    final: dict = {}
    for e in sorted(table.keys(), key=repr):
        row = table[e]
        kept = sorted(row.items(), key=lambda item: (-item[1], repr(item[0])))[:top]
        total = sum(p for _, p in kept)
        final[e] = {f: p / total for f, p in sorted(kept, key=lambda kv: repr(kv[0]))}
    return final


def lexicon_to_ids(lexicon: dict, src_vocab, tgt_vocab) -> LexiconTable | None:
    """Re-key a token lexicon by vocabulary ids, dropping rows and
    entries that fall outside the vocabularies; None when no row is
    left."""
    out: dict[int, dict[int, float]] = {}
    for src_tok, row in lexicon.items():
        if src_tok not in src_vocab:
            continue
        mapped = {tgt_vocab.index(t): p for t, p in row.items() if t in tgt_vocab}
        if not mapped:
            continue
        total = sum(mapped.values())
        out[src_vocab.index(src_tok)] = {t: p / total for t, p in mapped.items()}
    return LexiconTable.from_rows(out, len(src_vocab))
