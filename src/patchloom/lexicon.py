"""Token-correspondence lexicon via IBM Model-1 expectation
maximization, without a NULL word.

Ten EM iterations over the aligned corpus, then each source row is
truncated to its top 20 target entries and renormalized so rows sum to
one.  lexicon_to_ids turns the result into the model's LexiconTable,
which feeds the decoder's lexicon bias.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Hashable, Sequence

from .model import LexiconTable

DEFAULT_ITERATIONS = 10
DEFAULT_TOP = 20


def build_lexicon(
    pairs: Sequence[tuple[Sequence[Hashable], Sequence[Hashable]]],
    iterations: int = DEFAULT_ITERATIONS,
    top: int = DEFAULT_TOP,
) -> dict:
    """t(tgt | src) translation table from (src_seq, tgt_seq) pairs."""
    tgt_types: set = set()
    for _, tgt in pairs:
        tgt_types.update(tgt)
    if not tgt_types:
        return {}
    uniform = 1.0 / len(tgt_types)

    table: dict = defaultdict(dict)

    def prob(src_tok, tgt_tok) -> float:
        row = table.get(src_tok)
        if row is None:
            return uniform
        return row.get(tgt_tok, 0.0) if row else uniform

    for _ in range(iterations):
        counts: dict = defaultdict(lambda: defaultdict(float))
        for src, tgt in pairs:
            if not src or not tgt:
                continue
            for f in tgt:
                denom = 0.0
                for e in src:
                    denom += prob(e, f)
                if denom <= 0.0:
                    continue
                for e in src:
                    counts[e][f] += prob(e, f) / denom
        table = defaultdict(dict)
        for e, row in counts.items():
            total = sum(row.values())
            if total > 0.0:
                table[e] = {f: c / total for f, c in row.items()}

    # truncate and renormalize, with a canonical entry order
    final: dict = {}
    for e in sorted(table.keys(), key=repr):
        row = table[e]
        kept = sorted(row.items(), key=lambda item: (-item[1], repr(item[0])))[:top]
        total = sum(p for _, p in kept)
        if total <= 0.0:
            continue
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
