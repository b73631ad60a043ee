"""Alignment-free translation table estimation.

The reference oracle below is an independent expectation-maximization
implementation written directly from the co-occurrence update rule: it
keeps full dense tables and no truncation, so agreement with the
package version is a real cross-check, not a restatement.
"""

from collections import defaultdict

import pytest

from patchloom.lexicon import build_lexicon, lexicon_to_ids
from patchloom.vocab import UNK_ID, Vocabulary

PAIRS = [
    (["return", "this", ".", "height", ";"], ["return", "height", ";"]),
    (["return", "this", ".", "width", ";"], ["return", "width", ";"]),
    (["int", "height", "=", "0", ";"], ["int", "height", "=", "0", ";"]),
    (["log", ".", "warn", "(", "arg", ")", ";"],
     ["log", ".", "error", "(", "arg", ")", ";"]),
]


def reference_em(pairs, iterations):
    tgt_types = sorted({f for _, tgt in pairs for f in tgt})
    uniform = 1.0 / len(tgt_types)
    table = {}

    def prob(e, f):
        if e not in table:
            return uniform
        return table[e].get(f, 0.0)

    for _ in range(iterations):
        counts = defaultdict(lambda: defaultdict(float))
        for src, tgt in pairs:
            if not src or not tgt:
                continue
            for f in tgt:
                denom = sum(prob(e, f) for e in src)
                if denom <= 0.0:
                    continue
                for e in src:
                    counts[e][f] += prob(e, f) / denom
        table = {}
        for e, row in counts.items():
            total = sum(row.values())
            table[e] = {f: c / total for f, c in row.items()}
    return table


@pytest.mark.parametrize("iterations", [1, 3, 10])
def test_matches_reference_em(iterations):
    got = build_lexicon(PAIRS, iterations=iterations, top=10_000)
    want = reference_em(PAIRS, iterations)
    assert set(got) == set(want)
    for e in want:
        assert set(got[e]) == set(want[e])
        for f in want[e]:
            assert got[e][f] == pytest.approx(want[e][f], abs=1e-12)


def test_identity_corpus_converges_to_identity():
    pairs = [(list("ab"), list("ab")), (list("bc"), list("bc")),
             (list("ca"), list("ca"))]
    table = build_lexicon(pairs, iterations=25)
    for tok in "abc":
        assert table[tok][tok] > 0.999


def test_rows_are_distributions():
    table = build_lexicon(PAIRS, iterations=5)
    for row in table.values():
        assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(p > 0.0 for p in row.values())


def test_truncation_keeps_largest_and_renormalizes():
    full = build_lexicon(PAIRS, iterations=5, top=10_000)
    trimmed = build_lexicon(PAIRS, iterations=5, top=2)
    for e, row in trimmed.items():
        assert len(row) <= 2
        assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)
        kept = set(row)
        dropped = set(full[e]) - kept
        if dropped:
            assert min(full[e][f] for f in kept) >= max(
                full[e][f] for f in dropped) - 1e-12
        # renormalization preserves relative weight
        mass = sum(full[e][f] for f in kept)
        for f in kept:
            assert row[f] == pytest.approx(full[e][f] / mass, abs=1e-9)


def test_empty_input_and_empty_sides():
    assert build_lexicon([]) == {}
    assert build_lexicon([([], ["x"]), (["y"], [])], iterations=3) == {}


def test_lexicon_to_ids_drops_unknown_tokens_and_renormalizes():
    src_vocab = Vocabulary(("alpha", "beta"))
    tgt_vocab = Vocabulary(("ALPHA",))
    table = {
        "alpha": {"ALPHA": 0.9, "GHOST": 0.1},
        "ghost-src": {"ALPHA": 1.0},
    }
    by_id = lexicon_to_ids(table, src_vocab, tgt_vocab)
    a = src_vocab.index("alpha")
    # rows for source tokens outside the vocabulary vanish rather than
    # aliasing everything onto <unk>: alpha's is the only row
    assert by_id.lengths[UNK_ID] == 0
    assert by_id.lengths.tolist() == [int(sid == a) for sid in range(len(src_vocab))]
    # GHOST is outside the target vocabulary; its mass redistributes
    assert by_id.ids[a, 0] == tgt_vocab.index("ALPHA")
    assert by_id.probs[a, 0] == pytest.approx(1.0)
    # with no row left there is no lexicon
    assert lexicon_to_ids({"ghost-src": {"ALPHA": 1.0}}, src_vocab, tgt_vocab) is None
