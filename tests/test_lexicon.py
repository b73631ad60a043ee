"""Alignment-free translation table estimation.

Two oracles.  reference_em is an independent expectation-maximization
implementation written directly from the co-occurrence update rule: it
keeps full dense tables and no truncation, so agreement with the
package version is a real cross-check, not a restatement.  _loop_oracle
is the dict-of-dicts loop that build_lexicon's array formulation
replaced, kept as it was; the arrays must reproduce its floats and its
key and entry order exactly.  That exactness rests on the loop's
sum(row.values()) adding left to right, which Python 3.12 and later no
longer do for floats (they compensate the rounding), so the exact
comparisons run on earlier Pythons only.
"""

import sys
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from patchloom import arguments, tokenizer
from patchloom.lexicon import build_lexicon, lexicon_to_ids
from patchloom.synthdata import make_benchmark
from patchloom.vocab import UNK_ID, Vocabulary

sequential_sum = pytest.mark.skipif(
    sys.version_info >= (3, 12),
    reason="sum() over floats compensates its rounding from Python 3.12 on")

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


def _loop_oracle(
    pairs,
    iterations=10,
    top=20,
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


def assert_identical(got, want):
    """Same floats, same row order, same entry order, and the same key
    objects where equal tokens differ (1 and True, 0.0 and -0.0)."""
    assert got == want
    assert [repr(e) for e in got] == [repr(e) for e in want]
    for e, row in want.items():
        assert [(repr(f), p) for f, p in got[e].items()] == [
            (repr(f), p) for f, p in row.items()]


def _benchmark_token_pairs(seed, n_train):
    """The train workload's input: make_benchmark pairs, abstracted."""
    def abstracted(line):
        return arguments.abstract_arguments(tokenizer.tokenize(line))[0].tokens
    bench = make_benchmark(seed=seed, n_train=n_train, n_held_out=0, n_queries=0)
    return [(abstracted(a), abstracted(b)) for a, b in bench.train_pairs]


@sequential_sum
@pytest.mark.parametrize("seed", [1, 2])
def test_arrays_reproduce_the_loop_on_benchmark_corpora(seed):
    pairs = _benchmark_token_pairs(seed, 500)
    assert_identical(build_lexicon(pairs), _loop_oracle(pairs))


@sequential_sum
@pytest.mark.slow
def test_arrays_reproduce_the_loop_at_8000_pairs():
    pairs = _benchmark_token_pairs(1, 8000)
    assert_identical(build_lexicon(pairs), _loop_oracle(pairs))


TOKENS = st.one_of(st.sampled_from(["a", "b", "c", ";"]), st.integers(0, 3),
                   st.tuples(st.sampled_from(["a", "x"]), st.integers(0, 1)),
                   st.booleans(), st.sampled_from([0.0, -0.0, 1.0]))
SIDES = st.lists(TOKENS, max_size=6)


@sequential_sum
@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(SIDES, SIDES), max_size=30),
       iterations=st.integers(0, 40), top=st.integers(1, 25))
def test_arrays_reproduce_the_loop_on_random_corpora(pairs, iterations, top):
    # the oracle skips a target position whose denominator is 0 and drops
    # a row whose total is 0; build_lexicon has no such branch, so a long
    # run of iterations would show it if either could happen
    assert_identical(build_lexicon(pairs, iterations, top),
                     _loop_oracle(pairs, iterations, top))

