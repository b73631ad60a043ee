"""Beam search against the exhaustive-search reference and the
single-source oracle.

With three target ids and a short length cap the hypothesis space is
enumerable (31 sequences), so a wide beam must return the true argmax
exactly; no approximation argument is involved.  Every searcher scores
through Decoder.step, so a hypothesis' score must not depend on how many
hypotheses, or which other sources, were stepped alongside it, and must
equal the training loss of its tokens at float64, the rescoring
reference.  Batched beam search must give each source what
conftest.reference_beam_search, one source at a time, gives it.
"""

import itertools

import numpy as np
import pytest

from patchloom import decoding
from patchloom.decoding import (
    Decoder,
    Hypothesis,
    beam_search,
    exhaustive_search,
)
from patchloom.model import LexiconTable, ModelParameters
from patchloom.training import forward_pair
from patchloom.vocab import BOS_ID, EOS_ID

from conftest import reference_beam_search


def make_params(seed, src=3, tgt=3, hidden=3, embed=2):
    rng = np.random.default_rng(seed)
    return ModelParameters.initialize(
        rng, src, tgt, hidden_size=hidden, embed_size=embed,
        lex_weight=0.0, scale=0.8,
    )


def rescore(params, src_ids, tgt_ids):
    """Teacher-forced log P(tgt | src): the negated float64 training loss."""
    return -float(forward_pair(params.astype(np.float64),
                               [(src_ids, list(tgt_ids))]).loss)


def search(params, src_ids, beam_size, max_len):
    """Beam search over a list of one source."""
    [hyps] = beam_search(params, [src_ids], beam_size=beam_size, max_len=max_len)
    return hyps


def greedy(params, src_ids, max_len):
    """Step-by-step argmax through the shared decoder step, one row."""
    decoder = Decoder(params, [src_ids])
    state = decoder.start
    tokens, score = (), 0.0
    prev = BOS_ID
    for _ in range(max_len):
        state, logp = decoder.step(state, np.array([prev]), [(0, 0, 1)])
        prev = int(np.argmax(logp[0]))
        tokens += (prev,)
        score += float(logp[0, prev])
        if prev == EOS_ID:
            break
    return tokens, score


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_wide_beam_matches_exhaustive_search(seed):
    params = make_params(seed)
    src = [0, 1, 2]
    want = exhaustive_search(params, src, max_len=4)
    hyps = search(params, src, beam_size=81, max_len=4)
    assert hyps[0].tokens == want.tokens
    assert hyps[0].finished and want.finished
    assert hyps[0].log_prob == pytest.approx(want.log_prob, abs=1e-9)


def test_hypotheses_sorted_by_score():
    params = make_params(7)
    hyps = search(params, [0, 1], beam_size=6, max_len=4)
    scores = [h.log_prob for h in hyps]
    assert scores == sorted(scores, reverse=True)
    assert len(hyps) <= 6


def test_scores_match_teacher_forced_rescoring():
    params = make_params(9, src=6, tgt=6, hidden=5, embed=3)
    for hyp in search(params, [3, 4, 5], beam_size=4, max_len=5):
        assert hyp.log_prob == pytest.approx(
            rescore(params, [3, 4, 5], hyp.tokens), abs=1e-9)


def test_beam_of_one_equals_greedy():
    for seed in range(6):
        params = make_params(seed, src=5, tgt=5, hidden=4, embed=3)
        want_tokens, want_score = greedy(params, [1, 3], max_len=6)
        beam = search(params, [1, 3], beam_size=1, max_len=6)[0]
        assert beam.tokens == want_tokens
        assert beam.log_prob == pytest.approx(want_score, abs=1e-9)


def test_finished_flag_and_output_ids():
    params = make_params(3)
    for hyp in search(params, [0, 1], beam_size=9, max_len=4):
        if hyp.finished:
            assert hyp.tokens[-1] == EOS_ID
            assert EOS_ID not in hyp.output_ids
            assert hyp.output_ids == hyp.tokens[:-1]
        else:
            assert len(hyp.tokens) == 4
            assert hyp.output_ids == hyp.tokens


def test_max_len_zero_like_cap_returns_unfinished():
    params = make_params(5)
    hyps = search(params, [0], beam_size=3, max_len=1)
    assert all(len(h.tokens) == 1 for h in hyps)
    # a single-step hypothesis is finished only if that step was EOS
    for h in hyps:
        assert h.finished == (h.tokens[-1] == EOS_ID)


def test_invalid_beam_size_rejected():
    params = make_params(0)
    with pytest.raises(ValueError):
        beam_search(params, [[0]], beam_size=0)


def test_hypothesis_output_ids_property():
    done = Hypothesis(tokens=(4, 5, EOS_ID), log_prob=-1.0, finished=True)
    assert done.output_ids == (4, 5)
    open_hyp = Hypothesis(tokens=(4, 5), log_prob=-1.0, finished=False)
    assert open_hyp.output_ids == (4, 5)


def test_exhaustive_search_returns_the_best_finished_sequence():
    # checked against scoring every </s>-terminated sequence one by one
    params = make_params(6)
    non_eos = [t for t in range(params.tgt_vocab_size) if t != EOS_ID]
    scored = [
        (rescore(params, [0, 1], list(prefix) + [EOS_ID]),
         tuple(prefix) + (EOS_ID,))
        for length in range(3)
        for prefix in itertools.product(non_eos, repeat=length)]
    want_score, want_tokens = max(scored)
    got = exhaustive_search(params, [0, 1], max_len=3)
    assert got.finished
    assert got.tokens == want_tokens
    assert got.log_prob == pytest.approx(want_score, abs=1e-9)


def test_exhaustive_search_without_room_returns_the_empty_unfinished():
    params = make_params(6)
    for hyp in (exhaustive_search(params, [0, 1], max_len=0),
                search(params, [0, 1], beam_size=3, max_len=0)[0]):
        assert hyp.tokens == () and not hyp.finished


def random_model(seed, hidden, lexicon, src=8, tgt=12):
    rng = np.random.default_rng(seed)
    params = ModelParameters.initialize(
        rng, src, tgt, hidden_size=hidden, embed_size=4,
        lex_weight=0.3 if lexicon else 0.0, scale=0.8)
    if lexicon:
        params.lexicon = LexiconTable.from_rows({
            sid: dict(zip(rng.choice(tgt, 3, replace=False).tolist(),
                          rng.dirichlet(np.ones(3)).tolist()))
            for sid in range(0, src, 2)}, src)
    return params, rng


@pytest.mark.parametrize("hidden", [3, 16, 128])
@pytest.mark.parametrize("lexicon", [False, True])
def test_scores_do_not_depend_on_the_beam(hidden, lexicon):
    # a beam steps up to beam_size rows together, the training forward
    # one padded row per pair; with a float32 encoder they disagree by up
    # to 1e-4 at H=128.  Decoded alone and inside a batch of other
    # sources of other lengths, a source's hypotheses score the same.
    worst = 0.0
    for seed in range(30):
        params, rng = random_model(seed, hidden, lexicon)
        sources = [rng.integers(0, 8, size=n).tolist() for n in (4, 1, 7, 3)]
        src = sources[0]
        together = beam_search(params, sources, beam_size=6, max_len=6)[0]
        alone = search(params, src, beam_size=6, max_len=6)
        assert [h.tokens for h in together] == [h.tokens for h in alone]
        for hyp, other in zip(alone, together):
            worst = max(worst, abs(hyp.log_prob - rescore(params, src, hyp.tokens)),
                        abs(hyp.log_prob - other.log_prob))
    assert worst <= 1e-9


def assert_matches_oracle(params, sources, beam_size, max_len):
    got = beam_search(params, sources, beam_size=beam_size, max_len=max_len)
    assert len(got) == len(sources)
    for src, hyps in zip(sources, got):
        want = reference_beam_search(params, src, beam_size, max_len)
        assert [(h.tokens, h.finished) for h in hyps] == [
            (h.tokens, h.finished) for h in want], src
        for hyp, ref in zip(hyps, want):
            assert hyp.log_prob == pytest.approx(ref.log_prob, abs=1e-9)
    return got


@pytest.mark.parametrize("lexicon", [False, True])
@pytest.mark.parametrize("max_len", [0, 1, 3, 8])
def test_batched_search_equals_the_single_source_oracle(lexicon, max_len):
    for seed in range(8):
        params, rng = random_model(seed, 6, lexicon)
        # lengths 1 to 9: every source but the longest is padded
        sources = [rng.integers(0, 8, size=n).tolist()
                   for n in rng.integers(1, 10, size=7)]
        assert_matches_oracle(params, sources, beam_size=5, max_len=max_len)


def test_batched_search_equals_the_oracle_when_beams_finish_apart(rule_model):
    # the trained rules end after 3, 5 and 9 target tokens, so the
    # sources stop at different steps while the others go on
    m = rule_model
    lines = ["return this . width ;", "int cursor = 0 ;",
             "monitor . log ( arg ) ;", "return this . queue ;",
             "buffer . log ( arg ) ;"]
    sources = [m.src_vocab.encode(line.split()) for line in lines]
    got = assert_matches_oracle(m.params, sources, beam_size=4, max_len=20)
    lengths = {len(hyps[0].tokens) for hyps in got}
    assert len(lengths) >= 3 and all(hyps[0].finished for hyps in got)


def test_sources_beyond_one_chunk_decode_as_alone(monkeypatch):
    params, rng = random_model(4, 6, lexicon=True)
    sources = [rng.integers(0, 8, size=n).tolist()
               for n in rng.integers(1, 6, size=9)]
    chunks = []
    init = Decoder.__init__
    monkeypatch.setattr(Decoder, "__init__", lambda self, params, srcs: (
        chunks.append(len(srcs)), init(self, params, srcs))[-1])
    # room for two sources of five tokens per chunk: (5 + beam) * (4H + V_tgt)
    monkeypatch.setattr(decoding, "CHUNK_ELEMENTS", 2 * (5 + 3) * (4 * 6 + 12))
    assert_matches_oracle(params, sources, beam_size=3, max_len=5)
    assert len(chunks) > 1 and sum(chunks) == len(sources)


def test_top_candidates_break_ties_by_token_then_row():
    # runs of 2, 3 and 1 rows over 4 tokens; -0.5 ties inside every run,
    # and each run's third place is a tie it must cut
    runs = {
        "2 rows": ([[-1.0, -0.5, -0.5, -2.0],
                    [-0.5, -1.0, -3.0, -0.5]], [1, 0, 0], [0, 1, 2]),
        "3 rows": ([[-1.0, -1.0, -0.5, -1.0],
                    [-1.0, -0.2, -1.0, -0.5],
                    [-0.5, -1.0, -1.0, -1.0]], [1, 2, 0], [1, 0, 2]),
        "1 row": ([[-0.5, -0.5, -0.5, -0.5]], [0, 0, 0], [0, 1, 2]),
    }
    for name, (total, want_rows, want_tokens) in runs.items():
        total = np.array(total)
        rows, tokens, scores = decoding._top_candidates(total, 3)
        assert rows.tolist() == want_rows, name
        assert tokens.tolist() == want_tokens, name
        assert scores.tolist() == total[rows, tokens].tolist(), name
    # k beyond the run's entries takes them all
    rows, tokens, _ = decoding._top_candidates(np.array([[-1.0, -2.0]]), 5)
    assert rows.tolist() == [0, 0] and tokens.tolist() == [0, 1]


def test_an_empty_list_decodes_to_an_empty_list():
    assert beam_search(make_params(0), [], beam_size=3, max_len=4) == []


def test_an_empty_source_fails_its_chunk():
    with pytest.raises(ValueError, match="empty source"):
        beam_search(make_params(0), [[0, 1], []], beam_size=3, max_len=4)


def test_float64_model_is_not_copied(monkeypatch):
    # decoding copies a float32 model to float64 once per list, however
    # many chunks, and decodes a float64 model as it is
    params = make_params(2)
    copies = []
    astype = ModelParameters.astype
    monkeypatch.setattr(ModelParameters, "astype", lambda self, dtype: (
        copies.append(self.flat.dtype) or astype(self, dtype)))
    monkeypatch.setattr(decoding, "CHUNK_ELEMENTS", 1)   # one source per chunk
    beam_search(params, [[0, 1], [2], [1, 1, 0]], beam_size=3, max_len=4)
    assert copies == [np.float32]
    assert params.W_enc.dtype == np.float32
    p64 = astype(params, np.float64)
    copies.clear()
    beam_search(p64, [[0, 1], [2]], beam_size=3, max_len=4)
    assert copies == []
    assert Decoder(p64, [[0]]).params is p64


class _Weight(np.ndarray):
    """A weight view that records each matrix product reading it."""

    reads: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _Weight.reads += [x for x in inputs if isinstance(x, _Weight)]
        inputs = tuple(x.view(np.ndarray) if isinstance(x, _Weight) else x
                       for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.mark.parametrize("lexicon", [False, True])
def test_every_decode_product_reads_a_c_contiguous_matrix(monkeypatch, lexicon):
    # a strided weight makes each small product several times slower;
    # decoding at float64 and the training forward at float32 read the
    # same layout
    params, _ = random_model(0, 16, lexicon)
    batch = [([1, 2, 3], [4, 5, EOS_ID]), ([4, 5], [6, EOS_ID])]
    for p, run in (
        (decoding._float64(params),
         lambda p: beam_search(p, [[1, 2, 3], [4, 5]], beam_size=4, max_len=5)),
        (params, lambda p: forward_pair(p, batch)),
    ):
        matrices = [name for name in p.tensors() if name.startswith("W_")]
        for name in matrices:
            setattr(p, name, getattr(p, name).view(_Weight))
        monkeypatch.setattr(_Weight, "reads", [])
        run(p)
        assert _Weight.reads
        for W in _Weight.reads:
            assert W.flags.c_contiguous, (p.flat.dtype, W.shape)
        read = {name for name in matrices
                if any(np.shares_memory(W, getattr(p, name)) for W in _Weight.reads)}
        assert read == set(matrices)


# (V, d, 4H): the shapes the float64 row fact was probed at
@pytest.mark.parametrize("vocab, embed, width", [
    (95, 64, 512), (100, 16, 2048), (100, 256, 2048), (100, 128, 1024),
    (5000, 256, 2048)])
def test_a_float64_product_row_has_the_same_bits_from_two_rows_up(vocab, embed, width):
    """What Decoder's input-half table rests on: rows of an (R, d) @ (d,
    4H) product, R from 2 up, are the bits of the same rows of the V-row
    product, the weight a C-contiguous slice as W_dec's input columns are."""
    rng = np.random.default_rng(vocab + embed + width)
    E = rng.standard_normal((vocab, embed))
    W = rng.standard_normal((embed + width // 2, width))[:embed]
    table = E @ W
    for rows in [*range(2, 41), 64, 120, 400]:
        ids = rng.integers(0, vocab, size=rows)
        assert np.array_equal(E[ids] @ W, table[ids]), rows
