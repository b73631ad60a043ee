"""Model forward-pass numerics.

The LSTM step is checked against a hand-unrolled scalar computation,
the attention and output distributions against their defining
identities, and the lexicon bias against a worked mixture example.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchloom import decoding, model
from patchloom.model import (
    LexiconTable,
    ModelParameters,
    attend,
    attention_keys,
    attentional_vector,
    encode,
    lexicon_rows,
    lstm_step,
    mix_lexicon,
    predict_distribution,
    sigmoid,
    softmax,
    tensor_shapes,
)
from patchloom.modelio import load_model, save_model
from patchloom.training import forward_pair
from patchloom.vocab import Vocabulary


def make_params(src=6, tgt=7, hidden=5, embed=4, lex_weight=0.0, seed=0,
                scale=None, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return ModelParameters.initialize(
        rng, src, tgt, hidden_size=hidden, embed_size=embed,
        lex_weight=lex_weight, scale=scale, dtype=dtype,
    )


def encode_one(params, src):
    """(states (1, S, H), h (1, H), c (1, H)) for one source."""
    states, cells, _ = encode(params, params.E_src[src][None])
    return states, states[:, -1], cells[:, -1]


def attend_to(params, states, h):
    weights, context, _ = attend(params, states, attention_keys(params, states), h)
    return weights, context


def output(params, htilde, weights, lexicon):
    """The output softmax, mixed with lexicon (lexicon_rows of the source)
    unless that is None, as the decoder computes it."""
    probs = predict_distribution(params, htilde)
    return probs if lexicon is None else mix_lexicon(params, probs, weights, lexicon)


def distribution(params, states, h, src):
    """Output distribution after attending from decoder state h."""
    weights, context = attend_to(params, states, h)
    return output(params, attentional_vector(params, h, context), weights,
                  lexicon_rows(params, src))


# ---------------------------------------------------------------------------
# scalar pieces

def test_sigmoid_and_softmax_basics():
    assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)
    x = np.array([1.0, 2.0, 3.0])
    s = softmax(x)
    assert s.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(s) > 0)
    # shift invariance keeps large logits finite
    assert np.allclose(softmax(x + 1000.0), s)


def where_sigmoid(x):
    """The branching form model.sigmoid replaced: its bit-for-bit oracle."""
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, ex) / (1.0 + ex)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_matches_the_branching_form_bit_for_bit(dtype):
    info = np.finfo(dtype)
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, info.smallest_subnormal,
             -info.smallest_subnormal, info.tiny, -info.tiny, info.max, -info.max,
             88.7, -88.7, 88.8, -88.8, 709.7, -709.7, 709.8, -709.8, 745.2, -745.2]
    rng = np.random.default_rng(0)
    random = np.concatenate([rng.normal(0, 4, 20_000), rng.uniform(-800, 800, 20_000)])
    for x in (np.array(edges, dtype=dtype), random.astype(dtype),
              random.astype(dtype).reshape(400, 100)[:, ::3]):
        got, want = sigmoid(x), where_sigmoid(x)
        assert got.dtype == want.dtype == dtype
        # equal bits: NaN matches NaN and -0.0 differs from 0.0
        assert got.tobytes() == want.tobytes()


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_softmax_is_a_distribution(values):
    s = softmax(np.array(values))
    assert s.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(s >= 0)


def test_lstm_step_matches_hand_computation():
    # H = 1, input size 1: W rows are [i, f, g, o] gates over [x, h_prev]
    W = np.array([
        [0.5, -0.3],
        [0.2, 0.4],
        [-0.6, 0.1],
        [0.3, 0.7],
    ])
    b = np.array([0.1, -0.2, 0.05, 0.0])
    x = np.array([0.8])
    h_prev = np.array([-0.5])
    c_prev = np.array([0.25])

    z = W @ np.concatenate([x, h_prev]) + b
    h, c, gates = lstm_step(z[None], c_prev[None])

    def sg(v):
        return 1.0 / (1.0 + math.exp(-v))

    i = sg(0.5 * 0.8 + (-0.3) * (-0.5) + 0.1)
    f = sg(0.2 * 0.8 + 0.4 * (-0.5) - 0.2)
    g = math.tanh(-0.6 * 0.8 + 0.1 * (-0.5) + 0.05)
    o = sg(0.3 * 0.8 + 0.7 * (-0.5) + 0.0)
    c_want = f * 0.25 + i * g
    h_want = o * math.tanh(c_want)
    assert c[0, 0] == pytest.approx(c_want, abs=1e-12)
    assert h[0, 0] == pytest.approx(h_want, abs=1e-12)
    assert np.allclose(gates[0], [i, f, g, o], rtol=0.0, atol=1e-12)


def test_forget_gate_bias_starts_open():
    params = make_params()
    H = params.hidden_size
    assert np.all(params.b_enc[H:2 * H] == 1.0)
    assert np.all(params.b_dec[H:2 * H] == 1.0)


@pytest.mark.parametrize("piece", [1, 100, 1 << 16])
def test_initialize_draws_in_pieces_what_one_draw_per_tensor_gives(monkeypatch, piece):
    monkeypatch.setattr(model, "DRAW_PIECE", piece)
    rng = np.random.default_rng(3)
    params = ModelParameters.initialize(rng, 7, 6, hidden_size=8, embed_size=5)
    want = np.random.default_rng(3)
    for name, shape in params.shapes().items():
        if not name.startswith("b_"):
            limit = (math.sqrt(3.0 / shape[-1]) if name.startswith("E_") or len(shape) == 1
                     else math.sqrt(6.0 / (shape[0] + shape[1])))
            drawn = want.uniform(-limit, limit, size=shape).astype(np.float32)
            assert np.array_equal(getattr(params, name), drawn), name
    assert rng.bit_generator.state == want.bit_generator.state


def test_explicit_scale_gives_flat_uniform_init():
    params = make_params(scale=0.8)
    for name, tensor in params.tensors().items():
        if name.startswith("b_"):
            continue
        assert float(np.max(np.abs(tensor))) <= 0.8


# ---------------------------------------------------------------------------
# parameter layout

def _loaded(tmp_path):
    params = make_params()
    path = str(tmp_path / "m.plm")
    save_model(path, params, Vocabulary(("a",)), Vocabulary(("b", "c")))
    return load_model(path)[0]


@pytest.mark.parametrize("make", [
    lambda tmp_path: make_params(),
    lambda tmp_path: make_params().astype(np.float64),
    lambda tmp_path: make_params().copy(),
    lambda tmp_path: decoding._float64(make_params()),
    _loaded,
], ids=["initialize", "astype", "copy", "float64_copy", "load_model"])
def test_tensors_are_views_tiling_flat_in_table_order(tmp_path, make):
    # each W_ matrix's block of flat holds its transpose, row-major; the
    # embeddings and vectors are row-major
    params = make(tmp_path)
    shapes = tensor_shapes(6, 7, 5, 4)
    flat = params.flat
    assert flat.ndim == 1 and flat.size == sum(math.prod(s) for s in shapes.values())
    assert list(params.tensors()) == list(shapes)
    start = flat.__array_interface__["data"][0]
    offset = 0
    for name, shape in shapes.items():
        view = getattr(params, name)
        block = view.T if name.startswith("W_") else view
        assert view.shape == shape and block.flags.c_contiguous, name
        assert np.shares_memory(view, flat), name
        assert view.__array_interface__["data"][0] == start + offset * flat.itemsize, name
        assert np.array_equal(block.reshape(-1), flat[offset:offset + view.size]), name
        block.reshape(-1)[-1] = 7.0
        assert flat[offset + view.size - 1] == 7.0, name
        offset += view.size
    assert offset == flat.size


def test_loaded_and_decoding_copies_keep_the_training_layout(tmp_path):
    # load_model and decoding's float64 copy keep training's layout: the
    # same flat, in float64, with the same column-major matrices
    params = make_params()
    for other in (_loaded(tmp_path), decoding._float64(params)):
        assert other.flat.dtype == np.float64
        assert np.array_equal(other.flat, params.flat)
        for name, tensor in params.tensors().items():
            assert np.array_equal(getattr(other, name), tensor), name
            if name.startswith("W_"):
                assert getattr(other, name).flags.f_contiguous, name
                assert tensor.flags.f_contiguous, name


def test_astype_and_copy_own_their_buffer():
    params = make_params()
    for other in (params.astype(np.float64), params.copy()):
        assert not np.shares_memory(other.flat, params.flat)
        assert np.array_equal(other.flat, params.flat)


# ---------------------------------------------------------------------------
# encoder and attention

def test_encode_returns_one_state_per_token():
    params = make_params()
    H = params.hidden_size
    states, cells, gates = encode(params, params.E_src[[3, 1, 4]][None])
    assert states.shape == cells.shape == (1, 3, H)
    assert gates.shape == (1, 3, 4 * H)
    # each state is the last step's h, from its gates and cell state
    assert np.allclose(states, gates[..., 3 * H:] * np.tanh(cells))
    # prefix property: the first state only saw the first token
    states_prefix, _, _ = encode_one(params, [3])
    assert np.allclose(states_prefix[0, 0], states[0, 0])
    # rows of a batch are encoded independently
    batch, _, _ = encode(params, params.E_src[[[3, 1, 4], [2, 2, 5]]])
    assert np.allclose(batch[0], states[0])
    assert np.allclose(batch[1], encode_one(params, [2, 2, 5])[0][0])
    with pytest.raises(ValueError):
        encode(params, params.E_src[[]][None])


def test_attention_weights_form_a_distribution():
    params = make_params(dtype=np.float64)
    states, h, _ = encode_one(params, [1, 2, 3, 4])
    weights, context = attend_to(params, states, h)
    assert weights.shape == (1, 4)
    assert weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(weights > 0)
    assert np.allclose(context, weights @ states[0])
    # a padded position gets no weight, and the rest renormalize
    keys = attention_keys(params, states)
    pad = np.array([[0.0, 0.0, 0.0, -np.inf]])
    padded, padded_context, _ = attend(params, states, keys, h, pad)
    assert padded[0, 3] == 0.0
    assert np.allclose(padded[0, :3], weights[0, :3] / weights[0, :3].sum())
    assert np.allclose(padded_context, padded @ states[0])


def test_identical_states_attract_uniform_attention():
    params = make_params()
    one, h, _ = encode_one(params, [2])
    states = np.tile(one, (1, 5, 1))
    weights, _ = attend_to(params, states, h)
    assert np.allclose(weights, 0.2)


# ---------------------------------------------------------------------------
# output distribution

def test_predict_distribution_sums_to_one():
    params = make_params(dtype=np.float64)
    states, h, _ = encode_one(params, [1, 2, 3])
    probs = distribution(params, states, h, [1, 2, 3])
    assert probs.shape == (1, 7)
    assert probs.sum() == pytest.approx(1.0, abs=1e-6)
    assert np.all(probs > 0)


def test_lexicon_mixture_worked_example():
    lam = 0.25
    params = make_params(src=6, tgt=4, lex_weight=lam, dtype=np.float64)
    params.lexicon = LexiconTable.from_rows({2: {3: 1.0}}, 6)
    states, h, _ = encode_one(params, [2, 2])
    weights, _ = attend_to(params, states, h)
    base = distribution(replace(params, lex_weight=0.0), states, h, [2, 2])
    mixed = distribution(params, states, h, [2, 2])
    # every source position points at token 2 whose row is all on id 3
    lex_row = np.zeros(4)
    lex_row[3] = float(weights.sum())
    want = (1.0 - lam) * base + lam * lex_row
    assert np.allclose(mixed, want, atol=1e-12)
    assert mixed.sum() == pytest.approx(1.0, abs=1e-9)


def test_lexicon_backoff_rescales_base_distribution():
    # source position 0 (id 1) has no lexicon row; its attention mass
    # backs off onto the softmax instead of vanishing
    lam = 0.25
    params = make_params(src=6, tgt=4, lex_weight=lam, dtype=np.float64)
    params.lexicon = LexiconTable.from_rows({2: {3: 1.0}}, 6)
    states, h, _ = encode_one(params, [1, 2])
    weights, _ = attend_to(params, states, h)
    base = distribution(replace(params, lex_weight=0.0), states, h, [1, 2])
    mixed = distribution(params, states, h, [1, 2])
    a0, a1 = float(weights[0, 0]), float(weights[0, 1])
    lex_row = np.zeros(4)
    lex_row[3] = a1
    want = (1.0 - lam + lam * a0) * base + lam * lex_row
    assert np.allclose(mixed, want, atol=1e-12)
    assert mixed.sum() == pytest.approx(1.0, abs=1e-9)


def test_empty_lexicon_dict_falls_back_to_softmax():
    params = make_params(src=6, tgt=4, lex_weight=0.3)
    params.lexicon = LexiconTable.from_rows({}, 6)
    states, h, _ = encode_one(params, [1, 2])
    mixed = distribution(params, states, h, [1, 2])
    base = distribution(replace(params, lex_weight=0.0), states, h, [1, 2])
    assert np.allclose(mixed, base)


def test_zero_lex_weight_ignores_lexicon():
    params = make_params(lex_weight=0.0)
    params.lexicon = LexiconTable.from_rows({1: {1: 1.0}}, 6)
    states, h, _ = encode_one(params, [1, 1])
    with_row = distribution(params, states, h, [1, 1])
    params.lexicon = None
    without = distribution(params, states, h, [1, 1])
    assert np.allclose(with_row, without)


def test_lexicon_rows_match_the_dict_lexicon():
    # the table's rows must give exactly the mapping it was built from;
    # source 4's row is padded with id 0, which source 0's row also uses,
    # and source 2's entries are given out of order
    mapping = {0: {0: 0.25, 5: 0.75}, 2: {6: 0.5, 3: 0.5}, 4: {1: 1.0}}
    params = make_params(src=6, tgt=7, lex_weight=0.3)
    params.lexicon = LexiconTable.from_rows(mapping, 6)
    src = [2, 3, 4, 0, 2]
    rows, backoff = lexicon_rows(params, src)
    assert rows.shape == (5, 7)
    for i, sid in enumerate(src):
        row = mapping.get(sid)
        want = np.zeros(7)
        if row is not None:
            want[list(row)] = list(row.values())
        assert np.array_equal(rows[i], want)
        assert backoff[i] == (row is None)
    # a (2, S) batch of sources gives each source's rows
    both, both_backoff = lexicon_rows(params, [src, src[::-1]])
    assert np.array_equal(both[0], rows)
    assert np.array_equal(both[1], rows[::-1])
    assert np.array_equal(both_backoff[1], backoff[::-1])
    assert lexicon_rows(replace(params, lex_weight=0.0), src) is None


# ---------------------------------------------------------------------------
# batch axis

@pytest.mark.parametrize("lex_weight", [0.0, 0.3])
def test_batched_rows_equal_single_rows(lex_weight):
    # the decoder steps K hypotheses as rows of one array; each row must
    # come out as if it had been computed alone
    params = make_params(lex_weight=lex_weight, seed=4).astype(np.float64)
    params.lexicon = LexiconTable.from_rows({2: {3: 0.5, 6: 0.5}, 4: {1: 1.0}}, 6)
    src = [2, 3, 4]
    states, _, _ = encode_one(params, src)
    keys = attention_keys(params, states)
    lex = lexicon_rows(params, src)
    rng = np.random.default_rng(0)
    H = params.hidden_size
    z = rng.standard_normal((4, 4 * H))
    c0 = rng.standard_normal((4, H))

    h, c, gates = lstm_step(z, c0)
    weights, context, query = attend(params, states, keys, h)
    htilde = attentional_vector(params, h, context)
    probs = output(params, htilde, weights, lex)
    assert probs.shape == (4, params.tgt_vocab_size)
    for k in range(4):
        hk, ck, gk = lstm_step(z[k:k + 1], c0[k:k + 1])
        wk, ctxk, qk = attend(params, states, keys, hk)
        htk = attentional_vector(params, hk, ctxk)
        pk = output(params, htk, wk, lex)
        for got, want in ((h[k], hk[0]), (c[k], ck[0]), (gates[k], gk[0]),
                          (weights[k], wk[0]), (query[k], qk[0]),
                          (htilde[k], htk[0]), (probs[k], pk[0])):
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# sequence scoring

def test_sequence_log_prob_accumulates_per_step():
    # the teacher-forced log probability of a sequence, the negated
    # training loss, is the sum of its per-step log probabilities; the
    # hand-unrolled loop, like the decoder, computes in float64
    params = make_params().astype(np.float64)
    src = [1, 2, 3]
    tgt = [4, 5, 2]  # ends with </s>

    states, h, c = encode_one(params, src)
    htilde = np.zeros((1, params.hidden_size))
    total = 0.0
    prev = 1
    for tid in tgt:
        x = np.concatenate([params.E_tgt[[prev]], htilde, h], axis=1)
        h, c, _ = lstm_step(x @ params.W_dec.T + params.b_dec, c)
        weights, context = attend_to(params, states, h)
        htilde = attentional_vector(params, h, context)
        probs = predict_distribution(params, htilde)
        total += math.log(probs[0, tid])
        prev = tid

    loss = forward_pair(params, [(src, tgt)]).loss
    assert -loss == pytest.approx(total, abs=1e-10)
    assert total < 0.0
