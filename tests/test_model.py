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

from patchloom.decoding import sequence_log_prob
from patchloom.model import (
    ModelParameters,
    attend,
    attention_keys,
    attentional_vector,
    encode,
    lexicon_rows,
    lstm_step,
    predict_distribution,
    sigmoid,
    softmax,
)


def make_params(src=6, tgt=7, hidden=5, embed=4, lex_weight=0.0, seed=0,
                scale=None):
    rng = np.random.default_rng(seed)
    return ModelParameters.initialize(
        rng, src, tgt, hidden_size=hidden, embed_size=embed,
        lex_weight=lex_weight, scale=scale,
    )


def attend_to(params, states, h):
    return attend(params, states, attention_keys(params, states), h)


def distribution(params, states, h, src):
    """Output distribution after attending from decoder state h."""
    weights, context = attend_to(params, states, h)
    return predict_distribution(params, attentional_vector(params, h, context),
                                weights, lexicon_rows(params, src))


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

    h, c = lstm_step(W, b, x, h_prev, c_prev)

    def sg(v):
        return 1.0 / (1.0 + math.exp(-v))

    i = sg(0.5 * 0.8 + (-0.3) * (-0.5) + 0.1)
    f = sg(0.2 * 0.8 + 0.4 * (-0.5) - 0.2)
    g = math.tanh(-0.6 * 0.8 + 0.1 * (-0.5) + 0.05)
    o = sg(0.3 * 0.8 + 0.7 * (-0.5) + 0.0)
    c_want = f * 0.25 + i * g
    h_want = o * math.tanh(c_want)
    assert c[0] == pytest.approx(c_want, abs=1e-12)
    assert h[0] == pytest.approx(h_want, abs=1e-12)


def test_forget_gate_bias_starts_open():
    params = make_params()
    H = params.hidden_size
    assert np.all(params.b_enc[H:2 * H] == 1.0)
    assert np.all(params.b_dec[H:2 * H] == 1.0)


def test_explicit_scale_gives_flat_uniform_init():
    params = make_params(scale=0.8)
    for name, tensor in params.tensors().items():
        if name.startswith("b_"):
            continue
        assert float(np.max(np.abs(tensor))) <= 0.8


# ---------------------------------------------------------------------------
# encoder and attention

def test_encode_returns_one_state_per_token():
    params = make_params()
    states, h, c = encode(params, [3, 1, 4])
    assert states.shape == (3, params.hidden_size)
    assert np.allclose(states[-1], h)
    # prefix property: the first state only saw the first token
    states_prefix, _, _ = encode(params, [3])
    assert np.allclose(states_prefix[0], states[0])


def test_attention_weights_form_a_distribution():
    params = make_params()
    states, h, _ = encode(params, [1, 2, 3, 4])
    weights, context = attend_to(params, states, h)
    assert weights.shape == (4,)
    assert weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(weights > 0)
    assert np.allclose(context, weights @ states)


def test_identical_states_attract_uniform_attention():
    params = make_params()
    one, _, _ = encode(params, [2])
    states = np.tile(one[0], (5, 1))
    weights, _ = attend_to(params, states, one[0])
    assert np.allclose(weights, 0.2)


# ---------------------------------------------------------------------------
# output distribution

def test_predict_distribution_sums_to_one():
    params = make_params()
    states, h, _ = encode(params, [1, 2, 3])
    probs = distribution(params, states, h, [1, 2, 3])
    assert probs.shape == (7,)
    assert probs.sum() == pytest.approx(1.0, abs=1e-6)
    assert np.all(probs > 0)


def test_lexicon_mixture_worked_example():
    lam = 0.25
    params = make_params(src=6, tgt=4, lex_weight=lam)
    params.lexicon = {2: {3: 1.0}}
    states, h, _ = encode(params, [2, 2])
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
    params = make_params(src=6, tgt=4, lex_weight=lam)
    params.lexicon = {2: {3: 1.0}}
    states, h, _ = encode(params, [1, 2])
    weights, _ = attend_to(params, states, h)
    base = distribution(replace(params, lex_weight=0.0), states, h, [1, 2])
    mixed = distribution(params, states, h, [1, 2])
    a0, a1 = float(weights[0]), float(weights[1])
    lex_row = np.zeros(4)
    lex_row[3] = a1
    want = (1.0 - lam + lam * a0) * base + lam * lex_row
    assert np.allclose(mixed, want, atol=1e-12)
    assert mixed.sum() == pytest.approx(1.0, abs=1e-9)


def test_empty_lexicon_dict_falls_back_to_softmax():
    params = make_params(src=6, tgt=4, lex_weight=0.3)
    params.lexicon = {}
    states, h, _ = encode(params, [1, 2])
    mixed = distribution(params, states, h, [1, 2])
    base = distribution(replace(params, lex_weight=0.0), states, h, [1, 2])
    assert np.allclose(mixed, base)


def test_zero_lex_weight_ignores_lexicon():
    params = make_params(lex_weight=0.0)
    params.lexicon = {1: {1: 1.0}}
    states, h, _ = encode(params, [1, 1])
    with_row = distribution(params, states, h, [1, 1])
    params.lexicon = None
    without = distribution(params, states, h, [1, 1])
    assert np.allclose(with_row, without)


def test_lexicon_rows_match_the_dict_lexicon():
    # the arrays behind lexicon_rows must give exactly the dict's rows;
    # source 4's row is padded with id 0, which source 0's row also uses
    params = make_params(src=6, tgt=7, lex_weight=0.3)
    params.lexicon = {0: {0: 0.25, 5: 0.75}, 2: {3: 0.5, 6: 0.5}, 4: {1: 1.0}}
    src = [2, 3, 4, 0, 2]
    rows, backoff = lexicon_rows(params, src)
    assert rows.shape == (5, 7)
    for i, sid in enumerate(src):
        row = params.lexicon.get(sid)
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
    params.lexicon = {2: {3: 0.5, 6: 0.5}, 4: {1: 1.0}}
    src = [2, 3, 4]
    states, _, _ = encode(params, src)
    keys = attention_keys(params, states)
    lex = lexicon_rows(params, src)
    rng = np.random.default_rng(0)
    H, d = params.hidden_size, params.embed_size
    x = rng.standard_normal((4, d + H))
    h0 = rng.standard_normal((4, H))
    c0 = rng.standard_normal((4, H))

    h, c = lstm_step(params.W_dec, params.b_dec, x, h0, c0)
    weights, context = attend(params, states, keys, h)
    htilde = attentional_vector(params, h, context)
    probs = predict_distribution(params, htilde, weights, lex)
    assert probs.shape == (4, params.tgt_vocab_size)
    for k in range(4):
        hk, ck = lstm_step(params.W_dec, params.b_dec, x[k], h0[k], c0[k])
        wk, ctxk = attend(params, states, keys, hk)
        htk = attentional_vector(params, hk, ctxk)
        pk = predict_distribution(params, htk, wk, lex)
        for got, want in ((h[k], hk), (c[k], ck), (weights[k], wk),
                          (htilde[k], htk), (probs[k], pk)):
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# sequence scoring

def test_sequence_log_prob_accumulates_per_step():
    # the decoder computes in float64, so the hand-unrolled loop does too
    params = make_params().astype(np.float64)
    src = [1, 2, 3]
    tgt = [4, 5, 2]  # ends with </s>

    states, h, c = encode(params, src)
    htilde = np.zeros(params.hidden_size)
    total = 0.0
    prev = 1
    for tid in tgt:
        x = np.concatenate([params.E_tgt[prev], htilde])
        h, c = lstm_step(params.W_dec, params.b_dec, x, h, c)
        weights, context = attend_to(params, states, h)
        htilde = attentional_vector(params, h, context)
        probs = predict_distribution(params, htilde, weights, None)
        total += math.log(probs[tid])
        prev = tid

    assert sequence_log_prob(params, src, tgt) == pytest.approx(total, abs=1e-10)
    assert total < 0.0
