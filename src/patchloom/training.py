"""Training loop: teacher-forced backpropagation through time, Adam
updates, chronological development split, and a finite-difference
gradient check.

The loss is mean negative log-likelihood per target token.  Batches are
filled greedily from length-sorted pairs up to a target-word budget.
Dropout (inverted scaling) applies only to non-recurrent connections:
encoder input embeddings, decoder input embeddings, and the attentional
vector on its way into the output projection.  The learning rate is
multiplied by decay_factor whenever development loss increases, and the
returned parameters are the snapshot with the lowest development loss.

Each minibatch runs as one padded batch: one forward with (B, H) state
rows caches what the backward needs, and one manual reverse sweep over
the same arrays turns it into gradients.  The forward is model.py's
encoder, LSTM step, attention, combiner and output softmax, the ones
decoding steps with.  Training, development loss (corpus_loss) and
gradient_check all use it.  The lexicon mixture gathers p(y | src_i)
from the rows model.lexicon_rows reads off params.lexicon.
gradient_check verifies the sweep against central finite differences,
one index of the flat parameter buffer at a time.  Gradients and Adam's
moments are ModelParameters of the parameters' layout with buffers of
their own: the backward writes their named views.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .model import (
    P_FLOOR,
    LexiconTable,
    ModelParameters,
    _rows,
    attend,
    attention_keys,
    attentional_vector,
    encode,
    lexicon_rows,
    lstm_step,
    predict_distribution,
)
from .vocab import BOS_ID

log = logging.getLogger(__name__)


@dataclass
class TrainingConfig:
    learning_rate: float = 0.001
    minibatch_words: int = 2048
    dropout: float = 0.5
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    decay_factor: float = 0.5
    max_epochs: int = 20
    seed: int = 1
    hidden_size: int = 512
    embed_size: int = 256
    lex_weight: float = 0.1
    dev_fraction: float = 0.05

    def __post_init__(self):
        ranges = (
            ("learning_rate", self.learning_rate > 0, "positive"),
            ("minibatch_words", self.minibatch_words >= 1, "at least 1"),
            ("hidden_size", self.hidden_size >= 1, "at least 1"),
            ("embed_size", self.embed_size >= 1, "at least 1"),
            ("max_epochs", self.max_epochs >= 0, "at least 0"),  # 0: untrained
            ("dropout", 0.0 <= self.dropout < 1.0, "in [0, 1)"),
            ("adam_beta1", 0.0 <= self.adam_beta1 < 1.0, "in [0, 1)"),
            ("adam_beta2", 0.0 <= self.adam_beta2 < 1.0, "in [0, 1)"),
            ("adam_epsilon", self.adam_epsilon > 0, "positive"),
            ("decay_factor", 0.0 < self.decay_factor <= 1.0, "in (0, 1]"),
            ("lex_weight", 0.0 <= self.lex_weight <= 1.0, "in [0, 1]"),
            ("dev_fraction", 0.0 <= self.dev_fraction < 1.0, "in [0, 1)"),
        )
        for name, ok, rule in ranges:
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    dev_loss: float
    learning_rate: float
    seconds: float


@dataclass
class TrainingLog:
    best_epoch: int = -1
    best_dev_loss: float = float("inf")
    aborted: bool = False
    epochs: list[EpochStats] = field(default_factory=list)


# ---------------------------------------------------------------------------
# forward with caches
#
# forward_pair and backward_pair keep the names they had when they took
# one pair at a time, because perfbench/spans.py times them under those
# names.  Each now runs a whole minibatch as one padded batch: states are
# (B, H) rows, sources are padded to the longest S and targets to the
# longest T, padded source positions get no attention weight, and padded
# target positions add nothing to the loss or to any gradient.

class _BatchCache:
    """Forward quantities of one padded batch: (B, S, .) arrays on the
    source side, (B, T, .) on the target side.  backward_pair overwrites
    the gate arrays, so a cache serves one backward."""

    __slots__ = (
        "src", "src_len", "tgt_in", "tgt_out", "tgt_mask", "tokens", "loss",
        "x", "mask_src", "enc_gates", "enc_c", "Hx", "keys",
        "e", "mask_e", "dec_gates", "dec_c", "hd", "query", "alpha", "ctx",
        "htil", "mask_o", "htil_out", "smax", "smax_y", "p_y",
        "lex_y", "mix", "backoff",
    )

    @property
    def last(self) -> tuple[np.ndarray, np.ndarray]:
        """Index of each pair's last source position in (B, S, .) arrays."""
        return np.arange(len(self.src_len)), self.src_len - 1


def _drop_masks(rng, batch, S, T, d, H, rate, dtype):
    """Padded (source, target embedding, output) dropout masks.  Each
    pair's masks are drawn at its own shapes and in that order, pair by
    pair, so the random stream does not depend on how pairs are batched."""
    if rng is None or rate <= 0.0:
        return None, None, None
    B = len(batch)
    keep = 1.0 - rate
    masks = (np.zeros((B, S, d), dtype), np.zeros((B, T, d), dtype),
             np.zeros((B, T, H), dtype))
    for b, (src_ids, tgt_ids) in enumerate(batch):
        for mask, shape in zip(masks, ((len(src_ids), d), (len(tgt_ids), d),
                                       (len(tgt_ids), H))):
            mask[b, :shape[0]] = ((rng.random(shape) < keep).astype(dtype)
                                  / dtype.type(keep))
    return masks


def _flat(a):
    """(..., n) as (rows, n)."""
    return a.reshape(-1, a.shape[-1])


def _shifted(first, seq):
    """The (B, N, .) inputs each step saw: first, then seq[:, :-1]."""
    return np.concatenate([first[:, None], seq[:, :-1]], axis=1)


def _padded(batch):
    """(src, src_len, tgt_in, tgt_out, tgt_mask) id arrays for a batch;
    padding is id 0 and every target ends with </s>."""
    B = len(batch)
    src_len = np.array([len(s) for s, _ in batch])
    tgt_len = np.array([len(t) for _, t in batch])
    src = np.zeros((B, src_len.max()), dtype=np.intp)
    tgt_out = np.zeros((B, tgt_len.max()), dtype=np.intp)
    for b, (src_ids, tgt_ids) in enumerate(batch):
        src[b, :len(src_ids)] = src_ids
        tgt_out[b, :len(tgt_ids)] = tgt_ids
    tgt_in = np.roll(tgt_out, 1, axis=1)
    tgt_in[:, 0] = BOS_ID
    tgt_mask = np.arange(tgt_out.shape[1]) < tgt_len[:, None]
    return src, src_len, tgt_in, tgt_out, tgt_mask


def _decoder_forward(params: ModelParameters, cache: _BatchCache) -> None:
    """Input feeding: each step's recurrent input is [h~_prev; h_prev]."""
    H = params.hidden_size
    d = params.embed_size
    dtype = params.W_enc.dtype
    B, T = cache.tgt_in.shape
    S = cache.src.shape[1]
    e = params.E_tgt[cache.tgt_in]
    if cache.mask_e is not None:
        e *= cache.mask_e
    cache.e = e
    # each step overwrites its slot of the input half with its gate values
    gates = _rows(e, params.W_dec[:, :d].T) + params.b_dec
    # contiguous, as in model.encode; Adam changes the weights every batch
    W_rec = np.ascontiguousarray(params.W_dec[:, d:].T)
    Hx = cache.Hx
    keys = cache.keys = attention_keys(params, Hx)
    pad_scores = np.where(np.arange(S) < cache.src_len[:, None], 0.0,
                          -np.inf).astype(dtype)
    for name in ("dec_c", "hd", "query", "ctx", "htil"):
        setattr(cache, name, np.empty((B, T, H), dtype=dtype))
    cache.alpha = np.empty((B, T, S), dtype=dtype)

    h, c = Hx[cache.last], cache.enc_c[cache.last]
    rec = np.concatenate([np.zeros((B, H), dtype=dtype), h], axis=1)
    for t in range(T):
        h, c, gates[:, t] = lstm_step(gates[:, t] + rec @ W_rec, c)
        alpha, ctx, query = attend(params, Hx, keys, h, pad_scores)
        htil = attentional_vector(params, h, ctx)
        cache.dec_c[:, t] = c
        cache.hd[:, t] = h
        cache.query[:, t] = query
        cache.alpha[:, t] = alpha
        cache.ctx[:, t] = ctx
        cache.htil[:, t] = htil
        rec = np.concatenate([htil, h], axis=1)
    cache.dec_gates = gates


def forward_pair(
    params: ModelParameters,
    batch: list[tuple[list[int], list[int]]],
    rng: np.random.Generator | None = None,
    dropout: float = 0.0,
) -> _BatchCache:
    """Teacher-forced forward over a batch of (src_ids, tgt_ids) pairs,
    each tgt_ids ending with EOS; cache.loss is the summed negative
    log-likelihood of its cache.tokens target tokens."""
    H = params.hidden_size
    d = params.embed_size
    cache = _BatchCache()
    src, src_len, tgt_in, tgt_out, tgt_mask = _padded(batch)
    B, S = src.shape
    T = tgt_out.shape[1]
    cache.src, cache.src_len = src, src_len
    cache.tgt_in, cache.tgt_out, cache.tgt_mask = tgt_in, tgt_out, tgt_mask
    cache.tokens = int(tgt_mask.sum())
    cache.mask_src, cache.mask_e, cache.mask_o = _drop_masks(
        rng, batch, S, T, d, H, dropout, params.W_enc.dtype)
    x = cache.x = params.E_src[src]
    if cache.mask_src is not None:
        x *= cache.mask_src
    cache.Hx, cache.enc_c, cache.enc_gates = encode(params, x)
    _decoder_forward(params, cache)

    # the output softmax for every step at once; the lexicon mixes in at
    # the target ids only, in at least float64
    mix_dtype = np.promote_types(params.W_enc.dtype, np.float64)
    htil_out = cache.htil if cache.mask_o is None else cache.htil * cache.mask_o
    cache.htil_out = htil_out
    cache.smax = predict_distribution(params, htil_out)
    smax_y = np.take_along_axis(cache.smax, tgt_out[..., None], 2)[..., 0]
    cache.smax_y = smax_y = smax_y.astype(mix_dtype)
    lexicon = lexicon_rows(params, src)
    if lexicon is not None:
        lam = params.lex_weight
        rows, backoff = lexicon
        # lex_y[b, t, i] = p(y_bt | src_bi)
        lex_y = rows[np.arange(B)[:, None, None], np.arange(S),
                     tgt_out[..., None]]
        alpha = cache.alpha.astype(mix_dtype)
        cache.mix = 1.0 - lam + lam * (alpha @ backoff[:, :, None])[..., 0]
        p_y = cache.mix * smax_y + lam * (alpha * lex_y).sum(axis=2)
        cache.lex_y, cache.backoff = lex_y, backoff
    else:
        p_y = smax_y
        cache.lex_y = cache.mix = cache.backoff = None
    cache.p_y = p_y
    cache.loss = -np.log(np.maximum(p_y[tgt_mask], P_FLOOR)).sum()
    return cache


# ---------------------------------------------------------------------------
# backward
#
# Products that do not feed a recurrence run once per batch, outside the
# time loops.  The (B, S, H) attention activations are recomputed per
# step rather than kept for every step, the gate arrays turn into gate
# gradients in place, and each gradient is written straight into its
# buffer by the product that computes it, so memory stays near one set
# of gradients plus the cache.

def _output_backward(params: ModelParameters, cache: _BatchCache,
                     grads: ModelParameters):
    """Gradients of the output layer; returns the gradient reaching h~
    (B, T, H) and the one reaching the attention weights through the
    lexicon mixture (B, T, S), None without a lexicon."""
    dtype = params.W_enc.dtype
    B, T = cache.tgt_out.shape
    # d/dp_y of the per-token loss -log(max(p_y, P_FLOOR)), which is flat
    # below the floor (-1 / P_FLOOR would overflow float32 gradients to
    # inf, and inf * 0 to NaN), and 0 at padded positions
    live = cache.tgt_mask & (cache.p_y > P_FLOOR)
    slope = np.where(live, -1.0 / np.where(live, cache.p_y, 1.0), 0.0)
    if cache.mix is not None:
        dsmax_y = cache.mix * slope
        dalpha_mix = (params.lex_weight * slope[..., None]
                      * (cache.backoff[:, None, :] * cache.smax_y[..., None]
                         + cache.lex_y)).astype(dtype)
    else:
        dsmax_y = slope
        dalpha_mix = None

    # softmax backward with a single nonzero upstream component
    g_y = (dsmax_y * cache.smax_y).astype(dtype)
    DL = cache.smax * -g_y[..., None]
    DL[np.arange(B)[:, None], np.arange(T), cache.tgt_out] += g_y
    np.matmul(_flat(DL).T, _flat(cache.htil_out), out=grads.W_pred)
    _flat(DL).sum(axis=0, out=grads.b_pred)
    dhtil = _rows(DL, params.W_pred)
    if cache.mask_o is not None:
        dhtil *= cache.mask_o
    return dhtil, dalpha_mix


def _lstm_backward_factors(gates, c, c_first):
    """Turn an LSTM's gates (B, N, 4H) = [i, f, g, o] into the factors of
    its backward, in place.  With cell states c (B, N, H) and c_first
    the state before position 0, a step's backward is dc = dc_next +
    dh * dc_dh and dz = [dc, dc, dc, dh] * gates; returns (dc_dh, f)."""
    H = c.shape[2]
    i, f, g, o = (gates[..., k * H:(k + 1) * H] for k in range(4))
    forget = f.copy()
    tanh_c = np.tanh(c)
    dc_dh = o * (1.0 - tanh_c * tanh_c)
    o *= 1.0 - o
    o *= tanh_c
    f *= 1.0 - f
    f *= _shifted(c_first, c)
    g_factor = i * (1.0 - g * g)
    i *= 1.0 - i
    i *= g
    g[...] = g_factor
    return dc_dh, forget


def _decoder_backward(params: ModelParameters, cache: _BatchCache,
                      dhtil_out, dalpha_mix, grads: ModelParameters):
    """Gradients of the decoder and the attention; returns the gradient
    reaching the encoder states (B, S, H), the decoder's start state
    included, and the one reaching the start cell state (B, H)."""
    H = params.hidden_size
    d = params.embed_size
    dtype = params.W_enc.dtype
    B, T = cache.tgt_out.shape
    S = cache.src.shape[1]
    Hx, keys, hd = cache.Hx, cache.keys, cache.hd
    h0, c0 = Hx[cache.last], cache.enc_c[cache.last]
    # DZ holds each step's factors until the step overwrites them with
    # its gate gradient
    dc_dh, forget = _lstm_backward_factors(cache.dec_gates, cache.dec_c, c0)
    DZ = cache.dec_gates
    dtanh_htil = 1.0 - cache.htil * cache.htil
    W_rec = params.W_dec[:, d:]

    DPC = np.empty((B, T, H), dtype=dtype)
    DCTX = np.empty((B, T, H), dtype=dtype)
    DMS = np.empty((B, T, H), dtype=dtype)
    dM = np.zeros((B, S, H), dtype=dtype)
    dv = np.zeros(H, dtype=dtype)
    drec = np.zeros((B, 2 * H), dtype=dtype)   # [dh~ fed back; dh_prev]
    dc_next = np.zeros((B, H), dtype=dtype)
    for t in range(T - 1, -1, -1):
        # combiner
        dpre_c = (dhtil_out[:, t] + drec[:, :H]) * dtanh_htil[:, t]
        DPC[:, t] = dpre_c
        dq = dpre_c @ params.W_comb
        dctx = dq[:, H:]
        DCTX[:, t] = dctx

        # context and attention
        alpha = cache.alpha[:, t]
        dalpha = (Hx @ dctx[:, :, None])[..., 0]
        if dalpha_mix is not None:
            dalpha += dalpha_mix[:, t]
        dscores = alpha * (dalpha - (dalpha * alpha).sum(axis=1, keepdims=True))
        m = np.add(keys, cache.query[:, t, None, :])
        np.tanh(m, out=m)
        dv += dscores.reshape(-1) @ _flat(m)
        dm = np.multiply(m, m, out=m)
        np.subtract(1.0, dm, out=dm)
        dm *= dscores[..., None]
        dm *= params.v_att
        dM += dm
        dm_sum = dm.sum(axis=1)
        DMS[:, t] = dm_sum

        # LSTM step
        dh = dq[:, :H] + dm_sum @ params.W_att_h + drec[:, H:]
        dc = dc_next + dh * dc_dh[:, t]
        dz = np.multiply(np.concatenate([dc, dc, dc, dh], axis=1), DZ[:, t],
                         out=DZ[:, t])
        dc_next = dc * forget[:, t]
        drec = dz @ W_rec

    np.matmul(_flat(DPC).T, _flat(np.concatenate([hd, cache.ctx], axis=2)),
              out=grads.W_comb)
    _flat(DPC).sum(axis=0, out=grads.b_comb)
    grads.v_att[...] = dv
    np.matmul(_flat(dM).T, _flat(Hx), out=grads.W_att_x)
    np.matmul(_flat(DMS).T, _flat(hd), out=grads.W_att_h)
    _flat(DMS).sum(axis=0, out=grads.b_att)
    # W_dec's columns take [e; h~_prev; h_prev]
    W_dec = grads.W_dec
    htil_prev = _shifted(np.zeros((B, H), dtype=dtype), cache.htil)
    np.matmul(_flat(DZ).T, _flat(cache.e), out=W_dec[:, :d])
    np.matmul(_flat(DZ).T, _flat(htil_prev), out=W_dec[:, d:d + H])
    np.matmul(_flat(DZ).T, _flat(_shifted(h0, hd)), out=W_dec[:, d + H:])
    _flat(DZ).sum(axis=0, out=grads.b_dec)
    DE = _rows(DZ, params.W_dec[:, :d])
    if cache.mask_e is not None:
        DE *= cache.mask_e
    grads.E_tgt[...] = 0.0
    np.add.at(grads.E_tgt, cache.tgt_in[cache.tgt_mask], DE[cache.tgt_mask])

    dHx = cache.alpha.transpose(0, 2, 1) @ DCTX + _rows(dM, params.W_att_x)
    dHx[cache.last] += drec[:, H:]
    return dHx, dc_next


def _encoder_backward(params: ModelParameters, cache: _BatchCache, dHx,
                      dc_last, grads: ModelParameters) -> None:
    """Gradients of the encoder, from those reaching its states dHx and,
    at each pair's last source position, its cell state dc_last."""
    H = params.hidden_size
    d = params.embed_size
    dtype = params.W_enc.dtype
    B, S = cache.src.shape
    dc_in = np.zeros((B, S, H), dtype=dtype)
    dc_in[cache.last] = dc_last
    start = np.zeros((B, H), dtype=dtype)
    dc_dh, forget = _lstm_backward_factors(cache.enc_gates, cache.enc_c, start)
    EZ = cache.enc_gates
    W_h = params.W_enc[:, d:]
    dh_carry = np.zeros((B, H), dtype=dtype)
    dc_carry = np.zeros((B, H), dtype=dtype)
    for n in range(S - 1, -1, -1):
        dh = dh_carry + dHx[:, n]
        dc = dc_carry + dc_in[:, n] + dh * dc_dh[:, n]
        dz = np.multiply(np.concatenate([dc, dc, dc, dh], axis=1), EZ[:, n],
                         out=EZ[:, n])
        dc_carry = dc * forget[:, n]
        dh_carry = dz @ W_h
    W_enc = grads.W_enc
    np.matmul(_flat(EZ).T, _flat(cache.x), out=W_enc[:, :d])
    np.matmul(_flat(EZ).T, _flat(_shifted(start, cache.Hx)), out=W_enc[:, d:])
    _flat(EZ).sum(axis=0, out=grads.b_enc)
    DX = _rows(EZ, params.W_enc[:, :d])
    if cache.mask_src is not None:
        DX *= cache.mask_src
    valid = np.arange(S) < cache.src_len[:, None]
    grads.E_src[...] = 0.0
    np.add.at(grads.E_src, cache.src[valid], DX[valid])


def backward_pair(
    params: ModelParameters, cache: _BatchCache, grads: ModelParameters
) -> None:
    """Write the gradients of cache.loss into grads, a ModelParameters
    of params' layout with its own flat buffer.  Consumes the cache."""
    dhtil, dalpha_mix = _output_backward(params, cache, grads)
    dHx, dc_last = _decoder_backward(params, cache, dhtil, dalpha_mix, grads)
    _encoder_backward(params, cache, dHx, dc_last, grads)


def batch_loss_and_gradients(
    params: ModelParameters,
    batch: list[tuple[list[int], list[int]]],
    rng: np.random.Generator | None = None,
    dropout: float = 0.0,
) -> tuple[float, int, ModelParameters]:
    """Mean-per-token loss over the batch, its token count, and matching
    gradients in params' layout."""
    # the gradient buffer is allocated before the cache, so the memory
    # the cache frees on return is what Adam's scratch arrays reuse
    grads = replace(params, flat=np.empty_like(params.flat))
    cache = forward_pair(params, batch, rng, dropout)
    backward_pair(params, cache, grads)
    grads.flat /= cache.tokens
    return float(cache.loss) / cache.tokens, cache.tokens, grads


def corpus_loss(
    params: ModelParameters,
    pairs: list[tuple[list[int], list[int]]],
    minibatch_words: int = 2048,
) -> float:
    """Mean-per-token loss over pairs, forwarded in make_batches batches."""
    total = 0.0
    tokens = 0
    for batch in make_batches(pairs, minibatch_words):
        cache = forward_pair(params, batch)
        total += float(cache.loss)
        tokens += cache.tokens
    return total / max(tokens, 1)


# ---------------------------------------------------------------------------
# batching

def make_batches(
    pairs: list[tuple[list[int], list[int]]], minibatch_words: int
) -> list[list[tuple[list[int], list[int]]]]:
    """Greedy fill from length-sorted pairs; budget counts target tokens."""
    order = sorted(range(len(pairs)),
                   key=lambda i: (len(pairs[i][1]), len(pairs[i][0]), i))
    batches: list[list[tuple[list[int], list[int]]]] = []
    current: list[tuple[list[int], list[int]]] = []
    words = 0
    for i in order:
        n = len(pairs[i][1])
        if current and words + n > minibatch_words:
            batches.append(current)
            current, words = [], 0
        current.append(pairs[i])
        words += n
    if current:
        batches.append(current)
    return batches


# ---------------------------------------------------------------------------
# Adam

# Adam steps the flat buffers this many elements at a time, through two
# scratch arrays of this size: scratch the size of the whole buffer raised
# the peak RSS at H=512 by 12 to 17 MiB, and one update per tensor
# allocated two temporaries the size of each tensor.
ADAM_CHUNK = 1 << 15


class AdamState:
    """Adam (Kingma & Ba, 2015), its moments m and v in params' layout."""

    def __init__(self, params: ModelParameters, config: TrainingConfig):
        self.m = replace(params, flat=np.zeros_like(params.flat))
        self.v = replace(params, flat=np.zeros_like(params.flat))
        self.scratch = np.empty((2, min(ADAM_CHUNK, params.flat.size)),
                                dtype=params.flat.dtype)
        self.t = 0
        self.beta1 = config.adam_beta1
        self.beta2 = config.adam_beta2
        self.epsilon = config.adam_epsilon

    def update(self, params: ModelParameters, grads: ModelParameters,
               learning_rate: float) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        corr1 = 1.0 - b1 ** self.t
        corr2 = 1.0 - b2 ** self.t
        # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2,
        # theta -= lr (m / corr1) / (sqrt(v / corr2) + eps), element by element
        for lo in range(0, params.flat.size, ADAM_CHUNK):
            theta, g, m, v = (p.flat[lo:lo + ADAM_CHUNK]
                              for p in (params, grads, self.m, self.v))
            denom, step = self.scratch[:, :g.size]
            np.multiply(g, 1 - b1, out=step)
            m *= b1
            m += step
            np.multiply(g, g, out=step)
            step *= 1 - b2
            v *= b2
            v += step
            np.divide(v, corr2, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.epsilon
            np.divide(m, corr1, out=step)
            step *= learning_rate
            step /= denom
            theta -= step


# ---------------------------------------------------------------------------
# training loop

def train(
    encoded_pairs: list[tuple[list[int], list[int]]],
    src_vocab_size: int,
    tgt_vocab_size: int,
    config: TrainingConfig,
    lexicon: LexiconTable | None = None,
) -> tuple[ModelParameters, TrainingLog]:
    """Train on encoded (src_ids, tgt_ids-with-EOS) pairs.  The last
    dev_fraction of pairs (callers pass them in chronological order)
    forms the development split."""
    if not encoded_pairs:
        raise ValueError("empty training corpus")
    rng = np.random.default_rng(config.seed)
    params = ModelParameters.initialize(
        rng, src_vocab_size, tgt_vocab_size,
        hidden_size=config.hidden_size, embed_size=config.embed_size,
        lex_weight=config.lex_weight,
    )
    params.lexicon = lexicon

    n_dev = max(1, int(round(len(encoded_pairs) * config.dev_fraction)))
    n_dev = min(n_dev, len(encoded_pairs) - 1) if len(encoded_pairs) > 1 else 0
    if n_dev > 0:
        train_pairs = encoded_pairs[:-n_dev]
        dev_pairs = encoded_pairs[-n_dev:]
    else:
        train_pairs = encoded_pairs
        dev_pairs = encoded_pairs
    batches = make_batches(train_pairs, config.minibatch_words)

    logbook = TrainingLog()
    best = params.copy()
    lr = config.learning_rate
    adam = AdamState(params, config)
    prev_dev = float("inf")

    for epoch in range(config.max_epochs):
        started = time.monotonic()
        epoch_loss = 0.0
        epoch_tokens = 0
        # visit batches in a fresh seeded order each epoch; a fixed order
        # cycles the same pairs last and starves whatever came first once
        # the learning rate decays
        for bi in rng.permutation(len(batches)):
            batch = batches[int(bi)]
            loss, tokens, grads = batch_loss_and_gradients(
                params, batch, rng, config.dropout)
            if not np.isfinite(loss):
                log.error("non-finite loss at epoch %d; keeping last good "
                          "snapshot", epoch)
                logbook.aborted = True
                break
            epoch_loss += loss * tokens
            epoch_tokens += tokens
            adam.update(params, grads, lr)
        if logbook.aborted or not params.all_finite():
            logbook.aborted = True
            break
        dev_loss = corpus_loss(params, dev_pairs, config.minibatch_words)
        train_loss = epoch_loss / max(epoch_tokens, 1)
        logbook.epochs.append(EpochStats(
            epoch, train_loss, dev_loss, lr, time.monotonic() - started))
        log.info("epoch %d train %.4f dev %.4f lr %.2e",
                 epoch, train_loss, dev_loss, lr)
        if dev_loss < logbook.best_dev_loss:
            logbook.best_dev_loss = dev_loss
            logbook.best_epoch = epoch
            np.copyto(best.flat, params.flat)
        if dev_loss > prev_dev:
            lr *= config.decay_factor
        prev_dev = dev_loss
    return best, logbook


# ---------------------------------------------------------------------------
# gradient check

def gradient_check(
    params: ModelParameters,
    batch: list[tuple[list[int], list[int]]],
) -> float:
    """Max relative error, with dropout off, between analytic gradients
    at float64 and central differences over every parameter tensor.  The
    differences are taken at the platform's extended precision
    (np.longdouble) where it has one: at float64 the loss's rounding
    noise, divided by the step, is around 1e-12, which is 1e-4 of the
    smallest gradients."""
    step = 1e-4
    _, _, analytic = batch_loss_and_gradients(params.astype(np.float64), batch)
    wide = params.astype(np.longdouble)

    def objective():
        cache = forward_pair(wide, batch)
        return cache.loss / cache.tokens

    worst = 0.0
    for idx in range(wide.flat.size):
        original = wide.flat[idx]
        wide.flat[idx] = original + step
        up = objective()
        wide.flat[idx] = original - step
        down = objective()
        wide.flat[idx] = original
        numeric = float((up - down) / (2.0 * step))
        denom = abs(analytic.flat[idx]) + abs(numeric)
        if denom < 1e-10:
            continue
        rel = abs(analytic.flat[idx] - numeric) / denom
        worst = max(worst, rel)
    return float(worst)
