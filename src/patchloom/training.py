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

All forward quantities are cached per pair and consumed by a manual
reverse sweep; gradient_check verifies that sweep against central
finite differences at float64.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .model import P_FLOOR, ModelParameters, sigmoid
from .vocab import BOS_ID, EOS_ID

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
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.minibatch_words < 1:
            raise ValueError("minibatch_words must be at least 1")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    dev_loss: float
    learning_rate: float
    seconds: float


@dataclass
class TrainingLog:
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = -1
    best_dev_loss: float = float("inf")
    aborted: bool = False


# ---------------------------------------------------------------------------
# forward with caches

class _PairCache:
    __slots__ = (
        "src_ids", "tgt_in", "tgt_out", "S", "T", "loss",
        "x", "mask_src", "enc_full", "enc_i", "enc_f", "enc_g", "enc_o",
        "enc_c", "enc_cprev", "Hx",
        "e", "mask_e", "dec_full", "dec_i", "dec_f", "dec_g", "dec_o",
        "dec_c", "dec_cprev", "hd", "alpha", "ctx", "htil", "mask_o",
        "htil_out", "smax", "c0",
    )


def _run_lstm(W, b, inputs, h0, c0):
    """Unrolled LSTM over (N, in) inputs; returns per-step caches."""
    H = h0.shape[0]
    N = inputs.shape[0]
    dtype = W.dtype
    full = np.empty((N, inputs.shape[1] + H), dtype=dtype)
    gi = np.empty((N, H), dtype=dtype)
    gf = np.empty((N, H), dtype=dtype)
    gg = np.empty((N, H), dtype=dtype)
    go = np.empty((N, H), dtype=dtype)
    cs = np.empty((N, H), dtype=dtype)
    cprev = np.empty((N, H), dtype=dtype)
    hs = np.empty((N, H), dtype=dtype)
    h, c = h0, c0
    for n in range(N):
        fin = np.concatenate([inputs[n], h])
        z = W @ fin + b
        i = sigmoid(z[0:H])
        f = sigmoid(z[H:2 * H])
        g = np.tanh(z[2 * H:3 * H])
        o = sigmoid(z[3 * H:4 * H])
        cprev[n] = c
        c = f * c + i * g
        h = o * np.tanh(c)
        full[n] = fin
        gi[n], gf[n], gg[n], go[n] = i, f, g, o
        cs[n] = c
        hs[n] = h
    return full, gi, gf, gg, go, cs, cprev, hs, h, c


def _drop_mask(rng, shape, rate, dtype):
    if rng is None or rate <= 0.0:
        return None
    keep = 1.0 - rate
    return (rng.random(shape) < keep).astype(dtype) / dtype.type(keep)


def forward_pair(
    params: ModelParameters,
    src_ids: list[int],
    tgt_ids: list[int],
    rng: np.random.Generator | None = None,
    dropout: float = 0.0,
) -> _PairCache:
    """Teacher-forced forward pass; tgt_ids must end with EOS."""
    H = params.hidden_size
    d = params.embed_size
    dtype = params.W_enc.dtype
    cache = _PairCache()
    cache.src_ids = list(src_ids)
    cache.tgt_out = list(tgt_ids)
    cache.tgt_in = [BOS_ID] + list(tgt_ids[:-1])
    S, T = len(src_ids), len(tgt_ids)
    cache.S, cache.T = S, T

    x = params.E_src[src_ids].copy()
    cache.mask_src = _drop_mask(rng, x.shape, dropout, x.dtype)
    if cache.mask_src is not None:
        x *= cache.mask_src
    cache.x = x
    (cache.enc_full, cache.enc_i, cache.enc_f, cache.enc_g, cache.enc_o,
     cache.enc_c, cache.enc_cprev, cache.Hx, h, c) = _run_lstm(
        params.W_enc, params.b_enc, x, np.zeros(H, dtype), np.zeros(H, dtype))

    e = params.E_tgt[cache.tgt_in].copy()
    cache.mask_e = _drop_mask(rng, e.shape, dropout, e.dtype)
    if cache.mask_e is not None:
        e *= cache.mask_e
    cache.e = e

    pre_att = cache.Hx @ params.W_att_x.T                        # (S, H)
    lam = params.lex_weight if params.lexicon else 0.0
    lex_rows = [params.lexicon.get(sid) for sid in src_ids] if lam > 0.0 else None

    cache.dec_full = np.empty((T, d + 2 * H), dtype=dtype)
    cache.dec_i = np.empty((T, H), dtype=dtype)
    cache.dec_f = np.empty((T, H), dtype=dtype)
    cache.dec_g = np.empty((T, H), dtype=dtype)
    cache.dec_o = np.empty((T, H), dtype=dtype)
    cache.dec_c = np.empty((T, H), dtype=dtype)
    cache.dec_cprev = np.empty((T, H), dtype=dtype)
    cache.hd = np.empty((T, H), dtype=dtype)
    cache.alpha = np.empty((T, S), dtype=dtype)
    cache.ctx = np.empty((T, H), dtype=dtype)
    cache.htil = np.empty((T, H), dtype=dtype)
    cache.htil_out = np.empty((T, H), dtype=dtype)
    cache.smax = np.empty((T, params.tgt_vocab_size), dtype=dtype)
    cache.c0 = np.ones(T, dtype=np.float64)
    cache.mask_o = _drop_mask(rng, (T, H), dropout, np.dtype(dtype))

    htil_prev = np.zeros(H, dtype=dtype)
    loss = 0.0
    for t in range(T):
        u = np.concatenate([e[t], htil_prev, h])
        z = params.W_dec @ u + params.b_dec
        gi = sigmoid(z[0:H])
        gf = sigmoid(z[H:2 * H])
        gg = np.tanh(z[2 * H:3 * H])
        go = sigmoid(z[3 * H:4 * H])
        cache.dec_cprev[t] = c
        c = gf * c + gi * gg
        h = go * np.tanh(c)
        cache.dec_full[t] = u
        cache.dec_i[t], cache.dec_f[t] = gi, gf
        cache.dec_g[t], cache.dec_o[t] = gg, go
        cache.dec_c[t] = c
        cache.hd[t] = h

        m = np.tanh(pre_att + params.W_att_h @ h + params.b_att)  # (S, H)
        scores = m @ params.v_att
        scores = scores - scores.max()
        ex = np.exp(scores)
        alpha = ex / ex.sum()
        ctx = alpha @ cache.Hx
        cache.alpha[t] = alpha
        cache.ctx[t] = ctx

        htil = np.tanh(params.W_comb @ np.concatenate([h, ctx]) + params.b_comb)
        cache.htil[t] = htil
        htil_prev = htil
        hout = htil if cache.mask_o is None else htil * cache.mask_o[t]
        cache.htil_out[t] = hout

        logits = params.W_pred @ hout + params.b_pred
        logits = logits - logits.max()
        exl = np.exp(logits)
        smax = exl / exl.sum()
        cache.smax[t] = smax

        y = cache.tgt_out[t]
        if lam > 0.0:
            lex_y = 0.0
            backoff = 0.0
            for a_i, row in zip(alpha, lex_rows):
                if row is None:
                    backoff += float(a_i)
                else:
                    lex_y += float(a_i) * row.get(y, 0.0)
            c0 = 1.0 - lam + lam * backoff
            p_y = c0 * float(smax[y]) + lam * lex_y
            cache.c0[t] = c0
        else:
            p_y = float(smax[y])
        loss -= np.log(max(p_y, P_FLOOR))
    cache.loss = float(loss)
    return cache


# ---------------------------------------------------------------------------
# backward

def zero_gradients(params: ModelParameters) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(t) for name, t in params.tensors().items()}


def _loss_slope(p_y: float) -> float:
    """d/dp_y of the forward's per-token loss -log(max(p_y, P_FLOOR)),
    which is flat below the floor.  (-1 / P_FLOOR there would overflow
    float32 gradients to inf, and inf * 0 to NaN.)"""
    return -1.0 / p_y if p_y > P_FLOOR else 0.0


def backward_pair(
    params: ModelParameters, cache: _PairCache, grads: dict[str, np.ndarray]
) -> None:
    # Per-step gradient rows are staged in (T, .) buffers so each weight
    # matrix gets one matmul per pair instead of T rank-1 updates; the
    # time loops only keep the genuinely recurrent matvecs.
    H = params.hidden_size
    d = params.embed_size
    dtype = params.W_enc.dtype
    S, T = cache.S, cache.T
    lam = params.lex_weight if params.lexicon else 0.0
    lex_rows = (
        [params.lexicon.get(sid) for sid in cache.src_ids] if lam > 0.0 else None
    )
    pre_att = cache.Hx @ params.W_att_x.T
    # all attention pre-activations at once: (T, S, H)
    M = np.tanh(pre_att[None, :, :] + (cache.hd @ params.W_att_h.T)[:, None, :]
                + params.b_att)

    DL = np.empty((T, params.tgt_vocab_size), dtype=dtype)
    DPC = np.empty((T, H), dtype=dtype)
    DCTX = np.empty((T, H), dtype=dtype)
    DMS = np.empty((T, H), dtype=dtype)
    DZ = np.empty((T, 4 * H), dtype=dtype)
    DE = np.empty((T, d), dtype=dtype)
    dM_acc = np.zeros((S, H), dtype=dtype)
    dv_acc = np.zeros(H, dtype=dtype)
    dh_next = np.zeros(H, dtype=dtype)
    dc_next = np.zeros(H, dtype=dtype)
    dhtil_infeed = np.zeros(H, dtype=dtype)

    for t in range(T - 1, -1, -1):
        y = cache.tgt_out[t]
        smax = cache.smax[t]
        alpha = cache.alpha[t]
        if lam > 0.0:
            lex_y = 0.0
            for a_i, row in zip(alpha, lex_rows):
                if row is not None:
                    lex_y += float(a_i) * row.get(y, 0.0)
            c0 = cache.c0[t]
            p_y = c0 * float(smax[y]) + lam * lex_y
            dP_y = _loss_slope(p_y)
            dls_y = c0 * dP_y                      # dL/d smax[y]
            dalpha_mix = np.empty(S, dtype=dtype)
            base = lam * float(smax[y]) * dP_y
            for i, row in enumerate(lex_rows):
                if row is None:
                    dalpha_mix[i] = base
                else:
                    dalpha_mix[i] = lam * row.get(y, 0.0) * dP_y
        else:
            p_y = float(smax[y])
            dls_y = _loss_slope(p_y)
            dalpha_mix = None

        # softmax backward with single nonzero upstream component
        dlogits = smax * (-(dls_y * smax[y]))
        dlogits[y] += dls_y * smax[y]
        DL[t] = dlogits

        dhout = params.W_pred.T @ dlogits
        if cache.mask_o is not None:
            dhout = dhout * cache.mask_o[t]
        dhtil = dhout + dhtil_infeed

        # combiner
        htil = cache.htil[t]
        dpre_c = dhtil * (1.0 - htil * htil)
        DPC[t] = dpre_c
        dq = params.W_comb.T @ dpre_c
        dh = dq[:H].copy()
        dctx = dq[H:]
        DCTX[t] = dctx

        # context and attention
        dalpha = cache.Hx @ dctx
        if dalpha_mix is not None:
            dalpha = dalpha + dalpha_mix
        dot = float(dalpha @ alpha)
        dscores = alpha * (dalpha - dot)
        m = M[t]
        dv_acc += m.T @ dscores
        dm = (dscores[:, None] * params.v_att[None, :]) * (1.0 - m * m)
        dM_acc += dm
        dm_sum = dm.sum(axis=0)
        DMS[t] = dm_sum
        dh += params.W_att_h.T @ dm_sum

        # decoder LSTM step
        dh += dh_next
        gi, gf = cache.dec_i[t], cache.dec_f[t]
        gg, go = cache.dec_g[t], cache.dec_o[t]
        tanh_c = np.tanh(cache.dec_c[t])
        do = dh * tanh_c
        dc = dc_next + dh * go * (1.0 - tanh_c * tanh_c)
        di = dc * gg
        df = dc * cache.dec_cprev[t]
        dg = dc * gi
        dc_next = dc * gf
        dz = DZ[t]
        dz[0:H] = di * gi * (1.0 - gi)
        dz[H:2 * H] = df * gf * (1.0 - gf)
        dz[2 * H:3 * H] = dg * (1.0 - gg * gg)
        dz[3 * H:4 * H] = do * go * (1.0 - go)
        dfull = params.W_dec.T @ dz
        de = dfull[:d]
        if cache.mask_e is not None:
            de = de * cache.mask_e[t]
        DE[t] = de
        dhtil_infeed = dfull[d:d + H]
        dh_next = dfull[d + H:]

    grads["W_pred"] += DL.T @ cache.htil_out
    grads["b_pred"] += DL.sum(axis=0)
    grads["W_comb"] += DPC.T @ np.concatenate([cache.hd, cache.ctx], axis=1)
    grads["b_comb"] += DPC.sum(axis=0)
    grads["v_att"] += dv_acc
    grads["W_att_x"] += dM_acc.T @ cache.Hx
    grads["W_att_h"] += DMS.T @ cache.hd
    grads["b_att"] += DMS.sum(axis=0)
    grads["W_dec"] += DZ.T @ cache.dec_full
    grads["b_dec"] += DZ.sum(axis=0)
    np.add.at(grads["E_tgt"], cache.tgt_in, DE)

    # encoder backward; final state seeded the decoder
    dHx = cache.alpha.T @ DCTX + dM_acc @ params.W_att_x
    EZ = np.empty((S, 4 * H), dtype=dtype)
    DX = np.empty((S, d), dtype=dtype)
    dh_carry = dh_next
    dc_carry = dc_next
    for n in range(S - 1, -1, -1):
        dh = dh_carry + dHx[n]
        gi, gf = cache.enc_i[n], cache.enc_f[n]
        gg, go = cache.enc_g[n], cache.enc_o[n]
        tanh_c = np.tanh(cache.enc_c[n])
        do = dh * tanh_c
        dc = dc_carry + dh * go * (1.0 - tanh_c * tanh_c)
        di = dc * gg
        df = dc * cache.enc_cprev[n]
        dg = dc * gi
        dc_carry = dc * gf
        dz = EZ[n]
        dz[0:H] = di * gi * (1.0 - gi)
        dz[H:2 * H] = df * gf * (1.0 - gf)
        dz[2 * H:3 * H] = dg * (1.0 - gg * gg)
        dz[3 * H:4 * H] = do * go * (1.0 - go)
        dfull = params.W_enc.T @ dz
        dx = dfull[:d]
        if cache.mask_src is not None:
            dx = dx * cache.mask_src[n]
        DX[n] = dx
        dh_carry = dfull[d:]
    grads["W_enc"] += EZ.T @ cache.enc_full
    grads["b_enc"] += EZ.sum(axis=0)
    np.add.at(grads["E_src"], cache.src_ids, DX)


def batch_loss_and_gradients(
    params: ModelParameters,
    batch: list[tuple[list[int], list[int]]],
    rng: np.random.Generator | None = None,
    dropout: float = 0.0,
) -> tuple[float, int, dict[str, np.ndarray]]:
    """Mean-per-token loss over the batch plus matching gradients."""
    grads = zero_gradients(params)
    total_loss = 0.0
    total_tokens = 0
    for src_ids, tgt_ids in batch:
        cache = forward_pair(params, src_ids, tgt_ids, rng, dropout)
        total_loss += cache.loss
        total_tokens += cache.T
        backward_pair(params, cache, grads)
    for g in grads.values():
        g /= total_tokens
    return total_loss / total_tokens, total_tokens, grads


def corpus_loss(
    params: ModelParameters, pairs: list[tuple[list[int], list[int]]]
) -> float:
    total = 0.0
    tokens = 0
    for src_ids, tgt_ids in pairs:
        cache = forward_pair(params, src_ids, tgt_ids)
        total += cache.loss
        tokens += cache.T
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

class AdamState:
    def __init__(self, params: ModelParameters, config: TrainingConfig):
        self.m = {n: np.zeros_like(t) for n, t in params.tensors().items()}
        self.v = {n: np.zeros_like(t) for n, t in params.tensors().items()}
        self.t = 0
        self.beta1 = config.adam_beta1
        self.beta2 = config.adam_beta2
        self.epsilon = config.adam_epsilon

    def update(self, params: ModelParameters, grads: dict[str, np.ndarray],
               learning_rate: float) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        corr1 = 1.0 - b1 ** self.t
        corr2 = 1.0 - b2 ** self.t
        for name, tensor in params.tensors().items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * (g * g)
            tensor -= (learning_rate * (m / corr1)
                       / (np.sqrt(v / corr2) + self.epsilon)).astype(tensor.dtype)


# ---------------------------------------------------------------------------
# training loop

def train(
    encoded_pairs: list[tuple[list[int], list[int]]],
    src_vocab_size: int,
    tgt_vocab_size: int,
    config: TrainingConfig,
    lexicon: dict[int, dict[int, float]] | None = None,
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
    if lexicon:
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
        aborted = False
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
                aborted = True
                break
            epoch_loss += loss * tokens
            epoch_tokens += tokens
            adam.update(params, grads, lr)
        if aborted or not params.all_finite():
            logbook.aborted = True
            break
        dev_loss = corpus_loss(params, dev_pairs)
        train_loss = epoch_loss / max(epoch_tokens, 1)
        logbook.epochs.append(EpochStats(
            epoch, train_loss, dev_loss, lr, time.monotonic() - started))
        log.info("epoch %d train %.4f dev %.4f lr %.2e",
                 epoch, train_loss, dev_loss, lr)
        if dev_loss < logbook.best_dev_loss:
            logbook.best_dev_loss = dev_loss
            logbook.best_epoch = epoch
            best = params.copy()
        if dev_loss > prev_dev:
            lr *= config.decay_factor
        prev_dev = dev_loss
    return best, logbook


# ---------------------------------------------------------------------------
# gradient check

def gradient_check(
    params: ModelParameters,
    batch: list[tuple[list[int], list[int]]],
    step: float = 1e-4,
    dropout: float = 0.0,
) -> float:
    """Max relative error between analytic and central-difference
    gradients over every parameter tensor, at float64."""
    if dropout != 0.0:
        raise ValueError(
            "gradient_check requires dropout disabled: the stochastic mask "
            "makes the two loss evaluations inconsistent")
    p64 = params.astype(np.float64)

    def objective() -> float:
        total, tokens = 0.0, 0
        for src_ids, tgt_ids in batch:
            cache = forward_pair(p64, src_ids, tgt_ids)
            total += cache.loss
            tokens += cache.T
        return total / tokens

    _, _, analytic = batch_loss_and_gradients(p64, batch)
    worst = 0.0
    for name, tensor in p64.tensors().items():
        grad = analytic[name]
        flat = tensor.reshape(-1)
        gflat = grad.reshape(-1)
        for idx in range(flat.shape[0]):
            original = flat[idx]
            flat[idx] = original + step
            up = objective()
            flat[idx] = original - step
            down = objective()
            flat[idx] = original
            numeric = (up - down) / (2.0 * step)
            denom = abs(gflat[idx]) + abs(numeric)
            if denom < 1e-10:
                continue
            rel = abs(gflat[idx] - numeric) / denom
            worst = max(worst, rel)
    return worst
