"""Beam-search decoding over a trained model.

Hypotheses carry raw (unnormalized) accumulated log probabilities;
thresholding downstream assumes exactly that.  Finished hypotheses are
retired into a pool and search stops once no live hypothesis can beat
the best finished one, which preserves top-1 optimality over the
explored space.  If nothing finishes within max_len, the best
unfinished hypothesis is returned and flagged via finished=False.

beam_search, sequence_log_prob (teacher-forced rescoring) and
exhaustive_search (the exact reference a wide beam must match) share
one step, Decoder.step, which advances K hypotheses at once: the
decoder state is three (K, H) arrays, attention keys are computed once
per source and h~ once per step.

Decoder steps compute in float64, on copies of the decoder weights cast
once per decode; the encoder stays float32.  In float32 a BLAS product
gives a row slightly different values depending on how many rows share
the call (up to 4e-5 at H=128), so a hypothesis' score would depend on
the hypotheses it was stepped with.  In float64 the difference is near
1e-15, and the three searchers agree within 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import (
    P_FLOOR,
    LexiconTable,
    ModelParameters,
    attend,
    attention_keys,
    attentional_vector,
    encode,
    lexicon_rows,
    lstm_step,
    predict_distribution,
)
from .vocab import BOS_ID, EOS_ID

_DECODER_TENSORS = ("E_tgt", "W_dec", "b_dec", "W_att_x", "W_att_h",
                    "b_att", "v_att", "W_comb", "b_comb", "W_pred", "b_pred")

# (h, c, h~), each (K, H): one row per live hypothesis
State = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass
class Hypothesis:
    tokens: tuple[int, ...]
    log_prob: float
    finished: bool

    @property
    def output_ids(self) -> tuple[int, ...]:
        """Generated ids without the closing </s>."""
        if self.finished and self.tokens and self.tokens[-1] == EOS_ID:
            return self.tokens[:-1]
        return self.tokens


class Decoder:
    """One source, encoded and ready to decode: float64 decoder weights,
    encoder states, attention keys and lexicon rows, plus the step that
    advances any number of hypotheses together."""

    def __init__(self, params: ModelParameters, src_ids: list[int],
                 table: LexiconTable | None = None):
        states, h, c = encode(params, src_ids)
        # a new object: the caller's parameters are never modified
        self.params = replace(params, **{
            name: getattr(params, name).astype(np.float64)
            for name in _DECODER_TENSORS})
        self.states = states.astype(np.float64)
        self.keys = attention_keys(self.params, self.states)
        self.lexicon = lexicon_rows(self.params, src_ids, table)
        self.start: State = (h[None].astype(np.float64),
                             c[None].astype(np.float64),
                             np.zeros((1, params.hidden_size)))

    def step(self, state: State, prev_ids: np.ndarray) -> tuple[State, np.ndarray]:
        """Feed prev_ids (K,) to the K rows of state; returns the next
        state and (K, V_tgt) log probabilities, floored at log P_FLOOR."""
        p = self.params
        h, c, htilde = state
        x = np.concatenate([p.E_tgt[prev_ids], htilde], axis=1)
        h, c = lstm_step(p.W_dec, p.b_dec, x, h, c)
        weights, context = attend(p, self.states, self.keys, h)
        htilde = attentional_vector(p, h, context)
        probs = predict_distribution(p, htilde, weights, self.lexicon)
        return (h, c, htilde), np.log(np.maximum(probs, P_FLOOR))


def _last_ids(tokens: list[tuple[int, ...]]) -> np.ndarray:
    return np.array([t[-1] if t else BOS_ID for t in tokens])


def _extend(tokens: list[tuple[int, ...]], total: np.ndarray, state: State,
            rows: np.ndarray, toks: np.ndarray):
    """Tokens, scores and state of the hypotheses that extend row
    rows[i] with token toks[i]."""
    extended = [tokens[r] + (t,) for r, t in zip(rows.tolist(), toks.tolist())]
    return extended, total[rows, toks], tuple(a[rows] for a in state)


def _top_candidates(total: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, tokens) of the k best entries of total (K, V), ordered by
    score descending, then token ascending, then row ascending."""
    K = total.shape[0]
    flat = total.T.ravel()  # position = token * K + row
    k = min(k, flat.size)
    if k < flat.size:
        kth = np.partition(flat, flat.size - k)[flat.size - k]
        picked = np.flatnonzero(flat >= kth)
    else:
        picked = np.arange(flat.size)
    picked = picked[np.argsort(-flat[picked], kind="stable")[:k]]
    tokens, rows = np.divmod(picked, K)
    return rows, tokens


def beam_search(
    params: ModelParameters,
    src_ids: list[int],
    beam_size: int = 10,
    max_len: int = 100,
    table: LexiconTable | None = None,
) -> list[Hypothesis]:
    """Best hypotheses first; table is model.lexicon_table(params), built
    here when not given."""
    if beam_size < 1:
        raise ValueError("beam_size must be at least 1")
    decoder = Decoder(params, src_ids, table)
    state = decoder.start
    tokens: list[tuple[int, ...]] = [()]
    scores = np.zeros(1)
    pool: list[Hypothesis] = []
    best_finished = -np.inf

    for _ in range(max_len):
        state, logp = decoder.step(state, _last_ids(tokens))
        total = scores[:, None] + logp
        rows, toks = _top_candidates(total, beam_size)
        live = toks != EOS_ID
        for r in rows[~live].tolist():
            pool.append(Hypothesis(tokens=tokens[r] + (EOS_ID,),
                                   log_prob=float(total[r, EOS_ID]), finished=True))
            best_finished = max(best_finished, pool[-1].log_prob)
        if not live.any():
            break
        tokens, scores, state = _extend(tokens, total, state, rows[live], toks[live])
        if scores.max() <= best_finished:
            break

    if pool:
        pool.sort(key=lambda hyp: -hyp.log_prob)
        return pool[:beam_size]
    # the beam is in candidate order, best first
    return [Hypothesis(tokens=tokens[0], log_prob=float(scores[0]), finished=False)]


def sequence_log_prob(
    params: ModelParameters, src_ids: list[int], tgt_ids: list[int]
) -> float:
    """Teacher-forced log P(tgt | src), scored exactly as beam_search
    scores a hypothesis; tgt_ids ends with </s> unless it is unfinished."""
    decoder = Decoder(params, src_ids)
    state = decoder.start
    total = 0.0
    prev = BOS_ID
    for tid in tgt_ids:
        state, logp = decoder.step(state, np.array([prev]))
        total += float(logp[0, tid])
        prev = tid
    return total


def exhaustive_search(
    params: ModelParameters, src_ids: list[int], max_len: int
) -> Hypothesis:
    """The exact answer beam_search's first hypothesis approximates: the
    best sequence that ends with </s> within max_len tokens or, when
    there is none, the best unfinished one.  Every prefix is expanded,
    (V_tgt - 1)**max_len rows at the last step, so this is a reference
    for tiny vocabularies and lengths only."""
    decoder = Decoder(params, src_ids)
    state = decoder.start
    tokens: list[tuple[int, ...]] = [()]
    scores = np.zeros(1)
    best: Hypothesis | None = None
    non_eos = np.array([t for t in range(params.tgt_vocab_size) if t != EOS_ID])

    for _ in range(max_len):
        state, logp = decoder.step(state, _last_ids(tokens))
        total = scores[:, None] + logp
        r = int(np.argmax(total[:, EOS_ID]))
        if best is None or total[r, EOS_ID] > best.log_prob:
            best = Hypothesis(tokens=tokens[r] + (EOS_ID,),
                              log_prob=float(total[r, EOS_ID]), finished=True)
        rows = np.repeat(np.arange(len(tokens)), len(non_eos))
        tokens, scores, state = _extend(tokens, total, state, rows,
                                        np.tile(non_eos, len(tokens)))

    if best is not None:
        return best
    r = int(np.argmax(scores))
    return Hypothesis(tokens=tokens[r], log_prob=float(scores[r]), finished=False)
