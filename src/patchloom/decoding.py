"""Beam-search decoding over a trained model.

Hypotheses carry raw (unnormalized) accumulated log probabilities;
thresholding downstream assumes exactly that.  Finished hypotheses are
retired into a pool and search stops once no live hypothesis can beat
the best finished one, which preserves top-1 optimality over the
explored space.  If nothing finishes within max_len, the best
unfinished hypothesis is returned and flagged via finished=False.

beam_search decodes a list of sources.  It casts the model to float64
once per list, then cuts the list, in order, into chunks whose largest
arrays stay within CHUNK_ELEMENTS: the (R, S, H) attention arrays, R
being beam_size rows per source and S the list's longest source, and,
with the lexicon on, each source's (S, V_tgt) lexicon rows.  A Decoder
encodes a chunk with one padded model.encode; each source starts from
the states at its last real token, and padded positions get no
attention weight, as in training.  Every live hypothesis of every
source is one row of the (R, H) decoder state; row_source maps each row
to its source, whose rows are adjacent and in candidate order.  Each
source takes its own top beam_size candidates (score descending, then
token ascending, then row ascending), keeps its own pool and stops on
its own.  While one source is live, the step attends over that source's
unpadded states, so a list of one computes what decoding a single
source always did.

beam_search and exhaustive_search (the exact reference a wide beam must
match) share one step, Decoder.step: model.py's forward, the one
training runs, so a hypothesis' score is the negated training loss
(training.forward_pair) of its tokens at float64.  In float32 a BLAS
product gives a row slightly different values depending on how many
rows share the call (up to 4e-5 at H=128), so a score would depend on
the hypotheses and sources it was stepped with.  In float64 the
difference is near 1e-15, and beam search, exhaustive search and the
float64 training loss agree within 1e-9 whatever shares the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    P_FLOOR,
    ModelParameters,
    attend,
    attention_keys,
    attentional_vector,
    encode,
    lexicon_rows,
    lstm_step,
    mix_lexicon,
    predict_distribution,
)
from .vocab import BOS_ID, EOS_ID

# (h, c, h~), each (R, H): one row per live hypothesis
State = tuple[np.ndarray, np.ndarray, np.ndarray]

# A memory bound.  A chunk of Q sources, S being the list's longest (so one
# long source shrinks every chunk), holds at most this many elements in
# Q * S * beam_size * H, the size of each (R, S, H) attention array, plus,
# with the lexicon on, Q * S * V_tgt lexicon rows.  Decoding the synthetic
# benchmark's 400 held-out statements and queries (H=128, beam 10, S=14,
# lexicon off) peaks at 9, 35, 71 and 242 MiB of numpy arrays at 2^18,
# 2^20, 2^21 and one chunk, taking 2.74, 2.18, 1.76 and 1.89 s.
CHUNK_ELEMENTS = 1 << 21


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
    """A chunk of sources, encoded and ready to decode: the model at
    float64, (Q, S, H) encoder states and attention keys padded to the
    longest source, the (Q, S) attention pad, each source's length and
    lexicon rows, and the start state, one row per source."""

    def __init__(self, params: ModelParameters, sources: list[list[int]]):
        params = _float64(params)
        self.params = params
        d = params.embed_size
        self.lengths = np.array([len(src) for src in sources])
        if not self.lengths.all():
            # padding would hide it, and its start state would be garbage
            raise ValueError("cannot encode an empty source")
        ids = np.zeros((len(sources), self.lengths.max()), dtype=np.intp)
        for q, src in enumerate(sources):
            ids[q, :len(src)] = src
        states, cells, _ = encode(params, params.E_src[ids])
        self.states = states
        self.keys = attention_keys(params, states)
        self.pad = np.where(np.arange(ids.shape[1]) < self.lengths[:, None],
                            0.0, -np.inf)
        self.lexicon = ([lexicon_rows(params, src) for src in sources]
                        if params.mixes_lexicon() else None)
        # transposed views: a contiguous copy costs more than it saves,
        # even over a chunk of queries at H=512
        self.W_in = params.W_dec[:, :d].T
        self.W_rec = params.W_dec[:, d:].T
        last = (np.arange(len(sources)), self.lengths - 1)
        self.start: State = (states[last], cells[last],
                             np.zeros((len(sources), params.hidden_size)))

    def step(self, state: State, prev_ids: np.ndarray,
             row_source: np.ndarray) -> tuple[State, np.ndarray]:
        """Feed prev_ids (R,) to the R rows of state, row i decoding source
        row_source[i] (ascending); returns the next state and (R, V_tgt)
        log probabilities, floored at log P_FLOOR."""
        p = self.params
        h, c, htilde = state
        z = p.E_tgt[prev_ids] @ self.W_in + p.b_dec
        z += np.concatenate([htilde, h], axis=1) @ self.W_rec
        h, c, _ = lstm_step(z, c)
        first = row_source[0]
        if first == row_source[-1]:
            # one source: its own rows, no padding and no gather
            n = self.lengths[first]
            weights, context, _ = attend(p, self.states[first:first + 1, :n],
                                         self.keys[first:first + 1, :n], h)
        else:
            weights, context, _ = attend(p, self.states[row_source],
                                         self.keys[row_source], h,
                                         self.pad[row_source])
        htilde = attentional_vector(p, h, context)
        probs = predict_distribution(p, htilde, weights, None)
        if self.lexicon is not None:
            bounds = np.flatnonzero(np.diff(row_source, prepend=-1, append=-1))
            for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
                q = row_source[a]
                probs[a:b] = mix_lexicon(p, probs[a:b], weights[a:b, :self.lengths[q]],
                                         self.lexicon[q])
        return (h, c, htilde), np.log(np.maximum(probs, P_FLOOR))


def _float64(params: ModelParameters) -> ModelParameters:
    """params at float64: params itself, or a cast copy, leaving the
    caller's object alone."""
    return params if params.flat.dtype == np.float64 else params.astype(np.float64)


def _extend(tokens: list[tuple[int, ...]], total: np.ndarray, state: State,
            rows: np.ndarray, toks: np.ndarray):
    """Tokens, scores and state of the hypotheses that extend row
    rows[i] with token toks[i]."""
    extended = [tokens[r] + (t,) for r, t in zip(rows.tolist(), toks.tolist())]
    return extended, total[rows, toks], tuple(a[rows] for a in state)


def _top_candidates(total: np.ndarray, row_source: np.ndarray,
                    k: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, tokens) of each source's k best entries of total (R, V),
    sources ascending and each source's ordered by score descending, then
    token ascending, then row ascending."""
    R, V = total.shape
    flat = total.T.ravel()  # position = token * R + row
    if row_source[0] == row_source[-1]:
        # one source, as in every list of one: a flat partition and a sort
        # of about k entries cost less than the per-source sort below
        k = min(k, flat.size)
        kth = np.partition(flat, flat.size - k)[flat.size - k]
        picked = np.flatnonzero(flat >= kth)
        # a stable sort keeps ties in position order: token, then row
        picked = picked[np.argsort(-flat[picked], kind="stable")[:k]]
    else:
        if k < V:
            # a source's k best entries are among their own rows' k best
            kth = np.partition(total, V - k, axis=1)[:, V - k]
            picked = np.flatnonzero((total >= kth[:, None]).T)
        else:
            picked = np.arange(flat.size)
        # lexsort is stable too
        sources = row_source[picked % R]
        order = np.lexsort((-flat[picked], sources))
        sources = sources[order]
        rank = np.arange(len(order)) - np.searchsorted(sources, sources)
        picked = picked[order[rank < k]]
    tokens, rows = np.divmod(picked, R)
    return rows, tokens


def beam_search(
    params: ModelParameters,
    sources: list[list[int]],
    beam_size: int = 10,
    max_len: int = 100,
) -> list[list[Hypothesis]]:
    """Each source's hypotheses, best first, in the order of sources.
    Raises ValueError on an empty source."""
    if beam_size < 1:
        raise ValueError("beam_size must be at least 1")
    params = _float64(params)    # once per list
    per_token = beam_size * params.hidden_size
    if params.mixes_lexicon():
        per_token += params.tgt_vocab_size
    longest = max(map(len, sources), default=1)
    size = max(1, CHUNK_ELEMENTS // (longest * per_token))
    results: list[list[Hypothesis]] = []
    for start in range(0, len(sources), size):
        results.extend(_beam_search_chunk(params, sources[start:start + size],
                                          beam_size, max_len))
    return results


def _beam_search_chunk(params: ModelParameters, sources: list[list[int]],
                       beam_size: int, max_len: int) -> list[list[Hypothesis]]:
    decoder = Decoder(params, sources)
    state = decoder.start
    row_source = np.arange(len(sources))
    prev = np.full(len(sources), BOS_ID)
    tokens: list[tuple[int, ...]] = [()] * len(sources)
    scores = np.zeros(len(sources))
    pools: list[list[Hypothesis]] = [[] for _ in sources]
    best_finished = np.full(len(sources), -np.inf)

    for _ in range(max_len):
        state, logp = decoder.step(state, prev, row_source)
        total = scores[:, None] + logp
        rows, toks = _top_candidates(total, row_source, beam_size)
        source, score = row_source[rows], total[rows, toks]
        done = toks == EOS_ID
        for i in np.flatnonzero(done).tolist():
            q = source[i]
            pools[q].append(Hypothesis(tokens=tokens[rows[i]] + (EOS_ID,),
                                       log_prob=float(score[i]), finished=True))
            best_finished[q] = max(best_finished[q], score[i])
        # a source goes on while a live candidate can beat its best
        # finished one, which a finished candidate never does
        beats = score > best_finished[source]
        if not beats.any():
            break
        going = np.zeros(len(sources), dtype=bool)
        going[source[beats]] = True
        live = ~done & going[source]
        rows, prev, row_source = rows[live], toks[live], source[live]
        tokens, scores, state = _extend(tokens, total, state, rows, prev)

    results = []
    for q, pool in enumerate(pools):
        if pool:
            pool.sort(key=lambda hyp: -hyp.log_prob)
            results.append(pool[:beam_size])
        else:
            # still live: its rows are in candidate order, best first
            r = int(np.searchsorted(row_source, q))
            results.append([Hypothesis(tokens=tokens[r], log_prob=float(scores[r]),
                                       finished=False)])
    return results


def exhaustive_search(
    params: ModelParameters, src_ids: list[int], max_len: int
) -> Hypothesis:
    """The exact answer beam_search's first hypothesis approximates: the
    best sequence that ends with </s> within max_len tokens or, when
    there is none, the best unfinished one.  Every prefix is expanded,
    (V_tgt - 1)**max_len rows at the last step, so this is a reference
    for tiny vocabularies and lengths only."""
    decoder = Decoder(params, [src_ids])
    state = decoder.start
    prev = np.array([BOS_ID])
    tokens: list[tuple[int, ...]] = [()]
    scores = np.zeros(1)
    best: Hypothesis | None = None
    non_eos = np.array([t for t in range(params.tgt_vocab_size) if t != EOS_ID])

    for _ in range(max_len):
        state, logp = decoder.step(state, prev, np.zeros(len(tokens), dtype=np.intp))
        total = scores[:, None] + logp
        r = int(np.argmax(total[:, EOS_ID]))
        if best is None or total[r, EOS_ID] > best.log_prob:
            best = Hypothesis(tokens=tokens[r] + (EOS_ID,),
                              log_prob=float(total[r, EOS_ID]), finished=True)
        rows = np.repeat(np.arange(len(tokens)), len(non_eos))
        prev = np.tile(non_eos, len(tokens))
        tokens, scores, state = _extend(tokens, total, state, rows, prev)

    if best is not None:
        return best
    r = int(np.argmax(scores))
    return Hypothesis(tokens=tokens[r], log_prob=float(scores[r]), finished=False)
