"""Beam-search decoding over a trained model.

Hypotheses carry raw (unnormalized) accumulated log probabilities;
thresholding downstream assumes exactly that.  Finished hypotheses are
retired into a pool and search stops once no live hypothesis can beat
the best finished one, which preserves top-1 optimality over the
explored space.  If nothing finishes within max_len, the best
unfinished hypothesis is returned and flagged via finished=False.

beam_search decodes a list of sources.  It copies the model to float64
once per list (a model from modelio.load_model already is, and is not
copied); the copy keeps model.py's one layout, so every product a @ W.T
in the forward reads a C-contiguous W.T.  It then cuts the list, in
order, into chunks whose largest arrays stay within CHUNK_ELEMENTS.  A
Decoder encodes a chunk with one padded model.encode; each source starts
from the states at its last real token.  Every live hypothesis of every
source is one row of the (R, H) decoder state, and a source's rows are
adjacent and in candidate order: one run (q, a, b) per live source, rows
a to b-1 decoding source q.  The LSTM, combiner and output layer step
every row at once; each run attends over its own source's unpadded
states and mixes in its own lexicon rows, so a list of one computes what
decoding a single source always did.  Each run takes its own top
beam_size candidates (score descending, then token ascending, then row
ascending) and settles them in the same pass: those ending in </s> join
the source's pool, and the others become the source's next run if one of
them can beat its best finished score, so each source stops on its own.
A step of at least V_tgt live rows reads the input half of its
pre-activations, E_tgt[prev] @ W_in + b_dec, from a table of every
target token's, built once per Decoder when such a step first needs it;
a smaller step multiplies.  At float64 a row of a product has the same
bits for every row count from 2 up (only a one-row product, which
OpenBLAS computes with gemv, differs), so the table changes no bit, and
it is never larger than the step's own (R, 4H) array, which
CHUNK_ELEMENTS bounds.  Where workers.py splits work (H=256 or 512, two
workers), Decoder.step multiplies [h~; h] by the recurrent weight once
for all live rows, as two column halves on two threads
(workers.columns).  With enough live rows for two blocks it then runs
blocks of whole runs on worker threads, from the LSTM to the combiner;
the output product takes every row at once, so a step's results are the
same bits for any worker count.

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

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from . import workers
from .model import (
    P_FLOOR,
    ModelParameters,
    _rows,
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
# long source shrinks every chunk) and R = Q * beam_size rows, holds at
# most this many elements in Q * (S + beam_size) * (4H + V_tgt): the
# (Q, S, 4H) encoder gates, the (Q, S, V_tgt) lexicon rows, and the
# (R, 4H) pre-activations and (R, V_tgt) output rows of a step (the
# input-half table, (V_tgt, 4H), is built only for steps of R >= V_tgt
# rows, so it is no larger than their pre-activations).  Decoding
# the synthetic benchmark's 400 held-out statements and queries (H=128,
# beam 10, S=14, V_tgt=95, lexicon off) peaks at 11, 19, 36 and 69 MiB of
# numpy arrays at 2^19 to 2^22; chunks of 50 to 400 sources took the same
# time, 25 or fewer took longer.
CHUNK_ELEMENTS = 1 << 20


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
    longest source, each source's length and lexicon rows, and the start
    state, one row per source."""

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
        self.lexicon = ([lexicon_rows(params, src) for src in sources]
                        if params.mixes_lexicon() else None)
        # C-contiguous, since model.py's matrices are column-major
        self.W_in = params.W_dec[:, :d].T
        self.W_rec = params.W_dec[:, d:].T
        # the table of every target token's input half, built when a step
        # of at least V_tgt rows first needs it (see _input_half)
        self.inputs = None
        last = (np.arange(len(sources)), self.lengths - 1)
        self.start: State = (states[last], cells[last],
                             np.zeros((len(sources), params.hidden_size)))

    def step(self, state: State, prev_ids: np.ndarray,
             runs: list[tuple[int, int, int]]) -> tuple[State, np.ndarray]:
        """Feed prev_ids (R,) to the R rows of state, rows a to b-1 of each
        run (q, a, b) decoding source q; returns the next state and
        (R, V_tgt) log probabilities, floored at log P_FLOOR.  The LSTM
        and combiner step all rows of a block at once, the output layer
        all rows; each run attends over its own source's unpadded states."""
        p = self.params
        H = p.hidden_size
        h, c, htilde = state
        z = self._input_half(prev_ids)
        z += workers.columns(np.concatenate([htilde, h], axis=1), self.W_rec, H)
        starts = [a for _, a, _ in runs]
        weights = [None] * len(runs)

        def rows_step(rows):
            """(h, c, h~) of rows b0 to b1-1, which hold whole runs."""
            b0, b1 = rows
            h_rows, c_rows, _ = lstm_step(z[b0:b1], c[b0:b1])
            context = np.empty_like(h_rows)
            for i in range(bisect_left(starts, b0), bisect_left(starts, b1)):
                q, a, b = runs[i]
                n = self.lengths[q]
                weights[i], context[a - b0:b - b0], _ = attend(
                    p, self.states[q:q + 1, :n], self.keys[q:q + 1, :n],
                    h_rows[a - b0:b - b0])
            return h_rows, c_rows, attentional_vector(p, h_rows, context)

        # above the split rule, blocks of whole runs step on worker threads
        # (workers.py); the output layer's product, whose row results could
        # depend on the number of rows, takes every row at once
        stepped = workers.run(rows_step, workers.blocks(
            len(prev_ids), H, [b for _, _, b in runs]))
        if len(stepped) > 1:
            stepped = [tuple(map(np.concatenate, zip(*stepped)))]
        h, c, htilde = stepped[0]
        probs = predict_distribution(p, htilde)
        if self.lexicon is not None:
            for (q, a, b), w in zip(runs, weights):
                probs[a:b] = mix_lexicon(p, probs[a:b], w, self.lexicon[q])
        return (h, c, htilde), np.log(np.maximum(probs, P_FLOOR))

    def _input_half(self, prev_ids: np.ndarray) -> np.ndarray:
        """E_tgt[prev_ids] @ W_in + b_dec, (R, 4H), the product by column
        halves as model._rows allows, or rows of the table of every
        token's for a step of R >= V_tgt rows: the same bits, since both
        products have at least 2 rows (BOS_ID is a row of E_tgt)."""
        p = self.params
        if len(prev_ids) < p.tgt_vocab_size:
            z = _rows(p.E_tgt[prev_ids], self.W_in, p.hidden_size)
            z += p.b_dec
            return z
        if self.inputs is None:
            self.inputs = _rows(p.E_tgt, self.W_in, p.hidden_size)
            self.inputs += p.b_dec
        return self.inputs[prev_ids]


def _float64(params: ModelParameters) -> ModelParameters:
    """params at float64: params itself, or a copy, leaving the caller's
    object alone."""
    return params if params.flat.dtype == np.float64 else params.astype(np.float64)


def _extend(tokens: list[tuple[int, ...]], total: np.ndarray, state: State,
            rows: np.ndarray, toks: np.ndarray):
    """Tokens, scores and state of the hypotheses that extend row
    rows[i] with token toks[i]."""
    extended = [tokens[r] + (t,) for r, t in zip(rows.tolist(), toks.tolist())]
    return extended, total[rows, toks], tuple(a[rows] for a in state)


def _top_candidates(total: np.ndarray, k: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, tokens, scores) of the k best entries of one run's total
    (n, V), ordered by score descending, then token ascending, then row
    ascending."""
    flat = total.T.ravel()  # position = token * n + row
    k = min(k, flat.size)
    kth = np.partition(flat, flat.size - k)[flat.size - k]
    picked = np.flatnonzero(flat >= kth)
    # a stable sort keeps ties in position order: token, then row
    picked = picked[np.argsort(-flat[picked], kind="stable")[:k]]
    tokens, rows = np.divmod(picked, total.shape[0])
    return rows, tokens, flat[picked]


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
    longest = max(map(len, sources), default=1)
    per_source = (longest + beam_size) * (4 * params.hidden_size + params.tgt_vocab_size)
    size = max(1, CHUNK_ELEMENTS // per_source)
    results: list[list[Hypothesis]] = []
    for start in range(0, len(sources), size):
        results.extend(_beam_search_chunk(params, sources[start:start + size],
                                          beam_size, max_len))
    return results


def _beam_search_chunk(params: ModelParameters, sources: list[list[int]],
                       beam_size: int, max_len: int) -> list[list[Hypothesis]]:
    decoder = Decoder(params, sources)
    state = decoder.start
    runs = [(q, q, q + 1) for q in range(len(sources))]
    prev = np.full(len(sources), BOS_ID)
    tokens: list[tuple[int, ...]] = [()] * len(sources)
    scores = np.zeros(len(sources))
    pools: list[list[Hypothesis]] = [[] for _ in sources]
    best_finished = [-np.inf] * len(sources)

    for _ in range(max_len):
        state, logp = decoder.step(state, prev, runs)
        total = scores[:, None] + logp
        rows: list[int] = []    # the live candidates, run after run
        toks: list[int] = []
        next_runs = []
        for q, a, b in runs:
            start, best_live = len(rows), -np.inf
            for r, t, score in zip(*map(np.ndarray.tolist,
                                        _top_candidates(total[a:b], beam_size))):
                if t == EOS_ID:
                    pools[q].append(Hypothesis(tokens=tokens[a + r] + (EOS_ID,),
                                               log_prob=score, finished=True))
                    best_finished[q] = max(best_finished[q], score)
                else:
                    best_live = max(best_live, score)
                    rows.append(a + r)
                    toks.append(t)
            # a source goes on while a live candidate can beat its best
            # finished one
            if best_live > best_finished[q]:
                next_runs.append((q, start, len(rows)))
            else:
                del rows[start:], toks[start:]
        if not next_runs:
            break
        runs, prev = next_runs, np.array(toks)
        tokens, scores, state = _extend(tokens, total, state, np.array(rows), prev)

    results = []
    first_row = {q: a for q, a, _ in runs}
    for q, pool in enumerate(pools):
        if pool:
            pool.sort(key=lambda hyp: -hyp.log_prob)
            results.append(pool[:beam_size])
        else:
            # still live: its rows are in candidate order, best first
            r = first_row[q]
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
        state, logp = decoder.step(state, prev, [(0, 0, len(tokens))])
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
