"""Attention encoder-decoder model: parameters and inference math.

Single-layer LSTM encoder and decoder with MLP attention, input
feeding, and an optional lexicon bias.  The decoder consumes the
previous target embedding concatenated with the previous attentional
vector; prediction happens from the attentional vector
h~ = tanh(W_comb [h; ctx] + b_comb).

With a lexicon present, the output distribution is the mixture

    P = (1 - lam) * softmax(g) + lam * sum_i alpha_i * lexrow(src_i)

where lexrow is the renormalized translation row of source token i.
Source tokens without a lexicon row back off to the softmax itself,
which keeps the mixture a proper distribution.  params.lexicon holds the
rows as a LexiconTable of arrays, built once where a lexicon enters the
program (lexicon.lexicon_to_ids, modelio.load_model); lexicon_rows
gathers a source's rows from it.

This module is the one definition of the forward: lstm_step, the
encoder recurrence (encode), the attention step (attend), the combiner
(attentional_vector) and the output layer (predict_distribution).
training.forward_pair runs them over a padded batch of pairs and
decoding.Decoder.step over the live hypotheses of a chunk of sources,
each source's rows attending over its own unpadded states; rows (B, .)
are independent, so above the split rule of workers.py encode runs its
recurrence in row blocks on worker threads.
They compute in the dtype of the parameters: training in float32,
decoding in float64 (see decoding.py for why).  Every forward product
multiplies activations by a weight matrix's transpose, a @ W.T, and
every W.T is C-contiguous, so each product reads memory in order.  Each
LSTM's pre-activations are split in two halves: the input half is
computed for every position in one product, the recurrent half with one
product per step.  Gate order in all LSTM weight matrices is [input, forget, cell,
output].

tensor_shapes is the one table of the model's tensors and their order.
ModelParameters keeps them as views of one 1-D buffer, flat, packed in
that order with no padding.  Each W_ matrix is column-major: its slice
of flat holds its transpose, row-major, so W.T is C-contiguous; the
embeddings and vectors are row-major.  Training's parameters, gradients
and Adam's moments (training.py), the model load_model returns and
decoding's float64 copy all have this one layout, and the model file
(modelio.py) the same order, each tensor written row-major.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import workers


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so no exp
    overflows.  The numerator is max(e^-|x|, [x >= 0]): 1 where x >= 0,
    since e^-|x| <= 1, and e^x below, with no data-dependent branch."""
    ex = np.exp(-np.abs(x))
    return np.maximum(ex, x >= 0, dtype=ex.dtype) / (1.0 + ex)


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


# Smallest probability whose log is taken: the training loss and the
# decoder's scores both read p as max(p, P_FLOOR), so an underflowed
# probability gives a large finite cost instead of inf.
P_FLOOR = 1e-300


def tensor_shapes(src_vocab_size: int, tgt_vocab_size: int, hidden_size: int,
                  embed_size: int) -> dict[str, tuple[int, ...]]:
    """The model's tensors and their shapes, in the one order the program
    knows them: the order of ModelParameters.flat, of the model file and
    of the initializer's random draws."""
    V_src, V_tgt, H, d = src_vocab_size, tgt_vocab_size, hidden_size, embed_size
    return {
        "E_src": (V_src, d),
        "E_tgt": (V_tgt, d),
        "W_enc": (4 * H, d + H),
        "b_enc": (4 * H,),
        "W_dec": (4 * H, d + 2 * H),    # input feeding: [embed; htilde; h]
        "b_dec": (4 * H,),
        "W_att_x": (H, H),              # encoder side of the attention MLP
        "W_att_h": (H, H),              # decoder side
        "b_att": (H,),
        "v_att": (H,),
        "W_comb": (H, 2 * H),
        "b_comb": (H,),
        "W_pred": (V_tgt, H),
        "b_pred": (V_tgt,),
    }


@dataclass
class ModelParameters:
    """The tensors of tensor_shapes as reshaped views of flat, in table
    order with no gap: a write through a view is a write to flat, and a
    cast, a copy or a finiteness test is one call on flat.  Each W_
    matrix's view is the transpose of a row-major block, so its .T is
    C-contiguous."""

    flat: np.ndarray
    src_vocab_size: int
    tgt_vocab_size: int
    hidden_size: int
    embed_size: int
    lexicon: LexiconTable | None = None
    lex_weight: float = 0.1

    def __post_init__(self):
        shapes = self.shapes()
        sizes = [math.prod(shape) for shape in shapes.values()]
        if self.flat.shape != (sum(sizes),):
            raise ValueError(f"flat has shape {self.flat.shape}, "
                             f"the tensors need ({sum(sizes)},)")
        offset = 0
        for (name, shape), size in zip(shapes.items(), sizes):
            block = self.flat[offset:offset + size]
            setattr(self, name, block.reshape(shape[::-1]).T
                    if name.startswith("W_") else block.reshape(shape))
            offset += size

    def shapes(self) -> dict[str, tuple[int, ...]]:
        return tensor_shapes(self.src_vocab_size, self.tgt_vocab_size,
                             self.hidden_size, self.embed_size)

    def tensors(self) -> dict[str, np.ndarray]:
        """The named views, in tensor_shapes order."""
        return {name: getattr(self, name) for name in self.shapes()}

    def astype(self, dtype) -> "ModelParameters":
        return replace(self, flat=self.flat.astype(dtype))

    def copy(self) -> "ModelParameters":
        return replace(self, flat=self.flat.copy())

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())

    def mixes_lexicon(self) -> bool:
        """Whether the output distribution mixes in the lexicon."""
        return self.lexicon is not None and self.lex_weight > 0.0

    @classmethod
    def initialize(
        cls,
        rng: np.random.Generator,
        src_vocab_size: int,
        tgt_vocab_size: int,
        hidden_size: int = 512,
        embed_size: int = 256,
        lex_weight: float = 0.1,
        scale: float | None = None,
        dtype=np.float32,
    ) -> "ModelParameters":
        """Fresh parameters.  With scale=None each weight matrix gets a
        fan-scaled uniform limit (sqrt(6/(fan_in+fan_out))) so signals
        and gradients stay O(1) at depth; a flat init starves the
        attention pathway of gradient and the copy mechanism never
        bootstraps.  Embeddings and v_att get sqrt(3/width).  Passing an
        explicit scale applies that flat limit everywhere (handy for
        gradient-check probes).  Biases start at 0, forget-gate biases at
        1 to keep the cell path open early on.  Draws follow table order,
        as one stream: where work at H is split (workers.splits), the
        second half of the values is drawn on another thread, from a copy
        of rng's bit generator advanced to where that half starts, and rng
        ends where drawing every value in order would leave it.
        """
        H = hidden_size
        shapes = tensor_shapes(src_vocab_size, tgt_vocab_size, H, embed_size)
        params = cls(np.zeros(sum(math.prod(s) for s in shapes.values()), dtype=dtype),
                     src_vocab_size, tgt_vocab_size, H, embed_size,
                     lex_weight=lex_weight)
        pieces = []
        for name, shape in shapes.items():
            if name.startswith("b_"):
                continue
            if scale is not None:
                limit = scale
            elif name.startswith("E_") or len(shape) == 1:
                limit = np.sqrt(3.0 / shape[-1])
            else:
                limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            out = getattr(params, name)
            step = max(1, DRAW_PIECE // math.prod(out.shape[1:]))
            pieces += [(out[r0:r0 + step], limit) for r0 in range(0, len(out), step)]
        _draw_uniform(rng, pieces, H)
        params.b_enc[H:2 * H] = 1.0
        params.b_dec[H:2 * H] = 1.0
        return params


# ModelParameters.initialize draws at most this many values at once: a
# whole W_dec at H=512 drawn as one float64 temporary and cast made
# initialize take 74 ms against 33 ms in pieces (the temporaries' pages
# are faulted in anew each time)
DRAW_PIECE = 1 << 16


def _draw(rng: np.random.Generator, pieces: list) -> None:
    """piece[...] = rng.uniform(-limit, limit, size=piece.shape), cast to
    the piece's dtype, for each (piece, limit) in order."""
    for piece, limit in pieces:
        # cast first: numpy casts and transposes in one loop ~2x slower
        piece[...] = rng.uniform(-limit, limit, size=piece.shape).astype(piece.dtype)


def _draw_uniform(rng: np.random.Generator, pieces: list, hidden_size: int) -> None:
    """_draw(rng, pieces).  Where workers.splits(H) and rng's bit
    generator can advance, the pieces are cut at the boundary nearest
    half of all values: the calling thread draws the first half from rng,
    a worker the second from a copy advanced past the first, then rng
    advances past the second.  Each value takes one 64-bit output, so
    every value and rng's next draw are those of the serial draw."""
    bits = rng.bit_generator
    # advance(n) skips n 64-bit outputs, one uniform double each, only in
    # these (Philox's skips blocks of four); a module-level tuple would
    # import numpy.random, 2 MiB, with patchloom
    advances = isinstance(bits, (np.random.PCG64, np.random.PCG64DXSM))
    if not (advances and workers.splits(hidden_size)):
        _draw(rng, pieces)
        return
    ends = np.cumsum([piece.size for piece, _ in pieces])
    cut = int(np.argmin(np.abs(2 * ends - ends[-1]))) + 1
    first = int(ends[cut - 1])
    state = bits.state
    second = type(bits)()
    second.state = state
    second.advance(first)
    workers.run(lambda job: _draw(*job),
                [(rng, pieces[:cut]), (np.random.Generator(second), pieces[cut:])])
    bits.advance(int(ends[-1]) - first)
    # advance drops the buffered 32-bit half-output, which no double uses
    bits.state = {**bits.state, "has_uint32": state["has_uint32"],
                  "uinteger": state["uinteger"]}


def _rows(a: np.ndarray, W: np.ndarray, hidden_size: int | None = None) -> np.ndarray:
    """a (..., n) @ W (n, m) as one matrix product over all rows.  Given
    the hidden size H, a's first axis a batch and n and m at least H/2,
    above the split rule of workers.py blocks of the batch multiply on
    worker threads: every block's product then stays above OpenBLAS's
    small-matrix size, where its rows are the whole product's bits."""
    n, m = W.shape
    spans = ([(0, len(a))] if hidden_size is None or 2 * min(n, m) < hidden_size
             else workers.blocks(len(a), hidden_size))
    if len(spans) == 1:
        return (a.reshape(-1, n) @ W).reshape(a.shape[:-1] + (m,))
    out = np.empty(a.shape[:-1] + (m,), dtype=np.result_type(a, W))

    def block(rows):
        b0, b1 = rows
        np.matmul(a[b0:b1].reshape(-1, n), W, out=out[b0:b1].reshape(-1, m))

    workers.run(block, spans)
    return out


def lstm_step(
    z: np.ndarray, c_prev: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One LSTM step from pre-activations z (..., 4H) and cell states
    c_prev (..., H): returns (h, c, gates), gates holding the values
    [i, f, g, o] that the backward reads."""
    H = c_prev.shape[-1]
    gates = sigmoid(z)  # one call; the cell slice is replaced below
    gates[..., 2 * H:3 * H] = np.tanh(z[..., 2 * H:3 * H])
    c = gates[..., H:2 * H] * c_prev + gates[..., 0:H] * gates[..., 2 * H:3 * H]
    return gates[..., 3 * H:4 * H] * np.tanh(c), c, gates


def encode(
    params: ModelParameters, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The encoder over embedded sources x (B, S, d): hidden states and
    cell states (B, S, H) and gate values (B, S, 4H) at every position."""
    B, S, d = x.shape
    if S == 0:
        raise ValueError("cannot encode an empty source")
    H = params.hidden_size
    # the input half of every step's pre-activations at once, the bias
    # added in place
    gates = _rows(x, params.W_enc[:, :d].T, H)
    gates += params.b_enc
    W_h = params.W_enc[:, d:].T
    states = np.empty((B, S, H), dtype=gates.dtype)
    cells = np.empty((B, S, H), dtype=gates.dtype)

    def recur(rows):
        blk = slice(*rows)
        h = np.zeros((blk.stop - blk.start, H), dtype=gates.dtype)
        c = np.zeros_like(h)
        for n in range(S):
            # one block of too few rows multiplies by column halves
            h, c, gates[blk, n] = lstm_step(
                gates[blk, n] + workers.columns(h, W_h, H), c)
            states[blk, n] = h
            cells[blk, n] = c

    workers.run(recur, workers.blocks(B, H))
    return states, cells, gates


def attention_keys(params: ModelParameters, encoder_states: np.ndarray) -> np.ndarray:
    """The source side of the attention MLP, (..., S, H): it depends only
    on the encoder states, so it is computed once per source."""
    return _rows(encoder_states, params.W_att_x.T, params.hidden_size)


def attend(
    params: ModelParameters,
    encoder_states: np.ndarray,
    keys: np.ndarray,
    decoder_hidden: np.ndarray,
    pad: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(weights (B, S), context (B, H), query (B, H)) for decoder states
    (B, H) over encoder states (B or 1, S, H); keys is
    attention_keys(params, encoder_states), pad (B, S) is 0 at real and
    -inf at padded source positions, and query, the decoder side of the
    attention MLP, is what the backward recomputes the activations from."""
    query = decoder_hidden @ params.W_att_h.T + params.b_att
    act = np.add(keys, query[:, None, :])                          # (B, S, H)
    scores = np.tanh(act, out=act) @ params.v_att
    if pad is not None:
        scores += pad
    weights = softmax(scores)
    context = (weights[:, None, :] @ encoder_states)[:, 0]
    return weights, context, query


def attentional_vector(
    params: ModelParameters, decoder_hidden: np.ndarray, context: np.ndarray
) -> np.ndarray:
    """h~ (..., H) from decoder states and contexts (..., H)."""
    joined = np.concatenate([decoder_hidden, context], axis=-1)
    return np.tanh(joined @ params.W_comb.T + params.b_comb)


@dataclass(frozen=True)
class LexiconTable:
    """The lexicon p(tgt | src), in the one form the program holds it:
    row sid of ids and probs holds source id sid's lengths[sid] entries,
    target ids ascending, padded with id 0 and probability 0.  A source
    id of length 0 has no row."""

    ids: np.ndarray        # (V_src, width) target ids
    probs: np.ndarray      # (V_src, width) float64
    lengths: np.ndarray    # (V_src,) entries per row

    @classmethod
    def from_rows(cls, rows: dict[int, dict[int, float]],
                  src_vocab_size: int) -> "LexiconTable | None":
        """The table of {sid: {tid: p}} rows, width its longest row
        (lexicon.py keeps at most 20 entries); None without rows.  The
        rows are taken as they are: load_model checks those it reads."""
        if not rows:
            return None
        width = max(len(row) for row in rows.values())
        ids = np.zeros((src_vocab_size, width), dtype=np.intp)
        probs = np.zeros((src_vocab_size, width))
        lengths = np.zeros(src_vocab_size, dtype=np.intp)
        for sid, row in rows.items():
            entries = sorted(row.items())
            ids[sid, :len(row)] = [tid for tid, _ in entries]
            probs[sid, :len(row)] = [p for _, p in entries]
            lengths[sid] = len(row)
        return cls(ids, probs, lengths)


def lexicon_rows(
    params: ModelParameters, src_ids
) -> tuple[np.ndarray, np.ndarray] | None:
    """params.lexicon restricted to source ids of any shape (..., S), for
    mix_lexicon: (..., S, V_tgt) translation rows, all zero
    where a source token has no row, and the (..., S) indicator of those
    rows that back off to the softmax.  None when the lexicon is off."""
    if not params.mixes_lexicon():
        return None
    table = params.lexicon
    src = np.asarray(src_ids, dtype=np.intp)
    rows = np.zeros((src.size, params.tgt_vocab_size))
    flat = src.reshape(-1)
    # padding entries add 0.0 to whatever id they name
    np.add.at(rows, (np.arange(flat.size)[:, None], table.ids[flat]),
              table.probs[flat])
    backoff = (table.lengths[src] == 0).astype(np.float64)
    return rows.reshape(src.shape + (params.tgt_vocab_size,)), backoff


def predict_distribution(params: ModelParameters, htilde: np.ndarray) -> np.ndarray:
    """The output softmax (..., V_tgt) of attentional vectors (..., H), in
    the dtype of params.  Decoding passes it to mix_lexicon when the
    lexicon is on; training mixes in the lexicon at the target ids only."""
    return softmax(_rows(htilde, params.W_pred.T) + params.b_pred)


def mix_lexicon(
    params: ModelParameters,
    base: np.ndarray,
    weights: np.ndarray,
    lexicon: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """The mixture of output softmax rows base (..., V_tgt) with the
    lexicon rows lexicon_rows(params, src) of one source, weighted by the
    attention weights (..., S) over that source."""
    rows, backoff = lexicon
    lam = params.lex_weight
    backoff_mass = np.asarray(weights @ backoff)[..., None]
    return (1.0 - lam + lam * backoff_mass) * base + lam * (weights @ rows)
