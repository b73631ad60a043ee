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
which keeps the mixture a proper distribution.

Parameters are float32; distributions accumulate in float64 so the
sum-to-one contract holds tightly.  Gate order in all LSTM weight
matrices is [input, forget, cell, output].

The decoder-side functions (lstm_step, attend, attentional_vector,
predict_distribution) take a leading batch axis: rows (..., H) are
independent, so decoding steps every live hypothesis in one call.  They
compute in the dtype of what they are given; decoding.Decoder hands
them float64 copies of the decoder weights (see decoding.py for why).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so no exp
    overflows."""
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, ex) / (1.0 + ex)


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


# Smallest probability whose log is taken: the training loss and the
# decoder's scores both read p as max(p, P_FLOOR), so an underflowed
# probability gives a large finite cost instead of inf.
P_FLOOR = 1e-300


@dataclass
class ModelParameters:
    E_src: np.ndarray        # (V_src, d)
    E_tgt: np.ndarray        # (V_tgt, d)
    W_enc: np.ndarray        # (4H, d + H)
    b_enc: np.ndarray        # (4H,)
    W_dec: np.ndarray        # (4H, d + 2H)  input feeding: [embed; htilde]
    b_dec: np.ndarray        # (4H,)
    W_att_x: np.ndarray      # (H, H) encoder side of the attention MLP
    W_att_h: np.ndarray      # (H, H) decoder side
    b_att: np.ndarray        # (H,)
    v_att: np.ndarray        # (H,)
    W_comb: np.ndarray       # (H, 2H)
    b_comb: np.ndarray       # (H,)
    W_pred: np.ndarray       # (V_tgt, H)
    b_pred: np.ndarray       # (V_tgt,)
    lexicon: dict[int, dict[int, float]] = field(default_factory=dict)
    lex_weight: float = 0.1

    @property
    def hidden_size(self) -> int:
        return self.W_pred.shape[1]

    @property
    def embed_size(self) -> int:
        return self.E_src.shape[1]

    @property
    def src_vocab_size(self) -> int:
        return self.E_src.shape[0]

    @property
    def tgt_vocab_size(self) -> int:
        return self.E_tgt.shape[0]

    _TENSOR_NAMES = (
        "E_src", "E_tgt", "W_enc", "b_enc", "W_dec", "b_dec",
        "W_att_x", "W_att_h", "b_att", "v_att",
        "W_comb", "b_comb", "W_pred", "b_pred",
    )

    def tensors(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self._TENSOR_NAMES}

    def astype(self, dtype) -> "ModelParameters":
        kwargs = {n: getattr(self, n).astype(dtype) for n in self._TENSOR_NAMES}
        return ModelParameters(**kwargs, lexicon=self.lexicon,
                               lex_weight=self.lex_weight)

    def copy(self) -> "ModelParameters":
        kwargs = {n: getattr(self, n).copy() for n in self._TENSOR_NAMES}
        return ModelParameters(**kwargs, lexicon=self.lexicon,
                               lex_weight=self.lex_weight)

    def all_finite(self) -> bool:
        return all(np.isfinite(t).all() for t in self.tensors().values())

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
        bootstraps.  Passing an explicit scale applies that flat limit
        everywhere (handy for gradient-check probes).  Forget-gate
        biases start at 1 to keep the cell path open early on.
        """
        H, d = hidden_size, embed_size

        def u(rows, cols=None):
            if scale is not None:
                limit = scale
            elif cols is None:
                limit = np.sqrt(3.0 / rows)
            else:
                limit = np.sqrt(6.0 / (rows + cols))
            shape = (rows,) if cols is None else (rows, cols)
            return rng.uniform(-limit, limit, size=shape).astype(dtype)

        def emb(rows, cols):
            limit = scale if scale is not None else np.sqrt(3.0 / cols)
            return rng.uniform(-limit, limit, size=(rows, cols)).astype(dtype)

        b_enc = np.zeros(4 * H, dtype=dtype)
        b_dec = np.zeros(4 * H, dtype=dtype)
        b_enc[H:2 * H] = 1.0
        b_dec[H:2 * H] = 1.0
        return cls(
            E_src=emb(src_vocab_size, d),
            E_tgt=emb(tgt_vocab_size, d),
            W_enc=u(4 * H, d + H),
            b_enc=b_enc,
            W_dec=u(4 * H, d + 2 * H),
            b_dec=b_dec,
            W_att_x=u(H, H),
            W_att_h=u(H, H),
            b_att=np.zeros(H, dtype=dtype),
            v_att=u(H),
            W_comb=u(H, 2 * H),
            b_comb=np.zeros(H, dtype=dtype),
            W_pred=u(tgt_vocab_size, H),
            b_pred=np.zeros(tgt_vocab_size, dtype=dtype),
            lex_weight=lex_weight,
        )


def lstm_step(
    W: np.ndarray, b: np.ndarray, x: np.ndarray,
    h_prev: np.ndarray, c_prev: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One LSTM step for inputs (..., n) and states (..., H)."""
    H = h_prev.shape[-1]
    assert W.shape == (4 * H, x.shape[-1] + H), (W.shape, x.shape, H)
    z = np.concatenate([x, h_prev], axis=-1) @ W.T + b
    gates = sigmoid(z)  # one call; the cell slice is not used
    i = gates[..., 0:H]
    f = gates[..., H:2 * H]
    g = np.tanh(z[..., 2 * H:3 * H])
    o = gates[..., 3 * H:4 * H]
    c = f * c_prev + i * g
    h = o * np.tanh(c)
    return h, c


def encode(params: ModelParameters, src_ids: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All encoder hidden states (|x|, H) plus the final (h, c)."""
    if not src_ids:
        raise ValueError("cannot encode an empty source")
    H = params.hidden_size
    dtype = params.W_enc.dtype
    h = np.zeros(H, dtype=dtype)
    c = np.zeros(H, dtype=dtype)
    states = np.empty((len(src_ids), H), dtype=dtype)
    for i, sid in enumerate(src_ids):
        h, c = lstm_step(params.W_enc, params.b_enc, params.E_src[sid], h, c)
        states[i] = h
    return states, h, c


def attention_keys(params: ModelParameters, encoder_states: np.ndarray) -> np.ndarray:
    """The source side of the attention MLP, (S, H): it depends only on
    the encoder states, so it is computed once per source."""
    return encoder_states @ params.W_att_x.T


def attend(
    params: ModelParameters,
    encoder_states: np.ndarray,
    keys: np.ndarray,
    decoder_hidden: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(weights (..., S), context (..., H)) for decoder states (..., H);
    keys is attention_keys(params, encoder_states)."""
    query = decoder_hidden @ params.W_att_h.T + params.b_att      # (..., H)
    act = np.tanh(keys + query[..., None, :])                      # (..., S, H)
    scores = act @ params.v_att                                    # (..., S)
    weights = softmax(scores.astype(np.float64, copy=False))
    context = weights @ encoder_states.astype(np.float64, copy=False)
    return weights, context.astype(encoder_states.dtype, copy=False)


def attentional_vector(
    params: ModelParameters, decoder_hidden: np.ndarray, context: np.ndarray
) -> np.ndarray:
    """h~ (..., H) from decoder states and contexts (..., H)."""
    joined = np.concatenate([decoder_hidden, context], axis=-1)
    return np.tanh(joined @ params.W_comb.T + params.b_comb)


@dataclass(frozen=True)
class LexiconTable:
    """params.lexicon as arrays, the form every computation reads: row
    sid of ids and probs holds source id sid's entries, padded with
    probability 0, and has_row marks the source ids that have a row."""

    ids: np.ndarray        # (V_src, width) target ids
    probs: np.ndarray      # (V_src, width) float64
    has_row: np.ndarray    # (V_src,) bool


def lexicon_table(params: ModelParameters) -> LexiconTable | None:
    """The arrays of params.lexicon, width its longest row (lexicon.py
    keeps at most 20 entries); None when the lexicon is off."""
    if not params.lexicon or params.lex_weight <= 0.0:
        return None
    width = max(len(row) for row in params.lexicon.values())
    ids = np.zeros((params.src_vocab_size, width), dtype=np.intp)
    probs = np.zeros((params.src_vocab_size, width))
    has_row = np.zeros(params.src_vocab_size, dtype=bool)
    for sid, row in params.lexicon.items():
        ids[sid, :len(row)] = list(row)
        probs[sid, :len(row)] = list(row.values())
        has_row[sid] = True
    return LexiconTable(ids, probs, has_row)


def lexicon_rows(
    params: ModelParameters, src_ids, table: LexiconTable | None = None
) -> tuple[np.ndarray, np.ndarray] | None:
    """The lexicon restricted to source ids of any shape (..., S), for
    predict_distribution: (..., S, V_tgt) translation rows, all zero
    where a source token has no row, and the (..., S) indicator of those
    rows that back off to the softmax.  table defaults to
    lexicon_table(params); None when the lexicon is off."""
    if table is None:
        table = lexicon_table(params)
        if table is None:
            return None
    src = np.asarray(src_ids, dtype=np.intp)
    rows = np.zeros((src.size, params.tgt_vocab_size))
    flat = src.reshape(-1)
    # padding entries add 0.0 to whatever id they name
    np.add.at(rows, (np.arange(flat.size)[:, None], table.ids[flat]),
              table.probs[flat])
    backoff = (~table.has_row[src]).astype(np.float64)
    return rows.reshape(src.shape + (params.tgt_vocab_size,)), backoff


def predict_distribution(
    params: ModelParameters,
    htilde: np.ndarray,
    weights: np.ndarray,
    lexicon: tuple[np.ndarray, np.ndarray] | None,
) -> np.ndarray:
    """Probability rows (..., V_tgt), float64, from attentional vectors
    (..., H), attention weights (..., S) and lexicon_rows(params, src)."""
    logits = (htilde @ params.W_pred.T + params.b_pred).astype(np.float64, copy=False)
    base = softmax(logits)
    if lexicon is None:
        return base
    rows, backoff = lexicon
    lam = params.lex_weight
    backoff_mass = np.asarray(weights @ backoff)[..., None]
    return (1.0 - lam + lam * backoff_mass) * base + lam * (weights @ rows)
