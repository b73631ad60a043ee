"""Binary model serialization.

Layout (all integers little-endian u32, floats IEEE-754 f32 LE):

    magic   4 bytes  "PLM1"
    version u32      currently 1
    source vocabulary:  u32 count, then per token u32 byte-length +
                        UTF-8 bytes (reserved tokens included, in order)
    target vocabulary:  same shape
    tensors: u32 count, then per tensor
             u32 name-length + UTF-8 name,
             u32 ndim, ndim x u32 dims,
             row-major f32 data
    lexicon: u32 row count, then per row
             u32 source id, u32 entry count,
             entries as (u32 target id, f32 probability), ids ascending

The tensors are written in model.tensor_shapes order, the order of
ModelParameters.flat; load_model reads them into one such buffer at
float64, the precision decoding computes in (see decoding.py).  The
scalar lexicon mixture weight travels as a shape-(1,) tensor named
"lex_weight".  Lexicon rows and entries are in ascending order, as
LexiconTable keeps them, so save -> load -> save is byte-identical.

load_model raises ModelFormatError for any file save_model cannot have
written or whose lexicon would break the output distribution: truncated,
with trailing bytes or invalid UTF-8, with a tensor missing, unknown,
non-finite or shaped unlike the vocabularies and H and d, with a
lex_weight outside [0, 1], or with a lexicon row that is repeated or
empty, names an id outside the vocabularies, lists target ids not
strictly ascending, holds a probability outside [0, 1], or sums to more
than ROW_SUM_TOLERANCE away from 1.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .model import LexiconTable, ModelParameters, tensor_shapes
from .vocab import RESERVED, Vocabulary

MAGIC = b"PLM1"
VERSION = 1
# float32 rounding of a row's 20 entries moves its sum by about 1.2e-6
ROW_SUM_TOLERANCE = 1e-5


class ModelFormatError(ValueError):
    pass


def _write_u32(fh, value: int) -> None:
    fh.write(struct.pack("<I", value))


def _write_str(fh, text: str) -> None:
    data = text.encode("utf-8")
    _write_u32(fh, len(data))
    fh.write(data)


def _write_vocab(fh, vocab: Vocabulary) -> None:
    tokens = vocab.tokens
    _write_u32(fh, len(tokens))
    for tok in tokens:
        _write_str(fh, tok)


def save_model(path: str, params: ModelParameters,
               src_vocab: Vocabulary, tgt_vocab: Vocabulary) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        _write_u32(fh, VERSION)
        _write_vocab(fh, src_vocab)
        _write_vocab(fh, tgt_vocab)
        tensors = dict(params.tensors())
        tensors["lex_weight"] = np.array([params.lex_weight], dtype=np.float32)
        _write_u32(fh, len(tensors))
        for name, tensor in tensors.items():
            _write_str(fh, name)
            arr = np.ascontiguousarray(tensor, dtype="<f4")
            _write_u32(fh, arr.ndim)
            for dim in arr.shape:
                _write_u32(fh, dim)
            fh.write(arr.tobytes())
        table = params.lexicon
        sids = [] if table is None else np.flatnonzero(table.lengths).tolist()
        _write_u32(fh, len(sids))
        for sid in sids:
            n = int(table.lengths[sid])
            fh.write(struct.pack("<II", sid, n))
            for tid, prob in zip(table.ids[sid, :n].tolist(),
                                 table.probs[sid, :n].tolist()):
                fh.write(struct.pack("<If", tid, prob))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ModelFormatError("truncated model file")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def string(self) -> str:
        try:
            return self.take(self.u32()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"invalid UTF-8 in a name or token: {exc}") from None


def _read_vocab(r: _Reader) -> Vocabulary:
    count = r.u32()
    tokens = [r.string() for _ in range(count)]
    if tokens[: len(RESERVED)] != list(RESERVED):
        raise ModelFormatError("vocabulary lacks the reserved token prefix")
    vocab = Vocabulary(tokens[len(RESERVED):])
    if len(vocab) != count:
        raise ModelFormatError("vocabulary repeats a token")
    return vocab


def _check_tensors(tensors: dict[str, np.ndarray], src_size: int,
                   tgt_size: int) -> tuple[int, int]:
    """Every tensor present, finite, and shaped for the vocabularies and
    for the hidden and embedding sizes that W_pred and E_src give, which
    it returns; lex_weight in [0, 1]."""
    for name in ("W_pred", "E_src"):
        if name not in tensors or tensors[name].ndim != 2:
            raise ModelFormatError(f"tensor {name} is missing or not a matrix")
    H, d = tensors["W_pred"].shape[1], tensors["E_src"].shape[1]
    expected = {**tensor_shapes(src_size, tgt_size, H, d), "lex_weight": (1,)}
    if tensors.keys() != expected.keys():
        raise ModelFormatError(
            f"missing tensors: {sorted(expected.keys() - tensors.keys())}, "
            f"unknown tensors: {sorted(tensors.keys() - expected.keys())}")
    for name, shape in expected.items():
        if tensors[name].shape != shape:
            raise ModelFormatError(
                f"tensor {name} has shape {tensors[name].shape}, expected {shape}")
        if not np.isfinite(tensors[name]).all():
            raise ModelFormatError(f"tensor {name} has non-finite values")
    if not 0.0 <= tensors["lex_weight"][0] <= 1.0:
        raise ModelFormatError(
            f"lex_weight {tensors['lex_weight'][0]} is outside [0, 1]")
    return H, d


def load_model(path: str) -> tuple[ModelParameters, Vocabulary, Vocabulary]:
    with open(path, "rb") as fh:
        r = _Reader(fh.read())
    if r.take(4) != MAGIC:
        raise ModelFormatError("bad magic; not a model file")
    version = r.u32()
    if version != VERSION:
        raise ModelFormatError(f"unsupported model version {version}")
    src_vocab = _read_vocab(r)
    tgt_vocab = _read_vocab(r)
    tensors: dict[str, np.ndarray] = {}
    for _ in range(r.u32()):
        name = r.string()
        if name in tensors:
            raise ModelFormatError(f"tensor {name} appears twice")
        shape = tuple(r.u32() for _ in range(r.u32()))
        try:
            tensors[name] = np.frombuffer(r.take(4 * math.prod(shape)),
                                          dtype="<f4").reshape(shape)
        except ValueError as exc:   # too many dimensions, or a 0 beside huge ones
            raise ModelFormatError(f"tensor {name} has shape {shape}: {exc}") from None
    H, d = _check_tensors(tensors, len(src_vocab), len(tgt_vocab))
    rows: dict[int, dict[int, float]] = {}
    for _ in range(r.u32()):
        sid = r.u32()
        if sid >= len(src_vocab) or sid in rows:
            raise ModelFormatError(f"bad or repeated lexicon source id {sid}")
        row = rows[sid] = {}
        prev = -1
        for _ in range(r.u32()):
            tid, prob = struct.unpack("<If", r.take(8))
            if not prev < tid < len(tgt_vocab) or not 0.0 <= prob <= 1.0:
                raise ModelFormatError(
                    f"lexicon row {sid}: bad or unordered target id {tid} "
                    f"or probability {prob}")
            row[tid] = float(prob)
            prev = tid
        total = sum(row.values())
        if abs(total - 1.0) > ROW_SUM_TOLERANCE:
            raise ModelFormatError(f"lexicon row {sid} sums to {total}, not 1")
    if r.pos != len(r.data):
        raise ModelFormatError(f"{len(r.data) - r.pos} trailing bytes after the lexicon")
    shapes = tensor_shapes(len(src_vocab), len(tgt_vocab), H, d)
    flat = np.concatenate([tensors[name].reshape(-1) for name in shapes],
                          dtype=np.float64)
    params = ModelParameters(flat, len(src_vocab), len(tgt_vocab), H, d,
                             lexicon=LexiconTable.from_rows(rows, len(src_vocab)),
                             lex_weight=float(tensors["lex_weight"][0]))
    return params, src_vocab, tgt_vocab
