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

The scalar lexicon mixture weight travels as a shape-(1,) tensor named
"lex_weight".  Rows and entries are written in canonical ascending
order, so save -> load -> save is byte-identical.

load_model raises ModelFormatError for any file save_model cannot have
written: truncated, with trailing bytes or invalid UTF-8, with a tensor
missing, unknown, non-finite or shaped unlike the vocabularies and the
hidden and embedding sizes, or with a lexicon id outside the
vocabularies.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .model import ModelParameters
from .vocab import RESERVED, Vocabulary

MAGIC = b"PLM1"
VERSION = 1


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
        rows = sorted(params.lexicon.items())
        _write_u32(fh, len(rows))
        for sid, row in rows:
            _write_u32(fh, sid)
            entries = sorted(row.items())
            _write_u32(fh, len(entries))
            for tid, prob in entries:
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
    vocab = Vocabulary()
    for tok in tokens[len(RESERVED):]:
        vocab.add(tok)
    if len(vocab) != count:
        raise ModelFormatError("vocabulary repeats a token")
    return vocab


def _check_tensors(tensors: dict[str, np.ndarray], src_size: int, tgt_size: int) -> None:
    """Every tensor present, finite, and shaped for the vocabularies and
    for the embedding and hidden sizes that E_src and W_pred give."""
    names = {*ModelParameters._TENSOR_NAMES, "lex_weight"}
    if set(tensors) != names:
        raise ModelFormatError(
            f"missing tensors: {sorted(names - set(tensors))}, "
            f"unknown tensors: {sorted(set(tensors) - names)}")
    if tensors["E_src"].ndim != 2 or tensors["W_pred"].ndim != 2:
        raise ModelFormatError("E_src and W_pred must be matrices")
    d = tensors["E_src"].shape[1]
    H = tensors["W_pred"].shape[1]
    expected = {
        "E_src": (src_size, d), "E_tgt": (tgt_size, d),
        "W_enc": (4 * H, d + H), "b_enc": (4 * H,),
        "W_dec": (4 * H, d + 2 * H), "b_dec": (4 * H,),
        "W_att_x": (H, H), "W_att_h": (H, H), "b_att": (H,), "v_att": (H,),
        "W_comb": (H, 2 * H), "b_comb": (H,),
        "W_pred": (tgt_size, H), "b_pred": (tgt_size,),
        "lex_weight": (1,),
    }
    for name, shape in expected.items():
        if tensors[name].shape != shape:
            raise ModelFormatError(
                f"tensor {name} has shape {tensors[name].shape}, expected {shape}")
        if not np.isfinite(tensors[name]).all():
            raise ModelFormatError(f"tensor {name} has non-finite values")


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
        arr = np.frombuffer(r.take(4 * math.prod(shape)), dtype="<f4").reshape(shape)
        tensors[name] = arr.astype(np.float32)
    _check_tensors(tensors, len(src_vocab), len(tgt_vocab))
    lexicon: dict[int, dict[int, float]] = {}
    for _ in range(r.u32()):
        sid = r.u32()
        if sid >= len(src_vocab) or sid in lexicon:
            raise ModelFormatError(f"bad or repeated lexicon source id {sid}")
        row = {}
        for _ in range(r.u32()):
            tid, prob = struct.unpack("<If", r.take(8))
            if tid >= len(tgt_vocab) or not np.isfinite(prob):
                raise ModelFormatError(
                    f"lexicon row {sid}: bad target id {tid} or probability {prob}")
            row[tid] = float(prob)
        lexicon[sid] = row
    if r.pos != len(r.data):
        raise ModelFormatError(f"{len(r.data) - r.pos} trailing bytes after the lexicon")
    lex_weight = float(tensors.pop("lex_weight")[0])
    params = ModelParameters(**{n: tensors[n] for n in ModelParameters._TENSOR_NAMES},
                             lexicon=lexicon, lex_weight=lex_weight)
    return params, src_vocab, tgt_vocab
