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
ModelParameters.flat, each row-major whatever its layout in flat;
load_model reads them into one such buffer at float64, the precision
decoding computes in (see decoding.py), so decoding makes no second
copy.  The scalar lexicon mixture weight travels as a shape-(1,) tensor
named "lex_weight".  Lexicon rows and entries are in ascending order, as
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

from . import workers
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


# load_model copies a tensor into the model's layout this many rows at a time
LOAD_STRIP = 128


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
            # row-major, copied in column strips: numpy's own loop reads a
            # column-major matrix across whole columns, ~3x slower at H=512;
            # at the hidden sizes where work is split (workers.py), blocks
            # of a matrix's rows are copied on worker threads
            arr = np.empty(tensor.shape, dtype="<f4")

            def copy_rows(rows, arr=arr, tensor=tensor):
                block, source = arr[slice(*rows)], tensor[slice(*rows)]
                for j in range(0, arr.shape[-1], 64):
                    block[..., j:j + 64] = source[..., j:j + 64]

            workers.run(copy_rows, workers.blocks(len(arr), params.hidden_size)
                        if arr.ndim == 2 else [(0, len(arr))])
            _write_u32(fh, arr.ndim)
            for dim in arr.shape:
                _write_u32(fh, dim)
            fh.write(arr)       # through the buffer protocol, uncopied
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
    """The file's bytes, read in order through a memoryview, so that what
    take() returns views them: np.frombuffer reads a tensor in place."""

    def __init__(self, data: bytes):
        self.data = memoryview(data)
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise ModelFormatError("truncated model file")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def string(self) -> str:
        try:
            return str(self.take(self.u32()), "utf-8")
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
    flat = np.empty(sum(map(math.prod, shapes.values())))
    params = ModelParameters(flat, len(src_vocab), len(tgt_vocab), H, d,
                             lexicon=LexiconTable.from_rows(rows, len(src_vocab)),
                             lex_weight=float(tensors["lex_weight"][0]))
    views = params.tensors()
    # in row strips: numpy's own loop writes a column-major matrix from a
    # row-major one across whole columns, ~1.5x slower at H=512; at the
    # hidden sizes where work is split (workers.py), block k of every
    # tensor's rows is copied on thread k
    spans = {name: workers.blocks(view.shape[0], H) for name, view in views.items()}

    def copy_block(k):
        for name, view in views.items():
            if k < len(spans[name]):
                b0, b1 = spans[name][k]
                for r in range(b0, b1, LOAD_STRIP):
                    strip = slice(r, min(r + LOAD_STRIP, b1))
                    view[strip] = tensors[name][strip]

    workers.run(copy_block, list(range(max(map(len, spans.values())))))
    return params, src_vocab, tgt_vocab
