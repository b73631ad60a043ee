"""Model file format: byte-stable round trips and corruption errors.

Every file save_model could not have written, or whose lexicon would
break the output distribution, must fail to load with ModelFormatError,
never with an error from deeper in the program."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchloom.model import LexiconTable, ModelParameters
from patchloom.modelio import (
    MAGIC,
    VERSION,
    ModelFormatError,
    _write_str,
    _write_u32,
    _write_vocab,
    load_model,
    save_model,
)
from patchloom.vocab import Vocabulary


def fresh(seed=0, lex_weight=0.125):
    # lex_weight is stored as float32, so the fixture picks a value
    # that is exact in binary
    rng = np.random.default_rng(seed)
    params = ModelParameters.initialize(
        rng, 8, 9, hidden_size=6, embed_size=4, lex_weight=lex_weight)
    src_vocab = Vocabulary(("alpha", "beta", "gamma"))
    tgt_vocab = Vocabulary(("one", "two", "three", "four"))
    return params, src_vocab, tgt_vocab


def test_round_trip_preserves_everything(tmp_path):
    params, src_vocab, tgt_vocab = fresh()
    params.lexicon = LexiconTable.from_rows({5: {6: 0.75, 3: 0.25}, 6: {6: 1.0}}, 8)
    path = tmp_path / "model.plm"
    save_model(str(path), params, src_vocab, tgt_vocab)
    loaded, src_back, tgt_back = load_model(str(path))

    # read at float64, the precision decoding computes in
    assert loaded.flat.dtype == np.float64
    for name, tensor in params.tensors().items():
        assert np.array_equal(tensor, loaded.tensors()[name]), name
    assert loaded.lex_weight == params.lex_weight
    for name in ("ids", "probs", "lengths"):
        want = getattr(params.lexicon, name)
        got = getattr(loaded.lexicon, name)
        assert np.array_equal(got, want) and got.dtype == want.dtype, name
    assert src_back == src_vocab
    assert tgt_back == tgt_vocab


def test_save_load_save_is_byte_identical(tmp_path):
    params, src_vocab, tgt_vocab = fresh(seed=3)
    first = tmp_path / "a.plm"
    second = tmp_path / "b.plm"
    save_model(str(first), params, src_vocab, tgt_vocab)
    loaded, sv, tv = load_model(str(first))
    save_model(str(second), loaded, sv, tv)
    assert first.read_bytes() == second.read_bytes()


def test_empty_lexicon_round_trips(tmp_path):
    params, src_vocab, tgt_vocab = fresh(lex_weight=0.0)
    params.lexicon = LexiconTable.from_rows({}, 8)
    path = tmp_path / "model.plm"
    save_model(str(path), params, src_vocab, tgt_vocab)
    loaded, _, _ = load_model(str(path))
    assert loaded.lexicon is None
    assert loaded.lex_weight == 0.0


def test_bad_magic_rejected(tmp_path):
    params, src_vocab, tgt_vocab = fresh()
    path = tmp_path / "model.plm"
    save_model(str(path), params, src_vocab, tgt_vocab)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(ModelFormatError):
        load_model(str(path))


def test_bad_version_rejected(tmp_path):
    params, src_vocab, tgt_vocab = fresh()
    path = tmp_path / "model.plm"
    save_model(str(path), params, src_vocab, tgt_vocab)
    blob = bytearray(path.read_bytes())
    # the version field sits right after the magic
    blob[len(MAGIC):len(MAGIC) + 4] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(ModelFormatError):
        load_model(str(path))


def test_truncated_file_rejected(tmp_path):
    params, src_vocab, tgt_vocab = fresh()
    path = tmp_path / "model.plm"
    save_model(str(path), params, src_vocab, tgt_vocab)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ModelFormatError):
        load_model(str(path))


# ---------------------------------------------------------------------------
# files save_model could not have written


def write_raw(path, src_vocab, tgt_vocab, tensors, lexicon, trailing=b""):
    """A model file in the PLM1 layout from explicit parts."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        _write_u32(fh, VERSION)
        _write_vocab(fh, src_vocab)
        _write_vocab(fh, tgt_vocab)
        _write_u32(fh, len(tensors))
        for name, tensor in tensors.items():
            _write_str(fh, name)
            arr = np.ascontiguousarray(tensor, dtype="<f4")
            _write_u32(fh, arr.ndim)
            for dim in arr.shape:
                _write_u32(fh, dim)
            fh.write(arr.tobytes())
        _write_u32(fh, len(lexicon))
        for sid, row in lexicon:
            _write_u32(fh, sid)
            _write_u32(fh, len(row))
            for tid, prob in row:
                fh.write(struct.pack("<If", tid, prob))
        fh.write(trailing)


def raw_parts(lex_weight=0.125):
    params, src_vocab, tgt_vocab = fresh(lex_weight=lex_weight)
    tensors = dict(params.tensors())
    tensors["lex_weight"] = np.array([lex_weight], dtype=np.float32)
    return src_vocab, tgt_vocab, tensors, [(5, [(3, 0.25), (6, 0.75)])]


def test_raw_writer_matches_save_model(tmp_path):
    # write_raw writes exactly what save_model writes
    params, src_vocab, tgt_vocab = fresh()
    params.lexicon = LexiconTable.from_rows({5: {3: 0.25, 6: 0.75}}, 8)
    save_model(str(tmp_path / "a.plm"), params, src_vocab, tgt_vocab)
    write_raw(tmp_path / "b.plm", *raw_parts())
    assert (tmp_path / "a.plm").read_bytes() == (tmp_path / "b.plm").read_bytes()


def _rejected(path, *parts, **kwargs):
    write_raw(path, *parts, **kwargs)
    with pytest.raises(ModelFormatError):
        load_model(str(path))


@pytest.mark.parametrize("row", [
    (8, [(3, 1.0)]),        # source id == len(src_vocab)
    (5, [(999, 1.0)]),      # target id far outside the 9-token vocabulary
    (5, [(9, 1.0)]),
    (5, [(3, float("nan"))]),
    (5, []),                            # empty: the row's mass would vanish
    (5, [(6, 0.75), (3, 0.25)]),        # target ids descending
    (5, [(3, 0.5), (3, 0.5)]),          # a repeated target id
    (5, [(3, -0.25), (6, 1.25)]),       # sums to 1, probabilities outside [0, 1]
    (5, [(3, 0.9), (6, 0.9)]),          # sums to 1.8
    (5, [(3, 0.25), (6, 0.7499)]),      # sums to 1 - 1e-4
])
def test_bad_lexicon_rows_rejected(tmp_path, row):
    src_vocab, tgt_vocab, tensors, _ = raw_parts()
    _rejected(tmp_path / "m.plm", src_vocab, tgt_vocab, tensors, [row])


def test_float32_rounded_lexicon_rows_load(tmp_path):
    # save_model stores probabilities as float32: 20-entry rows that sum
    # to 1 in float64 must still load after the rounding
    rng = np.random.default_rng(5)
    params = ModelParameters.initialize(rng, 8, 25, hidden_size=6, embed_size=4)
    src_vocab = Vocabulary(("alpha", "beta", "gamma"))
    tgt_vocab = Vocabulary([f"t{i}" for i in range(20)])
    rows = {sid: dict(zip(rng.choice(25, 20, replace=False).tolist(),
                          rng.dirichlet(np.full(20, 0.3)).tolist()))
            for sid in range(8)}
    params.lexicon = LexiconTable.from_rows(rows, 8)
    path = tmp_path / "m.plm"
    save_model(str(path), params, src_vocab, tgt_vocab)
    loaded, _, _ = load_model(str(path))
    assert np.array_equal(loaded.lexicon.lengths, np.full(8, 20))
    assert np.allclose(loaded.lexicon.probs, params.lexicon.probs, atol=1e-7)


def test_repeated_lexicon_row_rejected(tmp_path):
    src_vocab, tgt_vocab, tensors, lexicon = raw_parts()
    _rejected(tmp_path / "m.plm", src_vocab, tgt_vocab, tensors, lexicon * 2)


def test_vocabulary_size_disagreeing_with_tensors_rejected(tmp_path):
    src_vocab, tgt_vocab, tensors, lexicon = raw_parts()
    src_vocab.add("delta")
    _rejected(tmp_path / "m.plm", src_vocab, tgt_vocab, tensors, lexicon)


@pytest.mark.parametrize("name,shape", [
    ("W_dec", (24, 15)),     # 4H x (d + 2H) is 24 x 16
    ("b_att", (5,)),
    ("W_comb", (6, 12, 1)),
    ("E_src", (8,)),
])
def test_misshapen_tensor_rejected(tmp_path, name, shape):
    src_vocab, tgt_vocab, tensors, lexicon = raw_parts()
    tensors[name] = np.zeros(shape, dtype=np.float32)
    _rejected(tmp_path / "m.plm", src_vocab, tgt_vocab, tensors, lexicon)


@pytest.mark.parametrize("name", ["lex_weight", "W_pred"])
def test_missing_tensor_rejected(tmp_path, name):
    src_vocab, tgt_vocab, tensors, lexicon = raw_parts()
    del tensors[name]
    _rejected(tmp_path / "m.plm", src_vocab, tgt_vocab, tensors, lexicon)


def test_unknown_tensor_rejected(tmp_path):
    src_vocab, tgt_vocab, tensors, lexicon = raw_parts()
    tensors["W_extra"] = np.zeros((2, 2), dtype=np.float32)
    _rejected(tmp_path / "m.plm", src_vocab, tgt_vocab, tensors, lexicon)


@pytest.mark.parametrize("name,value", [("W_enc", np.nan), ("lex_weight", np.inf)])
def test_non_finite_tensor_rejected(tmp_path, name, value):
    src_vocab, tgt_vocab, tensors, lexicon = raw_parts()
    tensors[name] = tensors[name].copy()
    tensors[name].reshape(-1)[0] = value
    _rejected(tmp_path / "m.plm", src_vocab, tgt_vocab, tensors, lexicon)


@pytest.mark.parametrize("value", [-0.25, 1.5])
def test_lex_weight_outside_unit_interval_rejected(tmp_path, value):
    # the mixture (1 - lam) softmax + lam lexicon is a distribution only
    # for lam in [0, 1]
    src_vocab, tgt_vocab, tensors, lexicon = raw_parts()
    tensors["lex_weight"] = np.array([value], dtype=np.float32)
    _rejected(tmp_path / "m.plm", src_vocab, tgt_vocab, tensors, lexicon)
    for edge in (0.0, 1.0):
        tensors["lex_weight"] = np.array([edge], dtype=np.float32)
        write_raw(tmp_path / "m.plm", src_vocab, tgt_vocab, tensors, lexicon)
        assert load_model(str(tmp_path / "m.plm"))[0].lex_weight == edge


@pytest.mark.parametrize("shape", [(0, 2**32 - 1, 2**32 - 1, 2**32 - 1), (1,) * 70])
def test_tensor_shape_numpy_cannot_hold_rejected(tmp_path, shape):
    # a 0 dimension leaves nothing to read beside dimensions whose product
    # overflows, and numpy caps the number of dimensions
    src_vocab, tgt_vocab, tensors, lexicon = raw_parts()
    path = tmp_path / "m.plm"
    write_raw(path, src_vocab, tgt_vocab, {**tensors, "extra": np.zeros(1)}, lexicon)
    blob = path.read_bytes()
    at = blob.index(b"extra" + struct.pack("<II", 1, 1)) + len(b"extra")
    declared = struct.pack(f"<{len(shape) + 1}I", len(shape), *shape)
    path.write_bytes(blob[:at] + declared + blob[at + 8:])
    with pytest.raises(ModelFormatError, match="tensor extra has shape"):
        load_model(str(path))


def test_trailing_bytes_rejected(tmp_path):
    _rejected(tmp_path / "m.plm", *raw_parts(), trailing=b"\0")


def test_invalid_utf8_rejected(tmp_path):
    path = tmp_path / "m.plm"
    write_raw(path, *raw_parts())
    blob = path.read_bytes()
    at = blob.index(b"gamma")
    path.write_bytes(blob[:at] + b"\xff" + blob[at + 1:])
    with pytest.raises(ModelFormatError):
        load_model(str(path))


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_truncated_or_mutated_file_loads_or_raises_format_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "m.plm"
    write_raw(path, *raw_parts())
    blob = bytearray(path.read_bytes())
    if data.draw(st.booleans()):
        blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
    else:
        at = data.draw(st.integers(0, len(blob) - 1))
        blob[at] = data.draw(st.integers(0, 255))
    path.write_bytes(bytes(blob))
    try:
        params, src_vocab, tgt_vocab = load_model(str(path))
    except ModelFormatError:
        return
    assert params.all_finite()
    assert params.src_vocab_size == len(src_vocab)
    assert params.tgt_vocab_size == len(tgt_vocab)
