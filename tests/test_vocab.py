"""Vocabulary construction, encoding, and the on-disk form."""

import json
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from patchloom.vocab import (
    BOS,
    BOS_ID,
    EOS,
    EOS_ID,
    RESERVED,
    UNK,
    UNK_ID,
    Vocabulary,
    VocabularyError,
)


def test_reserved_tokens_occupy_fixed_slots():
    v = Vocabulary()
    assert v.index(UNK) == UNK_ID == 0
    assert v.index(BOS) == BOS_ID == 1
    assert v.index(EOS) == EOS_ID == 2
    assert v.index("arg") == 3
    assert v.index("val") == 4
    assert len(v) == len(RESERVED) == 5


def test_from_counts_threshold_and_ordering():
    counts = Counter({"b": 3, "a": 3, "c": 2, "rare": 1})
    v = Vocabulary.from_counts(counts, unk_threshold=1)
    kept = v.tokens[len(RESERVED):]
    # count descending, ties alphabetical; singletons dropped
    assert kept == ("a", "b", "c")
    assert "rare" not in v


def test_from_counts_threshold_zero_keeps_singletons():
    v = Vocabulary.from_counts(Counter({"only": 1}), unk_threshold=0)
    assert "only" in v


def test_reserved_words_in_counts_not_duplicated():
    v = Vocabulary.from_counts(Counter({"arg": 9, "x": 2}), unk_threshold=1)
    assert v.tokens.count("arg") == 1
    assert v.index("arg") == 3


def test_encode_decode_with_markers():
    v = Vocabulary(("alpha", "beta"))
    ids = v.encode(["alpha", "beta"], eos=True)
    assert ids[-1] == EOS_ID
    assert v.decode(ids[:-1]) == ["alpha", "beta"]


def test_unknown_token_encodes_to_unk():
    v = Vocabulary(("alpha",))
    assert v.encode(["alpha", "mystery"]) == [v.index("alpha"), UNK_ID]
    assert v.decode([UNK_ID]) == [UNK]


def test_add_is_idempotent():
    v = Vocabulary()
    first = v.add("tok")
    assert v.add("tok") == first
    assert len(v) == len(RESERVED) + 1


def test_save_load_round_trip(tmp_path):
    v = Vocabulary(("alpha", "beta", "gamma"))
    path = tmp_path / "vocab.json"
    v.save(str(path))
    again = Vocabulary.load(str(path))
    assert again == v
    assert again.tokens == v.tokens


def test_load_rejects_missing_reserved_prefix(tmp_path):
    path = tmp_path / "vocab.json"
    path.write_text('["alpha", "beta"]')
    with pytest.raises(ValueError):
        Vocabulary.load(str(path))


@pytest.mark.parametrize("extra,reason", [
    ([5], "not a string"),
    ([None], "not a string"),
    ([["a"]], "not a string"),
    (["a", "b", "a"], "repeats a token"),
    (["arg"], "repeats a token"),
])
def test_load_rejects_tokens_save_cannot_write(tmp_path, extra, reason):
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps(list(RESERVED) + extra))
    with pytest.raises(VocabularyError, match=reason):
        Vocabulary.load(str(path))


@given(st.lists(st.sampled_from(["x", "y", "z", "w"]), max_size=20))
@settings(max_examples=200, deadline=None)
def test_encode_decode_identity_for_known_tokens(tokens):
    v = Vocabulary(("x", "y", "z", "w"))
    assert v.decode(v.encode(tokens)) == tokens
