"""Token vocabularies with reserved control and placeholder tokens.

Index 0..2 are <unk>, <s>, </s>; the abstraction placeholders arg and
val are always present and never count as rare.  Remaining tokens are
ordered by descending count then token text, which keeps construction
deterministic for a given corpus.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Iterable

UNK = "<unk>"
BOS = "<s>"
EOS = "</s>"

RESERVED = (UNK, BOS, EOS, "arg", "val")

UNK_ID = 0
BOS_ID = 1
EOS_ID = 2


class VocabularyError(ValueError):
    """A vocabulary file that Vocabulary.save cannot have written."""


class Vocabulary:
    def __init__(self, tokens: Iterable[str] = ()):
        self._tokens: list[str] = list(RESERVED)
        self._index: dict[str, int] = {t: i for i, t in enumerate(self._tokens)}
        for tok in tokens:
            self.add(tok)

    def add(self, token: str) -> int:
        if token in self._index:
            return self._index[token]
        self._index[token] = len(self._tokens)
        self._tokens.append(token)
        return self._index[token]

    @classmethod
    def from_counts(cls, counts: Counter, unk_threshold: int = 1) -> "Vocabulary":
        """Tokens with count > unk_threshold, most frequent first."""
        vocab = cls()
        kept = [
            (c, t) for t, c in counts.items()
            if c > unk_threshold and t not in vocab._index
        ]
        kept.sort(key=lambda pair: (-pair[0], pair[1]))
        for _, tok in kept:
            vocab.add(tok)
        return vocab

    def index(self, token: str) -> int:
        return self._index.get(token, UNK_ID)

    def encode(self, tokens: Iterable[str], eos: bool = False) -> list[int]:
        ids = [self.index(t) for t in tokens]
        if eos:
            ids.append(EOS_ID)
        return ids

    def decode(self, ids: Iterable[int]) -> list[str]:
        return [self._tokens[i] for i in ids]

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def __len__(self) -> int:
        return len(self._tokens)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self._tokens == other._tokens

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(self._tokens)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self._tokens, fh, ensure_ascii=False)

    @classmethod
    def load(cls, path: str) -> "Vocabulary":
        with open(path, encoding="utf-8") as fh:
            try:
                tokens = json.load(fh)
            except ValueError as exc:
                raise VocabularyError(f"vocabulary file {path}: {exc}") from None
        if not isinstance(tokens, list) or tokens[: len(RESERVED)] != list(RESERVED):
            raise VocabularyError(f"vocabulary file {path} lacks the reserved prefix")
        if not all(isinstance(t, str) for t in tokens):
            raise VocabularyError(f"vocabulary file {path} holds a token that is not a string")
        vocab = cls(tokens[len(RESERVED):])
        if len(vocab) != len(tokens):
            raise VocabularyError(f"vocabulary file {path} repeats a token")
        return vocab
