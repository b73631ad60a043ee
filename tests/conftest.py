"""Shared fixtures.

The heavyweight item is rule_model: a small sequence model trained once
per session on two rewrite rules plus an identity form over forty
identifier names.  Training takes under ten seconds and gives the
generation tests a model whose outputs are known exactly.
"""

import os
import shutil
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

from patchloom import repo
from patchloom.decoding import Hypothesis
from patchloom.model import (
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
from patchloom.tokenizer import TokenizeError
from patchloom.training import TrainingConfig, train
from patchloom.vocab import BOS_ID, EOS_ID, Vocabulary

HERE = os.path.dirname(os.path.abspath(__file__))
DATA_DIR = os.path.join(HERE, "data")
FIXTURES_DIR = os.path.join(os.path.dirname(HERE), "fixtures")

NAMES = (
    "height width depth length offset index cursor counter total limit "
    "buffer stream reader writer handler parser cache client session "
    "token payload record bundle config status result target source "
    "holder factory mapping channel router monitor metric ticket broker "
    "queue worker anchor segment window"
).split()


def load_tagged(path: str) -> list[tuple[str, str]]:
    """(tag, payload) rows from a tab-separated file; # starts a comment."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            tag, payload = line.split("\t", 1)
            rows.append((tag, payload))
    return rows


def apply_hunks(pre_lines: list[str], post_lines: list[str], hunks) -> list[str]:
    """Replay linediff's edit script against pre_lines, added text taken
    from post_lines: the oracle of the differ tests."""
    out: list[str] = []
    cursor = 0
    for h in hunks:
        out.extend(pre_lines[cursor : h.pre_start])
        out.extend(post_lines[h.post_start : h.post_end])
        cursor = h.pre_end
    out.extend(pre_lines[cursor:])
    return out


# ---------------------------------------------------------------------------
# the character-loop lexer: the oracle of tokenizer's one token pattern

_REF_MULTI_OPS = (
    "==", "!=", "<=", ">=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "->", "::",
)
_REF_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$")
_REF_IDENT_CONT = _REF_IDENT_START | frozenset("0123456789")
_REF_DIGITS = frozenset("0123456789")


def _reference_literal_end(line: str, i: int) -> int | None:
    """Index just past the literal opening at line[i], or None when the
    line ends inside it.  A backslash escapes the character after it."""
    quote = line[i]
    n = len(line)
    j = i + 1
    while j < n:
        if line[j] == "\\":
            j += 2
        elif line[j] == quote:
            return j + 1
        else:
            j += 1
    return None


def reference_strip_line_comment(line: str) -> str:
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c in "\"'":
            i = _reference_literal_end(line, i)
            if i is None:
                return line
        elif c == "/" and i + 1 < n and line[i + 1] == "/":
            return line[:i]
        else:
            i += 1
    return line


def _reference_scan_number(line: str, i: int, tokens: list[str]) -> int:
    n = len(line)
    j = i
    while j < n:
        c = line[j]
        if c in _REF_IDENT_CONT or c == ".":
            if c in "eE" and j + 1 < n and line[j + 1] in "+-" and j + 2 < n \
                    and line[j + 2] in _REF_DIGITS:
                if line[i : i + 2].lower() != "0x":
                    j += 2
                    continue
            j += 1
        else:
            break
    tokens.append(line[i:j])
    return j


def reference_tokenize(raw: str) -> tuple[str, ...]:
    """Tokens of one line; raises TokenizeError like tokenizer.tokenize."""
    line = reference_strip_line_comment(raw)
    tokens: list[str] = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c in " \t\f\v\r\n":
            i += 1
            continue
        if c in _REF_IDENT_START:
            j = i + 1
            while j < n and line[j] in _REF_IDENT_CONT:
                j += 1
            tokens.append(line[i:j])
            i = j
            continue
        if c in _REF_DIGITS:
            i = _reference_scan_number(line, i, tokens)
            continue
        if c in "\"'":
            j = _reference_literal_end(line, i)
            if j is None:
                kind = "string" if c == '"' else "char"
                raise TokenizeError(f"unterminated {kind} literal: {line[i:]!r}")
            tokens.append(line[i:j])
            i = j
            continue
        two = line[i : i + 2]
        if two in _REF_MULTI_OPS:
            tokens.append(two)
            i += 2
            continue
        tokens.append(c)
        i += 1
    return tuple(tokens)


def reference_brace_counts(line: str) -> tuple[int, int]:
    """(opens, closes) outside literals, up to a literal left open."""
    opens = closes = 0
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c in "\"'":
            i = _reference_literal_end(line, i)
            if i is None:
                break
            continue
        if c == "{":
            opens += 1
        elif c == "}":
            closes += 1
        i += 1
    return opens, closes


def reference_beam_search(params: ModelParameters, src_ids: list[int],
                          beam_size: int, max_len: int) -> list[Hypothesis]:
    """Beam search over one source at a time, unpadded, through model.py's
    forward with the model at float64: the oracle of the batched
    decoder.  The first hypothesis of every step is the source's own
    top-k over its rows, scores descending, then token, then row."""
    p = params.astype(np.float64)
    d = p.embed_size
    states, cells, _ = encode(p, p.E_src[src_ids][None])
    keys = attention_keys(p, states)
    lexicon = lexicon_rows(p, src_ids)
    h, c, htilde = states[:, -1], cells[:, -1], np.zeros((1, p.hidden_size))
    tokens: list[tuple[int, ...]] = [()]
    scores = np.zeros(1)
    pool: list[Hypothesis] = []
    best_finished = -np.inf
    for _ in range(max_len):
        prev = np.array([t[-1] if t else BOS_ID for t in tokens])
        z = p.E_tgt[prev] @ p.W_dec[:, :d].T + p.b_dec
        z += np.concatenate([htilde, h], axis=1) @ p.W_dec[:, d:].T
        h, c, _ = lstm_step(z, c)
        weights, context, _ = attend(p, states, keys, h)
        htilde = attentional_vector(p, h, context)
        probs = predict_distribution(p, htilde)
        if lexicon is not None:
            probs = mix_lexicon(p, probs, weights, lexicon)
        total = scores[:, None] + np.log(np.maximum(probs, P_FLOOR))
        flat = total.T.ravel()  # position = token * rows + row
        k = min(beam_size, flat.size)
        kth = np.sort(flat)[flat.size - k]
        picked = np.flatnonzero(flat >= kth)
        picked = picked[np.argsort(-flat[picked], kind="stable")[:k]]
        toks, rows = np.divmod(picked, len(tokens))
        live = toks != EOS_ID
        for r in rows[~live].tolist():
            pool.append(Hypothesis(tokens=tokens[r] + (EOS_ID,),
                                   log_prob=float(total[r, EOS_ID]), finished=True))
            best_finished = max(best_finished, pool[-1].log_prob)
        if not live.any():
            break
        rows, toks = rows[live], toks[live]
        tokens = [tokens[r] + (t,) for r, t in zip(rows.tolist(), toks.tolist())]
        scores = total[rows, toks]
        h, c, htilde = h[rows], c[rows], htilde[rows]
        if scores.max() <= best_finished:
            break
    if pool:
        pool.sort(key=lambda hyp: -hyp.log_prob)
        return pool[:beam_size]
    return [Hypothesis(tokens=tokens[0], log_prob=float(scores[0]), finished=False)]


# one line per acceptance check, echoed after the run so the verdicts
# survive pytest's output capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance checks")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def data_dir() -> str:
    return DATA_DIR


@pytest.fixture(scope="session")
def fixtures_dir() -> str:
    return FIXTURES_DIR


def rule_corpus() -> list[tuple[str, str]]:
    """Parallel lines, rule-major so the dev tail reuses known names."""
    pairs = []
    for n in NAMES:
        pairs.append((f"return this . {n} ;", f"return {n} ;"))
    for n in NAMES:
        pairs.append((f"{n} . log ( arg ) ;", f"{n} . debug ( arg ) ;"))
    for n in NAMES:
        pairs.append((f"int {n} = 0 ;", f"int {n} = 0 ;"))
    return pairs


@dataclass
class TrainedFixture:
    params: ModelParameters
    src_vocab: Vocabulary
    tgt_vocab: Vocabulary
    pre_lines: list[list[str]]
    post_lines: list[list[str]]


@pytest.fixture(scope="session")
def rule_model() -> TrainedFixture:
    pairs = rule_corpus()
    src_counts = Counter(t for pre, _ in pairs for t in pre.split())
    tgt_counts = Counter(t for _, post in pairs for t in post.split())
    src_vocab = Vocabulary.from_counts(src_counts, unk_threshold=0)
    tgt_vocab = Vocabulary.from_counts(tgt_counts, unk_threshold=0)
    encoded = [
        (src_vocab.encode(pre.split()), tgt_vocab.encode(post.split(), eos=True))
        for pre, post in pairs
    ]
    config = TrainingConfig(
        hidden_size=96, embed_size=48, max_epochs=60, minibatch_words=16,
        learning_rate=0.003, dropout=0.0, seed=3, decay_factor=0.9,
        dev_fraction=0.1, lex_weight=0.0,
    )
    params, logbook = train(encoded, len(src_vocab), len(tgt_vocab), config)
    assert not logbook.aborted
    return TrainedFixture(
        params=params,
        src_vocab=src_vocab,
        tgt_vocab=tgt_vocab,
        pre_lines=[pre.split() for pre, _ in pairs],
        post_lines=[post.split() for _, post in pairs],
    )


# ---------------------------------------------------------------------------
# git repositories

needs_git = pytest.mark.skipif(shutil.which("git") is None,
                               reason="git not installed")


class CountingSubprocess:
    """Stands in for the subprocess module inside patchloom.repo: counts
    every process repo starts and keeps the Popen objects."""

    def __init__(self, real):
        self._real = real
        self.calls = 0
        self.popened = []

    def run(self, *args, **kwargs):
        self.calls += 1
        return self._real.run(*args, **kwargs)

    def Popen(self, *args, **kwargs):
        self.calls += 1
        proc = self._real.Popen(*args, **kwargs)
        self.popened.append(proc)
        return proc

    def __getattr__(self, name):
        return getattr(self._real, name)


@pytest.fixture()
def git_processes(monkeypatch) -> CountingSubprocess:
    proxy = CountingSubprocess(repo.subprocess)
    monkeypatch.setattr(repo, "subprocess", proxy)
    return proxy


@pytest.fixture(scope="session")
def workloads():
    """perfbench/workloads.py from the checkout: its write_git_repo
    commits a make_repo-style history into a new git repository, one
    commit per entry, each the previous one's child."""
    from test_perfbench_hooks import load_perfbench
    return load_perfbench("workloads")
