"""Worker threads: how many there are, and that splitting a batch or a
decode step across them changes no bit of any result.

Tier-1 runs with OpenBLAS's default thread count, where the program
derives one worker, so the bit-identity checks set the worker count
themselves, at each hidden size that workers.LEAST_ROWS lists.
"""

import ast
import concurrent.futures
import json
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import patchloom
from patchloom import training, workers
from patchloom.cli import main
from patchloom.decoding import Decoder, beam_search
from patchloom.model import LexiconTable, ModelParameters
from patchloom.modelio import load_model, save_model
from patchloom.synthdata import make_repo
from patchloom.vocab import EOS_ID, RESERVED, Vocabulary

H = 512
LEAST = workers.LEAST_ROWS[H]


class _Workers:
    """Sets the worker count; tasks counts the parts run() has handed out
    to threads since."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.tasks = 0
        task = workers._task

        def counted(fn, item):
            self.tasks += 1
            return task(fn, item)

        monkeypatch.setattr(workers, "_task", counted)

    def use(self, n):
        self.monkeypatch.setattr(workers, "count", lambda: n)
        self.monkeypatch.setattr(workers, "_pool", None)   # one sized for n
        self.tasks = 0


@pytest.fixture()
def worker_count(monkeypatch):
    return _Workers(monkeypatch)


@pytest.fixture()
def fast_switching():
    """Threads switch far more often than usual, so that a write one
    block makes to another's rows would show."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a thread pool was started")


@pytest.fixture()
def no_threads(monkeypatch):
    """The pool stubbed so that it fails if started, and a fresh count."""
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _NoPool)
    monkeypatch.setattr(workers, "_pool", None)
    workers.count.cache_clear()
    yield
    workers.count.cache_clear()


@pytest.mark.parametrize("blas_threads", [2, 4, None, 0])
def test_one_worker_unless_blas_runs_one_thread(monkeypatch, no_threads, blas_threads):
    monkeypatch.setattr(workers, "_blas_threads", lambda: blas_threads)
    threads = threading.active_count()
    assert workers.count() == 1
    assert workers.blocks(10 * LEAST, H) == [(0, 10 * LEAST)]
    assert workers.run(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]
    assert threading.active_count() == threads


def test_workers_never_outnumber_the_available_cores(monkeypatch, no_threads):
    monkeypatch.setattr(workers, "_blas_threads", lambda: 1)
    assert 1 <= workers.count() <= len(os.sched_getaffinity(0))


def test_a_huge_core_count_is_clamped(monkeypatch, no_threads):
    monkeypatch.setattr(workers, "_blas_threads", lambda: 1)
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: range(1 << 20))
    threads = threading.active_count()
    assert workers.count() == workers.MAX_WORKERS == 2
    assert threading.active_count() == threads


@pytest.mark.parametrize("rows, hidden, want", [
    (8, 512, [(0, 4), (4, 8)]),
    (9, 512, [(0, 4), (4, 9)]),
    (7, 512, [(0, 7)]),
    (31, 256, [(0, 31)]),               # 16 rows a block at H=256
    (32, 256, [(0, 16), (16, 32)]),
    (1000, 128, [(0, 1000)]),           # only the sizes LEAST_ROWS lists
    (1000, 384, [(0, 1000)]),
    (1000, 1024, [(0, 1000)]),
])
def test_blocks_follow_the_split_rule(worker_count, rows, hidden, want):
    worker_count.use(2)
    assert workers.blocks(rows, hidden) == want


@pytest.mark.parametrize("ends, want", [
    ([3, 6, 9, 12], [(0, 6), (6, 12)]),
    ([4, 7, 12], [(0, 7), (7, 12)]),
    ([5, 10, 12], [(0, 12)]),           # the second block would hold 2 rows
    ([12], [(0, 12)]),
])
def test_blocks_end_only_where_allowed(worker_count, ends, want):
    worker_count.use(2)
    assert workers.blocks(12, H, ends) == want


def test_a_task_does_not_split_again(worker_count):
    worker_count.use(2)
    rows = 4 * LEAST
    inner = workers.run(lambda _: workers.blocks(rows, H), [0, 1])
    assert inner == [[(0, rows)], [(0, rows)]]


# every (k, m) weight shape a time loop or model._rows multiplies by
# column halves at hidden size H: the forward's [h~; h] @ W_rec, h @ W_h,
# the embeddings' and the attention keys' products, and the backward's
# dz @ W_rec, dz @ W_h, dpre_c @ W_comb and dm_sum @ W_att_h
def _column_shapes(H):
    return [(2 * H, 4 * H), (H, 4 * H), (16, 4 * H), (H // 2, 4 * H), (H, H),
            (4 * H, 2 * H), (4 * H, H), (H, 2 * H)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("hidden", [256, 512])
def test_column_halves_give_the_whole_products_bits(worker_count, hidden, dtype):
    worker_count.use(2)
    rng = np.random.default_rng(hidden)
    for k, m in _column_shapes(hidden):
        # column-major, as model.py keeps its weights, and C-contiguous
        W = rng.standard_normal((m, k)).astype(dtype).T
        for weight in (W, np.ascontiguousarray(W)):
            for rows in range(1, 34):
                a = rng.standard_normal((rows, k)).astype(dtype)
                worker_count.tasks = 0
                got = workers.columns(a, weight, hidden)
                assert got.tobytes() == (a @ weight).tobytes(), (k, m, rows)
                split = rows == 1 or rows * k * (m // 2) >= workers.SMALL_PRODUCT
                assert (worker_count.tasks > 0) == split, (k, m, rows)


def test_only_workers_imports_threading():
    """One module decides how work is shared among threads."""
    package = os.path.dirname(patchloom.__file__)
    importers = set()
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as source:
            tree = ast.parse(source.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] in ("threading", "concurrent")
                   for module in modules):
                importers.add(name)
    assert importers == {"workers.py"}


def test_run_keeps_order_and_raises_the_first_error(worker_count):
    worker_count.use(2)
    assert workers.run(lambda x: x * x, [3, 1, 2]) == [9, 1, 4]

    def fail(x):
        raise ValueError(f"part {x}")

    with pytest.raises(ValueError, match="part 0"):
        workers.run(fail, [0, 1])


# ---------------------------------------------------------------------------
# the program's results do not depend on the worker count

def _large_model(seed=0, lex_weight=0.0, hidden=H, embed=16):
    params = ModelParameters.initialize(
        np.random.default_rng(seed), 20, 14, hidden_size=hidden, embed_size=embed,
        lex_weight=lex_weight, scale=0.05)
    if lex_weight:
        params.lexicon = LexiconTable.from_rows(
            {3: {4: 0.6, 5: 0.4}, 7: {9: 1.0}}, 20)
    return params


def test_a_saved_and_loaded_model_is_bit_identical_with_more_workers(
        worker_count, fast_switching, tmp_path):
    params = _large_model(lex_weight=0.2)
    vocabs = (Vocabulary(tuple(f"s{i}" for i in range(20 - len(RESERVED)))),
              Vocabulary(tuple(f"t{i}" for i in range(14 - len(RESERVED)))))
    results = []
    for n in (1, 2):
        worker_count.use(n)
        path = tmp_path / f"workers{n}.plm"
        save_model(str(path), params, *vocabs)
        results.append((path.read_bytes(), load_model(str(path))[0].flat.tobytes()))
        assert (worker_count.tasks > 0) == (n > 1)
    assert results[0] == results[1]


def test_an_adam_update_is_bit_identical_with_more_workers(worker_count, fast_switching):
    params = _large_model()
    rng = np.random.default_rng(6)
    updated = []
    for n in (1, 2):
        worker_count.use(n)
        theta = params.copy()
        adam = training.AdamState(theta)
        for _ in range(2):
            grads = params.copy()
            grads.flat[...] = rng.standard_normal(grads.flat.size)
            adam.update(theta, grads, 0.01)
        assert (worker_count.tasks > 0) == (n > 1)
        updated.append([a.tobytes() for a in (theta.flat, adam.m.flat, adam.v.flat)])
        rng = np.random.default_rng(6)
    assert updated[0] == updated[1]


# 1 to 5 pairs split the few products large enough, and every batch runs
# the encoder's backward beside the decoder's gradient products
@pytest.mark.parametrize("hidden, embed, lex_weight, dropout, n_workers, pairs", [
    pytest.param(512, 16, 0.0, 0.0, 2, 19, id="512-16-0.0-0.0-2"),
    pytest.param(512, 16, 0.2, 0.3, 2, 19, id="512-16-0.2-0.3-2"),
    pytest.param(512, 16, 0.2, 0.3, 4, 19, id="512-16-0.2-0.3-4"),
    pytest.param(512, 256, 0.2, 0.3, 2, 19, id="512-256-0.2-0.3-2"),
    pytest.param(256, 16, 0.2, 0.3, 2, 67, id="256-16-0.2-0.3-2"),
    pytest.param(256, 128, 0.0, 0.0, 2, 67, id="256-128-0.0-0.0-2"),
    *[(hidden, 16, 0.2, 0.3, 2, pairs) for hidden in (512, 256)
      for pairs in (1, 2, 3, 5)],
])
def test_a_training_step_is_bit_identical_with_more_workers(
        worker_count, fast_switching, hidden, embed, lex_weight, dropout, n_workers,
        pairs):
    params = _large_model(lex_weight=lex_weight, hidden=hidden, embed=embed)
    rng = np.random.default_rng(1)
    batch = [(rng.integers(3, 20, size=n).tolist(),
              rng.integers(4, 14, size=m).tolist() + [EOS_ID])
             for n, m in rng.integers(1, 7, size=(pairs, 2))]
    results = []
    for n in (1, n_workers):
        worker_count.use(n)
        loss, tokens, grads = training.batch_loss_and_gradients(
            params, batch, np.random.default_rng(5), dropout)
        results.append((loss, grads))
        assert (worker_count.tasks > 0) == (n > 1)
    (loss1, grads1), (loss2, grads2) = results
    assert loss1 == loss2
    for name, tensor in grads1.tensors().items():
        assert np.array_equal(tensor, getattr(grads2, name)), name


def test_nothing_is_split_at_the_release_gates_hidden_size(worker_count):
    """At H=128, where a threaded training step took up to 1.45 times as
    long, a training step, a development loss and a decode hand no task
    to a thread."""
    params = _large_model(lex_weight=0.2, hidden=128, embed=64)
    rng = np.random.default_rng(2)
    batch = [(rng.integers(3, 20, size=n).tolist(),
              rng.integers(4, 14, size=m).tolist() + [EOS_ID])
             for n, m in rng.integers(1, 7, size=(40, 2))]
    worker_count.use(2)
    training.batch_loss_and_gradients(params, batch, np.random.default_rng(5), 0.3)
    training.corpus_loss(params, batch[:3])
    beam_search(params, [src for src, _ in batch], beam_size=3, max_len=5)
    assert worker_count.tasks == 0


@pytest.mark.parametrize("hidden, embed, lex_weight, n_workers",
                         [(512, 16, 0.0, 2), (512, 16, 0.2, 2), (512, 16, 0.2, 4),
                          (512, 256, 0.2, 2), (256, 16, 0.2, 2)])
def test_a_decode_is_bit_identical_with_more_workers(
        worker_count, fast_switching, monkeypatch, hidden, embed, lex_weight, n_workers):
    params = _large_model(seed=2, lex_weight=lex_weight, hidden=hidden, embed=embed)
    rng = np.random.default_rng(3)
    sources = [rng.integers(3, 20, size=n).tolist()
               for n in rng.integers(1, 7, size=2 * workers.LEAST_ROWS[hidden] + 1)]
    steps = []      # every step's state and log probabilities, bit for bit
    step = Decoder.step
    monkeypatch.setattr(Decoder, "step", lambda self, *args: steps.append(
        step(self, *args)) or steps[-1])
    decoded = []
    for n in (1, n_workers):
        worker_count.use(n)
        hyps = beam_search(params, sources, beam_size=3, max_len=5)
        decoded.append(([[(h.tokens, h.log_prob, h.finished) for h in row]
                         for row in hyps],
                        [[a.tobytes() for a in (*state, logp)]
                         for state, logp in steps]))
        assert (worker_count.tasks > 0) == (n > 1)
        steps.clear()
    assert decoded[0] == decoded[1]


def test_train_and_generate_write_the_same_files_with_two_workers(tmp_path,
                                                                    worker_count):
    repo_path = tmp_path / "repo.json"
    repo_path.write_text(json.dumps(make_repo()))
    hunks, corpus = tmp_path / "hunks.jsonl", tmp_path / "corpus"
    assert main(["mine", "--repo", str(repo_path), "--out", str(hunks)]) == 0
    assert main(["build-corpus", "--repo", str(repo_path), "--hunks", str(hunks),
                 "--test-year", "2015", "--out", str(corpus)]) == 0
    written = []
    for n in (1, 2):
        worker_count.use(n)
        out = tmp_path / f"workers{n}"
        out.mkdir()
        assert main(["train", "--corpus", str(corpus), "--out", str(out / "model.plm"),
                     "--hidden-size", str(H), "--embed-size", "32",
                     "--max-epochs", "2", "--seed", "1"]) == 0
        assert main(["generate", "--model", str(out / "model.plm"), "--query-file",
                     str(corpus / "test.queries"), "--out", str(out / "patches.jsonl"),
                     "--max-len", "6", "--no-threshold"]) == 0
        assert (worker_count.tasks > 0) == (n > 1)
        written.append([(out / name).read_bytes()
                        for name in ("model.plm", "patches.jsonl")])
    assert written[0] == written[1]


@pytest.mark.parametrize("make_rng", [np.random.default_rng,
                                      lambda seed: np.random.Generator(
                                          np.random.PCG64DXSM(seed))])
def test_initial_weights_are_drawn_on_two_threads_as_one_stream(worker_count,
                                                                 make_rng):
    drawn = []
    for n in (1, 2):
        worker_count.use(n)
        rng = make_rng(4)
        rng.integers(0, 10, dtype=np.uint32)    # leaves half an output buffered
        params = ModelParameters.initialize(rng, 30, 20, hidden_size=H, embed_size=64)
        assert (worker_count.tasks > 0) == (n > 1)
        drawn.append((params.flat.tobytes(), rng.bit_generator.state,
                      rng.integers(0, 1 << 30, size=3, dtype=np.uint32).tolist(),
                      rng.random(3).tolist()))
    assert drawn[0] == drawn[1]


def test_a_generator_that_cannot_advance_draws_serially(worker_count):
    drawn = []
    for n in (1, 2):
        worker_count.use(n)
        rng = np.random.Generator(np.random.MT19937(1))
        params = ModelParameters.initialize(rng, 30, 20, hidden_size=H, embed_size=64)
        assert worker_count.tasks == 0
        drawn.append((params.flat.tobytes(), rng.random(3).tolist()))
    assert drawn[0] == drawn[1]


# at H=256, two pairs' column halves would fall below OpenBLAS's
# small-matrix size, so no product splits
@pytest.mark.parametrize("hidden, pairs, split", [
    (512, 1, True), (512, 2, True), (512, 3, True), (256, 2, False), (256, 5, True)])
@pytest.mark.parametrize("embed", [16, 128])
def test_a_development_loss_is_bit_identical_with_more_workers(
        worker_count, fast_switching, hidden, pairs, split, embed):
    params = _large_model(lex_weight=0.2, hidden=hidden, embed=embed)
    rng = np.random.default_rng(pairs)
    dev = [(rng.integers(3, 20, size=n).tolist(),
            rng.integers(4, 14, size=m).tolist() + [EOS_ID])
           for n, m in rng.integers(1, 9, size=(pairs, 2))]
    results = []
    for n in (1, 2):
        worker_count.use(n)
        cache = training.forward_pair(params, dev)
        # products large enough split by columns
        assert (worker_count.tasks > 0) == (n > 1 and split)
        results.append((training.corpus_loss(params, dev),
                        [getattr(cache, name).tobytes()
                         for name in ("Hx", "enc_gates", "dec_gates", "htil", "smax")]))
    assert results[0] == results[1]


@pytest.mark.parametrize("embed", [16, 256])
def test_a_one_source_decode_is_bit_identical_with_more_workers(
        worker_count, fast_switching, monkeypatch, embed):
    params = _large_model(seed=5, lex_weight=0.2, embed=embed)
    tables = []
    step = Decoder.step
    monkeypatch.setattr(Decoder, "step", lambda self, *args: (
        step(self, *args), tables.append(self.inputs is not None))[0])
    decoded = []
    for n in (1, 2):
        worker_count.use(n)
        tables.clear()
        hyps = beam_search(params, [[3, 7, 11, 4]], beam_size=4, max_len=6)
        decoded.append([(h.tokens, h.log_prob, h.finished) for h in hyps[0]])
        assert (worker_count.tasks > 0) == (n > 1)
        # a beam of 4 steps at most 4 rows, fewer than V_tgt = 14, so no
        # step builds the input-half table, at any worker count
        assert tables and not any(tables)
    assert decoded[0] == decoded[1]


@pytest.mark.parametrize("hidden, embed", [(128, 16), (256, 128), (512, 16)])
@pytest.mark.parametrize("n_workers", [1, 2])
def test_steps_of_at_least_v_tgt_rows_read_the_table_with_the_products_bits(
        worker_count, hidden, embed, n_workers):
    worker_count.use(n_workers)
    decoder = Decoder(_large_model(seed=7, hidden=hidden, embed=embed), [[3, 7], [5]])
    p = decoder.params
    rng = np.random.default_rng(8)
    built = []
    for rows in (1, 2, 13, 14, 40, 3, 1):
        prev = rng.integers(0, p.tgt_vocab_size, size=rows)
        want = p.E_tgt[prev] @ p.W_dec[:, :embed].T + p.b_dec
        assert np.array_equal(decoder._input_half(prev), want), rows
        built.append(decoder.inputs is not None)
    # built by the first step of V_tgt = 14 rows, then kept
    assert built == [False, False, False, True, True, True, True]


def test_a_large_vocabulary_one_source_decode_builds_no_table(worker_count):
    """With V_tgt far above a beam's rows, no step reads the (V_tgt, 4H)
    table, so a one-source decode allocates about what its steps need,
    at the hidden sizes where work is split too."""
    hidden, embed, vocab = 256, 128, 5000
    params = ModelParameters.initialize(
        np.random.default_rng(9), 20, vocab, hidden_size=hidden, embed_size=embed,
        scale=0.05, dtype=np.float64)
    table_bytes = vocab * 4 * hidden * 8
    for n in (1, 2):
        worker_count.use(n)
        tracemalloc.start()
        try:
            beam_search(params, [[3, 7, 11, 4]], beam_size=10, max_len=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table_bytes / 4, (n, peak)
