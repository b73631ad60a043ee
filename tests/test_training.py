"""Training loop checks.

The central-difference gradient check is the oracle for the manual
backward pass; single-pair batches are the oracle for padding; the copy
task shows the whole loop can actually learn; determinism and the
non-finite abort guard the operational behavior.
"""

import numpy as np
import pytest

from patchloom.decoding import beam_search
from patchloom.model import P_FLOOR, ModelParameters
from patchloom.training import (
    TrainingConfig,
    batch_loss_and_gradients,
    forward_pair,
    gradient_check,
    make_batches,
    train,
)
from patchloom.vocab import EOS_ID


def small_params(seed=0, src=10, tgt=10, hidden=4, embed=3, lex_weight=0.0):
    rng = np.random.default_rng(seed)
    return ModelParameters.initialize(
        rng, src, tgt, hidden_size=hidden, embed_size=embed,
        lex_weight=lex_weight, scale=0.8,
    )


def test_gradient_check_small_model():
    params = small_params()
    batch = [([3, 4, 5], [6, 7, EOS_ID])]
    assert gradient_check(params, batch, step=1e-4) < 1e-4


def test_gradient_check_with_lexicon_mixture():
    params = small_params(lex_weight=0.2)
    params.lexicon = {3: {6: 0.7, 7: 0.3}, 4: {7: 1.0}}
    batch = [([3, 4], [6, 7, EOS_ID])]
    assert gradient_check(params, batch, step=1e-4) < 1e-4


def test_gradient_check_refuses_dropout():
    params = small_params()
    with pytest.raises(ValueError):
        gradient_check(params, [([1], [2, EOS_ID])], dropout=0.5)


@pytest.mark.parametrize("lex_weight", [0.0, 0.2])
def test_underflowed_target_gives_finite_loss_and_gradients(lex_weight):
    # softmax(target logit) underflows to exactly 0: the forward floors
    # p_y at P_FLOOR and the backward must agree instead of dividing by 0
    params = small_params(lex_weight=lex_weight)
    params.lexicon = {3: {7: 1.0}}
    params.b_pred[6] = -1e4
    loss, tokens, grads = batch_loss_and_gradients(params, [([3, 4], [6, EOS_ID])])
    assert loss * tokens >= -np.log(P_FLOOR)
    assert np.isfinite(loss)
    for name, grad in grads.items():
        assert np.isfinite(grad).all(), name


def test_batch_loss_is_mean_per_token():
    params = small_params()
    batch = [([3, 4], [6, EOS_ID]), ([5], [7, 8, EOS_ID])]
    loss, tokens, _ = batch_loss_and_gradients(params, batch)
    assert tokens == 5
    total = 0.0
    for pair in batch:
        total += forward_pair(params.astype(np.float64), [pair]).loss
    assert loss == pytest.approx(total / tokens, rel=1e-5)


# a padded batch: sources of 2, 4 and 1 tokens and targets of 3, 2 and 5,
# listed so that neither the longest source nor the longest target comes
# first; source token 9 has no lexicon row and backs off to the softmax
PADDED_BATCH = [([3, 4], [6, 7, EOS_ID]),
                ([5, 9, 3, 4], [8, EOS_ID]),
                ([9], [3, 4, 5, 6, EOS_ID])]
PADDED_LEXICON = {3: {6: 0.7, 7: 0.3}, 4: {7: 1.0}, 5: {2: 0.5, 8: 0.5}}


@pytest.mark.parametrize("lex_weight", [0.0, 0.2])
def test_gradient_check_on_padded_batch(lex_weight):
    params = small_params(lex_weight=lex_weight)
    params.lexicon = PADDED_LEXICON
    assert gradient_check(params, PADDED_BATCH, step=1e-4) < 1e-4


def _summed(params, batch, rng=None, dropout=0.0):
    """Total loss and total gradients (not per-token means) of one batch."""
    loss, tokens, grads = batch_loss_and_gradients(params, batch, rng, dropout)
    return loss * tokens, {name: g * tokens for name, g in grads.items()}


@pytest.mark.parametrize("lex_weight", [0.0, 0.2])
def test_padded_batch_equals_sum_of_single_pairs(lex_weight):
    params = small_params(lex_weight=lex_weight).astype(np.float64)
    params.lexicon = PADDED_LEXICON
    loss, grads = _summed(params, PADDED_BATCH)
    singles = [_summed(params, [pair]) for pair in PADDED_BATCH]
    assert abs(loss - sum(single_loss for single_loss, _ in singles)) < 1e-10
    for name, grad in grads.items():
        want = sum(single[name] for _, single in singles)
        assert np.abs(grad - want).max() < 1e-10, name


def test_dropout_draws_do_not_depend_on_batching():
    # the same generator state must give each pair the same masks whether
    # the pairs share one batch or come one per batch
    params = small_params(lex_weight=0.2).astype(np.float64)
    params.lexicon = PADDED_LEXICON
    together = np.random.default_rng(3)
    loss, grads = _summed(params, PADDED_BATCH, together, dropout=0.5)
    apart = np.random.default_rng(3)
    singles = [_summed(params, [pair], apart, dropout=0.5)
               for pair in PADDED_BATCH]
    assert together.bit_generator.state == apart.bit_generator.state
    assert abs(loss - sum(single_loss for single_loss, _ in singles)) < 1e-10
    for name, grad in grads.items():
        want = sum(single[name] for _, single in singles)
        assert np.abs(grad - want).max() < 1e-10, name
    # and dropout did change the loss
    assert abs(loss - _summed(params, PADDED_BATCH)[0]) > 1e-6


def test_make_batches_respects_word_budget():
    pairs = [([1], [1] * n) for n in (5, 3, 8, 2, 2, 7)]
    batches = make_batches(pairs, minibatch_words=8)
    flat = [p for b in batches for p in b]
    assert sorted(len(t) for _, t in flat) == [2, 2, 3, 5, 7, 8]
    for batch in batches:
        words = sum(len(t) for _, t in batch)
        assert words <= 8 or len(batch) == 1
    # batches are filled from length-sorted pairs, shortest first
    lengths = [[len(t) for _, t in b] for b in batches]
    assert all(ls == sorted(ls) for ls in lengths)


def test_single_pair_loss_decreases():
    pairs = [([3, 4, 5], [5, 4, 3, EOS_ID])]
    config = TrainingConfig(hidden_size=8, embed_size=6, max_epochs=6,
                            minibatch_words=8, learning_rate=0.05,
                            dropout=0.0, seed=1, dev_fraction=0.0)
    params, logbook = train(pairs, 10, 10, config)
    losses = [e.train_loss for e in logbook.epochs]
    assert len(losses) == 6
    assert losses[-1] < losses[0]
    assert not logbook.aborted


def test_training_is_deterministic_per_seed():
    rng = np.random.default_rng(11)
    pairs = [(list(rng.integers(3, 9, size=3)),
              list(rng.integers(3, 9, size=3)) + [EOS_ID])
             for _ in range(12)]
    config = TrainingConfig(hidden_size=8, embed_size=6, max_epochs=3,
                            minibatch_words=8, learning_rate=0.01,
                            dropout=0.2, seed=5)
    p1, log1 = train(list(pairs), 10, 10, config)
    p2, log2 = train(list(pairs), 10, 10, config)
    for name, t1 in p1.tensors().items():
        assert np.array_equal(t1, p2.tensors()[name]), name
    assert [e.train_loss for e in log1.epochs] == [e.train_loss for e in log2.epochs]


def test_different_seeds_differ():
    pairs = [([3, 4], [4, 3, EOS_ID]), ([5, 6], [6, 5, EOS_ID])]
    base = TrainingConfig(hidden_size=8, embed_size=6, max_epochs=2,
                          minibatch_words=8, learning_rate=0.01,
                          dropout=0.0, seed=1)
    other = TrainingConfig(hidden_size=8, embed_size=6, max_epochs=2,
                           minibatch_words=8, learning_rate=0.01,
                           dropout=0.0, seed=2)
    p1, _ = train(list(pairs), 10, 10, base)
    p2, _ = train(list(pairs), 10, 10, other)
    assert any(not np.array_equal(t, p2.tensors()[n])
               for n, t in p1.tensors().items())


def test_non_finite_loss_aborts_with_finite_snapshot():
    # a NaN smuggled in through the lexicon poisons the very first
    # batch loss; training must stop and hand back finite weights
    pairs = [([3, 4], [4, 3, EOS_ID]), ([5, 6], [6, 5, EOS_ID])]
    config = TrainingConfig(hidden_size=8, embed_size=6, max_epochs=8,
                            minibatch_words=8, learning_rate=0.01,
                            dropout=0.0, seed=1, lex_weight=0.1)
    poisoned = {3: {4: float("nan")}}
    params, logbook = train(pairs, 10, 10, config, lexicon=poisoned)
    assert logbook.aborted
    assert logbook.epochs == []
    assert params.all_finite()


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        TrainingConfig(dropout=1.0)
    with pytest.raises(ValueError):
        TrainingConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainingConfig(minibatch_words=0)


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        train([], 10, 10, TrainingConfig())


def test_learning_rate_halves_after_each_dev_regression():
    rng = np.random.default_rng(11)
    pairs = [(list(map(int, rng.integers(3, 9, size=4))),
              list(map(int, rng.integers(3, 9, size=4))) + [EOS_ID])
             for _ in range(16)]
    config = TrainingConfig(hidden_size=8, embed_size=6, max_epochs=12,
                            minibatch_words=8, learning_rate=0.1,
                            dropout=0.0, seed=2, decay_factor=0.5,
                            dev_fraction=0.25)
    _, logbook = train(pairs, 10, 10, config)
    assert not logbook.aborted

    # replay the decay rule from the recorded dev losses
    lr = config.learning_rate
    prev_dev = float("inf")
    for stats in logbook.epochs:
        assert stats.learning_rate == pytest.approx(lr)
        if stats.dev_loss > prev_dev:
            lr *= config.decay_factor
        prev_dev = stats.dev_loss
    # the noisy schedule above regresses at least once
    assert min(e.learning_rate for e in logbook.epochs) < config.learning_rate


def test_copy_task_learned_end_to_end():
    """500 random sequences; the trained model must copy at least 95 of
    100 held-out inputs exactly under a small beam."""
    rng = np.random.default_rng(42)
    vocab_size = 30

    def sample():
        length = int(rng.integers(3, 7))
        return list(rng.integers(5, vocab_size, size=length))

    train_pairs = [(s, s + [EOS_ID]) for s in (sample() for _ in range(500))]
    config = TrainingConfig(hidden_size=64, embed_size=32, max_epochs=30,
                            minibatch_words=64, learning_rate=0.003,
                            dropout=0.0, seed=1, decay_factor=0.9,
                            dev_fraction=0.1, lex_weight=0.0)
    params, logbook = train(train_pairs, vocab_size, vocab_size, config)
    assert not logbook.aborted

    held_out = [sample() for _ in range(100)]
    exact = 0
    for src in held_out:
        hyps = beam_search(params, src, beam_size=5, max_len=12)
        exact += list(hyps[0].output_ids) == src
    assert exact >= 95
