import dataclasses
import json
import math
import os
import re
import struct
import sys
import tempfile
import zlib
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _memory import traced_peak
from _toy import encode_toy, toy_config, toy_corpus
from opinionminer import layers, training
from opinionminer.cli import _write_text, main
from opinionminer.layers import (
    STACKS,
    init_model_params,
    model_backward,
    model_forward,
    zero_grads,
)
from opinionminer.text_pipeline import DataError, TokenSequence, Vocabulary
from opinionminer.training import (
    MAX_LEN,
    MAX_PARAMETERS,
    AdamState,
    Checkpoint,
    CheckpointError,
    ConfigError,
    TrainConfig,
    adam_step,
    batch_gradients,
    bce_grad,
    bce_loss,
    evaluate_loss,
    fit,
    load_checkpoint,
    make_batches,
    save_checkpoint,
    train_epoch,
    validate_checkpoint,
)
from opinionminer.training import _crc32_combine, _example_seed, _parse_header


class TestBce:
    def test_perfect_prediction(self):
        assert bce_loss(1, 1.0) == pytest.approx(0.0, abs=1e-10)
        assert bce_loss(0, 0.0) == pytest.approx(0.0, abs=1e-10)

    def test_analytic_values(self):
        assert bce_loss(1, 0.5) == pytest.approx(math.log(2.0), abs=1e-12)
        assert bce_loss(0, 0.9) == pytest.approx(2.3025850929940455, abs=1e-12)

    def test_grad_values(self):
        assert bce_grad(1, 0.5) == -2.0
        assert bce_grad(0, 0.5) == 2.0

    def test_grad_matches_finite_difference(self):
        h = 1e-7
        for y in (0, 1):
            for yhat in (0.2, 0.5, 0.8):
                fd = (bce_loss(y, yhat + h) - bce_loss(y, yhat - h)) / (2 * h)
                assert abs(bce_grad(y, yhat) - fd) < 1e-6

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            y = int(rng.integers(0, 2))
            yhat = float(rng.uniform(0, 1))
            assert bce_loss(y, yhat) >= 0.0

    def test_extreme_predictions_clamped(self):
        assert math.isfinite(bce_loss(1, 0.0))
        assert math.isfinite(bce_loss(0, 1.0))


def tiny_model(seed=0):
    return init_model_params(vocab_size=6, embedding_dim=2, gru_units=2,
                             lstm_units=2, seed=seed)


def reference_adam_step(params, m, v, grads, t, config):
    """Adam as one loop over name -> array dicts, with the PAD row frozen."""
    b1, b2 = config.beta1, config.beta2
    eps, lr = config.epsilon, config.learning_rate
    mc = 1.0 - b1 ** t
    vc = 1.0 - b2 ** t
    for name, arr in params.items():
        g = grads[name]
        pad_row = arr[0].copy() if name == "embedding.E" else None
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * (g * g)
        arr -= lr * (m[name] / mc) / (np.sqrt(v[name] / vc) + eps)
        if pad_row is not None:
            arr[0] = pad_row
            m[name][0] = 0.0
            v[name][0] = 0.0


def check_adam_against_reference(stack):
    """Five Adam steps of a small model against reference_adam_step, byte for byte."""
    params = init_model_params(vocab_size=9, embedding_dim=3, gru_units=4,
                               lstm_units=3, stack=stack, seed=1)
    want = {n: a.copy() for n, a in params.named_arrays()}
    m = {n: np.zeros_like(a) for n, a in want.items()}
    v = {n: np.zeros_like(a) for n, a in want.items()}
    state = AdamState.for_params(params)
    config = TrainConfig(learning_rate=0.01)
    rng = np.random.default_rng(7)
    size = params.flat.size
    for t in range(1, 6):
        # signed gradients from 1e-8 to 1e2
        grads = params.like(rng.choice([-1.0, 1.0], size=size)
                            * 10.0 ** rng.uniform(-8.0, 2.0, size=size))
        reference_adam_step(want, m, v, dict(grads.named_arrays()), t, config)
        adam_step(state, params, grads, config)
        assert state.t == t
        for got, ref in ((params, want), (params.like(state.m), m),
                         (params.like(state.v), v)):
            for name, arr in got.named_arrays():
                assert arr.tobytes() == ref[name].tobytes(), (t, name)


class TestAdam:
    @pytest.mark.parametrize("stack", sorted(STACKS))
    def test_vector_update_matches_the_per_tensor_loop_bit_for_bit(self, stack):
        check_adam_against_reference(stack)

    @pytest.mark.parametrize("stack", sorted(STACKS))
    def test_chunks_that_split_the_pad_row_match_bit_for_bit(self, stack, monkeypatch):
        # 2-element chunks: the 3-wide PAD row spans two of them
        monkeypatch.setattr(training, "_ADAM_CHUNK", 2)
        check_adam_against_reference(stack)

    def test_a_step_allocates_two_chunks(self):
        params = init_model_params(vocab_size=16000, embedding_dim=64, gru_units=4,
                                   lstm_units=4, seed=1)
        state = AdamState.for_params(params)
        grads = params.like(np.full_like(params.flat, 0.5))
        assert params.flat.size > 10**6
        with traced_peak() as peak:
            adam_step(state, params, grads, TrainConfig())
        assert peak.bytes < 2 * training._ADAM_CHUNK * 8 + 64 * 1024

    def test_zero_gradient_is_noop(self):
        params = tiny_model()
        before = {n: a.copy() for n, a in params.named_arrays()}
        state = AdamState.for_params(params)
        grads = params.like(np.zeros_like(params.flat))
        adam_step(state, params, grads, TrainConfig())
        for name, arr in params.named_arrays():
            npt.assert_array_equal(arr, before[name])
        assert state.t == 1

    def test_first_step_closed_form(self):
        # mhat = g, vhat = g^2 -> delta = -lr*g/(|g| + eps), just under lr
        params = tiny_model()
        state = AdamState.for_params(params)
        config = TrainConfig(learning_rate=0.001, epsilon=1e-7)
        g = 0.3
        grads = params.like(np.full_like(params.flat, g))
        before = {n: a.copy() for n, a in params.named_arrays()}
        adam_step(state, params, grads, config)
        expected = -0.001 * g / (g + 1e-7)  # = -0.0009999996666667783
        for name, arr in params.named_arrays():
            delta = arr - before[name]
            if name == "embedding.E":
                delta = delta[1:]  # PAD row frozen
            npt.assert_allclose(delta, expected, rtol=1e-12)
            assert np.all(np.abs(delta) < config.learning_rate)

    def test_constant_gradient_monotone(self):
        params = tiny_model()
        state = AdamState.for_params(params)
        config = TrainConfig()
        grads = params.like(np.full_like(params.flat, 0.5))
        w = params.dense.W.copy()
        for _ in range(3):
            adam_step(state, params, grads, config)
            assert np.all(params.dense.W < w)
            w = params.dense.W.copy()

    def test_pad_row_never_updated(self):
        params = tiny_model()
        state = AdamState.for_params(params)
        grads = params.like(np.ones_like(params.flat))
        for _ in range(3):
            adam_step(state, params, grads, TrainConfig())
        npt.assert_array_equal(params.embedding.E[0], np.zeros(2))

    def test_shape_mismatch_rejected(self):
        params = tiny_model()
        state = AdamState.for_params(params)
        before = params.flat.copy()
        # the gradients of a model with one more vocabulary row
        grads = init_model_params(vocab_size=7, embedding_dim=2, gru_units=2, lstm_units=2)
        with pytest.raises(ValueError, match="does not match"):
            adam_step(state, params, grads, TrainConfig())
        assert state.t == 0
        npt.assert_array_equal(params.flat, before)


    @pytest.mark.parametrize("chunk", [2, 6, training._ADAM_CHUNK])
    def test_row_gradient_gives_the_dense_update_bit_for_bit(self, chunk, monkeypatch):
        # 2- and 6-element chunks hold one and two rows of the 3-wide
        # embedding, so some chunks hold rows the gradient has and some not
        monkeypatch.setattr(training, "_ADAM_CHUNK", chunk)
        params = init_model_params(vocab_size=9, embedding_dim=3, gru_units=4,
                                   lstm_units=3, seed=1)
        rows = np.array([0, 2, 3, 7])
        rng = np.random.default_rng(3)
        size = params.flat.size
        dense = params.like(rng.normal(size=size))
        dense.embedding.E[np.setdiff1d(np.arange(9), rows)] = 0.0
        dense.embedding.E[0] = 0.0
        sparse = zero_grads(params, rows)
        sparse.embedding.E[:] = dense.embedding.E[rows]
        sparse.flat[sparse.embedding.E.size:] = dense.flat[params.embedding.E.size:]
        # moments that a zero gradient term must leave as they are, -0.0 included
        moments = np.abs(rng.normal(size=(2, size)))
        moments[0] *= rng.choice([-1.0, 1.0], size=size)
        moments[0, ::5] = -0.0
        results = []
        for grads in (dense, sparse):
            got, state = params.clone(), AdamState(*moments.copy(), t=2)
            for _ in range(3):
                adam_step(state, got, grads, TrainConfig(learning_rate=0.01))
            results.append([got.flat.tobytes(), state.m.tobytes(), state.v.tobytes()])
        assert results[0] == results[1]

    def test_moments_of_the_wrong_length_rejected_before_any_write(self):
        params = init_model_params(vocab_size=4000, embedding_dim=16, gru_units=4,
                                   lstm_units=4, seed=1)
        assert params.flat.size > training._ADAM_CHUNK
        grads = params.like(np.full_like(params.flat, 0.5))
        before = params.flat.copy()
        for short in ("m", "v"):
            state = AdamState.for_params(params)
            setattr(state, short, getattr(state, short)[:-3])
            with pytest.raises(ValueError, match=f"Adam's {short} has shape"):
                adam_step(state, params, grads, TrainConfig())
            assert state.t == 0
            assert not state.m.any() and not state.v.any()
            npt.assert_array_equal(params.flat, before)

    @pytest.mark.parametrize("rows", [[1, 2, 3], [0, 3, 2], [0, 2, 2], [0, 2, 6], [-1, 0, 2]])
    def test_bad_gradient_rows_rejected_before_any_write(self, rows):
        params = tiny_model()
        state = AdamState.for_params(params)
        grads = zero_grads(params, [0, 2, 3])
        grads.flat[:] = 0.5
        grads.rows = np.array(rows)
        before = params.flat.copy()
        with pytest.raises(ValueError, match="gradient rows must be sorted"):
            adam_step(state, params, grads, TrainConfig())
        with pytest.raises(ValueError, match="gradient rows must be sorted"):
            zero_grads(params, rows)
        assert state.t == 0 and not state.m.any() and not state.v.any()
        npt.assert_array_equal(params.flat, before)

    def test_rows_that_do_not_match_the_embedding_block_rejected(self):
        params = tiny_model()
        state = AdamState.for_params(params)
        grads = zero_grads(params, [0, 2, 3])
        grads.rows = np.array([0, 2, 3, 4])  # one row more than E holds
        with pytest.raises(ValueError, match="does not match"):
            adam_step(state, params, grads, TrainConfig())
        assert state.t == 0


class TestMakeBatches:
    def data(self, n):
        return [(TokenSequence(np.array([2])), i % 2) for i in range(n)]

    def test_sizes(self):
        batches = make_batches(self.data(10), 4, seed=0, epoch=1)
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_deterministic(self):
        data = [(TokenSequence(np.array([2])), i) for i in range(20)]
        a = make_batches(data, 6, seed=9, epoch=3)
        b = make_batches(data, 6, seed=9, epoch=3)
        assert [[x[1] for x in batch] for batch in a] == [[x[1] for x in batch] for batch in b]

    def test_epochs_permute_differently(self):
        data = [(TokenSequence(np.array([2])), i) for i in range(100)]
        order1 = [x[1] for b in make_batches(data, 10, seed=4, epoch=1) for x in b]
        order2 = [x[1] for b in make_batches(data, 10, seed=4, epoch=2) for x in b]
        assert order1 != order2
        assert sorted(order1) == sorted(order2) == list(range(100))

    @pytest.mark.parametrize("seed, epoch, want", [
        (1, 1, [[4, 6, 2, 7], [3, 5, 9, 0], [8, 1]]),
        (3, 2, [[8, 4, 7, 0], [1, 2, 5, 9], [6, 3]]),
    ])
    def test_epoch_order_pinned(self, seed, epoch, want):
        # a documented contract (checkpoints and histories rerun byte for
        # byte); seed ^ epoch and seed + epoch differ at both pairs
        data = [(TokenSequence(np.array([2])), i) for i in range(10)]
        batches = make_batches(data, 4, seed=seed, epoch=epoch)
        assert [[x[1] for x in batch] for batch in batches] == want

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_batches([], 4, seed=0, epoch=0)

    def test_batch_size_below_one_rejected(self):
        with pytest.raises(ValueError, match="batch_size must be >= 1, got 0"):
            make_batches(self.data(3), 0, seed=0, epoch=0)


def test_evaluate_loss_of_no_example_rejected():
    with pytest.raises(ValueError, match="evaluate_loss needs a non-empty dataset"):
        evaluate_loss(tiny_model(seed=1), [])


class TestTrainEpoch:
    def test_zero_learning_rate_freezes_params(self):
        # validate() forbids lr=0 in fit, but train_epoch itself must honor it
        params = tiny_model(seed=1)
        before = {n: a.copy() for n, a in params.named_arrays()}
        config = TrainConfig(learning_rate=0.0, dropout_rate=0.0, seed=0)
        data = [(TokenSequence(np.array([2, 3])), 1), (TokenSequence(np.array([4])), 0)]
        batches = make_batches(data, 2, seed=0, epoch=1)
        _, _, (loss, acc) = train_epoch(params, AdamState.for_params(params),
                                        batches, config, epoch=1)
        assert loss > 0.0
        for name, arr in params.named_arrays():
            npt.assert_array_equal(arr, before[name])

    def test_batch_of_one_matches_per_example_gradient(self):
        params = tiny_model(seed=2)
        config = TrainConfig(dropout_rate=0.0, seed=5)
        seq, label = TokenSequence(np.array([2, 4, 3])), 1

        manual = params.clone()
        yhat, cache = model_forward(manual, seq, mode="train", dropout_rate=0.0,
                                    seed=_example_seed(config.seed, 1, 0))
        grads = model_backward(manual, cache, bce_grad(label, yhat))
        adam_step(AdamState.for_params(manual), manual, grads, config)

        trained, _, _ = train_epoch(params, AdamState.for_params(params),
                                    [[(seq, label)]], config, epoch=1)
        for (name, a), (_, b) in zip(trained.named_arrays(), manual.named_arrays()):
            npt.assert_array_equal(a, b, err_msg=name)

    def test_no_batch_keeps_the_last_ones_gradient_alive(self):
        # a model of about 8 MB, nearly all embedding, on reviews of 5 tokens,
        # so the parameter-length vectors set the peak
        params = init_model_params(vocab_size=16000, embedding_dim=64, gru_units=2,
                                   lstm_units=2, seed=1)
        config = TrainConfig(dropout_rate=0.2, seed=1)
        rng = np.random.default_rng(0)
        data = [(TokenSequence(rng.integers(1, 16000, size=5)), i % 2) for i in range(6)]

        def epoch_peak(batches):
            with traced_peak() as peak:
                train_epoch(params, AdamState.for_params(params), batches, config, epoch=1)
            return peak.bytes

        one = epoch_peak([data[:2]])
        three = epoch_peak([data[:2], data[2:4], data[4:]])
        # Adam's m and v and the epoch's gradient vector; no batch keeps the
        # last one's gradients alive
        assert three < 1.05 * one
        assert three < 3.2 * params.flat.nbytes

    @pytest.mark.parametrize("stack", sorted(STACKS))
    @pytest.mark.parametrize("chunk", [6, training._ADAM_CHUNK])
    def test_row_gradients_match_the_dense_reference_bit_for_bit(self, stack, chunk,
                                                                monkeypatch):
        # sub-batches of at most 6 tokens; 6-element Adam chunks hold two
        # embedding rows, so a batch has all, some or none of a chunk's rows
        monkeypatch.setattr(layers, "ROW_BUDGET", 6)
        monkeypatch.setattr(training, "_ADAM_CHUNK", chunk)
        seq = lambda *ix: TokenSequence(np.array(ix, dtype=np.int64))
        batches = [
            # a PAD index inside a sequence and an all-PAD example
            [(seq(2, 0, 5), 1), (seq(), 0), (seq(3, 9, 9, 4, 2, 7, 3), 0), (seq(6), 1)],
            # every row of the vocabulary
            [(seq(*range(1, 7)), 1), (seq(7, 8, 9, 10, 11), 0), (seq(0, 4), 1)],
            [(seq(5, 5, 5), 0), (seq(1), 1), (seq(9, 3, 11, 2, 2, 8, 6, 4), 0)],
        ]
        config = TrainConfig(dropout_rate=0.2, learning_rate=0.01, seed=3, stack=stack)
        params = init_model_params(12, 3, 4, 3, stack=stack, seed=2)
        want = params.clone()
        adam, want_adam = AdamState.for_params(params), AdamState.for_params(want)

        count = 0
        scored = []  # (label, train-mode probability) in epoch order
        for batch in batches:
            seeds = [_example_seed(config.seed, 1, count + j) for j in range(len(batch))]
            count += len(batch)
            grads = zero_grads(want)
            yhat = batch_gradients(want, batch, config.dropout_rate, seeds, grads)
            scored += zip((label for _, label in batch), yhat)
            grads.flat *= 1.0 / len(batch)
            adam_step(want_adam, want, grads, config)

        rows = []
        monkeypatch.setattr(training, "zero_grads",
                            lambda p, r: rows.append(r.tolist()) or zero_grads(p, r))
        _, _, (loss, accuracy) = train_epoch(params, adam, batches, config, epoch=1)
        # the epoch's loss is one left-to-right sum over its examples, not a
        # sum of per-batch sums
        total = 0.0
        for label, p in scored:
            total += bce_loss(label, p)
        assert loss == total / count
        assert accuracy == sum(int(p >= 0.5) == label for label, p in scored) / count
        assert rows == [[0, 2, 3, 4, 5, 6, 7, 9], list(range(12)),
                        [0, 1, 2, 3, 4, 5, 6, 8, 9, 11]]
        for got, ref in ((params.flat, want.flat), (adam.m, want_adam.m),
                         (adam.v, want_adam.v)):
            assert got.tobytes() == ref.tobytes()
        assert adam.t == want_adam.t == 3

    def test_an_epoch_allocates_under_a_quarter_of_a_parameter_vector(self):
        # a 50,000-row embedding, nearly all of the model, on 4 short reviews:
        # the gradient holds only the rows they read
        params = init_model_params(vocab_size=50_000, embedding_dim=16, gru_units=2,
                                   lstm_units=2, seed=1)
        adam = AdamState.for_params(params)
        config = TrainConfig(dropout_rate=0.2, seed=1)
        rng = np.random.default_rng(0)
        data = [(TokenSequence(rng.integers(1, 50_000, size=6)), i % 2) for i in range(4)]
        with traced_peak() as peak:
            train_epoch(params, adam, [data[:2], data[2:]], config, epoch=1)
        assert peak.bytes < params.flat.nbytes / 4

    def test_loss_decreases_on_separable_corpus(self):
        # 20 reviews fully determined by one keyword
        vocab = Vocabulary.from_content_tokens(["good", "bad", "film"])
        data = []
        for i in range(10):
            for word, label in (("good", 1), ("bad", 0)):
                indices = np.array([vocab.token_to_index[word], vocab.token_to_index["film"]])
                data.append((TokenSequence(indices), label))
        config = TrainConfig(embedding_dim=6, gru_units=4, lstm_units=3,
                             dropout_rate=0.0, batch_size=4, learning_rate=0.01,
                             vocab_size=vocab.size, seed=3)
        params = init_model_params(vocab.size, 6, 4, 3, seed=3)
        adam = AdamState.for_params(params)
        losses = []
        for epoch in range(1, 6):
            batches = make_batches(data, config.batch_size, config.seed, epoch)
            params, adam, (loss, _) = train_epoch(params, adam, batches, config,
                                                  epoch=epoch)
            losses.append(loss)
        assert all(b < a for a, b in zip(losses, losses[1:])), losses


class TestFit:
    def test_forced_early_stop_returns_best_epoch(self):
        # train and validation share the text but disagree on the label, so
        # every training epoch strictly worsens validation loss
        seq = TokenSequence(np.array([2, 3]))
        train = [(seq, 1)]
        validation = [(seq, 0)]
        config = toy_config(max_epochs=10, patience=1, learning_rate=0.05,
                            vocab_size=6, embedding_dim=4, gru_units=3,
                            lstm_units=3, batch_size=1, seed=2)
        params, history = fit(config, train, validation)
        assert history.stop_reason == "early_stop"
        assert history.stop_epoch == 2
        assert len(history.records) == 2
        assert history.records[1].val_loss > history.records[0].val_loss
        # rollback: returned params reproduce the epoch-1 validation loss
        val_loss, _ = evaluate_loss(params, validation)
        assert val_loss == pytest.approx(history.records[0].val_loss, abs=1e-15)

    def test_an_improvement_under_min_delta_is_a_bad_epoch(self, monkeypatch):
        # scripted validation losses: epoch 3 improves on epoch 2 by less
        # than min_delta, so patience 1 runs out on it
        losses = iter([1.0, 0.9, 0.9 - 5e-5, 0.5])
        seen = []

        def scripted(params, data):
            seen.append(params.flat.copy())
            return next(losses), 0.5

        monkeypatch.setattr(training, "evaluate_loss", scripted)
        corpus = toy_corpus(24, seed=2)
        config = toy_config(max_epochs=4, patience=1, min_delta=1e-4, batch_size=8)
        encoded, _ = encode_toy(corpus, config)
        best, history = fit(config, encoded[:16], encoded[16:])
        assert history.stop_reason == "early_stop"
        assert history.stop_epoch == 3
        assert [r.val_loss for r in history.records] == [1.0, 0.9, 0.9 - 5e-5]
        assert len(seen) == 3 and (seen[1] != seen[2]).any()
        npt.assert_array_equal(best.flat, seen[1])  # epoch 2's parameters

    def test_given_params_end_at_the_last_epoch_and_the_result_at_the_best(self,
                                                                          monkeypatch):
        # scripted validation losses: epoch 2 does not improve on epoch 1
        losses = iter([0.5, 0.9])
        seen = []

        def scripted(params, data):
            seen.append(params.flat.copy())
            return next(losses), 0.5

        monkeypatch.setattr(training, "evaluate_loss", scripted)
        corpus = toy_corpus(24, seed=2)
        config = toy_config(max_epochs=2, patience=5, batch_size=8)
        encoded, _ = encode_toy(corpus, config)
        params = init_model_params(config.vocab_size, config.embedding_dim, config.gru_units,
                                   config.lstm_units, seed=config.seed)
        best, history = fit(config, encoded[:16], encoded[16:], params=params)
        assert history.stop_epoch == 2
        assert len(seen) == 2 and (seen[0] != seen[1]).any()
        npt.assert_array_equal(params.flat, seen[1])  # trained in place through epoch 2
        npt.assert_array_equal(best.flat, seen[0])  # epoch 1's parameters
        assert not np.shares_memory(best.flat, params.flat)

    def test_max_epochs_stop(self):
        corpus = toy_corpus(24, seed=0)
        config = toy_config(max_epochs=3, patience=10, batch_size=8)
        encoded, _ = encode_toy(corpus, config)
        _, history = fit(config, encoded[:16], encoded[16:])
        assert history.stop_reason == "max_epochs"
        assert history.stop_epoch == 3
        assert len(history.records) == 3

    def test_returned_params_match_best_val_loss(self):
        corpus = toy_corpus(40, seed=1)
        config = toy_config(max_epochs=6, patience=10, batch_size=8, seed=4)
        encoded, _ = encode_toy(corpus, config)
        params, history = fit(config, encoded[:30], encoded[30:])
        best = min(r.val_loss for r in history.records)
        val_loss, _ = evaluate_loss(params, encoded[30:])
        assert val_loss == pytest.approx(best, abs=1e-12)

    def test_one_epoch_returns_the_trained_params(self):
        corpus = toy_corpus(24, seed=2)
        config = toy_config(max_epochs=1, batch_size=8)
        encoded, _ = encode_toy(corpus, config)
        params = init_model_params(config.vocab_size, config.embedding_dim, config.gru_units,
                                   config.lstm_units, seed=config.seed)
        initial = dict(params.clone().named_arrays())
        best, history = fit(config, encoded[:16], encoded[16:], params=params)
        assert history.stop_epoch == 1
        for (name, got), (_, trained) in zip(best.named_arrays(), params.named_arrays()):
            npt.assert_array_equal(got, trained, err_msg=name)
            assert got is not trained
        assert any((arr != initial[name]).any() for name, arr in params.named_arrays())

    def test_a_later_improving_epoch_copies_into_the_best_vector(self):
        # a model of about 1 MB, its embedding 2000 x 64 floats
        corpus = toy_corpus(24, seed=2)
        config = toy_config(vocab_size=2000, embedding_dim=64, gru_units=4, lstm_units=4,
                            batch_size=8)
        encoded, _ = encode_toy(corpus, config)

        def traced_fit(max_epochs):
            """fit's whole peak, and its growth after the last epoch's record."""
            params = init_model_params(config.vocab_size, config.embedding_dim,
                                       config.gru_units, config.lstm_units, seed=config.seed)
            peaks, base = [], []

            def on_epoch(record):
                current, peak = traced.reset()
                peaks.append(peak)
                base.append(current)

            with traced_peak() as traced:
                best, history = fit(dataclasses.replace(config, max_epochs=max_epochs),
                                    encoded[:16], encoded[16:], params=params,
                                    on_epoch=on_epoch)
            peak = traced.bytes
            records = history.records
            assert len(records) == max_epochs
            assert all(b.val_loss < a.val_loss - config.min_delta
                       for a, b in zip(records, records[1:]))  # every epoch improves
            # the best epoch is the last; its copy is exact and owns its memory
            npt.assert_array_equal(best.flat, params.flat)
            assert not np.shares_memory(best.flat, params.flat)
            assert evaluate_loss(best, encoded[16:])[0] == records[-1].val_loss
            return max(peaks + [peak]), peak - base[-1], params.flat.nbytes

        peak_1, growth_1, copy = traced_fit(1)
        peak_2, growth_2, _ = traced_fit(2)
        assert copy > 10**6
        assert growth_1 >= copy  # the first improving epoch clones
        assert growth_2 < copy / 4  # a later one copies into that clone
        # epoch 2 holds the one best copy through its training, and no other
        assert peak_2 <= peak_1 + copy * 1.1

    def test_empty_sets_rejected(self):
        with pytest.raises(ValueError):
            fit(toy_config(), [], [(TokenSequence(np.array([2])), 1)])

    def test_dropout_zero_matches_disabled(self):
        # rate 0 draws no masks: train-mode forward is bit-identical to infer
        params = tiny_model(seed=6)
        seq = TokenSequence(np.array([2, 3, 4]))
        y_train, _ = model_forward(params, seq, mode="train", dropout_rate=0.0, seed=9)
        y_infer, _ = model_forward(params, seq, mode="infer")
        assert y_train == y_infer


class TestConfig:
    def test_defaults_match_documented_hyperparameters(self):
        config = TrainConfig()
        assert config.embedding_dim == 128
        assert config.gru_units == 256
        assert config.lstm_units == 128
        assert config.dropout_rate == 0.2
        assert config.batch_size == 128
        assert config.learning_rate == 0.001
        assert config.beta1 == 0.9
        assert config.beta2 == 0.999
        assert config.epsilon == 1e-7
        assert config.max_epochs == 100

    def test_validate_names_offending_key(self):
        with pytest.raises(ConfigError, match="dropout_rate"):
            TrainConfig(dropout_rate=1.5).validate()
        with pytest.raises(ConfigError, match="learning_rate"):
            TrainConfig(learning_rate=0.0).validate()
        with pytest.raises(ConfigError, match="stack"):
            TrainConfig(stack="cnn_lstm").validate()

    @pytest.mark.parametrize("key, value", [
        ("batch_size", 2.5), ("max_epochs", 1.5), ("embedding_dim", 2.0),
        ("patience", True), ("dropout_rate", False), ("seed", "1"),
        ("learning_rate", "0.1"), ("stack", None), ("max_len", None),
    ])
    def test_validate_rejects_a_value_of_the_wrong_type(self, key, value):
        # an int key takes no float and no key a bool, in fit as in a header
        with pytest.raises(ConfigError, match=key):
            TrainConfig(**{key: value}).validate()
        with pytest.raises(ConfigError, match=key):
            fit(TrainConfig(**{key: value}), [], [])

    def test_a_float_key_takes_an_int(self):
        TrainConfig(learning_rate=1, dropout_rate=0, min_delta=0).validate()


# sizes whose allocation would fail; only validate and the header parser see
# them, so nothing here tries to allocate
HOSTILE_SIZES = [
    ("max_len", {"max_len": MAX_LEN + 1}),
    ("max_len", {"max_len": 10**15}),
    ("max_len", {"max_len": 10**30}),
    ("vocab_size", {"vocab_size": 10**30}),
    ("vocab_size", {"vocab_size": MAX_PARAMETERS // 128}),
    ("gru_units", {"gru_units": 10**6}),
    ("embedding_dim", {"embedding_dim": 10**6, "stack": "lstm_only"}),
]


class TestSizeBounds:
    def test_stock_config_and_the_caps_themselves_pass(self):
        TrainConfig(max_len=MAX_LEN).validate()
        # the largest model the bound admits at the stock widths
        TrainConfig(vocab_size=(MAX_PARAMETERS - 10**6) // 128).validate()

    @pytest.mark.parametrize("key, sizes", HOSTILE_SIZES)
    def test_validate_rejects_and_names_the_key(self, key, sizes):
        with pytest.raises(ConfigError, match=key):
            TrainConfig(**sizes).validate()

    @pytest.mark.parametrize("key, sizes", HOSTILE_SIZES)
    def test_checkpoint_header_rejects_and_names_the_key(self, key, sizes):
        config = dataclasses.asdict(TrainConfig(vocab_size=6, max_len=8))
        config.update(sizes)
        header = {"stack": config["stack"], "config": config,
                  "vocab": ["<pad>", "<unk>", "a", "b", "c", "d"],
                  "stopwords": None, "whitelist": None}
        with pytest.raises(CheckpointError, match=key):
            _parse_header(json.dumps(header).encode("utf-8"), "hostile.ckpt")


@settings(max_examples=300, deadline=None)
@given(a=st.binary(max_size=64),
       b=st.one_of(st.binary(max_size=40), st.binary(min_size=1000, max_size=5000)))
@example(a=b"", b=b"")
@example(a=b"header", b=b"")
@example(a=b"header", b=bytes(range(256)) * 16 + b"odd")
def test_crc32_combine_gives_the_crc32_of_the_concatenation(a, b):
    # the checkpoint load folds each payload's crc32 into the file's with it
    assert _crc32_combine(zlib.crc32(a), zlib.crc32(b), len(b)) == zlib.crc32(a + b)


class TestCheckpoint:
    def make_artifacts(self, stack="hbgru_lstm"):
        vocab = Vocabulary.from_content_tokens(["good", "bad", "film", "plot"])
        config = toy_config(vocab_size=vocab.size, stack=stack)
        params = init_model_params(vocab.size, config.embedding_dim,
                                   config.gru_units, config.lstm_units,
                                   stack=stack, seed=7)
        return params, config, vocab

    def test_round_trip_bit_exact(self, tmp_path):
        params, config, vocab = self.make_artifacts()
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, config, vocab, path,
                        stopwords=frozenset({"the", "a"}), whitelist=frozenset({"not"}))
        ckpt = validate_checkpoint(load_checkpoint(path))
        for (name, a), (_, b) in zip(params.named_arrays(), ckpt.params.named_arrays()):
            npt.assert_array_equal(a, b, err_msg=name)
        assert ckpt.config == config
        assert ckpt.vocab.index_to_token == vocab.index_to_token
        assert ckpt.stopwords == {"the", "a"}
        assert ckpt.whitelist == {"not"}
        rng = np.random.default_rng(0)
        for _ in range(10):
            seq = TokenSequence(rng.integers(1, vocab.size, size=4))
            y1, _ = model_forward(params, seq)
            y2, _ = model_forward(ckpt.params, seq)
            assert y1 == y2

    def test_truncated_file_checksum_error(self, tmp_path):
        params, config, vocab = self.make_artifacts()
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, config, vocab, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match="checksum|truncated"):
            load_checkpoint(path)

    def test_flipped_byte_checksum_error(self, tmp_path):
        params, config, vocab = self.make_artifacts()
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, config, vocab, path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def saved(self, tmp_path):
        params, config, vocab = self.make_artifacts()
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, config, vocab, path)
        return params, path, path.read_bytes()

    @staticmethod
    def regions(doc):
        """(start, end) of each region of the documented layout; the tensor
        regions are the first tensor's."""
        size = struct.unpack_from("<I", doc, 8)[0]
        name_len = struct.unpack_from("<H", doc, 16 + size)[0]
        name = 18 + size
        rows, cols = struct.unpack_from("<II", doc, name + name_len)
        payload = name + name_len + 8
        end = payload + 8 * rows * max(cols, 1)
        return {"magic": (0, 4), "version": (4, 8), "header length": (8, 12),
                "header": (12, 12 + size), "tensor count": (12 + size, 16 + size),
                "tensor name": (name, name + name_len), "rows and cols": (name + name_len, payload),
                "payload": (payload, end), "payload crc": (end, end + 4),
                "file crc": (len(doc) - 4, len(doc))}

    def test_a_flipped_byte_in_any_region_fails_a_checksum(self, tmp_path):
        _, path, doc = self.saved(tmp_path)
        for region, (start, end) in self.regions(doc).items():
            data = bytearray(doc)
            data[(start + end) // 2] ^= 0x01
            path.write_bytes(bytes(data))
            with pytest.raises(CheckpointError, match="checksum"):
                load_checkpoint(path)

    def test_a_cut_at_any_region_boundary_fails(self, tmp_path):
        _, path, doc = self.saved(tmp_path)
        for start, end in self.regions(doc).values():
            for cut in (start, end - 1):
                path.write_bytes(doc[:cut])
                with pytest.raises(CheckpointError, match="checksum|truncated"):
                    load_checkpoint(path)

    def test_a_resealed_payload_flip_names_its_tensor(self, tmp_path, capsys):
        # the file crc matches, so only the payload's own crc finds the flip
        params, path, doc = self.saved(tmp_path)
        pos = 16 + struct.unpack_from("<I", doc, 8)[0]
        for name, arr in params.named_arrays():
            pos += 2 + len(name) + 8
            body = bytearray(doc[:-4])
            body[pos + arr.nbytes // 2] ^= 0x01
            path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
            message = re.escape(f"checksum failure in tensor {name}") + "$"
            with pytest.raises(CheckpointError, match=message):
                load_checkpoint(path)
            assert main(["predict", "--checkpoint", str(path), "--text", "good film"]) == 3
            assert re.search(message, capsys.readouterr().err.strip())
            pos += arr.nbytes + 4

    def test_stack_metadata_round_trip(self, tmp_path):
        for stack in ("hbgru_lstm", "gru_lstm", "lstm_only"):
            params, config, vocab = self.make_artifacts(stack)
            path = tmp_path / f"{stack}.ckpt"
            save_checkpoint(params, config, vocab, path)
            ckpt = load_checkpoint(path)
            assert ckpt.params.stack == stack
            assert ckpt.config.stack == stack

    def test_save_is_byte_deterministic(self, tmp_path):
        params, config, vocab = self.make_artifacts()
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(params, config, vocab, a)
        save_checkpoint(params, config, vocab, b)
        assert a.read_bytes() == b.read_bytes()

    def test_file_follows_the_documented_layout(self, tmp_path):
        # the layout of the module docstring, written here part by part
        params, config, vocab = self.make_artifacts()
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, config, vocab, path, whitelist=frozenset({"not"}))
        header = json.dumps({"stack": params.stack, "config": dataclasses.asdict(config),
                             "vocab": list(vocab.index_to_token), "stopwords": None,
                             "whitelist": ["not"]}, sort_keys=True).encode("utf-8")
        tensors = list(params.named_arrays())
        body = b"OMCK" + struct.pack("<II", 1, len(header)) + header
        body += struct.pack("<I", len(tensors))
        for name, arr in tensors:
            payload = arr.astype("<f8").tobytes()
            rows, cols = arr.shape if arr.ndim == 2 else (len(arr), 0)
            name_b = name.encode("utf-8")
            body += (struct.pack("<H", len(name_b)) + name_b + struct.pack("<II", rows, cols)
                     + payload + struct.pack("<I", zlib.crc32(payload)))
        assert path.read_bytes() == body + struct.pack("<I", zlib.crc32(body))

    @staticmethod
    def full_size_params():
        config = TrainConfig()
        vocab = Vocabulary.from_content_tokens([f"w{i}" for i in range(config.vocab_size - 2)])
        params = init_model_params(vocab.size, config.embedding_dim, config.gru_units,
                                   config.lstm_units, seed=3)
        return params, config, vocab

    def test_full_size_save_writes_from_the_arrays(self, tmp_path):
        params, config, vocab = self.full_size_params()
        path = tmp_path / "full.ckpt"
        with traced_peak() as peak:
            save_checkpoint(params, config, vocab, path)
        assert path.stat().st_size > 25e6
        assert peak.bytes < 0.1 * path.stat().st_size

    def test_full_size_load_copies_only_into_the_parameter_vector(self, tmp_path):
        params, config, vocab = self.full_size_params()
        path = tmp_path / "full.ckpt"
        save_checkpoint(params, config, vocab, path)
        with traced_peak() as peak:
            ckpt = load_checkpoint(path)
        # the parameter vector, the header's lists and one 1 MiB read buffer
        assert peak.bytes < params.flat.nbytes + 4 * 2**20
        npt.assert_array_equal(ckpt.params.flat, params.flat)

    def test_full_size_validate_builds_no_parameter_length_mask(self):
        params, config, vocab = self.full_size_params()
        ckpt = Checkpoint(params, config, vocab, None, None)
        with traced_peak() as peak:
            validate_checkpoint(ckpt)
        # a mask of one bool a parameter would take 3.3 MiB
        assert peak.bytes < 2**20

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("row, name", [(1, "embedding.E"), (-1, "dense.b")])
    def test_a_non_finite_tensor_is_named(self, monkeypatch, value, row, name):
        # chunks of 7 elements: the first and the last tensor lie in different chunks
        monkeypatch.setattr(training, "_ADAM_CHUNK", 7)
        params, config, vocab = self.make_artifacts()
        dict(params.named_arrays())[name].reshape(-1)[row] = value
        with pytest.raises(CheckpointError, match=f"tensor {name} holds a non-finite value"):
            validate_checkpoint(Checkpoint(params, config, vocab, None, None))
        with pytest.raises(ConfigError, match=f"epoch 3: tensor {name} is not finite"):
            training._check_finite(3, params, 0.5, 0.5)

    @pytest.mark.parametrize("fault", ["nan_weight", "other_stack"])
    @pytest.mark.parametrize("file_crc", ["sealed", "broken"])
    def test_load_alone_checks_the_stack_and_the_values(self, tmp_path, fault, file_crc):
        params, config, vocab = self.make_artifacts()
        if fault == "nan_weight":
            dict(params.named_arrays())["lstm.W_f"][0, 0] = np.nan
            error, message = CheckpointError, "tensor lstm.W_f holds a non-finite value"
        else:  # the tensors are gru_lstm's, which load; the config says hbgru_lstm
            params, _, _ = self.make_artifacts("gru_lstm")
            error, message = training.ModelMismatchError, (
                "checkpoint stack 'gru_lstm' does not match config stack 'hbgru_lstm'")
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, config, vocab, path)
        if file_crc == "broken":  # a whole-file checksum failure wins
            data = bytearray(path.read_bytes())
            data[-1] ^= 0x01
            path.write_bytes(bytes(data))
            error, message = CheckpointError, f"{path}: whole-file checksum failure"
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            load_checkpoint(path)

    def test_a_tensor_of_rank_3_is_not_saved(self, tmp_path):
        # save_checkpoint reads only `stack` and `named_arrays` of its params
        params, config, vocab = self.make_artifacts()
        arrays = dict(params.named_arrays())
        arrays["lstm.W_f"] = np.zeros((2, 2, 2))
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValueError, match="tensor lstm.W_f has unsupported rank 3"):
            save_checkpoint(SimpleNamespace(stack="hbgru_lstm", named_arrays=arrays.items),
                            config, vocab, path)
        assert not path.exists()

    @pytest.mark.parametrize("output, writes",
                             [("model.ckpt", 0), ("model.ckpt", 1), ("model.ckpt", 4),
                              ("report.txt", 0)])
    def test_a_failed_write_leaves_the_previous_file_whole(self, tmp_path, monkeypatch,
                                                           output, writes):
        params, config, vocab = self.make_artifacts()
        path = tmp_path / output
        if output == "model.ckpt":
            save_checkpoint(params, config, vocab, path)
            params.flat += 1.0
            write = lambda: save_checkpoint(params, config, vocab, path)
        else:
            _write_text(path, "n = 1\n")
            write = lambda: _write_text(path, "n = 2\n")
        before = path.read_bytes()

        class FailingFile:
            """A file whose write raises OSError after `writes` calls."""

            def __init__(self, fh):
                self.fh, self.left = fh, writes

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                if not self.left:
                    raise OSError(28, "No space left on device")
                self.left -= 1
                return self.fh.write(data)

        monkeypatch.setattr(training, "open", lambda *a: FailingFile(open(*a)), raising=False)
        with pytest.raises(DataError, match=f"cannot write {re.escape(str(path))}: "
                                            f".*No space left"):
            write()
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == [output]  # no temporary file is left

    def test_a_full_size_load_reads_each_byte_once(self, tmp_path, monkeypatch):
        params, config, vocab = self.full_size_params()
        path = tmp_path / "full.ckpt"
        save_checkpoint(params, config, vocab, path)
        sizes = []

        class CountingFile:
            """A file that records how many bytes each read returns."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def seek(self, *args):
                return self.fh.seek(*args)

            def read(self, n):
                out = self.fh.read(n)
                sizes.append(len(out))
                return out

            def readinto(self, buffer):
                sizes.append(self.fh.readinto(buffer))
                return sizes[-1]

        monkeypatch.setattr(training, "open", lambda *a: CountingFile(open(*a)), raising=False)
        ckpt = load_checkpoint(path)
        assert sum(sizes) == path.stat().st_size
        npt.assert_array_equal(ckpt.params.flat, params.flat)

    def test_the_first_fault_in_file_order_is_named(self, tmp_path, capsys):
        # a resealed file with a wrong name in tensor 3 that is also cut short
        params, path, doc = self.saved(tmp_path)
        tensors = list(params.named_arrays())
        name = tensors[3][0]
        pos = 16 + struct.unpack_from("<I", doc, 8)[0] + sum(
            2 + len(n) + 8 + arr.nbytes + 4 for n, arr in tensors[:3])
        body = bytearray(doc[:pos + 2 + len(name) + 8 + 8])  # cut after one float
        body[pos + 2] ^= 0x20  # the first letter of the name changes case
        path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
        bad = str(body[pos + 2:pos + 2 + len(name)], "utf-8")
        message = f"tensor 3 is {bad!r} but stack 'hbgru_lstm' stores {name!r} there"
        with pytest.raises(training.ModelMismatchError, match=re.escape(message)):
            load_checkpoint(path)
        assert main(["predict", "--checkpoint", str(path), "--text", "good film"]) == 4
        assert message in capsys.readouterr().err

    @settings(max_examples=200, deadline=None)
    @given(stack=st.sampled_from(sorted(STACKS)),
           runs=st.lists(st.tuples(st.sampled_from(["overwrite", "insert", "delete"]),
                                   st.integers(0, 1 << 16), st.binary(min_size=1, max_size=4)),
                         min_size=1, max_size=4))
    def test_an_unsealed_edit_fails_the_whole_file_checksum(self, stack, runs):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.ckpt")
            save_checkpoint(*self.make_artifacts(stack), path)
            with open(path, "rb") as fh:
                doc = fh.read()
            data = bytearray(doc)
            for kind, pos, chunk in runs:
                pos %= len(data) + 1
                end = pos + (0 if kind == "insert" else len(chunk))
                data[pos:end] = b"" if kind == "delete" else chunk
            assume(data != doc)
            with open(path, "wb") as fh:
                fh.write(data)
            with pytest.raises(CheckpointError,
                               match="whole-file checksum failure|file too short"):
                load_checkpoint(path)

    def test_a_big_endian_host_swaps_after_the_checksums(self, tmp_path, monkeypatch):
        # the file holds little-endian floats, and every crc32 is of those bytes
        params, path, _ = self.saved(tmp_path)
        monkeypatch.setattr(sys, "byteorder", "big")
        ckpt = load_checkpoint(path)
        assert ckpt.params.flat.tobytes() == params.flat.byteswap().tobytes()

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"definitely not a checkpoint, nope")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def test_full_determinism_same_history():
    corpus = toy_corpus(30, seed=9)
    config = toy_config(max_epochs=3, batch_size=8, dropout_rate=0.2, seed=12)
    encoded, _ = encode_toy(corpus, config)
    p1, h1 = fit(config, encoded[:22], encoded[22:])
    p2, h2 = fit(config, encoded[:22], encoded[22:])
    assert h1 == h2
    for (name, a), (_, b) in zip(p1.named_arrays(), p2.named_arrays()):
        npt.assert_array_equal(a, b, err_msg=name)
