import dataclasses
import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from _toy import encode_toy, toy_config, toy_corpus
from opinionminer.layers import init_model_params, model_backward, model_forward
from opinionminer.text_pipeline import TokenSequence, Vocabulary
from opinionminer.training import (
    MAX_LEN,
    MAX_PARAMETERS,
    AdamState,
    CheckpointError,
    ConfigError,
    TrainConfig,
    adam_step,
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
from opinionminer.training import _example_seed, _parse_header


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


class TestAdam:
    def test_zero_gradient_is_noop(self):
        params = tiny_model()
        before = {n: a.copy() for n, a in params.named_arrays()}
        state = AdamState.for_params(params)
        grads = {n: np.zeros_like(a) for n, a in params.named_arrays()}
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
        grads = {n: np.full_like(a, g) for n, a in params.named_arrays()}
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
        grads = {n: np.full_like(a, 0.5) for n, a in params.named_arrays()}
        w = params.dense.W.copy()
        for _ in range(3):
            adam_step(state, params, grads, config)
            assert np.all(params.dense.W < w)
            w = params.dense.W.copy()

    def test_pad_row_never_updated(self):
        params = tiny_model()
        state = AdamState.for_params(params)
        grads = {n: np.ones_like(a) for n, a in params.named_arrays()}
        for _ in range(3):
            adam_step(state, params, grads, TrainConfig())
        npt.assert_array_equal(params.embedding.E[0], np.zeros(2))

    def test_shape_mismatch_rejected(self):
        params = tiny_model()
        state = AdamState.for_params(params)
        grads = {n: np.zeros_like(a) for n, a in params.named_arrays()}
        grads["dense.W"] = np.zeros((1, 5))
        with pytest.raises(ValueError):
            adam_step(state, params, grads, TrainConfig())


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

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_batches([], 4, seed=0, epoch=0)


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

    def test_loss_decreases_on_separable_corpus(self):
        # 20 reviews fully determined by one keyword
        vocab = Vocabulary.from_content_tokens(["good", "bad", "film"])
        data = []
        for i in range(10):
            for word, label in (("good", 1), ("bad", 0)):
                indices = np.array([vocab.index_of(word), vocab.index_of("film")])
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
