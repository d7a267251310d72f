"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Stated runtime budgets are asserted, not advisory.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import _reference as ref
from _toy import toy_reviews
from opinionminer.cli import main
from opinionminer.evaluation import (
    ConfusionCounts,
    chi_square_test,
    classification_report,
    evaluate_model,
)
from opinionminer.layers import init_model_params, model_backward, model_forward
from opinionminer.text_pipeline import (
    LabeledCorpus,
    Review,
    TokenSequence,
    balance_classes,
    build_vocabulary,
    encode_corpus,
    stratified_split,
)
from opinionminer.training import TrainConfig, bce_grad, bce_loss, fit

BENCHMARK_COUNTS = [
    [5568, 4962, 677, 232],   # LSTM
    [5710, 4722, 769, 238],   # CNN+LSTM
    [5336, 5244, 395, 464],   # GRU+LSTM
    [5573, 5352, 282, 232],   # HBGRU-LSTM
]


def report_pass(criterion, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: PASS{suffix}")


# -----------------------------------------------------------------------
# Criterion 1: analytic gradients match central finite differences within
# 1e-4 relative error for every parameter block, >= 5 seeds, < 10 s.
# -----------------------------------------------------------------------

def test_criterion_1_gradient_correctness():
    start = time.time()
    eps = 1e-5
    worst = 0.0
    for seed in range(5):
        params = init_model_params(vocab_size=20, embedding_dim=4, gru_units=3,
                                   lstm_units=2, stack="hbgru_lstm", seed=seed)
        rng = np.random.default_rng(100 + seed)
        seq = TokenSequence(rng.integers(1, 20, size=5))
        label = int(rng.integers(0, 2))

        def loss():
            yhat, _ = model_forward(params, seq, mode="train",
                                    dropout_rate=0.0, seed=0)
            return bce_loss(label, yhat)

        yhat, cache = model_forward(params, seq, mode="train",
                                    dropout_rate=0.0, seed=0)
        analytic = dict(model_backward(params, cache, bce_grad(label, yhat)).named_arrays())
        for name, arr in params.named_arrays():
            flat = arr.reshape(-1)
            a_flat = analytic[name].reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + eps
                plus = loss()
                flat[j] = orig - eps
                minus = loss()
                flat[j] = orig
                fd = (plus - minus) / (2.0 * eps)
                denom = max(abs(a_flat[j]), abs(fd), 1e-8)
                rel = abs(a_flat[j] - fd) / denom
                assert rel < 1e-4, f"seed {seed} {name}[{j}]: rel error {rel:.2e}"
                worst = max(worst, rel)
    elapsed = time.time() - start
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"
    report_pass(1, f"max rel error {worst:.2e}, {elapsed:.1f}s")


# -----------------------------------------------------------------------
# Criterion 2: chi-square over the benchmark 4x4 contingency table
# reproduces the reference statistic 495.60 within +/- 0.5, df = 9, < 1 s.
# -----------------------------------------------------------------------

def test_criterion_2_chi_square_reproduction():
    start = time.time()
    result = chi_square_test(BENCHMARK_COUNTS)
    assert abs(result.statistic - 495.60) <= 0.5, result.statistic
    assert result.degrees_of_freedom == 9
    elapsed = time.time() - start
    assert elapsed < 1.0
    report_pass(2, f"statistic {result.statistic:.4f}, df 9")


# -----------------------------------------------------------------------
# Criterion 3: metrics derived from the benchmark HBGRU-LSTM confusion row,
# plus the documented LSTM-row inconsistency asserted as derived values.
# -----------------------------------------------------------------------

def test_criterion_3_table_metrics():
    report = classification_report(ConfusionCounts(5573, 5352, 282, 232),
                                   mean_test_loss=0.133)
    assert report.accuracy == pytest.approx(0.9551, abs=1e-4)
    assert report.recall_pos == pytest.approx(0.9600, abs=1e-4)
    assert report.recall_neg == pytest.approx(0.9500, abs=1e-4)
    # the LSTM row's counts put its accuracy at 92.05%, not the separately
    # reported 93.06%; the count-derived value is the assertable one
    lstm = classification_report(ConfusionCounts(5568, 4962, 677, 232), 0.1852)
    assert lstm.accuracy == pytest.approx(0.9205, abs=1e-4)
    assert lstm.accuracy != pytest.approx(0.9306, abs=1e-3)
    report_pass(3, f"hbgru accuracy {report.accuracy:.4f}, "
                   f"recalls {report.recall_pos:.4f}/{report.recall_neg:.4f}")


# -----------------------------------------------------------------------
# Criterion 4: model_forward matches an independently written straight-line
# evaluation of the stack (tests/_reference.py) to 1e-12 absolute for 10
# seeded tiny models.
# -----------------------------------------------------------------------

def test_criterion_4_forward_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for seed in range(10):
        params = init_model_params(vocab_size=12, embedding_dim=3, gru_units=3,
                                   lstm_units=2, stack="hbgru_lstm", seed=seed)
        idx = rng.integers(1, 12, size=4)
        yhat, _ = model_forward(params, TokenSequence(idx), mode="infer")
        diff = abs(yhat - ref.model_forward(params, idx))
        assert diff < 1e-12, f"seed {seed}: |diff| = {diff:.2e}"
        worst = max(worst, diff)
    report_pass(4, f"max |diff| {worst:.2e} over 10 models")


# -----------------------------------------------------------------------
# Criterion 5: 200-review keyword corpus converges to >= 99% train and test
# accuracy within 30 epochs; epoch-5 training loss below epoch-1; < 60 s.
# -----------------------------------------------------------------------

def test_criterion_5_toy_convergence():
    start = time.time()
    corpus = LabeledCorpus.from_reviews(
        Review(t, y) for t, y in toy_reviews(200, seed=42))
    config = TrainConfig(embedding_dim=10, gru_units=6, lstm_units=6,
                         dropout_rate=0.0, batch_size=16, learning_rate=0.01,
                         max_epochs=30, patience=30, max_len=12, vocab_size=60,
                         test_fraction=0.3, validation_fraction=0.15, seed=1)
    train_corpus, test_corpus = stratified_split(corpus, config.test_fraction,
                                                 config.seed)
    vocab = build_vocabulary(train_corpus, config.vocab_size, config.min_freq)
    fit_train, fit_val = stratified_split(train_corpus,
                                          config.validation_fraction, config.seed)
    params, history = fit(
        config,
        encode_corpus(fit_train, vocab, config.max_len),
        encode_corpus(fit_val, vocab, config.max_len),
    )
    assert history.stop_epoch <= 30
    assert len(history.records) >= 5
    assert history.records[4].train_loss < history.records[0].train_loss
    train_report = evaluate_model(params, encode_corpus(train_corpus, vocab,
                                                        config.max_len))
    test_report = evaluate_model(params, encode_corpus(test_corpus, vocab,
                                                       config.max_len))
    assert train_report.accuracy >= 0.99, train_report.accuracy
    assert test_report.accuracy >= 0.99, test_report.accuracy
    elapsed = time.time() - start
    assert elapsed < 60.0, f"toy convergence took {elapsed:.1f}s"
    report_pass(5, f"train {train_report.accuracy:.3f}, test "
                   f"{test_report.accuracy:.3f}, {history.stop_epoch} epochs, "
                   f"{elapsed:.1f}s")


# -----------------------------------------------------------------------
# Criterion 6: 1,000 randomized forward passes keep every hidden entry
# |h| < 1 and every gate strictly inside (0, 1).
# -----------------------------------------------------------------------

def test_criterion_6_hidden_state_bounds():
    rng = np.random.default_rng(7)
    passes = 0
    for model_seed in range(100):
        params = init_model_params(vocab_size=15, embedding_dim=4, gru_units=4,
                                   lstm_units=3, stack="hbgru_lstm",
                                   seed=model_seed)
        scale = float(rng.uniform(0.5, 2.5))
        for _, arr in params.named_arrays():
            arr *= scale
        for _ in range(10):
            n = int(rng.integers(1, 9))
            seq = TokenSequence(rng.integers(1, 15, size=n))
            # train mode at rate 0 is the infer forward pass, gates kept
            _, cache = model_forward(params, seq, mode="train", dropout_rate=0.0)
            assert len(cache.grus) == 2
            for trace in cache.grus:
                assert np.all(np.abs(trace.h) < 1.0)
                z, r, _ = np.split(trace.gates, 3, axis=1)
                assert np.all((z > 0.0) & (z < 1.0))
                assert np.all((r > 0.0) & (r < 1.0))
            lt = cache.lstm
            assert np.all(np.abs(lt.h) < 1.0)
            for gate in np.split(lt.gates, 4, axis=1)[:3]:  # f, i and o
                assert np.all((gate > 0.0) & (gate < 1.0))
            passes += 1
    assert passes == 1000
    report_pass(6, "1000 forward passes within bounds")


# -----------------------------------------------------------------------
# Criterion 7: two train invocations with identical config/seed produce
# byte-identical checkpoints and reports.
# -----------------------------------------------------------------------

def test_criterion_7_train_determinism(tmp_path):
    data = tmp_path / "reviews.csv"
    with open(data, "w", encoding="utf-8") as fh:
        fh.write("text,label\n")
        for text, label in toy_reviews(60, seed=11):
            fh.write(f"{text},{label}\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "embedding_dim = 8\ngru_units = 4\nlstm_units = 3\nbatch_size = 8\n"
        "learning_rate = 0.01\nmax_epochs = 3\npatience = 3\nmax_len = 12\n"
        "vocab_size = 60\ntest_fraction = 0.3\nvalidation_fraction = 0.2\n"
        "dropout_rate = 0.2\nseed = 7\n", encoding="utf-8")
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(out), "--deterministic", "true"])
        assert code == 0
        outs.append(out)
    for name in ("model.ckpt", "report.txt", "history.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    report_pass(7, "checkpoint, report and history bytes identical")


def test_criterion_7_train_determinism_across_processes(tmp_path):
    # a fresh interpreter for each run, with its own string hash seed: no
    # output may depend on set or dict order or on state left in the process
    data = tmp_path / "reviews.csv"
    with open(data, "w", encoding="utf-8") as fh:
        fh.write("text,label\n")
        for text, label in toy_reviews(60, seed=11):
            fh.write(f"{text},{label}\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "embedding_dim = 8\ngru_units = 4\nlstm_units = 3\nbatch_size = 8\n"
        "learning_rate = 0.01\nmax_epochs = 3\npatience = 3\nmax_len = 12\n"
        "vocab_size = 60\ntest_fraction = 0.3\nvalidation_fraction = 0.2\n"
        "dropout_rate = 0.2\nseed = 7\n", encoding="utf-8")
    src = Path(__file__).resolve().parents[1] / "src"
    outs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"run{hash_seed}"
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed,
                   OPENBLAS_NUM_THREADS="1")
        subprocess.run([sys.executable, "-m", "opinionminer.cli", "train", "--config", str(cfg),
                        "--data", str(data), "--out", str(out)],
                       env=env, capture_output=True, timeout=300, check=True)
        outs.append(out)
    for name in ("model.ckpt", "report.txt", "history.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    report_pass(7, "the same bytes from two processes with different hash seeds")


# -----------------------------------------------------------------------
# Criterion 8: balancing always equalizes counts; stratified splits keep
# per-class ratios within +/- 1 sample, across 100 randomized corpora.
# -----------------------------------------------------------------------

def test_criterion_8_balance_and_split_contracts():
    rng = np.random.default_rng(99)
    for trial in range(100):
        n_pos = int(rng.integers(2, 120))
        n_neg = int(rng.integers(2, 120))
        reviews = [Review(f"p{i}", 1) for i in range(n_pos)]
        reviews += [Review(f"n{i}", 0) for i in range(n_neg)]
        order = rng.permutation(len(reviews))
        corpus = LabeledCorpus.from_reviews(reviews[i] for i in order)

        balanced = balance_classes(corpus, seed=trial)
        assert balanced.positive_count == balanced.negative_count

        frac = float(rng.uniform(0.1, 0.9))
        train, test = stratified_split(corpus, frac, seed=trial)
        assert abs(test.positive_count - n_pos * frac) <= 1.0
        assert abs(test.negative_count - n_neg * frac) <= 1.0
        assert len(train) + len(test) == len(corpus)
    report_pass(8, "100 randomized corpora")


# -----------------------------------------------------------------------
# Criterion 9: the CLI runs the full 256/128-unit, batch-128 configuration
# on a 1,000-review subsample without error in under 15 minutes. (The 95%
# accuracy of the full ~56k-review setup is out of desk-scale reach; epochs
# are capped to keep this a smoke test of the full architecture.)
# -----------------------------------------------------------------------

def test_criterion_9_full_config_smoke(tmp_path):
    start = time.time()
    rng = np.random.default_rng(123)
    fillers = [f"word{i:03d}" for i in range(200)]
    data = tmp_path / "sample.csv"
    with open(data, "w", encoding="utf-8") as fh:
        fh.write("text,label\n")
        for i in range(1000):
            label = int(i % 2 == 0)
            length = int(rng.integers(20, 60))
            words = list(rng.choice(fillers, size=length))
            key = "superb" if label else "dreadful"
            words.insert(int(rng.integers(0, length + 1)), key)
            fh.write(f"{' '.join(words)},{label}\n")
    cfg = tmp_path / "full.cfg"
    cfg.write_text(
        # stock hyperparameters: 256 GRU units/direction, 128 LSTM units,
        # batch 128, lr 0.001, dropout 0.2; epochs capped for the smoke run
        "max_epochs = 2\npatience = 2\nseed = 5\n", encoding="utf-8")
    out = tmp_path / "run"
    code = main(["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(out)])
    assert code == 0
    assert (out / "model.ckpt").exists()
    assert (out / "report.txt").exists()
    code = main(["predict", "--checkpoint", str(out / "model.ckpt"),
                 "--text", "a superb evening"])
    assert code == 0
    elapsed = time.time() - start
    assert elapsed < 900.0, f"smoke run took {elapsed:.1f}s"
    report_pass(9, f"full configuration smoke in {elapsed:.1f}s")
