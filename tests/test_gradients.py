"""Finite-difference verification of the analytic backward pass.

Every parameter entry of every block is perturbed with central differences
on the full loss (BCE of the train-mode forward, fixed dropout seed), so
the checks cover BPTT through both GRU directions, the reset-gate product,
the LSTM cell, both dropout sites and the embedding scatter.
"""

import numpy as np
import numpy.testing as npt
import pytest

from opinionminer.layers import init_model_params, model_backward, model_forward
from opinionminer.text_pipeline import TokenSequence
from opinionminer.training import bce_grad, bce_loss

EPS = 1e-5
TOL = 1e-4


def loss_of(params, seq, label, dropout_rate, seed):
    yhat, _ = model_forward(params, seq, mode="train",
                            dropout_rate=dropout_rate, seed=seed)
    return bce_loss(label, yhat)


def fd_gradients(params, seq, label, dropout_rate, seed):
    out = {}
    for name, arr in params.named_arrays():
        grad = np.zeros_like(arr)
        flat, gflat = arr.reshape(-1), grad.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + EPS
            plus = loss_of(params, seq, label, dropout_rate, seed)
            flat[j] = orig - EPS
            minus = loss_of(params, seq, label, dropout_rate, seed)
            flat[j] = orig
            gflat[j] = (plus - minus) / (2.0 * EPS)
        out[name] = grad
    return out


def analytic_gradients(params, seq, label, dropout_rate, seed):
    yhat, cache = model_forward(params, seq, mode="train",
                                dropout_rate=dropout_rate, seed=seed)
    return model_backward(params, cache, bce_grad(label, yhat))


def rel_error(a, b):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)


def check_all_blocks(params, seq, label, dropout_rate=0.0, seed=0):
    analytic = analytic_gradients(params, seq, label, dropout_rate, seed)
    numeric = fd_gradients(params, seq, label, dropout_rate, seed)
    for name in numeric:
        err = rel_error(analytic[name], numeric[name])
        # entries where both gradients vanish have rel_error 0 by the floor
        assert err.max() < TOL, f"{name}: max rel error {err.max():.2e}"


@pytest.mark.parametrize("stack", ["hbgru_lstm", "gru_lstm", "lstm_only"])
def test_all_blocks_match_finite_differences(stack):
    params = init_model_params(vocab_size=7, embedding_dim=2, gru_units=2,
                               lstm_units=2, stack=stack, seed=3)
    check_all_blocks(params, TokenSequence(np.array([2, 5, 3, 6])), label=1)


def test_gradcheck_with_dropout_masks():
    # fixed dropout seed keeps the masks constant across FD perturbations
    params = init_model_params(vocab_size=7, embedding_dim=2, gru_units=2,
                               lstm_units=2, seed=8)
    check_all_blocks(params, TokenSequence(np.array([4, 2, 6])), label=0, dropout_rate=0.3,
                     seed=21)


def test_gradcheck_repeated_token():
    # a repeated index exercises accumulation into one embedding row
    params = init_model_params(vocab_size=6, embedding_dim=3, gru_units=2,
                               lstm_units=2, seed=5)
    check_all_blocks(params, TokenSequence(np.array([2, 2, 2, 4])), label=1)


def test_zero_upstream_gradient_gives_zero():
    params = init_model_params(vocab_size=6, embedding_dim=2, gru_units=2,
                               lstm_units=2, seed=0)
    _, cache = model_forward(params, TokenSequence(np.array([2, 3])), mode="train",
                             dropout_rate=0.0, seed=0)
    grads = model_backward(params, cache, 0.0)
    for name, g in grads.items():
        npt.assert_array_equal(g, np.zeros_like(g), err_msg=name)


def test_dense_bias_closed_form():
    # dL/db = dL/dyhat * yhat * (1 - yhat), exactly
    params = init_model_params(vocab_size=6, embedding_dim=2, gru_units=2,
                               lstm_units=2, seed=2)
    yhat, cache = model_forward(params, TokenSequence(np.array([3, 4, 5])), mode="train",
                                dropout_rate=0.0, seed=0)
    for upstream in (1.0, -2.5, 0.3):
        grads = model_backward(params, cache, upstream)
        assert grads["dense.b"][0] == upstream * yhat * (1.0 - yhat)


def test_pad_row_gradient_forced_zero():
    params = init_model_params(vocab_size=6, embedding_dim=2, gru_units=2,
                               lstm_units=2, seed=2)
    yhat, cache = model_forward(params, TokenSequence(np.array([2, 3])), mode="train",
                                dropout_rate=0.0, seed=0)
    grads = model_backward(params, cache, bce_grad(1, yhat))
    npt.assert_array_equal(grads["embedding.E"][0], np.zeros(2))


def test_backward_rejects_infer_cache():
    params = init_model_params(vocab_size=6, embedding_dim=2, gru_units=2,
                               lstm_units=2, seed=2)
    _, cache = model_forward(params, TokenSequence(np.array([2, 3])), mode="infer")
    with pytest.raises(ValueError):
        model_backward(params, cache, 1.0)


def test_backward_rejects_mismatched_stack():
    params = init_model_params(vocab_size=6, embedding_dim=2, gru_units=2,
                               lstm_units=2, stack="hbgru_lstm", seed=2)
    other = init_model_params(vocab_size=6, embedding_dim=2, gru_units=2,
                              lstm_units=2, stack="lstm_only", seed=2)
    _, cache = model_forward(params, TokenSequence(np.array([2, 3])), mode="train")
    with pytest.raises(ValueError):
        model_backward(other, cache, 1.0)


def test_degenerate_cache_gives_zero_grads():
    params = init_model_params(vocab_size=6, embedding_dim=2, gru_units=2,
                               lstm_units=2, seed=2)
    yhat, cache = model_forward(params, TokenSequence(np.zeros(0, dtype=np.int64)), mode="train")
    assert yhat == 0.5
    grads = model_backward(params, cache, 3.0)
    assert all(not g.any() for g in grads.values())
