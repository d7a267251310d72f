"""Finite-difference verification of the analytic backward pass.

Every parameter entry of every block is perturbed with central differences
on the full loss (BCE of the train-mode forward, fixed dropout seed), so
the checks cover BPTT through both GRU directions, the reset-gate product,
the LSTM cell, both dropout sites and the embedding scatter. A Hypothesis
check does the same for the summed loss of a mini-batch through
`batch_gradients`, cut into several packed sub-batches.
"""

from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opinionminer import layers
from opinionminer.layers import (
    STACKS,
    init_model_params,
    model_backward,
    model_forward,
    zero_grads,
)
from opinionminer.text_pipeline import TokenSequence
from opinionminer.training import batch_gradients, bce_grad, bce_loss

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


def rel_error(a, b, floor=1e-8):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


def check_all_blocks(params, seq, label, dropout_rate=0.0, seed=0):
    analytic = dict(analytic_gradients(params, seq, label, dropout_rate, seed).named_arrays())
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
    for name, g in grads.named_arrays():
        npt.assert_array_equal(g, np.zeros_like(g), err_msg=name)


def test_dense_bias_closed_form():
    # dL/db = dL/dyhat * yhat * (1 - yhat), exactly
    params = init_model_params(vocab_size=6, embedding_dim=2, gru_units=2,
                               lstm_units=2, seed=2)
    for upstream in (1.0, -2.5, 0.3):  # a backward pass consumes its cache
        yhat, cache = model_forward(params, TokenSequence(np.array([3, 4, 5])), mode="train",
                                    dropout_rate=0.0, seed=0)
        grads = dict(model_backward(params, cache, upstream).named_arrays())
        assert grads["dense.b"][0] == upstream * yhat * (1.0 - yhat)


def test_pad_row_gradient_forced_zero():
    params = init_model_params(vocab_size=6, embedding_dim=2, gru_units=2,
                               lstm_units=2, seed=2)
    yhat, cache = model_forward(params, TokenSequence(np.array([2, 3])), mode="train",
                                dropout_rate=0.0, seed=0)
    grads = dict(model_backward(params, cache, bce_grad(1, yhat)).named_arrays())
    npt.assert_array_equal(grads["embedding.E"][0], np.zeros(2))


def test_backward_rejects_infer_cache():
    params = init_model_params(vocab_size=6, embedding_dim=2, gru_units=2,
                               lstm_units=2, seed=2)
    _, cache = model_forward(params, TokenSequence(np.array([2, 3])), mode="infer")
    with pytest.raises(ValueError):
        model_backward(params, cache, 1.0)


@pytest.mark.parametrize("stack", sorted(STACKS))
def test_backward_rejects_a_consumed_cache(stack):
    params = init_model_params(vocab_size=6, embedding_dim=2, gru_units=2,
                               lstm_units=2, stack=stack, seed=2)
    _, cache = model_forward(params, TokenSequence(np.array([2, 3, 4])), mode="train",
                             dropout_rate=0.3, seed=1)
    model_backward(params, cache, 1.0)
    assert cache.lstm is None and cache.lstm_in is None and cache.seq_mask is None
    assert cache.grus == ()
    with pytest.raises(ValueError, match="consumed cache"):
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
    assert all(not g.any() for _, g in grads.named_arrays())


review = st.lists(st.integers(0, 5), min_size=1, max_size=6)  # PAD (0) and repeats included


@settings(max_examples=20, deadline=None)
@given(stack=st.sampled_from(sorted(STACKS)), widths=st.tuples(*[st.integers(1, 3)] * 3),
       batch=st.lists(st.tuples(review, st.integers(0, 1)), min_size=1, max_size=4),
       dropout_rate=st.sampled_from([0.0, 0.3]), budget=st.integers(1, 8),
       seed=st.integers(0, 2**16))
def test_batch_gradients_match_finite_differences(stack, widths, batch, dropout_rate,
                                                  budget, seed):
    # the summed BCE of a mini-batch whose sub-batches split at a small row
    # budget; every call reuses one gradient buffer, so batch_gradients
    # must zero-fill it. Rounding a loss of a few units, the differences
    # carry about 1e-11 of noise, so entries under 1e-5 compare to 1e-9.
    params = init_model_params(6, *widths, stack=stack, seed=seed)
    params.flat += np.random.default_rng(seed).normal(scale=0.5, size=params.flat.size)
    params.embedding.E[0] = 0.0
    batch = [(TokenSequence(np.array(indices)), label) for indices, label in batch]
    seeds = [seed + j for j in range(len(batch))]
    grads = zero_grads(params)

    def loss():
        yhat = batch_gradients(params, batch, dropout_rate, seeds, grads)
        return sum(bce_loss(label, p) for (_, label), p in zip(batch, yhat))

    pad = params.embedding.dim  # the frozen PAD row leads flat
    numeric = np.zeros_like(params.flat)
    with mock.patch.object(layers, "ROW_BUDGET", budget):
        for j in range(pad, params.flat.size):
            orig = params.flat[j]
            params.flat[j] = orig + EPS
            plus = loss()
            params.flat[j] = orig - EPS
            minus = loss()
            params.flat[j] = orig
            numeric[j] = (plus - minus) / (2.0 * EPS)
        loss()
    assert not grads.flat[:pad].any()
    for (name, got), (_, want) in zip(grads.named_arrays(), params.like(numeric).named_arrays()):
        err = rel_error(got, want, floor=1e-5)
        assert err.max() < TOL, f"{name}: max rel error {err.max():.2e}"
