"""The batched engine against the batch-size-1 path it generalises.

Probabilities and summed gradients of the length-sorted sub-batches must
equal the sums of per-sequence `model_forward` / `model_backward` results
to 1e-12 relative to each tensor's largest entry, on every stack, with and
without dropout, over reviews of mixed, truncated and all-PAD lengths.
The scans step only the rows still inside their sequence, so they never
read or write a padding position's gates, and they refuse a batch that is
not post-padded and sorted shortest-first.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opinionminer import layers
from opinionminer.layers import (
    STACKS,
    forward_batch,
    gru_scan,
    init_model_params,
    lstm_scan,
    model_backward,
    model_forward,
    predict_proba,
    sub_batches,
)
from opinionminer.text_pipeline import TokenSequence, Vocabulary, encode_sequence
from opinionminer.training import batch_gradients, bce_grad

MAX_LEN = 9
VOCAB = Vocabulary.from_content_tokens([f"w{i}" for i in range(10)])
TOL = 1e-12


def encode(words, max_len=MAX_LEN):
    # unknown words map to UNK; reviews over max_len keep their last tokens
    return encode_sequence(" ".join(words), VOCAB, max_len)


review = st.lists(st.sampled_from([f"w{i}" for i in range(12)]), max_size=MAX_LEN + 4)
reviews = st.lists(st.tuples(review, st.integers(0, 1)), min_size=1, max_size=24)


def assert_close(got, want, name):
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= TOL * scale, name


def random_params(stack, seed):
    # nonzero biases: a zero-bias GRU stays at zero over PAD inputs, masked or not
    params = init_model_params(VOCAB.size, 3, 4, 3, stack=stack, seed=seed)
    rng = np.random.default_rng(seed)
    for _, arr in params.named_arrays():
        if arr.ndim == 1:
            arr += rng.normal(scale=0.5, size=arr.shape)
    return params


def check_against_batch_size_one(params, data, dropout_rate):
    seqs = [seq for seq, _ in data]
    seeds = list(range(100, 100 + len(data)))

    single = [model_forward(params, seq)[0] for seq in seqs]
    assert_close(predict_proba(params, seqs), np.array(single), "infer yhat")

    yhat, grads = batch_gradients(params, data, dropout_rate, seeds)
    want_yhat, want = [], {name: np.zeros_like(g) for name, g in grads.items()}
    for (seq, label), seed in zip(data, seeds):
        y, cache = model_forward(params, seq, mode="train", dropout_rate=dropout_rate,
                                 seed=seed)
        want_yhat.append(y)
        for name, g in model_backward(params, cache, bce_grad(label, y)).items():
            want[name] += g
    assert_close(yhat, np.array(want_yhat), "train yhat")
    for name in grads:
        assert_close(grads[name], want[name], name)


@pytest.mark.parametrize("dropout_rate", [0.0, 0.2])
@pytest.mark.parametrize("stack", sorted(STACKS))
@settings(max_examples=30, deadline=None)
@given(rows=reviews, budget=st.integers(1, 3 * MAX_LEN), seed=st.integers(0, 2**16))
def test_sub_batches_match_batch_size_one(stack, dropout_rate, rows, budget, seed):
    # a small row budget splits even a short list into several sub-batches
    params = random_params(stack, seed)
    data = [(encode(words), label) for words, label in rows]
    with mock.patch.object(layers, "ROW_BUDGET", budget):
        groups = sub_batches([seq for seq, _ in data])
        check_against_batch_size_one(params, data, dropout_rate)

    lengths = [seq.true_length for seq, _ in data]
    assert sorted(j for group in groups for j in group) == \
        [j for j, n in enumerate(lengths) if n > 0]
    for group in groups:
        assert [lengths[j] for j in group] == sorted(lengths[j] for j in group)
        assert len(group) == 1 or len(group) * lengths[group[-1]] <= budget


def test_groups_fill_from_the_longest():
    # the long tail shares time steps: 17 scan steps, where cutting from the
    # shortest up ([2] * 10, [5, 9], [10]) takes 21
    lengths = [9, 2, 2, 10, 2, 2, 5, 2, 2, 2, 2, 2, 2]
    seqs = [TokenSequence(np.ones(n, dtype=np.int64)) for n in lengths]
    with mock.patch.object(layers, "ROW_BUDGET", 20):
        groups = sub_batches(seqs)
    assert [[lengths[j] for j in group] for group in groups] == \
        [[2] * 7, [2, 2, 2, 5], [9, 10]]


def test_full_row_budget_spans_several_sub_batches():
    rng = np.random.default_rng(3)
    words = [f"w{i}" for i in range(10)]
    data = [(encode(list(rng.choice(words, size=n))), int(n % 2))
            for n in rng.integers(0, MAX_LEN + 4, size=300)]
    assert len(sub_batches([seq for seq, _ in data])) >= 2
    check_against_batch_size_one(random_params("hbgru_lstm", 1), data, 0.2)


def test_all_pad_batch_scores_half():
    params = init_model_params(VOCAB.size, 3, 4, 3, seed=0)
    empty = TokenSequence(np.zeros(0, dtype=np.int64))
    np.testing.assert_array_equal(predict_proba(params, [empty, empty]), [0.5, 0.5])
    yhat, grads = batch_gradients(params, [(empty, 1)], 0.2, [0])
    assert yhat.tolist() == [0.5]
    assert not any(g.any() for g in grads.values())


def padded_batch(rng, lengths, width, pad):
    """Time-major (T, B, width) inputs of post-padded rows, `pad` past each length."""
    mask = np.arange(max(lengths))[:, np.newaxis] < np.array(lengths)
    X = rng.normal(size=mask.shape + (width,))
    X[~mask] = pad
    return X, mask


def test_scans_never_touch_padding():
    params = random_params("hbgru_lstm", 5)
    lengths = [1, 2, 2, 4, 7, 7]
    scans = [(gru_scan, params.gru_fwd, 3, {}),
             (gru_scan, params.gru_bwd, 3, {"reverse": True}),
             (lstm_scan, params.lstm, 8, {})]
    for scan, p, width, kwargs in scans:
        X, mask = padded_batch(np.random.default_rng(9), lengths, width, 0.0)
        X_nan, _ = padded_batch(np.random.default_rng(9), lengths, width, np.nan)
        clean = scan(p, X, mask, **kwargs)
        dirty = scan(p, X_nan, mask, **kwargs)
        np.testing.assert_array_equal(dirty.h[mask], clean.h[mask])
        assert np.isfinite(dirty.h).all()
        gates = {name: g for name, g in vars(dirty).items() if name not in ("h", "c")}
        assert len(gates) == (3 if scan is gru_scan else 5)
        for name, g in gates.items():
            assert (g[~mask] == 0.0).all(), name
        # a padding position holds the carried state: the last real one, or
        # the zero state the reverse scan has not yet left
        for j, n in enumerate(lengths):
            carried = 0.0 if kwargs else dirty.h[n - 1, j]
            assert (dirty.h[n:, j] == carried).all()
            if scan is lstm_scan:
                assert (dirty.c[n:, j] == dirty.c[n - 1, j]).all()


def test_unsorted_batch_is_refused():
    params = random_params("hbgru_lstm", 2)
    longest_first = [encode(["w1", "w2", "w3"]), encode(["w4"])]
    with pytest.raises(ValueError, match="post-padded and sorted shortest-first"):
        forward_batch(params, longest_first)
    X = np.zeros((3, 2, 3))
    holed = np.array([[True, True], [False, True], [True, True]])
    descending = np.array([[True, True], [True, False], [True, False]])
    for mask in (holed, descending):
        for scan in (lambda: gru_scan(params.gru_fwd, X, mask),
                     lambda: gru_scan(params.gru_bwd, X, mask, reverse=True),
                     lambda: lstm_scan(params.lstm, np.zeros((3, 2, 8)), mask, trace=False)):
            with pytest.raises(ValueError, match="post-padded and sorted shortest-first"):
                scan()


@pytest.mark.parametrize("stack", sorted(STACKS))
def test_any_input_order_is_accepted(stack):
    # predict_proba and batch_gradients sort through sub_batches
    rng = np.random.default_rng(4)
    data = [(encode([f"w{i}" for i in rng.integers(0, 10, size=n)]), int(n % 2))
            for n in (9, 7, 7, 5, 3, 1, 0, 2)]
    assert [seq.true_length for seq, _ in data] != sorted(seq.true_length for seq, _ in data)
    params = random_params(stack, 4)
    check_against_batch_size_one(params, data, 0.2)
    seqs = [seq for seq, _ in data]
    order = rng.permutation(len(data))
    assert_close(predict_proba(params, [seqs[j] for j in order]),
                 predict_proba(params, seqs)[order], "shuffled yhat")
