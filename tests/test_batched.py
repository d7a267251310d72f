"""The batched engine against the batch-size-1 path it generalises.

Probabilities and summed gradients of the length-sorted sub-batches must
equal the sums of per-sequence `model_forward` / `model_backward` results
to 1e-12 relative to each tensor's largest entry, on every stack, with and
without dropout, over reviews of mixed, truncated and all-PAD lengths.
A batch is packed: its per-token arrays hold the real tokens only, no
review's rows reach another's outputs, and a batch that is not sorted
shortest-first is refused.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opinionminer import layers
from opinionminer.layers import (
    STACKS,
    Packing,
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
        assert len(group) == 1 or sum(lengths[j] for j in group) <= budget


def test_groups_fill_from_the_longest():
    # the long tail shares time steps: 17 scan steps, where cutting from the
    # shortest up ([2] * 10, [5, 9], [10]) takes 21
    lengths = [9, 2, 2, 10, 2, 2, 5, 2, 2, 2, 2, 2, 2]
    seqs = [TokenSequence(np.ones(n, dtype=np.int64)) for n in lengths]
    with mock.patch.object(layers, "ROW_BUDGET", 20):
        groups = sub_batches(seqs)
    assert [[lengths[j] for j in group] for group in groups] == \
        [[2] * 3, [2] * 7 + [5], [9, 10]]


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


@pytest.mark.parametrize("stack", sorted(STACKS))
def test_per_token_arrays_hold_the_real_tokens_only(stack):
    lengths = [1, 3, 3, 8]
    seqs = [TokenSequence(np.arange(n) % 9 + 1) for n in lengths]
    cache = forward_batch(random_params(stack, 3), seqs, mode="train", dropout_rate=0.2,
                          seeds=[1, 2, 3, 4])
    arrays = {"index": cache.index, "x": cache.x, "lstm_in": cache.lstm_in}
    if cache.seq_mask is not None:
        arrays["seq_mask"] = cache.seq_mask
    for i, trace in enumerate(cache.grus + (cache.lstm,)):
        arrays.update((f"{i}.{name}", a) for name, a in vars(trace).items() if name != "h_last")
    for name, a in arrays.items():
        assert len(a) == sum(lengths), name  # a train-mode trace keeps every array
    assert cache.lstm.h_last.shape == (len(lengths), 3)
    # the rows are padded[mask] of the time-major padded batch
    padded = np.zeros((max(lengths), len(lengths)), dtype=np.int64)
    for j, seq in enumerate(seqs):
        padded[:len(seq.indices), j] = seq.indices
    np.testing.assert_array_equal(cache.index, padded[cache.packing.mask])


def test_sequences_are_isolated():
    # NaN in one review's rows reaches none of the other reviews' outputs
    params = random_params("hbgru_lstm", 5)
    lengths = [1, 2, 2, 4, 7, 7]
    packing = Packing(lengths)
    # packed rows of each review, from its position in the concatenation
    rows_of = np.split(np.argsort(packing.order), np.cumsum(lengths)[:-1])
    scans = [(gru_scan, params.gru_fwd, 3, {}),
             (gru_scan, params.gru_bwd, 3, {"reverse": True}),
             (lstm_scan, params.lstm, 8, {})]
    for scan, p, width, kwargs in scans:
        X = np.random.default_rng(9).normal(size=(sum(lengths), width))
        clean = scan(p, X, packing, **kwargs)
        for j, rows in enumerate(rows_of):
            X_nan = X.copy()
            X_nan[rows] = np.nan
            dirty = scan(p, X_nan, packing, **kwargs)
            others = np.delete(np.arange(len(X)), rows)
            np.testing.assert_array_equal(dirty.h[others], clean.h[others])
            assert np.isnan(dirty.h[rows]).all()
            if scan is lstm_scan:
                np.testing.assert_array_equal(np.delete(dirty.h_last, j, axis=0),
                                              np.delete(clean.h_last, j, axis=0))
    # and through the whole model: token 9's embedding is NaN
    params.embedding.E[9] = np.nan
    seqs = [TokenSequence(np.arange(n) % 8 + 1) for n in lengths]
    seeds = list(range(len(lengths)))
    clean = forward_batch(params, seqs, mode="train", dropout_rate=0.2, seeds=seeds).yhat
    for j, n in enumerate(lengths):
        dirty_seqs = list(seqs)
        dirty_seqs[j] = TokenSequence(np.full(n, 9))
        dirty = forward_batch(params, dirty_seqs, mode="train", dropout_rate=0.2,
                              seeds=seeds).yhat
        np.testing.assert_array_equal(np.delete(dirty, j), np.delete(clean, j))
        assert np.isnan(dirty[j])


def test_unsorted_batch_is_refused():
    params = random_params("hbgru_lstm", 2)
    longest_first = [encode(["w1", "w2", "w3"]), encode(["w4"])]
    with pytest.raises(ValueError, match="sorted shortest-first"):
        forward_batch(params, longest_first)
    for lengths in ([3, 1], [2, 3, 2]):
        with pytest.raises(ValueError, match="sorted shortest-first"):
            Packing(lengths)
    with pytest.raises(ValueError, match="at least one token"):
        Packing([0, 2])
    # inputs must hold one row per token of the packing
    packing = Packing([1, 3])
    for scan in (lambda: gru_scan(params.gru_fwd, np.zeros((3, 3)), packing),
                 lambda: gru_scan(params.gru_bwd, np.zeros((5, 3)), packing, reverse=True),
                 lambda: lstm_scan(params.lstm, np.zeros((3, 8)), packing, trace=False)):
        with pytest.raises(ValueError, match="input rows do not match"):
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
