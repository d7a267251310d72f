"""The batched engine against the batch-size-1 path it generalises.

Probabilities and summed gradients of the length-sorted sub-batches must
equal the sums of per-sequence `model_forward` / `model_backward` results
to 1e-12 relative to each tensor's largest entry, on every stack, with and
without dropout, over reviews of mixed, truncated and all-PAD lengths.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opinionminer import layers
from opinionminer.layers import (
    STACKS,
    init_model_params,
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
    return yhat, grads


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
        yhat, grads = check_against_batch_size_one(params, data, dropout_rate)

        # appending PAD changes no output
        padded = [(TokenSequence(np.concatenate([seq.indices, np.zeros(5, np.int64)]),
                                 seq.true_length), label) for seq, label in data]
        yhat_padded, grads_padded = batch_gradients(params, padded, dropout_rate,
                                                    list(range(100, 100 + len(data))))
    np.testing.assert_array_equal(yhat_padded, yhat)
    for name in grads:
        np.testing.assert_array_equal(grads_padded[name], grads[name], err_msg=name)

    lengths = [seq.true_length for seq, _ in data]
    assert sorted(j for group in groups for j in group) == \
        [j for j, n in enumerate(lengths) if n > 0]
    for group in groups:
        assert [lengths[j] for j in group] == sorted(lengths[j] for j in group)
        assert len(group) == 1 or len(group) * lengths[group[-1]] <= budget


def test_full_row_budget_spans_several_sub_batches():
    rng = np.random.default_rng(3)
    words = [f"w{i}" for i in range(10)]
    data = [(encode(list(rng.choice(words, size=n))), int(n % 2))
            for n in rng.integers(0, MAX_LEN + 4, size=300)]
    assert len(sub_batches([seq for seq, _ in data])) >= 2
    check_against_batch_size_one(random_params("hbgru_lstm", 1), data, 0.2)


def test_all_pad_batch_scores_half():
    params = init_model_params(VOCAB.size, 3, 4, 3, seed=0)
    empty = TokenSequence(indices=np.zeros(MAX_LEN, dtype=np.int64), true_length=0)
    np.testing.assert_array_equal(predict_proba(params, [empty, empty]), [0.5, 0.5])
    yhat, grads = batch_gradients(params, [(empty, 1)], 0.2, [0])
    assert yhat.tolist() == [0.5]
    assert not any(g.any() for g in grads.values())
