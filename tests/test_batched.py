"""The batched engine against the batch-size-1 path it generalises.

Probabilities and summed gradients of the length-sorted sub-batches must
equal the sums of per-sequence `model_forward` / `model_backward` results
to 1e-12 relative to each tensor's largest entry, on every stack, with and
without dropout, over reviews of mixed, truncated and all-PAD lengths.
A batch is packed: its per-token arrays hold the real tokens only, no
review's rows reach another's outputs, and a batch that is not sorted
shortest-first is refused.
"""

import re
from functools import lru_cache
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _memory import traced_peak
from opinionminer import layers, training
from opinionminer.layers import (
    STACKS,
    Packing,
    apply_dropout,
    backward_batch,
    embed_lookup,
    forward_batch,
    gru_scan,
    init_model_params,
    lstm_scan,
    model_backward,
    model_forward,
    predict_proba,
    sub_batches,
    zero_grads,
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


def infer_groups(params, seqs):
    """predict_proba(params, seqs), and the lengths of each sub-batch it ran."""
    groups = []

    def spy(params, group):
        groups.append([seq.true_length for seq in group])
        return forward_batch(params, group)

    with mock.patch.object(layers, "forward_batch", spy):
        yhat = predict_proba(params, seqs)
    return yhat, groups


def check_against_batch_size_one(params, data, dropout_rate):
    """Check the batched passes against model_forward and model_backward;
    returns the lengths of each sub-batch predict_proba ran."""
    seqs = [seq for seq, _ in data]
    seeds = list(range(100, 100 + len(data)))

    single = [model_forward(params, seq)[0] for seq in seqs]
    yhat, groups = infer_groups(params, seqs)
    assert_close(yhat, np.array(single), "infer yhat")

    grads = zero_grads(params)
    yhat = batch_gradients(params, data, dropout_rate, seeds, grads)
    want_yhat, want = [], {name: np.zeros_like(g) for name, g in grads.named_arrays()}
    for (seq, label), seed in zip(data, seeds):
        y, cache = model_forward(params, seq, mode="train", dropout_rate=dropout_rate,
                                 seed=seed)
        want_yhat.append(y)
        for name, g in model_backward(params, cache, bce_grad(label, y)).named_arrays():
            want[name] += g
    assert_close(yhat, np.array(want_yhat), "train yhat")
    for name, g in grads.named_arrays():
        assert_close(g, want[name], name)
    return groups


@pytest.mark.parametrize("dropout_rate", [0.0, 0.2])
@pytest.mark.parametrize("stack", sorted(STACKS))
@settings(max_examples=30, deadline=None)
@given(rows=reviews, budget=st.integers(1, 3 * MAX_LEN), seed=st.integers(0, 2**16))
def test_sub_batches_match_batch_size_one(stack, dropout_rate, rows, budget, seed):
    # a small row budget splits even a short list into several training
    # sub-batches; a toy review costs an infer pass 300 to 1,100 bytes, so
    # 250 bytes for each token of the row budget cut the infer passes too
    params = random_params(stack, seed)
    data = [(encode(words), label) for words, label in rows]
    with mock.patch.object(layers, "ROW_BUDGET", budget), \
            mock.patch.object(layers, "INFER_BUDGET", 250 * budget):
        groups = sub_batches([seq for seq, _ in data], 1, 0, budget)
        infer = check_against_batch_size_one(params, data, dropout_rate)

    lengths = [seq.true_length for seq, _ in data]
    assert sorted(j for group in groups for j in group) == \
        [j for j, n in enumerate(lengths) if n > 0]
    for group in groups:
        assert [lengths[j] for j in group] == sorted(lengths[j] for j in group)
        assert len(group) == 1 or sum(lengths[j] for j in group) <= budget
    assert sorted(n for group in infer for n in group) == sorted(n for n in lengths if n > 0)
    assert all(group == sorted(group) for group in infer)


def test_groups_fill_from_the_longest():
    # the long tail shares time steps: 17 scan steps, where cutting from the
    # shortest up ([2] * 10, [5, 9], [10]) takes 21
    lengths = [9, 2, 2, 10, 2, 2, 5, 2, 2, 2, 2, 2, 2]
    seqs = [TokenSequence(np.ones(n, dtype=np.int64)) for n in lengths]
    groups = sub_batches(seqs, 1, 0, 20)
    assert [[lengths[j] for j in group] for group in groups] == \
        [[2] * 3, [2] * 7 + [5], [9, 10]]


def test_full_row_budget_spans_several_sub_batches():
    rng = np.random.default_rng(3)
    words = [f"w{i}" for i in range(10)]
    data = [(encode(list(rng.choice(words, size=n))), int(n % 2))
            for n in rng.integers(0, MAX_LEN + 4, size=300)]
    assert len(sub_batches([seq for seq, _ in data], 1, 0, layers.ROW_BUDGET)) >= 2
    # the full infer budget holds every toy review in one group; 20,000
    # bytes hold about 20
    params = random_params("hbgru_lstm", 1)
    with mock.patch.object(layers, "INFER_BUDGET", 20_000):
        assert len(check_against_batch_size_one(params, data, 0.2)) >= 4


def test_training_groups_stay_cut_at_the_row_budget():
    # training's sub-batches set the bits of its gradient sums, so a fixed
    # batch keeps its cut at ROW_BUDGET tokens whatever predict_proba does:
    # (reviews, tokens) of each group, the all-PAD review left out
    rng = np.random.default_rng(30)
    lengths = rng.integers(0, 121, size=100)
    data = [(TokenSequence(rng.integers(1, VOCAB.size, size=n)), int(n % 2)) for n in lengths]
    params = random_params("lstm_only", 0)
    groups = []

    def spy(params, group, **kwargs):
        groups.append((len(group), sum(seq.true_length for seq in group)))
        return forward_batch(params, group, **kwargs)

    with mock.patch.object(training, "forward_batch", spy):
        batch_gradients(params, data, 0.2, list(range(len(data))), zero_grads(params))
    assert groups == [(47, 1218), (23, 1526), (16, 1461), (13, 1449)]


def test_all_pad_batch_scores_half():
    params = init_model_params(VOCAB.size, 3, 4, 3, seed=0)
    empty = TokenSequence(np.zeros(0, dtype=np.int64))
    np.testing.assert_array_equal(predict_proba(params, [empty, empty]), [0.5, 0.5])
    grads = params.like(np.ones_like(params.flat))  # batch_gradients zero-fills it
    yhat = batch_gradients(params, [(empty, 1)], 0.2, [0], grads)
    assert yhat.tolist() == [0.5]
    assert not any(g.any() for _, g in grads.named_arrays())


def test_a_token_without_a_gradient_row_rejected_before_any_write():
    params = init_model_params(VOCAB.size, 3, 4, 3, seed=0)
    seqs = [TokenSequence(np.array([2, 5])), TokenSequence(np.array([3, 9, 4]))]
    # no row 9, past the last held row or not; no row 4, between rows 3 and 5
    for rows in ([0, 2, 3, 4, 5], [0, 2, 3, 4, 5, 8], [0, 2, 3, 5, 9]):
        grads = zero_grads(params, rows)
        cache = forward_batch(params, seqs, mode="train")
        with pytest.raises(ValueError, match="no embedding row"):
            backward_batch(params, cache, np.ones(2), grads)
        assert not grads.flat.any()


@pytest.mark.parametrize("stack", sorted(STACKS))
def test_per_token_arrays_hold_the_real_tokens_only(stack):
    lengths = [1, 3, 3, 8]
    seqs = [TokenSequence(np.arange(n) % 9 + 1) for n in lengths]
    params = random_params(stack, 3)
    cache = forward_batch(params, seqs, mode="train", dropout_rate=0.2, seeds=[1, 2, 3, 4])
    # the embedded inputs and the dropped-out LSTM input as backward_batch takes them again
    arrays = {"index": cache.index, "x": embed_lookup(cache.index, params.embedding),
              "lstm_in": cache.lstm_in,
              "dropped": apply_dropout(cache.lstm_in, cache.seq_mask, cache.dropout_rate)}
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
    mask = np.arange(max(lengths))[:, np.newaxis] < lengths
    np.testing.assert_array_equal(cache.index, padded[mask])


# What a pass may take beyond what layers.pass_bytes counts: numpy's two
# ufunc buffers of 8,192 floats (128 KiB), which adding a weight gradient
# into its strided block takes, and the Python objects of the pass
MARGIN = 256 * 1024
EMBEDDING_DIM, GRU_UNITS, LSTM_UNITS = 128, 256, 128


def full_size_batch(stack, count=8, length=64):
    params = init_model_params(1000, EMBEDDING_DIM, GRU_UNITS, LSTM_UNITS, stack=stack, seed=0)
    rng = np.random.default_rng(0)
    return params, [TokenSequence(rng.integers(1, 1000, size=length)) for _ in range(count)]


def pass_peak(params, seqs, mode):
    """Traced peak of a forward_batch pass over seqs, sorted shortest-first;
    in train mode with dropout 0.2 and its backward_batch pass into a
    gradient that holds the batch's embedding rows, as training's does."""
    if mode == "infer":
        with traced_peak() as peak:
            forward_batch(params, seqs)
        return peak.bytes
    grads = zero_grads(params, np.union1d([0], np.concatenate([seq.indices for seq in seqs])))
    with traced_peak() as peak:
        cache = forward_batch(params, seqs, mode="train", dropout_rate=0.2,
                              seeds=list(range(len(seqs))))
        backward_batch(params, cache, np.ones(len(seqs)), grads)
    return peak.bytes


def modelled(params, seqs, mode):
    """(what pass_bytes says a pass over seqs keeps a token and a sequence,
    the pass's fixed bytes)."""
    token, sequence, fixed = layers.pass_bytes(mode, *params.widths())
    return token * sum(seq.true_length for seq in seqs) + sequence * len(seqs), fixed


@lru_cache(maxsize=None)
def full_size_peak(stack, mode, count):
    """(traced peak, modelled bytes, fixed bytes) of a pass over count
    reviews of 128 tokens at the full-size widths."""
    params, seqs = full_size_batch(stack, count, 128)
    return (pass_peak(params, seqs, mode), *modelled(params, seqs, mode))


@pytest.mark.parametrize("mode", ["train", "infer"])
@pytest.mark.parametrize("stack", sorted(STACKS))
@settings(max_examples=20, deadline=None)
@given(widths=st.tuples(*[st.integers(1, 24)] * 3),
       lengths=st.lists(st.integers(1, 30), min_size=1, max_size=12),
       span_rows=st.integers(1, 40), seed=st.integers(0, 2**16))
def test_a_pass_keeps_what_pass_bytes_counts(stack, mode, widths, lengths, span_rows, seed):
    # small spans, so infer passes run several of them
    params = init_model_params(VOCAB.size, *widths, stack=stack, seed=seed)
    rng = np.random.default_rng(seed)
    seqs = [TokenSequence(rng.integers(1, VOCAB.size, size=n)) for n in sorted(lengths)]
    with mock.patch.object(layers, "SPAN_ROWS", span_rows):
        peak = pass_peak(params, seqs, mode)
        kept, fixed = modelled(params, seqs, mode)
    assert kept / 2 < peak < kept + fixed + MARGIN


@pytest.mark.parametrize("stack", sorted(STACKS))
def test_train_pass_peak_per_token(stack):
    # 16 reviews of 128 tokens, at the full-size widths
    peak, kept, fixed = full_size_peak(stack, "train", 16)
    assert peak < kept + fixed + MARGIN


@pytest.mark.parametrize("stack", sorted(STACKS))
def test_train_pass_peak_grows_by_the_kept_trace_only(stack):
    # an added review adds what pass_bytes counts for its tokens and itself,
    # and nothing fixed: the traces the backward pass reads, and at most one
    # copy of the LSTM input width beside them (see pass_bytes)
    big, kept_big, _ = full_size_peak(stack, "train", 16)
    small, kept_small, _ = full_size_peak(stack, "train", 4)
    assert big - small <= kept_big - kept_small + MARGIN


@pytest.mark.parametrize("stack", sorted(STACKS))
def test_infer_pass_peak_per_token(stack):
    # the GRU directions write into one LSTM input, with no concatenated copy
    peak, kept, fixed = full_size_peak(stack, "infer", 24)
    assert peak < kept + fixed + MARGIN


@pytest.mark.parametrize("stack", sorted(STACKS))
def test_infer_pass_peak_grows_by_the_index_and_reverse_gru_output_only(stack):
    # an infer pass keeps whole only the token indices, with their rows of
    # Packing.order, and the reverse GRU's output, whose row at the first
    # token the LSTM's first step reads; the other GRU and the LSTM run span
    # by span in buffers of a fixed size. An added review adds a row to each
    # (B, .) scan state and scratch array, and at most one to each
    # span-sized buffer (LSTM input, embedded rows, gate block)
    big, kept_big, _ = full_size_peak(stack, "infer", 16)
    small, kept_small, _ = full_size_peak(stack, "infer", 4)
    assert big - small <= kept_big - kept_small + MARGIN


# (bytes a token, bytes a sequence) of an infer pass, which cut
# predict_proba's sub-batches: the groups, and so the last bits of the
# probabilities, move if these do. At the full-size and two toy widths
INFER_GROUP_COSTS = {
    ("gru_lstm", 128, 256, 128): (16, 26624),
    ("hbgru_lstm", 128, 256, 128): (2064, 38912),
    ("lstm_only", 128, 256, 128): (16, 13312),
    ("gru_lstm", 10, 6, 6): (16, 896),
    ("hbgru_lstm", 10, 6, 6): (64, 1184),
    ("lstm_only", 10, 6, 6): (16, 688),
    ("gru_lstm", 3, 4, 3): (16, 480),
    ("hbgru_lstm", 3, 4, 3): (48, 672),
    ("lstm_only", 3, 4, 3): (16, 312),
}


@pytest.mark.parametrize("config", sorted(INFER_GROUP_COSTS))
def test_infer_group_costs_are_unchanged(config):
    stack, *widths = config
    params = init_model_params(VOCAB.size, *widths, stack=stack, seed=0)
    assert layers.pass_bytes("infer", *params.widths())[:2] == INFER_GROUP_COSTS[config]


def predict_peak(seqs):
    params = full_size_batch("hbgru_lstm", 0)[0]
    with traced_peak() as peak:
        predict_proba(params, seqs)
    return peak.bytes


def predict_bound():
    """What a predict_proba call at the full-size widths may take: a group's
    INFER_BUDGET, the pass's fixed bytes (the span buffers' rows that no
    review adds) and the margin."""
    params = full_size_batch("hbgru_lstm", 0)[0]
    return layers.INFER_BUDGET + layers.pass_bytes("infer", *params.widths())[2] + MARGIN


def test_predict_peak_holds_to_the_budget_on_many_short_reviews():
    # a token budget alone put 1,536 one-token reviews in a sub-batch, whose
    # (B, .) arrays peaked at 33.4 MB
    seqs = [TokenSequence(np.array([j % 999 + 1])) for j in range(5000)]
    assert predict_peak(seqs) < predict_bound()


def test_predict_peak_does_not_grow_with_the_input():
    # 128-token reviews fill a sub-batch at 55: 60 and 240 reviews peak in
    # the same full one (measured 18.503 and 18.512 MB)
    seqs = full_size_batch("hbgru_lstm", 60, 128)[1]
    few, many = predict_peak(seqs), predict_peak(seqs * 4)
    assert many < predict_bound()
    assert abs(many - few) < MARGIN


def test_wide_training_groups_keep_to_the_byte_budget():
    # at gru_units 1,024 a token keeps about 3.75 times its bytes at the
    # stock widths, so a 1,536-token group would keep about 3.6 times the
    # budget. The 600-token review is over it on its own. No pass runs: the
    # parameters are never written, so their zero pages are never touched
    params = layers.ModelParams.zeros("hbgru_lstm", VOCAB.size, 128, 1024, 128)
    rng = np.random.default_rng(31)
    lengths = [600] + rng.integers(0, 200, size=127).tolist()
    data = [(TokenSequence(rng.integers(1, VOCAB.size, size=n)), n % 2) for n in lengths]
    groups = []

    def spy(params, group, **kwargs):
        groups.append([seq.true_length for seq in group])
        return SimpleNamespace(yhat=np.full(len(group), 0.5))

    with mock.patch.object(training, "forward_batch", spy), \
            mock.patch.object(training, "backward_batch"):
        batch_gradients(params, data, 0.2, list(range(len(data))),
                        SimpleNamespace(flat=np.zeros(1)))
    token, review, _ = layers.pass_bytes("train", *params.widths())
    assert sorted(n for group in groups for n in group) == sorted(n for n in lengths if n)
    assert [600] in groups
    for group in groups:
        assert len(group) == 1 or token * sum(group) + review * len(group) <= training.TRAIN_BUDGET


@settings(max_examples=200, deadline=None)
@given(lengths=st.lists(st.integers(1, 20), min_size=1, max_size=12))
def test_packing_matches_the_padded_batch(lengths):
    # the oracle builds the (T, B) padded layout that Packing describes
    lengths = sorted(lengths)
    T, B = max(lengths), len(lengths)
    mask = np.arange(T)[:, np.newaxis] < np.array(lengths)
    starts = np.cumsum(lengths) - lengths
    position = np.arange(T)[:, np.newaxis] + starts  # in the sequences concatenated whole
    row = np.full((T + 2, B), -1)  # rows 0 and T + 1 stay -1: the zero state
    row[1:T + 1][mask] = np.arange(mask.sum())
    packing = Packing(lengths)
    assert packing.first == [int(B - mask[t].sum()) for t in range(T)]
    assert packing.off == [0] + np.cumsum(mask.sum(axis=1)).tolist()
    np.testing.assert_array_equal(packing.order, position[mask])
    np.testing.assert_array_equal(packing.previous(), row[:T][mask])
    np.testing.assert_array_equal(packing.previous(reverse=True), row[2:][mask])


def test_packing_builds_no_time_by_batch_array():
    # 4,000 one-token reviews and one of 4,096 tokens: 8,096 rows over
    # 4,096 steps. A (T, B) mask takes 16.4 MB at a byte an entry; building
    # it densely peaked at 148 MB, and previous() besides at 279 MB
    with traced_peak() as peak:
        packing = Packing([1] * 4000 + [4096])
        packing.previous()
        packing.previous(reverse=True)
    assert peak.bytes < 2_000_000


@settings(max_examples=200, deadline=None)
@given(lengths=st.lists(st.integers(1, 20), min_size=1, max_size=12),
       limit=st.integers(1, 60), reverse=st.booleans())
def test_spans_cut_the_scan_into_whole_blocks_of_at_least_the_limit(lengths, limit, reverse):
    packing = Packing(sorted(lengths))
    off, N = packing.off, packing.off[-1]
    spans = packing.spans(limit, reverse)
    scan_order = list(range(len(packing.first)))
    assert [t for _, _, steps in spans for t in steps] == \
        (scan_order[::-1] if reverse else scan_order)
    for i, (a, e, steps) in enumerate(spans):
        assert (a, e) == (off[min(steps)], off[max(steps) + 1])
        assert e - a >= limit or (a, e) == (0, N)
        # a span stops at the first block that brings it to the limit; only
        # the last one goes on, over a remainder under the limit
        rows = np.cumsum([off[t + 1] - off[t] for t in steps])
        full = int(np.argmax(rows >= limit)) if rows[-1] >= limit else len(rows) - 1
        rest = rows[-1] - rows[full]
        assert rest == 0 or (i == len(spans) - 1 and rest < limit)


@pytest.mark.parametrize("lengths, reverse, want", [
    # 4 rows reach the limit after the first span, and 2 would be left
    ([1, 4, 4], False, [(0, 3, [0]), (3, 9, [1, 2, 3])]),
    # scanning down from t = 5: 4 rows reach it after the first span, 2 left
    ([3, 6], True, [(6, 9, [5, 4, 3]), (0, 6, [2, 1, 0])]),
], ids=["forward", "reverse"])
def test_the_last_span_takes_a_remainder_under_the_limit(lengths, reverse, want):
    spans = Packing(lengths).spans(3, reverse)
    assert [(a, e, list(steps)) for a, e, steps in spans] == want


@pytest.mark.parametrize("stack", sorted(STACKS))
@settings(max_examples=40, deadline=None)
@given(lengths=st.lists(st.integers(1, 20), min_size=1, max_size=12),
       span_rows=st.integers(1, 7), seed=st.integers(0, 2**16))
def test_infer_spans_match_one_span(stack, lengths, span_rows, seed):
    # the LSTM's final state reads every row of its input, which holds both
    # GRU directions' outputs on hbgru_lstm
    params = random_params(stack, seed)
    rng = np.random.default_rng(seed)
    seqs = [TokenSequence(rng.integers(1, VOCAB.size, size=n)) for n in sorted(lengths)]
    with mock.patch.object(layers, "SPAN_ROWS", span_rows):
        got = forward_batch(params, seqs)
    with mock.patch.object(layers, "SPAN_ROWS", sum(lengths)):
        want = forward_batch(params, seqs)
    assert_close(got.yhat, want.yhat, "yhat")
    assert_close(got.lstm.h_last, want.lstm.h_last, "h_last")


@pytest.mark.parametrize("stack", sorted(STACKS))
@pytest.mark.parametrize("bad", [-1, VOCAB.size])
def test_an_index_out_of_range_in_the_last_span_raises(stack, bad):
    # an infer pass checks its indices once, then gathers each span's rows
    # from E; the longest review's last token lies in the last forward span
    params = random_params(stack, 3)
    seqs = [TokenSequence(np.arange(1, n + 1)) for n in (2, 5, 9)]
    seqs[-1].indices[-1] = bad
    assert len(Packing([2, 5, 9]).spans(2, False)) > 1
    with mock.patch.object(layers, "SPAN_ROWS", 2):
        with pytest.raises(IndexError, match="^token index out of embedding range$"):
            forward_batch(params, seqs)


def assert_train_mode_has_the_infer_bits(params, seqs):
    # train mode computes each step's gates in the same scratch as infer
    # mode and only copies them into its trace, so without dropout it gives
    # the same bytes: the LSTM's final state reads every row of the LSTM
    # input, which infer mode keeps only a span of at a time
    train = forward_batch(params, seqs, mode="train", dropout_rate=0.0)
    infer = forward_batch(params, seqs, mode="infer")
    assert train.yhat.tobytes() == infer.yhat.tobytes()
    assert train.lstm.h_last.tobytes() == infer.lstm.h_last.tobytes()


@pytest.mark.parametrize("stack", sorted(STACKS))
@settings(max_examples=40, deadline=None)
@given(lengths=st.lists(st.integers(1, 20), min_size=1, max_size=12),
       seed=st.integers(0, 2**16))
def test_train_mode_without_dropout_gives_the_infer_bits(stack, lengths, seed):
    params = random_params(stack, seed)
    rng = np.random.default_rng(seed)
    seqs = [TokenSequence(rng.integers(1, VOCAB.size, size=n)) for n in sorted(lengths)]
    assert_train_mode_has_the_infer_bits(params, seqs)


@pytest.mark.parametrize("stack", sorted(STACKS))
def test_train_mode_without_dropout_gives_the_infer_bits_at_full_size(stack):
    # 512 tokens: infer mode projects them in several spans, train mode in one
    params, seqs = full_size_batch(stack)
    assert sum(seq.true_length for seq in seqs) > layers.SPAN_ROWS
    assert_train_mode_has_the_infer_bits(params, seqs)


@pytest.mark.parametrize("upstream", [1.0, np.array([1.0]), np.ones(3), np.ones((2, 1))],
                         ids=["scalar", "(1,)", "(3,)", "(2, 1)"])
def test_an_upstream_gradient_not_of_shape_b_rejected_before_any_write(upstream):
    params = random_params("hbgru_lstm", 2)
    seqs = [TokenSequence(np.array([1, 2])), TokenSequence(np.array([3, 4, 5]))]
    cache = forward_batch(params, seqs, mode="train", dropout_rate=0.2, seeds=[1, 2])
    grads = zero_grads(params)
    with pytest.raises(ValueError, match="dL_dyhat"):
        backward_batch(params, cache, upstream, grads)
    assert not grads.flat.any()
    # the cache was not consumed: a backward pass over it gives the gradients
    # of a fresh one
    backward_batch(params, cache, np.array([1.0, -0.5]), grads)
    want = zero_grads(params)
    backward_batch(params, forward_batch(params, seqs, mode="train", dropout_rate=0.2,
                                         seeds=[1, 2]), np.array([1.0, -0.5]), want)
    assert grads.flat.tobytes() == want.flat.tobytes()


@pytest.mark.parametrize("stack", sorted(STACKS))
@pytest.mark.parametrize("seeds", [None, [1], [1, 2, 3]])
def test_dropout_needs_one_seed_per_sequence(stack, seeds):
    params = random_params(stack, 2)
    seqs = [TokenSequence(np.array([1, 2])), TokenSequence(np.array([3, 4, 5]))]
    with pytest.raises(ValueError, match="seeds"):
        forward_batch(params, seqs, mode="train", dropout_rate=0.3, seeds=seeds)
    # no mask is drawn without dropout, so no seed is needed
    forward_batch(params, seqs, mode="train", dropout_rate=0.0, seeds=seeds)
    forward_batch(params, seqs, mode="infer", dropout_rate=0.3, seeds=seeds)


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


def test_an_output_buffer_or_mode_of_another_kind_is_refused():
    params = random_params("hbgru_lstm", 2)
    with pytest.raises(ValueError, match=re.escape("h_out has shape (4, 3), not (4, 4)")):
        gru_scan(params.gru_fwd, np.zeros((4, 3)), Packing([1, 3]), h_out=np.empty((4, 3)))
    with pytest.raises(ValueError, match="unknown mode: 'eval'"):
        forward_batch(params, [encode(["w1"])], mode="eval")


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
