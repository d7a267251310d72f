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
        groups = sub_batches([seq for seq, _ in data])
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


# Most bytes a real token of a forward_batch (+ backward_batch in train mode)
# may take at the full-size widths (128-d embeddings, 256 GRU and 128 LSTM
# units): in train mode with dropout 0.2 on 8 reviews of 64 tokens, in infer
# mode on 12 reviews of 128 tokens. Measured 26.6,
# 15.9 and 7.6 KB a token in train mode, 3.80, 1.45 and 0.85 KB in infer
# mode (hbgru_lstm, gru_lstm, lstm_only). Keeping the embedded inputs,
# tanh(c) and the dropped-out LSTM input in the train cache, and taking the
# LSTM input weights' gradient in one product, took 31.7, 19.1 and 8.6 KB;
# allocating each backward gate gradient beside its gate and
# concatenating the GRU outputs took 37.8, 25.2 and 14.5 KB (train);
# dropping no trace before the backward pass ends took 45.0 and 31.4 KB on
# the GRU stacks. In infer mode, holding the whole embedded input and the
# whole LSTM input took 6.13, 4.08 and 1.72 KB; projecting each scan's
# whole input before its time loop as well took 11.4, 9.4 and 5.2 KB.
TRAIN_PEAK_PER_TOKEN = {"hbgru_lstm": 27_400, "gru_lstm": 16_350, "lstm_only": 7_850}
INFER_PEAK_PER_TOKEN = {"hbgru_lstm": 3_925, "gru_lstm": 1_500, "lstm_only": 875}
EMBEDDING_DIM, GRU_UNITS, LSTM_UNITS = 128, 256, 128


def full_size_batch(stack, count=8, length=64):
    params = init_model_params(1000, EMBEDDING_DIM, GRU_UNITS, LSTM_UNITS, stack=stack, seed=0)
    rng = np.random.default_rng(0)
    return params, [TokenSequence(rng.integers(1, 1000, size=length)) for _ in range(count)]


def train_pass_peak(stack, count, length):
    params, seqs = full_size_batch(stack, count, length)
    grads = zero_grads(params)
    with traced_peak() as peak:
        cache = forward_batch(params, seqs, mode="train", dropout_rate=0.2,
                              seeds=list(range(count)))
        backward_batch(params, cache, np.ones(count), grads)
    return peak.bytes


@pytest.mark.parametrize("stack", sorted(STACKS))
def test_train_pass_peak_per_token(stack):
    assert train_pass_peak(stack, 8, 64) < TRAIN_PEAK_PER_TOKEN[stack] * 512


@pytest.mark.parametrize("stack", sorted(STACKS))
def test_train_pass_peak_grows_by_the_kept_trace_only(stack):
    # an added token holds what the cache keeps: its GRU gates and LSTM
    # input row (x itself for lstm_only), its LSTM gates, h and c, its
    # dropout mask row and its index. The backward pass takes the embedded
    # input, tanh(c) and the dropped-out LSTM input again where it reads
    # them; the 10% covers the one such copy alive at a time, with each
    # added review's (B, width) scan state
    directions = len(STACKS[stack])
    width = GRU_UNITS * directions or EMBEDDING_DIM
    floats = 3 * GRU_UNITS * directions + width + 6 * LSTM_UNITS
    kept = 8 * floats + (width if directions else 0) + 8
    grown = train_pass_peak(stack, 16, 128) - train_pass_peak(stack, 4, 128)
    assert grown <= 1.1 * kept * 12 * 128


def infer_pass_peak(stack, count):
    params, seqs = full_size_batch(stack, count, 128)
    with traced_peak() as peak:
        forward_batch(params, seqs)
    return peak.bytes


@pytest.mark.parametrize("stack", sorted(STACKS))
def test_infer_pass_peak_per_token(stack):
    # the GRU directions write into one LSTM input, with no concatenated copy
    assert infer_pass_peak(stack, 12) < INFER_PEAK_PER_TOKEN[stack] * 12 * 128


@pytest.mark.parametrize("stack", sorted(STACKS))
def test_infer_pass_peak_grows_by_the_index_and_reverse_gru_output_only(stack):
    # an infer pass keeps whole only the token indices, with their rows of
    # Packing.order, and the reverse GRU's output, whose row at the first
    # token the LSTM's first step reads; the other GRU and the LSTM run span
    # by span in buffers of a fixed size. An added review adds a row to each
    # (B, .) scan state and scratch array, and at most one to each
    # span-sized buffer (LSTM input, embedded rows, gate block). predict_proba
    # cuts its sub-batches by these bytes
    directions = STACKS[stack]
    k, m, d = GRU_UNITS, LSTM_UNITS, EMBEDDING_DIM
    token = 8 + 8 + 8 * k * sum(reverse for _, reverse in directions)
    state = (k + 4 * k) * len(directions) + 7 * m
    spans = (k * len(directions) or d) + d + max(3 * k * bool(directions), 4 * m)
    review = 8 * (state + spans)
    grown = infer_pass_peak(stack, 16) - infer_pass_peak(stack, 4)
    assert grown <= 1.1 * (token * 12 * 128 + review * 12)
    assert layers._infer_bytes(full_size_batch(stack, 0)[0]) == (token, review)


# What a predict_proba call may take beyond INFER_BUDGET: the span-sized
# buffers' rows that no review adds (a span holds 2 * SPAN_ROWS rows or
# fewer besides one a review of its sub-batch), 11,264 bytes a row on
# hbgru_lstm at the full-size widths, and 1 MB for the rest
INFER_MARGIN = 2 * layers.SPAN_ROWS * 11_264 + 1_000_000


def predict_peak(seqs):
    params = full_size_batch("hbgru_lstm", 0)[0]
    with traced_peak() as peak:
        predict_proba(params, seqs)
    return peak.bytes


def test_predict_peak_holds_to_the_budget_on_many_short_reviews():
    # a token budget alone put 1,536 one-token reviews in a sub-batch, whose
    # (B, .) arrays peaked at 33.4 MB
    seqs = [TokenSequence(np.array([j % 999 + 1])) for j in range(5000)]
    assert predict_peak(seqs) < layers.INFER_BUDGET + INFER_MARGIN


def test_predict_peak_does_not_grow_with_the_input():
    # 128-token reviews fill a sub-batch at 55: 60 and 240 reviews peak in
    # the same full one (measured 18.503 and 18.512 MB)
    seqs = full_size_batch("hbgru_lstm", 60, 128)[1]
    few, many = predict_peak(seqs), predict_peak(seqs * 4)
    assert many < layers.INFER_BUDGET + INFER_MARGIN
    assert abs(many - few) < 256 * 1024


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
