import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import _reference as ref
from opinionminer.layers import (
    DenseParams,
    GatedParams,
    GruParams,
    LstmParams,
    Packing,
    STACKS,
    apply_dropout,
    classify,
    dense_sigmoid,
    gru_scan,
    init_model_params,
    lstm_scan,
    model_backward,
    model_forward,
    param_shapes,
    zero_grads,
)
from opinionminer.text_pipeline import TokenSequence
from opinionminer.training import AdamState, TrainConfig, adam_step


def scalar_gru(w_z, b_z, w_r, b_r, w_h, b_h):
    # one unit: each gate is one row of the stacked W and one entry of b
    return GruParams(W=np.array([w_z, w_r, w_h]), b=np.array([b_z, b_r, b_h]))


def scalar_lstm(w, b=0.0):
    return LstmParams(W=np.array([w] * 4), b=np.full(4, b))


def one_sequence(X):
    """An (n, d) sequence as a packed batch of one: its rows and their packing."""
    return X, Packing([X.shape[0]])


class TestGruCell:
    """Hand cases from a nonzero state, on the reference step the scans are tested against."""

    def test_zero_parameters(self):
        p = scalar_gru([0.0, 0.0], 0.0, [0.0, 0.0], 0.0, [0.0, 0.0], 0.0)
        h, z, r, h_cand = ref.gru_step(ref.layer_tensors(p), [0.8], [1.7])
        assert z[0] == 0.5 and r[0] == 0.5
        assert h_cand[0] == 0.0
        npt.assert_allclose(h, [0.4], atol=1e-15)

    def test_saturated_update_gate(self):
        p = scalar_gru([0.0, 0.0], 20.0, [0.0, 0.0], 0.0, [1.0, 1.0], 0.0)
        h, _, _, h_cand = ref.gru_step(ref.layer_tensors(p), [0.3], [0.5])
        npt.assert_allclose(h, h_cand, atol=1e-8)

    def test_scalar_hand_case(self):
        # hand evaluation with h_prev=0.5, x=1:
        #   z = sigmoid(1.5), r = sigmoid(0.5),
        #   h_cand = tanh(r*0.5 + 1), h = (1-z)*0.5 + z*h_cand
        p = scalar_gru([1.0, 1.0], 0.0, [1.0, 0.0], 0.0, [1.0, 1.0], 0.0)
        h, z, r, h_cand = ref.gru_step(ref.layer_tensors(p), [0.5], [1.0])
        npt.assert_allclose(z, [0.81757447619364365], atol=1e-12)
        npt.assert_allclose(r, [0.62245933120185459], atol=1e-12)
        npt.assert_allclose(h_cand, [0.8645862222114552], atol=1e-12)
        npt.assert_allclose(h, [0.79807638965194982], atol=1e-12)

    def test_reset_gate_multiplies_h_prev_before_concat(self):
        # W_h reads only the h_prev slot, so the candidate must be
        # tanh(r * h_prev) exactly -- the reset gate acts before the concat
        h_prev, x = 0.9, 0.0
        for b_r in (5.0, -5.0, 0.3):
            p = scalar_gru([0.0, 0.0], 0.0, [0.0, 0.0], b_r, [1.0, 0.0], 0.0)
            h, _, _, h_cand = ref.gru_step(ref.layer_tensors(p), [h_prev], [x])
            r = 1.0 / (1.0 + np.exp(-b_r))
            npt.assert_allclose(h_cand, [np.tanh(r * h_prev)], atol=1e-12)
            npt.assert_allclose(h, [0.5 * h_prev + 0.5 * np.tanh(r * h_prev)], atol=1e-12)


def random_gru(rng, k, in_dim, scale=1.0):
    # the same draws, in the same order, as one (k, k + in_dim) block per gate
    return GruParams(W=rng.normal(size=(3 * k, k + in_dim)) * scale,
                     b=rng.normal(size=3 * k) * scale)


class TestBgru:
    def test_single_step_matches_cells(self):
        rng = np.random.default_rng(1)
        fwd, bwd = random_gru(rng, 2, 3), random_gru(rng, 2, 3)
        x = rng.normal(size=(1, 3))
        hf = ref.gru_step(ref.layer_tensors(fwd), np.zeros(2), x[0])[0]
        hb = ref.gru_step(ref.layer_tensors(bwd), np.zeros(2), x[0])[0]
        # the scan sums the stacked gates' products in another order and
        # takes the sigmoid in tanh form
        npt.assert_allclose(gru_scan(fwd, *one_sequence(x)).h[0], hf, rtol=0, atol=1e-15)
        npt.assert_allclose(gru_scan(bwd, *one_sequence(x), reverse=True).h[0], hb,
                            rtol=0, atol=1e-15)

    def test_palindrome_symmetry(self):
        # shared params + palindromic input: fwd state at t mirrors bwd at n+1-t
        rng = np.random.default_rng(2)
        p = random_gru(rng, 3, 4, scale=0.4)
        a, b = rng.normal(size=4), rng.normal(size=4)
        X = np.stack([a, b, a])
        hf = gru_scan(p, *one_sequence(X)).h
        hb = gru_scan(p, *one_sequence(X), reverse=True).h
        n = 3
        for t in range(n):
            npt.assert_allclose(hf[t], hb[n - 1 - t], atol=1e-12)

    def test_zero_parameters_zero_output(self):
        p = GruParams(W=np.zeros((6, 6)), b=np.zeros(6))
        X = np.random.default_rng(3).normal(size=(4, 4))
        for reverse in (False, True):
            npt.assert_array_equal(gru_scan(p, *one_sequence(X), reverse=reverse).h,
                                   np.zeros((4, 2)))

    def test_direction_independence(self):
        # the model's backward direction is gru_scan(reverse=True) and leaves
        # the forward half of the LSTM input alone; train mode without
        # dropout keeps that input and gives the infer bits
        params = tiny_params(seed=4)
        other = tiny_params(seed=4)
        other.gru_bwd = random_gru(np.random.default_rng(4), 2, 2)
        seq = TokenSequence(np.array([2, 4, 3, 1, 2]))
        _, c1 = model_forward(params, seq, mode="train", dropout_rate=0.0)
        _, c2 = model_forward(other, seq, mode="train", dropout_rate=0.0)
        npt.assert_array_equal(c1.lstm_in[:, :2], c2.lstm_in[:, :2])
        assert np.any(c1.lstm_in[:, 2:] != c2.lstm_in[:, 2:])
        x = other.embedding.E[c2.index]  # as backward_batch gathers it again
        npt.assert_array_equal(c2.lstm_in[:, 2:],
                               gru_scan(other.gru_bwd, x, c2.packing, reverse=True).h)


class TestLstm:
    def test_zero_parameters(self):
        # from C_prev = 1, so on the reference step
        p = LstmParams(W=np.zeros((4, 2)), b=np.zeros(4))
        h, C, f, i, o, _ = ref.lstm_step(ref.layer_tensors(p), [0.0], [1.0], [3.0])
        assert f[0] == i[0] == o[0] == 0.5
        npt.assert_allclose(C, [0.5], atol=1e-15)
        npt.assert_allclose(h, [0.23105857863000487], atol=1e-12)

    def test_gate_saturation_perfect_memory(self):
        p = scalar_lstm([0.0, 0.0])
        p.b[0] = 20.0  # forget gate
        p.b[1] = -20.0  # input gate
        _, C, *_ = ref.lstm_step(ref.layer_tensors(p), [0.0], [0.7], [1.0])
        npt.assert_allclose(C, [0.7], atol=1e-7)

    def test_scalar_hand_case(self):
        # f = i = o = sigmoid(1), cand = tanh(1), C = i*cand, h = o*tanh(C),
        # the first step of a scan from the zero state
        p = scalar_lstm([1.0, 1.0])
        trace = lstm_scan(p, *one_sequence(np.ones((1, 1))))
        f, _, _, c_cand = np.split(trace.gates, 4, axis=1)
        npt.assert_allclose(f[0], [0.7310585786300049], atol=1e-12)
        npt.assert_allclose(c_cand[0], [0.76159415595576485], atol=1e-12)
        npt.assert_allclose(trace.c[0], [0.5567699411459397], atol=1e-12)
        npt.assert_allclose(trace.h[0], [0.36960635293570576], atol=1e-12)

    def test_three_step_hand_chain(self):
        p = scalar_lstm([1.0, 1.0])
        X = np.ones((3, 1))
        trace = lstm_scan(p, *one_sequence(X))
        npt.assert_allclose(trace.c[:, 0],
                            [0.5567699411459397, 1.1444461579991028, 1.7394875218692438],
                            atol=1e-12)
        npt.assert_allclose(trace.h[:, 0],
                            [0.36960635293570576, 0.65053522320081336, 0.78876582774045945],
                            atol=1e-12)
        npt.assert_allclose(lstm_scan(p, *one_sequence(X), trace=False).h_last[0],
                            [0.78876582774045945],
                            atol=1e-12)

    def test_single_step_equals_sequence_of_one(self):
        rng = np.random.default_rng(5)
        p = LstmParams(W=rng.normal(size=(12, 7)), b=rng.normal(size=12))
        x = rng.normal(size=(1, 4))
        h_step = ref.lstm_step(ref.layer_tensors(p), np.zeros(3), np.zeros(3), x[0])[0]
        # the scan sums the stacked gates' products in another order and
        # takes the sigmoid in tanh form
        npt.assert_allclose(lstm_scan(p, *one_sequence(x)).h_last[0], h_step, rtol=0, atol=1e-15)

    def test_zero_candidate_zero_trajectory(self):
        p = LstmParams(W=np.zeros((8, 5)), b=np.zeros(8))
        X = np.random.default_rng(6).normal(size=(2, 3))
        npt.assert_array_equal(lstm_scan(p, *one_sequence(X)).h_last[0], np.zeros(2))


class TestDenseAndClassify:
    def test_zero_parameters(self):
        p = DenseParams(W=np.zeros((1, 3)), b=np.zeros(1))
        assert dense_sigmoid(p, np.array([4.0, -2.0, 9.0])) == 0.5

    def test_sigmoid_of_three(self):
        p = DenseParams(W=np.array([[1.0, 0.0]]), b=np.zeros(1))
        got = dense_sigmoid(p, np.array([3.0, 99.0]))
        assert abs(got - 0.9525741268224334) < 1e-12

    def test_saturation(self):
        p = DenseParams(W=np.array([[0.01]]), b=np.array([20.0]))
        assert dense_sigmoid(p, np.array([0.5])) > 0.999

    def test_probability_keeps_its_relative_precision(self):
        # the loss of a confidently wrong review reads these small values
        for logit in (-20.0, -25.0, -30.0):
            p = DenseParams(W=np.zeros((1, 1)), b=np.array([logit]))
            want = 1.0 / (1.0 + math.exp(-logit))
            assert abs(dense_sigmoid(p, np.zeros(1)) - want) <= 1e-15 * want, logit

    def test_extreme_logits_raise_no_warning(self):
        p = DenseParams(W=np.ones((1, 1)), b=np.zeros(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                got = dense_sigmoid(p, np.array([[-1e308], [1e308]]))
        npt.assert_array_equal(got, [0.0, 1.0])

    def test_equals_scipy_expit_bit_for_bit(self):
        # SciPy is only the oracle: the head computes 1 / (1 + exp(-x)) with math.exp
        from scipy.special import expit
        rng = np.random.default_rng(11)
        logits = np.concatenate([
            rng.normal(0.0, 40.0, 20_000),
            rng.uniform(-709.78, -708.4, 200),  # results below the smallest normal float
            [709.78, -709.78, 745.0, -745.0, 1e308, -1e308, np.inf, -np.inf, np.nan],
        ])
        p = DenseParams(W=np.ones((1, 1)), b=np.zeros(1))
        got = dense_sigmoid(p, logits[:, None])
        want = expit(logits)
        assert got.dtype == np.float64 and got.shape == want.shape
        npt.assert_array_equal(got.view(np.int64), want.view(np.int64))
        assert np.any((want > 0.0) & (want < np.finfo(np.float64).tiny))

    def test_classify_boundary_is_positive(self):
        assert classify(0.5) == 1
        assert classify(0.4999) == 0
        assert classify(1.0) == 1


class TestDropout:
    """The two inverted-dropout sites of a train-mode model_forward."""

    def test_rate_zero_train_unchanged(self):
        params = tiny_params(seed=2)
        seq = TokenSequence(np.array([2, 3, 4]))
        y_infer, _ = model_forward(params, seq)
        y_train, cache = model_forward(params, seq, mode="train", dropout_rate=0.0, seed=5)
        assert y_train == y_infer
        assert cache.seq_mask is None and cache.out_mask is None

    def test_infer_identity(self):
        params = tiny_params(seed=2)
        seq = TokenSequence(np.array([2, 3, 4]))
        y_plain, _ = model_forward(params, seq)
        y_rate, cache = model_forward(params, seq, mode="infer", dropout_rate=0.7, seed=5)
        assert y_rate == y_plain
        assert cache.seq_mask is None and cache.out_mask is None
        # infer mode keeps no gates, only what each next layer reads
        assert all(trace.gates is None for trace in cache.grus)
        assert cache.lstm.h is None and cache.lstm.gates is None
        assert cache.lstm.h_last.shape == (1, 2)

    def test_statistics_and_scaling(self):
        # 100 tokens x 2 x 500 GRU units put 100,000 entries under the
        # sequence mask
        params = init_model_params(vocab_size=5, embedding_dim=2, gru_units=500,
                                   lstm_units=50, seed=3)
        seq = TokenSequence(np.array([2, 3, 4, 1] * 25))
        _, cache = model_forward(params, seq, mode="train", dropout_rate=0.2, seed=99)
        H = np.concatenate([trace.h for trace in cache.grus], axis=1)
        assert cache.seq_mask.shape == H.shape == (100, 1000)
        assert abs(cache.seq_mask.mean() - 0.8) < 0.01
        # the LSTM input the scan projected, as backward_batch takes it again
        dropped = apply_dropout(cache.lstm_in, cache.seq_mask, cache.dropout_rate)
        for mask, raw, out in ((cache.seq_mask, H, dropped),
                               (cache.out_mask, cache.lstm.h_last, cache.h_final)):
            assert mask.any() and not mask.all()
            npt.assert_array_equal(out[~mask], 0.0)
            npt.assert_allclose(out[mask], raw[mask] * 1.25, rtol=1e-15)

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            model_forward(tiny_params(), TokenSequence(np.array([2, 3])), mode="train",
                          dropout_rate=1.0)


def tiny_params(stack="hbgru_lstm", seed=0):
    return init_model_params(vocab_size=5, embedding_dim=2, gru_units=2,
                             lstm_units=2, stack=stack, seed=seed)


class TestModelForward:
    def test_zero_network_outputs_half(self):
        params = tiny_params()
        for _, arr in params.named_arrays():
            arr[...] = 0.0
        for idx in ([2], [2, 3, 4], [1, 1]):
            yhat, _ = model_forward(params, TokenSequence(np.array(idx)))
            assert yhat == 0.5

    def test_infer_determinism(self):
        params = tiny_params(seed=3)
        seq = TokenSequence(np.array([2, 3, 4]))
        y1, _ = model_forward(params, seq)
        y2, _ = model_forward(params, seq)
        assert y1 == y2

    def test_train_determinism_given_seed(self):
        params = tiny_params(seed=3)
        seq = TokenSequence(np.array([2, 3, 4]))
        y1, _ = model_forward(params, seq, mode="train", dropout_rate=0.3, seed=11)
        y2, _ = model_forward(params, seq, mode="train", dropout_rate=0.3, seed=11)
        y3, _ = model_forward(params, seq, mode="train", dropout_rate=0.3, seed=12)
        assert y1 == y2
        assert y1 != y3

    def test_all_pad_degenerate(self):
        params = tiny_params()
        yhat, cache = model_forward(params, TokenSequence(np.zeros(0, dtype=np.int64)))
        assert yhat == 0.5
        assert cache is None

    def test_variant_widths(self):
        seq = TokenSequence(np.array([2, 3]))
        for stack, width in [("hbgru_lstm", 4), ("gru_lstm", 2), ("lstm_only", 2)]:
            params = tiny_params(stack=stack, seed=1)
            _, cache = model_forward(params, seq, mode="train", dropout_rate=0.0)
            assert cache.lstm_in.shape == (2, width)

    def test_cache_replays_output(self):
        params = tiny_params(seed=9)
        seq = TokenSequence(np.array([2, 4, 3]))
        yhat, cache = model_forward(params, seq, mode="train", dropout_rate=0.25, seed=4)
        # dense head replay from the cached final state is bit-exact
        assert dense_sigmoid(params.dense, cache.h_final[0]) == yhat
        # LSTM replay from the cached input sequence, dropped out as the
        # backward pass takes it again
        U = apply_dropout(cache.lstm_in, cache.seq_mask, cache.dropout_rate)
        h = lstm_scan(params.lstm, U, cache.packing).h_last
        npt.assert_array_equal(h, cache.lstm.h_last)

    @pytest.mark.parametrize("stack", sorted(STACKS))
    def test_oracle_equivalence(self, stack):
        rng = np.random.default_rng(17)
        for trial in range(4):
            params = tiny_params(stack=stack, seed=trial)
            idx = rng.integers(1, 5, size=3)
            yhat, _ = model_forward(params, TokenSequence(idx))
            assert abs(yhat - ref.model_forward(params, idx)) < 1e-12


class TestHiddenStateBounds:
    def test_randomized_bounds(self):
        rng = np.random.default_rng(55)
        for trial in range(40):
            params = init_model_params(vocab_size=8, embedding_dim=3, gru_units=3,
                                       lstm_units=2, seed=trial)
            # scale weights up to stress the gates, staying below the
            # float64 saturation boundary of tanh/sigmoid (~|a| > 19 / 37)
            for _, arr in params.named_arrays():
                arr *= float(rng.uniform(0.5, 3.0))
            n = int(rng.integers(1, 7))
            seq = TokenSequence(rng.integers(1, 8, size=n))
            # train mode at rate 0 is the infer forward pass, gates kept
            _, cache = model_forward(params, seq, mode="train", dropout_rate=0.0)
            assert len(cache.grus) == 2
            for trace in cache.grus:
                assert np.all(np.abs(trace.h) < 1.0)
                z, r, h_cand = np.split(trace.gates, 3, axis=1)
                assert np.all((z > 0) & (z < 1))
                assert np.all((r > 0) & (r < 1))
                assert np.all(np.abs(h_cand) < 1.0)
            lt = cache.lstm
            assert np.all(np.abs(lt.h) < 1.0)
            f, i, o, c_cand = np.split(lt.gates, 4, axis=1)
            for g in (f, i, o):
                assert np.all((g > 0) & (g < 1))
            assert np.all(np.abs(c_cand) < 1.0)


GRU_TENSORS = ["W_z", "b_z", "W_r", "b_r", "W_h", "b_h"]
LSTM_TENSORS = ["W_f", "b_f", "W_i", "b_i", "W_o", "b_o", "W_c", "b_c"]
# the checkpoint tensor order of each stack, written out by hand
CHECKPOINT_ORDER = {
    "hbgru_lstm": ["embedding.E"] + [f"gru_fwd.{t}" for t in GRU_TENSORS]
    + [f"gru_bwd.{t}" for t in GRU_TENSORS] + [f"lstm.{t}" for t in LSTM_TENSORS]
    + ["dense.W", "dense.b"],
    "gru_lstm": ["embedding.E"] + [f"gru_fwd.{t}" for t in GRU_TENSORS]
    + [f"lstm.{t}" for t in LSTM_TENSORS] + ["dense.W", "dense.b"],
    "lstm_only": ["embedding.E"] + [f"lstm.{t}" for t in LSTM_TENSORS]
    + ["dense.W", "dense.b"],
}


class TestLayout:
    @pytest.mark.parametrize("stack", sorted(CHECKPOINT_ORDER))
    def test_param_names_are_the_checkpoint_order(self, stack):
        assert list(param_shapes(stack, 11, 3, 4, 5)) == CHECKPOINT_ORDER[stack]
        params = init_model_params(11, 3, 4, 5, stack=stack)
        assert [name for name, _ in params.named_arrays()] == CHECKPOINT_ORDER[stack]

    @pytest.mark.parametrize("stack, lstm_in", [("hbgru_lstm", 8), ("gru_lstm", 4),
                                                ("lstm_only", 3)])
    def test_param_shapes_match_init(self, stack, lstm_in):
        params = init_model_params(11, 3, 4, 5, stack=stack)
        shapes = param_shapes(stack, 11, 3, 4, 5)
        assert shapes == {name: arr.shape for name, arr in params.named_arrays()}
        assert shapes["lstm.W_f"] == (5, 5 + lstm_in)

    @pytest.mark.parametrize("stack", sorted(CHECKPOINT_ORDER))
    def test_gate_tensors_are_views_of_the_stacked_layer(self, stack):
        params = init_model_params(11, 3, 4, 5, stack=stack)
        arrays = dict(params.named_arrays())
        for block in [block for block, _ in STACKS[stack]] + ["lstm"]:
            layer = getattr(params, block)
            assert isinstance(layer, GatedParams)
            Ws = [arrays[f"{block}.W_{gate}"] for gate in layer.GATES]
            bs = [arrays[f"{block}.b_{gate}"] for gate in layer.GATES]
            for W_g, b_g in zip(Ws, bs):
                assert np.shares_memory(W_g, layer.W) and np.shares_memory(b_g, layer.b)
            npt.assert_array_equal(np.concatenate(Ws), layer.W)
            npt.assert_array_equal(np.concatenate(bs), layer.b)

    @pytest.mark.parametrize("stack", sorted(CHECKPOINT_ORDER))
    def test_every_block_array_is_a_slice_of_one_vector(self, stack):
        params = init_model_params(11, 3, 4, 5, stack=stack, seed=1)
        _, cache = model_forward(params, TokenSequence(np.array([2, 5, 3])), mode="train")
        copy = params.clone()
        layouts = [params, zero_grads(params), model_backward(params, cache, 1.0), copy]
        for p in layouts:
            assert p.flat.dtype == np.float64 and p.flat.flags.c_contiguous
            blocks = [getattr(p, block) for block in ["embedding", "lstm", "dense"]
                      + [block for block, _ in STACKS[stack]]]
            arrays = [getattr(b, f.name) for b in blocks for f in dataclasses.fields(b)]
            assert sum(a.size for a in arrays) == p.flat.size
            for a in arrays:
                assert np.shares_memory(a, p.flat)
                assert not any(np.shares_memory(a, q.flat) for q in layouts if q is not p)
        assert [(n, a.tobytes()) for n, a in copy.named_arrays()] == \
            [(n, a.tobytes()) for n, a in params.named_arrays()]

    def test_adam_step_moves_the_scans(self):
        # Adam updates the named tensors in place, so the stacked weights
        # the scans read must move with them
        params = init_model_params(11, 3, 4, 5, seed=1)
        rng = np.random.default_rng(9)
        X, H = rng.normal(size=(8, 3)), rng.normal(size=(8, 8))
        packing = Packing([4, 4])
        scans = lambda: (gru_scan(params.gru_fwd, X, packing).h,
                         gru_scan(params.gru_bwd, X, packing, reverse=True).h,
                         lstm_scan(params.lstm, H, packing).h)
        before = scans()
        _, cache = model_forward(params, TokenSequence(np.array([2, 5, 3])), mode="train")
        adam_step(AdamState.for_params(params), params, model_backward(params, cache, 1.0),
                  TrainConfig(learning_rate=0.01))
        for old, new in zip(before, scans()):
            assert np.all(np.abs(new - old).max(axis=1) > 0)

    def test_unknown_stack_rejected(self):
        with pytest.raises(ValueError, match="foo"):
            param_shapes("foo", 11, 3, 4, 5)
        with pytest.raises(ValueError, match="foo"):
            init_model_params(11, 3, 4, 5, stack="foo")


# Runs in its own interpreter because installing the recorder rebinds the
# package's functions for the rest of the process.
TRACE_PROBE = """
import json, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
import spans
import opinionminer.cli
from opinionminer import layers
from opinionminer.text_pipeline import TokenSequence

params = layers.init_model_params(9, 3, 4, 2, stack="hbgru_lstm", seed=0)
recorder = spans.Recorder()
recorder.install()
recorder.enabled = True
seq = TokenSequence(indices=np.array([2, 5, 3]))
yhat, cache = layers.model_forward(params, seq, mode="train", dropout_rate=0.2, seed=1)
layers.model_backward(params, cache, 1.0)
print(json.dumps(recorder.counts))
"""


def test_traced_benchmark_sees_every_scan():
    # a scan reached through a stored function reference would bypass the
    # benchmark's wrappers and read as 0 s in the traced run
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run([sys.executable, "-c", TRACE_PROBE, str(root / "bench")],
                         env=env, capture_output=True, text=True, timeout=120, check=True)
    counts = json.loads(out.stdout)
    assert counts["layers.gru_scan"] == 2
    assert counts["layers.lstm_scan"] == 1
    assert counts["layers.zero_grads"] == 1
    assert counts["tensor_math.affine_calls"] > 0


# Runs in its own interpreter, so OPENBLAS_NUM_THREADS takes effect before
# numpy loads. Each full-size weight-gradient block, as (gate rows, gates,
# gates of the trace block da's columns are taken from, Y's width): the
# GRU's input weights and its z and r recurrent weights, the LSTM's
# recurrent and input weights; over the token counts of real training groups
GATE_ROWS_PROBE = """
import json
import numpy as np
from opinionminer.layers import add_weight_grad

rng = np.random.default_rng(0)
differ = []
for units, gates, stacked, width in [(256, 3, 3, 128), (256, 2, 3, 256),
                                     (128, 4, 4, 128), (128, 4, 4, 512)]:
    for n in (1335, 1513, 1536, 4332):
        da = rng.normal(size=(n, stacked * units))[:, :gates * units]
        Y = rng.normal(size=(n, width))
        whole, split = np.zeros((2, gates * units, width))
        whole += da.T @ Y
        add_weight_grad(split, da, Y, units)
        if whole.tobytes() != split.tobytes():
            differ.append([units, gates, width, n])
print(json.dumps(differ))
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_gate_at_a_time_has_the_bits_of_the_whole_product(threads):
    # add_weight_grad forms every weight gradient a gate's rows at a time and
    # relies on a product's rows having the same bits however many rows it
    # computes at once; a BLAS build that breaks this fails here instead of
    # moving training's bits
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS=threads)
    out = subprocess.run([sys.executable, "-c", GATE_ROWS_PROBE], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(out.stdout) == []
