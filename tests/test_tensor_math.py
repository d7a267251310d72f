import warnings

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import expit

from _memory import traced_peak
from opinionminer.layers import (
    STACKS,
    LstmParams,
    Packing,
    init_model_params,
    lstm_scan,
    param_shapes,
)
from opinionminer.tensor_math import affine, glorot_uniform, sigmoid

# the stock sizes: vocab_size, embedding_dim, gru_units, lstm_units
FULL_SIZE = (20000, 128, 256, 128)


class TestAffine:
    def test_identity(self):
        v = np.array([3.0, -1.0])
        npt.assert_array_equal(affine(np.eye(2), v, np.zeros(2)), v)

    def test_hand_multiplication(self):
        W = np.array([[1.0, 2.0], [0.0, 1.0]])
        out = affine(W, np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        npt.assert_array_equal(out, [4.0, 1.0])

    def test_zero_row_returns_bias(self):
        W = np.array([[0.0, 0.0], [1.0, 2.0]])
        out = affine(W, np.array([9.0, -4.0]), np.array([5.0, 5.0]))
        assert out[0] == 5.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            affine(np.eye(2), np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError):
            affine(np.eye(2), np.zeros(2), np.zeros(3))

    @pytest.mark.parametrize("W, v, b", [(np.zeros(2), np.zeros(2), np.zeros(2)),
                                         (np.eye(2), np.float64(1.0), np.zeros(2)),
                                         (np.eye(2), np.zeros(2), np.zeros((1, 2)))])
    def test_rank_mismatch(self, W, v, b):
        with pytest.raises(ValueError, match="affine expects a 2-D matrix, an array of "
                                             "vectors and a 1-D bias"):
            affine(W, v, b)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            W = rng.normal(size=(4, 6))
            v = rng.normal(size=6)
            alpha = float(rng.normal())
            lhs = affine(W, alpha * v, np.zeros(4))
            rhs = alpha * affine(W, v, np.zeros(4))
            npt.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestActivate:
    def test_sigmoid_zero(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_sigmoid_scalar_zero_is_exactly_half(self):
        assert sigmoid(0.0) == 0.5

    def test_sigmoid_matches_the_exp_form(self):
        # the tanh form against scipy's expit, within 2 ulp of 1.0, over a
        # dense grid reaching past both saturated ends
        x = np.concatenate([np.linspace(-750.0, 750.0, 300_001), [-745.2, -38.0, 38.0]])
        assert np.abs(sigmoid(x) - expit(x)).max() <= 4.5e-16

    def test_sigmoid_extremes_raise_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                s = sigmoid(np.array([-1e308, 1e308, -np.finfo(float).max]))
        npt.assert_array_equal(s, [0.0, 1.0, 0.0])

    def test_sigmoid_out_is_returned(self):
        x = np.array([-3.0, 0.0, 2.0])
        want = expit(x)
        out = np.empty(3)
        assert sigmoid(x, out=out) is out
        npt.assert_allclose(out, want, rtol=0, atol=4.5e-16)
        assert sigmoid(x, out=x) is x  # in place
        npt.assert_array_equal(x, out)

    def test_tanh_zero(self):
        # a zero-parameter LSTM from the zero state has both tanh sites at 0
        p = LstmParams(W=np.zeros((4, 2)), b=np.zeros(4))
        trace = lstm_scan(p, np.full((1, 1), 3.0), Packing([1]))
        assert trace.gates[0, 3] == 0.0 and trace.c[0, 0] == 0.0  # c_cand, the 4th gate
        assert trace.tanh_c(0, 1)[0, 0] == 0.0 and trace.h[0, 0] == 0.0

    def test_sigmoid_symmetry(self):
        for x in (0.5, 2.0, 10.0):
            lhs = sigmoid(np.array([-x]))[0]
            rhs = 1.0 - sigmoid(np.array([x]))[0]
            assert abs(lhs - rhs) < 1e-12

    def test_ranges_no_overflow(self):
        # finite and in range across |x| <= 50; strictly open where float64
        # can still represent it (sigmoid saturates to 1.0 past ~x=37,
        # tanh past ~x=19)
        x = np.linspace(-50.0, 50.0, 2001)
        s = sigmoid(x)
        t = np.tanh(x)
        assert np.all(np.isfinite(s)) and np.all(np.isfinite(t))
        assert np.all((s >= 0) & (s <= 1))
        assert np.all((t >= -1) & (t <= 1))
        x = np.linspace(-36.0, 36.0, 2001)
        s = sigmoid(x)
        assert np.all((s > 0) & (s < 1))
        x = np.linspace(-18.0, 18.0, 2001)
        t = np.tanh(x)
        assert np.all((t > -1) & (t < 1))


class TestSeededInit:
    """Glorot-uniform weights and zero biases, drawn by init_model_params."""

    @staticmethod
    def arrays(seed, **shape):
        shape = {"vocab_size": 6, "embedding_dim": 3, "gru_units": 2, "lstm_units": 2,
                 **shape}
        return dict(init_model_params(seed=seed, **shape).named_arrays())

    def test_determinism(self):
        a, b = self.arrays(42), self.arrays(42)
        for name in a:
            npt.assert_array_equal(a[name], b[name], err_msg=name)

    def test_seed_changes_output(self):
        a, b = self.arrays(42), self.arrays(43)
        assert all(np.any(a[name] != b[name]) for name in a if a[name].ndim == 2)

    def test_bound_and_mean(self):
        arrays = self.arrays(7, vocab_size=101, embedding_dim=100)
        for name, arr in arrays.items():
            if arr.ndim == 1:
                npt.assert_array_equal(arr, 0.0, err_msg=name)
            else:
                assert np.all(np.abs(arr) < np.sqrt(6.0 / sum(arr.shape))), name
        E = arrays["embedding.E"][1:]  # row 0 is the zeroed PAD row
        assert abs(E.mean()) < 0.02

    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (768, 384), (20002, 128)])
    def test_in_place_draw_is_uniform_bit_for_bit(self, shape):
        s = np.sqrt(6.0 / sum(shape))
        want = np.random.default_rng(5).uniform(-s, s, size=shape)
        out = np.empty(shape)
        assert glorot_uniform(np.random.default_rng(5), out) is out
        assert out.tobytes() == want.tobytes()

    @staticmethod
    def dict_init(stack, sizes, seed):
        """The oracle: one rng.uniform draw per weight into its own array, in
        checkpoint order, zero biases and a zero PAD row."""
        rng = np.random.default_rng(seed)
        arrays = {}
        for name, shape in param_shapes(stack, *sizes).items():
            if len(shape) == 2:
                s = np.sqrt(6.0 / sum(shape))
                arrays[name] = rng.uniform(-s, s, size=shape)
            else:
                arrays[name] = np.zeros(shape)
        arrays["embedding.E"][0, :] = 0.0
        return arrays

    @pytest.mark.parametrize("stack", sorted(STACKS))
    @pytest.mark.parametrize("sizes", [(11, 3, 4, 5), FULL_SIZE])
    def test_init_equals_the_dict_of_draws_byte_for_byte(self, stack, sizes):
        want = self.dict_init(stack, sizes, seed=3)
        got = init_model_params(*sizes, stack=stack, seed=3)
        assert [name for name, _ in got.named_arrays()] == list(want)
        for name, arr in got.named_arrays():
            assert arr.tobytes() == want[name].tobytes(), name

    def test_full_size_init_allocates_the_vector_once(self):
        with traced_peak() as peak:
            params = init_model_params(*FULL_SIZE, seed=3)
        assert peak.bytes < 1.1 * params.flat.nbytes
