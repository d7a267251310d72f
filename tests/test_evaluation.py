import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc

from opinionminer.evaluation import (
    ConfusionCounts,
    chi_square_sf,
    chi_square_test,
    classification_report,
    confusion_matrix,
    evaluate_model,
    format_report,
    parse_report,
)
from opinionminer.layers import init_model_params
from opinionminer.text_pipeline import TokenSequence
from opinionminer.training import evaluate_loss

# Reference confusion counts for four benchmark models (11,439 test
# reviews each); the HBGRU row drives the metric reproduction checks.
MODEL_COUNTS = {
    "lstm": (5568, 4962, 677, 232),
    "cnn_lstm": (5710, 4722, 769, 238),
    "gru_lstm": (5336, 5244, 395, 464),
    "hbgru_lstm": (5573, 5352, 282, 232),
}


def preds_labels_for(tp, tn, fp, fn):
    preds = [1] * tp + [0] * tn + [1] * fp + [0] * fn
    labels = [1] * tp + [0] * tn + [0] * fp + [1] * fn
    return preds, labels


class TestConfusionMatrix:
    def test_perfect(self):
        counts = confusion_matrix([1, 0, 1], [1, 0, 1])
        assert (counts.tp, counts.tn, counts.fp, counts.fn) == (2, 1, 0, 0)

    def test_inverted(self):
        counts = confusion_matrix([0, 1, 0], [1, 0, 1])
        assert counts.tp == 0 and counts.tn == 0
        assert (counts.fp, counts.fn) == (1, 2)

    def test_reproduces_reference_counts(self):
        preds, labels = preds_labels_for(*MODEL_COUNTS["hbgru_lstm"])
        counts = confusion_matrix(preds, labels)
        assert (counts.tp, counts.tn, counts.fp, counts.fn) == (5573, 5352, 282, 232)
        assert counts.n == 11439

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion_matrix([1], [1, 0])

    def test_empty(self):
        with pytest.raises(ValueError):
            confusion_matrix([], [])

    def test_count_conservation_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 50))
            preds = list(rng.integers(0, 2, size=n))
            labels = list(rng.integers(0, 2, size=n))
            assert confusion_matrix(preds, labels).n == n


class TestClassificationReport:
    def test_reference_row_metrics(self):
        counts = ConfusionCounts(5573, 5352, 282, 232)
        report = classification_report(counts, mean_test_loss=0.133)
        assert report.accuracy == pytest.approx(0.9551, abs=1e-4)
        assert report.recall_pos == pytest.approx(0.9600, abs=1e-4)
        assert report.recall_neg == pytest.approx(0.9500, abs=1e-4)
        assert report.percent_loss == pytest.approx(13.3, abs=1e-9)

    def test_degenerate_all_tp(self):
        report = classification_report(ConfusionCounts(10, 0, 0, 0), 0.0)
        assert report.accuracy == 1.0
        assert report.recall_pos == 1.0
        assert report.precision_neg == 0.0
        assert report.recall_neg == 0.0
        assert "precision_neg" in report.zero_division_flags
        assert "recall_neg" in report.zero_division_flags

    def test_f1_is_harmonic_mean(self):
        report = classification_report(ConfusionCounts(8, 5, 3, 2), 0.1)
        p, r = report.precision_pos, report.recall_pos
        assert report.f1_pos == pytest.approx(2 * p * r / (p + r), abs=1e-15)

    def test_metric_bounds_and_f1_between(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            tp, tn, fp, fn = (int(x) for x in rng.integers(0, 40, size=4))
            if tp + tn + fp + fn == 0:
                continue
            report = classification_report(ConfusionCounts(tp, tn, fp, fn), 0.2)
            metrics = [report.accuracy, report.precision_pos, report.recall_pos,
                       report.f1_pos, report.precision_neg, report.recall_neg,
                       report.f1_neg]
            assert all(0.0 <= m <= 1.0 for m in metrics)
            if report.precision_pos > 0 and report.recall_pos > 0:
                lo = min(report.precision_pos, report.recall_pos)
                hi = max(report.precision_pos, report.recall_pos)
                assert lo - 1e-12 <= report.f1_pos <= hi + 1e-12


# derandomized: where p sits at a rounding boundary of %.6e, the closed form
# and SciPy may print different digits, so a run must not draw new examples
@settings(max_examples=500, deadline=None, derandomize=True)
@given(statistic=st.floats(0.0, 1e4), df=st.integers(1, 300))
@example(statistic=495.6, df=9)
@example(statistic=1e-300, df=300)
@example(statistic=1486.4, df=2)
@example(statistic=5e-324, df=1)
def test_chi_square_sf_matches_gammaincc(statistic, df):
    p = chi_square_sf(statistic, df)
    want = float(gammaincc(df / 2.0, statistic / 2.0))
    assert 0.0 <= p <= 1.0
    if want >= sys.float_info.min:
        assert abs(p - want) <= 1e-12 * want
        assert f"{p:.6e}" == f"{want:.6e}"
    else:  # SciPy's subnormal tail reads 0.0
        assert p == 0.0


@pytest.mark.parametrize("df", [1, 2, 9, 300])
def test_chi_square_sf_at_statistic_zero_is_one(df):
    assert chi_square_sf(0.0, df) == 1.0


@pytest.mark.parametrize("statistic, df", [(1486.4, 2), (math.inf, 1), (math.inf, 9)])
def test_chi_square_sf_below_the_normal_floats_is_zero(statistic, df):
    # at df 2 and 1486.4 the raw sum is 1.5e-323, a subnormal
    assert chi_square_sf(statistic, df) == 0.0


@pytest.mark.parametrize("df", [1, 2, 9])
def test_chi_square_sf_of_nan_is_nan(df):
    # as gammaincc gives: an overflowed table's statistic is NaN, not a p of 0
    assert math.isnan(chi_square_sf(math.nan, df))
    assert math.isnan(gammaincc(df / 2.0, math.nan))


class TestChiSquare:
    def table(self):
        return [list(MODEL_COUNTS[m]) for m in ("lstm", "cnn_lstm", "gru_lstm", "hbgru_lstm")]

    def test_reference_statistic(self):
        result = chi_square_test(self.table())
        assert abs(result.statistic - 495.60) <= 0.5
        assert result.degrees_of_freedom == 9
        assert result.p_value == pytest.approx(5.0244e-101, rel=1e-3)

    def test_proportional_rows_statistic_zero(self):
        result = chi_square_test([[10, 20, 5], [20, 40, 10]])
        assert result.statistic == pytest.approx(0.0, abs=1e-9)
        assert result.p_value == pytest.approx(1.0, abs=1e-9)

    def test_hand_computed_2x2(self):
        result = chi_square_test([[10, 0], [0, 10]])
        assert result.statistic == pytest.approx(20.0, abs=1e-12)
        assert result.degrees_of_freedom == 1

    def test_permutation_invariance(self):
        base = chi_square_test(self.table()).statistic
        rows = self.table()
        assert chi_square_test(rows[::-1]).statistic == pytest.approx(base, rel=1e-12)
        cols = [list(r[::-1]) for r in rows]
        assert chi_square_test(cols).statistic == pytest.approx(base, rel=1e-12)

    def test_integer_scaling(self):
        base = chi_square_test([[12, 5], [7, 9]]).statistic
        for k in (2, 3, 10):
            scaled = chi_square_test([[12 * k, 5 * k], [7 * k, 9 * k]]).statistic
            assert scaled == pytest.approx(k * base, rel=1e-12)

    def test_p_monotone_in_statistic(self):
        stats = [chi_square_test(t).statistic for t in
                 ([[10, 10], [10, 11]], [[10, 10], [10, 30]], [[10, 10], [10, 200]])]
        ps = [chi_square_test(t).p_value for t in
              ([[10, 10], [10, 11]], [[10, 10], [10, 30]], [[10, 10], [10, 200]])]
        assert stats[0] < stats[1] < stats[2]
        assert ps[0] > ps[1] > ps[2]

    def test_zero_marginal_rejected(self):
        with pytest.raises(ValueError):
            chi_square_test([[0, 0], [1, 2]])
        with pytest.raises(ValueError):
            chi_square_test([[0, 1], [0, 2]])

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            chi_square_test([[1.5, 2], [3, 4]])

    def test_small_table_rejected(self):
        with pytest.raises(ValueError):
            chi_square_test([[1, 2]])


class TestEvaluateModel:
    def encoded(self, labels):
        return [(TokenSequence(np.array([2 + i % 3])), y) for i, y in enumerate(labels)]

    def test_zero_model_is_constant_positive(self):
        params = init_model_params(vocab_size=6, embedding_dim=2, gru_units=2,
                                   lstm_units=2, seed=0)
        for _, arr in params.named_arrays():
            arr[...] = 0.0
        labels = [1, 0, 1, 1, 0]
        report = evaluate_model(params, self.encoded(labels))
        # every yhat = 0.5 classifies positive on the boundary
        assert report.counts.tp == 3 and report.counts.fp == 2
        assert report.accuracy == pytest.approx(3 / 5)

    def test_n_counts_degenerates(self):
        params = init_model_params(vocab_size=6, embedding_dim=2, gru_units=2,
                                   lstm_units=2, seed=0)
        data = self.encoded([1, 0])
        data.append((TokenSequence(np.zeros(0, dtype=np.int64)), 1))
        report = evaluate_model(params, data)
        assert report.n == 3

    def test_empty_rejected(self):
        params = init_model_params(vocab_size=6, embedding_dim=2, gru_units=2,
                                   lstm_units=2, seed=0)
        with pytest.raises(ValueError):
            evaluate_model(params, [])

    def test_agrees_with_evaluate_loss_bit_for_bit(self):
        params = init_model_params(vocab_size=6, embedding_dim=3, gru_units=2,
                                   lstm_units=2, seed=4)
        rng = np.random.default_rng(1)
        data = [(TokenSequence(rng.integers(1, 6, size=int(rng.integers(1, 7)))), int(y))
                for y in rng.integers(0, 2, size=40)]
        loss, accuracy = evaluate_loss(params, data)
        report = evaluate_model(params, data)
        assert 0 < report.counts.tp + report.counts.tn < report.n
        assert report.percent_loss == 100.0 * loss
        assert report.accuracy == accuracy


class TestReportSerialization:
    def test_round_trip(self):
        counts = ConfusionCounts(5573, 5352, 282, 232)
        report = classification_report(counts, mean_test_loss=0.133)
        values = parse_report(format_report(report))
        assert values["n"] == 11439
        assert values["tp"] == 5573
        assert values["accuracy"] == report.accuracy
        assert values["percent_loss"] == report.percent_loss

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            parse_report("n = 3\ntp = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            parse_report("auc = 0.5\n")
