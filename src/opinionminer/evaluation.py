"""Confusion-matrix metrics, percent loss, and the chi-square model comparison.

"Percent loss" is 100 x mean test-set BCE. Report files are flat
`key = value` text documents with a fixed key order so they diff cleanly
and can be byte-compared across runs.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc

from .layers import classify, predict_proba
from .training import bce_loss

REPORT_KEYS = (
    "n", "tp", "tn", "fp", "fn",
    "accuracy",
    "precision_pos", "recall_pos", "f1_pos",
    "precision_neg", "recall_neg", "f1_neg",
    "percent_loss",
)


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def n(self):
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class ClassificationReport:
    counts: ConfusionCounts
    accuracy: float
    precision_pos: float
    recall_pos: float
    f1_pos: float
    precision_neg: float
    recall_neg: float
    f1_neg: float
    percent_loss: float
    zero_division_flags: tuple = ()

    @property
    def n(self):
        return self.counts.n


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    degrees_of_freedom: int
    p_value: float


def confusion_matrix(predictions, labels):
    """Counts over paired binary prediction/label lists."""
    if len(predictions) != len(labels):
        raise ValueError(
            f"length mismatch: {len(predictions)} predictions vs {len(labels)} labels")
    if not predictions:
        raise ValueError("confusion_matrix needs at least one example")
    tp = tn = fp = fn = 0
    for p, y in zip(predictions, labels):
        if p == 1 and y == 1:
            tp += 1
        elif p == 0 and y == 0:
            tn += 1
        elif p == 1 and y == 0:
            fp += 1
        else:
            fn += 1
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)


def _ratio(num, den, key, flags):
    if den == 0:
        flags.append(key)
        return 0.0
    return num / den


def classification_report(counts, mean_test_loss):
    """Accuracy plus per-class precision/recall/F1 and percent loss.

    Zero denominators yield a 0.0 metric and the metric name is recorded in
    zero_division_flags.
    """
    if counts.n < 1:
        raise ValueError("classification_report needs at least one example")
    flags = []
    precision_pos = _ratio(counts.tp, counts.tp + counts.fp, "precision_pos", flags)
    recall_pos = _ratio(counts.tp, counts.tp + counts.fn, "recall_pos", flags)
    precision_neg = _ratio(counts.tn, counts.tn + counts.fn, "precision_neg", flags)
    recall_neg = _ratio(counts.tn, counts.tn + counts.fp, "recall_neg", flags)
    f1_pos = _ratio(2.0 * precision_pos * recall_pos, precision_pos + recall_pos,
                    "f1_pos", flags)
    f1_neg = _ratio(2.0 * precision_neg * recall_neg, precision_neg + recall_neg,
                    "f1_neg", flags)
    return ClassificationReport(
        counts=counts,
        accuracy=(counts.tp + counts.tn) / counts.n,
        precision_pos=precision_pos, recall_pos=recall_pos, f1_pos=f1_pos,
        precision_neg=precision_neg, recall_neg=recall_neg, f1_neg=f1_neg,
        percent_loss=100.0 * mean_test_loss,
        zero_division_flags=tuple(flags),
    )


def chi_square_test(table):
    """Pearson chi-square independence test over a counts table.

    Expected counts are row_total * col_total / N; the p-value is the
    upper-tail probability Q(df/2, statistic/2) of the chi-square
    distribution (regularized incomplete gamma).
    """
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2 or table.shape[0] < 2 or table.shape[1] < 2:
        raise ValueError("chi_square_test needs a table with >= 2 rows and >= 2 columns")
    if np.any(table < 0) or not np.all(table == np.floor(table)):
        raise ValueError("chi_square_test needs non-negative integer counts")
    row_sums = table.sum(axis=1)
    col_sums = table.sum(axis=0)
    if np.any(row_sums == 0) or np.any(col_sums == 0):
        raise ValueError("chi_square_test: every row and column total must be > 0")
    expected = np.outer(row_sums, col_sums) / table.sum()
    statistic = float(((table - expected) ** 2 / expected).sum())
    df = (table.shape[0] - 1) * (table.shape[1] - 1)
    p_value = float(gammaincc(df / 2.0, statistic / 2.0))
    return ChiSquareResult(statistic=statistic, degrees_of_freedom=df, p_value=p_value)


def evaluate_model(params, test):
    """Infer-mode predictions over an encoded dataset, aggregated to a report."""
    if not test:
        raise ValueError("evaluate_model needs a non-empty dataset")
    yhat = predict_proba(params, [seq for seq, _ in test])
    labels = [label for _, label in test]
    total_loss = 0.0
    for label, p in zip(labels, yhat):
        total_loss += bce_loss(label, p)
    counts = confusion_matrix([classify(p) for p in yhat], labels)
    return classification_report(counts, total_loss / len(test))


def report_values(report):
    """Report as a plain dict keyed by REPORT_KEYS."""
    return {
        "n": report.n,
        "tp": report.counts.tp, "tn": report.counts.tn,
        "fp": report.counts.fp, "fn": report.counts.fn,
        "accuracy": report.accuracy,
        "precision_pos": report.precision_pos,
        "recall_pos": report.recall_pos,
        "f1_pos": report.f1_pos,
        "precision_neg": report.precision_neg,
        "recall_neg": report.recall_neg,
        "f1_neg": report.f1_neg,
        "percent_loss": report.percent_loss,
    }


def format_report(report):
    """Serialize a report to the flat key = value document."""
    values = report_values(report)
    return "".join(f"{key} = {values[key]!r}\n" for key in REPORT_KEYS)


def parse_report(text):
    """Parse the flat key = value document back into a dict."""
    values = {}
    for line_num, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"report line {line_num}: expected 'key = value'")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in REPORT_KEYS:
            raise ValueError(f"report line {line_num}: unknown key {key!r}")
        raw = raw.strip()
        values[key] = int(raw) if key in ("n", "tp", "tn", "fp", "fn") else float(raw)
    missing = [k for k in REPORT_KEYS if k not in values]
    if missing:
        raise ValueError(f"report is missing keys: {', '.join(missing)}")
    return values
