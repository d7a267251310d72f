"""BCE loss, the scorer of every labelled set, confusion metrics, percent
loss, and the chi-square model comparison, whose p-value is a closed form
in the standard library's math module, so the package needs numpy alone.

"Percent loss" is 100 x mean test-set BCE. Report files are flat
`key = value` text documents with a fixed key order so they diff cleanly
and can be byte-compared across runs.
"""

import math
import sys
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from .layers import classify, predict_proba

_CLAMP = 1e-12

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

    @property
    def accuracy(self):
        return (self.tp + self.tn) / self.n


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


def bce_loss(y, yhat):
    """Binary cross-entropy with the prediction clamped away from {0, 1}."""
    yhat = min(max(yhat, _CLAMP), 1.0 - _CLAMP)
    return -(y * math.log(yhat) + (1.0 - y) * math.log(1.0 - yhat))


def bce_grad(y, yhat):
    """d bce_loss / d yhat = (yhat - y) / (yhat (1 - yhat)), same clamping."""
    yhat = min(max(yhat, _CLAMP), 1.0 - _CLAMP)
    return (yhat - y) / (yhat * (1.0 - yhat))


def confusion_matrix(predictions, labels):
    """Counts over paired binary prediction/label lists; every pair that is
    not (1, 1), (0, 0) or (1, 0) counts as fn."""
    if len(predictions) != len(labels):
        raise ValueError(
            f"length mismatch: {len(predictions)} predictions vs {len(labels)} labels")
    if not predictions:
        raise ValueError("confusion_matrix needs at least one example")
    pairs = Counter(zip(predictions, labels))
    tp, tn, fp = pairs[1, 1], pairs[0, 0], pairs[1, 0]
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=len(labels) - tp - tn - fp)


def score(labels, yhat):
    """(confusion counts of classify(p) against the labels, mean BCE) of a
    labelled set; the BCE terms are summed left to right in input order."""
    total = 0.0
    for label, p in zip(labels, yhat):
        total += bce_loss(label, p)
    return confusion_matrix([classify(p) for p in yhat], labels), total / len(labels)


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
        accuracy=counts.accuracy,
        precision_pos=precision_pos, recall_pos=recall_pos, f1_pos=f1_pos,
        precision_neg=precision_neg, recall_neg=recall_neg, f1_neg=f1_neg,
        percent_loss=100.0 * mean_test_loss,
        zero_division_flags=tuple(flags),
    )


def chi_square_sf(statistic, df):
    """Upper-tail probability of the chi-square distribution at an integer
    df >= 1, in closed form (Abramowitz & Stegun 26.4.4-5). With x =
    statistic / 2, an even df gives e^-x sum_{k<df/2} x^k / k!, and an odd
    df gives erfc(sqrt x) + e^-x sum_{k=1}^{(df-1)/2} x^(k-1/2) / G(k+1/2).
    Each term is summed from its logarithm, so none overflows; a p below
    the smallest normal float reads 0.0, and a NaN statistic gives NaN.
    """
    x = statistic / 2.0
    if x == 0.0:  # statistic 0, or the smallest subnormal halved
        return 1.0  # a log-space term would read 0 log 0
    if x == math.inf:
        return 0.0  # and here inf - inf
    log_x, a0 = math.log(x), (df % 2) / 2.0  # a0 + k is the power of x in term k
    terms = [math.exp((a0 + k) * log_x - x - math.lgamma(a0 + k + 1.0))
             for k in range(df // 2)]
    if df % 2:
        terms.append(math.erfc(math.sqrt(x)))
    p_value = min(math.fsum(terms), 1.0)  # many rounded terms can sum past 1
    return 0.0 if p_value < sys.float_info.min else p_value


def chi_square_test(table):
    """Pearson chi-square independence test over a counts table.

    Expected counts are row_total * col_total / N; the p-value is the
    chi-square upper tail at the statistic (chi_square_sf).
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
    return ChiSquareResult(statistic=statistic, degrees_of_freedom=df,
                           p_value=chi_square_sf(statistic, df))


def evaluate_model(params, test):
    """Infer-mode predictions over an encoded dataset, aggregated to a report."""
    if not test:
        raise ValueError("evaluate_model needs a non-empty dataset")
    yhat = predict_proba(params, [seq for seq, _ in test])
    return classification_report(*score([label for _, label in test], yhat))


def report_values(report):
    """Report as a plain dict keyed by REPORT_KEYS."""
    counts = asdict(report.counts)
    return {key: counts[key] if key in counts else getattr(report, key) for key in REPORT_KEYS}


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
