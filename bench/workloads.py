"""The three workloads: input preparation, timed set-up, timed operations and
the output checks that count failed operations.

Each workload class has the same four steps:

- `prepare()` generates the inputs (not timed, not part of set-up);
- `setup()` runs the program's set-up calls and returns their state;
- `op(state, i)` runs operation group i (one fit call, one CLI evaluate
  call, one request) and returns its raw output; only this is timed;
- `check(state, i, out)` returns how many operations of the group failed.

Failure rules: a non-finite loss, probability or parameter; for the default
seed, disagreement with `reference.json` (recorded at the seed commit)
beyond REFERENCE_TOL; for any seed, disagreement with per-example
`layers.model_forward` beyond EXACT_TOL on a sample of reviews.
"""

import contextlib
import dataclasses
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from opinionminer import cli, evaluation, layers, text_pipeline, training

import gen

DEFAULT_SEED = 1
REFERENCE_PATH = Path(__file__).with_name("reference.json")
# Default-seed outputs against the seed commit's values (relative for losses
# and parameter sums, absolute for probabilities); confusion counts are exact.
REFERENCE_TOL = {"loss": 1e-8, "param_l1": 1e-8, "percent_loss": 1e-9, "yhat": 1e-10}
# Outputs against a per-example model_forward recomputation.
EXACT_TOL = 1e-12
MIN_REQUESTS = 1000
RECHECK_EVERY = 50
REFERENCE_REQUESTS = 500  # predict_stream requests kept in reference.json


def _close(a, b, tol, relative=True):
    scale = max(1.0, abs(b)) if relative else 1.0
    return math.isfinite(a) and abs(a - b) <= tol * scale


def _stock_config(shape, seed, **overrides):
    return training.TrainConfig(
        embedding_dim=shape.embedding_dim, gru_units=shape.gru_units,
        lstm_units=shape.lstm_units, batch_size=shape.batch_size,
        max_len=shape.max_len, vocab_size=shape.vocab_size, seed=seed, **overrides,
    ).validate()


def chunk_size(batch_size, validation_fraction=0.1):
    """Smallest balanced chunk whose stratified split leaves exactly one batch."""
    per_class = 1
    while True:
        held = min(max(math.floor(per_class * validation_fraction + 1e-9), 1), per_class - 1)
        if per_class - held == batch_size // 2:
            return 2 * per_class
        per_class += 1


def make_checkpoint(seed, shape, words, path):
    """A full-size (or toy) checkpoint over a Zipf vocabulary filled to the cap.

    The weights are the seeded initialization: scoring cost does not depend on
    their values, and random weights keep input generation cheap.
    """
    corpus = gen.vocabulary_corpus(seed, shape, words)
    cleaned = text_pipeline.LabeledCorpus.from_reviews(
        text_pipeline.Review(text, label) for text, label in zip(corpus.clean, corpus.labels))
    config = _stock_config(shape, seed)
    vocab = text_pipeline.build_vocabulary(cleaned, config.vocab_size, config.min_freq)
    params = layers.init_model_params(vocab.size, config.embedding_dim, config.gru_units,
                                      config.lstm_units, stack=config.stack, seed=seed)
    training.save_checkpoint(params, config, vocab, path,
                             stopwords=text_pipeline.default_stopwords(),
                             whitelist=text_pipeline.DEFAULT_WHITELIST)
    return params


@dataclass
class TrainState:
    chunks: list  # (train, validation) encoded pairs, one per fit call
    params: object


@dataclass
class OpSize:
    examples: int   # examples processed (the throughput numerator)
    attempted: int  # operations in the group, as `attempted` counts them


class Workload:
    name = ""
    min_ops = 1     # untraced runs go on until this many groups and --seconds
    traced_ops = 1  # traced runs do exactly this many groups, so counts repeat

    def __init__(self, seed, shape, workdir, reference=None):
        self.seed = seed
        self.shape = shape
        self.workdir = Path(workdir)
        self.reference = reference  # list of per-op reference outputs, or None
        self.profile = None
        self.recorded = []          # per-op outputs, for --write-reference

    def _words(self):
        return gen.word_list(self.seed, self.shape, text_pipeline.default_stopwords())

    def _reference(self, i):
        if self.reference is not None and i < len(self.reference):
            return self.reference[i]
        return None


class TrainReviews(Workload):
    """`training.fit` for one epoch per chunk of 128 + 14 reviews, as
    `cli.run_train` wires it (clean, balance, vocabulary, stratified split,
    encode, init), continuing from the previous chunk's parameters."""

    name = "train_reviews"

    def prepare(self):
        self.chunk = chunk_size(self.shape.batch_size)
        self.config = _stock_config(self.shape, self.seed, max_epochs=1)
        corpus = gen.vocabulary_corpus(self.seed, self.shape, self._words(),
                                       stream=self.name, block=self.chunk)
        self.csv = self.workdir / "train.csv"
        gen.write_csv(self.csv, corpus)
        self.profile = gen.length_profile(corpus.lengths(), self.shape.max_len)

    def setup(self):
        config = self.config
        corpus = text_pipeline.load_dataset(str(self.csv), "csv")
        cleaned = text_pipeline.clean_corpus(corpus, text_pipeline.default_stopwords(),
                                             text_pipeline.DEFAULT_WHITELIST)
        cleaned = text_pipeline.balance_classes(cleaned, config.seed)
        vocab = text_pipeline.build_vocabulary(cleaned, config.vocab_size, config.min_freq)
        chunks = []
        for start in range(0, len(cleaned) - self.chunk + 1, self.chunk):
            part = text_pipeline.LabeledCorpus.from_reviews(
                cleaned.reviews[start:start + self.chunk])
            fit_train, fit_val = text_pipeline.stratified_split(
                part, config.validation_fraction, config.seed)
            chunks.append((text_pipeline.encode_corpus(fit_train, vocab, config.max_len),
                           text_pipeline.encode_corpus(fit_val, vocab, config.max_len)))
        params = layers.init_model_params(vocab.size, config.embedding_dim, config.gru_units,
                                          config.lstm_units, stack=config.stack,
                                          seed=config.seed)
        return TrainState(chunks, params)

    def op(self, state, i):
        fit_train, fit_val = state.chunks[i % len(state.chunks)]
        params, history = training.fit(self.config, fit_train, fit_val, params=state.params)
        state.params = params
        return history.records[0], params

    def size(self, state, i):
        n = len(state.chunks[i % len(state.chunks)][0])
        return OpSize(examples=n, attempted=math.ceil(n / self.config.batch_size))

    def corrupt(self, out):
        record, params = out
        return dataclasses.replace(record, val_loss=float("nan")), params

    def check(self, state, i, out):
        record, params = out
        attempted = self.size(state, i).attempted
        values = {"train_loss": record.train_loss, "train_accuracy": record.train_accuracy,
                  "val_loss": record.val_loss, "val_accuracy": record.val_accuracy,
                  "param_l1": float(sum(np.abs(a).sum() for _, a in params.named_arrays()))}
        self.recorded.append(values)
        if not all(math.isfinite(v) for v in values.values()):
            return attempted
        if not all(np.isfinite(a).all() for _, a in params.named_arrays()):
            return attempted
        # validation loss and accuracy from per-example model_forward
        fit_val = state.chunks[i % len(state.chunks)][1]
        losses, correct = 0.0, 0
        for seq, label in fit_val:
            yhat, _ = layers.model_forward(params, seq, mode="infer")
            losses += training.bce_loss(label, yhat)
            correct += int(layers.classify(yhat) == label)
        if not _close(record.val_loss, losses / len(fit_val), EXACT_TOL) \
                or record.val_accuracy != correct / len(fit_val):
            return attempted
        ref = self._reference(i)
        if ref is not None:
            for key in ("train_loss", "val_loss"):
                if not _close(values[key], ref[key], REFERENCE_TOL["loss"]):
                    return attempted
            for key in ("train_accuracy", "val_accuracy"):
                if values[key] != ref[key]:
                    return attempted
            if not _close(values["param_l1"], ref["param_l1"], REFERENCE_TOL["param_l1"]):
                return attempted
        return 0


class ScoreReviews(Workload):
    """`opinionminer evaluate` through `cli.main`, one call per 128-review CSV."""

    name = "score_reviews"
    traced_ops = 8

    def prepare(self):
        words = self._words()
        self.checkpoint = self.workdir / "model.ckpt"
        make_checkpoint(self.seed, self.shape, words, self.checkpoint)
        self.files = []
        lengths = []
        for index in range(self.shape.score_files):
            corpus = gen.score_file(self.seed, self.shape, words, index)
            path = self.workdir / f"score_{index:02d}.csv"
            gen.write_csv(path, corpus)
            self.files.append(path)
            lengths.extend(corpus.lengths())
        self.profile = gen.length_profile(lengths, self.shape.max_len)

    def setup(self):
        return training.validate_checkpoint(training.load_checkpoint(str(self.checkpoint)))

    def op(self, state, i):
        index = i % len(self.files)
        out_dir = self.workdir / f"eval_{index:02d}"
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(["evaluate", "--checkpoint", str(self.checkpoint),
                             "--data", str(self.files[index]), "--out", str(out_dir)])
        return code, printed.getvalue(), out_dir / cli.REPORT_NAME

    def size(self, state, i):
        return OpSize(examples=self.shape.score_file_reviews,
                      attempted=self.shape.score_file_reviews)

    def corrupt(self, out):
        code, printed, report = out
        text = report.read_text(encoding="utf-8")
        values = evaluation.parse_report(text)
        report.write_text(text.replace(f"tp = {values['tp']}\n", f"tp = {values['tp'] + 1}\n"),
                          encoding="utf-8")
        return out

    def _recompute(self, state, path):
        corpus = text_pipeline.load_dataset(str(path), "csv")
        cleaned = text_pipeline.clean_corpus(corpus, state.stopwords, state.whitelist)
        encoded = text_pipeline.encode_corpus(cleaned, state.vocab, state.config.max_len)
        predictions, labels, loss = [], [], 0.0
        for seq, label in encoded:
            yhat, _ = layers.model_forward(state.params, seq, mode="infer")
            predictions.append(layers.classify(yhat))
            labels.append(label)
            loss += training.bce_loss(label, yhat)
        counts = evaluation.confusion_matrix(predictions, labels)
        return {"tp": counts.tp, "tn": counts.tn, "fp": counts.fp, "fn": counts.fn,
                "percent_loss": 100.0 * loss / len(encoded)}

    def check(self, state, i, out):
        code, printed, report = out
        attempted = self.size(state, i).attempted
        if code != 0 or not report.is_file():
            self.recorded.append(None)
            return attempted
        values = evaluation.parse_report(report.read_text(encoding="utf-8"))
        self.recorded.append({k: values[k] for k in ("tp", "tn", "fp", "fn", "percent_loss")})
        if values["n"] != attempted or f"n={attempted} " not in printed:
            return attempted
        if not all(math.isfinite(float(v)) for v in values.values()):
            return attempted
        counts = ("tp", "tn", "fp", "fn")
        if i == 0:
            again = self._recompute(state, self.files[0])
            if any(values[k] != again[k] for k in counts) or \
                    not _close(values["percent_loss"], again["percent_loss"], EXACT_TOL):
                return attempted
        ref = self._reference(i)
        if ref is not None:
            if any(values[k] != ref[k] for k in counts) or not _close(
                    values["percent_loss"], ref["percent_loss"], REFERENCE_TOL["percent_loss"]):
                return attempted
        return 0


class PredictStream(Workload):
    """One closed-loop client: clean_text -> encode_sequence -> model_forward ->
    classify per request, the library path `cli.run_predict` uses."""

    name = "predict_stream"
    min_ops = MIN_REQUESTS
    traced_ops = MIN_REQUESTS

    def prepare(self):
        words = self._words()
        self.checkpoint = self.workdir / "model.ckpt"
        make_checkpoint(self.seed, self.shape, words, self.checkpoint)
        corpus = gen.predict_texts(self.seed, self.shape, words)
        self.texts = corpus.raw
        (self.workdir / "requests.txt").write_text("\n".join(self.texts) + "\n",
                                                   encoding="utf-8")
        self.profile = gen.length_profile(corpus.lengths(), self.shape.max_len)

    def setup(self):
        return training.validate_checkpoint(training.load_checkpoint(str(self.checkpoint)))

    def op(self, state, i):
        cleaned = text_pipeline.clean_text(self.texts[i % len(self.texts)],
                                           state.stopwords, state.whitelist)
        seq = text_pipeline.encode_sequence(cleaned, state.vocab, state.config.max_len)
        yhat, _ = layers.model_forward(state.params, seq, mode="infer")
        return yhat, layers.classify(yhat), seq

    def size(self, state, i):
        return OpSize(examples=1, attempted=1)

    def corrupt(self, out):
        return float("nan"), out[1], out[2]

    def check(self, state, i, out):
        yhat, label, seq = out
        if i < REFERENCE_REQUESTS:
            self.recorded.append(yhat)
        if not (math.isfinite(yhat) and 0.0 <= yhat <= 1.0) or label != int(yhat >= 0.5):
            return 1
        ref = self._reference(i % len(self.texts))
        if ref is not None and not _close(yhat, ref, REFERENCE_TOL["yhat"], relative=False):
            return 1
        if i % RECHECK_EVERY == 0:
            again, _ = layers.model_forward(state.params, seq, mode="infer")
            if not _close(yhat, again, EXACT_TOL, relative=False):
                return 1
        return 0


WORKLOADS = {w.name: w for w in (TrainReviews, ScoreReviews, PredictStream)}


def load_reference(name, seed, shape):
    """Per-op reference outputs for the default seed at full size, else None."""
    if seed != DEFAULT_SEED or shape.name != "full" or not REFERENCE_PATH.is_file():
        return None
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8")).get(name)


def save_reference(name, outputs):
    data = {}
    if REFERENCE_PATH.is_file():
        data = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    data["seed"] = DEFAULT_SEED
    data[name] = outputs
    REFERENCE_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
