"""Batch command-line interface: train, evaluate, predict, compare.

Exit codes are a stable contract: 0 success, 2 config/usage error, 3
data/IO error or out of memory, 4 model mismatch, 1 internal failure.
Configuration comes from a `key = value` file (`#` starts a comment line)
with every key overridable by a command-line flag.
"""

import argparse
import dataclasses
import os
import stat
import sys
import tempfile
from pathlib import Path

import numpy as np

from .evaluation import (
    chi_square_test,
    evaluate_model,
    format_report,
    parse_report,
    report_values,
)
from .layers import classify, init_model_params, predict_proba
from .text_pipeline import (
    DATASET_FORMATS,
    DEFAULT_WHITELIST,
    DataError,
    balance_classes,
    build_vocabulary,
    clean_corpus,
    clean_text,
    default_stopwords,
    encode_corpus,
    encode_sequence,
    load_dataset,
    load_token_file,
    read_lines,
    stratified_split,
)
from .training import (
    CheckpointError,
    ConfigError,
    ModelMismatchError,
    TrainConfig,
    fit,
    load_checkpoint,
    replace_file,
    save_checkpoint,
)

CHECKPOINT_NAME = "model.ckpt"
HISTORY_NAME = "history.txt"
REPORT_NAME = "report.txt"

_TRAIN_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(TrainConfig)}

# Non-TrainConfig keys accepted in the config file, with defaults.
_EXTRA_DEFAULTS = {
    "data": "",
    "data_format": "csv",
    "out": ".",
    "stopwords": "",
    "whitelist": "",
    "embeddings": "",
    "balance": "true",
    "deterministic": "true",
}


def _parse_bool(raw, key):
    low = raw.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"invalid value for {key}: {raw!r} (expected true/false)")


def parse_config_file(path):
    """Read `key = value` lines; blank lines and `#` comment lines ignored."""
    values = {}
    for line_num, line in enumerate(read_lines(path, ConfigError), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}: line {line_num}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        values[key.strip()] = raw.strip()
    return values


def build_settings(file_values, overrides=None):
    """Merge config-file values and flag overrides into (TrainConfig, extras).

    Unknown keys are rejected; every known key has a default. Flag overrides
    win over file values.
    """
    merged = dict(file_values)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = str(value)
    config_kwargs = {}
    extras = dict(_EXTRA_DEFAULTS)
    for key, raw in merged.items():
        if key in _TRAIN_FIELD_TYPES:
            try:
                config_kwargs[key] = _TRAIN_FIELD_TYPES[key](raw)  # int, float or str
            except ValueError as exc:
                raise ConfigError(f"invalid value for {key}: {raw!r}") from exc
        elif key in _EXTRA_DEFAULTS:
            extras[key] = raw
        else:
            raise ConfigError(f"unknown config key: {key}")
    config = TrainConfig(**config_kwargs)
    config.validate()
    if extras["data_format"] not in DATASET_FORMATS:
        raise ConfigError(f"invalid value for data_format: {extras['data_format']!r} "
                          f"(expected {' or '.join(DATASET_FORMATS)})")
    extras["balance"] = _parse_bool(extras["balance"], "balance")
    extras["deterministic"] = _parse_bool(extras["deterministic"], "deterministic")
    return config, extras


def _load_wordlists(extras):
    stopwords = load_token_file(extras["stopwords"]) if extras["stopwords"] \
        else default_stopwords()
    whitelist = load_token_file(extras["whitelist"]) if extras["whitelist"] \
        else DEFAULT_WHITELIST
    return stopwords, whitelist


def _apply_pretrained(params, vocab, path):
    """Copy word2vec text vectors into the vocabulary rows of the embedding.

    The file is a 'count dim' header, then one 'token v1 .. vd' line per
    word. It is streamed: the dimension is checked first, then every line,
    and only the rows of vocabulary tokens are kept; the count must be the
    number of vector lines.
    """
    lines = read_lines(path)
    header = next(lines, "").split()
    if len(header) != 2:
        raise DataError(f"{path}: line 1: expected 'count dim' header")
    try:
        dim = int(header[1])
    except ValueError as exc:
        raise DataError(f"{path}: line 1: bad dimension {header[1]!r}") from exc
    if dim != params.embedding.dim:
        raise ConfigError(
            f"embeddings: file dimension {dim} does not match embedding_dim "
            f"{params.embedding.dim}")
    E, line_num = params.embedding.E, 1
    for line_num, line in enumerate(lines, start=2):
        # word2vec.c writes a space after the last value of each line
        parts = line.rstrip().split(" ")
        if len(parts) != dim + 1:
            raise DataError(f"{path}: line {line_num}: expected token plus {dim} values")
        try:
            vector = np.array([float(x) for x in parts[1:]])
        except ValueError as exc:
            raise DataError(f"{path}: line {line_num}: bad vector value") from exc
        if not np.isfinite(vector).all():
            raise DataError(f"{path}: line {line_num}: non-finite vector value")
        idx = vocab.token_to_index.get(parts[0])
        if idx is not None and idx >= 2:
            E[idx] = vector
    if header[0] != str(line_num - 1):
        raise DataError(f"{path}: line 1: count {header[0]!r} is not the number of "
                        f"vector lines, {line_num - 1}")
    E[0, :] = 0.0


def _checked_out(out, names):
    """--out as a Path, once it is known to take the named files.

    Runs before any data is loaded and creates nothing, so a run that fails
    later leaves no directory behind: the nearest existing directory on the
    path must take a probe file, and no named file may be a directory.
    """
    out_dir = base = Path(out)
    while not os.path.lexists(base):
        base = base.parent
    try:
        with tempfile.TemporaryFile(dir=base):
            pass
    except OSError as exc:
        raise DataError(f"cannot write to output directory {out_dir}: {exc}") from exc
    for name in names:
        try:
            mode = os.stat(out_dir / name).st_mode
        except FileNotFoundError:
            continue
        except OSError as exc:  # say, a name longer than the file system takes
            raise DataError(f"cannot write to output directory {out_dir}: {exc}") from exc
        if stat.S_ISDIR(mode):
            raise DataError(f"cannot write {out_dir / name}: it is a directory")
    return out_dir


def _make_out(out_dir):
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot write to output directory {out_dir}: {exc}") from exc


def _write_text(path, text):
    replace_file(path, [text.encode("utf-8")])


def _format_history(history):
    lines = [
        f"epoch={r.epoch} train_loss={r.train_loss!r} "
        f"train_accuracy={r.train_accuracy!r} val_loss={r.val_loss!r} "
        f"val_accuracy={r.val_accuracy!r}\n"
        for r in history.records
    ]
    lines.append(f"stop_epoch={history.stop_epoch}\n")
    lines.append(f"stop_reason={history.stop_reason}\n")
    return "".join(lines)


def _print_metrics(name, values):
    print(f"{name}: n={values['n']} accuracy={values['accuracy']:.4f} "
          f"recall_pos={values['recall_pos']:.4f} recall_neg={values['recall_neg']:.4f} "
          f"f1_pos={values['f1_pos']:.4f} f1_neg={values['f1_neg']:.4f} "
          f"percent_loss={values['percent_loss']:.2f}")


def run_train(args):
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {"data": args.data, "out": args.out, "seed": args.seed,
                 "deterministic": args.deterministic}
    config, extras = build_settings(file_values, overrides)
    if not extras["data"]:
        raise ConfigError("data: no dataset path given (use --data or the config file)")
    out_dir = _checked_out(extras["out"], (CHECKPOINT_NAME, HISTORY_NAME, REPORT_NAME))
    stopwords, whitelist = _load_wordlists(extras)

    corpus = load_dataset(extras["data"], extras["data_format"])
    cleaned = clean_corpus(corpus, stopwords, whitelist)
    if extras["balance"]:
        cleaned = balance_classes(cleaned, config.seed)
    train_corpus, test_corpus = stratified_split(cleaned, config.test_fraction, config.seed)
    vocab = build_vocabulary(train_corpus, config.vocab_size, config.min_freq)
    fit_train, fit_val = stratified_split(train_corpus, config.validation_fraction,
                                          config.seed)
    train_enc = encode_corpus(fit_train, vocab, config.max_len)
    val_enc = encode_corpus(fit_val, vocab, config.max_len)
    test_enc = encode_corpus(test_corpus, vocab, config.max_len)

    params = init_model_params(vocab.size, config.embedding_dim, config.gru_units,
                               config.lstm_units, stack=config.stack, seed=config.seed)
    if extras["embeddings"]:
        _apply_pretrained(params, vocab, extras["embeddings"])

    print(f"training {config.stack} on {len(train_enc)} reviews "
          f"({len(val_enc)} validation, {len(test_enc)} test), vocab {vocab.size}")
    params, history = fit(
        config, train_enc, val_enc, params=params,
        on_epoch=lambda r: print(
            f"epoch {r.epoch}: train_loss={r.train_loss:.4f} "
            f"train_acc={r.train_accuracy:.4f} val_loss={r.val_loss:.4f} "
            f"val_acc={r.val_accuracy:.4f}"),
    )
    print(f"stopped after {history.stop_epoch} epoch(s): {history.stop_reason}")

    _make_out(out_dir)
    save_checkpoint(params, config, vocab, out_dir / CHECKPOINT_NAME,
                    stopwords=stopwords, whitelist=whitelist)
    _write_text(out_dir / HISTORY_NAME, _format_history(history))
    report = evaluate_model(params, test_enc)
    _write_text(out_dir / REPORT_NAME, format_report(report))
    _print_metrics("test", report_values(report))
    return 0


def run_evaluate(args):
    out_dir = _checked_out(args.out or ".", (REPORT_NAME,))
    ckpt = load_checkpoint(args.checkpoint)
    corpus = load_dataset(args.data, args.format)
    cleaned = clean_corpus(corpus, ckpt.stopwords, ckpt.whitelist)
    encoded = encode_corpus(cleaned, ckpt.vocab, ckpt.config.max_len)
    report = evaluate_model(ckpt.params, encoded)
    _make_out(out_dir)
    _write_text(out_dir / REPORT_NAME, format_report(report))
    _print_metrics(Path(args.data).stem, report_values(report))
    return 0


def run_predict(args):
    ckpt = load_checkpoint(args.checkpoint)
    texts = list(args.text or [])
    if args.input:
        texts.extend(line.rstrip("\r\n") for line in read_lines(args.input))
    if not texts:
        raise ConfigError("predict needs --text or a non-empty --input file")
    seqs = [encode_sequence(clean_text(raw, ckpt.stopwords, ckpt.whitelist),
                            ckpt.vocab, ckpt.config.max_len) for raw in texts]
    for yhat in predict_proba(ckpt.params, seqs):
        print(f"{yhat:.6f}\t{classify(yhat)}")
    return 0


def run_compare(args):
    if len(args.reports) < 2:
        raise ConfigError("compare needs at least 2 report files")
    parsed = []
    for path in args.reports:
        text = "".join(read_lines(path))
        try:
            values = parse_report(text)
            if values["tp"] + values["tn"] + values["fp"] + values["fn"] != values["n"]:
                raise ValueError(f"counts tp + tn + fp + fn do not add up to n = {values['n']}")
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from exc
        parsed.append((path, values))
    sizes = {values["n"] for _, values in parsed}
    if len(sizes) > 1:
        names = ", ".join(path for path, _ in parsed)
        raise ConfigError(f"reports disagree on n ({sorted(sizes)}): {names}")
    table = [[v["tp"], v["tn"], v["fp"], v["fn"]] for _, v in parsed]
    try:
        result = chi_square_test(table)
    except (ValueError, OverflowError) as exc:
        raise DataError(f"cannot run the chi-square test over these reports: {exc}") from exc
    for path, values in parsed:
        _print_metrics(Path(path).stem, values)
    print(f"chi_square_statistic = {result.statistic:.2f}")
    print(f"degrees_of_freedom = {result.degrees_of_freedom}")
    print(f"p_value = {result.p_value:.6e}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="opinionminer",
        description="Train and evaluate the hybrid BGRU-LSTM sentiment classifier.")
    # each subcommand takes only the flags it reads; any other ends in a
    # usage error (exit 2)
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a model and write its artifacts")
    train.add_argument("--config", help="key = value config file")
    train.add_argument("--seed", type=int, help="master RNG seed")
    train.add_argument("--deterministic", choices=["true", "false"],
                       help="accepted for compatibility; runs are always deterministic "
                            "at a fixed BLAS thread count")
    train.add_argument("--data", help="labeled dataset (csv or jsonl)")
    train.add_argument("--out", help="output directory")
    train.set_defaults(func=run_train)

    evaluate = sub.add_parser("evaluate", help="score a checkpoint on a labeled dataset")
    evaluate.add_argument("--checkpoint", required=True)
    evaluate.add_argument("--data", required=True)
    evaluate.add_argument("--format", choices=list(DATASET_FORMATS), default="csv")
    evaluate.add_argument("--out", help="output directory for report.txt")
    evaluate.set_defaults(func=run_evaluate)

    predict = sub.add_parser("predict", help="label new review text")
    predict.add_argument("--checkpoint", required=True)
    predict.add_argument("--text", action="append", help="review text (repeatable)")
    predict.add_argument("--input", help="file with one review per line")
    predict.set_defaults(func=run_predict)

    compare = sub.add_parser("compare", help="chi-square comparison of report files")
    compare.add_argument("reports", nargs="+")
    compare.set_defaults(func=run_compare)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, CheckpointError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ModelMismatchError as exc:
        print(f"model mismatch: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"out of memory in {args.command}: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
