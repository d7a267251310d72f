import builtins
import errno
import io
import json
import os
import re
import resource
import struct
import subprocess
import sys
import tempfile
import zlib
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _toy import toy_reviews, write_toy_csv
from opinionminer import cli, text_pipeline, training
from opinionminer.cli import build_settings, main, parse_config_file
from opinionminer.evaluation import parse_report
from opinionminer.layers import EmbeddingParams, init_model_params
from opinionminer.text_pipeline import Vocabulary
from opinionminer.training import ConfigError, TrainConfig, save_checkpoint

TINY_CONFIG = """\
# toy run settings
embedding_dim = 8
gru_units = 4
lstm_units = 3
dropout_rate = 0.1
batch_size = 8
learning_rate = 0.02
max_epochs = 8
patience = 8
max_len = 12
vocab_size = 60
test_fraction = 0.3
validation_fraction = 0.2
seed = 7
"""


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """One real `train` invocation shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli_train")
    data = write_toy_csv(root / "reviews.csv", 80, seed=5, keywords=1)
    config = root / "toy.cfg"
    config.write_text(TINY_CONFIG, encoding="utf-8")
    out = root / "run1"
    code = main(["train", "--config", str(config), "--data", str(data),
                 "--out", str(out)])
    assert code == 0
    return {"root": root, "data": data, "config": config, "out": out}


# the toy checkpoint: a 5-token hbgru_lstm model with embedding_dim 4 and 2
# GRU and LSTM units
VOCAB = Vocabulary.from_content_tokens(["good", "bad", "film"])
CONFIG = TrainConfig(embedding_dim=4, gru_units=2, lstm_units=2, vocab_size=VOCAB.size,
                     max_len=8)


def toy_params():
    return init_model_params(VOCAB.size, 4, 2, 2, seed=0)


def zero_checkpoint(tmp_path):
    params = toy_params()
    for _, arr in params.named_arrays():
        arr[...] = 0.0
    path = tmp_path / "zero.ckpt"
    save_checkpoint(params, CONFIG, VOCAB, path,
                    stopwords=frozenset({"the"}), whitelist=frozenset({"not"}))
    return path


class TestConfigHandling:
    def test_parse_file_comments_and_blanks(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\n\nseed = 3\nbatch_size = 16\n", encoding="utf-8")
        assert parse_config_file(path) == {"seed": "3", "batch_size": "16"}

    def test_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbfseed = 3\nbatch_size = 16\n")
        assert parse_config_file(path) == {"seed": "3", "batch_size": "16"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key: widgets"):
            build_settings({"widgets": "7"})

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="batch_size"):
            build_settings({"batch_size": "many"})

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command in ("evaluate", "predict", "compare")
        for flag in ("--config", "--seed", "--deterministic", "--out")
        if (command, flag) != ("evaluate", "--out")])
    def test_a_flag_the_command_does_not_read_is_a_usage_error(self, tmp_path, capsys,
                                                               command, flag):
        # only train reads --config, --seed and --deterministic, and only
        # train and evaluate read --out; no file named here exists, so a
        # command that ran would exit 3
        argv = {"evaluate": ["evaluate", "--checkpoint", "none.ckpt", "--data", "none.csv"],
                "predict": ["predict", "--checkpoint", "none.ckpt", "--text", "good film"],
                "compare": ["compare", "a.txt", "b.txt"]}[command]
        value = {"--seed": "5", "--deterministic": "true"}.get(flag, str(tmp_path / "x"))
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("balance, kept", [("true", 30), ("false", 50), ("No", 50)])
    def test_balance_false_trains_on_every_review(self, tmp_path, capsys, balance, kept):
        # 35 positive reviews and 15 negative ones become 15 and 15 when balanced
        data = write_toy_csv(tmp_path / "d.csv", 30, seed=0)
        with open(data, "a", encoding="utf-8") as fh:
            fh.write("good film plot,1\n" * 20)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("embedding_dim = 8\ngru_units = 4\nlstm_units = 3\nmax_epochs = 1\n"
                       f"balance = {balance}\n", encoding="utf-8")
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "out")]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        train, val, test = map(int, re.match(
            r"training hbgru_lstm on (\d+) reviews \((\d+) validation, (\d+) test\)",
            line).groups())
        assert train + val + test == kept

    def test_flags_override_file(self):
        config, extras = build_settings({"seed": "1", "out": "a"},
                                        overrides={"seed": 9, "out": "b"})
        assert config.seed == 9
        assert extras["out"] == "b"

    def test_invalid_dropout_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("dropout_rate = 1.5\n", encoding="utf-8")
        data = write_toy_csv(tmp_path / "d.csv", 20, seed=0)
        code = main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "dropout_rate" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["learning_rate", "epsilon", "min_delta"])
    def test_infinite_float_exits_2(self, tmp_path, capsys, key):
        # rejected with the config, before a dataset is read or an epoch run
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TINY_CONFIG + f"{key} = inf\n", encoding="utf-8")
        data = write_toy_csv(tmp_path / "d.csv", 40, seed=2)
        out = tmp_path / "out"
        code = main(["train", "--config", str(cfg), "--data", str(data), "--out", str(out)])
        assert code == 2
        assert f"invalid value for {key}: inf" in capsys.readouterr().err
        assert not (out / "history.txt").exists()

    @pytest.mark.parametrize("key, value", [("max_len", 10**15), ("max_len", 4097),
                                            ("vocab_size", 10**30), ("gru_units", 10**6)])
    def test_hostile_size_exits_2_before_data_is_read(self, tmp_path, capsys, key, value):
        # the dataset does not exist: a config that passed would exit 3 on it
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--data", str(tmp_path / "absent.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and key in err

    @pytest.mark.parametrize("value", ["xml", "JSONL", ""])
    def test_unknown_data_format_exits_2(self, tmp_path, capsys, value):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TINY_CONFIG + f"data_format = {value}\n", encoding="utf-8")
        data = write_toy_csv(tmp_path / "d.csv", 20, seed=0)
        out = tmp_path / "out"
        code = main(["train", "--config", str(cfg), "--data", str(data), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "data_format" in err
        assert not out.exists()

    def test_a_bool_key_other_than_true_or_false_exits_2(self, tmp_path, capsys):
        # the dataset does not exist: a config that passed would exit 3 on it
        cfg = tmp_path / "c.cfg"
        cfg.write_text("balance = maybe\n", encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--data", str(tmp_path / "absent.csv")])
        assert code == 2
        assert "invalid value for balance: 'maybe' (expected true/false)" in \
            capsys.readouterr().err

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"seed = 3\nstack = caf\xe9\n")
        code = main(["train", "--config", str(cfg), "--data", str(tmp_path / "d.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "latin1.cfg" in err and "UTF-8" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_run_exits_2(self, tmp_path, capsys):
        # two Adam steps of size ~1e308 overflow the weights to inf
        cfg = tmp_path / "c.cfg"
        cfg.write_text("embedding_dim = 8\ngru_units = 4\nlstm_units = 3\nbatch_size = 8\n"
                       "max_len = 12\nvocab_size = 60\nmax_epochs = 3\n"
                       "learning_rate = 1e308\n", encoding="utf-8")
        data = write_toy_csv(tmp_path / "d.csv", 40, seed=2)
        code = main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "diverged in epoch 1" in err and "not finite" in err
        assert not (tmp_path / "out" / "model.ckpt").exists()


class TestTrainCommand:
    def test_artifacts_exist(self, trained_run):
        out = trained_run["out"]
        assert (out / "model.ckpt").exists()
        assert (out / "history.txt").exists()
        assert (out / "report.txt").exists()
        values = parse_report((out / "report.txt").read_text(encoding="utf-8"))
        assert values["n"] > 0

    def test_rerun_is_byte_identical(self, trained_run):
        out2 = trained_run["root"] / "run2"
        code = main(["train", "--config", str(trained_run["config"]),
                     "--data", str(trained_run["data"]), "--out", str(out2)])
        assert code == 0
        for name in ("model.ckpt", "history.txt", "report.txt"):
            a = (trained_run["out"] / name).read_bytes()
            b = (out2 / name).read_bytes()
            assert a == b, name

    def test_missing_data_exits_3(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "out")])
        assert code == 3

    def test_no_data_key_exits_2(self, tmp_path):
        assert main(["train", "--out", str(tmp_path / "out")]) == 2

    def test_out_of_memory_exits_3(self, tmp_path):
        # a child capped at 400 MiB of address space trains a 14.7 M-parameter
        # model, 112 MiB a parameter-length vector, and cannot hold the four
        # that training needs; this process allocates nothing large
        data = write_toy_csv(tmp_path / "toy.csv", 80, seed=5, keywords=1)
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("embedding_dim = 512\ngru_units = 1024\nlstm_units = 512\n"
                       "max_epochs = 1\nbatch_size = 8\nmax_len = 12\nvocab_size = 40\n",
                       encoding="utf-8")
        limit = 400 * 2**20
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
        out = subprocess.run(
            [sys.executable, "-m", "opinionminer.cli", "train", "--config", str(cfg),
             "--data", str(data), "--out", str(tmp_path / "out")],
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
            env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 3, out.stderr
        assert out.stderr.startswith("out of memory in train: ")
        assert not (tmp_path / "out").exists()


class TestEvaluateCommand:
    def test_evaluate_training_file(self, trained_run, tmp_path, capsys):
        out = tmp_path / "eval"
        code = main(["evaluate", "--checkpoint", str(trained_run["out"] / "model.ckpt"),
                     "--data", str(trained_run["data"]), "--out", str(out)])
        assert code == 0
        values = parse_report((out / "report.txt").read_text(encoding="utf-8"))
        assert values["n"] == 80
        # the converged toy model labels its own training file perfectly
        assert values["accuracy"] == 1.0

    def test_unknown_tokens_only(self, tmp_path, capsys):
        ckpt = zero_checkpoint(tmp_path)
        data = tmp_path / "weird.csv"
        data.write_text("text,label\nzzz qqq xxx,1\nwww vvv,0\n", encoding="utf-8")
        code = main(["evaluate", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(tmp_path / "eval")])
        assert code == 0
        values = parse_report((tmp_path / "eval" / "report.txt").read_text("utf-8"))
        assert values["n"] == 2

    def test_corrupt_checkpoint_exits_3(self, tmp_path, capsys):
        ckpt = zero_checkpoint(tmp_path)
        data = bytearray(ckpt.read_bytes())
        data[len(data) // 2] ^= 0xFF
        ckpt.write_bytes(bytes(data))
        csv = write_toy_csv(tmp_path / "d.csv", 10, seed=0)
        code = main(["evaluate", "--checkpoint", str(ckpt), "--data", str(csv),
                     "--out", str(tmp_path / "eval")])
        assert code == 3
        assert "checksum" in capsys.readouterr().err

    def test_missing_checkpoint_exits_3(self, tmp_path, capsys):
        path = tmp_path / "missing.ckpt"
        code = main(["evaluate", "--checkpoint", str(path),
                     "--data", str(write_toy_csv(tmp_path / "d.csv", 10, seed=0))])
        assert code == 3
        assert capsys.readouterr().err.startswith(f"data error: cannot read {path}: ")


def unusable_out(tmp_path, shape):
    """An --out under tmp_path that cannot take the outputs, by its path shape alone
    (a permission bit would not stop a run as root)."""
    if shape == "an existing file":
        out = tmp_path / "out"
        out.write_text("not a directory\n", encoding="utf-8")
        return out
    if shape == "a file in the path":
        (tmp_path / "file").write_text("not a directory\n", encoding="utf-8")
        return tmp_path / "file" / "out"
    if shape == "a name too long":  # no file system takes a 300-byte name
        return tmp_path / ("o" * 300)
    out = tmp_path / "out"  # "<name> is a directory"
    (out / shape.split()[0]).mkdir(parents=True)
    return out


PATH_SHAPES = ["an existing file", "a file in the path", "a name too long"]


class TestOutputPaths:
    @pytest.mark.parametrize("shape", PATH_SHAPES + [
        "model.ckpt is a directory", "history.txt is a directory",
        "report.txt is a directory"])
    def test_train_exits_3_before_training(self, tmp_path, capsys, shape):
        data = write_toy_csv(tmp_path / "reviews.csv", 40, seed=5, keywords=1)
        config = tmp_path / "toy.cfg"
        config.write_text(TINY_CONFIG, encoding="utf-8")
        out = unusable_out(tmp_path, shape)
        code = main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3
        assert "epoch 1" not in captured.out and "training" not in captured.out
        assert "cannot write" in captured.err and str(out) in captured.err

    @pytest.mark.parametrize("shape", PATH_SHAPES + ["report.txt is a directory"])
    def test_evaluate_exits_3_before_loading(self, tmp_path, capsys, shape):
        out = unusable_out(tmp_path, shape)
        # neither input exists: the output directory is checked first
        code = main(["evaluate", "--checkpoint", str(tmp_path / "none.ckpt"),
                     "--data", str(tmp_path / "none.csv"), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert "cannot write" in err and str(out) in err
        assert "none.ckpt" not in err and "none.csv" not in err

    def test_a_file_put_at_out_during_the_run_exits_3(self, tmp_path, capsys, monkeypatch):
        # --out is checked before any input is read; a file that another
        # process puts there meanwhile fails the mkdir before the report
        ckpt, out = zero_checkpoint(tmp_path), tmp_path / "out"
        data = write_toy_csv(tmp_path / "d.csv", 10, seed=0)
        score = cli.evaluate_model

        def score_then_take_out(*args):
            out.write_text("taken\n", encoding="utf-8")
            return score(*args)

        monkeypatch.setattr(cli, "evaluate_model", score_then_take_out)
        code = main(["evaluate", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(out)])
        assert code == 3
        assert "cannot write to output directory" in capsys.readouterr().err
        assert out.read_text(encoding="utf-8") == "taken\n"

    def test_train_creates_a_nested_out(self, tmp_path):
        data = write_toy_csv(tmp_path / "reviews.csv", 40, seed=5, keywords=1)
        config = tmp_path / "toy.cfg"
        config.write_text(TINY_CONFIG.replace("max_epochs = 8", "max_epochs = 1"),
                          encoding="utf-8")
        out = tmp_path / "a" / "b"
        assert main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["history.txt", "model.ckpt", "report.txt"]


class TestPredictCommand:
    def test_zero_model_prints_boundary(self, tmp_path, capsys):
        ckpt = zero_checkpoint(tmp_path)
        code = main(["predict", "--checkpoint", str(ckpt), "--text", "whatever"])
        assert code == 0
        assert capsys.readouterr().out == "0.500000\t1\n"

    def test_file_line_count_preserved(self, tmp_path, capsys):
        # one result per line, also when a review holds a character that
        # str.splitlines breaks at (form feed, U+001E, U+0085, U+2028)
        ckpt = zero_checkpoint(tmp_path)
        inp = tmp_path / "reviews.txt"
        for content in ("good film\nbad film\nnothing\n",
                        "good\u2028film\r\nbad\x0cfilm\x1e\x85end\nnothing"):
            inp.write_bytes(content.encode("utf-8"))
            code = main(["predict", "--checkpoint", str(ckpt), "--input", str(inp)])
            assert code == 0
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == 3
            for line in lines:
                prob, label = line.split("\t")
                assert 0.0 <= float(prob) <= 1.0
                assert label in ("0", "1")

    def test_trained_model_labels_keyword(self, trained_run, capsys):
        ckpt = trained_run["out"] / "model.ckpt"
        code = main(["predict", "--checkpoint", str(ckpt),
                     "--text", "good good good", "--text", "bad bad bad"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith("\t1")
        assert lines[1].endswith("\t0")

    def test_deterministic_output(self, trained_run, capsys):
        ckpt = trained_run["out"] / "model.ckpt"
        main(["predict", "--checkpoint", str(ckpt), "--text", "great film"])
        first = capsys.readouterr().out
        main(["predict", "--checkpoint", str(ckpt), "--text", "great film"])
        assert capsys.readouterr().out == first

    def test_out_of_memory_names_the_command(self, capsys, monkeypatch):
        # in process: an allocation that fails while a checkpoint loads
        def fail(path):
            raise MemoryError("Unable to allocate 763. MiB")
        monkeypatch.setattr(cli, "load_checkpoint", fail)
        assert main(["predict", "--checkpoint", "model.ckpt", "--text", "good film"]) == 3
        assert capsys.readouterr().err == "out of memory in predict: Unable to allocate 763. MiB\n"

    def test_empty_input_exits_2(self, tmp_path):
        ckpt = zero_checkpoint(tmp_path)
        assert main(["predict", "--checkpoint", str(ckpt)]) == 2

    def test_input_not_utf8_exits_3(self, tmp_path, capsys):
        ckpt = zero_checkpoint(tmp_path)
        inp = tmp_path / "latin1.txt"
        inp.write_bytes("good film\ncaf\u00e9 bad\n".encode("latin-1"))
        assert main(["predict", "--checkpoint", str(ckpt), "--input", str(inp)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error") and "latin1.txt" in err and "UTF-8" in err


MODEL_COUNTS = {
    "lstm": (5568, 4962, 677, 232),
    "cnn_lstm": (5710, 4722, 769, 238),
    "gru_lstm": (5336, 5244, 395, 464),
    "hbgru_lstm": (5573, 5352, 282, 232),
}


def write_report(path, tp, tn, fp, fn, loss=0.15):
    n = tp + tn + fp + fn
    acc = (tp + tn) / n
    lines = [f"n = {n}", f"tp = {tp}", f"tn = {tn}", f"fp = {fp}", f"fn = {fn}",
             f"accuracy = {acc!r}",
             f"precision_pos = {tp / max(tp + fp, 1)!r}",
             f"recall_pos = {tp / max(tp + fn, 1)!r}",
             "f1_pos = 0.9", "precision_neg = 0.9", "recall_neg = 0.9",
             "f1_neg = 0.9", f"percent_loss = {100 * loss!r}"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestPretrainedEmbeddings:
    def write_vectors(self, path, tokens, dim):
        rng = np.random.default_rng(1)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{len(tokens)} {dim}\n")
            vectors = {}
            for token in tokens:
                vec = rng.normal(size=dim).round(4)
                vectors[token] = vec
                fh.write(token + " " + " ".join(str(v) for v in vec) + "\n")
        return vectors

    def test_vectors_applied_to_vocab_rows(self, tmp_path):
        from opinionminer.cli import _apply_pretrained
        params = toy_params()
        vectors = self.write_vectors(tmp_path / "w2v.txt", ["good", "absent"], 4)
        before_bad = params.embedding.E[VOCAB.token_to_index["bad"]].copy()
        _apply_pretrained(params, VOCAB, tmp_path / "w2v.txt")
        np.testing.assert_allclose(params.embedding.E[VOCAB.token_to_index["good"]],
                                   vectors["good"])
        # tokens missing from the file keep their seeded initialization
        np.testing.assert_array_equal(params.embedding.E[VOCAB.token_to_index["bad"]],
                                      before_bad)
        np.testing.assert_array_equal(params.embedding.E[0], np.zeros(4))

    def test_trailing_space_of_word2vec_c(self, tmp_path):
        # the reference word2vec.c ends every vector line with a space
        from opinionminer.cli import _apply_pretrained
        params = toy_params()
        (tmp_path / "w2v.txt").write_text(
            "2 4\ngood 0.1 0.2 0.3 0.4 \nabsent 1 2 3 4 \n", encoding="utf-8")
        _apply_pretrained(params, VOCAB, tmp_path / "w2v.txt")
        np.testing.assert_array_equal(params.embedding.E[VOCAB.token_to_index["good"]],
                                      [0.1, 0.2, 0.3, 0.4])

    def test_dimension_checked_before_rows(self, tmp_path):
        from opinionminer.cli import _apply_pretrained
        (tmp_path / "w2v.txt").write_text("1 5\ngood not a vector\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="file dimension 5"):
            _apply_pretrained(toy_params(), VOCAB, tmp_path / "w2v.txt")

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys):
        self.write_vectors(tmp_path / "w2v.txt", ["good"], 5)
        data = write_toy_csv(tmp_path / "d.csv", 40, seed=2)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "embedding_dim = 8\ngru_units = 4\nlstm_units = 3\nmax_epochs = 1\n"
            f"embeddings = {tmp_path / 'w2v.txt'}\n", encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "embedding" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_vector_exits_3(self, tmp_path, capsys, value):
        (tmp_path / "w2v.txt").write_text(
            f"2 3\ngood 0.1 0.2 0.3\nbad 0.1 {value} 0.3\n", encoding="utf-8")
        data = write_toy_csv(tmp_path / "d.csv", 40, seed=2)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "embedding_dim = 3\ngru_units = 4\nlstm_units = 3\nmax_epochs = 1\n"
            f"embeddings = {tmp_path / 'w2v.txt'}\n", encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert "w2v.txt: line 3: non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [1, 3])
    def test_embeddings_not_utf8_exits_3(self, tmp_path, capsys, line):
        rows = [b"2 3", b"good 0.1 0.2 0.3", b"bad 0.1 0.2 0.3"]
        rows[line - 1] = rows[line - 1].replace(b" ", b"\xff ", 1)
        (tmp_path / "w2v.txt").write_bytes(b"\n".join(rows) + b"\n")
        data = write_toy_csv(tmp_path / "d.csv", 40, seed=2)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "embedding_dim = 3\ngru_units = 4\nlstm_units = 3\nmax_epochs = 1\n"
            f"embeddings = {tmp_path / 'w2v.txt'}\n", encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert f"w2v.txt: line {line}: not valid UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("count", ["5", "x"])
    def test_a_count_other_than_the_vector_lines_exits_3(self, tmp_path, capsys, count):
        (tmp_path / "w2v.txt").write_text(f"{count} 8\ngood{' 0.1' * 8}\n",
                                          encoding="utf-8")
        data = write_toy_csv(tmp_path / "d.csv", 40, seed=2)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "embedding_dim = 8\ngru_units = 4\nlstm_units = 3\nmax_epochs = 1\n"
            f"embeddings = {tmp_path / 'w2v.txt'}\n", encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert f"w2v.txt: line 1: count {count!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("text, named", [
        ("3\ngood 0.1 0.2 0.3\n", "line 1: expected 'count dim' header"),
        ("1 3 0\ngood 0.1 0.2 0.3\n", "line 1: expected 'count dim' header"),
        ("1 three\ngood 0.1 0.2 0.3\n", "line 1: bad dimension 'three'"),
        ("2 3\ngood 0.1 0.2 0.3\nbad 0.1 0.2\n", "line 3: expected token plus 3 values"),
        ("1 3\ngood 0.1 x 0.3\n", "line 2: bad vector value"),
    ], ids=["one_field_header", "three_field_header", "bad_dimension", "short_line",
            "bad_value"])
    def test_malformed_vector_file_exits_3(self, tmp_path, capsys, text, named):
        (tmp_path / "w2v.txt").write_text(text, encoding="utf-8")
        data = write_toy_csv(tmp_path / "d.csv", 40, seed=2)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "embedding_dim = 3\ngru_units = 4\nlstm_units = 3\nmax_epochs = 1\n"
            f"embeddings = {tmp_path / 'w2v.txt'}\n", encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert f"w2v.txt: {named}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_train_with_pretrained_runs(self, tmp_path):
        self.write_vectors(tmp_path / "w2v.txt", ["good", "bad"], 8)
        data = write_toy_csv(tmp_path / "d.csv", 40, seed=2)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "embedding_dim = 8\ngru_units = 4\nlstm_units = 3\nmax_epochs = 1\n"
            "batch_size = 8\nmax_len = 12\nvocab_size = 60\n"
            f"embeddings = {tmp_path / 'w2v.txt'}\n", encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "out")])
        assert code == 0


class TestWordlistFiles:
    def test_custom_stopword_and_whitelist_files(self, tmp_path):
        (tmp_path / "stop.txt").write_text("plot\nfilm\n", encoding="utf-8")
        (tmp_path / "keep.txt").write_text("plot\n", encoding="utf-8")
        data = write_toy_csv(tmp_path / "d.csv", 40, seed=3)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "embedding_dim = 8\ngru_units = 4\nlstm_units = 3\nmax_epochs = 1\n"
            "batch_size = 8\nmax_len = 12\nvocab_size = 60\n"
            f"stopwords = {tmp_path / 'stop.txt'}\n"
            f"whitelist = {tmp_path / 'keep.txt'}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(out)]) == 0
        from opinionminer.training import load_checkpoint
        ckpt = load_checkpoint(out / "model.ckpt")
        assert ckpt.stopwords == {"plot", "film"}
        assert ckpt.whitelist == {"plot"}
        # "film" was stopworded away, "plot" survived via the whitelist
        assert "film" not in ckpt.vocab.token_to_index
        assert "plot" in ckpt.vocab.token_to_index


    def test_stopword_file_not_utf8_exits_3(self, tmp_path, capsys):
        (tmp_path / "stop.txt").write_bytes("plot\ncaf\u00e9\n".encode("latin-1"))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"max_epochs = 1\nstopwords = {tmp_path / 'stop.txt'}\n",
                       encoding="utf-8")
        data = write_toy_csv(tmp_path / "d.csv", 40, seed=3)
        code = main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert "stop.txt: line 2: not valid UTF-8" in capsys.readouterr().err

    def test_a_missing_packaged_stopword_list_exits_3(self, tmp_path, capsys, monkeypatch):
        # the package as if installed without its data/ directory
        monkeypatch.setattr(text_pipeline, "__file__", str(tmp_path / "text_pipeline.py"))
        text_pipeline.default_stopwords.cache_clear()
        try:
            cfg = tmp_path / "c.cfg"
            cfg.write_text("max_epochs = 1\n", encoding="utf-8")
            data = write_toy_csv(tmp_path / "d.csv", 40, seed=3)
            code = main(["train", "--config", str(cfg), "--data", str(data),
                         "--out", str(tmp_path / "out")])
        finally:
            text_pipeline.default_stopwords.cache_clear()
        assert code == 3
        err = capsys.readouterr().err
        assert f"cannot read {tmp_path / 'data' / 'stopwords.txt'}" in err


class TestJsonlDataFormat:
    def test_train_on_jsonl(self, tmp_path):
        import json as jsonlib
        from _toy import toy_reviews
        data = tmp_path / "reviews.jsonl"
        with open(data, "w", encoding="utf-8") as fh:
            for text, label in toy_reviews(40, seed=4):
                fh.write(jsonlib.dumps({"text": text, "label": label}) + "\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "embedding_dim = 8\ngru_units = 4\nlstm_units = 3\nmax_epochs = 1\n"
            "batch_size = 8\nmax_len = 12\nvocab_size = 60\n"
            "data_format = jsonl\n", encoding="utf-8")
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "out")]) == 0

    # JSON that Python's decoder refuses: nested past its recursion limit, or
    # an integer longer than its 4,300-digit limit
    @pytest.mark.parametrize("row, named", [
        ('{"label": 0}', "missing text"),
        ("[" * 100_000, "invalid JSON"),
        ('{"text": "good movie", "label": 1' + "0" * 5000 + "}", "invalid JSON"),
    ], ids=["missing_text", "nested_too_deep", "integer_too_long"])
    def test_a_bad_row_exits_3(self, tmp_path, capsys, row, named):
        data = tmp_path / "d.jsonl"
        data.write_text('{"text": "good film", "label": 1}\n' + row + "\n", encoding="utf-8")
        code = main(["evaluate", "--checkpoint", str(zero_checkpoint(tmp_path)),
                     "--data", str(data), "--format", "jsonl", "--out", str(tmp_path / "out")])
        assert code == 3
        assert f"d.jsonl: line 2: {named}" in capsys.readouterr().err


class TestModelMismatch:
    def test_inconsistent_checkpoint_exits_4(self, tmp_path, capsys):
        # vocabulary smaller than the embedding table
        vocab = Vocabulary.from_content_tokens(["good"])
        config = TrainConfig(embedding_dim=4, gru_units=2, lstm_units=2,
                             vocab_size=8, max_len=8)
        params = init_model_params(8, 4, 2, 2, seed=0)
        path = tmp_path / "bad.ckpt"
        save_checkpoint(params, config, vocab, path)
        data = write_toy_csv(tmp_path / "d.csv", 10, seed=0)
        code = main(["evaluate", "--checkpoint", str(path), "--data", str(data),
                     "--out", str(tmp_path / "eval")])
        assert code == 4
        assert "vocabulary" in capsys.readouterr().err


def rewrite_body(path, edit):
    """Replace a checkpoint's bytes before its file crc32 by edit(bytes), under a
    valid file crc32."""
    body = edit(path.read_bytes()[:-4])
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def header_bytes(raw):
    """A body edit putting raw in place of the JSON header."""
    def edit(body):
        (size,) = struct.unpack("<I", body[8:12])
        return body[:8] + struct.pack("<I", len(raw)) + raw + body[12 + size:]
    return edit


def rewrite_header(path, edit):
    """Apply `edit` to a checkpoint's JSON header, keeping every checksum valid."""
    body = path.read_bytes()
    (size,) = struct.unpack("<I", body[8:12])
    header = json.loads(body[12:12 + size])
    edit(header)
    rewrite_body(path, header_bytes(json.dumps(header).encode("utf-8")))


def narrow_lstm(params):
    # the gru_lstm LSTM reads 2 columns where the hbgru_lstm GRUs give 4
    params.lstm = init_model_params(5, 4, 2, 2, stack="gru_lstm", seed=0).lstm


def relabel_gru_lstm(header):
    header["stack"] = header["config"]["stack"] = "gru_lstm"


def keep_embedding_rows(n):
    """A params edit cutting the embedding table to its first n rows."""
    return lambda p: setattr(p, "embedding", EmbeddingParams(p.embedding.E[:n]))


def store_vocab(tokens):
    return lambda h: h.update(vocab=tokens)


def widen_past_max_parameters(header):
    # the config alone passes validate (5 x 10^6 embedding floats plus the
    # GRUs'), but the stored vocab of 200 tokens needs 2 x 10^8 of them
    header["config"]["embedding_dim"] = 10**6
    header["vocab"] += [f"w{i}" for i in range(200 - len(header["vocab"]))]


# (edit of the toy params before saving, edit of the header after, exit
# code, named in the error)
CHECKPOINT_PROBES = {
    "lstm_width": (narrow_lstm, None, 4, "lstm.W_f"),
    "stray_gru_bwd": (None, relabel_gru_lstm, 4, "gru_bwd.W_z"),
    "missing_whitelist": (None, lambda h: h.pop("whitelist"), 3, "whitelist"),
    "unknown_config_key": (None, lambda h: h["config"].update(bogus=1), 3, "bogus"),
    "unknown_stack": (None, lambda h: h.update(stack="foo"), 3, "foo"),
    "stack_list": (None, lambda h: h.update(stack=[]), 3, "stack"),
    "stack_object": (None, lambda h: h.update(stack={}), 3, "stack"),
    "gru_units_disagree": (None, lambda h: h["config"].update(gru_units=3), 4,
                           "gru_fwd.W_z"),
    "nan_weight": (lambda p: dict(p.named_arrays())["lstm.W_f"].__setitem__((0, 0), np.nan),
                   None, 3, "lstm.W_f"),
    "inf_embedding": (lambda p: p.embedding.E.__setitem__((2, 1), -np.inf), None, 3,
                      "embedding.E"),
    # JSON keeps each value's type: an int key takes no float, no number key a bool
    "max_len_float": (None, lambda h: h["config"].update(max_len=2.5), 3, "max_len"),
    "max_len_bool": (None, lambda h: h["config"].update(max_len=True), 3, "max_len"),
    "embedding_dim_whole_float": (None, lambda h: h["config"].update(embedding_dim=4.0), 3,
                                  "embedding_dim"),
    "seed_float": (None, lambda h: h["config"].update(seed=1.5), 3, "seed"),
    "beta1_bool": (None, lambda h: h["config"].update(beta1=False), 3, "beta1"),
    "learning_rate_bool": (None, lambda h: h["config"].update(learning_rate=True), 3,
                           "learning_rate"),
    # the encoder needs <pad>, <unk> at rows 0 and 1 and one row a token; the
    # embedding table has a row for every entry, so only the vocab check fails
    "vocab_empty": (keep_embedding_rows(0), store_vocab([]), 3, "vocab"),
    "vocab_pad_only": (keep_embedding_rows(1), store_vocab(["<pad>"]), 3, "vocab"),
    "vocab_no_reserved_tokens": (None, store_vocab(["x", "y", "good", "bad", "film"]), 3,
                                 "vocab"),
    "vocab_duplicate_token": (None, store_vocab(["<pad>", "<unk>", "good", "good", "film"]),
                              3, "vocab"),
    "vocab_over_max_parameters": (None, widen_past_max_parameters, 3, "vocab"),
    "stopwords_not_strings": (None, lambda h: h.update(stopwords=["the", 1]), 3,
                              "lists of strings"),
    "whitelist_not_a_list": (None, lambda h: h.update(whitelist="not"), 3, "lists of strings"),
}


@pytest.mark.parametrize("probe", sorted(CHECKPOINT_PROBES))
def test_inconsistent_checkpoint_named_error(tmp_path, capsys, probe):
    edit_params, edit_header, code, named = CHECKPOINT_PROBES[probe]
    params = toy_params()
    if edit_params:
        edit_params(params)
    path = tmp_path / "probe.ckpt"
    save_checkpoint(params, CONFIG, VOCAB, path)
    if edit_header:
        rewrite_header(path, edit_header)
    assert main(["predict", "--checkpoint", str(path), "--text", "good film"]) == code
    err = capsys.readouterr().err
    assert named in err
    assert err.startswith("model mismatch" if code == 4 else "data error")


@pytest.mark.parametrize("shape", [(3, 6), (2, 7), (12,)])
def test_gate_tensor_of_another_shape_exits_4(tmp_path, capsys, shape):
    # save_checkpoint reads only `stack` and `named_arrays`, so a stand-in can
    # write one gate tensor whose shape differs from its layer's other gates
    arrays = dict(toy_params().named_arrays())
    arrays["gru_fwd.W_r"] = np.zeros(shape)
    path = tmp_path / "probe.ckpt"
    save_checkpoint(SimpleNamespace(stack="hbgru_lstm", named_arrays=arrays.items),
                    CONFIG, VOCAB, path)
    assert main(["predict", "--checkpoint", str(path), "--text", "good film"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("model mismatch") and "gru_fwd.W_r" in err


def test_fewer_tensors_than_the_stack_exits_4(tmp_path, capsys):
    # a stand-in, as above, writes every tensor but the last, dense.b
    arrays = list(toy_params().named_arrays())[:-1]
    path = tmp_path / "probe.ckpt"
    save_checkpoint(SimpleNamespace(stack="hbgru_lstm", named_arrays=lambda: arrays),
                    CONFIG, VOCAB, path)
    assert main(["predict", "--checkpoint", str(path), "--text", "good film"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("model mismatch") and "'dense.b'" in err


def test_a_stack_other_than_the_configs_exits_4(tmp_path, capsys):
    # the header's stack names the tensors, which load; the config's is another
    path = tmp_path / "probe.ckpt"
    save_checkpoint(init_model_params(VOCAB.size, 4, 2, 2, stack="gru_lstm", seed=0), CONFIG,
                    VOCAB, path)
    assert main(["predict", "--checkpoint", str(path), "--text", "good film"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("model mismatch") and "'gru_lstm'" in err and "'hbgru_lstm'" in err


@pytest.mark.parametrize("edit, named", [
    (lambda body: body + bytes(4), "trailing bytes"),
    (header_bytes(b"[]"), "not a JSON object"),
    (header_bytes(b'"hbgru_lstm"'), "not a JSON object"),
    (header_bytes(b"[" * 100_000), "unreadable header"),  # past the decoder's recursion limit
], ids=["trailing_bytes", "header_list", "header_string", "header_nested_too_deep"])
def test_malformed_checkpoint_body_exits_3(tmp_path, capsys, edit, named):
    path = zero_checkpoint(tmp_path)
    rewrite_body(path, edit)
    assert main(["predict", "--checkpoint", str(path), "--text", "good film"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error") and named in err


class ShortRead(io.BufferedReader):
    def read(self, n=-1):
        return super().read(n)[:-1]


class ShortReadinto(io.BufferedReader):
    def readinto(self, buffer):
        return super().readinto(memoryview(buffer)[:-1])


@pytest.mark.parametrize("reader", [ShortRead, ShortReadinto])
def test_a_read_short_of_the_bytes_asked_for_exits_3(tmp_path, capsys, monkeypatch, reader):
    # reads that return fewer bytes than asked for, as from a file that
    # shrinks while it is read: the first read (the magic) and the first
    # readinto (a tensor) lie inside the file, so only their check can fail
    path = zero_checkpoint(tmp_path)
    monkeypatch.setattr(training, "open", lambda p, mode: reader(io.FileIO(p, mode)),
                        raising=False)
    assert main(["predict", "--checkpoint", str(path), "--text", "good film"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error") and "truncated checkpoint" in err


# runs its argument commands in order, each reported on a `probe:` line;
# with "blocked" first, any import of SciPy raises ImportError
SCIPY_PROBE = """\
import json, sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None
from opinionminer.cli import main
for argv in json.loads(sys.argv[2]):
    code = main(argv)
    print(f"probe: {argv[0]} exit {code} scipy {sys.modules.get('scipy') is not None}")
"""


@pytest.mark.parametrize("scipy", ["importable", "blocked"])
def test_no_command_loads_scipy(tmp_path, scipy):
    # a fresh interpreter runs all four commands: none imports SciPy, so each
    # exits 0 with SciPy blocked too, and compare prints the same p-value
    data = write_toy_csv(tmp_path / "toy.csv", 40, seed=2)
    config = tmp_path / "toy.cfg"
    config.write_text("embedding_dim = 8\ngru_units = 4\nlstm_units = 3\nmax_epochs = 1\n"
                      "batch_size = 8\nmax_len = 12\nvocab_size = 60\n", encoding="utf-8")
    texts = tmp_path / "three.txt"
    texts.write_text("good film\nbad plot\nstory\n", encoding="utf-8")
    reports = [str(write_report(tmp_path / f"{name}.txt", *counts))
               for name, counts in MODEL_COUNTS.items()]
    ckpt = str(tmp_path / "run" / "model.ckpt")
    commands = [
        ["train", "--config", str(config), "--data", str(data), "--out", str(tmp_path / "run")],
        ["evaluate", "--checkpoint", ckpt, "--data", str(data), "--out", str(tmp_path / "eval")],
        ["predict", "--checkpoint", ckpt, "--input", str(texts)],
        ["compare", *reports],
    ]
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run([sys.executable, "-c", SCIPY_PROBE, scipy, json.dumps(commands)],
                         env=env, capture_output=True, text=True, timeout=120, check=True)
    lines = out.stdout.splitlines()
    assert [line for line in lines if line.startswith("probe: ")] == [
        f"probe: {argv[0]} exit 0 scipy False" for argv in commands]
    assert "p_value = 5.024391e-101" in lines
    assert len([line for line in lines if line.endswith(("\t0", "\t1"))]) == 3


class TestCompareCommand:
    def test_reference_table_statistic(self, tmp_path, capsys):
        paths = [write_report(tmp_path / f"{name}.txt", *counts)
                 for name, counts in MODEL_COUNTS.items()]
        code = main(["compare"] + [str(p) for p in paths])
        assert code == 0
        out = capsys.readouterr().out
        assert "chi_square_statistic = 495.60" in out
        assert "degrees_of_freedom = 9" in out

    def test_identical_reports_statistic_zero(self, tmp_path, capsys):
        a = write_report(tmp_path / "a.txt", 40, 40, 10, 10)
        b = write_report(tmp_path / "b.txt", 40, 40, 10, 10)
        code = main(["compare", str(a), str(b)])
        assert code == 0
        assert "chi_square_statistic = 0.00" in capsys.readouterr().out

    def test_differing_n_exits_2(self, tmp_path, capsys):
        a = write_report(tmp_path / "a.txt", 40, 40, 10, 10)
        b = write_report(tmp_path / "b.txt", 40, 40, 10, 9)
        code = main(["compare", str(a), str(b)])
        assert code == 2
        err = capsys.readouterr().err
        assert "a.txt" in err and "b.txt" in err

    def test_single_report_exits_2(self, tmp_path):
        a = write_report(tmp_path / "a.txt", 40, 40, 10, 10)
        assert main(["compare", str(a)]) == 2

    def test_report_not_utf8_exits_3(self, tmp_path, capsys):
        a = write_report(tmp_path / "a.txt", 40, 40, 10, 10)
        b = tmp_path / "latin1.txt"
        b.write_bytes(a.read_bytes() + "# caf\u00e9\n".encode("latin-1"))
        assert main(["compare", str(a), str(b)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error") and "latin1.txt" in err and "UTF-8" in err

    def test_counts_not_adding_up_to_n_exits_3(self, tmp_path, capsys):
        a = write_report(tmp_path / "a.txt", 40, 10, 10, 10)
        b = write_report(tmp_path / "b.txt", 40, 10, 10, 10)
        b.write_text(b.read_text(encoding="utf-8").replace("tp = 40\n", f"tp = {10 ** 20}\n"),
                     encoding="utf-8")
        assert main(["compare", str(a), str(b)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("data error") and "b.txt" in captured.err
        assert "n = 70" in captured.err and "chi_square" not in captured.out

    def test_count_beyond_float_range_exits_3(self, tmp_path, capsys):
        a = write_report(tmp_path / "a.txt", 10 ** 400, 40, 10, 10)
        b = write_report(tmp_path / "b.txt", 10 ** 400, 40, 10, 10)
        assert main(["compare", str(a), str(b)]) == 3
        assert "chi-square" in capsys.readouterr().err

    def test_counts_too_large_for_float64_exit_3(self, tmp_path, capsys):
        # each count is a finite float, but the product of two margins is not;
        # no RuntimeWarning escapes, which this suite's filterwarnings would fail
        e = 10 ** 200
        a = write_report(tmp_path / "a.txt", e, 3 * e, e, e)
        b = write_report(tmp_path / "b.txt", 3 * e, e, e, e)
        assert main(["compare", str(a), str(b)]) == 3
        captured = capsys.readouterr()
        assert captured.err == ("data error: cannot run the chi-square test over these "
                                "reports: chi_square_test: the counts are too large for "
                                "float64 arithmetic (overflow encountered in multiply)\n")
        assert captured.out == ""

    def test_degenerate_table_exits_3(self, tmp_path, capsys):
        # two perfect classifiers leave the FP and FN columns all zero, so
        # the chi-square table has zero marginals
        a = write_report(tmp_path / "a.txt", 50, 50, 0, 0)
        b = write_report(tmp_path / "b.txt", 50, 50, 0, 0)
        code = main(["compare", str(a), str(b)])
        assert code == 3
        assert "chi-square" in capsys.readouterr().err


TEXT_INPUTS = ("csv", "jsonl", "stopwords", "whitelist", "embeddings", "config", "input",
               "report")


def text_input_run(tmp_path, kind):
    """(argv, the input of this kind it reads, the exit code if that read fails).

    Every input is valid and at least two lines long. A `train` run reads
    them all before it fits, so a failed read stops it before any training.
    """
    cfg = tmp_path / "c.cfg"
    files = {"config": cfg, "csv": tmp_path / "d.csv", "jsonl": tmp_path / "d.jsonl",
             "stopwords": tmp_path / "stop.txt", "whitelist": tmp_path / "keep.txt",
             "embeddings": tmp_path / "w2v.txt", "input": tmp_path / "reviews.txt",
             "report": tmp_path / "b.txt"}
    settings = TINY_CONFIG + "max_epochs = 1\n"
    data = files["csv"]
    if kind == "jsonl":
        data = files["jsonl"]
        data.write_text("".join(json.dumps({"text": t, "label": y}) + "\n"
                                for t, y in toy_reviews(40, seed=2)), encoding="utf-8")
        settings += "data_format = jsonl\n"
    else:
        write_toy_csv(data, 40, seed=2)
    if kind in ("stopwords", "whitelist"):
        files[kind].write_text("plot\nfilm\n", encoding="utf-8")
        settings += f"{kind} = {files[kind]}\n"
    if kind == "embeddings":
        row = " 0.1" * 8  # TINY_CONFIG's embedding_dim
        files[kind].write_text(f"2 8\ngood{row}\nbad{row}\n", encoding="utf-8")
        settings += f"embeddings = {files[kind]}\n"
    cfg.write_text(settings, encoding="utf-8")
    argv = ["train", "--config", str(cfg), "--data", str(data),
            "--out", str(tmp_path / "out")]
    if kind == "input":
        files[kind].write_text("good film\nbad film\n", encoding="utf-8")
        argv = ["predict", "--checkpoint", str(zero_checkpoint(tmp_path)),
                "--input", str(files[kind])]
    if kind == "report":
        write_report(files[kind], 30, 50, 10, 10)
        argv = ["compare", str(write_report(tmp_path / "a.txt", 40, 40, 10, 10)),
                str(files[kind])]
    return argv, files[kind], 2 if kind == "config" else 3


class _FailsAfterOneLine:
    """A text file whose every read after its first line fails with EIO."""

    def __init__(self, fh):
        self._fh = fh
        self._served = False

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        self._fh.close()

    def __iter__(self):
        return self

    def __next__(self):
        if self._served:
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        self._served = True
        return next(self._fh)

    def read(self, *args):
        raise OSError(errno.EIO, os.strerror(errno.EIO))


class TestTextInputs:
    """Every text input fails the same way: a failed read or a byte that is
    not UTF-8 gives the documented exit code and names the file."""

    @pytest.mark.parametrize("kind", TEXT_INPUTS)
    def test_failed_read(self, tmp_path, capsys, monkeypatch, kind):
        argv, target, code = text_input_run(tmp_path, kind)
        real_open = builtins.open

        def open_failing_target(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            if "b" not in mode and isinstance(file, (str, os.PathLike)) \
                    and Path(file) == target:
                return _FailsAfterOneLine(fh)
            return fh

        monkeypatch.setattr(builtins, "open", open_failing_target)
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("config error: " if code == 2 else "data error: ")
        assert str(target) in err and os.strerror(errno.EIO) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", TEXT_INPUTS)
    def test_bad_byte_names_the_line(self, tmp_path, capsys, kind):
        argv, target, code = text_input_run(tmp_path, kind)
        first, rest = target.read_bytes().split(b"\n", 1)
        target.write_bytes(first + b"\n\xff" + rest)
        assert main(argv) == code
        assert f"{target}: line 2: not valid UTF-8" in capsys.readouterr().err


def _overwrite(doc, edits):
    """`doc` with each (position, chunk) of `edits` written over its bytes."""
    data = bytearray(doc)
    for pos, chunk in edits:
        pos %= len(data) + 1
        data[pos:pos + len(chunk)] = chunk
    return bytes(data)


def edits(reach=400):
    """Up to four chunks of 1-4 bytes, at positions taken modulo the document size."""
    return st.lists(st.tuples(st.integers(0, reach), st.binary(min_size=1, max_size=4)),
                    min_size=1, max_size=4)


def hostile(valid):
    """Arbitrary bytes, or a valid document with a few bytes overwritten."""
    return st.one_of(st.binary(max_size=300), st.builds(_overwrite, valid, edits()))


def report_bytes(tp, tn, fp, fn):
    with tempfile.TemporaryDirectory() as tmp:
        return write_report(Path(tmp) / "r.txt", tp, tn, fp, fn).read_bytes()


counts = st.integers(1, 60)


@lru_cache(maxsize=1)
def checkpoint_bytes():
    """The toy checkpoint's bytes, and the (start, end) of each tensor payload."""
    params = toy_params()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        save_checkpoint(params, CONFIG, VOCAB, path,
                        stopwords=frozenset({"the"}), whitelist=frozenset({"not"}))
        doc = path.read_bytes()
    pos = 16 + struct.unpack_from("<I", doc, 8)[0]  # past the header and the tensor count
    slots = []
    for name, arr in params.named_arrays():
        pos += 2 + len(name) + 8  # name length, name, rows, cols
        slots.append((pos, pos + arr.nbytes))
        pos += arr.nbytes + 4
    return doc, slots


def reseal(doc, slots):
    """`doc` with the CRC after each payload slot and the file CRC recomputed."""
    data = bytearray(doc)
    for start, end in slots:
        data[end:end + 4] = struct.pack("<I", zlib.crc32(data[start:end]))
    body = bytes(data[:-4])
    return body + struct.pack("<I", zlib.crc32(body))


DATASETS = {
    "csv": "text,label\n" + "".join(f"{t},{y}\n" for t, y in toy_reviews(20, seed=3)),
    "jsonl": "".join(json.dumps({"text": t, "label": y}) + "\n"
                     for t, y in toy_reviews(20, seed=3)),
}


class TestArbitraryBytes:
    """Whatever bytes a config file, a report, a checkpoint or a dataset
    holds, the CLI ends in a documented exit code, never in an internal error."""

    @settings(max_examples=100, deadline=None)
    @given(data=hostile(st.just(TINY_CONFIG.encode("utf-8"))))
    def test_config_file(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "c.cfg"
            cfg.write_bytes(data)
            try:
                build_settings(parse_config_file(cfg))
            except ConfigError:
                pass

    @settings(max_examples=100, deadline=None)
    @given(a=hostile(st.builds(report_bytes, counts, counts, counts, counts)),
           b=hostile(st.builds(report_bytes, counts, counts, counts, counts)))
    def test_compare_reports(self, a, b):
        with tempfile.TemporaryDirectory() as tmp:
            paths = [Path(tmp) / "a.txt", Path(tmp) / "b.txt"]
            for path, data in zip(paths, (a, b)):
                path.write_bytes(data)
            assert main(["compare"] + [str(p) for p in paths]) in (0, 2, 3)

    @settings(max_examples=300, deadline=None)
    @given(chunks=edits(reach=1 << 16))
    def test_checkpoint(self, chunks):
        # resealed, so the bytes reach the header and tensor parsers instead
        # of stopping at a checksum
        doc, slots = checkpoint_bytes()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.ckpt"
            path.write_bytes(reseal(_overwrite(doc, chunks), slots))
            assert main(["predict", "--checkpoint", str(path), "--text", "good film"]) in \
                (0, 2, 3, 4)

    @pytest.mark.parametrize("fmt", sorted(DATASETS))
    @settings(max_examples=100, deadline=None)
    @given(chunks=edits(reach=1 << 16))
    def test_dataset(self, fmt, chunks):
        with tempfile.TemporaryDirectory() as tmp:
            data, cfg = Path(tmp) / f"d.{fmt}", Path(tmp) / "c.cfg"
            data.write_bytes(_overwrite(DATASETS[fmt].encode("utf-8"), chunks))
            cfg.write_text(TINY_CONFIG + f"max_epochs = 1\ndata_format = {fmt}\n",
                           encoding="utf-8")
            assert main(["train", "--config", str(cfg), "--data", str(data),
                         "--out", str(Path(tmp) / "out")]) in (0, 2, 3, 4)
