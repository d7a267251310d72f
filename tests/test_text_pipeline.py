import json
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opinionminer import text_pipeline
from opinionminer.text_pipeline import (
    DEFAULT_WHITELIST,
    UNK_INDEX,
    DataError,
    LabeledCorpus,
    Review,
    balance_classes,
    build_vocabulary,
    clean_text,
    default_stopwords,
    encode_sequence,
    load_dataset,
    load_token_file,
    read_lines,
    stem_token,
    stratified_split,
)


# every character str.isspace knows: str.split, the old tokenizer's last step,
# splits on each of them
SPACES = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())


def corpus_of(*pairs):
    return LabeledCorpus.from_reviews(Review(t, y) for t, y in pairs)


class TestLoadDataset:
    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "mini.csv"
        path.write_text('text,label\n"great movie",1\nawful,0\n', encoding="utf-8")
        corpus = load_dataset(path, "csv")
        assert len(corpus) == 2
        assert (corpus.positive_count, corpus.negative_count) == (1, 1)
        assert corpus.reviews[0] == Review("great movie", 1)

    def test_bad_label_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("text,label\nfine,1\nbroken,2\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 3"):
            load_dataset(path, "csv")

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("text,label\nfine,1\nbroken,1,2\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 3: expected 2 fields, got 3"):
            load_dataset(path, "csv")

    def test_missing_text_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text('text,label\n"",1\n', encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            load_dataset(path, "csv")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("review,sentiment\nx,1\n", encoding="utf-8")
        with pytest.raises(DataError, match="header"):
            load_dataset(path, "csv")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_dataset(tmp_path / "nope.csv", "csv")

    def test_empty_corpus(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("text,label\n", encoding="utf-8")
        with pytest.raises(DataError, match="empty"):
            load_dataset(path, "csv")

    def test_jsonl(self, tmp_path):
        path = tmp_path / "mini.jsonl"
        rows = [{"text": "loved it", "label": 1}, {"text": "hated it", "label": 0}]
        path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
        corpus = load_dataset(path, "jsonl")
        assert (corpus.positive_count, corpus.negative_count) == (1, 1)

    def test_jsonl_bad_label_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": "x", "label": 1}\n{"text": "y", "label": 3}\n',
                        encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            load_dataset(path, "jsonl")

    @pytest.mark.parametrize("label", ["1.0", "0.0", '"1"', "true"])
    def test_jsonl_label_not_a_json_integer_names_line(self, tmp_path, label):
        # the CSV loader refuses 1.0 too
        path = tmp_path / "float.jsonl"
        path.write_text(f'{{"text": "x", "label": 1}}\n{{"text": "y", "label": {label}}}\n',
                        encoding="utf-8")
        with pytest.raises(DataError, match=r"float\.jsonl: line 2: label must be 0 or 1"):
            load_dataset(path, "jsonl")

    @pytest.mark.parametrize("fmt, blank", [("csv", "\n"), ("jsonl", "\n"), ("jsonl", " \t\n")])
    def test_blank_lines_leave_the_corpus_unchanged(self, tmp_path, fmt, blank):
        rows = {"csv": ["text,label\n", "loved it,1\n", "hated it,0\n"],
                "jsonl": ['{"text": "loved it", "label": 1}\n',
                          '{"text": "hated it", "label": 0}\n']}[fmt]
        plain, spaced = tmp_path / f"plain.{fmt}", tmp_path / f"spaced.{fmt}"
        plain.write_text("".join(rows), encoding="utf-8")
        spaced.write_text(blank.join(rows[:-1] + ["", rows[-1], ""]), encoding="utf-8")
        assert load_dataset(spaced, fmt) == load_dataset(plain, fmt)

    @pytest.mark.parametrize("row", ['{"label": 1}', '{"text": 5, "label": 1}',
                                     '{"text": " ", "label": 0}'])
    def test_jsonl_missing_text_names_line(self, tmp_path, row):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": "x", "label": 1}\n' + row + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"bad\.jsonl: line 2: missing text"):
            load_dataset(path, "jsonl")

    def test_non_utf8_csv_names_line(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"text,label\ngood film,1\nna\xefve plot,0\n")
        with pytest.raises(DataError, match=r"latin1\.csv: line 3: not valid UTF-8"):
            load_dataset(path, "csv")

    def test_csv_field_over_limit_names_line(self, tmp_path):
        # the csv module's default field_size_limit is 131,072 characters
        path = tmp_path / "long.csv"
        path.write_text("text,label\nfine,1\n" + "a" * 131_073 + ",0\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"long\.csv: line 3: field larger"):
            load_dataset(path, "csv")

    def test_jsonl_non_object_names_line(self, tmp_path):
        path = tmp_path / "list.jsonl"
        path.write_text('{"text": "x", "label": 1}\n["y", 0]\n', encoding="utf-8")
        with pytest.raises(DataError, match=r"list\.jsonl: line 2: expected a JSON object"):
            load_dataset(path, "jsonl")

    def test_merged_corpus_counts(self, tmp_path):
        # count bookkeeping at a realistic merged-corpus scale
        path = tmp_path / "merged.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("text,label\n")
            for i in range(28230):
                fh.write(f"pos review {i},1\n")
            for i in range(27397):
                fh.write(f"neg review {i},0\n")
        corpus = load_dataset(path, "csv")
        assert (corpus.positive_count, corpus.negative_count) == (28230, 27397)

    def test_counts_match_reviews(self, tmp_path):
        path = tmp_path / "mini.csv"
        path.write_text("text,label\na,1\nb,0\nc,1\n", encoding="utf-8")
        corpus = load_dataset(path, "csv")
        assert (corpus.positive_count, corpus.negative_count) == (2, 1)
        assert [r.label for r in corpus.reviews] == [1, 0, 1]


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark, as Excel's "CSV UTF-8" writes, is
    not part of the first line."""

    def test_csv(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbftext,label\ngood film,1\n")
        assert load_dataset(path, "csv").reviews == [Review("good film", 1)]

    def test_jsonl(self, tmp_path):
        path = tmp_path / "bom.jsonl"
        path.write_bytes(b'\xef\xbb\xbf{"text": "good film", "label": 1}\n')
        assert load_dataset(path, "jsonl").reviews == [Review("good film", 1)]

    def test_token_file(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_bytes(b"\xef\xbb\xbffilm\nplot\n")
        assert load_token_file(path) == {"film", "plot"}


def test_bad_byte_line_counts_carriage_returns(tmp_path):
    # a file with bare CR line endings: the line number is the one the
    # readers count, not the count of LF bytes
    path = tmp_path / "cr.csv"
    path.write_bytes(b"text,label\rgood film,1\rna\xefve plot,0\r")
    with pytest.raises(DataError, match=r"cr\.csv: line 3: not valid UTF-8"):
        load_dataset(path, "csv")


class TestOnePass:
    """read_lines opens a file once, and still names the line of a bad byte
    that lies far past the decoder's read-ahead."""

    @pytest.fixture
    def opened(self, monkeypatch):
        paths = []

        def counting_open(file, *args, **kwargs):
            paths.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(text_pipeline, "open", counting_open, raising=False)
        return paths

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_bad_byte_far_in(self, tmp_path, opened, newline):
        rows = [b"text,label"] + [b"a fine old film number %d,1" % i for i in range(1, 6000)]
        rows[4999] = b"na\xefve plot,0"  # line 5,000 of about 180 KB
        path = tmp_path / "far.csv"
        path.write_bytes(newline.join(rows) + newline)
        with pytest.raises(DataError, match=r"far\.csv: line 5000: not valid UTF-8"):
            load_dataset(path, "csv")
        assert opened == [path]

    def test_valid_non_ascii_reads_unchanged(self, tmp_path, opened):
        lines = ["text,label\r\n", "café crème brûlée,1\n", "naïve plot,0\r", "ok,1\n"]
        path = tmp_path / "accents.csv"
        path.write_bytes(b"\xef\xbb\xbf" + "".join(lines).encode("utf-8"))
        assert list(read_lines(path)) == lines
        assert opened == [path]


class TestCleanText:
    def test_whitelist_retention(self):
        out = clean_text("This movie was NOT very good!!!",
                         stopwords=frozenset({"this", "was"}),
                         whitelist=frozenset({"not", "very"}))
        # "movie" is not stopworded, so it survives alongside the whitelist hits
        assert out == "movie not very good"

    def test_empty_input(self):
        assert clean_text("", frozenset(), frozenset()) == ""

    def test_stemmer_rules(self):
        # hand-applied suffix rules: ing with undoubling, plain s, no er rule
        assert clean_text("Running runs runner", frozenset(), frozenset()) == "run run runner"

    def test_stem_token_cases(self):
        assert stem_token("classes") == "class"
        assert stem_token("dress") == "dress"
        assert stem_token("lovely") == "love"
        assert stem_token("falling") == "fall"
        assert stem_token("was") == "was"  # min stem length blocks the strip

    def test_stem_cache_is_bounded_and_changes_nothing(self):
        assert stem_token.cache_info().maxsize is not None
        rng = np.random.default_rng(5)
        stems = ["".join(rng.choice(list("abdegilnorstuy"), size=int(rng.integers(1, 8))))
                 for _ in range(300)]
        words = [str(rng.choice(stems)) + str(rng.choice(["", "s", "es", "ed", "ing", "ly",
                                                          "ings", "edly", "ss"]))
                 for _ in range(3000)]
        text = " ".join(words)
        stem_token.cache_clear()
        cold = clean_text(text)
        assert stem_token.cache_info().hits > 0
        assert clean_text(text) == cold
        assert [stem_token(w) for w in words] == [stem_token.__wrapped__(w) for w in words]

    def test_punctuation_to_spaces(self):
        assert clean_text("good-bad, good...bad", frozenset(), frozenset()) \
            == "good bad good bad"

    def test_default_lists_keep_negations(self):
        out = clean_text("It was not very good")
        assert "not" in out.split()
        assert "very" in out.split()
        assert "was" not in out.split()

    def test_idempotent_on_examples(self):
        samples = [
            "The movies were not very good!!!",
            "Running THEs dresses needings",
            "so so bad...",
        ]
        for s in samples:
            once = clean_text(s)
            assert clean_text(once) == once

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=80))
    def test_idempotent_property(self, raw):
        once = clean_text(raw)
        assert clean_text(once) == once

    @settings(max_examples=500, deadline=None)
    @given(st.text(st.one_of(st.characters(),
                             st.characters(categories=["Mn", "Mc", "Me", "Nd"]),
                             st.sampled_from("_0123456789" + SPACES)), max_size=80))
    def test_tokens_match_the_substitute_and_split_tokenizer(self, raw):
        # the old tokenizer, written out: runs of [\W_] to a space, then split
        old = re.sub(r"[\W_]+", " ", raw.lower()).split()
        assert text_pipeline._WORD.findall(raw.lower()) == old
        stopwords, whitelist = default_stopwords(), DEFAULT_WHITELIST
        kept = [t for t in old if t in whitelist or t not in stopwords]
        stemmed = [stem_token(t) for t in kept]
        final = [t for t in stemmed if t in whitelist or t not in stopwords]
        assert clean_text(raw) == " ".join(final)

    @settings(max_examples=100, deadline=None)
    @given(st.text(alphabet="abcdeing s.!", max_size=60))
    def test_idempotent_suffix_heavy(self, raw):
        once = clean_text(raw, stopwords=frozenset({"the", "a", "is"}),
                          whitelist=frozenset({"not"}))
        assert clean_text(once, stopwords=frozenset({"the", "a", "is"}),
                          whitelist=frozenset({"not"})) == once


class TestVocabulary:
    def test_frequency_order(self):
        vocab = build_vocabulary(corpus_of(("a a b", 1)), max_size=10, min_freq=1)
        assert vocab.token_to_index == {"<pad>": 0, "<unk>": 1, "a": 2, "b": 3}

    def test_min_freq_threshold(self):
        vocab = build_vocabulary(corpus_of(("a a b", 1)), max_size=10, min_freq=2)
        assert vocab.token_to_index == {"<pad>": 0, "<unk>": 1, "a": 2}

    def test_tie_break_lexicographic(self):
        vocab = build_vocabulary(corpus_of(("x y", 1)), max_size=3, min_freq=1)
        assert vocab.size == 3
        assert vocab.index_to_token[2] == "x"

    def test_inverse_maps(self):
        vocab = build_vocabulary(corpus_of(("c a b a", 1)), max_size=10, min_freq=1)
        for token, idx in vocab.token_to_index.items():
            assert vocab.index_to_token[idx] == token
        assert all(i < vocab.size for i in vocab.token_to_index.values())

    def test_empty_corpus(self):
        with pytest.raises(DataError):
            build_vocabulary(LabeledCorpus.from_reviews([]), max_size=10)


class TestEncodeSequence:
    @pytest.fixture
    def vocab(self):
        return build_vocabulary(corpus_of(("a a a b b c", 1)), max_size=10, min_freq=1)

    def test_padding(self, vocab):
        # nothing is padded: the batched engine packs the real tokens only
        seq = encode_sequence("a b", vocab, max_len=4)
        assert seq.indices.tolist() == [2, 3]
        assert seq.indices.dtype == np.int64
        assert seq.true_length == 2

    def test_short_review_stores_only_its_tokens(self, vocab):
        seq = encode_sequence(" ".join(["a", "b"] * 10), vocab, max_len=4096)
        assert seq.indices.shape == (20,) and seq.true_length == 20
        assert encode_sequence("", vocab, max_len=5).indices.shape == (0,)

    def test_unknown_token(self, vocab):
        seq = encode_sequence("a z", vocab, max_len=4)
        assert seq.indices.tolist() == [2, UNK_INDEX]

    def test_front_truncation_keeps_tail(self, vocab):
        seq = encode_sequence("a a b b c", vocab, max_len=3)
        assert seq.indices.tolist() == [3, 3, 4]  # last three tokens: b b c
        assert seq.true_length == 3

    def test_roundtrip(self, vocab):
        for text, max_len in [("a b c", 5), ("a a b b c", 3), ("c", 2)]:
            seq = encode_sequence(text, vocab, max_len)
            expect = " ".join(text.split()[-max_len:])
            assert " ".join(vocab.index_to_token[i] for i in seq.indices) == expect


class TestBalanceClasses:
    def test_forced_target(self):
        corpus = corpus_of(*[(f"p{i}", 1) for i in range(100)],
                           *[(f"n{i}", 0) for i in range(40)])
        out = balance_classes(corpus, seed=3)
        assert (out.positive_count, out.negative_count) == (40, 40)

    def test_noop_when_balanced(self):
        corpus = corpus_of(("p", 1), ("n", 0), ("q", 1), ("m", 0))
        out = balance_classes(corpus, seed=3)
        assert out.reviews == corpus.reviews

    def test_seed_determinism(self):
        corpus = corpus_of(*[(f"p{i}", 1) for i in range(97)],
                           *[(f"n{i}", 0) for i in range(25)])
        a = balance_classes(corpus, seed=11)
        b = balance_classes(corpus, seed=11)
        assert a.reviews == b.reviews
        c = balance_classes(corpus, seed=12)
        assert (c.positive_count, c.negative_count) == (25, 25)

    def test_minority_untouched_order_preserved(self):
        corpus = corpus_of(*[(f"p{i}", 1) for i in range(50)],
                           *[(f"n{i}", 0) for i in range(10)])
        out = balance_classes(corpus, seed=0)
        negs = [r.text for r in out.reviews if r.label == 0]
        assert negs == [f"n{i}" for i in range(10)]
        pos = [r.text for r in out.reviews if r.label == 1]
        assert pos == sorted(pos, key=lambda t: int(t[1:]))

    def test_empty_class_rejected(self):
        with pytest.raises(DataError):
            balance_classes(corpus_of(("p", 1), ("q", 1)), seed=0)

    def test_always_equal_counts(self):
        rng = np.random.default_rng(7)
        for trial in range(50):
            n_pos = int(rng.integers(1, 60))
            n_neg = int(rng.integers(1, 60))
            corpus = corpus_of(*[(f"p{i}", 1) for i in range(n_pos)],
                               *[(f"n{i}", 0) for i in range(n_neg)])
            out = balance_classes(corpus, seed=trial)
            assert out.positive_count == out.negative_count == min(n_pos, n_neg)


class TestStratifiedSplit:
    def test_exact_proportionality(self):
        corpus = corpus_of(*[(f"p{i}", 1) for i in range(70)],
                           *[(f"n{i}", 0) for i in range(70)])
        train, test = stratified_split(corpus, 0.3, seed=5)
        assert (train.positive_count, train.negative_count) == (49, 49)
        assert (test.positive_count, test.negative_count) == (21, 21)

    def test_half_split(self):
        corpus = corpus_of(*[(f"p{i}", 1) for i in range(10)],
                           *[(f"n{i}", 0) for i in range(10)])
        train, test = stratified_split(corpus, 0.5, seed=5)
        assert (train.positive_count, train.negative_count) == (5, 5)
        assert (test.positive_count, test.negative_count) == (5, 5)

    def test_large_corpus_integer_arithmetic(self):
        # floor(28230*0.3)=8469, floor(27397*0.3)=8219 -> test 16688, train 38939
        corpus = corpus_of(*[(f"p{i}", 1) for i in range(28230)],
                           *[(f"n{i}", 0) for i in range(27397)])
        train, test = stratified_split(corpus, 0.3, seed=5)
        assert test.positive_count == 8469
        assert test.negative_count == 8219
        assert len(train) == 38939
        assert len(train) + len(test) == len(corpus)

    def test_union_and_disjoint(self):
        corpus = corpus_of(*[(f"p{i}", 1) for i in range(13)],
                           *[(f"n{i}", 0) for i in range(9)])
        train, test = stratified_split(corpus, 0.4, seed=2)
        train_texts = {r.text for r in train.reviews}
        test_texts = {r.text for r in test.reviews}
        assert not train_texts & test_texts
        assert train_texts | test_texts == {r.text for r in corpus.reviews}

    def test_too_small_class(self):
        with pytest.raises(DataError):
            stratified_split(corpus_of(("p", 1), ("q", 1), ("n", 0)), 0.5, seed=0)

    def test_ratio_tolerance_randomized(self):
        rng = np.random.default_rng(123)
        for trial in range(30):
            n_pos = int(rng.integers(4, 200))
            n_neg = int(rng.integers(4, 200))
            frac = float(rng.uniform(0.1, 0.9))
            corpus = corpus_of(*[(f"p{i}", 1) for i in range(n_pos)],
                               *[(f"n{i}", 0) for i in range(n_neg)])
            train, test = stratified_split(corpus, frac, seed=trial)
            assert abs(test.positive_count - n_pos * frac) <= 1
            assert abs(test.negative_count - n_neg * frac) <= 1


def test_default_stopwords_loaded():
    words = default_stopwords()
    assert "the" in words and "was" in words
    # whitelist defaults cover the negations and boosters named in the docs
    assert {"not", "no", "never", "nor", "very", "too", "so"} <= set(DEFAULT_WHITELIST)


@pytest.mark.parametrize("call, message", [
    (lambda: load_dataset("reviews.xml", fmt="xml"), "unknown dataset format: 'xml'"),
    (lambda: build_vocabulary(corpus_of(("a b", 1)), max_size=2), "max_size must be >= 3, got 2"),
    (lambda: build_vocabulary(corpus_of(("a b", 1)), max_size=10, min_freq=0),
     "min_freq must be >= 1, got 0"),
    (lambda: encode_sequence("a b", build_vocabulary(corpus_of(("a b", 1)), max_size=10),
                             max_len=0), "max_len must be >= 1, got 0"),
    (lambda: stratified_split(corpus_of(("a", 1), ("b", 0)), 1.0, seed=0),
     "test_fraction must be in (0, 1), got 1.0"),
], ids=["format", "max_size", "min_freq", "max_len", "test_fraction"])
def test_an_argument_out_of_range_is_named(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_review_label_validated():
    with pytest.raises(ValueError):
        Review("x", 2)
