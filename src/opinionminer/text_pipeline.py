"""Review ingestion, cleaning, vocabulary construction and integer encoding.

Every function here is pure and deterministic: randomized operations
(balancing, splitting) take an explicit seed instead of touching any global
RNG state.
"""

import csv
import json
import math
import os
import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

PAD_INDEX = 0
UNK_INDEX = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

# Negations and boosters that survive stopword removal by default.
DEFAULT_WHITELIST = frozenset(
    {"not", "no", "never", "nor", "n't", "very", "extremely", "really", "too", "so"}
)

_WORD = re.compile(r"[^\W_]+")

# Suffix-rule stemmer: longest rules first, minimum surviving stem length 3.
_SUFFIXES = ("ing", "ed", "ly", "es", "s")
_MIN_STEM = 3
_NO_UNDOUBLE = set("aeioulsz")


class DataError(Exception):
    """Unreadable, malformed or empty dataset."""


@dataclass(frozen=True)
class Review:
    text: str
    label: int

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label!r}")


@dataclass
class LabeledCorpus:
    reviews: list
    positive_count: int
    negative_count: int

    @classmethod
    def from_reviews(cls, reviews):
        reviews = list(reviews)
        pos = sum(1 for r in reviews if r.label == 1)
        return cls(reviews, pos, len(reviews) - pos)

    def __len__(self):
        return len(self.reviews)


@dataclass(frozen=True)
class Vocabulary:
    token_to_index: dict
    index_to_token: tuple

    @property
    def size(self):
        return len(self.index_to_token)

    @classmethod
    def from_content_tokens(cls, tokens):
        index_to_token = (PAD_TOKEN, UNK_TOKEN) + tuple(tokens)
        return cls({t: i for i, t in enumerate(index_to_token)}, index_to_token)


@dataclass(frozen=True)
class TokenSequence:
    indices: np.ndarray  # int64, one index per kept token, no PAD

    @property
    def true_length(self):
        return len(self.indices)


@lru_cache(maxsize=1)
def default_stopwords():
    """The packaged list, data/stopwords.txt beside this module, read by load_token_file."""
    return load_token_file(os.path.join(os.path.dirname(__file__), "data", "stopwords.txt"))


def load_token_file(path):
    """One token per line, UTF-8; blank lines ignored."""
    return frozenset(line.strip() for line in read_lines(path) if line.strip())


def read_lines(path, error=DataError):
    """Yield the lines of a UTF-8 text file, each with its line ending.

    The file is opened with newline="", which csv needs, and a leading
    byte-order mark is dropped. An OSError while the file is opened or read
    raises error("cannot read <path>: ..."), and a byte that is not UTF-8
    raises error("<path>: line N: not valid UTF-8").
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            yield from fh
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        # the decoder reads ahead in blocks, so decode again, keeping each bad
        # byte as a lone surrogate (which UTF-8 cannot encode), to find its line
        try:
            with open(path, encoding="utf-8-sig", errors="surrogateescape",
                      newline="") as fh:
                for line_num, line in enumerate(fh, start=1):
                    try:
                        line.encode("utf-8")
                    except UnicodeEncodeError:
                        raise error(f"{path}: line {line_num}: not valid UTF-8") from exc
        except OSError as reread:
            raise error(f"cannot read {path}: {reread}") from reread
        raise error(f"{path}: not valid UTF-8") from exc


def load_dataset(path, fmt="csv"):
    """Read a labeled review file into a LabeledCorpus.

    CSV files need a `text,label` header; JSONL files need one object per
    line with a string `text` and a `label` that is the JSON integer 0 or 1
    (1.0, "1" and true are not). Rows with empty text or any other label
    raise DataError naming the offending line.
    """
    if fmt == "csv":
        reviews = _load_csv(path)
    elif fmt == "jsonl":
        reviews = _load_jsonl(path)
    else:
        raise ValueError(f"unknown dataset format: {fmt!r}")
    if not reviews:
        raise DataError(f"{path}: empty corpus")
    return LabeledCorpus.from_reviews(reviews)


def _load_csv(path):
    reviews = []
    reader = csv.reader(read_lines(path))
    try:
        header = next(reader, None)
        if header != ["text", "label"]:
            raise DataError(f"{path}: expected header 'text,label', got {header!r}")
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != 2:
                raise DataError(f"{path}: line {line}: expected 2 fields, got {len(row)}")
            text, label = row
            if not text.strip():
                raise DataError(f"{path}: line {line}: missing text")
            if label not in ("0", "1"):
                raise DataError(f"{path}: line {line}: label must be 0 or 1, got {label!r}")
            reviews.append(Review(text, int(label)))
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from exc
    return reviews


def _load_jsonl(path):
    reviews = []
    for line_num, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: line {line_num}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise DataError(f"{path}: line {line_num}: expected a JSON object")
        text = obj.get("text")
        label = obj.get("label")
        if not isinstance(text, str) or not text.strip():
            raise DataError(f"{path}: line {line_num}: missing text")
        if type(label) is not int or label not in (0, 1):  # not 1.0, "1" or true
            raise DataError(f"{path}: line {line_num}: label must be 0 or 1, got {label!r}")
        reviews.append(Review(text, label))
    return reviews


@lru_cache(maxsize=1 << 16)
def stem_token(token):
    """Rule-based suffix stemmer, applied until a fixed point.

    Per pass: strip the first suffix of ing/ed/ly/es/s that leaves at least
    3 characters; 's' never strips after 'ss'; a doubled trailing consonant
    left by ing/ed loses one letter unless it is l, s or z. Iterating to a
    fixed point makes stemming (and clean_text) idempotent. A corpus repeats
    its words, so the results of the last 65536 distinct tokens are cached.
    """
    while True:
        stripped = _strip_one_suffix(token)
        if stripped == token:
            return token
        token = stripped


def _strip_one_suffix(token):
    for suffix in _SUFFIXES:
        if not token.endswith(suffix):
            continue
        stem = token[: -len(suffix)]
        if len(stem) < _MIN_STEM:
            continue
        if suffix == "s" and token.endswith("ss"):
            continue
        if (
            suffix in ("ing", "ed")
            and stem[-1] == stem[-2]
            and stem[-1] not in _NO_UNDOUBLE
            and len(stem) - 1 >= _MIN_STEM
        ):
            stem = stem[:-1]
        return stem
    return token


def clean_text(raw, stopwords=None, whitelist=None):
    """Lowercase, strip punctuation, drop stopwords (whitelist wins), stem.

    Stopword filtering runs on the raw lowercased tokens and again on the
    stemmed tokens, so cleaning an already-clean string is a no-op.
    """
    if stopwords is None:
        stopwords = default_stopwords()
    if whitelist is None:
        whitelist = DEFAULT_WHITELIST
    tokens = _WORD.findall(raw.lower())
    kept = [t for t in tokens if t in whitelist or t not in stopwords]
    stemmed = [stem_token(t) for t in kept]
    final = [t for t in stemmed if t in whitelist or t not in stopwords]
    return " ".join(final)


def clean_corpus(corpus, stopwords=None, whitelist=None):
    """clean_text over every review; labels and order preserved."""
    cleaned = [Review(clean_text(r.text, stopwords, whitelist), r.label) for r in corpus.reviews]
    return LabeledCorpus.from_reviews(cleaned)


def build_vocabulary(corpus, max_size, min_freq=1):
    """Frequency-ranked vocabulary over a cleaned corpus.

    Tokens are ranked by descending frequency with lexicographic tie-break;
    the top (max_size - 2) tokens with frequency >= min_freq fill indices
    2..; index 0 is PAD and index 1 is UNK.
    """
    if max_size < 3:
        raise ValueError(f"max_size must be >= 3, got {max_size}")
    if min_freq < 1:
        raise ValueError(f"min_freq must be >= 1, got {min_freq}")
    if not corpus.reviews:
        raise DataError("cannot build a vocabulary from an empty corpus")
    counts = Counter()
    for review in corpus.reviews:
        counts.update(review.text.split())
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    content = [token for token, freq in ranked if freq >= min_freq][: max_size - 2]
    return Vocabulary.from_content_tokens(content)


def encode_sequence(text, vocab, max_len):
    """Map a cleaned string to the indices of its tokens.

    Unknown tokens become UNK; sequences longer than max_len keep their last
    max_len tokens. Nothing is padded, here or in the batched engine, which
    packs the real tokens of a sub-batch.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    index_of = vocab.token_to_index.get
    mapped = [index_of(t, UNK_INDEX) for t in text.split()]
    return TokenSequence(indices=np.array(mapped[-max_len:], dtype=np.int64))


def encode_corpus(corpus, vocab, max_len):
    """Encode every review, returning (TokenSequence, label) pairs."""
    return [(encode_sequence(r.text, vocab, max_len), r.label) for r in corpus.reviews]


def balance_classes(corpus, seed):
    """Undersample the majority class down to the minority count.

    The survivors are chosen uniformly at random (seeded) and keep their
    original relative order; the minority class is untouched.
    """
    pos = [i for i, r in enumerate(corpus.reviews) if r.label == 1]
    neg = [i for i, r in enumerate(corpus.reviews) if r.label == 0]
    if not pos or not neg:
        raise DataError("balance_classes requires both classes to be non-empty")
    if len(pos) == len(neg):
        return LabeledCorpus.from_reviews(corpus.reviews)
    majority, minority = (pos, neg) if len(pos) > len(neg) else (neg, pos)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(majority), size=len(minority), replace=False)
    keep = {majority[j] for j in chosen}
    keep.update(minority)
    return LabeledCorpus.from_reviews(r for i, r in enumerate(corpus.reviews) if i in keep)


def stratified_split(corpus, test_fraction, seed):
    """Per-class seeded shuffle then proportional cut into (train, test).

    Each class contributes floor(count * test_fraction) members to the test
    side, clamped so both sides keep at least one member per class. Output
    corpora preserve the original review order.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    test_idx = set()
    for label in (0, 1):
        members = [i for i, r in enumerate(corpus.reviews) if r.label == label]
        if len(members) < 2:
            raise DataError(
                f"class {label} has {len(members)} member(s); need >= 2 to split"
            )
        # +1e-9 guards binary-float fuzz so e.g. 28230 * 0.3 lands on 8469
        n_test = math.floor(len(members) * test_fraction + 1e-9)
        n_test = min(max(n_test, 1), len(members) - 1)
        order = rng.permutation(len(members))
        test_idx.update(members[j] for j in order[:n_test])
    train = [r for i, r in enumerate(corpus.reviews) if i not in test_idx]
    test = [r for i, r in enumerate(corpus.reviews) if i in test_idx]
    return LabeledCorpus.from_reviews(train), LabeledCorpus.from_reviews(test)
