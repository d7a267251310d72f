"""Seeded input generator for the benchmark workloads.

Every input is a pure function of (seed, shape): the same seed gives the same
CSV files, checkpoint and request texts. Reviews are built from *content
tokens* that survive `clean_text` unchanged (synthetic CVCVCV words plus a
fixed set of sentiment keywords), interleaved with stopwords, capitals and
punctuation that cleaning strips. So the cleaned text of a review is known
here without calling the program, and its content-token count is its length.

Word frequencies follow a Zipf law (p(rank r) ~ 1/r) over more word types
than the vocabulary cap, and every type occurs at least once in the
vocabulary corpus, so `build_vocabulary` fills the cap.

Review lengths are long-tailed. Within each block of reviews that forms one
operation (a training chunk, a scored CSV file) lengths are drawn by
stratified sampling of one fixed quantile function, so every operation holds
nearly the same amount of work and the seed only moves words, labels and
order.
"""

import csv
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

POS_WORDS = ("great", "excellent", "superb", "wonderful", "brilliant", "love",
             "perfect", "enjoyable")
NEG_WORDS = ("awful", "terrible", "poor", "worst", "waste", "dull", "horrible", "bad")
# Stopwords (not whitelisted) that cleaning removes.
FILLER = ("the", "a", "and", "was", "this", "it", "of", "is", "with", "for",
          "that", "but", "on", "as", "at")
_CONSONANTS = "bdfgklmnprtvz"
_VOWELS = "aeiou"

WHY = {
    "train_reviews": "One-epoch fit chunks at the stock config: BPTT, the (V, d) "
                     "gradient allocation and Adam over 3.5M parameters do nearly "
                     "all the work, so backward-pass and optimizer changes show here.",
    "score_reviews": "Batch `opinionminer evaluate` over 128-review CSV files: forward "
                     "scans only, with checkpoint load, CSV parsing and cleaning on "
                     "the path, and long-tailed lengths that expose padding.",
    "predict_stream": "One client scoring short single reviews back to back: "
                      "batch-size-1 latency, where per-call overhead and cleaning "
                      "weigh most and a batched engine must not regress.",
}

# Workload ids keep the random streams of different workloads apart.
_STREAM = {"vocab": 1, "train_reviews": 2, "score_reviews": 3, "predict_stream": 4,
           "words": 5}


@dataclass(frozen=True)
class Shape:
    """Model and corpus sizes; FULL is the stock model, TOY the quick-check size."""
    name: str
    embedding_dim: int
    gru_units: int
    lstm_units: int
    vocab_size: int
    word_types: int
    max_len: int
    batch_size: int
    corpus_reviews: int
    score_file_reviews: int
    score_files: int
    predict_texts: int
    predict_min_tokens: int
    predict_max_tokens: int


FULL = Shape("full", embedding_dim=128, gru_units=256, lstm_units=128,
             vocab_size=20000, word_types=22000, max_len=200, batch_size=128,
             corpus_reviews=6000, score_file_reviews=128, score_files=16,
             predict_texts=2000, predict_min_tokens=5, predict_max_tokens=30)
TOY = Shape("toy", embedding_dim=8, gru_units=6, lstm_units=5,
            vocab_size=300, word_types=360, max_len=40, batch_size=16,
            corpus_reviews=400, score_file_reviews=16, score_files=4,
            predict_texts=100, predict_min_tokens=3, predict_max_tokens=8)
SHAPES = {"full": FULL, "toy": TOY}

_NORMAL = NormalDist()


def review_length(u, shape):
    """Content-token count at quantile u in [0, 1).

    95% of the mass is a lognormal body (median 24 tokens, most reviews 10-60
    at full size); the top 5% is a uniform tail from 60 to 260 tokens, so
    about 1.5% of reviews exceed max_len = 200 and are truncated.
    """
    scale = shape.max_len / 200.0
    if u < 0.95:
        body = math.exp(math.log(24.0) + 0.55 * _NORMAL.inv_cdf(max(u / 0.95, 1e-9)))
        tokens = min(max(body, 5.0), 90.0)
    else:
        tokens = 60.0 + 200.0 * (u - 0.95) / 0.05
    return max(2, int(round(tokens * scale)))


def stratified_lengths(rng, n, shape):
    """n lengths from one stratum each of the length quantile function, shuffled."""
    u = (np.arange(n) + rng.random(n)) / n
    return [review_length(float(x), shape) for x in rng.permutation(u)]


def _rng(seed, stream, index=0):
    return np.random.default_rng(np.random.SeedSequence([seed, _STREAM[stream], index]))


def word_list(seed, shape, stopwords):
    """`word_types` distinct synthetic words, most frequent first.

    CVCVCV words end in a vowel, so no stemmer suffix (ing/ed/ly/es/s)
    applies and cleaning leaves them unchanged.
    """
    rng = _rng(seed, "words")
    n_syl = len(_CONSONANTS) * len(_VOWELS)
    reserved = set(stopwords) | set(POS_WORDS) | set(NEG_WORDS)
    words = []
    seen = set()
    while len(words) < shape.word_types:
        for code in rng.integers(0, n_syl ** 3, size=shape.word_types):
            code = int(code)
            word = ""
            for _ in range(3):
                code, syl = divmod(code, n_syl)
                word += _CONSONANTS[syl // len(_VOWELS)] + _VOWELS[syl % len(_VOWELS)]
            if word in seen or word in reserved:
                continue
            seen.add(word)
            words.append(word)
            if len(words) == shape.word_types:
                break
    return words


def zipf_probabilities(n):
    weights = 1.0 / np.arange(1, n + 1)
    return weights / weights.sum()


def _keyword_count(length):
    return min(4, max(1, length // 15))


def _content(rng, label, length, draw_words):
    """Content tokens of one review: polarity keywords placed among Zipf words."""
    k = min(_keyword_count(length), length)
    pool = POS_WORDS if label else NEG_WORDS
    tokens = list(draw_words(length - k))
    for word in rng.choice(pool, size=k):
        tokens.insert(int(rng.integers(0, len(tokens) + 1)), str(word))
    return tokens


def raw_text(rng, tokens):
    """Dress content tokens as a raw review: stopwords, capitals and punctuation."""
    out = []
    for token in tokens:
        if rng.random() < 0.4:
            out.append(str(FILLER[int(rng.integers(0, len(FILLER)))]))
        out.append(token + ("," if rng.random() < 0.08 else ""))
    text = " ".join(out)
    return text[:1].upper() + text[1:] + "."


@dataclass
class Corpus:
    """Generated reviews: raw text, cleaned (content) text and label, in order."""
    raw: list
    clean: list
    labels: list

    def lengths(self):
        return [len(c.split()) for c in self.clean]


def vocabulary_corpus(seed, shape, words, stream="vocab", block=None):
    """`corpus_reviews` labelled reviews whose word multiset covers every type.

    Each type occurs once plus its Zipf share of the remaining tokens; the
    multiset is shuffled and dealt out to reviews in order. `block` sets the
    stratification block (one training chunk) so each block's length mix is
    the same.
    """
    rng = _rng(seed, stream)
    n = shape.corpus_reviews
    block = block or n
    lengths = []
    for start in range(0, n, block):
        lengths.extend(stratified_lengths(rng, min(block, n - start), shape))
    labels = [int(i % 2 == 0) for i in range(n)]
    zipf_total = sum(length - min(_keyword_count(length), length) for length in lengths)
    extra = max(zipf_total - len(words), 0)
    counts = 1 + np.floor(extra * zipf_probabilities(len(words))).astype(np.int64)
    counts[: zipf_total - int(counts.sum())] += 1
    stream_words = np.repeat(np.arange(len(words)), counts)[:zipf_total]
    stream_words = rng.permutation(stream_words)
    pos = 0

    def draw(k):
        nonlocal pos
        picked = [words[i] for i in stream_words[pos:pos + k]]
        pos += k
        return picked

    raw, clean = [], []
    for length, label in zip(lengths, labels):
        tokens = _content(rng, label, length, draw)
        clean.append(" ".join(tokens))
        raw.append(raw_text(rng, tokens))
    return Corpus(raw, clean, labels)


def sampled_corpus(rng, n, lengths, words, probs):
    """n reviews whose Zipf words are sampled (so tail types can be UNK)."""
    def draw(k):
        return [words[i] for i in rng.choice(len(words), size=k, p=probs)]

    labels = [int(x) for x in rng.permutation([i % 2 for i in range(n)])]
    raw, clean = [], []
    for length, label in zip(lengths, labels):
        tokens = _content(rng, label, length, draw)
        clean.append(" ".join(tokens))
        raw.append(raw_text(rng, tokens))
    return Corpus(raw, clean, labels)


def score_file(seed, shape, words, index):
    """The index-th scored CSV: `score_file_reviews` reviews, stratified lengths."""
    rng = _rng(seed, "score_reviews", index)
    lengths = stratified_lengths(rng, shape.score_file_reviews, shape)
    return sampled_corpus(rng, shape.score_file_reviews, lengths, words,
                          zipf_probabilities(len(words)))


def predict_texts(seed, shape, words):
    """Short single reviews; each block of the length range holds every length once."""
    rng = _rng(seed, "predict_stream")
    span = shape.predict_max_tokens - shape.predict_min_tokens + 1
    lengths = []
    while len(lengths) < shape.predict_texts:
        lengths.extend(int(x) + shape.predict_min_tokens for x in rng.permutation(span))
    lengths = lengths[: shape.predict_texts]
    return sampled_corpus(rng, shape.predict_texts, lengths, words,
                          zipf_probabilities(len(words)))


def write_csv(path, corpus):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["text", "label"])
        for text, label in zip(corpus.raw, corpus.labels):
            writer.writerow([text, label])


def length_profile(lengths, max_len):
    """The input properties a bucketing change depends on."""
    arr = np.asarray(lengths, dtype=np.float64)
    return {
        "reviews": int(arr.size),
        "mean_tokens": round(float(arr.mean()), 3),
        "p50_tokens": float(np.percentile(arr, 50)),
        "p99_tokens": float(np.percentile(arr, 99)),
        "truncated_share": round(float(np.mean(arr > max_len)), 5),
        "max_len": max_len,
    }
