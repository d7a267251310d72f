"""Model layers and their exact backward passes.

The stack is: trainable embedding lookup -> bidirectional GRU (forward and
backward scans concatenated per timestep) -> LSTM -> single sigmoid unit.
Two reduced stacks reuse the same cells: `lstm_only` feeds embeddings
straight into the LSTM and `gru_lstm` uses only the forward GRU scan.

Cell math, spelled out once here, run only by the stacked scans below and
mirrored by the backward code (the tests keep a gate-by-gate transcription
of it that shares no code with this module):

    GRU     z = sigmoid(W_z [h_prev, x] + b_z)
            r = sigmoid(W_r [h_prev, x] + b_r)
            h_cand = tanh(W_h [r * h_prev, x] + b_h)   # r gates h_prev
                                                       # before the concat
            h = (1 - z) * h_prev + z * h_cand

    LSTM    f, i, o = sigmoid(W_g [h_prev, x] + b_g)
            c_cand = tanh(W_c [h_prev, x] + b_c)
            C = f * C_prev + i * c_cand
            h = o * tanh(C)

One engine runs every stack at any batch size. A batch of B encoded
sequences is sorted shortest-first and packed (see Packing): every
per-token array holds only the N real tokens, as (N, ...) rows in
time-major order, so the rows of step t are one contiguous block, those of
the batch rows [first[t]:] still inside their sequence. Each step of the
four time loops (both scans and their backward passes) computes that block
only. Each sequence starts from the zero state, the reverse GRU at its last
token, and the LSTM's final state is that of its last token, so a
sequence's outputs do not depend on the others in its batch. The time loop
projects its inputs, X W_x^T + b, one span at a time (Packing.spans: whole
step blocks in scan order), each span with one matrix product when the
loop reaches it, and each step adds its recurrent products into its block
of the projection in place, which leaves the gates there. In train mode
the one span is the whole batch, projected into the trace's gates block;
in infer mode spans of at least SPAN_ROWS rows are projected in turn into
one scratch block, so an infer pass holds no gate block as long as the
batch. Temporaries are allocated once per loop. The GRU directions write
their h into their own column slices of one array, the LSTM input, which
no concatenation copies. That input is whole before the LSTM starts: its
first step reads the reverse GRU's output at the first token, which that
scan computes last. Each layer stores its gates stacked in one matrix,
whose columns split into the recurrent and the input weights; the
checkpoint tensors W_z, b_z, ... are row views of it. All block arrays
are slices of one
vector, ModelParams.flat, whose layout _layout states once for a stack and
its sizes: ModelParams.zeros lays it over a new vector, which initialization
draws into and checkpoint loading copies into, and param_shapes reads the
checkpoint's tensor shapes off it. Adam's moments and the best epoch's
copy lay the same blocks over vectors of their own (ModelParams.like). A
gradient does too, or holds only some embedding rows: a training batch's
gradient (zero_grads with rows) keeps only the rows its tokens read.
The backward pass writes each row's gate pre-activation gradients over
that row's gates in the trace, gathers the state each row's step read
(Packing.previous) and adds each weight gradient into its block with one
matrix product after the loop; the embedding gradient is scattered into
each token's row with np.add.at. It consumes its cache, dropping each
array after its last read: the LSTM's c and tanh_c after its loop, its h
once gathered, the rest of its trace before the GRU passes and each GRU
direction's trace before the next.
`sub_batches` sorts sequences by length and cuts them into groups of at
most ROW_BUDGET tokens, which bounds the trace memory. `model_forward` and
`model_backward` are the engine at B = 1.

Dropout is inverted (train-time scaling by 1/(1-rate)), applied to the
recurrent output sequence and to the final hidden state in train mode only.
Each sequence draws its two masks, in that order, from its own seeded
generator, so a batch reproduces the per-sequence passes.
"""

import math
from dataclasses import dataclass, fields
from typing import ClassVar, Optional

import numpy as np

from .tensor_math import affine, glorot_uniform, sigmoid

# The GRU directions of each stack, in the order their outputs are
# concatenated into the LSTM input: (parameter block, scans right to left).
# Every other statement of the layout -- tensor names and order, shapes,
# init draws, forward and backward wiring -- is derived from this table.
STACKS = {
    "hbgru_lstm": (("gru_fwd", False), ("gru_bwd", True)),
    "lstm_only": (),
    "gru_lstm": (("gru_fwd", False),),
}

# Most real tokens one sub-batch may hold, which bounds its traces and
# backward temporaries: a train pass projects all of a sub-batch's inputs
# into its gate traces, an infer pass only SPAN_ROWS-sized spans of them.
# TRAIN_PEAK_PER_TOKEN and INFER_PEAK_PER_TOKEN in tests/test_batched.py
# bound the bytes a token takes at full size. On the train_reviews
# benchmark, budgets of 1024 to 3072 tokens trained at the same speed
# within the run-to-run noise, and 2048 and 3072 raised the peak RSS by 23
# and 77 MB over 1536 (measured while the backward pass still allocated
# its gate gradients beside the gates).
ROW_BUDGET = 1536

# Fewest rows an infer-mode scan projects in one matrix product (see
# Packing.spans), unless its whole sub-batch has fewer. Each product packs
# the whole input weight block again, so short spans cost speed: on a
# 2-core Xeon at 2 OpenBLAS threads the LSTM's 512 x 512 projection ran at
# 58, 83 and 90 GFLOP/s in spans of 128 and 256 rows and in one product of
# 1,536 rows. On the score_reviews benchmark (seed 5, 10 alternating runs),
# 128-row spans cut the peak RSS from 123.5 to 113.2 MB and 256-row spans
# to 115.3 MB, at medians of 353 and 366 reviews/s against 377 when each
# scan projected its whole input (interquartile range 357-402).
SPAN_ROWS = 128


@dataclass
class EmbeddingParams:
    E: np.ndarray  # (vocab_size, dim); row 0 is PAD, kept all-zero
    TENSORS: ClassVar = ("E",)

    @property
    def vocab_size(self):
        return self.E.shape[0]

    @property
    def dim(self):
        return self.E.shape[1]


@dataclass
class GatedParams:
    """A recurrent layer with its G gates stacked in GATES order, k rows each.

    W (G*k, k + in_dim) reads [h_prev, x], so W[:, :k] holds the recurrent
    and W[:, k:] the input weights; b is (G*k,). The checkpoint stores each
    gate's rows as the tensors W_<gate> and b_<gate>.
    """
    W: np.ndarray
    b: np.ndarray
    GATES: ClassVar = ()

    def __init_subclass__(cls):
        cls.TENSORS = tuple(f"{t}_{gate}" for gate in cls.GATES for t in ("W", "b"))

    @property
    def hidden_size(self):
        return self.W.shape[0] // len(self.GATES)


class GruParams(GatedParams):
    GATES: ClassVar = ("z", "r", "h")


class LstmParams(GatedParams):
    GATES: ClassVar = ("f", "i", "o", "c")


@dataclass
class DenseParams:
    W: np.ndarray  # (1, m)
    b: np.ndarray  # (1,)
    TENSORS: ClassVar = ("W", "b")


def _blocks(stack):
    """(block name, params class) pairs of a stack, in checkpoint order."""
    if stack not in STACKS:
        raise ValueError(f"unknown stack variant: {stack!r}")
    return ([("embedding", EmbeddingParams)]
            + [(block, GruParams) for block, _ in STACKS[stack]]
            + [("lstm", LstmParams), ("dense", DenseParams)])


def _layout(stack, vocab_size, embedding_dim, gru_units, lstm_units):
    """(block, params class, shape of each of its arrays), in the order of flat.

    A gated layer stacks its G gates' rows: W is (G * units, units + input
    width), since each gate reads [h_prev, x], and b is (G * units,).
    """
    blocks = _blocks(stack)
    lstm_in = gru_units * len(STACKS[stack]) if STACKS[stack] else embedding_dim
    gru, lstm = len(GruParams.GATES) * gru_units, len(LstmParams.GATES) * lstm_units
    shapes = {EmbeddingParams: [(vocab_size, embedding_dim)],
              GruParams: [(gru, gru_units + embedding_dim), (gru,)],
              LstmParams: [(lstm, lstm_units + lstm_in), (lstm,)],
              DenseParams: [(1, lstm_units), (1,)]}
    return [(block, cls, shapes[cls]) for block, cls in blocks]


def param_shapes(stack, vocab_size, embedding_dim, gru_units, lstm_units):
    """{tensor name: shape} in checkpoint order: each block array split as in named_arrays."""
    shapes = {}
    for block, cls, arrays in _layout(stack, vocab_size, embedding_dim, gru_units, lstm_units):
        gates = len(cls.TENSORS) // len(arrays)
        parts = [(shape[0] // gates, *shape[1:]) for shape in arrays] * gates
        shapes.update(zip((f"{block}.{t}" for t in cls.TENSORS), parts))
    return shapes


@dataclass
class ModelParams:
    """Every parameter, each block array a reshaped slice of one vector, flat.

    A gradient from zero_grads(params, rows) has the same layout but for
    embedding.E, which holds only the vocabulary rows `rows`, in order;
    `rows` is None wherever E holds every row.
    """
    stack: str
    flat: np.ndarray
    embedding: EmbeddingParams
    lstm: LstmParams
    dense: DenseParams
    gru_fwd: Optional[GruParams] = None
    gru_bwd: Optional[GruParams] = None
    rows: Optional[np.ndarray] = None

    def named_arrays(self):
        """Yield (name, row view of its block array) for every tensor, in checkpoint order."""
        for block, cls in _blocks(self.stack):
            # with n fields, field j stacks the rows of TENSORS j, j + n, ... (a gate's W, b)
            arrays = [getattr(getattr(self, block), f.name) for f in fields(cls)]
            parts = zip(*(np.split(a, len(cls.TENSORS) // len(arrays)) for a in arrays))
            yield from zip((f"{block}.{t}" for t in cls.TENSORS), sum(parts, ()))

    def shapes(self):
        """The shape of every block array, in the order of flat."""
        blocks = [getattr(self, block) for block, _ in _blocks(self.stack)]
        return [getattr(b, f.name).shape for b in blocks for f in fields(b)]

    def like(self, flat):
        """The same layout over another vector of flat's size."""
        return _over(self.stack, self.shapes(), flat, self.rows)

    def clone(self):
        return self.like(self.flat.copy())

    @classmethod
    def zeros(cls, stack, *sizes):
        """A zero vector with the block arrays of a stack of the given sizes
        (vocab_size, embedding_dim, gru_units, lstm_units) laid over it."""
        shapes = [shape for _, _, arrays in _layout(stack, *sizes) for shape in arrays]
        return _over(stack, shapes, np.zeros(sum(math.prod(shape) for shape in shapes)))


def _over(stack, shapes, flat, rows=None):
    """ModelParams whose block arrays are consecutive slices of flat, reshaped."""
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    views = iter(part.reshape(shape) for part, shape in zip(np.split(flat, ends[:-1]), shapes))
    return ModelParams(stack, flat, rows=rows, **{block: cls(*(next(views) for _ in fields(cls)))
                                                  for block, cls in _blocks(stack)})


def _grad_shapes(params, rows):
    """The block shapes of a gradient of params holding the embedding rows `rows`."""
    shapes = params.shapes()
    if rows is not None:  # E leads the layout
        shapes[0] = (len(rows), params.embedding.dim)
    return shapes


def zero_grads(params, rows=None):
    """A zero gradient for params, in their layout or for some embedding rows.

    rows, if given, is a sorted integer array of vocabulary rows, PAD (0)
    first and none twice. The gradient's E is then (len(rows), d), its row
    j that of vocabulary row rows[j], and every other block is laid out as
    in params. Without rows, E holds every row.
    """
    if rows is not None:
        rows = np.asarray(rows)
        _check_grad_rows(rows, params.embedding.vocab_size)
    shapes = _grad_shapes(params, rows)
    return _over(params.stack, shapes, np.zeros(sum(math.prod(s) for s in shapes)), rows)


def _check_grad_rows(rows, vocab_size):
    if not (rows.ndim == 1 and rows.size and np.issubdtype(rows.dtype, np.integer)
            and rows[0] == 0 and (rows[1:] > rows[:-1]).all() and rows[-1] < vocab_size):
        raise ValueError(f"gradient rows must be sorted, unique, inside [0, {vocab_size}) "
                         f"and start with PAD (0)")


def check_grad_layout(params, grads):
    """ValueError unless grads is laid out as zero_grads lays out a gradient of params."""
    if grads.rows is not None:
        _check_grad_rows(grads.rows, params.embedding.vocab_size)
    want = _grad_shapes(params, grads.rows)
    got = grads.shapes()
    if grads.stack != params.stack or got != want or \
            grads.flat.shape != (sum(math.prod(s) for s in want),):
        raise ValueError(f"gradient layout {grads.stack!r} {got} ({grads.flat.size} floats) "
                         f"does not match the parameters' {params.stack!r} {want}")


def init_model_params(vocab_size, embedding_dim, gru_units, lstm_units,
                      stack="hbgru_lstm", seed=0):
    """Seeded Glorot-uniform weights, zero biases, zero PAD embedding row.

    Each weight is drawn straight into its view of the vector, in checkpoint
    order, from one generator.
    """
    params = ModelParams.zeros(stack, vocab_size, embedding_dim, gru_units, lstm_units)
    rng = np.random.default_rng(seed)
    for _, view in params.named_arrays():
        if view.ndim == 2:
            glorot_uniform(rng, view)
    params.embedding.E[0] = 0.0
    return params


class Packing:
    """The packed layout of B sequences sorted shortest-first.

    Every per-token array of a batch holds its N = sum(lengths) real tokens
    as rows in time-major order, which is padded[mask] of the post-padded
    (T, B) batch. So the rows of step t are one block off[t]:off[t+1], and
    they belong to the batch rows first[t]: still inside their sequence.
    order[r] is row r's position in the sequences concatenated whole.
    """

    def __init__(self, lengths):
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.ndim != 1 or not lengths.size or lengths.min() < 1:
            raise ValueError("a batch needs sequences with at least one token")
        if (lengths[1:] < lengths[:-1]).any():
            raise ValueError("a batch must be sorted shortest-first, as sub_batches yields it")
        steps = np.arange(lengths[-1])[:, np.newaxis]
        self.lengths = lengths
        self.mask = steps < lengths
        counts = self.mask.sum(axis=1)
        self.first = (len(lengths) - counts).tolist()
        self.off = [0] + np.cumsum(counts).tolist()
        self.order = (steps + (np.cumsum(lengths) - lengths))[self.mask]

    def previous(self, reverse=False):
        """Row of the state each row's step read, or -1 where it read the zero state.

        That is the same sequence's row one step earlier in scan order: t-1,
        or t+1 for a reverse scan, which starts at each sequence's last token.
        """
        T, B = self.mask.shape
        row = np.full((T + 1, B), -1)  # row[T] stays -1: the zero state
        row[:T][self.mask] = np.arange(self.off[-1])
        return (row[1:] if reverse else row[np.arange(-1, T - 1)])[self.mask]

    def spans(self, limit, reverse=False):
        """The scan cut into spans of at least `limit` rows, as (a, e, steps).

        A span is a run `steps` of whole consecutive step blocks in scan
        order, descending for a reverse scan; its rows a:e are contiguous
        either way. It takes blocks until it holds `limit` rows, and if
        fewer than `limit` rows would be left after it, it takes them too.
        So only a batch of under `limit` rows has a span under `limit`.
        """
        off, N = self.off, self.off[-1]
        order = range(len(self.first))[::-1 if reverse else 1]
        spans, start, before = [], 0, 0  # the open span: first position in order, rows before it
        for i, t in enumerate(order):
            done = N - off[t] if reverse else off[t + 1]  # rows scanned through step t
            if done == N or (done - before >= limit and N - done >= limit):
                steps = order[start:i + 1]
                spans.append((off[min(steps)], off[max(steps) + 1], steps))
                start, before = i + 1, done
        return spans


def _check_rows(X, packing):
    if len(X) != packing.off[-1]:
        raise ValueError(f"{len(X)} input rows do not match a packing of "
                         f"{packing.off[-1]} tokens")


@dataclass
class GruTrace:
    """Per-token GRU values, in the packed order: h (N, k) and the gates
    block (N, 3k), whose column blocks of k are z, r and h_cand in that
    order (np.split(gates, 3, axis=1) gives the three).

    gates is None when the scan kept only h, the part the LSTM reads. The
    backward pass overwrites gates with their pre-activation gradients and
    h with r * h_prev.
    """
    h: np.ndarray
    gates: Optional[np.ndarray] = None


@dataclass
class LstmTrace:
    """The final state of each sequence, (B, m), and per-token values: the
    gates block (N, 4m), whose column blocks of m are f, i, o and c_cand in
    that order (np.split(gates, 4, axis=1) gives the four), and h, c and
    tanh_c (N, m).

    When the scan kept only what the dense head reads, the per-token values
    are None. The backward pass overwrites gates with their pre-activation
    gradients.
    """
    h_last: np.ndarray
    gates: Optional[np.ndarray] = None
    h: Optional[np.ndarray] = None
    c: Optional[np.ndarray] = None
    tanh_c: Optional[np.ndarray] = None


def embed_lookup(index, emb):
    """Rows of E for an integer index array of any shape, as (..., d)."""
    index = np.asarray(index)
    if index.size and (index.min() < 0 or index.max() >= emb.vocab_size):
        raise IndexError("token index out of embedding range")
    return emb.E[index]


def gru_scan(p, X, packing, reverse=False, trace=True, h_out=None):
    """Run a GRU over packed (N, in_dim) inputs, each sequence from a zero state.

    Step t computes the rows of `packing`'s block t only. reverse=True scans
    t = T..1, so row (t, j)'s previous state is that of (t+1, j), and the
    zero state at the sequence's last token; the rows keep their packed
    order either way. The input projection X W_x^T + b is one matrix
    product per span (Packing.spans), taken when the loop reaches the span:
    with `trace` there is one span, projected into the trace's gates block;
    without it only h is kept, and spans of SPAN_ROWS rows or more are
    projected in turn into one scratch block. h is written into h_out, an
    (N, k) array such as a column slice of the LSTM input, or into a new
    array.
    """
    _check_rows(X, packing)
    k = p.hidden_size
    B = len(packing.lengths)
    if h_out is None:
        h_out = np.empty((len(X), k))
    elif h_out.shape != (len(X), k):
        raise ValueError(f"h_out has shape {h_out.shape}, not {(len(X), k)}")
    W_x, W_zr, W_hh = p.W[:, k:].T, p.W[:2 * k, :k].T, p.W[2 * k:, :k].T
    spans, gates = _span_gates(packing, 3 * k, trace, reverse)
    out = GruTrace(h=h_out, gates=gates if trace else None)
    h = np.zeros((B, k))
    tmp_zr, tmp, tmp2 = np.empty((B, 2 * k)), np.empty((B, k)), np.empty((B, k))
    for a0, e0, steps in spans:
        # the span's input projections; each step adds its recurrent products in place
        span = np.matmul(X[a0:e0], W_x, out=gates[:e0 - a0])
        span += p.b
        for t in steps:
            s, a, e = packing.first[t], packing.off[t], packing.off[t + 1]
            hs, v, w, g = h[s:], tmp[s:], tmp2[s:], span[a - a0:e - a0]
            zr, z, r, h_cand = g[:, :2 * k], g[:, :k], g[:, k:2 * k], g[:, 2 * k:]
            zr += np.matmul(hs, W_zr, out=tmp_zr[s:])
            sigmoid(zr, out=zr)
            np.multiply(r, hs, out=v)
            h_cand += np.matmul(v, W_hh, out=w)
            np.tanh(h_cand, out=h_cand)
            np.subtract(h_cand, hs, out=v)  # h = h_prev + z * (h_cand - h_prev)
            v *= z
            hs += v
            out.h[a:e] = hs
    return out


def lstm_scan(p, X, packing, trace=True):
    """Run the LSTM over packed (N, in_dim) inputs, each sequence from a zero state.

    Step t computes the rows of `packing`'s block t only, so each sequence's
    final state is that of its last token. The input projection is taken
    span by span, as in gru_scan. Without `trace` only the final states are
    kept.
    """
    _check_rows(X, packing)
    m = p.hidden_size
    B = len(packing.lengths)
    W_x, W_h = p.W[:, m:].T, p.W[:, :m].T
    spans, gates = _span_gates(packing, 4 * m, trace)
    out = LstmTrace(h_last=np.zeros((B, m)))
    if trace:
        out.gates = gates
        out.h, out.c, out.tanh_c = (np.empty((len(X), m)) for _ in range(3))
    h = out.h_last
    C = np.zeros((B, m))
    tmp_a, tmp = np.empty((B, 4 * m)), np.empty((B, m))
    for a0, e0, steps in spans:
        # the span's input projections; each step adds its recurrent product in place
        span = np.matmul(X[a0:e0], W_x, out=gates[:e0 - a0])
        span += p.b
        for t in steps:
            s, a, e = packing.first[t], packing.off[t], packing.off[t + 1]
            hs, Cs, v, g = h[s:], C[s:], tmp[s:], span[a - a0:e - a0]
            f, i, o, c_cand = (g[:, j * m:(j + 1) * m] for j in range(4))
            g += np.matmul(hs, W_h, out=tmp_a[s:])
            sigmoid(g[:, :3 * m], out=g[:, :3 * m])
            np.tanh(c_cand, out=c_cand)
            Cs *= f
            np.multiply(i, c_cand, out=v)
            Cs += v
            tanh_c = out.tanh_c[a:e] if trace else v
            np.tanh(Cs, out=tanh_c)
            np.multiply(o, tanh_c, out=hs)
            if trace:
                out.c[a:e], out.h[a:e] = Cs, hs
    return out


def _span_gates(packing, width, trace, reverse=False):
    """The spans a scan projects its inputs in, and the (rows, width) block
    they are projected into: in train mode one span, into the trace's gates
    (a row per token), else spans of SPAN_ROWS rows or more, each in turn
    into one scratch block as long as the longest."""
    spans = packing.spans(packing.off[-1] if trace else SPAN_ROWS, reverse)
    return spans, np.empty((max(e - a for a, e, _ in spans), width))


def dense_sigmoid(p, h):
    """Probability from the single-unit sigmoid head, one per row of h (..., m).

    The head takes the sigmoid in exp form: unlike the gates' tanh form, it
    keeps its relative precision for very negative logits, which the loss of
    a confidently wrong review reads. There is one logit per review, so the
    stdlib's exp on each costs less than importing a vectorized sigmoid.
    """
    z = affine(p.W, h, p.b)[..., 0]
    return np.array([_exp_sigmoid(x) for x in z.ravel().tolist()]).reshape(z.shape)


def _exp_sigmoid(x):
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:  # exp(-x) is past the largest float: the result is 0
        return 0.0


def classify(yhat):
    """Decision threshold at 0.5; the boundary itself is positive."""
    return 1 if yhat >= 0.5 else 0


@dataclass
class BatchCache:
    """A forward_batch call: per-token arrays in the packed order of `packing`.

    The GRU and LSTM traces hold their gate blocks (`gates`, one per
    trace) only in train mode, the one mode whose caches backward_batch
    accepts. The GRU traces' h are column slices of one array, which is
    lstm_in itself unless a dropout mask was applied to it. backward_batch
    consumes a cache: it drops grus, seq_mask, lstm_in and lstm (set to (),
    None, None and None) after their last read, and overwrites the traces'
    gate blocks with their pre-activation gradients and each GRU trace's h
    with r * h_prev.
    """
    stack: str
    mode: str
    dropout_rate: float
    packing: Packing
    index: np.ndarray            # (N,) token indices
    x: np.ndarray                # (N, d) embedded inputs
    grus: tuple                  # one GruTrace per STACKS direction, in order
    seq_mask: Optional[np.ndarray]   # (N, in_dim) dropout mask, LSTM input
    lstm_in: Optional[np.ndarray]    # (N, in_dim) sequence the LSTM consumed
    lstm: Optional[LstmTrace]
    out_mask: Optional[np.ndarray]   # (B, m) dropout mask, final hidden state
    h_final: np.ndarray          # (B, m) rows the dense head consumed
    yhat: np.ndarray             # (B,)


def _check_mode(mode, dropout_rate):
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown mode: {mode!r}")
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {dropout_rate}")


def forward_batch(params, seqs, mode="infer", dropout_rate=0.0, seeds=None):
    """Forward pass over non-empty encoded sequences, packed (see Packing).

    The sequences must come sorted shortest-first, as sub_batches yields
    them; Packing raises ValueError otherwise. Train mode with dropout
    draws sequence j's masks from a generator seeded with seeds[j], the
    LSTM-input mask first, as model_forward does for one sequence. Infer
    mode keeps only what each next layer reads, which is enough for the
    probabilities but not for backward_batch.
    """
    _check_mode(mode, dropout_rate)
    trace = mode == "train"
    train = trace and dropout_rate > 0.0  # masks are drawn
    if train and (seeds is None or len(seeds) != len(seqs)):
        got = "None" if seeds is None else f"{len(seeds)} seeds"
        raise ValueError(f"train-mode dropout needs seeds, one per sequence: "
                         f"got {got} for {len(seqs)} sequences")
    packing = Packing([seq.true_length for seq in seqs])
    index = np.concatenate([seq.indices for seq in seqs])[packing.order]
    x = embed_lookup(index, params.embedding)

    # each GRU direction writes its h into its own columns of the LSTM input
    directions = STACKS[params.stack]
    H, grus = x, ()
    if directions:
        k = params.gru_fwd.hidden_size
        H = np.empty((len(x), k * len(directions)))
        grus = tuple(gru_scan(getattr(params, block), x, packing, reverse, trace,
                              H[:, j * k:(j + 1) * k])
                     for j, (block, reverse) in enumerate(directions))

    # inverted dropout; raw embeddings are not dropped, so the sequence
    # mask is drawn only after a GRU and always before the final-state mask.
    # The masked copy leaves H, which the GRU traces view, as it is.
    rngs = [np.random.default_rng(seed) for seed in seeds] if train else []
    seq_mask = out_mask = None
    if train and grus:
        seq_mask = np.concatenate([rng.random((n, H.shape[1])) >= dropout_rate
                                   for rng, n in zip(rngs, packing.lengths)])[packing.order]
        H = H * seq_mask
        H /= 1.0 - dropout_rate

    lt = lstm_scan(params.lstm, H, packing, trace)
    h_final = lt.h_last
    if train:
        out_mask = np.stack([rng.random(h_final.shape[1]) >= dropout_rate for rng in rngs])
        h_final = h_final * out_mask / (1.0 - dropout_rate)
    return BatchCache(
        stack=params.stack, mode=mode, dropout_rate=dropout_rate, packing=packing,
        index=index, x=x, grus=grus, seq_mask=seq_mask, lstm_in=H, lstm=lt,
        out_mask=out_mask, h_final=h_final, yhat=dense_sigmoid(params.dense, h_final),
    )


def model_forward(params, seq, mode="infer", dropout_rate=0.0, seed=0):
    """Full forward pass for one encoded sequence: forward_batch at B = 1.

    Returns (yhat, cache), the cache being forward_batch's with B = 1. Train
    mode draws dropout masks from a generator seeded with `seed`, so (seed,
    input) fully determines the output. An all-PAD input yields (0.5, None).
    """
    _check_mode(mode, dropout_rate)
    if seq.true_length == 0:
        return 0.5, None
    cache = forward_batch(params, [seq], mode, dropout_rate, [seed])
    return float(cache.yhat[0]), cache


def sub_batches(seqs):
    """Index lists of length-sorted groups of at most ROW_BUDGET tokens.

    Sorting by length lets a group's scans step only the rows still inside
    their sequence (sequence bucketing). Groups are filled from the longest
    sequence down, so the long tail shares as few time steps as the budget
    allows: each step reads the whole recurrent weight block, however few
    rows it computes. All-PAD sequences are left out: they score 0.5 and
    have no gradient. A sequence longer than the budget gets a group of its
    own.
    """
    lengths = [seq.true_length for seq in seqs]
    order = [j for j in np.argsort(lengths, kind="stable") if lengths[j] > 0]
    groups, end = [], len(order)
    while end:
        start, tokens = end - 1, lengths[order[end - 1]]
        while start and tokens + lengths[order[start - 1]] <= ROW_BUDGET:
            start -= 1
            tokens += lengths[order[start]]
        groups.append(order[start:end])
        end = start
    return groups[::-1]


def predict_proba(params, seqs):
    """Infer-mode probabilities of encoded sequences, in input order.

    Runs the length-sorted sub-batches keeping only what each next layer
    reads; an all-PAD sequence gets 0.5, as in model_forward.
    """
    yhat = np.full(len(seqs), 0.5)
    for rows in sub_batches(seqs):
        yhat[rows] = forward_batch(params, [seqs[j] for j in rows]).yhat
    return yhat


def _previous_states(H, prev):
    """H[prev]: the state each packed row's step read, zero where prev is -1."""
    out = H[prev]
    out[prev < 0] = 0.0
    return out


def _dsigmoid_in_place(y, scratch, *factors):
    """y = y * (1 - y) * factors, in place, with 1 - y left in scratch: the
    derivative of y = sigmoid(a)."""
    y *= np.subtract(1.0, y, out=scratch)
    for f in factors:
        y *= f
    return y


def _times_dtanh(out, y, *factors):
    """out = (1 - y^2) * factors, which may be y itself: the derivative of y = tanh(a)."""
    np.multiply(y, y, out=out)
    np.subtract(1.0, out, out=out)
    for f in factors:
        out *= f
    return out


def _lstm_backward(p, cache, prev, dh_last, grad):
    """BPTT through the LSTM, adding to `grad`; returns d(loss)/d(input), (N, in_dim).

    Takes the LSTM trace and input out of `cache` and drops each array after
    its last read. `prev` is packing.previous(). Step t updates only the rows
    of block t; the other batch rows carry their gradient. Each step writes
    its gates' pre-activation gradients df, di, do and dcc over its rows of
    the gates block, keeping the f and i it still reads in scratch rows.
    """
    trace, U, packing = cache.lstm, cache.lstm_in, cache.packing
    cache.lstm = cache.lstm_in = None
    m = p.hidden_size
    W_h = p.W[:, :m]
    da = trace.gates
    dh = np.array(dh_last, dtype=np.float64)
    dc = np.zeros_like(dh)
    tmp, f_kept, i_kept = (np.empty_like(dh) for _ in range(3))
    for t in range(len(packing.first) - 1, -1, -1):
        s, a, e = packing.first[t], packing.off[t], packing.off[t + 1]
        d, tc = da[a:e], trace.tanh_c[a:e]
        f, i, o, cc = (d[:, g * m:(g + 1) * m] for g in range(4))  # -> df, di, do, dcc
        dhs, dcs, v, f0, i0 = dh[s:], dc[s:], tmp[s:], f_kept[s:], i_kept[s:]
        dcs += _times_dtanh(v, tc, o, dhs)
        np.copyto(f0, f)
        np.copyto(i0, i)
        if t:  # block t's rows are the last rows of block t - 1
            _dsigmoid_in_place(f, v, trace.c[2 * a - e:a], dcs)
        else:  # the zero initial state
            f.fill(0.0)
        _dsigmoid_in_place(i, v, cc, dcs)
        _dsigmoid_in_place(o, v, tc, dhs)
        _times_dtanh(cc, cc, i0, dcs)
        np.matmul(d, W_h, out=dhs)
        dcs *= f0
    trace.c = trace.tanh_c = None
    h_prev = _previous_states(trace.h, prev)
    trace.h = None
    grad.W[:, :m] += da.T @ h_prev
    del h_prev
    grad.W[:, m:] += da.T @ U
    grad.b += da.sum(axis=0)
    del U  # the input gradient does not read it
    return da @ p.W[:, m:]


def _gru_backward(p, trace, X, packing, prev, dH, grad, reverse=False):
    """BPTT through one GRU direction, adding to `grad`; returns d(loss)/d(input), (N, in_dim).

    `prev` is packing.previous(reverse). For the reverse scan the recurrent
    neighbour of step t is t+1, so the gradient sweep runs t = 1..T instead
    of t = T..1. Step t updates only the rows of block t. Each step writes
    its gates' pre-activation gradients dz, dr and dhc over its rows of the
    gates block, and r * h_prev, which the W_hh gradient reads, over its rows
    of h, which nothing reads once h_prev is gathered.
    """
    k = p.hidden_size
    W_zr, W_hh = p.W[:2 * k, :k], p.W[2 * k:, :k]
    da, rh = trace.gates, trace.h
    h_prev = _previous_states(trace.h, prev)
    B = len(packing.lengths)
    dh = np.zeros((B, k))
    tmp, tmp2, tmp3, tmp4 = (np.empty((B, k)) for _ in range(4))
    T = len(packing.first)
    for t in range(T) if reverse else range(T - 1, -1, -1):
        s, a, e = packing.first[t], packing.off[t], packing.off[t + 1]
        d, hp = da[a:e], h_prev[a:e]
        z, r, hc = (d[:, g * k:(g + 1) * k] for g in range(3))  # -> dz, dr, dhc
        dhs, dv, w, nz, rdv = dh[s:], tmp[s:], tmp2[s:], tmp3[s:], tmp4[s:]
        dhs += dH[a:e]
        np.multiply(hp, r, out=rh[a:e])
        np.subtract(hc, hp, out=w)
        _times_dtanh(hc, hc, z, dhs)
        np.matmul(hc, W_hh, out=dv)  # d(loss)/d(r * h_prev)
        _dsigmoid_in_place(z, nz, dhs, w)
        np.multiply(dv, r, out=rdv)
        _dsigmoid_in_place(r, w, hp, dv)
        dhs *= nz  # d(loss)/d(h_prev), nz = 1 - z
        dhs += rdv
        np.matmul(d[:, :2 * k], W_zr, out=dv)
        dhs += dv
    grad.W[:2 * k, :k] += da[:, :2 * k].T @ h_prev
    del h_prev
    grad.W[2 * k:, :k] += da[:, 2 * k:].T @ rh
    grad.W[:, k:] += da.T @ X
    grad.b += da.sum(axis=0)
    return da @ p.W[:, k:]


def _token_rows(grads, index):
    """The row of grads' E that each token index adds into (ValueError if it has none)."""
    rows = grads.rows
    if rows is None:
        return index
    pos = np.searchsorted(rows, index)
    if pos.size and (pos.max() == len(rows) or (rows[pos] != index).any()):
        raise ValueError("the gradient holds no embedding row for a token of the batch")
    return pos


def backward_batch(params, cache, dL_dyhat, grads):
    """Add the exact gradients of sum_j loss_j to `grads` (from zero_grads).

    `cache` comes from a train-mode forward_batch call on the same params
    and dL_dyhat, of shape (B,) exactly, holds each d(loss_j)/d(yhat_j).
    Each token's input gradient is scattered into its row of the gradient's
    E, which must hold every row the batch reads; the PAD row is forced to
    zero. The pass consumes the cache, writing the gate gradients over the
    traces and dropping each trace after its last read, so a second pass
    over it raises ValueError. A call that raises ValueError before the
    pass starts leaves the cache and `grads` as they were.
    """
    if cache.mode != "train":
        raise ValueError("the backward pass needs a cache recorded in train mode")
    if cache.lstm is None:
        raise ValueError("consumed cache: a backward pass has already run over it; "
                         "run forward_batch again")
    if cache.stack != params.stack:
        raise ValueError(
            f"cache stack {cache.stack!r} does not match params stack {params.stack!r}"
        )
    if cache.x.shape[1] != params.embedding.dim or \
            cache.lstm.h.shape[1] != params.lstm.hidden_size:
        raise ValueError("stale cache: shapes do not match params")
    B = len(cache.packing.lengths)
    if np.shape(dL_dyhat) != (B,):
        raise ValueError(f"dL_dyhat has shape {np.shape(dL_dyhat)}, not ({B},): "
                         f"one upstream gradient per sequence of the batch")
    token_rows = _token_rows(grads, cache.index)

    # dense head: yhat = sigmoid(W h + b)
    ds = dL_dyhat * cache.yhat * (1.0 - cache.yhat)
    grads.dense.W += ds @ cache.h_final
    grads.dense.b += ds.sum()
    dh_final = params.dense.W[0] * ds[:, np.newaxis]

    if cache.out_mask is not None:
        dh_final = dh_final * cache.out_mask / (1.0 - cache.dropout_rate)

    packing = cache.packing
    prev = packing.previous()
    dU = _lstm_backward(params.lstm, cache, prev, dh_final, grads.lstm)

    if cache.seq_mask is not None:
        dU *= cache.seq_mask
        dU /= 1.0 - cache.dropout_rate
        cache.seq_mask = None

    # each GRU direction owns an equal slice of the LSTM input columns; its
    # trace leaves the cache for the call, so it goes when the call returns
    grus, cache.grus = list(cache.grus), ()
    dX = dU
    for j, (block, reverse) in enumerate(STACKS[params.stack]):
        k = dU.shape[1] // len(STACKS[params.stack])
        dXj = _gru_backward(getattr(params, block), grus.pop(0), cache.x, packing,
                            packing.previous(True) if reverse else prev,
                            dU[:, j * k:(j + 1) * k], getattr(grads, block), reverse)
        dX = dXj if j == 0 else np.add(dX, dXj, out=dX)

    # a PAD index inside a sequence adds nothing to the frozen PAD row, the
    # first row in either layout
    np.add.at(grads.embedding.E, token_rows, dX)
    grads.embedding.E[0] = 0.0


def model_backward(params, cache, dL_dyhat):
    """Exact gradients of a scalar loss, in the layout of params (see zero_grads).

    `cache` must come from a train-mode model_forward call on the same
    params; this is backward_batch at B = 1, and it consumes the cache in
    the same way. The None cache of an all-PAD input gives zero gradients.
    """
    grads = zero_grads(params)
    if cache is not None:
        backward_batch(params, cache, np.array([dL_dyhat]), grads)
    return grads
