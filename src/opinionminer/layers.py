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
sequence's outputs do not depend on the others in its batch. The scans
run span by span (Packing.spans: whole step blocks in scan order, whose
rows are contiguous): a scan call runs one span from the state the call
before it left, on inputs that hold the span's rows only (the embedded
rows are gathered a span at a time, from indices checked once a pass),
and projects them, X W_x^T + b, with one matrix product. In train mode
the one span is the whole batch, projected into the trace's gates block;
in infer mode the spans hold at least SPAN_ROWS rows and every scan
projects into one scratch block, so an infer pass holds no gate block as
long as the batch. Each step
computes its gates in contiguous (B, ...) scratch, allocated once per
scan call like every temporary: its recurrent products go into the
scratch, its rows of the projection are added into it and the
activations run there. In train mode each activated
gate block is then copied into the trace, so a trace's gate block takes one
write a step. No ufunc of the four loops reads and writes the same strided
view of a gate block: at the few rows a step computes, such an in-place
pass costs about twice one over contiguous memory. The GRU directions write
their h into their own column slices of one array, the LSTM input, which
no concatenation copies. The LSTM's first step reads the reverse GRU's
output at the first token, which that scan computes last, so the reverse
GRU runs first, over the whole batch. The forward GRU and the LSTM then
run in lockstep, span by span: the forward GRU writes the span's h into
its columns of the LSTM input, the reverse GRU's rows of the span are
copied into theirs, and the LSTM projects that input and runs the span's
steps; its projection may take the shared scratch block because the
forward GRU's steps over the span are done. In train mode the LSTM input
holds the whole batch, which the cache keeps; in infer mode it holds one
span, so an infer pass keeps whole only the token indices and the reverse
GRU's output. Where one forward span covers the batch (train mode, or a
short infer batch), the reverse GRU writes into the LSTM input itself,
with nothing to copy, and the embedded rows are gathered once.

Each layer stores its gates stacked in one matrix, whose columns split
into the recurrent and the input weights; the checkpoint tensors W_z,
b_z, ... are row views of it. All block arrays are slices of one vector,
ModelParams.flat, whose layout _layout states once for a stack and its
sizes: ModelParams.zeros lays it over a new vector, which initialization
draws into and checkpoint loading copies into, and param_shapes reads the
checkpoint's tensor shapes off it. Adam's moments and the best epoch's
copy lay the same blocks over vectors of their own (ModelParams.like). A
gradient does too, or holds only some embedding rows: a training batch's
gradient (zero_grads with rows) keeps only the rows its tokens read.
The backward pass builds each step's gate pre-activation gradients in
contiguous scratch and writes each over its gate's rows of the trace with
its last product, gathers the state each row's step read
(Packing.previous) and adds each weight gradient into its block with one
matrix product after the loop (the LSTM's input weights one gate's rows at
a time); the embedding gradient is scattered into each token's row with
np.add.at. A train pass keeps per token only what the backward pass cannot
take again bit for bit: its index, each GRU direction's gates, the LSTM
input before dropout and its dropout mask, and the LSTM's gates, h and c.
The backward pass takes the rest again where it reads it, with the forward
pass's own operation on the same values: tanh(c) step by step in scratch
(LstmTrace.tanh_c), the dropped-out LSTM input once, for its input
weights' gradient (apply_dropout), and the embedded inputs once, for the
GRU input weights' gradients (embed_lookup). It consumes its cache,
dropping each array after its last read: the LSTM's c after its loop, its
h once gathered, the rest of its trace before the GRU passes and each GRU
direction's trace before the next.

`sub_batches` sorts sequences by length and cuts them into groups of a
bounded cost, counted in the bytes `pass_bytes` says a pass keeps a token
and a sequence: training's groups keep at most training.TRAIN_BUDGET and
hold at most ROW_BUDGET tokens, predict_proba's keep at most INFER_BUDGET,
so a score file runs as few, full groups. `model_forward` and
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

# Most real tokens one training sub-batch may hold. The groups set the
# bits of training's sums, so this cut is kept as it is; a byte budget
# counted by pass_bytes (training.TRAIN_BUDGET) cuts sooner only the
# groups of configs that keep more than the stock one. Budgets of 1,024 to
# 3,072 tokens train train_reviews at the same speed within the run-to-run
# noise, and wider ones raise the peak (ROADMAP.md, the ROW_BUDGET table).
ROW_BUDGET = 1536

# Most bytes one infer sub-batch (predict_proba) may keep, counted by
# pass_bytes. A 128-review file of the score_reviews benchmark (about 14 MB
# at the full-size widths) runs as one group of 200 steps, where
# 1,536-token groups took three of 280 to 286: 558.0 against 510.8
# reviews/s at seed 1, 2-core Xeon, 2 OpenBLAS threads. The per-sequence
# term bounds a group of many short reviews: 5,000 one-token reviews peak
# at 9.1 MB.
INFER_BUDGET = 16 * 2**20

# Fewest rows an infer-mode span holds (see Packing.spans), unless its
# whole sub-batch has fewer. A scan call projects one span's inputs in one
# matrix product, into a gate block all the scans share, and the forward
# GRU and the LSTM run in lockstep over the spans, so the LSTM input, the
# embedded rows and that block hold one span at a time. Each product packs
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

    def widths(self):
        """(stack, embedding_dim, gru_units, lstm_units), as pass_bytes takes
        them; gru_units is 0 on a stack without a GRU."""
        k = self.gru_fwd.hidden_size if STACKS[self.stack] else 0
        return self.stack, self.embedding.dim, k, self.lstm.hidden_size

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
    (T, B) batch, mask marking the real tokens. So the rows of step t are
    one block off[t]:off[t+1], and they belong to the batch rows first[t]:
    still inside their sequence. order[r] is row r's position in the
    sequences concatenated whole. Nothing (T, B) is built: every array is
    O(N + T).
    """

    def __init__(self, lengths):
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.ndim != 1 or not lengths.size or lengths.min() < 1:
            raise ValueError("a batch needs sequences with at least one token")
        if (lengths[1:] < lengths[:-1]).any():
            raise ValueError("a batch must be sorted shortest-first, as sub_batches yields it")
        # the sequences that end before step t are the first first[t]; the
        # other counts[t] are step t's rows
        first = np.searchsorted(lengths, np.arange(lengths[-1]), side="right")
        counts = len(lengths) - first
        off = np.concatenate([[0], np.cumsum(counts)])
        self.lengths, self.first, self.off = lengths, first.tolist(), off.tolist()
        # row r of step t holds token t of batch row first[t] + r - off[t]
        step = np.repeat(np.arange(len(counts)), counts)
        batch_row = np.arange(off[-1]) - (off[:-1] - first)[step]
        self.order = (np.cumsum(lengths) - lengths)[batch_row] + step

    def previous(self, reverse=False):
        """Row of the state each row's step read, or -1 where it read the zero state.

        That is the same sequence's row one step earlier in scan order: t-1,
        or t+1 for a reverse scan, which starts at each sequence's last token.
        A block's last rows are the sequences that go on to the next step, so
        row r of step t reads r - counts[t], or r + counts[t + 1] in reverse,
        counts[t] being the rows of step t.
        """
        off = np.asarray(self.off)
        counts = np.diff(off)
        row = np.arange(off[-1])
        if not reverse:
            row -= np.repeat(counts, counts)
            row[:off[1]] = -1  # step 0
            return row
        going_on = np.append(counts[1:], 0)
        ended = row < np.repeat(off[1:] - going_on, counts)
        row += np.repeat(going_on, counts)
        row[ended] = -1
        return row

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


def _check_rows(X, rows):
    if len(X) != rows:
        raise ValueError(f"{len(X)} input rows do not match the {rows} tokens scanned")


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
    that order (np.split(gates, 4, axis=1) gives the four), and h and c
    (N, m). tanh(c) is not kept: tanh_c gives it again, bit for bit.

    When the scan kept only what the dense head reads, the per-token values
    are None. The backward pass overwrites gates with their pre-activation
    gradients.
    """
    h_last: np.ndarray
    gates: Optional[np.ndarray] = None
    h: Optional[np.ndarray] = None
    c: Optional[np.ndarray] = None

    def tanh_c(self, a, e, out=None):
        """tanh(c) of rows a:e, into out if given. For a step block a:e this is
        the scan's own np.tanh over contiguous rows of the same shape, so it
        has the bits the scan's h read."""
        return np.tanh(self.c[a:e], out=out)


def _check_index(index, emb):
    """IndexError unless every entry of an integer array indexes a row of E."""
    if index.size and (index.min() < 0 or index.max() >= emb.vocab_size):
        raise IndexError("token index out of embedding range")


def embed_lookup(index, emb):
    """Rows of E for an integer index array of any shape, as (..., d)."""
    index = np.asarray(index)
    _check_index(index, emb)
    return emb.E[index]


def gru_scan(p, X, packing, reverse=False, trace=True, h_out=None, span=None, h=None,
             scratch=None):
    """Run a GRU over packed inputs, each sequence from a zero state.

    Step t computes the rows of `packing`'s block t only. reverse=True scans
    t = T..1, so row (t, j)'s previous state is that of (t+1, j), and the
    zero state at the sequence's last token; the rows keep their packed
    order either way. The scan runs one span (a0, e0, steps) of
    Packing.spans, by default the whole batch, from the (B, k) state h,
    zero by default, which it updates in place: X holds the span's
    (e0 - a0, in_dim) input rows. Its input projection X W_x^T + b is one
    matrix product, into the trace's gates block with `trace`, else into
    the front of the flat buffer `scratch` if given. h is written into
    h_out, an (e0 - a0, k) array such as a column slice of the LSTM input,
    or into a new array.
    """
    a0, e0, steps = span or packing.spans(packing.off[-1], reverse)[0]
    _check_rows(X, e0 - a0)
    k = p.hidden_size
    B = len(packing.lengths)
    if h_out is None:
        h_out = np.empty((len(X), k))
    elif h_out.shape != (len(X), k):
        raise ValueError(f"h_out has shape {h_out.shape}, not {(len(X), k)}")
    W_x, W_zr, W_hh = p.W[:, k:].T, p.W[:2 * k, :k].T, p.W[2 * k:, :k].T
    gates = np.matmul(X, W_x, out=_block(scratch, len(X), 3 * k))
    gates += p.b  # the input projections, which each step adds to its recurrent products
    out = GruTrace(h=h_out, gates=gates if trace else None)
    h = np.zeros((B, k)) if h is None else h
    zr_all, hc_all, tmp = np.empty((B, 2 * k)), np.empty((B, k)), np.empty((B, k))
    for t in steps:
        s, a, e = packing.first[t], packing.off[t] - a0, packing.off[t + 1] - a0
        hs, v, zr, h_cand, g = h[s:], tmp[s:], zr_all[s:], hc_all[s:], gates[a:e]
        np.matmul(hs, W_zr, out=zr)
        zr += g[:, :2 * k]
        sigmoid(zr, out=zr)
        z, r = zr[:, :k], zr[:, k:]
        np.multiply(r, hs, out=v)
        np.matmul(v, W_hh, out=h_cand)
        h_cand += g[:, 2 * k:]
        np.tanh(h_cand, out=h_cand)
        if trace:
            g[:, :2 * k], g[:, 2 * k:] = zr, h_cand
        np.subtract(h_cand, hs, out=v)  # h = h_prev + z * (h_cand - h_prev)
        v *= z
        hs += v
        h_out[a:e] = hs
    return out


def lstm_scan(p, X, packing, trace=True, mask=None, rate=0.0, span=None, state=None,
              scratch=None):
    """Run the LSTM over packed inputs, each sequence from a zero state.

    Step t computes the rows of `packing`'s block t only, so each sequence's
    final state is that of its last token. The scan runs one span from a
    state and projects its inputs as gru_scan does; its state is the pair
    (h, C) of (B, m) arrays, and h_last is its h. With a dropout mask of
    X's shape the scan reads apply_dropout(X, mask, rate), a copy that
    lives for the projection only, so in train mode it is gone before the
    trace's h and c are allocated. Without `trace` only the final states
    are kept.
    """
    a0, e0, steps = span or packing.spans(packing.off[-1])[0]
    _check_rows(X, e0 - a0)
    m = p.hidden_size
    B = len(packing.lengths)
    W_x, W_h = p.W[:, m:].T, p.W[:, :m].T
    # the block, the state and the step scratch come before the dropped-out
    # copy: allocated after it, they kept glibc from trimming its heap after
    # a train pass (train_reviews peak_rss_mb rose by 4 MB)
    gates = _block(scratch, len(X), 4 * m)
    h, C = (np.zeros((B, m)), np.zeros((B, m))) if state is None else state
    out = LstmTrace(h_last=h, gates=gates if trace else None)
    ga_all, tmp = np.empty((B, 4 * m)), np.empty((B, m))
    # the input projections, which each step adds to its recurrent product
    np.matmul(apply_dropout(X, mask, rate), W_x, out=gates)
    gates += p.b
    if trace:  # the dropped-out copy is gone
        out.h, out.c = np.empty((len(X), m)), np.empty((len(X), m))
    for t in steps:
        s, a, e = packing.first[t], packing.off[t] - a0, packing.off[t + 1] - a0
        hs, Cs, ga, v, g = h[s:], C[s:], ga_all[s:], tmp[s:], gates[a:e]
        np.matmul(hs, W_h, out=ga)
        ga += g
        # c_cand goes to v first, so the sigmoid can take all 4m columns in
        # one contiguous pass, faster than a strided one over the 3m it needs
        np.tanh(ga[:, 3 * m:], out=v)
        sigmoid(ga, out=ga)
        f, i, o = (ga[:, j * m:(j + 1) * m] for j in range(3))
        if trace:
            g[:, :3 * m], g[:, 3 * m:] = ga[:, :3 * m], v
        Cs *= f
        v *= i  # i * c_cand
        Cs += v
        np.tanh(Cs, out=v)  # what LstmTrace.tanh_c gives again
        np.multiply(o, v, out=hs)
        if trace:
            out.c[a:e], out.h[a:e] = Cs, hs
    return out


def _block(scratch, rows, width):
    """A (rows, width) block: the front of the flat buffer scratch, or a new array."""
    if scratch is None:
        return np.empty((rows, width))
    return scratch[:rows * width].reshape(rows, width)


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

    Only train mode, the one mode whose caches backward_batch accepts,
    keeps the GRU traces, each with its gates block and an h that is a
    column slice of one array, lstm_in, and the LSTM's per-token trace. An
    infer-mode cache holds no per-token array but index: grus is (),
    lstm_in is None and lstm holds only h_last. The cache keeps no array
    that the backward pass can give again bit for bit: not the embedded
    inputs (embed_lookup(index, params.embedding)), not the dropped-out
    LSTM input (apply_dropout(lstm_in, seq_mask, dropout_rate)) and not
    tanh(c) (LstmTrace.tanh_c). backward_batch
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
    grus: tuple                  # train mode: one GruTrace per STACKS direction, in order
    seq_mask: Optional[np.ndarray]   # (N, in_dim) dropout mask, LSTM input
    lstm_in: Optional[np.ndarray]    # train mode: (N, in_dim) LSTM input before dropout: H, or x
    lstm: Optional[LstmTrace]
    out_mask: Optional[np.ndarray]   # (B, m) dropout mask, final hidden state
    h_final: np.ndarray          # (B, m) rows the dense head consumed
    yhat: np.ndarray             # (B,)


def apply_dropout(X, mask, rate, out=None):
    """Inverted dropout: X * mask / (1 - rate), into out if given, else a new
    array; X itself where mask is None. The forward and backward passes both
    take it here, so a value taken again has the bits it had."""
    if mask is None:
        return X
    out = np.multiply(X, mask, out=out)
    out /= 1.0 - rate
    return out


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
    mode runs the forward GRU and the LSTM span by span (see the module
    docstring) and keeps only what each next layer reads, which is enough
    for the probabilities but not for backward_batch.
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
    N, B = len(index), len(seqs)
    rngs = [np.random.default_rng(seed) for seed in seeds] if train else []

    # train mode scans the batch as one span into a whole LSTM input, H;
    # infer mode scans spans of SPAN_ROWS rows or more with a span-sized H,
    # and every scan projects into one shared scratch block. A scan of
    # several spans carries its state from each span to the next.
    spans = {reverse: packing.spans(N if trace else SPAN_ROWS, reverse)
             for reverse in (False, True)}
    grus = [(getattr(params, block), reverse) for block, reverse in STACKS[params.stack]]
    k, m = grus[0][0].hidden_size if grus else 0, params.lstm.hidden_size
    cols = [slice(j * k, (j + 1) * k) for j in range(len(grus))]
    rows = max(e - a for both in spans.values() for a, e, _ in both)
    whole = len(spans[False]) == 1  # H holds every row, and x is gathered once
    _check_index(index, params.embedding)  # once: every span gathers a slice of index
    E = params.embedding.E
    x = E[index] if whole else None
    H = np.empty((rows, k * len(grus))) if grus else None
    scratch = None if trace else np.empty(rows * max(3 * k, 4 * m))
    states = [np.zeros((B, k)) if len(spans[reverse]) > 1 else None for _, reverse in grus]
    traces, outs = [None] * len(grus), [None] * len(grus)

    # a reverse direction runs first, over the whole batch: the LSTM's first
    # step reads its output at the first token, which it computes last. It
    # writes into H if H holds every row, else into an array of its own
    for j, (p, reverse) in enumerate(grus):
        if reverse:
            outs[j] = H[:, cols[j]] if whole else np.empty((N, k))
            for a0, e0, steps in spans[True]:
                X = x[a0:e0] if whole else E[index[a0:e0]]
                traces[j] = gru_scan(p, X, packing, True, trace, outs[j][a0:e0], (a0, e0, steps),
                                     states[j], scratch)

    # the forward direction and the LSTM in lockstep, span by span: each GRU
    # direction's rows of the span go into its columns of H, which the LSTM
    # then projects
    seq_mask = out_mask = lstm_state = None
    if not whole:
        lstm_state = (np.zeros((B, m)), np.zeros((B, m)))
    for a0, e0, steps in spans[False]:
        X = x if whole else E[index[a0:e0]]
        if grus:
            U = H[:e0 - a0]
            for j, (p, reverse) in enumerate(grus):
                if not reverse:
                    traces[j] = gru_scan(p, X, packing, False, trace, U[:, cols[j]],
                                         (a0, e0, steps), states[j], scratch)
                elif not whole:
                    U[:, cols[j]] = outs[j][a0:e0]
            X, x = U, None  # the GRU scans have read x; backward_batch gathers it again
        # inverted dropout; raw embeddings are not dropped, so only a GRU
        # stack draws the sequence mask (in train mode, one span), always
        # before the final-state mask. lstm_scan applies it to its own copy
        # of H, which the GRU traces view.
        if train and grus:
            seq_mask = np.concatenate([rng.random((n, H.shape[1])) >= dropout_rate
                                       for rng, n in zip(rngs, packing.lengths)])[packing.order]
        lt = lstm_scan(params.lstm, X, packing, trace, seq_mask, dropout_rate,
                       (a0, e0, steps), lstm_state, scratch)

    if train:
        out_mask = np.stack([rng.random(lt.h_last.shape[1]) >= dropout_rate for rng in rngs])
    h_final = apply_dropout(lt.h_last, out_mask, dropout_rate)
    return BatchCache(
        stack=params.stack, mode=mode, dropout_rate=dropout_rate, packing=packing,
        index=index, grus=tuple(traces) if trace else (), seq_mask=seq_mask,
        lstm_in=X if trace else None, lstm=lt, out_mask=out_mask, h_final=h_final,
        yhat=dense_sigmoid(params.dense, h_final),
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


def sub_batches(seqs, per_token, per_review, budget, max_tokens=math.inf):
    """Index lists of length-sorted groups that cost at most `budget`.

    A group costs per_token for each of its tokens and per_review for each
    of its sequences (pass_bytes gives both in bytes), and holds at most
    max_tokens tokens.
    Sorting by length lets a group's scans step only the rows still inside
    their sequence (sequence bucketing). Groups are filled from the longest
    sequence down, so the long tail shares as few time steps as the budget
    allows: each step reads the whole recurrent weight block, however few
    rows it computes. All-PAD sequences are left out: they score 0.5 and
    have no gradient. A sequence over the budget or max_tokens on its own
    gets a group of its own.
    """
    lengths = [seq.true_length for seq in seqs]
    costs = [per_token * n + per_review for n in lengths]
    order = [j for j in np.argsort(lengths, kind="stable") if lengths[j] > 0]
    groups, end = [], len(order)
    while end:
        start, cost, tokens = end - 1, costs[order[end - 1]], lengths[order[end - 1]]
        while start and cost + costs[order[start - 1]] <= budget \
                and tokens + lengths[order[start - 1]] <= max_tokens:
            start -= 1
            cost += costs[order[start]]
            tokens += lengths[order[start]]
        groups.append(order[start:end])
        end = start
    return groups[::-1]


def pass_bytes(mode, stack, embedding_dim, gru_units, lstm_units):
    """(bytes a token, bytes a sequence, fixed bytes) a pass of `mode` keeps.

    The memory model of the engine, stated once: a forward_batch pass over
    B sequences of N tokens in all (in train mode with its backward_batch
    pass and dropout) keeps at most token * N + sequence * B + fixed bytes
    of arrays. The sub-batchers cut their groups by the first two; fixed
    is what a pass keeps whatever its size.

    Infer: a token keeps its index, its row of Packing.order and, on
    hbgru_lstm, its reverse-GRU output row. A sequence keeps a row of each
    scan's (B, .) state and step scratch and of each span-sized buffer:
    the LSTM input, the embedded rows and the gate block all the scans
    share. Those buffers hold at most 2 * SPAN_ROWS rows besides (fixed).

    Train: a token keeps its index, its rows of Packing.order and of
    Packing.previous (and of the reverse scan's, in the GRU passes), its
    gradient row and, on a GRU stack, a dropout mask row of a byte an
    entry. Beside these it keeps each GRU direction's gates and the LSTM
    input until the GRU passes, and the larger of two sets. In the LSTM's
    passes: its gates, with either its h and c or one array of the input's
    width (the dropped-out input, or the input gradient). In the GRU
    passes: the LSTM input gradient, the embedded inputs, the input
    gradient being summed and one array of the GRU's or the embedding's
    width (the gathered previous states, or one direction's input
    gradient). A sequence keeps the LSTM's state and backward scratch and
    the dense head's rows, or a GRU pass's state and scratch. Each weight
    gradient is added from one matrix product; the largest such temporary
    is fixed.
    """
    grus = STACKS[stack]
    k, m, d = gru_units if grus else 0, lstm_units, embedding_dim
    w = k * len(grus) or d  # the LSTM input's width
    if mode == "infer":
        span_row = w + d + max(3 * k, 4 * m)
        token = 16 + 8 * k * sum(reverse for _, reverse in grus)
        return token, 8 * (5 * k * len(grus) + 7 * m + span_row), 8 * 2 * SPAN_ROWS * span_row
    mask = w if grus else 0
    lstm = 4 * m + max(2 * m, w)
    gru = w + 2 * d + max(k, d) if grus else 0
    token = 40 + mask + 8 * (3 * k * len(grus) + w + max(lstm, gru))
    sequence = 8 * max(9 * m, 5 * k + 2 * m)
    fixed = 8 * max(2 * k * k, 3 * k * d, 4 * m * m, m * w)
    return token, sequence, fixed


def predict_proba(params, seqs):
    """Infer-mode probabilities of encoded sequences, in input order.

    Runs length-sorted sub-batches that keep at most INFER_BUDGET bytes
    (pass_bytes), keeping only what each next layer reads; an all-PAD
    sequence gets 0.5, as in model_forward.
    """
    yhat = np.full(len(seqs), 0.5)
    token, review, _ = pass_bytes("infer", *params.widths())
    for rows in sub_batches(seqs, token, review, INFER_BUDGET):
        yhat[rows] = forward_batch(params, [seqs[j] for j in rows]).yhat
    return yhat


def _previous_states(H, prev):
    """H[prev]: the state each packed row's step read, zero where prev is -1."""
    out = H[prev]
    out[prev < 0] = 0.0
    return out


def _dsigmoid(out, y, scratch, *factors):
    """out = y * (1 - y) * factors: the derivative of y = sigmoid(a), times the
    factors. See _times for where the products go."""
    np.subtract(1.0, y, out=scratch)
    np.multiply(y, scratch, out=scratch)
    return _times(out, scratch, *factors)


def _dtanh(out, y, scratch, *factors):
    """out = (1 - y^2) * factors: the derivative of y = tanh(a), times the
    factors. See _times for where the products go."""
    np.multiply(y, y, out=scratch)
    np.subtract(1.0, scratch, out=scratch)
    return _times(out, scratch, *factors)


def _times(out, scratch, *factors):
    """out = scratch * factors, multiplied left to right in contiguous
    scratch; only the last product writes out, which may be scratch or a
    strided gate view that no factor reads."""
    for f in factors[:-1]:
        scratch *= f
    return np.multiply(scratch, factors[-1], out=out)


def _lstm_backward(p, cache, prev, dh_last, grad):
    """BPTT through the LSTM, adding to `grad`; returns d(loss)/d(input), (N, in_dim).

    Takes the LSTM trace and input out of `cache` and drops each array after
    its last read. `prev` is packing.previous(). Step t updates only the rows
    of block t; the other batch rows carry their gradient. Each step takes
    tanh(c) of its rows again (LstmTrace.tanh_c) and builds its gates'
    pre-activation gradients df, di, do and dcc in scratch rows, writing each
    over its gate's rows of the gates block and keeping the f it still reads
    in scratch. The dropped-out input is taken again for the input weights'
    gradient only, once c, h and the gathered h_prev are gone.
    """
    trace, X, packing = cache.lstm, cache.lstm_in, cache.packing
    cache.lstm = cache.lstm_in = None
    m = p.hidden_size
    W_h = p.W[:, :m]
    da = trace.gates
    dh = np.array(dh_last, dtype=np.float64)
    dc = np.zeros_like(dh)
    tmp, tmp2, f_kept, tc_all = (np.empty_like(dh) for _ in range(4))
    for t in range(len(packing.first) - 1, -1, -1):
        s, a, e = packing.first[t], packing.off[t], packing.off[t + 1]
        d, tc = da[a:e], trace.tanh_c(a, e, out=tc_all[s:])
        f, i, o, cc = (d[:, g * m:(g + 1) * m] for g in range(4))  # -> df, di, do, dcc
        dhs, dcs, v, w, f0 = dh[s:], dc[s:], tmp[s:], tmp2[s:], f_kept[s:]
        dcs += _dtanh(v, tc, v, o, dhs)
        np.copyto(f0, f)
        if t:  # block t's rows are the last rows of block t - 1
            _dsigmoid(f, f, v, trace.c[2 * a - e:a], dcs)
        else:  # the zero initial state
            f.fill(0.0)
        _dtanh(w, cc, w, i)  # dcc but its last factor: di still reads c_cand
        _dsigmoid(i, i, v, cc, dcs)
        np.multiply(w, dcs, out=cc)
        _dsigmoid(o, o, v, tc, dhs)
        np.matmul(d, W_h, out=dhs)
        dcs *= f0
    trace.c = None
    h_prev = _previous_states(trace.h, prev)
    trace.h = None
    grad.W[:, :m] += da.T @ h_prev
    del h_prev
    # a gate's rows at a time, so the product's temporary beside U is
    # (m, in_dim), not (4m, in_dim); a product's rows have the same bits
    # however many rows it takes at once, as the infer-mode spans rely on
    U = apply_dropout(X, cache.seq_mask, cache.dropout_rate)
    for g in range(4):
        grad.W[g * m:(g + 1) * m, m:] += da[:, g * m:(g + 1) * m].T @ U
    del U, X  # the input gradient does not read them
    grad.b += da.sum(axis=0)
    return da @ p.W[:, m:]


def _gru_backward(p, trace, X, packing, prev, dH, grad, reverse=False):
    """BPTT through one GRU direction, adding to `grad`; returns d(loss)/d(input), (N, in_dim).

    `prev` is packing.previous(reverse). For the reverse scan the recurrent
    neighbour of step t is t+1, so the gradient sweep runs t = 1..T instead
    of t = T..1. Step t updates only the rows of block t. Each step builds
    its gates' pre-activation gradients dz, dr and dhc in scratch rows and
    writes each over its gate's rows of the gates block, and r * h_prev,
    which the W_hh gradient reads, over its rows of h, which nothing reads
    once h_prev is gathered.
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
        _dtanh(hc, hc, dv, z, dhs)
        np.matmul(hc, W_hh, out=dv)  # d(loss)/d(r * h_prev)
        np.subtract(1.0, z, out=nz)
        np.multiply(z, nz, out=rdv)
        _times(z, rdv, dhs, w)  # dz = z * (1 - z) * dhs * (h_cand - h_prev)
        np.multiply(dv, r, out=rdv)
        _dsigmoid(r, r, w, hp, dv)
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
    if cache.lstm_in.shape[1] != params.lstm.W.shape[1] - params.lstm.hidden_size or \
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
    dh_final = apply_dropout(params.dense.W[0] * ds[:, np.newaxis], cache.out_mask,
                             cache.dropout_rate)

    packing = cache.packing
    prev = packing.previous()
    dU = _lstm_backward(params.lstm, cache, prev, dh_final, grads.lstm)
    apply_dropout(dU, cache.seq_mask, cache.dropout_rate, out=dU)
    cache.seq_mask = None

    # each GRU direction owns an equal slice of the LSTM input columns; its
    # trace leaves the cache for the call, so it goes when the call returns.
    # Their input weights' gradients read the embedded inputs, gathered again.
    grus, cache.grus = list(cache.grus), ()
    x = embed_lookup(cache.index, params.embedding) if grus else None
    dX = dU
    for j, (block, reverse) in enumerate(STACKS[params.stack]):
        k = dU.shape[1] // len(STACKS[params.stack])
        dXj = _gru_backward(getattr(params, block), grus.pop(0), x, packing,
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
