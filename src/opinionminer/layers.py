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
sequence's outputs do not depend on the others in its batch. The input
projection X W_x^T + b of all N rows is one matrix product before the time
loop, and each step adds its recurrent products into its block of it in
place, which leaves the gates there; temporaries are allocated once per
loop. Each layer stores its gates stacked in one matrix, whose columns
split into the recurrent and the input weights; the checkpoint tensors
W_z, b_z, ... are row views of it. The backward pass keeps every row's gate
pre-activation gradients, gathers the state each row's step read
(Packing.previous) and forms each weight gradient with one matrix product
after the loop; the embedding gradient is scattered with np.add.at.
`sub_batches` sorts sequences by length and cuts them into groups of at
most ROW_BUDGET tokens, which bounds the trace memory. `model_forward` and
`model_backward` are the engine at B = 1.

Dropout is inverted (train-time scaling by 1/(1-rate)), applied to the
recurrent output sequence and to the final hidden state in train mode only.
Each sequence draws its two masks, in that order, from its own seeded
generator, so a batch reproduces the per-sequence passes.
"""

from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np
from scipy.special import expit

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

# Most real tokens one sub-batch may hold. At full size a train-mode
# sub-batch peaks at about 45 KB a token of traces and backward temporaries,
# 68 MB at 1536 tokens. On the train_reviews benchmark, budgets of 1024 to
# 3072 tokens trained at the same speed within the run-to-run noise, and
# 2048 and 3072 raised the peak RSS by 23 and 77 MB over 1536.
ROW_BUDGET = 1536


class _Block:
    """A parameter block; TENSORS names its checkpoint tensors in order."""

    def arrays(self):
        return [getattr(self, tensor) for tensor in self.TENSORS]

    @classmethod
    def from_arrays(cls, arrays):
        return cls(*arrays)


@dataclass
class EmbeddingParams(_Block):
    E: np.ndarray  # (vocab_size, dim); row 0 is PAD, kept all-zero
    TENSORS: ClassVar = ("E",)

    @property
    def vocab_size(self):
        return self.E.shape[0]

    @property
    def dim(self):
        return self.E.shape[1]


@dataclass
class GatedParams(_Block):
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

    def arrays(self):
        """Each gate's W and b rows, as views, in TENSORS order."""
        k = self.hidden_size
        return [arr[g * k:(g + 1) * k] for g in range(len(self.GATES)) for arr in (self.W, self.b)]

    @classmethod
    def from_arrays(cls, arrays):
        """Stack per-gate tensors, given in TENSORS order, into W and b."""
        return cls(W=np.concatenate(arrays[0::2]), b=np.concatenate(arrays[1::2]))


class GruParams(GatedParams):
    GATES: ClassVar = ("z", "r", "h")


class LstmParams(GatedParams):
    GATES: ClassVar = ("f", "i", "o", "c")


@dataclass
class DenseParams(_Block):
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


def param_names(stack):
    """Every parameter tensor name of a stack, in checkpoint order."""
    return [f"{block}.{tensor}" for block, cls in _blocks(stack) for tensor in cls.TENSORS]


def param_shapes(stack, vocab_size, embedding_dim, gru_units, lstm_units):
    """{tensor name: shape} in checkpoint order.

    A block's weights are (rows, cols) and its biases (rows,); each recurrent
    weight reads [h_prev, x], so its cols are rows + input width.
    """
    names = param_names(stack)
    directions = STACKS[stack]
    lstm_in = gru_units * len(directions) if directions else embedding_dim
    weights = {
        "embedding": (vocab_size, embedding_dim),
        "lstm": (lstm_units, lstm_units + lstm_in),
        "dense": (1, lstm_units),
    }
    weights.update((block, (gru_units, gru_units + embedding_dim)) for block, _ in directions)
    shapes = {}
    for name in names:
        block, tensor = name.split(".")
        shapes[name] = weights[block][:1] if tensor.startswith("b") else weights[block]
    return shapes


@dataclass
class ModelParams:
    stack: str
    embedding: EmbeddingParams
    lstm: LstmParams
    dense: DenseParams
    gru_fwd: Optional[GruParams] = None
    gru_bwd: Optional[GruParams] = None

    def named_arrays(self):
        """Yield (name, array) for every parameter tensor, in checkpoint order.

        Gate tensors are views: updating one in place updates its layer.
        """
        for block, cls in _blocks(self.stack):
            for tensor, arr in zip(cls.TENSORS, getattr(self, block).arrays()):
                yield f"{block}.{tensor}", arr

    def clone(self):
        return model_params_from_arrays(
            self.stack, {name: arr.copy() for name, arr in self.named_arrays()}
        )


def zero_grads(params):
    return {name: np.zeros_like(arr) for name, arr in params.named_arrays()}


def model_params_from_arrays(stack, arrays):
    """Rebuild ModelParams from a name -> array mapping (checkpoint loading)."""
    blocks = {block: cls.from_arrays([arrays[f"{block}.{t}"] for t in cls.TENSORS])
              for block, cls in _blocks(stack)}
    return ModelParams(stack=stack, **blocks)


def init_model_params(vocab_size, embedding_dim, gru_units, lstm_units,
                      stack="hbgru_lstm", seed=0):
    """Seeded Glorot-uniform weights, zero biases, zero PAD embedding row.

    Weights are drawn in checkpoint order from one generator.
    """
    shapes = param_shapes(stack, vocab_size, embedding_dim, gru_units, lstm_units)
    rng = np.random.default_rng(seed)
    arrays = {name: glorot_uniform(rng, *shape) if len(shape) == 2 else np.zeros(shape)
              for name, shape in shapes.items()}
    arrays["embedding.E"][0, :] = 0.0
    return model_params_from_arrays(stack, arrays)


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


def _check_rows(X, packing):
    if len(X) != packing.off[-1]:
        raise ValueError(f"{len(X)} input rows do not match a packing of "
                         f"{packing.off[-1]} tokens")


@dataclass
class GruTrace:
    """Per-token GRU values, (N, k) in the packed order.

    The gates are None when the scan kept only h, the part the LSTM reads.
    """
    h: np.ndarray
    z: Optional[np.ndarray] = None
    r: Optional[np.ndarray] = None
    h_cand: Optional[np.ndarray] = None


@dataclass
class LstmTrace:
    """The final state of each sequence, (B, m), and per-token values, (N, m).

    When the scan kept only what the dense head reads, the per-token values
    are None.
    """
    h_last: np.ndarray
    h: Optional[np.ndarray] = None
    f: Optional[np.ndarray] = None
    i: Optional[np.ndarray] = None
    o: Optional[np.ndarray] = None
    c_cand: Optional[np.ndarray] = None
    c: Optional[np.ndarray] = None
    tanh_c: Optional[np.ndarray] = None


def embed_lookup(index, emb):
    """Rows of E for an integer index array of any shape, as (..., d)."""
    index = np.asarray(index)
    if index.size and (index.min() < 0 or index.max() >= emb.vocab_size):
        raise IndexError("token index out of embedding range")
    return emb.E[index]


def gru_scan(p, X, packing, reverse=False, trace=True):
    """Run a GRU over packed (N, in_dim) inputs, each sequence from a zero state.

    Step t computes the rows of `packing`'s block t only. reverse=True scans
    t = T..1, so row (t, j)'s previous state is that of (t+1, j), and the
    zero state at the sequence's last token; the rows keep their packed
    order either way. Without `trace` only h is kept.
    """
    _check_rows(X, packing)
    k = p.hidden_size
    B = len(packing.lengths)
    W_zr, W_hh = p.W[:2 * k, :k].T, p.W[2 * k:, :k].T
    # the input projections; each step adds its recurrent products in place
    gates = affine(p.W[:, k:], X, p.b)
    out = GruTrace(h=np.empty((len(X), k)))
    if trace:
        out.z, out.r, out.h_cand = (gates[:, g * k:(g + 1) * k] for g in range(3))
    h = np.zeros((B, k))
    tmp_zr, tmp, tmp2 = np.empty((B, 2 * k)), np.empty((B, k)), np.empty((B, k))
    T = len(packing.first)
    for t in range(T - 1, -1, -1) if reverse else range(T):
        s, a, e = packing.first[t], packing.off[t], packing.off[t + 1]
        hs, v, w, g = h[s:], tmp[s:], tmp2[s:], gates[a:e]
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
    final state is that of its last token. Without `trace` only the final
    states are kept.
    """
    _check_rows(X, packing)
    m = p.hidden_size
    B = len(packing.lengths)
    W_h = p.W[:, :m].T
    # the input projections; each step adds its recurrent product in place
    gates = affine(p.W[:, m:], X, p.b)
    out = LstmTrace(h_last=np.zeros((B, m)))
    if trace:
        out.f, out.i, out.o, out.c_cand = (gates[:, g * m:(g + 1) * m] for g in range(4))
        out.h, out.c, out.tanh_c = (np.empty((len(X), m)) for _ in range(3))
    h = out.h_last
    C = np.zeros((B, m))
    tmp_a, tmp = np.empty((B, 4 * m)), np.empty((B, m))
    for t in range(len(packing.first)):
        s, a, e = packing.first[t], packing.off[t], packing.off[t + 1]
        hs, Cs, v, g = h[s:], C[s:], tmp[s:], gates[a:e]
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


def dense_sigmoid(p, h):
    """Probability from the single-unit sigmoid head, one per row of h (..., m).

    The head takes the sigmoid in exp form: unlike the gates' tanh form, it
    keeps its relative precision for very negative logits, which the loss of
    a confidently wrong review reads.
    """
    return expit(affine(p.W, h, p.b))[..., 0]


def classify(yhat):
    """Decision threshold at 0.5; the boundary itself is positive."""
    return 1 if yhat >= 0.5 else 0


@dataclass
class BatchCache:
    """A forward_batch call: per-token arrays in the packed order of `packing`.

    The GRU and LSTM traces hold their gates only in train mode, the one
    mode whose caches backward_batch accepts.
    """
    stack: str
    mode: str
    dropout_rate: float
    packing: Packing
    index: np.ndarray            # (N,) token indices
    x: np.ndarray                # (N, d) embedded inputs
    grus: tuple                  # one GruTrace per STACKS direction, in order
    seq_mask: Optional[np.ndarray]   # (N, in_dim) dropout mask, LSTM input
    lstm_in: np.ndarray          # (N, in_dim) sequence the LSTM consumed
    lstm: LstmTrace
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
    packing = Packing([seq.true_length for seq in seqs])
    index = np.concatenate([seq.indices for seq in seqs])[packing.order]
    x = embed_lookup(index, params.embedding)

    grus = tuple(gru_scan(getattr(params, block), x, packing, reverse, trace)
                 for block, reverse in STACKS[params.stack])
    H = np.concatenate([g.h for g in grus], axis=1) if grus else x

    # inverted dropout; raw embeddings are not dropped, so the sequence
    # mask is drawn only after a GRU and always before the final-state mask
    train = mode == "train" and dropout_rate > 0.0
    rngs = [np.random.default_rng(seed) for seed in seeds] if train else []
    seq_mask = out_mask = None
    if train and grus:
        seq_mask = np.concatenate([rng.random((n, H.shape[1])) >= dropout_rate
                                   for rng, n in zip(rngs, packing.lengths)])[packing.order]
        H *= seq_mask
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


def _add_gate_grads(grads, prefix, p, da, X, dW_h):
    """Add the weight and bias gradients of layer p's stacked gates to `grads`.

    `da` (N, G*k) holds the gate pre-activation gradients, X (N, in_dim) the
    layer input and dW_h (G*k, k) the recurrent weight gradient.
    """
    step = type(p)(W=np.concatenate([dW_h, da.T @ X], axis=1), b=da.sum(axis=0))
    for tensor, g in zip(p.TENSORS, step.arrays()):
        grads[f"{prefix}.{tensor}"] += g


def _previous_states(H, prev):
    """H[prev]: the state each packed row's step read, zero where prev is -1."""
    out = H[prev]
    out[prev < 0] = 0.0
    return out


def _times_dsigmoid(out, y, *factors):
    """out = y * (1 - y) * factors, in place: the derivative of y = sigmoid(a)."""
    np.subtract(1.0, y, out=out)
    out *= y
    for f in factors:
        out *= f
    return out


def _times_dtanh(out, y, *factors):
    """out = (1 - y^2) * factors, in place: the derivative of y = tanh(a)."""
    np.multiply(y, y, out=out)
    np.subtract(1.0, out, out=out)
    for f in factors:
        out *= f
    return out


def _lstm_backward(p, trace, U, packing, prev, dh_last, grads, prefix="lstm"):
    """BPTT through the LSTM; returns d(loss)/d(input sequence), (N, in_dim).

    `prev` is packing.previous(). Step t updates only the rows of block t;
    the other batch rows carry their gradient.
    """
    m = p.hidden_size
    W_h = p.W[:, :m]
    da = np.empty((len(U), 4 * m))
    dh = np.array(dh_last, dtype=np.float64)
    dc = np.zeros_like(dh)
    tmp = np.empty_like(dh)
    for t in range(len(packing.first) - 1, -1, -1):
        s, a, e = packing.first[t], packing.off[t], packing.off[t + 1]
        f, i, o, cc = (g[a:e] for g in (trace.f, trace.i, trace.o, trace.c_cand))
        tc = trace.tanh_c[a:e]
        dhs, dcs, v, d = dh[s:], dc[s:], tmp[s:], da[a:e]
        df, di, do, dcc = (d[:, g * m:(g + 1) * m] for g in range(4))
        dcs += _times_dtanh(v, tc, o, dhs)
        if t:  # block t's rows are the last rows of block t - 1
            _times_dsigmoid(df, f, trace.c[2 * a - e:a], dcs)
        else:  # the zero initial state
            df.fill(0.0)
        _times_dsigmoid(di, i, cc, dcs)
        _times_dsigmoid(do, o, tc, dhs)
        _times_dtanh(dcc, cc, i, dcs)
        np.matmul(d, W_h, out=dhs)
        dcs *= f
    _add_gate_grads(grads, prefix, p, da, U, da.T @ _previous_states(trace.h, prev))
    return da @ p.W[:, m:]


def _gru_backward(p, trace, X, packing, prev, dH, grads, prefix, reverse=False):
    """BPTT through one GRU direction; returns d(loss)/d(input sequence), (N, in_dim).

    `prev` is packing.previous(reverse). For the reverse scan the recurrent
    neighbour of step t is t+1, so the gradient sweep runs t = 1..T instead
    of t = T..1. Step t updates only the rows of block t.
    """
    k = p.hidden_size
    W_zr, W_hh = p.W[:2 * k, :k], p.W[2 * k:, :k]
    da = np.empty((len(X), 3 * k))
    h_prev = _previous_states(trace.h, prev)
    B = len(packing.lengths)
    dh = np.zeros((B, k))
    tmp, tmp2 = np.empty((B, k)), np.empty((B, k))
    T = len(packing.first)
    for t in range(T) if reverse else range(T - 1, -1, -1):
        s, a, e = packing.first[t], packing.off[t], packing.off[t + 1]
        z, r, hc, hp = trace.z[a:e], trace.r[a:e], trace.h_cand[a:e], h_prev[a:e]
        dhs, dv, w, d = dh[s:], tmp[s:], tmp2[s:], da[a:e]
        dz, dr, dhc = (d[:, g * k:(g + 1) * k] for g in range(3))
        dhs += dH[a:e]
        _times_dtanh(dhc, hc, z, dhs)
        np.matmul(dhc, W_hh, out=dv)  # d(loss)/d(r * h_prev)
        _times_dsigmoid(dz, z, dhs, np.subtract(hc, hp, out=w))
        _times_dsigmoid(dr, r, hp, dv)
        dhs *= np.subtract(1.0, z, out=w)  # d(loss)/d(h_prev)
        dv *= r
        dhs += dv
        np.matmul(d[:, :2 * k], W_zr, out=dv)
        dhs += dv
    dW_zr = da[:, :2 * k].T @ h_prev
    h_prev *= trace.r  # the candidate read r * h_prev
    _add_gate_grads(grads, prefix, p, da, X,
                    np.concatenate([dW_zr, da[:, 2 * k:].T @ h_prev]))
    return da @ p.W[:, k:]


def backward_batch(params, cache, dL_dyhat, grads):
    """Add the exact gradients of sum_j loss_j to `grads` (a zero_grads dict).

    `cache` comes from a train-mode forward_batch call on the same params
    and dL_dyhat (B,) holds each d(loss_j)/d(yhat_j). The embedding gradient
    is scattered per looked-up row; its PAD row is forced to zero.
    """
    if cache.mode != "train":
        raise ValueError("the backward pass needs a cache recorded in train mode")
    if cache.stack != params.stack:
        raise ValueError(
            f"cache stack {cache.stack!r} does not match params stack {params.stack!r}"
        )
    if cache.x.shape[1] != params.embedding.dim or \
            cache.lstm.h.shape[1] != params.lstm.hidden_size:
        raise ValueError("stale cache: shapes do not match params")

    # dense head: yhat = sigmoid(W h + b)
    ds = dL_dyhat * cache.yhat * (1.0 - cache.yhat)
    grads["dense.W"] += ds @ cache.h_final
    grads["dense.b"] += ds.sum()
    dh_final = params.dense.W[0] * ds[:, np.newaxis]

    if cache.out_mask is not None:
        dh_final = dh_final * cache.out_mask / (1.0 - cache.dropout_rate)

    packing = cache.packing
    prev = packing.previous()
    dU = _lstm_backward(params.lstm, cache.lstm, cache.lstm_in, packing, prev, dh_final,
                        grads)

    if cache.seq_mask is not None:
        dU *= cache.seq_mask
        dU /= 1.0 - cache.dropout_rate

    # each GRU direction owns an equal slice of the LSTM input columns
    dX = dU
    if cache.grus:
        k = dU.shape[1] // len(cache.grus)
        dX = sum(_gru_backward(getattr(params, block), trace, cache.x, packing,
                               packing.previous(True) if reverse else prev,
                               dU[:, j * k:(j + 1) * k], grads, block, reverse=reverse)
                 for j, ((block, reverse), trace)
                 in enumerate(zip(STACKS[params.stack], cache.grus)))

    # a PAD index inside a sequence adds nothing to the frozen PAD row
    dE = grads["embedding.E"]
    np.add.at(dE, cache.index, dX)
    dE[0, :] = 0.0


def model_backward(params, cache, dL_dyhat):
    """Exact gradients of a scalar loss with respect to every parameter.

    `cache` must come from a train-mode model_forward call on the same
    params; this is backward_batch at B = 1. The None cache of an all-PAD
    input gives zero gradients.
    """
    grads = zero_grads(params)
    if cache is not None:
        backward_batch(params, cache, np.array([dL_dyhat]), grads)
    return grads
