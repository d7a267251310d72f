"""Dense float64 kernels shared by every layer.

Arrays are ``numpy.float64`` throughout the package. Everything here is
pure: no shared RNG, and nothing is written in place but an explicit `out`.
"""

import numpy as np

__all__ = [
    "affine",
    "sigmoid",
    "glorot_uniform",
]


def affine(W, v, b):
    """v @ W.T + b: a (rows, cols) matrix applied along the last axis of v.

    v is one length-cols vector or any stack of them, such as the (B, cols)
    final states of a batch, which go through one matrix product; b has
    length rows.
    """
    W = np.asarray(W, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if W.ndim != 2 or v.ndim < 1 or b.ndim != 1:
        raise ValueError("affine expects a 2-D matrix, an array of vectors and a 1-D bias")
    if W.shape[1] != v.shape[-1]:
        raise ValueError(f"affine: W has {W.shape[1]} cols but v has length {v.shape[-1]}")
    if W.shape[0] != b.shape[0]:
        raise ValueError(f"affine: W has {W.shape[0]} rows but b has length {b.shape[0]}")
    out = v.reshape(-1, v.shape[-1]) @ W.T
    out += b  # in place: the product is the only allocation
    return out.reshape(v.shape[:-1] + (W.shape[0],))


def sigmoid(x, out=None):
    """Elementwise logistic function in tanh form, 0.5 * (1 + tanh(x / 2)).

    Nothing overflows at any finite x, sigmoid(0) is exactly 0.5, and the
    result is within 2 ulp of 1.0 (4.4e-16) of the exp form 1 / (1 + e^-x).
    With `out` the values are written into that array, which may be x
    itself, and it is returned.
    """
    if out is None:
        out = np.empty(np.shape(x))
    np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def glorot_uniform(rng, out):
    """Fill out, (rows, cols), in place with a Uniform(-s, s) draw from a given
    Generator, s = sqrt(6 / (rows + cols)), and return it. The draw is bit for
    bit rng.uniform(-s, s, out.shape): u * 2s - s is uniform's -s + 2s * u."""
    s = np.sqrt(6.0 / sum(out.shape))
    rng.random(out=out)
    out *= 2 * s
    out -= s
    return out
