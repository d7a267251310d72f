"""Dense float64 kernels shared by every layer.

Arrays are ``numpy.float64`` throughout the package. Everything here is
pure: no shared RNG, no in-place mutation of arguments.
"""

import numpy as np
from scipy.special import expit

__all__ = [
    "affine",
    "sigmoid",
    "glorot_uniform",
]


def affine(W, v, b):
    """v @ W.T + b: a (rows, cols) matrix applied along the last axis of v.

    v is one length-cols vector or any stack of them, such as a (T, B, cols)
    sequence batch, which goes through one matrix product; b has length rows.
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
    out = v.reshape(-1, v.shape[-1]) @ W.T + b
    return out.reshape(v.shape[:-1] + (W.shape[0],))


def sigmoid(x):
    """Elementwise logistic function; exp never overflows and sigmoid(0) is 0.5."""
    return expit(x)


def glorot_uniform(rng, rows, cols):
    """Uniform(-s, s) draw with s = sqrt(6 / (rows + cols)) from a given Generator."""
    s = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-s, s, size=(rows, cols))
