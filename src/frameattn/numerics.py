"""Dense float64 kernel shared by every other module.

Matrices are plain 2-D numpy arrays (row-major, float64 by default; float32
works where noted). The only non-finite value ever allowed is -inf, and only
inside additive attention masks. Everything here is a pure function, so
concurrent callers are safe.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "make_rng",
    "as_matrix",
    "masked_row_softmax",
    "softmax_backward",
]


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic generator: PCG64 keyed by (seed, *stream).

    PCG64 produces the same stream on every platform for a given key, so
    golden files and trial reports are reproducible anywhere. Extra stream
    ids carve independent substreams out of one experiment seed.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed),) + tuple(int(s) for s in stream))))


def as_matrix(a, allow_neg_inf: bool = False) -> np.ndarray:
    """Validate and return `a` as a 2-D float array.

    Rejects anything that is not 2-D or contains NaN/+inf; -inf is accepted
    only when `allow_neg_inf` is set (mask matrices).
    """
    m = np.asarray(a)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.issubdtype(m.dtype, np.floating):
        m = m.astype(np.float64)
    if np.isnan(m).any() or np.isposinf(m).any():
        raise ValueError("matrix contains NaN or +inf")
    if not allow_neg_inf and np.isneginf(m).any():
        raise ValueError("-inf is only allowed in mask matrices")
    return m


def masked_row_softmax(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row-wise softmax over entries whose mask value is 0.

    `mask` entries must be exactly 0 or -inf. Masked entries come out exactly
    0; each row with at least one allowed entry sums to 1. A fully masked row
    returns all zeros instead of NaN so degenerate layouts stay harmless.
    Stabilised by subtracting the per-row max of the allowed entries.
    """
    scores = as_matrix(scores)
    mask = as_matrix(mask, allow_neg_inf=True)
    if scores.shape != mask.shape:
        raise ValueError(f"shape mismatch: scores {scores.shape} vs mask {mask.shape}")
    finite = np.isfinite(mask)
    if not np.all(mask[finite] == 0.0):
        raise ValueError("mask entries must be exactly 0 or -inf")

    combined = scores + mask
    row_max = np.max(combined, axis=1, keepdims=True, initial=-np.inf)
    # Fully masked rows have row_max == -inf; shift by 0 there to avoid inf-inf.
    shift = np.where(np.isfinite(row_max), row_max, 0.0)
    with np.errstate(invalid="ignore"):
        e = np.exp(combined - shift)
    e[~finite] = 0.0
    denom = e.sum(axis=1, keepdims=True)
    return e / np.where(denom > 0.0, denom, 1.0)


def softmax_backward(weights: np.ndarray, grad_weights: np.ndarray) -> np.ndarray:
    """Gradient of masked_row_softmax w.r.t. its score input.

    `weights` is the forward output. Masked entries (weight exactly 0) and
    fully masked rows propagate zero gradient, matching the forward
    convention.
    """
    if weights.shape != grad_weights.shape:
        raise ValueError(f"shape mismatch: {weights.shape} vs {grad_weights.shape}")
    inner = np.sum(weights * grad_weights, axis=1, keepdims=True)
    return weights * (grad_weights - inner)
