"""Dense float64 kernel shared by every other module.

Score matrices are float64 arrays whose last two axes are (R, C): R query
rows by C key columns, square (T, T) or one tile of query rows over a
leading block of key columns. Any leading axes stack independent matrices.
An additive attention mask may cover only the trailing C' <= C columns of
its scores: the columns before it count as allowed, so a caller that knows
a leading block is open for every row passes a narrower view of its mask.
The only non-finite value ever allowed is -inf, and only inside additive
attention masks. Everything here is a pure function, so
concurrent callers are safe.

`real_array` is the package's one conversion of array input: integer and
real floating arrays become float64; complex, bool, text and object arrays
raise a ValueError naming the argument. Both softmax functions return float64.
"""

from __future__ import annotations

import numpy as np

from .layout import check_int

__all__ = [
    "make_rng",
    "NonFiniteError",
    "real_array",
    "masked_row_softmax",
    "softmax_backward",
]


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic generator: PCG64 keyed by (seed, *stream).

    PCG64 produces the same stream on every platform for a given key, so
    golden files and trial reports are reproducible anywhere. Extra stream
    ids carve independent substreams out of one experiment seed. Seed and
    stream ids must be ints >= 0: 1.5 or "3" is refused, not truncated.
    """
    for i, value in enumerate((seed, *stream)):
        check_int("stream id" if i else "seed", value)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed),) + tuple(int(s) for s in stream))))


class NonFiniteError(ValueError):
    """A NaN or infinity where only finite values are allowed: the mark of a diverged run."""


def real_array(name: str, values) -> np.ndarray:
    """`values` as a float64 array, not copied if it already is one; only integer and real float kinds pass."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold integer or real floating numbers, got dtype {arr.dtype}")
    return arr.astype(np.float64, copy=False)


def masked_row_softmax(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row-wise softmax over entries whose mask value is 0.

    `scores` is (..., R, C), real and finite; every (R, C) slice shares the
    one (R, C') `mask`, C' <= C, whose entries must be exactly 0 or -inf. The
    mask covers the last C' columns and the first C - C' are allowed; a
    full-width mask covers every column. Masked entries come out exactly 0;
    each row with at least one allowed entry sums to 1. A fully masked row
    returns all zeros instead of NaN so degenerate layouts stay harmless.
    Stabilised by subtracting the per-row max of the allowed entries.
    """
    scores, mask = real_array("scores", scores), real_array("mask", mask)
    if mask.ndim != 2 or scores.ndim < 2 or scores.shape[-2] != mask.shape[0] or mask.shape[1] > scores.shape[-1]:
        raise ValueError(f"shape mismatch: scores {scores.shape} vs mask {mask.shape}")
    if not np.isfinite(scores).all():
        raise NonFiniteError("scores contain NaN or inf")
    if not ((mask == 0.0) | (mask == -np.inf)).all():
        raise ValueError("mask entries must be exactly 0 or -inf")

    # The one scratch buffer, a copy of the scores; the mask makes its
    # trailing masked entries -inf.
    out = scores.copy()
    out[..., out.shape[-1] - mask.shape[1] :] += mask
    row_max = np.max(out, axis=-1, keepdims=True, initial=-np.inf)
    # Fully masked rows have row_max == -inf; shift by 0 there to avoid inf-inf.
    row_max[row_max == -np.inf] = 0.0
    out -= row_max
    np.exp(out, out=out)  # exp(-inf) is exactly 0
    denom = out.sum(axis=-1, keepdims=True)
    denom[denom == 0.0] = 1.0
    out /= denom
    return out


def softmax_backward(weights: np.ndarray, grad_weights: np.ndarray) -> np.ndarray:
    """Gradient of masked_row_softmax w.r.t. its score input.

    `weights` is the forward output, (..., R, C) like `grad_weights`. Masked
    entries (weight exactly 0) and fully masked rows propagate zero gradient,
    matching the forward convention.
    """
    weights, grad_weights = real_array("weights", weights), real_array("grad_weights", grad_weights)
    if weights.shape != grad_weights.shape:
        raise ValueError(f"shape mismatch: {weights.shape} vs {grad_weights.shape}")
    out = weights * grad_weights  # scratch buffer, reused for the result
    inner = np.sum(out, axis=-1, keepdims=True)
    np.subtract(grad_weights, inner, out=out)
    out *= weights
    return out
