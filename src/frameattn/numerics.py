"""Dense float64 kernel shared by every other module.

Score matrices are float64 arrays whose last two axes are (R, C): R query
rows by C key columns, square (T, T) or one tile of query rows over a
leading block of key columns. Any leading axes stack independent matrices.
An additive attention mask may cover only the trailing C' <= C columns of
its scores: the columns before it count as allowed, so a caller that knows
a leading block is open for every row passes only the rest of its mask.
The only non-finite value ever allowed is -inf, and only inside additive
attention masks. Everything here is a pure function of its arguments, so
concurrent callers are safe; the one exception is `masked_row_softmax`
given `out=`, which writes its result there (attention passes each tile's
scores as `out`, to normalise them in place).

Reductions on the training-step path, here and in attention, model and
harness, call ufunc methods (`np.add.reduce`, `np.maximum.reduce`,
`np.logical_and.reduce`) instead of `np.sum`, `np.max`, `np.all` or
`ndarray.all`. The method runs the same loop in the same order, so results
are bitwise equal, while on the T <= 36 arrays of a small trial a wrapper's
Python layer costs about as much as the reduction itself.

`real_array` is the package's one conversion of array input: integer and
real floating arrays become float64; complex, bool, text and object arrays
raise a ValueError naming the argument. `int_array` is its counterpart for
ids and indices, which must already be of integer kind. Both softmax
functions return float64.
"""

from __future__ import annotations

import numpy as np

from .layout import check_int

__all__ = [
    "make_rng",
    "NonFiniteError",
    "real_array",
    "int_array",
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


def int_array(name: str, values, stop: int | None = None) -> np.ndarray:
    """`values` as an array, unconverted; only integer kinds pass, and with `stop` only entries in 0..stop-1."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integers, got dtype {arr.dtype}")
    # Cast to uint64, a negative entry exceeds any stop: one reduction checks both ends.
    if stop is not None and arr.size and np.maximum.reduce(arr.astype(np.uint64, copy=False), axis=None) >= stop:
        raise ValueError(f"{name} must lie in 0..{stop - 1}, got values from {arr.min()} to {arr.max()}")
    return arr


def masked_row_softmax(scores: np.ndarray, mask: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax over entries whose mask value is 0.

    `scores` is (..., R, C), real and finite; every (R, C) slice shares the
    one (R, C') `mask`, C' <= C, whose entries must be exactly 0 or -inf. The
    mask covers the last C' columns and the first C - C' are allowed; a
    full-width mask covers every column. Masked entries come out exactly 0;
    each row with at least one allowed entry sums to 1. A fully masked row
    returns all zeros instead of NaN so degenerate layouts stay harmless.
    Stabilised by subtracting the per-row max of the allowed entries.

    The result goes to a fresh array, or into `out`, a float64 array of the
    scores' shape, which may be `scores` itself; it is returned either way.
    Every check runs before `out` is written.
    """
    scores, mask = real_array("scores", scores), real_array("mask", mask)
    if mask.ndim != 2 or scores.ndim < 2 or scores.shape[-2] != mask.shape[0] or mask.shape[1] > scores.shape[-1]:
        raise ValueError(f"shape mismatch: scores {scores.shape} vs mask {mask.shape}")
    if not np.logical_and.reduce(np.isfinite(scores), axis=None):
        raise NonFiniteError("scores contain NaN or inf")
    if not np.logical_and.reduce((mask == 0.0) | (mask == -np.inf), axis=None):
        raise ValueError("mask entries must be exactly 0 or -inf")
    if out is None:
        out = scores.copy()
    elif not isinstance(out, np.ndarray) or out.shape != scores.shape or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of shape {scores.shape}")
    elif out is not scores:
        np.copyto(out, scores)

    # The one working buffer, `out`, holds the scores; the mask makes its
    # trailing masked entries -inf.
    out[..., out.shape[-1] - mask.shape[1] :] += mask
    row_max = np.maximum.reduce(out, axis=-1, keepdims=True, initial=-np.inf)
    # Fully masked rows have row_max == -inf; shift by 0 there to avoid inf-inf.
    row_max[row_max == -np.inf] = 0.0
    out -= row_max
    np.exp(out, out=out)  # exp(-inf) is exactly 0
    denom = np.add.reduce(out, axis=-1, keepdims=True)
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
    inner = np.add.reduce(out, axis=-1, keepdims=True)
    np.subtract(grad_weights, inner, out=out)
    out *= weights
    return out
