"""Multi-frequency rotary embedding at real-valued positions.

Channel pairing is interleaved: dimensions (2t, 2t+1) form one rotation
plane driven by theta_t = base ** (-t / (d_head / 2)); `frequencies(d_head,
base)` builds the thetas and holds the one rule on their parameters (an
even d_head >= 2, a finite base > 1). Positions are real throughout because
adjusted positions are fractional whenever gamma is not an integer.
`rotation_table` turns positions into the cos/sin of every (row, pair)
angle once; `rotate_rows` then only multiplies and adds, so a caller that
rotates many matrices at one set of positions (an AttentionPlan) pays for
the trigonometry once. A table of L rows turns any matrix of k * L rows,
table row r turning rows r, r + L, r + 2L, ..., so a stack of heads shares
one table. `RotationTable.inverse` undoes a table without new
trigonometry: (cos, -sin) is bitwise the table at the negated positions,
because numpy's cos is even and its sin odd. `rotary_oracle` recomputes the
same map through explicit complex multiplication and exists purely as an
independent check on `rotate_rows`. Every array argument (matrices,
vectors, positions, thetas, cos and sin) goes through `numerics.real_array`,
so complex, bool, text and object arrays are refused; positions and thetas
must be finite. Float32 matrices and vectors come back float32.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .layout import check_float, check_int
from .numerics import real_array

__all__ = [
    "FrequencyTable",
    "frequencies",
    "RotationTable",
    "rotation_table",
    "rotate_rows",
    "rotary_oracle",
    "pair_score",
]


@dataclass(frozen=True)
class FrequencyTable:
    """thetas[t] = base ** (-t / (d_head / 2)), strictly decreasing from 1."""

    thetas: np.ndarray = field(repr=False)

    def __post_init__(self):
        thetas = real_array("thetas", self.thetas)
        if thetas.ndim != 1 or not np.all(np.isfinite(thetas)):
            raise ValueError(f"thetas must be a finite 1-D array, got shape {thetas.shape}")
        object.__setattr__(self, "thetas", thetas)

    @property
    def d_head(self) -> int:
        return 2 * len(self.thetas)


def frequencies(d_head: int, base: float = 10000.0) -> FrequencyTable:
    """The FrequencyTable of an even `d_head` >= 2 under a finite `base` > 1."""
    check_int("d_head", d_head, 2)
    check_float("base", base)
    if d_head % 2 != 0:
        raise ValueError(f"d_head must be even and >= 2, got {d_head}")
    if not base > 1.0:
        raise ValueError(f"base must be > 1, got {base}")
    half = d_head // 2
    t = np.arange(half, dtype=np.float64)
    return FrequencyTable(thetas=base ** (-t / half))


@dataclass(frozen=True, eq=False)
class RotationTable:
    """cos and sin of positions[r] * thetas[t], each (rows, d_head / 2): row r turns matrix row r."""

    cos: np.ndarray = field(repr=False)
    sin: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("cos", "sin"):
            object.__setattr__(self, name, real_array(name, getattr(self, name)))
        if self.cos.ndim != 2 or self.cos.shape != self.sin.shape:
            raise ValueError(f"cos {self.cos.shape} and sin {self.sin.shape} must be one (rows, pairs) shape")

    @functools.cached_property
    def d_head(self) -> int:
        return 2 * self.cos.shape[1]

    def inverse(self) -> RotationTable:
        """The table that turns each row back: (cos, -sin)."""
        return RotationTable(self.cos, -self.sin)


def rotation_table(positions: np.ndarray, freqs: FrequencyTable) -> RotationTable:
    """The RotationTable of 1-D finite `positions` under `freqs`."""
    pos = real_array("positions", positions)
    if pos.ndim != 1:
        raise ValueError(f"positions must be 1-D, got shape {pos.shape}")
    if not np.all(np.isfinite(pos)):
        raise ValueError("positions must be finite")
    phi = pos[:, None] * freqs.thetas[None, :]
    return RotationTable(cos=np.cos(phi), sin=np.sin(phi))


def rotate_rows(mat: np.ndarray, table: RotationTable) -> np.ndarray:
    """Rotate each (2t, 2t+1) pair of a (k * L, d_head) matrix: table row r turns rows r, r + L, ...

    L is the table's row count; a row count that is not a whole multiple of it is refused.
    """
    m = np.asarray(mat)
    stack = real_array("mat", m)
    period = len(table.cos)
    if m.ndim != 2 or m.shape[1] != table.d_head:
        raise ValueError(f"(rows, {table.d_head}) matrix expected, got shape {m.shape}")
    k, rest = divmod(m.shape[0], period) if period else (1, m.shape[0])
    if rest:
        raise ValueError(f"mat has {m.shape[0]} rows, not a whole multiple of the rotation table's {period}")
    stack = stack.reshape(k, period, m.shape[1])
    x, y = stack[..., 0::2], stack[..., 1::2]
    out = np.empty(stack.shape)
    out[..., 0::2] = x * table.cos - y * table.sin
    out[..., 1::2] = x * table.sin + y * table.cos
    return out.reshape(m.shape).astype(m.dtype if m.dtype.kind == "f" else np.float64, copy=False)


def rotary_oracle(vec: np.ndarray, position: float, freqs: FrequencyTable) -> np.ndarray:
    """Reference rotation of one vector: pack pairs into complex numbers and multiply by e^{i phi}."""
    v = np.asarray(vec)
    real_array("vec", v)
    if v.ndim != 1 or v.shape[0] != freqs.d_head:
        raise ValueError(f"vector of length {freqs.d_head} expected, got shape {v.shape}")
    position = float(position)
    if not np.isfinite(position):
        raise ValueError(f"position must be finite, got {position}")
    z = v[0::2].astype(np.complex128) + 1j * v[1::2].astype(np.complex128)
    z = z * np.exp(1j * position * freqs.thetas)
    out = np.empty(freqs.d_head, dtype=np.float64)
    out[0::2] = z.real
    out[1::2] = z.imag
    return out.astype(v.dtype) if np.issubdtype(v.dtype, np.floating) else out


def pair_score(q: np.ndarray, k: np.ndarray, pos_q: float, pos_k: float, freqs: FrequencyTable) -> float:
    """Unscaled attention logit between one rotated query and one rotated key.

    Rotates with `rotary_oracle`, never `rotate_rows`, so the scalar attention
    oracle stays independent of it. Depends on positions only through pos_q - pos_k.
    """
    for name, vec in (("q", q), ("k", k)):
        real_array(name, vec)
    return float(np.dot(rotary_oracle(q, pos_q, freqs), rotary_oracle(k, pos_k, freqs)))
