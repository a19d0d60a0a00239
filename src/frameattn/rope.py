"""Multi-frequency rotary embedding at real-valued positions.

Channel pairing is interleaved: dimensions (2t, 2t+1) form one rotation
plane driven by theta_t = base ** (-t / (d_head / 2)). Positions are real
throughout because adjusted positions are fractional whenever gamma is not
an integer. `rotation_table` turns positions into the cos/sin of every
(row, pair) angle once; `rotate_rows` then only multiplies and adds, so a
caller that rotates many matrices at one set of positions (an AttentionPlan)
pays for the trigonometry once. `RotationTable.inverse` undoes a table
without new trigonometry: (cos, -sin) is bitwise the table at the negated
positions, because numpy's cos is even and its sin odd. `rotary_oracle`
recomputes the same map through explicit complex multiplication and exists
purely as an independent check on `rotate_rows`. Positions and
frequencies go through `numerics.real_array`; positions must be finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .layout import check_float, check_int
from .numerics import real_array

__all__ = [
    "RopeConfig",
    "FrequencyTable",
    "frequencies",
    "RotationTable",
    "rotation_table",
    "rotate_rows",
    "rotary_oracle",
    "pair_score",
]


@dataclass(frozen=True)
class RopeConfig:
    """Rotary embedding parameters: head width, frequency base, temporal weight gamma."""

    d_head: int
    base: float = 10000.0
    gamma: float = 1.0

    def __post_init__(self):
        check_int("d_head", self.d_head, 2)
        check_float("base", self.base)
        check_float("gamma", self.gamma)
        if self.d_head % 2 != 0:
            raise ValueError(f"d_head must be even and >= 2, got {self.d_head}")
        if not self.base > 1.0:
            raise ValueError(f"base must be > 1, got {self.base}")


@dataclass(frozen=True)
class FrequencyTable:
    """thetas[t] = base ** (-t / (d_head / 2)), strictly decreasing from 1."""

    thetas: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "thetas", real_array("thetas", self.thetas))

    @property
    def num_pairs(self) -> int:
        return len(self.thetas)

    @property
    def d_head(self) -> int:
        return 2 * len(self.thetas)


def frequencies(config: RopeConfig) -> FrequencyTable:
    half = config.d_head // 2
    t = np.arange(half, dtype=np.float64)
    return FrequencyTable(thetas=config.base ** (-t / half))


@dataclass(frozen=True, eq=False)
class RotationTable:
    """cos and sin of positions[r] * thetas[t], each (rows, d_head / 2): row r turns matrix row r."""

    cos: np.ndarray = field(repr=False)
    sin: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.cos.ndim != 2 or self.cos.shape != self.sin.shape:
            raise ValueError(f"cos {self.cos.shape} and sin {self.sin.shape} must be one (rows, pairs) shape")

    @property
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
    """Rotate each (2t, 2t+1) pair of row r of a (rows, d_head) matrix by table row r."""
    m = np.asarray(mat)
    if m.ndim != 2 or m.shape[1] != table.d_head:
        raise ValueError(f"(rows, {table.d_head}) matrix expected, got shape {m.shape}")
    if table.cos.shape[0] != m.shape[0]:
        raise ValueError(f"rotation table has {table.cos.shape[0]} rows, the matrix {m.shape[0]}")
    c, s = table.cos, table.sin
    x, y = m[:, 0::2], m[:, 1::2]
    out = np.empty_like(m, dtype=np.result_type(m.dtype, np.float64))
    out[:, 0::2] = x * c - y * s
    out[:, 1::2] = x * s + y * c
    return out.astype(m.dtype, copy=False) if np.issubdtype(m.dtype, np.floating) else out


def rotary_oracle(vec: np.ndarray, position: float, freqs: FrequencyTable) -> np.ndarray:
    """Reference rotation of one vector: pack pairs into complex numbers and multiply by e^{i phi}."""
    v = np.asarray(vec)
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
    return float(np.dot(rotary_oracle(q, pos_q, freqs), rotary_oracle(k, pos_k, freqs)))
