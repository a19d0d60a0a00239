"""Multi-frequency rotary embedding at real-valued positions.

Channel pairing is interleaved: dimensions (2t, 2t+1) form one rotation
plane driven by theta_t = base ** (-t / (d_head / 2)). Positions are real
throughout because adjusted positions are fractional whenever gamma is not
an integer. `rotary_oracle` recomputes the same map through explicit complex
multiplication and exists purely as an independent check on `apply_rotary`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .layout import check_float, check_int

__all__ = [
    "RopeConfig",
    "FrequencyTable",
    "frequencies",
    "apply_rotary",
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
        object.__setattr__(self, "thetas", np.asarray(self.thetas, dtype=np.float64))

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


def _check_vec(vec: np.ndarray, freqs: FrequencyTable) -> np.ndarray:
    v = np.asarray(vec)
    if v.ndim != 1 or v.shape[0] != freqs.d_head:
        raise ValueError(f"vector of length {freqs.d_head} expected, got shape {v.shape}")
    return v


def apply_rotary(vec: np.ndarray, position: float, freqs: FrequencyTable) -> np.ndarray:
    """Rotate each (2t, 2t+1) pair of `vec` by angle position * thetas[t]."""
    v = _check_vec(vec, freqs)
    position = float(position)
    if not np.isfinite(position):
        raise ValueError(f"position must be finite, got {position}")
    phi = position * freqs.thetas
    c, s = np.cos(phi), np.sin(phi)
    x, y = v[0::2], v[1::2]
    out = np.empty_like(v, dtype=np.result_type(v.dtype, np.float64))
    out[0::2] = x * c - y * s
    out[1::2] = x * s + y * c
    return out.astype(v.dtype) if np.issubdtype(v.dtype, np.floating) else out


def rotate_rows(mat: np.ndarray, positions: np.ndarray, freqs: FrequencyTable) -> np.ndarray:
    """apply_rotary over the rows of a (T, d_head) matrix, row r at positions[r]."""
    m = np.asarray(mat)
    pos = np.asarray(positions, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] != freqs.d_head:
        raise ValueError(f"(T, {freqs.d_head}) matrix expected, got shape {m.shape}")
    if pos.shape != (m.shape[0],):
        raise ValueError(f"positions shape {pos.shape} does not match {m.shape[0]} rows")
    if not np.all(np.isfinite(pos)):
        raise ValueError("positions must be finite")
    phi = pos[:, None] * freqs.thetas[None, :]
    c, s = np.cos(phi), np.sin(phi)
    x, y = m[:, 0::2], m[:, 1::2]
    out = np.empty_like(m, dtype=np.result_type(m.dtype, np.float64))
    out[:, 0::2] = x * c - y * s
    out[:, 1::2] = x * s + y * c
    return out.astype(m.dtype) if np.issubdtype(m.dtype, np.floating) else out


def rotary_oracle(vec: np.ndarray, position: float, freqs: FrequencyTable) -> np.ndarray:
    """Reference rotation: pack pairs into complex numbers and multiply by e^{i phi}."""
    v = _check_vec(vec, freqs)
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

    Depends on the positions only through pos_q - pos_k.
    """
    return float(np.dot(apply_rotary(q, pos_q, freqs), apply_rotary(k, pos_k, freqs)))
