"""The four additive attention masks over a multimodal layout.

All masks are dense T x T matrices whose entries are exactly 0 (allowed) or
-inf (forbidden). The diagonal is allowed in every variant. Variants differ
only on visual-visual pairs:

  * causal            -- i >= j, nothing else.
  * full_visual       -- causal, plus every visual token sees every other.
  * fw_block          -- visual pairs see only their own frame; all other
                         pairs stay causal. (The frame block is bidirectional
                         by default; ``fw_block_causal_within_frame`` keeps
                         it lower-triangular instead.)
  * fw_block_causal   -- causal, plus bidirectional attention inside each
                         frame's block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .layout import NamedEnum, SequenceLayout, check_flag
from .pgmio import csv_text, pgm_text

__all__ = [
    "MaskKind",
    "AttentionMask",
    "allowed",
    "build_mask",
    "mask_stats",
    "mask_to_pgm",
    "mask_to_csv",
]


class MaskKind(NamedEnum):
    CAUSAL = "causal"
    FULL_VISUAL = "full_visual"
    FW_BLOCK = "fw_block"
    FW_BLOCK_CAUSAL = "fw_block_causal"


@dataclass(frozen=True)
class AttentionMask:
    """Additive T x T mask; values are exactly 0 or -inf."""

    kind: MaskKind
    size: int
    values: np.ndarray = field(repr=False)


def allowed(
    kind: MaskKind,
    layout: SequenceLayout,
    i: int,
    j: int,
    fw_block_causal_within_frame: bool = False,
) -> bool:
    """May query position i attend to key position j under `kind`?"""
    check_flag("fw_block_causal_within_frame", fw_block_causal_within_frame)
    t = layout.total_len
    for name, idx in (("i", i), ("j", j)):
        if not 0 <= idx < t:
            raise ValueError(f"{name}={idx} out of range for T={t}")
    fi = layout.frame_of(i)
    fj = layout.frame_of(j)
    both_visual = fi is not None and fj is not None
    same_frame = both_visual and fi == fj
    if kind is MaskKind.CAUSAL:
        return i >= j
    if kind is MaskKind.FULL_VISUAL:
        return i >= j or both_visual
    if kind is MaskKind.FW_BLOCK:
        if both_visual:
            return same_frame and (i >= j if fw_block_causal_within_frame else True)
        return i >= j
    if kind is MaskKind.FW_BLOCK_CAUSAL:
        return i >= j or same_frame
    raise ValueError(f"unhandled mask kind {kind!r}")


def _allowed_bool(
    kind: MaskKind, layout: SequenceLayout, fw_block_causal_within_frame: bool
) -> np.ndarray:
    t = layout.total_len
    n = np.arange(t)
    causal = n[:, None] >= n[None, :]
    frame = np.full(t, -1, dtype=np.int64)
    if layout.has_visual:
        vis = slice(layout.visual_start, layout.visual_end + 1)
        frame[vis] = (n[vis] - layout.visual_start) // layout.tokens_per_frame
    visual = frame >= 0
    both_visual = visual[:, None] & visual[None, :]
    same_frame = both_visual & (frame[:, None] == frame[None, :])
    if kind is MaskKind.CAUSAL:
        return causal
    if kind is MaskKind.FULL_VISUAL:
        return causal | both_visual
    if kind is MaskKind.FW_BLOCK:
        block = same_frame & causal if fw_block_causal_within_frame else same_frame
        return np.where(both_visual, block, causal)
    if kind is MaskKind.FW_BLOCK_CAUSAL:
        return causal | same_frame
    raise ValueError(f"unhandled mask kind {kind!r}")


def build_mask(
    kind: MaskKind,
    layout: SequenceLayout,
    fw_block_causal_within_frame: bool = False,
) -> AttentionMask:
    """Dense additive mask; 0 where `allowed`, -inf elsewhere."""
    check_flag("fw_block_causal_within_frame", fw_block_causal_within_frame)
    ok = _allowed_bool(kind, layout, fw_block_causal_within_frame)
    values = np.where(ok, 0.0, -np.inf)
    return AttentionMask(kind=kind, size=layout.total_len, values=values)


def mask_stats(mask: AttentionMask) -> dict:
    """Exact counts of allowed (0) entries."""
    ok = mask.values == 0.0
    count = int(ok.sum())
    return {
        "allowed_count": count,
        "allowed_fraction": count / mask.size**2,
        "per_row_allowed": ok.sum(axis=1).astype(int).tolist(),
    }


def mask_to_pgm(mask: AttentionMask) -> str:
    """P2 grayscale: 255 = allowed, 0 = forbidden; row i is query index i."""
    return pgm_text(np.where(mask.values == 0.0, 255, 0))


def mask_to_csv(mask: AttentionMask) -> str:
    """CSV of 1 (allowed) / 0 (forbidden), row i is query index i."""
    return csv_text(np.where(mask.values == 0.0, 1, 0))
