"""The four attention masks over a multimodal layout.

A mask is held as per-row intervals: query row i may attend to key columns
[0, head[i]) and [lo[i], hi[i]), which `build_mask` derives in O(T) from the
frame arithmetic. The dense T x T additive form, exactly 0 (allowed) or -inf
(forbidden), is built only on request: `values` for the whole matrix,
`dense` for some rows and columns. The diagonal is allowed in every
variant. Variants differ only on visual-visual pairs:

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

from .layout import NamedEnum, SequenceLayout, check_enum, check_flag
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
    """Row i may attend to key columns [0, head[i]) and [lo[i], hi[i]).

    The three read-only int arrays have one entry per row, with
    head <= lo <= hi; lo == hi == head where a row has no second interval.
    """

    size: int
    head: np.ndarray = field(repr=False)
    lo: np.ndarray = field(repr=False)
    hi: np.ndarray = field(repr=False)

    def dense(self, rows: slice = slice(None), cols: slice | np.ndarray = slice(None)) -> np.ndarray:
        """Additive 0/-inf values of query rows `rows` at key columns `cols` (a slice or index array)."""
        j = np.arange(self.size)[cols]
        head, lo, hi = (a[rows, None] for a in (self.head, self.lo, self.hi))
        return np.where((j < head) | ((j >= lo) & (j < hi)), 0.0, -np.inf)

    @property
    def values(self) -> np.ndarray:
        """The dense T x T additive mask, built on each read."""
        return self.dense()


def allowed(
    kind: MaskKind,
    layout: SequenceLayout,
    i: int,
    j: int,
    fw_block_causal_within_frame: bool = False,
) -> bool:
    """May query position i attend to key position j under `kind`?"""
    check_enum("kind", kind, MaskKind)
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
    return i >= j or same_frame  # fw_block_causal


def build_mask(
    kind: MaskKind,
    layout: SequenceLayout,
    fw_block_causal_within_frame: bool = False,
) -> AttentionMask:
    """The rows' intervals under `kind`, from frame arithmetic in O(T)."""
    check_enum("kind", kind, MaskKind)
    check_flag("fw_block_causal_within_frame", fw_block_causal_within_frame)
    head = np.arange(1, layout.total_len + 1)  # causal: row i sees [0, i]
    lo = hi = head  # one array: the kinds below that only widen head keep lo == hi == head
    if layout.has_visual and kind is not MaskKind.CAUSAL:
        vis = slice(layout.visual_start, layout.visual_end + 1)
        rows = np.arange(layout.visual_start, layout.visual_end + 1)
        frame_start = rows - (rows - layout.visual_start) % layout.tokens_per_frame
        frame_end = frame_start + layout.tokens_per_frame
        if kind is MaskKind.FULL_VISUAL:
            head[vis] = layout.visual_end + 1
        elif kind is MaskKind.FW_BLOCK_CAUSAL:
            head[vis] = frame_end
        else:  # fw_block: a visual row sees the text prefix, then its own frame
            lo, hi = head.copy(), head.copy()
            head[vis] = layout.visual_start
            lo[vis] = frame_start
            hi[vis] = rows + 1 if fw_block_causal_within_frame else frame_end
    for arr in (head, lo, hi):
        arr.flags.writeable = False
    return AttentionMask(size=layout.total_len, head=head, lo=lo, hi=hi)


def mask_stats(mask: AttentionMask) -> dict:
    """Exact counts of allowed (0) entries, from the intervals."""
    per_row = mask.head + (mask.hi - mask.lo)
    count = int(per_row.sum())
    return {
        "allowed_count": count,
        "allowed_fraction": count / mask.size**2,
        "per_row_allowed": per_row.tolist(),
    }


def mask_to_pgm(mask: AttentionMask) -> str:
    """P2 grayscale: 255 = allowed, 0 = forbidden; row i is query index i."""
    return pgm_text(np.where(mask.values == 0.0, 255, 0))


def mask_to_csv(mask: AttentionMask) -> str:
    """CSV of 1 (allowed) / 0 (forbidden), row i is query index i."""
    return csv_text(np.where(mask.values == 0.0, 1, 0))
