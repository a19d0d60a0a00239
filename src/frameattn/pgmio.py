"""Plain-text PGM (P2) and CSV emitters with atomic file writes.

P2 was chosen over binary formats because the outputs double as golden
files: human-readable, diffable, no image library needed to inspect them.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

__all__ = ["pgm_text", "csv_text", "write_text_atomic"]


def pgm_text(pixels: np.ndarray) -> str:
    """Render a 2-D integer array (values in 0..255) as a plain PGM string."""
    px = np.asarray(pixels)
    if px.ndim != 2:
        raise ValueError(f"expected 2-D pixel array, got shape {px.shape}")
    if px.size and (px.min() < 0 or px.max() > 255):
        raise ValueError("pixel values must lie in 0..255")
    h, w = px.shape
    lines = ["P2", f"{w} {h}", "255"]
    lines.extend(" ".join(map(repr, row.tolist())) for row in px.astype(np.int64, copy=False))
    return "\n".join(lines) + "\n"


def csv_text(values: np.ndarray) -> str:
    """Comma-separated rows, one matrix row per line; each cell is the repr of its Python value."""
    vals = np.asarray(values)
    if vals.ndim != 2:
        raise ValueError(f"expected 2-D array, got shape {vals.shape}")
    return "\n".join(",".join(map(repr, row.tolist())) for row in vals) + "\n"


def write_text_atomic(path: str, text: str) -> None:
    """Write via a temp file in the target directory, then rename into place."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
