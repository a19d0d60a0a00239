"""Plain-text PGM (P2) and CSV emitters with atomic file writes.

P2 was chosen over binary formats because the outputs double as golden
files: human-readable, diffable, no image library needed to inspect them.

Both emitters encode one matrix row at a time. A pixel is an index into
``_PIXELS``, the 256 tokens ``"0"``..``"255"``, so a row is one fancy-index
and one join, with no ``repr`` per pixel. A CSV row in which at most half
the cells are non-zero starts with every cell set to the one shared token
for ``+0`` of the dtype; only the cells that are not ``+0`` (``-0.0`` and
NaN included) are passed to ``repr``. Attention weights under a frame-block
mask are mostly zeros, so this skips most of the per-cell Python work. A
row that is mostly non-zero gains nothing from that bookkeeping and costs
more with it, so it is written cell by cell. Either way each cell
is exactly ``repr(value.item())``. Token scratch covers one row, never the
whole matrix, so memory stays close to that of the output text itself.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = ["pgm_text", "csv_text", "write_text_atomic"]

_PIXELS = np.array([repr(i) for i in range(256)], dtype=object)


def pgm_text(pixels: np.ndarray) -> str:
    """Render a 2-D integer array (values in 0..255) as a plain PGM string."""
    px = np.asarray(pixels)
    if px.ndim != 2:
        raise ValueError(f"expected 2-D pixel array, got shape {px.shape}")
    if px.dtype.kind not in "iu":
        raise ValueError(f"pixel array must have an integer dtype, got {px.dtype}")
    if px.size and (px.min() < 0 or px.max() > 255):
        raise ValueError("pixel values must lie in 0..255")
    h, w = px.shape
    lines = ["P2", f"{w} {h}", "255"]
    lines.extend(" ".join(_PIXELS[row].tolist()) for row in px)
    return "\n".join(lines) + "\n"


def csv_text(values: np.ndarray) -> str:
    """Comma-separated rows, one matrix row per line; each cell is the repr of its Python value."""
    vals = np.asarray(values)
    if vals.ndim != 2:
        raise ValueError(f"expected 2-D array, got shape {vals.shape}")
    if vals.dtype.kind not in "biuf":  # complex, object, str: no one token for zero
        return "\n".join(",".join(map(repr, row.tolist())) for row in vals) + "\n"
    zero = repr(vals.dtype.type(0).item())
    cells = np.empty(vals.shape[1], dtype=object)

    def line(row: np.ndarray) -> str:
        hit = (row != 0) | np.signbit(row)  # -0.0 == 0 but prints "-0.0"
        if 2 * np.count_nonzero(hit) > hit.size:
            return ",".join(map(repr, row.tolist()))
        cells.fill(zero)
        cells[hit] = list(map(repr, row[hit].tolist()))
        return ",".join(cells.tolist())

    # A lazy map, not a list of lines: the lines are freed before the "+".
    return "\n".join(map(line, vals)) + "\n"


def write_text_atomic(path: str, text: str) -> None:
    """Write via a temp file in the target directory, then rename into place.

    The file gets the mode a plain ``open`` would give: 0o666 less the umask.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
