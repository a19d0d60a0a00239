"""Plain-text PGM (P2) and CSV emitters with atomic file writes.

P2 was chosen over binary formats because the outputs double as golden
files: human-readable, diffable, no image library needed to inspect them.

Both emitters encode _BLOCK_ROWS matrix rows at a time, as alternating runs
of zero cells and key cells. A key cell is one whose text is not the zero
token, plus the last cell of every row, which carries the line break. The
run before a key cell is the zero token and separator repeated once per
zero cell, built once per distinct run length; only key cells cost Python
work of their own. A PGM key cell is one lookup in _PIXEL_TOKENS, a value's
text with its separator already attached. A CSV cell is exactly
``repr(value.item())``, and ``repr`` is called only on the key cells that
are not ``+0`` of the dtype (``-0.0`` and NaN included). Attention weights
under a frame-block mask are mostly zeros, so most cells are never touched
one by one. A CSV block that is mostly non-zero gains nothing from the runs
and is written cell by cell. Scratch covers one block, never the whole
matrix, so memory stays close to that of the output text itself.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = ["pgm_text", "csv_text", "write_text_atomic"]

_BLOCK_ROWS = 64
# Entry v is "v " and entry 256 + v is "v\n": a pixel's text inside a row and at its end.
_PIXEL_TOKENS = np.array([f"{v} " for v in range(256)] + [f"{v}\n" for v in range(256)], dtype=object)
_CSV_SEPS = np.array([",", "\n"], dtype=object)


def _run_text(pos: np.ndarray, tokens: np.ndarray, zero_cell: str) -> str:
    """Text of one block from the flat indices `pos` of its key cells and their `tokens`.

    Every cell between two key cells prints as `zero_cell`, the zero token
    with its separator. The last cell of each row must be a key cell, so no
    run crosses a line break.
    """
    gaps = np.diff(pos, prepend=-1) - 1
    runs = np.empty(gaps.max() + 1, dtype=object)
    for gap in np.flatnonzero(np.bincount(gaps)):
        runs[gap] = zero_cell * int(gap)
    pieces = np.empty(2 * len(pos), dtype=object)
    pieces[0::2] = runs[gaps]
    pieces[1::2] = tokens
    return "".join(pieces.tolist())


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
    parts = [f"P2\n{w} {h}\n255\n"]
    if px.size == 0:
        return parts[0] + "\n" * h
    for lo in range(0, h, _BLOCK_ROWS):
        block = px[lo : lo + _BLOCK_ROWS]
        key = block != 0
        key[:, -1] = True
        pos = np.flatnonzero(key)
        ends_row = pos % w == w - 1
        parts.append(_run_text(pos, _PIXEL_TOKENS[block.ravel()[pos] + 256 * ends_row], "0 "))
    return "".join(parts)


def csv_text(values: np.ndarray) -> str:
    """Comma-separated rows, one matrix row per line; each cell is the repr of its Python value."""
    vals = np.asarray(values)
    if vals.ndim != 2:
        raise ValueError(f"expected 2-D array, got shape {vals.shape}")
    if vals.dtype.kind not in "biuf":  # complex, object, str: no one token for zero
        return "\n".join(",".join(map(repr, row.tolist())) for row in vals) + "\n"
    h, w = vals.shape
    if vals.size == 0:
        return "\n" * max(h, 1)
    zero = repr(vals.dtype.type(0).item())
    parts = []
    for lo in range(0, h, _BLOCK_ROWS):
        block = vals[lo : lo + _BLOCK_ROWS]
        hit = (block != 0) | np.signbit(block)  # -0.0 == 0 but prints "-0.0"
        if 2 * np.count_nonzero(hit) > hit.size:
            parts.append("".join(",".join(map(repr, row)) + "\n" for row in block.tolist()))
            continue
        key = hit.copy()
        key[:, -1] = True
        pos = np.flatnonzero(key)
        hit_at = hit.ravel()[pos]
        tokens = np.full(len(pos), zero, dtype=object)
        tokens[hit_at] = list(map(repr, block.ravel()[pos[hit_at]].tolist()))
        tokens += _CSV_SEPS[(pos % w == w - 1).astype(np.intp)]
        parts.append(_run_text(pos, tokens, zero + ","))
    return "".join(parts)


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
