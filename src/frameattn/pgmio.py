"""Plain-text PGM (P2) and CSV emitters with atomic file writes.

P2 was chosen over binary formats because the outputs double as golden
files: human-readable, diffable, no image library needed to inspect them.

Both emitters take a 2-D array or, given its (height, width), the matrix
as row blocks: pairs (cols, values) in row order, of strictly ascending key
columns and their (rows, len(cols)) values, every other cell zero. An array
is read as full-width blocks of _BLOCK_ROWS rows.

Each block is encoded as alternating runs of zero cells and key cells. A
key cell is one whose text is not the zero token, plus the last cell of
every row, which carries the line break. The run before a key cell is the
zero token and separator repeated once per zero cell, built once per
distinct run length; only key cells cost Python work of their own. A PGM
key cell is one lookup in _PIXEL_TOKENS, a value's text with its separator
already attached. A CSV cell is exactly ``repr(value.item())``, and
``repr`` is called only on the key cells that are not ``+0`` of the dtype
(``-0.0`` and NaN included). A CSV block that is mostly non-zero gains
nothing from the runs and is written cell by cell. Scratch covers one
block, never the whole matrix, so memory stays close to that of the output
text itself.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = ["pgm_text", "csv_text", "write_text_atomic"]

_BLOCK_ROWS = 64
# Entry v is "v " and entry 256 + v is "v\n": a pixel's text inside a row and at its end.
_PIXEL_TOKENS = np.array([f"{v} " for v in range(256)] + [f"{v}\n" for v in range(256)], dtype=object)
_CSV_SEPS = np.array([",", "\n"], dtype=object)


def _row_blocks(values, shape) -> tuple[int, int, list[tuple[np.ndarray, np.ndarray]]]:
    """(height, width, blocks) of a 2-D array or, with `shape`, of its checked row blocks; a block
    without column width - 1 gains a zero column there, so it holds each row's last cell."""
    if shape is None:
        arr = np.asarray(values)
        if arr.ndim != 2:
            raise ValueError(f"expected 2-D array, got shape {arr.shape}")
        (h, w), cols = arr.shape, np.arange(arr.shape[1])
        # At least one block, so an empty array's dtype is checked too.
        blocks = [(cols, arr[lo : lo + _BLOCK_ROWS]) for lo in range(0, max(h, 1), _BLOCK_ROWS)]
    else:
        (h, w), blocks = shape, [tuple(map(np.asarray, block)) for block in values]
        for i, (cols, block) in enumerate(blocks):
            if cols.ndim != 1 or cols.dtype.kind not in "iu" or np.any(np.diff(cols, prepend=-1, append=w) <= 0):
                raise ValueError(f"block {i}: columns must be strictly ascending integers in [0, {w})")
            if block.ndim != 2 or block.shape[1] != len(cols):
                raise ValueError(f"block {i}: values have shape {block.shape}, expected (rows, {len(cols)})")
        rows = sum(len(block) for _, block in blocks)
        if rows != h:
            raise ValueError(f"row blocks hold {rows} rows, the height is {h}")
    if w:
        blocks = [
            (cols, block) if len(cols) and cols[-1] == w - 1
            else (np.append(cols, w - 1), np.concatenate((block, np.zeros((len(block), 1), block.dtype)), axis=1))
            for cols, block in blocks
        ]
    return h, w, blocks


def _key_cells(cols: np.ndarray, key: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A block's key cells, from its `key` mask (whose last column, width - 1, this sets):
    their indices in the block, their flat indices in its full-width rows, and which end a row."""
    key[:, -1] = True
    pos = np.flatnonzero(key)
    row, col = np.divmod(pos, len(cols))
    return pos, row * width + cols[col], col == len(cols) - 1


def _run_text(pos: np.ndarray, tokens: np.ndarray, zero_cell: str) -> str:
    """Text of one block from the flat indices `pos` of its key cells and their `tokens`.

    Every cell between two key cells prints as `zero_cell`, the zero token
    with its separator. The last cell of each row must be a key cell, so no
    run crosses a line break.
    """
    gaps = np.diff(pos, prepend=-1) - 1
    runs = np.empty(gaps.max(initial=0) + 1, dtype=object)
    for gap in np.flatnonzero(np.bincount(gaps)):
        runs[gap] = zero_cell * int(gap)
    pieces = np.empty(2 * len(pos), dtype=object)
    pieces[0::2] = runs[gaps]
    pieces[1::2] = tokens
    return "".join(pieces.tolist())


def pgm_text(pixels, shape: tuple[int, int] | None = None) -> str:
    """Plain PGM text of integer pixels in 0..255: a 2-D array or, with `shape`, its row blocks."""
    h, w, blocks = _row_blocks(pixels, shape)
    parts = [f"P2\n{w} {h}\n255\n"]
    for cols, block in blocks:
        if block.dtype.kind not in "iu":
            raise ValueError(f"pixel array must have an integer dtype, got {block.dtype}")
        if block.size and (block.min() < 0 or block.max() > 255):
            raise ValueError("pixel values must lie in 0..255")
        if w:
            pos, flat, ends_row = _key_cells(cols, block != 0, w)
            parts.append(_run_text(flat, _PIXEL_TOKENS[block.ravel()[pos] + 256 * ends_row], "0 "))
    return "".join(parts) if w else parts[0] + "\n" * h


def csv_text(values, shape: tuple[int, int] | None = None) -> str:
    """One comma-separated line per row, each cell the repr of its Python value; `values` as pgm_text's `pixels`."""
    h, w, blocks = _row_blocks(values, shape)
    if not (h and w):
        return "\n" * max(h, 1)
    parts = []
    for cols, block in blocks:
        # complex, object, str: no one token for zero
        hit = (block != 0) | np.signbit(block) if block.dtype.kind in "biuf" else None  # -0.0 prints "-0.0"
        if hit is None or 2 * np.count_nonzero(hit) > len(block) * w:
            dense = np.zeros((len(block), w), block.dtype)
            dense[:, cols] = block
            parts.append("".join(",".join(map(repr, row)) + "\n" for row in dense.tolist()))
            continue
        pos, flat, ends_row = _key_cells(cols, hit.copy(), w)
        hit_at = hit.ravel()[pos]
        zero = repr(block.dtype.type(0).item())
        tokens = np.full(len(pos), zero, dtype=object)
        tokens[hit_at] = list(map(repr, block.ravel()[pos[hit_at]].tolist()))
        tokens += _CSV_SEPS[ends_row.astype(np.intp)]
        parts.append(_run_text(flat, tokens, zero + ","))
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
