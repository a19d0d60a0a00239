import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from frameattn.pgmio import csv_text, pgm_text, write_text_atomic


# Per-cell oracles: one repr per cell, the plain form the block-wise encoders must match.
def csv_oracle(values) -> str:
    return "\n".join(",".join(map(repr, row.tolist())) for row in np.asarray(values)) + "\n"


def pgm_oracle(pixels) -> str:
    px = np.asarray(pixels)
    h, w = px.shape
    rows = [" ".join(map(repr, row.tolist())) for row in px.astype(np.int64)]
    return "\n".join(["P2", f"{w} {h}", "255", *rows]) + "\n"


SPECIALS_64 = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e16, 1 / 3]
# The same edge cases, each exactly representable in float32.
SPECIALS_32 = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), float(np.float32(1e-45)),
               1e16, float(np.float32(1 / 3))]
ELEMENTS = {
    np.float64: st.one_of(st.sampled_from(SPECIALS_64), st.floats()),
    np.float32: st.one_of(st.sampled_from(SPECIALS_32), st.floats(width=32)),
    np.int64: st.one_of(st.just(0), st.integers(-(2**63), 2**63 - 1)),
    np.bool_: st.booleans(),
}
SHAPES = array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=7)


@st.composite
def matrices(draw):
    dtype = draw(st.sampled_from(list(ELEMENTS)))
    return draw(arrays(dtype, SHAPES, elements=ELEMENTS[dtype]))


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_csv_matches_per_cell_repr(values):
    assert csv_text(values) == csv_oracle(values)


# Non-zero cell values (and -0.0, which prints unlike 0.0) for the sparse matrices below.
NONZERO = {
    np.float64: st.one_of(st.sampled_from([-0.0, float("nan"), float("-inf"), 5e-324, 1 / 3]), st.floats()),
    np.float32: st.one_of(st.sampled_from([-0.0, float("nan"), float("inf"), 1e16]), st.floats(width=32)),
    np.int64: st.one_of(st.sampled_from([-1, 1, 2**63 - 1]), st.integers(-(2**63), 2**63 - 1)),
    np.bool_: st.just(True),
}
PIXELS = {np.int64: st.integers(1, 255), np.uint8: st.integers(1, 255)}
# First and last rows of the first encoding blocks of 64 rows.
EDGE_ROWS = (0, 63, 64, 127, 128)


@st.composite
def sparse_matrices(draw, nonzero):
    """Mostly-zero matrices up to 150 rows: all-zero rows, rows whose only non-zero cell is the
    last, values at row and block edges, and now and then a band of non-zero rows."""
    dtype = draw(st.sampled_from(list(nonzero)))
    h, w = draw(st.integers(1, 150)), draw(st.one_of(st.just(1), st.integers(1, 9)))
    values = np.zeros((h, w), dtype=dtype)
    rows = st.one_of(st.sampled_from([r for r in EDGE_ROWS if r < h] + [h - 1]), st.integers(0, h - 1))
    cols = st.one_of(st.sampled_from([0, w - 1]), st.integers(0, w - 1))
    for r, c, v in draw(st.lists(st.tuples(rows, cols, nonzero[dtype]), max_size=40)):
        values[r, c] = v
    for r, v in draw(st.lists(st.tuples(rows, nonzero[dtype]), max_size=5)):
        values[r] = 0
        values[r, -1] = v
    if draw(st.booleans()):
        lo = draw(st.integers(0, h - 1))
        values[lo : lo + draw(st.integers(1, 70))] = draw(nonzero[dtype])
    return values


@given(sparse_matrices(NONZERO))
@settings(max_examples=200, deadline=None)
def test_csv_sparse_multi_block_matches_per_cell_repr(values):
    assert csv_text(values) == csv_oracle(values)


@given(sparse_matrices(PIXELS))
@settings(max_examples=200, deadline=None)
def test_pgm_sparse_multi_block_matches_per_cell_repr(pixels):
    assert pgm_text(pixels) == pgm_oracle(pixels)


def traced_peak(encode, matrix):
    """The encoder's text and the peak memory traced while it ran, the text included."""
    tracemalloc.start()
    try:
        text = encode(matrix)
        return text, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scratch_memory_stays_within_four_times_the_text():
    rng = np.random.default_rng(0)
    dense_pixels = rng.integers(1, 256, size=(512, 512))
    sparse_weights = np.where(rng.random((512, 512)) < 0.05, rng.random((512, 512)), 0.0)
    for encode, matrix in ((pgm_text, dense_pixels), (csv_text, sparse_weights)):
        text, peak = traced_peak(encode, matrix)
        assert peak <= 4 * len(text), (encode.__name__, peak / len(text))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_csv_float_edge_cases(dtype):
    specials = SPECIALS_64 if dtype is np.float64 else SPECIALS_32
    row = np.array(specials, dtype=dtype)
    values = np.stack([row, row[::-1], np.zeros_like(row)])
    text = csv_text(values)
    assert text == csv_oracle(values)
    assert text.splitlines()[0].split(",")[:2] == ["0.0", "-0.0"]


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.bool_])
def test_csv_every_row_density(dtype):
    # The rows hold 8, 7, ..., 0 non-zero cells out of 8: both sides of the half-full line
    # and the line itself. The float rows also carry -0.0 and NaN, in dense and sparse rows.
    n = 8
    values = (np.tri(n + 1, n, k=-1)[::-1] * np.arange(1, n + 1)).astype(dtype)
    if values.dtype.kind == "f":
        values[1, 2] = -0.0
        values[2, 0] = np.nan
        values[5, 7] = -0.0
        values[7, 1] = np.nan
    text = csv_text(values)
    assert text == csv_oracle(values)
    assert len(text.splitlines()) == n + 1


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.bool_, np.uint8, np.complex128])
@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (1, 1), (2, 5)])
def test_csv_shapes_and_dtypes(dtype, shape):
    values = (np.arange(np.prod(shape)).reshape(shape) % 3).astype(dtype)
    assert csv_text(values) == csv_oracle(values)


def test_csv_strided_input():
    values = np.arange(-12.0, 12.0).reshape(4, 6)
    for view in (values.T, values[::2, ::3], values[:, ::-1]):
        assert csv_text(view) == csv_oracle(view)


@pytest.mark.parametrize("shape", [(3,), (2, 2, 2), ()])
def test_csv_rejects_non_2d(shape):
    with pytest.raises(ValueError, match="2-D"):
        csv_text(np.zeros(shape))


def test_pgm_all_256_values():
    for dtype in (np.int64, np.uint8):
        pixels = np.arange(256, dtype=dtype).reshape(16, 16)
        text = pgm_text(pixels)
        assert text == pgm_oracle(pixels)
        tokens = text.split()
        assert tokens[:4] == ["P2", "16", "16", "255"]
        assert [int(t) for t in tokens[4:]] == list(range(256))


@given(arrays(np.int64, SHAPES, elements=st.integers(0, 255)))
@settings(max_examples=150, deadline=None)
def test_pgm_matches_per_cell_repr(pixels):
    assert pgm_text(pixels) == pgm_oracle(pixels)


@pytest.mark.parametrize("shape", [(0, 4), (4, 0), (1, 1)])
def test_pgm_degenerate_shapes(shape):
    pixels = np.full(shape, 7, dtype=np.int64)
    assert pgm_text(pixels) == pgm_oracle(pixels)


@pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
def test_pgm_rejects_non_2d(shape):
    with pytest.raises(ValueError, match="2-D"):
        pgm_text(np.zeros(shape, dtype=np.int64))


@pytest.mark.parametrize("bad", [-1, 256])
def test_pgm_rejects_out_of_range(bad):
    with pytest.raises(ValueError, match="0..255"):
        pgm_text(np.array([[0, bad]]))


@pytest.mark.parametrize(
    "pixels",
    [
        np.array([[1.7, 254.9]]),
        np.array([[1.0, float("nan")]]),
        np.array([[1.0, 2.0]], dtype=np.float32),
        np.array([[True, False]]),
        np.array([[1, 2]], dtype=object),
    ],
    ids=["fractional", "nan", "float32", "bool", "object"],
)
def test_pgm_rejects_non_integer_dtype(pixels):
    with pytest.raises(ValueError, match=f"integer dtype, got {pixels.dtype}"):
        pgm_text(pixels)


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
def test_write_text_atomic_mode_follows_umask(tmp_path, umask):
    path = tmp_path / "out.txt"
    old = os.umask(umask)
    try:
        write_text_atomic(str(path), "hello\n")
    finally:
        os.umask(old)
    assert path.read_text() == "hello\n"
    assert path.stat().st_mode & 0o777 == 0o666 & ~umask
    assert os.listdir(tmp_path) == ["out.txt"]


def test_write_text_atomic_replaces_existing_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    write_text_atomic(str(path), "new\n")
    assert path.read_text() == "new\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_write_text_atomic_leaves_no_temp_file_on_failure(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with pytest.raises(TypeError):
        write_text_atomic(str(path), 123)  # fails inside the write
    (tmp_path / "target").mkdir()
    with pytest.raises(OSError):
        write_text_atomic(str(tmp_path / "target"), "x\n")  # fails at the rename
    assert path.read_text() == "old\n"
    assert sorted(os.listdir(tmp_path)) == ["out.txt", "target"]


def dense_of(blocks, shape, dtype):
    """The matrix a block-sparse row form stands for: each block's values at its columns, zeros elsewhere."""
    out, lo = np.zeros(shape, dtype=dtype), 0
    for cols, values in blocks:
        out[lo : lo + len(values), cols] = values
        lo += len(values)
    return out


@st.composite
def row_blocks(draw, nonzero):
    """(blocks, shape, dtype): up to 150 rows cut into blocks of 0-70 rows, each over a random
    ascending subset of the columns (empty, full or without the last column), mostly zero values."""
    dtype = draw(st.sampled_from(list(nonzero)))
    h, w = draw(st.integers(0, 150)), draw(st.integers(1, 9))
    blocks, lo = [], 0
    while lo < h or draw(st.booleans()) and len(blocks) < 3:
        rows = draw(st.integers(0, min(70, h - lo)))
        cols = np.flatnonzero(draw(arrays(np.bool_, w)))
        values = np.zeros((rows, len(cols)), dtype=dtype)
        for r, c, v in draw(st.lists(st.tuples(st.integers(0, 69), st.integers(0, w - 1), nonzero[dtype]), max_size=20)):
            if r < rows and c < len(cols):
                values[r, c] = v
        blocks.append((cols, values))
        lo += rows
    return blocks, (h, w), dtype


@given(row_blocks(NONZERO))
@settings(max_examples=200, deadline=None)
def test_csv_row_blocks_match_their_dense_matrix(case):
    blocks, shape, dtype = case
    assert csv_text(blocks, shape) == csv_oracle(dense_of(blocks, shape, dtype))


@given(row_blocks(PIXELS))
@settings(max_examples=200, deadline=None)
def test_pgm_row_blocks_match_their_dense_matrix(case):
    blocks, shape, dtype = case
    assert pgm_text(blocks, shape) == pgm_oracle(dense_of(blocks, shape, dtype))


def test_row_blocks_without_the_last_column_and_dense_blocks():
    # Block 0 lacks column 4, block 1 is mostly non-zero (the CSV's cell-by-cell
    # path, zeros filled in outside its columns), block 2 has no columns at all.
    blocks = [
        (np.array([0, 2]), np.array([[1, 0], [0, 3]])),
        (np.array([1, 2, 3, 4]), np.array([[4, 5, 6, 7], [8, 9, 10, 11]])),
        (np.array([], dtype=np.intp), np.zeros((1, 0), dtype=np.int64)),
    ]
    dense = dense_of(blocks, (5, 5), np.int64)
    assert csv_text(blocks, (5, 5)) == csv_oracle(dense)
    assert pgm_text(blocks, (5, 5)) == pgm_oracle(dense)
    weights = [(cols, values / 16.0) for cols, values in blocks]
    assert csv_text(weights, (5, 5)) == csv_oracle(dense / 16.0)


GOOD_COLS = np.array([0, 2])
GOOD_VALUES = np.array([[1, 2], [3, 4]])
# (name, blocks, shape, message) of block forms every encoder refuses.
MALFORMED = [
    ("rows_short", [(GOOD_COLS, GOOD_VALUES)], (3, 4), "row blocks hold 2 rows, the height is 3"),
    ("rows_over", [(GOOD_COLS, GOOD_VALUES), (GOOD_COLS, GOOD_VALUES)], (3, 4), "row blocks hold 4 rows"),
    ("cols_descending", [(np.array([2, 0]), GOOD_VALUES)], (2, 4), "block 0: columns must be strictly ascending"),
    ("cols_repeated", [(np.array([1, 1]), GOOD_VALUES)], (2, 4), "strictly ascending integers in [0, 4)"),
    ("cols_negative", [(np.array([-1, 2]), GOOD_VALUES)], (2, 4), "strictly ascending integers in [0, 4)"),
    ("cols_past_width", [(np.array([2, 4]), GOOD_VALUES)], (2, 4), "strictly ascending integers in [0, 4)"),
    ("cols_float", [(np.array([0.0, 2.0]), GOOD_VALUES)], (2, 4), "strictly ascending integers in [0, 4)"),
    ("cols_2d", [(GOOD_COLS[None], GOOD_VALUES)], (2, 4), "strictly ascending integers in [0, 4)"),
    ("second_block", [(GOOD_COLS, GOOD_VALUES), (np.array([3, 1]), GOOD_VALUES)], (4, 4), "block 1: columns"),
    ("values_too_wide", [(GOOD_COLS, np.ones((2, 3), dtype=int))], (2, 4),
     "block 0: values have shape (2, 3), expected (rows, 2)"),
    ("values_1d", [(GOOD_COLS, np.array([1, 2]))], (1, 4), "block 0: values have shape (2,), expected (rows, 2)"),
    ("values_3d", [(GOOD_COLS, np.ones((1, 2, 2), dtype=int))], (1, 4), "values have shape (1, 2, 2)"),
]


@pytest.mark.parametrize("encode", [pgm_text, csv_text], ids=lambda f: f.__name__)
@pytest.mark.parametrize(("blocks", "shape", "message"), [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_row_blocks_are_refused(encode, blocks, shape, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        encode(blocks, shape)


@pytest.mark.parametrize(
    ("values", "message"),
    [
        (np.array([[1.0, 2.0]]), "integer dtype, got float64"),
        (np.array([[True, False]]), "integer dtype, got bool"),
        (np.array([[0, 256]]), "0..255"),
        (np.array([[-1, 0]]), "0..255"),
    ],
    ids=["float", "bool", "over_255", "negative"],
)
def test_pgm_refuses_row_blocks_that_are_not_pixels(values, message):
    blocks = [(GOOD_COLS, np.zeros((1, 2), dtype=np.uint8)), (GOOD_COLS, values)]
    with pytest.raises(ValueError, match=re.escape(message)):
        pgm_text(blocks, (2, 4))
