import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameattn.layout import build_layout
from frameattn.masks import (
    MaskKind,
    allowed,
    build_mask,
    mask_stats,
    mask_to_csv,
    mask_to_pgm,
)
from frameattn.numerics import make_rng
from frameattn.selftest import random_layout

layouts = (
    st.tuples(st.integers(0, 6), st.integers(0, 5), st.integers(1, 5), st.integers(0, 6))
    .filter(lambda t: 1 <= t[0] + t[1] * t[2] + t[3] <= 32)
    .map(lambda t: build_layout(t[0], t[1], t[2] if t[1] else 0, t[3]))
)


def predicate_matrix(kind, lay, **kw):
    t = lay.total_len
    return np.array([[allowed(kind, lay, i, j, **kw) for j in range(t)] for i in range(t)])


def test_allowed_causal_upper_triangle():
    lay = build_layout(3, 0, 0, 0)
    assert not allowed(MaskKind.CAUSAL, lay, 0, 2)
    assert allowed(MaskKind.CAUSAL, lay, 2, 0)


def test_allowed_fwbc_examples():
    lay = build_layout(1, 2, 2, 1)  # frames at positions {1,2} and {3,4}
    assert allowed(MaskKind.FW_BLOCK_CAUSAL, lay, 1, 2)  # same frame, upper triangle
    assert not allowed(MaskKind.FW_BLOCK_CAUSAL, lay, 2, 4)  # frame 0 cannot see frame 1


def test_allowed_rejects_out_of_range():
    lay = build_layout(1, 1, 1, 1)
    with pytest.raises(ValueError):
        allowed(MaskKind.CAUSAL, lay, 3, 0)
    with pytest.raises(ValueError):
        allowed(MaskKind.CAUSAL, lay, 0, -1)


def test_build_mask_pure_text_causal():
    mask = build_mask(MaskKind.CAUSAL, build_layout(3, 0, 0, 0))
    expected = np.where(np.tril(np.ones((3, 3))) > 0, 0.0, -np.inf)
    assert np.array_equal(mask.values, expected)


def test_build_mask_fw_block_is_block_diagonal():
    lay = build_layout(0, 2, 2, 0)
    mask = build_mask(MaskKind.FW_BLOCK, lay)
    ok = mask.values == 0.0
    expected = np.zeros((4, 4), dtype=bool)
    expected[:2, :2] = True
    expected[2:, 2:] = True
    assert np.array_equal(ok, expected)


def test_single_frame_full_visual_equals_fwbc():
    lay = build_layout(1, 1, 2, 1)
    a = build_mask(MaskKind.FULL_VISUAL, lay)
    b = build_mask(MaskKind.FW_BLOCK_CAUSAL, lay)
    assert np.array_equal(a.values, b.values)


def test_mask_stats_counts():
    assert mask_stats(build_mask(MaskKind.CAUSAL, build_layout(3, 0, 0, 0)))["allowed_count"] == 6
    lay = build_layout(0, 1, 4, 0)
    assert mask_stats(build_mask(MaskKind.FW_BLOCK_CAUSAL, lay))["allowed_count"] == 16


def test_mask_stats_row_counts_and_fraction():
    stats = mask_stats(build_mask(MaskKind.CAUSAL, build_layout(4, 0, 0, 0)))
    assert stats["per_row_allowed"] == [1, 2, 3, 4]
    assert stats["allowed_fraction"] == 10 / 16


def test_empty_visual_span_all_kinds_equal_causal():
    lay = build_layout(3, 0, 0, 2)
    ref = build_mask(MaskKind.CAUSAL, lay)
    for kind in MaskKind:
        mask = build_mask(kind, lay)
        assert np.array_equal(mask.values, ref.values)
        assert mask_stats(mask)["allowed_count"] == mask_stats(ref)["allowed_count"]


@given(layouts, st.sampled_from(list(MaskKind)))
@settings(max_examples=120, deadline=None)
def test_build_mask_matches_predicate_exhaustively(lay, kind):
    mask = build_mask(kind, lay)
    assert np.array_equal(mask.values == 0.0, predicate_matrix(kind, lay))
    # entries are exactly 0 or -inf, and the diagonal is always allowed
    assert np.all((mask.values == 0.0) | np.isneginf(mask.values))
    assert np.all(np.diag(mask.values) == 0.0)


@given(layouts)
@settings(max_examples=120, deadline=None)
def test_superset_chain(lay):
    causal = build_mask(MaskKind.CAUSAL, lay).values == 0.0
    fwbc = build_mask(MaskKind.FW_BLOCK_CAUSAL, lay).values == 0.0
    full = build_mask(MaskKind.FULL_VISUAL, lay).values == 0.0
    assert np.all(fwbc[causal])
    assert np.all(full[fwbc])


@given(layouts)
@settings(max_examples=100, deadline=None)
def test_fwbc_minus_causal_is_intra_frame_upper_triangle(lay):
    causal = build_mask(MaskKind.CAUSAL, lay).values == 0.0
    fwbc = build_mask(MaskKind.FW_BLOCK_CAUSAL, lay).values == 0.0
    extra = fwbc & ~causal
    for i, j in zip(*np.nonzero(extra)):
        assert i < j
        assert lay.frame_of(int(i)) is not None
        assert lay.frame_of(int(i)) == lay.frame_of(int(j))


@given(layouts)
@settings(max_examples=100, deadline=None)
def test_fwbc_intra_frame_symmetry(lay):
    fwbc = build_mask(MaskKind.FW_BLOCK_CAUSAL, lay).values == 0.0
    for f in range(lay.num_frames):
        block = fwbc[lay.frame_slice(f), lay.frame_slice(f)]
        assert np.array_equal(block, block.T)


def test_fw_block_causal_within_frame_toggle():
    lay = build_layout(0, 2, 3, 1)
    upper = allowed(MaskKind.FW_BLOCK, lay, 0, 1)
    assert upper  # bidirectional by default
    assert not allowed(MaskKind.FW_BLOCK, lay, 0, 1, fw_block_causal_within_frame=True)
    assert allowed(MaskKind.FW_BLOCK, lay, 1, 0, fw_block_causal_within_frame=True)
    mask = build_mask(MaskKind.FW_BLOCK, lay, fw_block_causal_within_frame=True)
    assert np.array_equal(
        mask.values == 0.0, predicate_matrix(MaskKind.FW_BLOCK, lay, fw_block_causal_within_frame=True)
    )


def test_mask_kind_parsing():
    assert MaskKind.from_string("fw_block_causal") is MaskKind.FW_BLOCK_CAUSAL
    with pytest.raises(ValueError):
        MaskKind.from_string("fancy")


def test_mask_pgm_export():
    mask = build_mask(MaskKind.CAUSAL, build_layout(2, 0, 0, 0))
    assert mask_to_pgm(mask) == "P2\n2 2\n255\n255 0\n255 255\n"


def test_mask_csv_export():
    mask = build_mask(MaskKind.CAUSAL, build_layout(2, 0, 0, 0))
    assert mask_to_csv(mask) == "1,0\n1,1\n"


def interval_rows(mask):
    """Each row's allowed key columns, read from the intervals alone."""
    return [
        set(range(h)) | set(range(lo, hi))
        for h, lo, hi in zip(mask.head.tolist(), mask.lo.tolist(), mask.hi.tolist())
    ]


@pytest.mark.parametrize("within", [False, True])
@pytest.mark.parametrize("kind", list(MaskKind))
def test_intervals_match_the_predicate_on_random_layouts(kind, within):
    rng = make_rng(60, list(MaskKind).index(kind), int(within))
    for _ in range(40):
        lay = random_layout(rng, 40, 6, 6, 6, 6)
        mask = build_mask(kind, lay, fw_block_causal_within_frame=within)
        assert np.all(mask.head <= mask.lo) and np.all(mask.lo <= mask.hi)
        want = predicate_matrix(kind, lay, fw_block_causal_within_frame=within)
        assert interval_rows(mask) == [set(np.flatnonzero(row).tolist()) for row in want]
        assert np.array_equal(mask.values == 0.0, want)
        stats = mask_stats(mask)
        assert stats["per_row_allowed"] == want.sum(axis=1).tolist()
        assert stats["allowed_count"] == int(want.sum())
        assert stats["allowed_fraction"] == want.sum() / lay.total_len**2


def test_dense_rows_and_columns_are_the_matching_part_of_values():
    mask = build_mask(MaskKind.FW_BLOCK, build_layout(2, 4, 3, 2))
    cols = np.array([0, 1, 5, 6, 7, 13])
    assert np.array_equal(mask.dense(slice(4, 9), cols), mask.values[4:9][:, cols])
    assert np.array_equal(mask.dense(slice(3, 5), slice(2, 8)), mask.values[3:5, 2:8])


def test_intervals_are_read_only_and_values_are_built_on_each_read():
    mask = build_mask(MaskKind.FW_BLOCK, build_layout(1, 2, 2, 1))
    for arr in (mask.head, mask.lo, mask.hi):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    first = mask.values
    first[0, 0] = -np.inf
    assert mask.values[0, 0] == 0.0
