import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameattn.attention import temporal_id_literal
from frameattn.layout import (
    SequenceLayout,
    TokenRole,
    adjusted_positions,
    build_layout,
    temporal_ids,
)


layouts = (
    st.tuples(st.integers(0, 8), st.integers(0, 6), st.integers(1, 6), st.integers(0, 8))
    .filter(lambda t: t[0] + t[1] * t[2] + t[3] >= 1)
    .map(lambda t: build_layout(t[0], t[1], t[2] if t[1] else 0, t[3]))
)


def test_build_layout_worked_example():
    lay = build_layout(2, 2, 4, 3)
    assert lay.total_len == 13
    assert lay.visual_start == 2
    assert lay.visual_end == 9


def test_build_layout_single_visual_token():
    lay = build_layout(0, 1, 1, 0)
    assert lay.total_len == 1
    assert lay.visual_start == lay.visual_end == 0
    assert lay.role_of(0) is TokenRole.VISUAL


def test_out_of_range_frame_and_position_indices_are_refused():
    lay = build_layout(1, 2, 2, 1)
    for f in (-1, 2):
        with pytest.raises(ValueError) as err:
            lay.frame_slice(f)
        assert str(err.value) == f"frame index {f} out of range for 2 frames"
    for query in (lay.role_of, lay.frame_of):
        for n in (-1, 6):
            with pytest.raises(ValueError) as err:
                query(n)
            assert str(err.value) == f"position {n} out of range for T=6"


def test_build_layout_no_visual_span():
    lay = build_layout(3, 0, 0, 2)
    assert lay.total_len == 5
    assert not lay.has_visual
    with pytest.raises(ValueError):
        lay.visual_end


def test_build_layout_rejects_empty():
    with pytest.raises(ValueError):
        build_layout(0, 0, 0, 0)


@pytest.mark.parametrize("frames,per_frame", [(1, 0), (0, 2)])
def test_build_layout_rejects_inconsistent_visual(frames, per_frame):
    with pytest.raises(ValueError):
        build_layout(1, frames, per_frame, 1)


def test_build_layout_rejects_negative():
    with pytest.raises(ValueError):
        build_layout(-1, 0, 0, 3)


def test_roles_partition_positions():
    lay = build_layout(2, 2, 3, 1)
    roles = [lay.role_of(n) for n in range(lay.total_len)]
    assert roles[:2] == [TokenRole.TEXT_PREFIX] * 2
    assert roles[2:8] == [TokenRole.VISUAL] * 6
    assert roles[8:] == [TokenRole.TEXT_SUFFIX]
    assert [lay.frame_of(n) for n in range(lay.total_len)] == [None, None, 0, 0, 0, 1, 1, 1, None]


def test_temporal_ids_worked_example():
    # prefix 4, two frames of 4, suffix 2: v_s=4, v_e=11, m=4
    lay = build_layout(4, 2, 4, 2)
    ids = temporal_ids(lay)
    assert ids[3] == 3
    assert ids[7] == 4
    assert ids[8] == 5
    assert ids[12] == 5  # first suffix token collides with the last frame id


def test_temporal_ids_strict_monotonic_suffix():
    lay = build_layout(4, 2, 4, 2)
    ids = temporal_ids(lay, strict_monotonic_suffix=True)
    assert ids[11] == 5
    assert ids[12] == 6
    assert ids[13] == 7


@given(layouts)
@settings(max_examples=200, deadline=None)
def test_temporal_ids_match_literal_branches(lay):
    for strict in (False, True):
        ids = temporal_ids(lay, strict_monotonic_suffix=strict)
        for n in range(lay.total_len):
            assert ids[n] == temporal_id_literal(lay, n, strict)


@given(layouts)
@settings(max_examples=150, deadline=None)
def test_temporal_ids_frame_structure(lay):
    ids = temporal_ids(lay)
    assert np.all(np.diff(ids) >= 0)  # non-decreasing
    for f in range(lay.num_frames):
        frame_ids = ids[lay.frame_slice(f)]
        assert np.all(frame_ids == frame_ids[0])
        if f:
            prev = ids[lay.frame_slice(f - 1)]
            assert frame_ids[0] - prev[0] == 1


def test_temporal_ids_identity_without_visual_span():
    lay = build_layout(4, 0, 0, 3)
    assert np.array_equal(temporal_ids(lay), np.arange(7))


def test_adjusted_gamma_zero_is_global_ids():
    lay = build_layout(2, 2, 3, 2)
    table = adjusted_positions(lay, 0.0)
    assert np.array_equal(table.adjusted, table.global_ids.astype(float))


def test_adjusted_worked_values():
    lay = build_layout(4, 2, 4, 2)
    table = adjusted_positions(lay, 1.0)
    assert table.adjusted[8] == 13.0  # 8 + 1*5
    half = adjusted_positions(lay, 0.5)
    assert half.adjusted[3] == 4.5  # 3 + 0.5*3


@given(layouts, st.floats(-4, 4, allow_nan=False))
@settings(max_examples=150, deadline=None)
def test_adjusted_formula_exact(lay, gamma):
    table = adjusted_positions(lay, gamma)
    expected = table.global_ids.astype(float) + gamma * table.temporal_ids.astype(float)
    assert np.array_equal(table.adjusted, expected)


@given(layouts)
@settings(max_examples=100, deadline=None)
def test_adjusted_gamma_difference_is_temporal_id(lay):
    one = adjusted_positions(lay, 1.0)
    zero = adjusted_positions(lay, 0.0)
    assert np.array_equal(one.adjusted - zero.adjusted, one.temporal_ids.astype(float))


@pytest.mark.filterwarnings("error")  # no numpy overflow warning either
def test_adjusted_rejects_non_finite_gamma():
    lay = build_layout(2, 3, 2, 2)  # temporal ids reach 4
    # 1e308 is finite, but 1e308 * 4 overflows.
    for bad in (float("nan"), float("inf"), "1.5", True, 1e308, -1e308):
        with pytest.raises(ValueError, match="gamma"):
            adjusted_positions(lay, bad)
    assert np.all(np.isfinite(adjusted_positions(lay, 1e307).adjusted))


# Text-to-visual distance in adjusted positions: adjusted[text] - adjusted[visual].


def test_relative_distance_gamma_zero():
    lay = build_layout(4, 2, 4, 3)
    table = adjusted_positions(lay, 0.0)
    assert table.adjusted[12] - table.adjusted[5] == 7.0


def test_relative_distance_worked_example():
    lay = build_layout(4, 2, 4, 2)
    table = adjusted_positions(lay, 1.0)
    # text at 12 has temporal id 5, visual at 8 has temporal id 5
    assert table.adjusted[12] - table.adjusted[8] == 4.0


def test_relative_distance_self_is_zero():
    lay = build_layout(1, 1, 2, 1)
    table = adjusted_positions(lay, 0.7)
    assert table.adjusted[2] - table.adjusted[2] == 0.0


def test_layout_json_round_trip():
    lay = build_layout(2, 3, 4, 5)
    again = SequenceLayout.from_json(lay.to_json())
    assert again == lay
    assert set(json.loads(lay.to_json())) == {
        "prefix_len",
        "num_frames",
        "tokens_per_frame",
        "suffix_len",
    }


def test_layout_json_rejects_unknown_fields():
    with pytest.raises(ValueError, match="'x'"):
        SequenceLayout.from_json('{"prefix_len":1,"num_frames":0,"tokens_per_frame":0,"suffix_len":1,"x":2}')


@given(layouts)
@settings(max_examples=100, deadline=None)
def test_layout_json_round_trip_property(lay):
    assert SequenceLayout.from_json(lay.to_json()) == lay


@pytest.mark.parametrize("bad", [2.7, 2.0, "3", True, None, -1])
def test_layout_from_dict_rejects_non_integers(bad):
    obj = {"prefix_len": bad, "num_frames": 1, "tokens_per_frame": 1, "suffix_len": 1}
    with pytest.raises(ValueError, match="prefix_len"):
        SequenceLayout.from_dict(obj)


def test_layout_from_dict_names_missing_fields():
    with pytest.raises(ValueError, match="suffix_len"):
        SequenceLayout.from_dict({"prefix_len": 1, "num_frames": 1, "tokens_per_frame": 1})
    with pytest.raises(ValueError, match="JSON object"):
        SequenceLayout.from_json("[1, 1, 1, 1]")
