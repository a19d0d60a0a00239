import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameattn.attention import AttentionConfig
from frameattn.numerics import make_rng
from frameattn.rope import (
    frequencies,
    pair_score,
    rotary_oracle,
    rotate_rows,
    rotation_table,
)


def test_frequency_values():
    assert frequencies(6).thetas[0] == 1.0
    f4 = frequencies(4)
    assert abs(f4.thetas[1] - 0.01) < 1e-15  # 10000 ** -1/2
    f128 = frequencies(128)
    assert abs(f128.thetas[16] - 0.1) < 1e-15  # 10000 ** -16/64


def test_frequency_table_shape_and_monotonicity():
    f = frequencies(64)
    assert f.thetas.shape == (32,)
    assert np.all(np.diff(f.thetas) < 0)
    assert np.all((f.thetas > 0) & (f.thetas <= 1))


@pytest.mark.parametrize("bad", [1, 3, 7, 0])
def test_odd_or_tiny_d_head_rejected(bad):
    message = "d_head must be an integer >= 2" if bad < 2 else "d_head must be even and >= 2"
    with pytest.raises(ValueError, match=f"^{message}, got {bad}$"):
        frequencies(bad)
    with pytest.raises(ValueError, match=f"^{message}, got {bad}$"):
        AttentionConfig(d_head=bad)


def test_base_must_exceed_one():
    with pytest.raises(ValueError, match=r"^base must be > 1, got 1\.0$"):
        frequencies(4, base=1.0)
    with pytest.raises(ValueError, match=r"^base must be > 1, got 1\.0$"):
        AttentionConfig(d_head=4, base=1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, True, "2.0", 10**400])
def test_non_finite_or_bool_base_and_gamma_rejected(bad):
    with pytest.raises(ValueError, match="^base must be a finite number"):
        frequencies(4, base=bad)
    for field in ("base", "gamma"):
        with pytest.raises(ValueError, match=f"^{field} must be a finite number"):
            AttentionConfig(**{field: bad})


def test_rotation_at_zero_is_identity():
    freqs = frequencies(8)
    mat = make_rng(1).standard_normal((3, 8))
    assert np.array_equal(rotate_rows(mat, rotation_table(np.zeros(3), freqs)), mat)
    assert np.array_equal(rotary_oracle(mat[0], 0.0, freqs), mat[0])


def test_single_pair_rotation():
    freqs = frequencies(2)
    out = rotate_rows(np.array([[1.0, 0.0]]), rotation_table(np.array([1.0]), freqs))
    assert np.abs(out - np.array([[math.cos(1.0), math.sin(1.0)]])).max() < 1e-15


def test_oracle_quarter_turn():
    freqs = frequencies(2)
    out = rotary_oracle(np.array([0.0, 1.0]), math.pi / 2, freqs)
    assert np.abs(out - np.array([-1.0, 0.0])).max() < 1e-12


def test_length_mismatch_rejected():
    freqs = frequencies(4)
    with pytest.raises(ValueError):
        rotate_rows(np.zeros((1, 6)), rotation_table(np.ones(1), freqs))
    with pytest.raises(ValueError):
        rotary_oracle(np.zeros(2), 1.0, freqs)
    with pytest.raises(ValueError):
        pair_score(np.zeros(4), np.zeros(2), 0.0, 0.0, freqs)


def test_non_finite_position_rejected():
    freqs = frequencies(2)
    with pytest.raises(ValueError, match="finite"):
        rotate_rows(np.zeros((2, 2)), rotation_table(np.array([0.0, float("nan")]), freqs))
    with pytest.raises(ValueError, match="finite"):
        rotary_oracle(np.zeros(2), float("nan"), freqs)


@given(st.integers(0, 2**32), st.sampled_from([2, 8, 64, 128]), st.floats(-1000, 1000))
@settings(max_examples=150, deadline=None)
def test_oracle_equivalence(seed, d_head, position):
    freqs = frequencies(d_head)
    v = make_rng(seed).standard_normal(d_head)
    fast = rotate_rows(v[None, :], rotation_table(np.array([position]), freqs))[0]
    ref = rotary_oracle(v, position, freqs)
    assert np.abs(fast - ref).max() < 1e-12


def test_oracle_equivalence_float32():
    rng = make_rng(11)
    freqs = frequencies(16)
    mat = rng.standard_normal((50, 16)).astype(np.float32)
    positions = rng.uniform(-100, 100, 50)
    fast = rotate_rows(mat, rotation_table(positions, freqs))
    assert fast.dtype == np.float32
    for v, pos, row in zip(mat, positions, fast):
        ref = rotary_oracle(v, pos, freqs)
        assert np.abs(row.astype(np.float64) - ref.astype(np.float64)).max() < 1e-5


@given(st.integers(0, 2**32), st.floats(-300, 300))
@settings(max_examples=100, deadline=None)
def test_norm_preservation(seed, position):
    freqs = frequencies(8)
    mat = make_rng(seed).standard_normal((2, 8))
    out = rotate_rows(mat, rotation_table(np.array([position, -position]), freqs))
    assert np.abs(np.linalg.norm(out, axis=1) - np.linalg.norm(mat, axis=1)).max() < 1e-12


@given(st.integers(0, 2**32), st.floats(-100, 100), st.floats(-100, 100))
@settings(max_examples=100, deadline=None)
def test_rotation_composition(seed, a, b):
    freqs = frequencies(8)
    mat = make_rng(seed).standard_normal((2, 8))
    twice = rotate_rows(rotate_rows(mat, rotation_table(np.array([a, b]), freqs)), rotation_table(np.array([b, a]), freqs))
    once = rotate_rows(mat, rotation_table(np.full(2, a + b), freqs))
    assert np.abs(twice - once).max() < 1e-12


def test_pair_score_equal_positions_is_plain_dot():
    rng = make_rng(5)
    freqs = frequencies(8)
    q, k = rng.standard_normal(8), rng.standard_normal(8)
    assert abs(pair_score(q, k, 3.25, 3.25, freqs) - float(np.dot(q, k))) < 1e-12


@given(st.integers(0, 2**32), st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50))
@settings(max_examples=100, deadline=None)
def test_pair_score_depends_on_relative_position(seed, pq, pk, shift):
    rng = make_rng(seed)
    freqs = frequencies(8)
    q, k = rng.standard_normal(8), rng.standard_normal(8)
    a = pair_score(q, k, pq, pk, freqs)
    b = pair_score(q, k, pq + shift, pk + shift, freqs)
    assert abs(a - b) < 1e-9


def test_pair_score_single_pair_cosine():
    freqs = frequencies(2)
    v = np.array([1.0, 0.0])
    assert abs(pair_score(v, v, 1.0, 0.0, freqs) - math.cos(1.0)) < 1e-15


def test_rotate_rows_matches_rotary_oracle():
    rng = make_rng(9)
    for d_head in (2, 8, 64, 128):
        freqs = frequencies(d_head)
        mat = rng.standard_normal((7, d_head))
        positions = rng.uniform(-1000, 1000, 7)
        for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-5)):
            rows = rotate_rows(mat.astype(dtype), rotation_table(positions, freqs))
            assert rows.dtype == dtype
            for vec, pos, row in zip(mat.astype(dtype), positions, rows):
                ref = rotary_oracle(vec, pos, freqs).astype(np.float64)
                assert np.abs(row.astype(np.float64) - ref).max() < tol


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_rotation_table_rejects_non_finite_positions(bad):
    freqs = frequencies(4)
    with pytest.raises(ValueError, match="finite"):
        rotation_table(np.array([0.0, bad, 1.0]), freqs)
    with pytest.raises(ValueError, match="1-D"):
        rotation_table(np.zeros((2, 2)), freqs)


def test_rotation_table_holds_cos_and_sin_of_each_angle():
    freqs = frequencies(4)
    table = rotation_table(np.array([0.0, 2.5]), freqs)
    assert table.cos.shape == table.sin.shape == (2, 2) and table.d_head == 4
    assert np.array_equal(table.cos[1], np.cos(2.5 * freqs.thetas))
    assert np.array_equal(table.sin[1], np.sin(2.5 * freqs.thetas))
    assert np.array_equal(table.inverse().sin, -table.sin)


def test_rotate_rows_validates_shapes():
    freqs = frequencies(4)
    with pytest.raises(ValueError):
        rotate_rows(np.zeros((3, 6)), rotation_table(np.zeros(3), freqs))
    with pytest.raises(ValueError):
        rotate_rows(np.zeros((3, 4)), rotation_table(np.zeros(4), freqs))


def test_one_table_turns_a_stack_of_heads():
    # A table of L rows turns rows r, r + L, r + 2L, ... of a (k * L)-row
    # matrix: bitwise the k separate calls.
    freqs = frequencies(8)
    table = rotation_table(make_rng(11).uniform(-50, 50, 5), freqs)
    for dtype in (np.float64, np.float32):
        stack = make_rng(12).standard_normal((3, 5, 8)).astype(dtype)
        whole = rotate_rows(stack.reshape(15, 8), table)
        assert whole.dtype == dtype
        assert np.array_equal(whole.reshape(3, 5, 8), np.stack([rotate_rows(head, table) for head in stack]))
    with pytest.raises(ValueError, match="^mat has 14 rows, not a whole multiple of the rotation table's 5"):
        rotate_rows(np.zeros((14, 8)), table)
