import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameattn.layout import build_layout
from frameattn.model import ModelConfig, TinyModel
from frameattn.numerics import NonFiniteError, make_rng, masked_row_softmax, softmax_backward
from frameattn.tasks import Task, gen_task


@given(st.integers(0, 2**63 - 1))
@settings(max_examples=25, deadline=None)
def test_rng_same_seed_same_stream(seed):
    a = make_rng(seed).standard_normal(16)
    b = make_rng(seed).standard_normal(16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, make_rng(seed, 1).standard_normal(16))


@pytest.mark.parametrize("bad", [1.5, 2.0, "3"])
@pytest.mark.parametrize(
    "build",
    [
        lambda seed: make_rng(seed),
        lambda seed: make_rng(0, seed),
        lambda seed: make_rng(0, 1, seed),
        lambda seed: TinyModel(ModelConfig(layers=1, num_heads=1, d_head=4, vocab_size=7, num_classes=2), seed=seed),
        lambda seed: gen_task(Task.FRAME_ORDER, build_layout(1, 2, 2, 3), seed, 2, 4),
    ],
    ids=["make_rng_seed", "make_rng_stream", "make_rng_second_stream", "TinyModel", "gen_task"],
)
def test_non_integer_seeds_and_stream_ids_are_refused(build, bad):
    # A float or numeric string is neither truncated (1.5 -> 1) nor parsed ("3" -> 3).
    with pytest.raises(ValueError, match="(seed|stream id) must be an integer"):
        build(bad)


def test_softmax_uniform_row():
    scores = np.array([[2.0, 2.0, 2.0]])
    out = masked_row_softmax(scores, np.zeros((1, 3)))
    assert np.allclose(out, 1.0 / 3.0, atol=1e-15)


def test_softmax_single_allowed_entry():
    scores = np.zeros((1, 2))
    mask = np.array([[0.0, -np.inf]])
    assert np.array_equal(masked_row_softmax(scores, mask), np.array([[1.0, 0.0]]))


def test_softmax_log2_row():
    scores = np.array([[np.log(2.0), 0.0]])
    out = masked_row_softmax(scores, np.zeros((1, 2)))
    assert np.abs(out - np.array([[2.0 / 3.0, 1.0 / 3.0]])).max() < 1e-15


def test_softmax_fully_masked_row_is_zero():
    scores = np.array([[5.0, -2.0]])
    mask = np.full((1, 2), -np.inf)
    out = masked_row_softmax(scores, mask)
    assert np.array_equal(out, np.zeros((1, 2)))
    assert masked_row_softmax(scores, mask, out=scores) is scores
    assert np.array_equal(scores, out)


def test_softmax_shape_mismatch():
    with pytest.raises(ValueError):
        masked_row_softmax(np.zeros((2, 2)), np.zeros((2, 3)))
    # A stack of scores shares one (T, T) mask.
    with pytest.raises(ValueError):
        masked_row_softmax(np.zeros((3, 2, 2)), np.zeros((3, 2, 2)))
    with pytest.raises(ValueError):
        masked_row_softmax(np.zeros((3, 2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        masked_row_softmax(np.zeros(2), np.zeros(2))


def test_softmax_backward_refuses_mismatched_shapes():
    with pytest.raises(ValueError) as err:
        softmax_backward(np.zeros((2, 3)), np.zeros((3, 2)))
    assert str(err.value) == "shape mismatch: (2, 3) vs (3, 2)"


def test_softmax_rejects_bad_mask_values():
    with pytest.raises(ValueError):
        masked_row_softmax(np.zeros((1, 2)), np.array([[0.0, -1.0]]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="mask"):
            masked_row_softmax(np.zeros((1, 2)), np.array([[0.0, bad]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_softmax_rejects_non_finite_scores(bad):
    scores = np.zeros((2, 2, 2))
    scores[1, 0, 1] = bad
    with pytest.raises(NonFiniteError):
        masked_row_softmax(scores, np.zeros((2, 2)))


@given(st.integers(0, 2**32), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_softmax_stack_equals_slices(seed, t):
    # A (..., T, T) stack under one mask gives each slice exactly its own result.
    rng = make_rng(seed)
    scores = rng.standard_normal((2, 3, t, t)) * 5
    mask = np.where(rng.random((t, t)) < 0.4, -np.inf, 0.0)
    g = rng.standard_normal(scores.shape)
    w = masked_row_softmax(scores, mask)
    grad = softmax_backward(w, g)
    assert w.shape == grad.shape == scores.shape
    # In place (out=scores) is bitwise the default copy, fully masked rows included.
    inplace = scores.copy()
    assert masked_row_softmax(inplace, mask, out=inplace) is inplace
    assert np.array_equal(inplace, w)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(w[idx], masked_row_softmax(scores[idx], mask))
        assert np.array_equal(grad[idx], softmax_backward(w[idx], g[idx]))


@given(st.integers(0, 2**32), st.integers(1, 8), st.integers(1, 8))
@settings(max_examples=80, deadline=None)
def test_softmax_row_stochastic_and_masked_zero(seed, rows, cols):
    rng = make_rng(seed)
    scores = rng.standard_normal((rows, cols)) * 5
    mask = np.where(rng.random((rows, cols)) < 0.4, -np.inf, 0.0)
    out = masked_row_softmax(scores, mask)
    assert np.all(out[np.isneginf(mask)] == 0.0)
    sums = out.sum(axis=1)
    open_rows = np.isfinite(mask).any(axis=1)
    assert np.all(np.abs(sums[open_rows] - 1.0) <= 1e-12)
    assert np.all(sums[~open_rows] == 0.0)


@given(st.integers(0, 2**32), st.floats(-30, 30))
@settings(max_examples=60, deadline=None)
def test_softmax_shift_invariance(seed, c):
    rng = make_rng(seed)
    scores = rng.standard_normal((3, 5))
    mask = np.where(rng.random((3, 5)) < 0.3, -np.inf, 0.0)
    base = masked_row_softmax(scores, mask)
    shifted = masked_row_softmax(scores + c, mask)
    assert np.abs(base - shifted).max() <= 1e-12


@given(st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_softmax_backward_matches_finite_differences(seed):
    rng = make_rng(seed)
    scores = rng.standard_normal((3, 4))
    mask = np.where(rng.random((3, 4)) < 0.3, -np.inf, 0.0)
    g = rng.standard_normal((3, 4))
    w = masked_row_softmax(scores, mask)
    analytic = softmax_backward(w, g)
    h = 1e-6
    numeric = np.zeros_like(scores)
    for i in range(3):
        for j in range(4):
            up, down = scores.copy(), scores.copy()
            up[i, j] += h
            down[i, j] -= h
            f_up = float(np.sum(masked_row_softmax(up, mask) * g))
            f_down = float(np.sum(masked_row_softmax(down, mask) * g))
            numeric[i, j] = (f_up - f_down) / (2 * h)
    assert np.abs(analytic - numeric).max() < 1e-6


def test_softmax_trailing_mask_counts_the_leading_columns_as_allowed():
    rng = make_rng(12)
    scores = rng.standard_normal((2, 4, 7))
    mask = np.where(rng.random((4, 3)) < 0.5, -np.inf, 0.0)
    full = np.concatenate((np.zeros((4, 4)), mask), axis=1)
    assert np.array_equal(masked_row_softmax(scores, mask), masked_row_softmax(scores, full))
    # A zero-width mask leaves every column allowed.
    assert np.array_equal(masked_row_softmax(scores, np.zeros((4, 0))), masked_row_softmax(scores, np.zeros((4, 7))))
    assert np.array_equal(scores, make_rng(12).standard_normal((2, 4, 7)))  # the input is not written
    # out= another array leaves the scores alone; out=scores overwrites them; both equal the copy.
    expected = masked_row_softmax(scores, mask)
    other = np.full(scores.shape, 7.0)
    assert masked_row_softmax(scores, mask, out=other) is other
    assert np.array_equal(other, expected) and np.array_equal(scores, make_rng(12).standard_normal((2, 4, 7)))
    assert masked_row_softmax(scores, mask, out=scores) is scores
    assert np.array_equal(scores, expected)


def test_softmax_rejects_bad_trailing_masks():
    scores = np.zeros((2, 3, 4))
    with pytest.raises(ValueError, match="shape mismatch"):
        masked_row_softmax(scores, np.zeros((3, 5)))  # wider than the scores
    with pytest.raises(ValueError, match="shape mismatch"):
        masked_row_softmax(scores, np.zeros((2, 2)))  # wrong row count
    for bad in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="exactly 0 or -inf"):
            masked_row_softmax(scores, np.array([[0.0, bad]] * 3))


SOFTMAX_REFUSALS = {
    "complex-scores": (np.array([[1 + 1j, 0]]), np.zeros((1, 2)), ValueError, "^scores must hold"),
    "bool-mask": (np.zeros((1, 2)), np.array([[True, False]]), ValueError, "^mask must hold"),
    "mask-value": (np.zeros((1, 2)), np.array([[0.0, -1.0]]), ValueError, "exactly 0 or -inf"),
    "mask-nan": (np.zeros((1, 2)), np.array([[np.nan, 0.0]]), ValueError, "exactly 0 or -inf"),
    "shape": (np.zeros((1, 2)), np.zeros((1, 3)), ValueError, "shape mismatch"),
    "nan-scores": (np.array([[np.nan, 0.0]]), np.zeros((1, 2)), NonFiniteError, "NaN or inf"),
    "inf-scores": (np.array([[0.0, np.inf]]), np.zeros((1, 1)), NonFiniteError, "NaN or inf"),
}


@pytest.mark.parametrize("case", SOFTMAX_REFUSALS)
def test_softmax_refusals_fire_before_out_is_written(case):
    scores, mask, error, match = SOFTMAX_REFUSALS[case]
    out = np.full(scores.shape, 7.0)
    with pytest.raises(error, match=match):
        masked_row_softmax(scores, mask, out=out)
    assert np.array_equal(out, np.full(scores.shape, 7.0))
    if scores.dtype == np.float64:  # in place, the scores are the out and stay as they were
        before = scores.copy()
        with pytest.raises(error, match=match):
            masked_row_softmax(scores, mask, out=scores)
        assert np.array_equal(scores, before, equal_nan=True)


def test_softmax_refuses_an_out_of_another_shape_or_dtype():
    scores, mask = np.zeros((2, 3, 4)), np.zeros((3, 2))
    for bad in (np.zeros((2, 3, 5)), np.zeros((3, 4)), np.zeros((2, 3, 4), dtype=np.float32),
                np.zeros((2, 3, 4), dtype=np.int64), np.zeros((2, 3, 4)).tolist()):
        with pytest.raises(ValueError, match=r"^out must be a float64 array of shape \(2, 3, 4\)$"):
            masked_row_softmax(scores, mask, out=bad)
    assert np.array_equal(scores, np.zeros((2, 3, 4)))


@pytest.mark.parametrize("bad", [np.array([[1 + 1j, 0]]), np.array([[True, False]]), np.array([["1", "0"]])])
def test_softmax_refuses_complex_bool_and_text(bad):
    ok = np.zeros((1, 2))
    for call, match in (
        (lambda: masked_row_softmax(bad, ok), "scores"),
        (lambda: masked_row_softmax(ok, bad), "mask"),
        (lambda: softmax_backward(bad, ok), "weights"),
        (lambda: softmax_backward(ok, bad), "grad_weights"),
    ):
        with pytest.raises(ValueError, match=f"^{match} must hold integer or real floating numbers"):
            call()
    # Integer inputs still convert.
    assert np.array_equal(masked_row_softmax(np.array([[1, 0]]), ok), masked_row_softmax(np.array([[1.0, 0.0]]), ok))


def test_softmax_functions_compute_and_return_float64():
    # The scratch buffers are float64 whatever the input dtypes: an integer
    # buffer would truncate the gradient.
    w, g = np.array([[0.25, 0.75]]), np.array([[2.0, 3.0]])
    expected = softmax_backward(w, g)
    assert softmax_backward(np.array([[1, 0]]), np.array([[2, 3]])).dtype == np.float64
    got = softmax_backward(w.astype(np.float32), g.astype(np.int32))
    assert got.dtype == np.float64 and np.array_equal(got, expected)
    mask = np.zeros((1, 2))
    assert np.array_equal(softmax_backward(masked_row_softmax(np.array([[1, 0]]), mask), np.array([[2, 3]])),
                          softmax_backward(masked_row_softmax(np.array([[1.0, 0.0]]), mask), g))
    assert masked_row_softmax(np.array([[1, 0]], dtype=np.float32), mask.astype(np.float32)).dtype == np.float64
