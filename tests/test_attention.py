import math

import numpy as np
import pytest

from frameattn.attention import (
    AttentionConfig,
    PeMode,
    attention_backward,
    attention_brute_oracle,
    attention_forward,
    plan_attention,
)
from frameattn.gradcheck import attention_fd_error, relative_error
from frameattn.layout import build_layout
from frameattn.masks import MaskKind
from frameattn.numerics import NonFiniteError, make_rng, masked_row_softmax
from frameattn.rope import RopeConfig, rotate_rows, rotation_table
from frameattn.selftest import random_layout


def config(d_head=4, gamma=1.0, mask=MaskKind.CAUSAL, pe=PeMode.DUAL_ROPE, **kw):
    return AttentionConfig(
        rope=RopeConfig(d_head=d_head, gamma=gamma),
        mask_kind=mask,
        pe_mode=pe,
        **kw,
    )


def random_qkv(rng, heads, t, d_head):
    shape = (heads, t, d_head)
    return rng.standard_normal(shape), rng.standard_normal(shape), rng.standard_normal(shape)


# Layouts past one query tile (_TILE_ROWS = 64 rows). In TILED, frame 4
# (rows 54..66) straddles the tile boundary, so tile 0 reaches past its rows.
TILED = build_layout(2, 5, 13, 3)  # T=70
TILE_INVARIANCE = build_layout(4, 6, 14, 4)  # T=92


def test_config_validation():
    with pytest.raises(ValueError, match="d_head"):
        config(d_head=4.0)
    assert config(d_head=16).scale == 0.25


def test_single_token_passes_value_through():
    lay = build_layout(1, 0, 0, 0)
    q, k, v = random_qkv(make_rng(0), 2, 1, 4)
    res = attention_forward(q, k, v, lay, config())
    assert np.array_equal(res.output, v)
    assert np.array_equal(res.weights, np.ones((2, 1, 1)))


def test_zero_query_causal_gives_running_mean():
    lay = build_layout(5, 0, 0, 0)
    rng = make_rng(1)
    cfg = config(gamma=0.0, pe=PeMode.ROPE_ONLY)
    k = rng.standard_normal((2, 5, 4))
    v = rng.standard_normal((2, 5, 4))
    res = attention_forward(np.zeros((2, 5, 4)), k, v, lay, cfg)
    for h in range(2):
        for i in range(5):
            assert np.abs(res.weights[h, i, : i + 1] - 1.0 / (i + 1)).max() < 1e-12
            assert np.abs(res.output[h, i] - v[h, : i + 1].mean(axis=0)).max() < 1e-12


def test_mask_difference_localised_to_opened_rows():
    # Single frame of 4 inside text: FwBC only opens intra-frame upper cells.
    lay = build_layout(1, 1, 4, 1)
    q, k, v = random_qkv(make_rng(2), 2, 6, 4)
    causal = attention_forward(q, k, v, lay, config(mask=MaskKind.CAUSAL))
    fwbc = attention_forward(q, k, v, lay, config(mask=MaskKind.FW_BLOCK_CAUSAL))
    opened_rows = {1, 2, 3}  # visual rows that gain at least one same-frame upper cell
    for h in range(2):
        for i in range(6):
            same = np.array_equal(causal.weights[h, i], fwbc.weights[h, i])
            assert same == (i not in opened_rows)


def test_dual_rope_gamma_zero_equals_rope_only():
    lay = build_layout(2, 2, 3, 2)
    q, k, v = random_qkv(make_rng(3), 2, lay.total_len, 4)
    dual = attention_forward(q, k, v, lay, config(gamma=0.0, pe=PeMode.DUAL_ROPE))
    rope = attention_forward(q, k, v, lay, config(gamma=0.0, pe=PeMode.ROPE_ONLY))
    assert np.abs(dual.output - rope.output).max() <= 1e-12
    assert np.array_equal(dual.output, rope.output)


def test_zero_frames_mask_kinds_agree():
    lay = build_layout(3, 0, 0, 3)
    q, k, v = random_qkv(make_rng(4), 1, 6, 4)
    outs = [attention_forward(q, k, v, lay, config(mask=mk)).output for mk in MaskKind]
    for other in outs[1:]:
        assert np.array_equal(outs[0], other)


def test_single_frame_fwbc_equals_full_visual():
    lay = build_layout(2, 1, 3, 1)
    q, k, v = random_qkv(make_rng(5), 2, lay.total_len, 4)
    a = attention_forward(q, k, v, lay, config(mask=MaskKind.FW_BLOCK_CAUSAL)).output
    b = attention_forward(q, k, v, lay, config(mask=MaskKind.FULL_VISUAL)).output
    assert np.array_equal(a, b)


def test_weights_row_stochastic_and_masked_zero():
    rng = make_rng(6)
    for _ in range(10):
        lay = random_layout(rng, 16, 3, 3, 3, 3)
        t = lay.total_len
        cfg = config(mask=MaskKind.FW_BLOCK_CAUSAL, gamma=float(rng.uniform(0, 2)))
        q, k, v = random_qkv(rng, 2, t, 4)
        res = attention_forward(q, k, v, lay, cfg)
        masked = np.isneginf(res.plan.mask.values)
        for h in range(2):
            assert np.all(res.weights[h][masked] == 0.0)
            assert np.abs(res.weights[h].sum(axis=1) - 1.0).max() <= 1e-12


def assert_stack_equals_head_slices(q, k, v, lay, cfg, bias, grad):
    # The stacked kernel must give each head exactly what that head alone gives.
    plan = plan_attention(lay, cfg, bias)
    res = attention_forward(q, k, v, lay, cfg, plan=plan)
    grads = attention_backward(res, grad)
    for h in range(len(q)):
        one = slice(h, h + 1)
        alone = attention_forward(q[one], k[one], v[one], lay, cfg, plan=plan)
        alone_grads = attention_backward(alone, grad[one])
        assert np.array_equal(res.output[one], alone.output)
        assert np.array_equal(res.weights[one], alone.weights)
        for name in ("grad_q", "grad_k", "grad_v"):
            assert np.array_equal(getattr(grads, name)[one], getattr(alone_grads, name))


def brute_force_case(rng, pe, mask, lay=None):
    if lay is None:
        lay = random_layout(rng, 16, 3, 3, 3, 3)
    t = lay.total_len
    cfg = config(pe=pe, mask=mask, gamma=float(rng.uniform(0, 2)))
    q, k, v = random_qkv(rng, 2, t, 4)
    bias = 0.3 * rng.standard_normal(5) if pe is PeMode.TIME_RPE else None
    fast = attention_forward(q, k, v, lay, cfg, plan=plan_attention(lay, cfg, bias)).output
    slow = attention_brute_oracle(q, k, v, lay, cfg, rpe_bias=bias)
    grad = make_rng(t, 1).standard_normal(q.shape)  # own stream: `rng` draws the next case
    assert_stack_equals_head_slices(q, k, v, lay, cfg, bias, grad)
    return np.abs(fast - slow).max()


@pytest.mark.parametrize("pe", list(PeMode))
def test_brute_oracle_agreement(pe):
    rng = make_rng(hash(pe.value) % 2**32)
    for i in range(6):
        err = brute_force_case(rng, pe, list(MaskKind)[i % 4])
        assert err < 1e-10
    # Past one query tile; the five modes between them cover every mask kind.
    assert brute_force_case(rng, pe, list(MaskKind)[list(PeMode).index(pe) % 4], TILED) < 1e-10


def test_brute_oracle_never_calls_rotate_rows(monkeypatch):
    # The oracle rotates through rotary_oracle only, so it still agrees with
    # outputs computed before the fast rotation kernel was made to raise.
    rng = make_rng(23)
    cases = []
    for i, pe in enumerate(PeMode):
        lay = random_layout(rng, 16, 3, 3, 3, 3)
        cfg = config(pe=pe, mask=list(MaskKind)[i % 4], gamma=float(rng.uniform(0, 2)))
        q, k, v = random_qkv(rng, 2, lay.total_len, 4)
        bias = 0.3 * rng.standard_normal(5) if pe is PeMode.TIME_RPE else None
        fast = attention_forward(q, k, v, lay, cfg, plan=plan_attention(lay, cfg, bias)).output
        cases.append((q, k, v, lay, cfg, bias, fast))

    def fail(*args, **kwargs):
        raise AssertionError("rotate_rows called")

    monkeypatch.setattr("frameattn.rope.rotate_rows", fail)
    monkeypatch.setattr("frameattn.attention.rotate_rows", fail)
    with pytest.raises(AssertionError, match="rotate_rows called"):
        attention_forward(q, k, v, lay, cfg, plan=plan_attention(lay, cfg, bias))
    for q, k, v, lay, cfg, bias, fast in cases:
        assert np.abs(attention_brute_oracle(q, k, v, lay, cfg, rpe_bias=bias) - fast).max() < 1e-10


@pytest.mark.parametrize("mask", list(MaskKind))
def test_last_query_rows_match_brute_oracle(mask):
    # Q may hold only the last R query rows over full-length K and V; its
    # output and weights are those rows of the full computation. At T=70 the
    # rows span two tiles: R=5 skips tile 0, R=70 is every row.
    rng = make_rng(40 + list(MaskKind).index(mask))
    for lay, heads, rows in ((build_layout(2, 3, 3, 2), 2, (1, 2, 5, 13)), (TILED, 1, (1, 2, 5, 70))):
        t = lay.total_len
        for pe in PeMode:
            cfg = config(pe=pe, mask=mask, gamma=float(rng.uniform(0, 2)))
            q, k, v = random_qkv(rng, heads, t, 4)
            bias = 0.3 * rng.standard_normal(5) if pe is PeMode.TIME_RPE else None
            plan = plan_attention(lay, cfg, bias)
            slow = attention_brute_oracle(q, k, v, lay, cfg, rpe_bias=bias)
            full = attention_forward(q, k, v, lay, cfg, plan=plan)
            for r in rows:
                res = attention_forward(q[:, t - r :], k, v, lay, cfg, plan=plan)
                assert res.output.shape == (heads, r, 4) and res.weights.shape == (heads, r, t)
                assert np.abs(res.output - slow[:, t - r :]).max() < 1e-10
                assert np.abs(res.weights - full.weights[:, t - r :]).max() < 1e-12
                grads = attention_backward(res, np.ones(res.output.shape))
                assert grads.grad_q.shape == (heads, r, 4)
                assert grads.grad_k.shape == grads.grad_v.shape == (heads, t, 4)


def test_textbook_causal_reference():
    # Independent straight-line implementation of rotary causal attention.
    lay = build_layout(7, 0, 0, 0)
    t = lay.total_len
    d = 4
    rng = make_rng(8)
    q, k, v = random_qkv(rng, 1, t, d)
    cfg = config(d_head=d, gamma=0.0, pe=PeMode.ROPE_ONLY)

    thetas = 10000.0 ** (-np.arange(d // 2) / (d // 2))
    angles = np.arange(t)[:, None] * thetas[None, :]
    rot = np.exp(1j * angles)

    def rotate(mat):
        z = (mat[:, 0::2] + 1j * mat[:, 1::2]) * rot
        out = np.empty_like(mat)
        out[:, 0::2] = z.real
        out[:, 1::2] = z.imag
        return out

    qr, kr = rotate(q[0]), rotate(k[0])
    scores = qr @ kr.T / math.sqrt(d)
    scores[np.triu_indices(t, k=1)] = -np.inf
    w = np.exp(scores - scores.max(axis=1, keepdims=True))
    w[np.triu_indices(t, k=1)] = 0.0
    w /= w.sum(axis=1, keepdims=True)
    expected = w @ v[0]

    got = attention_forward(q, k, v, lay, cfg).output[0]
    assert np.abs(got - expected).max() < 1e-12


def test_joint_shift_invariance_of_output():
    rng = make_rng(9)
    lay = build_layout(1, 2, 2, 2)
    t = lay.total_len
    cfg = config(gamma=0.7, pe=PeMode.DUAL_ROPE, mask=MaskKind.FW_BLOCK_CAUSAL)
    q, k, v = random_qkv(rng, 2, t, 4)
    base = attention_forward(q, k, v, lay, cfg)
    pos = plan_attention(lay, cfg).positions
    for _ in range(10):
        s = float(rng.uniform(-100, 100))
        c = float(rng.uniform(-10, 10))
        plan = plan_attention(lay, cfg, positions=pos + (s + cfg.rope.gamma * c))
        shifted = attention_forward(q, k, v, lay, cfg, plan=plan)
        assert np.abs(shifted.output - base.output).max() < 1e-9


def test_intra_frame_permutation_equivariance():
    # With time_rope_only all tokens of a frame share one rotation position,
    # so jointly permuting that frame's Q/K/V rows permutes exactly that
    # frame's output rows under the frame-block-causal mask.
    rng = make_rng(10)
    lay = build_layout(1, 2, 3, 1)
    t = lay.total_len
    cfg = config(pe=PeMode.TIME_ROPE_ONLY, mask=MaskKind.FW_BLOCK_CAUSAL, gamma=1.5)
    q, k, v = random_qkv(rng, 2, t, 4)
    base = attention_forward(q, k, v, lay, cfg).output

    frame = lay.frame_slice(1)
    perm = np.arange(t)
    perm[frame] = np.array([5, 6, 4])  # cycle the three rows of frame 1
    out = attention_forward(q[:, perm], k[:, perm], v[:, perm], lay, cfg).output
    assert np.abs(out - base[:, perm]).max() < 1e-12


def test_time_rpe_without_bias_matches_rope_only():
    lay = build_layout(1, 2, 2, 1)
    q, k, v = random_qkv(make_rng(11), 2, lay.total_len, 4)
    a = attention_forward(q, k, v, lay, config(pe=PeMode.TIME_RPE)).output
    b = attention_forward(q, k, v, lay, config(pe=PeMode.ROPE_ONLY)).output
    assert np.array_equal(a, b)


def test_time_rpe_bias_shifts_scores():
    lay = build_layout(1, 2, 2, 1)
    q, k, v = random_qkv(make_rng(12), 1, lay.total_len, 4)
    bias = np.linspace(-0.5, 0.5, 5)
    cfg = config(pe=PeMode.TIME_RPE)
    with_bias = attention_forward(q, k, v, lay, cfg, plan=plan_attention(lay, cfg, bias)).output
    without = attention_forward(q, k, v, lay, cfg).output
    assert not np.array_equal(with_bias, without)


def test_time_ape_changes_output_when_frames_present():
    lay = build_layout(1, 2, 2, 1)
    q, k, v = random_qkv(make_rng(13), 2, lay.total_len, 4)
    ape = attention_forward(q, k, v, lay, config(pe=PeMode.TIME_APE)).output
    rope = attention_forward(q, k, v, lay, config(pe=PeMode.ROPE_ONLY)).output
    assert not np.array_equal(ape, rope)


def test_empty_visual_span_time_modes_are_permitted():
    lay = build_layout(3, 0, 0, 2)
    q, k, v = random_qkv(make_rng(14), 1, 5, 4)
    for pe in PeMode:
        out = attention_forward(q, k, v, lay, config(pe=pe)).output
        assert np.all(np.isfinite(out))


def test_forward_shape_validation():
    lay = build_layout(2, 0, 0, 0)
    cfg = config()
    good = np.zeros((2, 2, 4))
    with pytest.raises(ValueError):
        attention_forward(np.zeros((1, 2, 4)), good, good, lay, cfg)
    with pytest.raises(ValueError):
        attention_forward(good, np.zeros((2, 3, 4)), good, lay, cfg)
    with pytest.raises(ValueError, match="Q must have shape"):
        attention_forward(np.zeros((2, 2, 6)), np.zeros((2, 2, 6)), np.zeros((2, 2, 6)), lay, cfg)
    # Q may hold the last 1..T query rows, with K's head count and width.
    for q_rows, k_width in ((0, 4), (3, 4), (1, 6)):
        with pytest.raises(ValueError):
            attention_forward(np.zeros((2, q_rows, 4)), np.zeros((2, 2, k_width)), np.zeros((2, 2, k_width)), lay, cfg)
    with pytest.raises(ValueError, match="V has shape"):
        attention_forward(good, good, np.zeros((1, 2, 4)), lay, cfg)
    bad = good.copy()
    bad[1, 0, 2] = np.nan
    with pytest.raises(NonFiniteError, match="K"):
        attention_forward(good, bad, good, lay, cfg)


@pytest.mark.parametrize("dtype", [np.complex128, np.bool_, np.str_, object])
def test_forward_rejects_tensors_that_are_not_real_numbers(dtype):
    # Complex would drop its imaginary part and bool or text would become
    # numbers; each is refused by dtype, before any conversion.
    lay = build_layout(2, 0, 0, 0)
    good = np.ones((2, 2, 4))
    for i, name in enumerate("QKV"):
        tensors = [good, good, good]
        tensors[i] = good.astype(dtype)
        with pytest.raises(ValueError, match=f"{name} must hold integer or real floating numbers"):
            attention_forward(*tensors, lay, config())
        with pytest.raises(ValueError, match=f"{name} must hold"):
            attention_brute_oracle(*tensors, lay, config())
    ints = attention_forward(good.astype(np.int32), good, good, lay, config())
    assert np.array_equal(ints.output, attention_forward(good, good, good, lay, config()).output)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"positions": np.zeros(3)}, "positions must have shape"),
        ({"positions": np.array([0.0, np.nan])}, "positions must be finite"),
        ({"positions": np.array([np.inf, 1.0])}, "positions must be finite"),
        ({"positions": np.array([True, False])}, "positions must hold integer or real floating numbers"),
        ({"rpe_bias": np.zeros(3)}, "only meaningful"),
        ({"rpe_bias": np.zeros(2), "pe": PeMode.TIME_RPE}, "odd-length"),
        ({"rpe_bias": [np.nan, 0.0, 0.0], "pe": PeMode.TIME_RPE}, "rpe_bias must be finite"),
        ({"rpe_bias": [np.inf, 0.0, 0.0], "pe": PeMode.TIME_RPE}, "rpe_bias must be finite"),
        ({"rpe_bias": [True, False, True], "pe": PeMode.TIME_RPE}, "rpe_bias must hold integer or real floating numbers"),
    ],
)
def test_plan_rejects_bad_bias_and_positions(kwargs, match):
    # A bad override is a caller's error at plan time, never a NonFiniteError
    # (which a trial reads as divergence) from a later forward.
    kwargs = dict(kwargs)
    cfg = config(pe=kwargs.pop("pe", PeMode.DUAL_ROPE))
    with pytest.raises(ValueError, match=match) as info:
        plan_attention(build_layout(2, 0, 0, 0), cfg, **kwargs)
    assert not isinstance(info.value, NonFiniteError)


def test_plan_arrays_are_read_only():
    bias = np.linspace(-0.2, 0.2, 5)
    positions = np.arange(7, dtype=np.float64)
    plan = plan_attention(build_layout(1, 2, 2, 2), config(pe=PeMode.TIME_RPE), bias, positions)
    for arr in (plan.positions, plan.temporal, plan.freqs.thetas, plan.rotation.cos, plan.rotation.sin,
                plan.mask.values, plan.bias):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    # The caller's arrays are copied, not frozen.
    positions[0] = 1.0
    assert plan.positions[0] == 0.0
    ape = plan_attention(build_layout(1, 2, 2, 2), config(pe=PeMode.TIME_APE)).ape
    with pytest.raises(ValueError, match="read-only"):
        ape[0] = 1.0


def test_backward_zero_gradient():
    lay = build_layout(1, 1, 2, 1)
    q, k, v = random_qkv(make_rng(15), 2, lay.total_len, 4)
    res = attention_forward(q, k, v, lay, config())
    grads = attention_backward(res, np.zeros_like(res.output))
    assert np.array_equal(grads.grad_q, np.zeros_like(q))
    assert np.array_equal(grads.grad_k, np.zeros_like(k))
    assert np.array_equal(grads.grad_v, np.zeros_like(v))


def test_backward_single_token():
    lay = build_layout(1, 0, 0, 0)
    q, k, v = random_qkv(make_rng(16), 2, 1, 4)
    res = attention_forward(q, k, v, lay, config())
    g = make_rng(17).standard_normal((2, 1, 4))
    grads = attention_backward(res, g)
    assert np.array_equal(grads.grad_v, g)
    assert np.abs(grads.grad_q).max() == 0.0
    assert np.abs(grads.grad_k).max() == 0.0


def test_backward_shape_validation():
    lay = build_layout(2, 0, 0, 0)
    q, k, v = random_qkv(make_rng(18), 2, 2, 4)
    res = attention_forward(q, k, v, lay, config())
    with pytest.raises(ValueError):
        attention_backward(res, np.zeros((2, 3, 4)))


@pytest.mark.parametrize("pe", list(PeMode))
def test_gradients_match_finite_differences(pe):
    # One mask per mode here; the acceptance suite covers the full cross.
    mask = list(MaskKind)[list(PeMode).index(pe) % 4]
    err = attention_fd_error(pe, mask, seed=900 + list(PeMode).index(pe))
    assert err < 1e-4


def forward_backward(lay, cfg, bias, seed):
    rng = make_rng(seed)
    q, k, v = random_qkv(rng, 2, lay.total_len, 4)
    res = attention_forward(q, k, v, lay, cfg, plan=plan_attention(lay, cfg, bias))
    grads = attention_backward(res, rng.standard_normal(q.shape))
    return res, (res.output, res.weights, grads.grad_q, grads.grad_k, grads.grad_v)


@pytest.mark.parametrize("mask", list(MaskKind))
def test_tile_size_does_not_change_results(monkeypatch, mask):
    for pe in PeMode:
        cfg = config(pe=pe, mask=mask, gamma=0.7)
        bias = np.linspace(-0.4, 0.3, 7) if pe is PeMode.TIME_RPE else None
        monkeypatch.setattr("frameattn.attention._TILE_ROWS", 128)
        one, whole = forward_backward(TILE_INVARIANCE, cfg, bias, 20)
        monkeypatch.setattr("frameattn.attention._TILE_ROWS", 4)
        tiled, small = forward_backward(TILE_INVARIANCE, cfg, bias, 20)
        assert len(one.plan.tiles) == 1 and len(tiled.plan.tiles) == 23
        # Some tile must skip key columns, or the comparison proves nothing.
        assert any(end < TILE_INVARIANCE.total_len for _, _, _, end in tiled.plan.tiles)
        # Tiles change the length of each sum, so entries round apart by an ulp of
        # the array's scale; relative to that scale (not entry by entry, where a
        # cancelling 1e-4 entry reads 2e-12) the results must agree.
        for a, b in zip(whole, small):
            assert relative_error(b, a, floor=np.abs(a).max()) < 1e-12


@pytest.mark.parametrize("mask", list(MaskKind))
def test_gradients_match_finite_differences_across_tiles(mask):
    err = attention_fd_error(PeMode.DUAL_ROPE, mask, seed=22, layout=TILED, num_heads=1)
    assert err < 1e-4


@pytest.mark.parametrize("mask", list(MaskKind))
def test_gradients_match_finite_differences_last_rows(mask):
    # Two of the seven rows, and at T=70 nine rows: tile 0 clipped to its last 3 rows, tile 1 whole.
    i = list(MaskKind).index(mask)
    for pe in (list(PeMode)[i], list(PeMode)[(i + 2) % len(PeMode)]):
        assert attention_fd_error(pe, mask, seed=30 + i, query_rows=2) < 1e-4
    assert attention_fd_error(PeMode.DUAL_ROPE, mask, seed=34 + i, layout=TILED, num_heads=1, query_rows=9) < 1e-4


@pytest.mark.parametrize("pe", list(PeMode))
def test_inverse_table_is_the_table_at_negated_positions(pe):
    # The backward pass turns rows back with the plan's table inverted,
    # (cos, -sin); that must be bitwise the rotation at -positions.
    rng = make_rng(40)
    for lay in (TILED, TILE_INVARIANCE, random_layout(rng, 120, 10, 8, 12, 10)):
        for gamma in (0.0, 0.7, 1.0, 3.5):
            plan = plan_attention(lay, config(d_head=16, gamma=gamma, pe=pe))
            negated = rotation_table(-plan.positions, plan.freqs)
            inverse = plan.rotation.inverse()
            assert np.array_equal(inverse.cos, negated.cos) and np.array_equal(inverse.sin, negated.sin)
            mat = rng.standard_normal((lay.total_len, 16))
            assert np.array_equal(rotate_rows(mat, inverse), rotate_rows(mat, negated))
            assert np.abs(rotate_rows(rotate_rows(mat, plan.rotation), inverse) - mat).max() < 1e-12


def tile_mask_cases():
    rng = make_rng(41)
    layouts = [TILED, TILE_INVARIANCE] + [random_layout(rng, 150, 12, 8, 14, 12) for _ in range(8)]
    for lay in layouts:
        for mask in MaskKind:
            yield lay, config(mask=mask)
        yield lay, config(mask=MaskKind.FW_BLOCK_CAUSAL, fw_block_causal_within_frame=True)


@pytest.mark.parametrize("tile_rows", [64, 5])
def test_tile_free_columns_are_open_and_the_trailing_mask_is_exact(monkeypatch, tile_rows):
    monkeypatch.setattr("frameattn.attention._TILE_ROWS", tile_rows)
    rng = make_rng(42)
    narrowed = 0
    for lay, cfg in tile_mask_cases():
        plan = plan_attention(lay, cfg)
        values = plan.mask.values
        assert plan.tiles[-1][1] == lay.total_len
        for lo, hi, free, end in plan.tiles:
            assert 0 <= free <= end <= lay.total_len
            assert np.all(values[lo:hi, :free] == 0.0)
            assert np.all(np.isneginf(values[lo:hi, end:]))
            trailing = values[lo:hi, free:end]
            assert trailing.base is not None  # a view of the plan's mask, not a copy
            scores = rng.standard_normal((3, hi - lo, end))
            full = masked_row_softmax(scores, values[lo:hi, :end])
            assert np.array_equal(masked_row_softmax(scores, trailing), full)
            narrowed += free > 0
    assert narrowed  # some tile must hand the softmax a narrower mask
