import inspect
import itertools
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from frameattn.attention import (
    AttentionConfig,
    AttentionPlan,
    PeMode,
    attention_backward,
    attention_brute_oracle,
    attention_forward,
    plan_attention,
    temporal_id_literal,
    time_ape_embedding,
)
from frameattn.gradcheck import attention_fd_error, relative_error
from frameattn.layout import PositionTable, adjusted_positions, build_layout
from frameattn.masks import MaskKind, build_mask
from frameattn.numerics import NonFiniteError, make_rng, masked_row_softmax
from frameattn.rope import frequencies, rotate_rows, rotation_table
from frameattn.selftest import random_layout


def config(d_head=4, gamma=1.0, mask=MaskKind.CAUSAL, pe=PeMode.DUAL_ROPE, **kw):
    return AttentionConfig(
        d_head=d_head,
        gamma=gamma,
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
# Under fw_block, tile 1 of GATHERED (rows 64..127, frames 2..4) sees the
# prefix and its own frames only: its columns skip frames 0 and 1.
GATHERED = build_layout(2, 5, 26, 2)  # T=134


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
        masked = np.isneginf(build_mask(cfg.mask_kind, lay).values)
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


# The fast path's names the brute-force oracle must not call, by module.
FAST_PATH = {
    "frameattn.rope": ("rotate_rows", "frequencies"),
    "frameattn.layout": ("adjusted_positions", "temporal_ids"),
    "frameattn.attention": ("rotate_rows", "frequencies", "adjusted_positions", "plan_attention", "time_ape_embedding"),
}


def test_brute_oracle_refuses_fewer_than_all_query_rows():
    q, k, v = random_qkv(make_rng(0), 2, 6, 4)
    with pytest.raises(ValueError) as err:
        attention_brute_oracle(q[:, -2:], k, v, build_layout(1, 2, 2, 1), config())
    assert str(err.value) == "the oracle takes all 6 query rows, got Q of shape (2, 2, 4)"


def test_brute_oracle_never_calls_rotate_rows(monkeypatch):
    # The oracle rotates through rotary_oracle only and derives its own
    # temporal ids, positions, thetas and APE rows, so it still agrees with
    # outputs computed before the fast rotation kernel and the fast position
    # rules were made to raise.
    rng = make_rng(23)
    cases = []
    for i, pe in enumerate(PeMode):
        lay = random_layout(rng, 16, 3, 3, 3, 3)
        cfg = config(pe=pe, mask=list(MaskKind)[i % 4], gamma=float(rng.uniform(0, 2)))
        q, k, v = random_qkv(rng, 2, lay.total_len, 4)
        bias = 0.3 * rng.standard_normal(5) if pe is PeMode.TIME_RPE else None
        plan = plan_attention(lay, cfg, bias)
        cases.append((q, k, v, lay, cfg, bias, attention_forward(q, k, v, lay, cfg, plan=plan).output))

    def raiser(name):
        def fail(*args, **kwargs):
            raise AssertionError(f"{name} called")

        return fail

    for module, names in FAST_PATH.items():
        for name in names:
            monkeypatch.setattr(f"{module}.{name}", raiser(name))
    with pytest.raises(AssertionError, match="rotate_rows called"):
        attention_forward(q, k, v, lay, cfg, plan=plan)
    with pytest.raises(AssertionError, match="plan_attention called"):
        attention_forward(q, k, v, lay, cfg)
    for q, k, v, lay, cfg, bias, fast in cases:
        assert np.abs(attention_brute_oracle(q, k, v, lay, cfg, rpe_bias=bias) - fast).max() < 1e-10


# Layouts with a suffix after the frames, so the suffix rule shows.
GATE_LAYOUTS = (build_layout(2, 3, 2, 2), build_layout(1, 2, 3, 3))
# Every mask, fw_block with and without causal order within a frame.
GATE_MASKS = [(mask, False) for mask in MaskKind] + [(MaskKind.FW_BLOCK, True)]


def oracle_errors():
    """Max |fast - brute oracle| per pe mode, over GATE_LAYOUTS x GATE_MASKS x both suffix rules."""
    rng = make_rng(50)
    errs = {}
    for pe in PeMode:
        worst = 0.0
        for lay in GATE_LAYOUTS:
            for (mask, within), strict in itertools.product(GATE_MASKS, (False, True)):
                cfg = config(
                    pe=pe, mask=mask, gamma=0.7, strict_monotonic_suffix=strict, fw_block_causal_within_frame=within
                )
                q, k, v = random_qkv(rng, 2, lay.total_len, 4)
                bias = 0.3 * rng.standard_normal(5) if pe is PeMode.TIME_RPE else None
                fast = attention_forward(q, k, v, lay, cfg, plan=plan_attention(lay, cfg, bias)).output
                slow = attention_brute_oracle(q, k, v, lay, cfg, rpe_bias=bias)
                worst = max(worst, np.abs(fast - slow).max())
        errs[pe] = worst
    return errs


def test_brute_oracle_agrees_with_both_flags_set():
    assert max(oracle_errors().values()) < 1e-10


def doubled_temporal_ids(layout, gamma, strict_monotonic_suffix=False):
    table = adjusted_positions(layout, gamma, strict_monotonic_suffix)
    temporal = 2 * table.temporal_ids
    return PositionTable(table.global_ids, temporal, table.global_ids + gamma * temporal)


def inverted_suffix_rule(layout, gamma, strict_monotonic_suffix=False):
    return adjusted_positions(layout, gamma, not strict_monotonic_suffix)


def swapped_sin_cos(temporal, freqs):
    emb = time_ape_embedding(temporal, freqs)
    return emb.reshape(len(emb), -1, 2)[:, :, ::-1].reshape(emb.shape)


TEMPORAL_MODES = {PeMode.TIME_ROPE_ONLY, PeMode.DUAL_ROPE, PeMode.TIME_APE, PeMode.TIME_RPE}
# (name patched in frameattn.attention, its wrong version, the pe modes it changes)
RULE_CHANGES = {
    "temporal_ids_doubled": ("adjusted_positions", doubled_temporal_ids, TEMPORAL_MODES),
    "suffix_rule_inverted": ("adjusted_positions", inverted_suffix_rule, TEMPORAL_MODES),
    "ape_sin_cos_swapped": ("time_ape_embedding", swapped_sin_cos, {PeMode.TIME_APE}),
}


@pytest.mark.parametrize("change", RULE_CHANGES)
def test_brute_oracle_catches_a_changed_position_rule(monkeypatch, change):
    # The oracle reads none of the fast path's position rules, so a wrong
    # rule there shows as a disagreement in exactly the modes that use it.
    name, wrong, affected = RULE_CHANGES[change]
    monkeypatch.setattr(f"frameattn.attention.{name}", wrong)
    for pe, err in oracle_errors().items():
        if pe in affected:
            assert err > 1e-3, pe
        else:
            assert err < 1e-10, pe


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
    pos = adjusted_positions(lay, cfg.gamma).adjusted
    for _ in range(10):
        s = float(rng.uniform(-100, 100))
        c = float(rng.uniform(-10, 10))
        plan = replace(base.plan, rotation=rotation_table(pos + (s + cfg.gamma * c), frequencies(4)))
        shifted = attention_forward(q, k, v, lay, cfg, plan=plan)
        assert np.abs(shifted.output - base.output).max() < 1e-9


def test_intra_frame_permutation_equivariance():
    # With time_rope_only all tokens of a frame share one rotation position,
    # so jointly permuting that frame's Q/K/V rows permutes exactly that
    # frame's output rows under every mask that lets a frame's tokens see each
    # other. Causal order within the frame, or a position that grows with n,
    # breaks it.
    rng = make_rng(10)
    lay = build_layout(1, 2, 3, 1)
    t = lay.total_len
    q, k, v = random_qkv(rng, 2, t, 4)
    frame = lay.frame_slice(1)
    perm = np.arange(t)
    perm[frame] = np.array([5, 6, 4])  # cycle the three rows of frame 1
    cells = [(PeMode.TIME_ROPE_ONLY, mask) for mask in MaskKind] + [(PeMode.DUAL_ROPE, MaskKind.FW_BLOCK_CAUSAL)]
    for pe, mask in cells:
        cfg = config(pe=pe, mask=mask, gamma=1.5)
        base = attention_forward(q, k, v, lay, cfg).output
        out = attention_forward(q[:, perm], k[:, perm], v[:, perm], lay, cfg).output
        err = np.abs(out - base[:, perm]).max()
        if pe is PeMode.TIME_ROPE_ONLY and mask is not MaskKind.CAUSAL:
            assert err < 1e-12, (pe, mask)
        else:
            assert err > 0.1, (pe, mask)


CUT_PREFIX, CUT_FRAMES, CUT_PER_FRAME = 3, 5, 4


def cut_errors(mask, within=False):
    """Per pe mode and cut frame f, how far the run on the first P + f * m tokens is from the full run's rows."""
    lay = build_layout(CUT_PREFIX, CUT_FRAMES, CUT_PER_FRAME, 2)
    rng = make_rng(60)
    q, k, v = random_qkv(rng, 2, lay.total_len, 8)
    bias = 0.3 * rng.standard_normal(5)
    errs = {}
    for pe in PeMode:
        cfg = config(d_head=8, gamma=0.7, pe=pe, mask=mask, fw_block_causal_within_frame=within)
        b = bias if pe is PeMode.TIME_RPE else None
        full = attention_forward(q, k, v, lay, cfg, plan=plan_attention(lay, cfg, b)).output
        for f in range(1, CUT_FRAMES + 1):
            cut = build_layout(CUT_PREFIX, f, CUT_PER_FRAME, 0)
            n = cut.total_len
            out = attention_forward(q[:, :n], k[:, :n], v[:, :n], cut, cfg, plan=plan_attention(cut, cfg, b))
            errs[pe, f] = np.abs(out.output - full[:, :n]).max()
    return errs


@pytest.mark.parametrize(
    "mask, within",
    [(MaskKind.CAUSAL, False), (MaskKind.FW_BLOCK, False), (MaskKind.FW_BLOCK, True), (MaskKind.FW_BLOCK_CAUSAL, False)],
)
def test_no_token_sees_a_later_frame(mask, within):
    # The frame-block masks keep causal inference at frame granularity: the
    # rows up to frame f do not depend on any later token, so a sequence cut
    # after frame f gives those rows as the whole sequence does.
    errs = cut_errors(mask, within)
    assert max(errs.values()) < 1e-14


def test_full_visual_lets_frames_see_later_frames():
    # The negative control: under full_visual every visual row reads later
    # frames, so every cut before the last frame changes the kept rows.
    errs = cut_errors(MaskKind.FULL_VISUAL)
    assert min(err for (_, f), err in errs.items() if f < CUT_FRAMES) > 0.5
    assert max(err for (_, f), err in errs.items() if f == CUT_FRAMES) < 1e-14


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


# Explicit ids keep each case's test name when a case is added or removed.
BAD_PLAN_INPUTS = {
    "kwargs4-only meaningful": {"rpe_bias": np.zeros(3)},
    "kwargs5-odd-length": {"rpe_bias": np.zeros(2), "pe": PeMode.TIME_RPE},
    "kwargs6-rpe_bias must be finite": {"rpe_bias": [np.nan, 0.0, 0.0], "pe": PeMode.TIME_RPE},
    "kwargs7-rpe_bias must be finite": {"rpe_bias": [np.inf, 0.0, 0.0], "pe": PeMode.TIME_RPE},
    "kwargs8-rpe_bias must hold integer or real floating numbers": {"rpe_bias": [True, False, True], "pe": PeMode.TIME_RPE},
}


@pytest.mark.parametrize("case", BAD_PLAN_INPUTS)
def test_plan_rejects_bad_bias_and_positions(case):
    # A bad bias is a caller's error at plan time, never a NonFiniteError
    # (which a trial reads as divergence) from a later forward. Positions
    # are the pe mode's own: the plan takes no override of them.
    kwargs = dict(BAD_PLAN_INPUTS[case])
    cfg = config(pe=kwargs.pop("pe", PeMode.DUAL_ROPE))
    with pytest.raises(ValueError, match=case.split("-", 1)[1]) as info:
        plan_attention(build_layout(2, 0, 0, 0), cfg, **kwargs)
    assert not isinstance(info.value, NonFiniteError)


def plan_arrays(plan):
    """Every array the plan holds, through its fields, tiles, rotation table and per-R entries."""
    values = [getattr(plan, f.name) for f in fields(plan)]
    values += [plan.rotation.cos, plan.rotation.sin, *(x for tile in plan.tiles for x in tile)]
    for rotation, inverse, tiles, ape in plan.by_rows.values():
        values += [rotation.cos, rotation.sin, inverse.cos, inverse.sin, ape, *(x for tile in tiles for x in tile)]
    return [x for x in values if isinstance(x, np.ndarray)]


def run_rows(plan, *query_rows):
    """One forward and backward with each count of query rows, which fills the plan's per-R entries."""
    t = plan.layout.total_len
    k = np.ones((1, t, plan.config.d_head))
    for r in query_rows:
        res = attention_forward(k[:, t - r :], k, k, plan.layout, plan.config, plan=plan)
        attention_backward(res, res.output)


def test_plan_holds_only_what_the_kernels_read():
    assert list(inspect.signature(plan_attention).parameters) == ["layout", "config", "rpe_bias"]
    assert [f.name for f in fields(AttentionPlan)] == ["layout", "config", "rotation", "tiles", "ape", "by_rows"]
    # No dense mask and no bias matrix: nothing in any plan is T x T, before or after calls fill its per-R entries.
    lay = build_layout(8, 32, 32, 8)
    t = lay.total_len
    for mask, pe in itertools.product(MaskKind, PeMode):
        bias = np.zeros(3) if pe is PeMode.TIME_RPE else None
        plan = plan_attention(lay, config(mask=mask, pe=pe), bias)
        assert plan.by_rows == {}
        run_rows(plan, t, 2)
        assert sorted(plan.by_rows) == [2, t]
        assert (t, t) not in [x.shape for x in plan_arrays(plan)]


def test_plan_arrays_are_read_only():
    bias = np.linspace(-0.2, 0.2, 5)
    plan = plan_attention(GATHERED, config(pe=PeMode.TIME_RPE, mask=MaskKind.FW_BLOCK), bias)
    run_rows(plan, GATHERED.total_len, 70)
    arrays = plan_arrays(plan)
    assert any(cols is a for _, _, cols, _, _ in plan.tiles for a in arrays)
    assert all(any(b is a for a in arrays) for *_, b in plan.tiles)
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    # The caller's table stays writable, and the plan keeps its own.
    before = [b.copy() for *_, b in plan.tiles]
    bias[:] = 9.0
    assert all(np.array_equal(b, c) for (*_, b), c in zip(plan.tiles, before))
    # Under time_ape, the plan's APE table and each per-R entry's (R + T) APE rows.
    plan = plan_attention(build_layout(1, 2, 2, 2), config(pe=PeMode.TIME_APE))
    run_rows(plan, plan.layout.total_len, 2)
    ape_rows = [plan.ape] + [ape for *_, ape in plan.by_rows.values()]
    assert len(ape_rows) == 3
    for arr in ape_rows:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


@pytest.mark.parametrize("pe", [PeMode.TIME_APE, PeMode.TIME_RPE])
def test_a_replaced_plan_holds_only_read_only_arrays(pe):
    # dataclasses.replace constructs a new plan, and construction marks every array it holds read-only.
    bias = np.linspace(-0.2, 0.2, 5) if pe is PeMode.TIME_RPE else None
    plan = plan_attention(GATHERED, config(pe=pe, mask=MaskKind.FW_BLOCK), bias)
    t = GATHERED.total_len
    rotation = rotation_table(np.arange(t) + 0.5, frequencies(plan.config.d_head))
    assert rotation.cos.flags.writeable
    replaced = replace(plan, rotation=rotation)
    assert replaced.rotation is rotation and replaced.by_rows == {}
    run_rows(replaced, t, 70)
    arrays = plan_arrays(replaced)
    assert any(rotation.cos is a for a in arrays) and any(rotation.sin is a for a in arrays)
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


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
        # Some tile must skip key columns, or the comparison proves nothing;
        # under fw_block some tile must gather them (an index array).
        t = TILE_INVARIANCE.total_len
        assert any(len(np.arange(t)[cols]) < t for _, _, cols, _, _ in tiled.plan.tiles)
        gathered = any(isinstance(cols, np.ndarray) for _, _, cols, _, _ in tiled.plan.tiles)
        assert gathered == (mask is MaskKind.FW_BLOCK)
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


def literal_positions(lay, cfg):
    """Each token's rotation position by the pe mode's rule, from the literal temporal ids."""
    temporal = [temporal_id_literal(lay, n, cfg.strict_monotonic_suffix) for n in range(lay.total_len)]
    if cfg.pe_mode is PeMode.TIME_ROPE_ONLY:
        return np.array([cfg.gamma * tid for tid in temporal])
    if cfg.pe_mode is PeMode.DUAL_ROPE:
        return np.array([n + cfg.gamma * tid for n, tid in enumerate(temporal)])
    return np.arange(lay.total_len, dtype=np.float64)


@pytest.mark.parametrize("pe", list(PeMode))
def test_inverse_table_is_the_table_at_negated_positions(pe):
    # The backward pass turns rows back with the plan's table inverted,
    # (cos, -sin); that must be bitwise the rotation at -positions.
    rng = make_rng(40)
    for lay in (TILED, TILE_INVARIANCE, random_layout(rng, 120, 10, 8, 12, 10)):
        for gamma, strict in itertools.product((0.0, 0.7, 1.0, 3.5), (False, True)):
            cfg = config(d_head=16, gamma=gamma, pe=pe, strict_monotonic_suffix=strict)
            plan = plan_attention(lay, cfg)
            positions = literal_positions(lay, cfg)
            # The plan turns each row at the pe mode's literal position, bitwise.
            table = rotation_table(positions, frequencies(16))
            assert np.array_equal(plan.rotation.cos, table.cos) and np.array_equal(plan.rotation.sin, table.sin)
            negated = rotation_table(-positions, frequencies(16))
            inverse = plan.rotation.inverse()
            assert np.array_equal(inverse.cos, negated.cos) and np.array_equal(inverse.sin, negated.sin)
            mat = rng.standard_normal((lay.total_len, 16))
            assert np.array_equal(rotate_rows(mat, inverse), rotate_rows(mat, negated))
            assert np.abs(rotate_rows(rotate_rows(mat, plan.rotation), inverse) - mat).max() < 1e-12
            # The kernels' (R + T)-row tables: the last R rows' positions, then every row's.
            t = lay.total_len
            run_rows(plan, t, 2)
            for r, (rotation, inverse, _, _) in plan.by_rows.items():
                for got, want in ((rotation, table), (inverse, negated)):
                    assert np.array_equal(got.cos, np.concatenate([want.cos[t - r :], want.cos]))
                    assert np.array_equal(got.sin, np.concatenate([want.sin[t - r :], want.sin]))


def tile_mask_cases():
    rng = make_rng(41)
    layouts = [TILED, TILE_INVARIANCE, GATHERED] + [random_layout(rng, 150, 12, 8, 14, 12) for _ in range(8)]
    for lay in layouts:
        for mask, within in itertools.product(MaskKind, (False, True)):
            yield lay, config(mask=mask, fw_block_causal_within_frame=within)


@pytest.mark.parametrize("tile_rows", [64, 5])
def test_tile_free_columns_are_open_and_the_trailing_mask_is_exact(monkeypatch, tile_rows):
    # Each tile is (lo, hi, cols, mask): columns outside cols are masked for
    # every row, the leading columns of cols are open, and mask is the exact
    # dense mask over the rest.
    monkeypatch.setattr("frameattn.attention._TILE_ROWS", tile_rows)
    rng = make_rng(42)
    narrowed = gathered = 0
    for lay, cfg in tile_mask_cases():
        t = lay.total_len
        plan = plan_attention(lay, cfg)
        values = build_mask(cfg.mask_kind, lay, cfg.fw_block_causal_within_frame).values
        assert [(lo, hi) for lo, hi, *_ in plan.tiles] == [(lo, min(lo + tile_rows, t)) for lo in range(0, t, tile_rows)]
        for lo, hi, cols, mask, bias in plan.tiles:
            assert bias is None
            keys = np.arange(t)[cols]
            prefix = np.array_equal(keys, np.arange(len(keys)))
            assert isinstance(cols, slice) == prefix
            assert prefix or cfg.mask_kind is MaskKind.FW_BLOCK
            assert np.all(np.isneginf(np.delete(values[lo:hi], keys, axis=1)))
            free = len(keys) - mask.shape[1]
            assert mask.shape[0] == hi - lo and 0 <= free
            assert np.array_equal(keys[:free], np.arange(free))
            assert np.all(values[lo:hi, :free] == 0.0)
            assert np.array_equal(mask, values[lo:hi][:, keys[free:]])
            scores = rng.standard_normal((3, hi - lo, len(keys)))
            full = masked_row_softmax(scores, values[lo:hi][:, keys])
            assert np.array_equal(masked_row_softmax(scores, mask), full)
            narrowed += free > 0
            gathered += not prefix
    assert narrowed  # some tile must hand the softmax a narrower mask
    assert gathered  # and some fw_block tile must gather its columns


def test_tile_bias_is_the_table_at_the_clipped_temporal_distance(monkeypatch):
    # Entry by entry, from the literal temporal ids; radius 2 clips, radius 40 exceeds every distance.
    monkeypatch.setattr("frameattn.attention._TILE_ROWS", 16)
    for lay, mask, strict, radius in itertools.product((TILED, GATHERED), MaskKind, (False, True), (2, 40)):
        table = np.linspace(-0.4, 0.3, 2 * radius + 1)
        plan = plan_attention(lay, config(mask=mask, pe=PeMode.TIME_RPE, strict_monotonic_suffix=strict), table)
        tid = [temporal_id_literal(lay, n, strict) for n in range(lay.total_len)]
        for lo, hi, cols, _, bias in plan.tiles:
            keys = np.arange(lay.total_len)[cols].tolist()
            expected = [[table[radius + max(-radius, min(radius, tid[i] - tid[j]))] for j in keys] for i in range(lo, hi)]
            assert np.array_equal(bias, expected)


def test_fw_block_tiles_of_a_long_layout_gather_the_prefix_and_their_frames():
    # T=1040: prefix 8, 32 frames of 32, suffix 8. Tile 3 holds rows
    # 192..255: the end of frame 5 (168..199), frame 6 and the start of
    # frame 7 (232..263), which it sees whole, or up to row 255 when the
    # frame block is causal.
    lay = build_layout(8, 32, 32, 8)
    for within, last in ((False, 264), (True, 256)):
        plan = plan_attention(lay, config(mask=MaskKind.FW_BLOCK, fw_block_causal_within_frame=within))
        lo, hi, cols, mask, _ = plan.tiles[3]
        assert (lo, hi) == (192, 256)
        assert np.array_equal(cols, np.r_[0:8, 168:last])
        assert mask.shape == (64, last - 168)
        assert isinstance(plan.tiles[0][2], slice) and isinstance(plan.tiles[-1][2], slice)
        assert all(isinstance(cols, np.ndarray) for _, _, cols, _, _ in plan.tiles[1:-1])


def softmax_entries(monkeypatch, lay, cfg):
    """Score entries that one all-rows forward pass hands to the softmax."""
    seen = []

    def counted(scores, mask, **kwargs):
        seen.append(scores.size)
        return masked_row_softmax(scores, mask, **kwargs)

    monkeypatch.setattr("frameattn.attention.masked_row_softmax", counted)
    q, k, v = random_qkv(make_rng(43), 1, lay.total_len, 4)
    attention_forward(q, k, v, lay, cfg)
    return sum(seen)


def eager_weights(res):
    """Dense weights built eagerly, as one array per call: each tile's fresh softmax scattered into zeros."""
    n, r, _ = res.output.shape
    dense = np.zeros((n, r, res.plan.layout.total_len))
    for rows, cols, mask, bias, *_ in res.plan.by_rows[r][2]:
        scores = res.q_rot[:, rows] @ res.k_rot[:, cols].transpose(0, 2, 1)
        scores *= res.plan.config.scale
        if bias is not None:
            scores += bias
        dense[:, rows, cols] = masked_row_softmax(scores, mask)
    return dense


def test_dense_weights_are_built_on_request_and_equal_the_eager_array(monkeypatch):
    # Tiles of 16 rows over T=70: five tiles at R = T, two at R = 21 (one clipped).
    monkeypatch.setattr("frameattn.attention._TILE_ROWS", 16)
    rng = make_rng(44)
    t = TILED.total_len
    for mask, pe in itertools.product(MaskKind, PeMode):
        bias = 0.3 * rng.standard_normal(5) if pe is PeMode.TIME_RPE else None
        plan = plan_attention(TILED, config(mask=mask, pe=pe), bias)
        q, k, v = random_qkv(rng, 3, t, 4)
        for r in (t, 21):
            res = attention_forward(q[:, t - r :], k, v, TILED, plan.config, plan=plan)
            assert len(res.tile_weights) == len(plan.by_rows[r][2]) == (5 if r == t else 2)
            assert len({id(w.base) for w in res.tile_weights}) == 1  # one buffer holds every tile
            assert "weights" not in vars(res)
            dense = res.weights
            assert res.weights is dense  # built once, then cached
            assert np.array_equal(dense, eager_weights(res)), (mask, pe, r)


def test_softmax_work_counts_at_t1040(monkeypatch):
    # fw_block scores only the prefix and each tile's frames; the other
    # kinds keep their prefix tiles, so their counts stay where they were.
    lay = build_layout(8, 32, 32, 8)
    want = {
        MaskKind.CAUSAL: 573_696,
        MaskKind.FULL_VISUAL: 1_073_408,
        MaskKind.FW_BLOCK: 121_088,
        MaskKind.FW_BLOCK_CAUSAL: 581_888,
    }
    assert {mask: softmax_entries(monkeypatch, lay, config(mask=mask)) for mask in MaskKind} == want


@pytest.mark.parametrize("pe", list(PeMode))
def test_gradients_match_finite_differences_on_gathered_tiles(monkeypatch, pe):
    # Tiles of 3 rows over T=11 (1, 3 frames of 3, 1): tile [6, 9) sees the
    # prefix, frame 1 and frame 2 but not frame 0.
    monkeypatch.setattr("frameattn.attention._TILE_ROWS", 3)
    lay = build_layout(1, 3, 3, 1)
    assert np.array_equal(plan_attention(lay, config(mask=MaskKind.FW_BLOCK)).tiles[2][2], [0, 4, 5, 6, 7, 8, 9])
    seed = 50 + list(PeMode).index(pe)
    assert attention_fd_error(pe, MaskKind.FW_BLOCK, seed=seed, layout=lay) < 1e-4
    assert attention_fd_error(pe, MaskKind.FW_BLOCK, seed=seed, layout=lay, query_rows=4) < 1e-4
