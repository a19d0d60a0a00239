"""Fast deterministic property battery behind the `selftest` CLI command.

Each check re-derives its expectation independently (literal piecewise
branch evaluation, complex-arithmetic rotation, predicate-built masks,
scalar-loop attention, finite differences) and asserts the library path
against it. Output is one `ok <name>` line per check, byte-identical across
runs; the first failing assertion is reported by check name.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .attention import (
    AttentionConfig,
    PeMode,
    attention_brute_oracle,
    attention_forward,
    plan_attention,
)
from .gradcheck import attention_fd_error, model_fd_error
from .harness import TrialConfig, train_trial
from .layout import SequenceLayout, build_layout, temporal_ids
from .masks import MaskKind, allowed, build_mask
from .numerics import make_rng, masked_row_softmax
from .rope import RopeConfig, frequencies, pair_score, rotary_oracle, rotate_rows
from .tasks import Task, gen_task

__all__ = ["random_layout", "run_selftest", "temporal_id_literal"]


def random_layout(
    rng, max_total: int, max_prefix: int, max_frames: int, max_per_frame: int, max_suffix: int
) -> SequenceLayout:
    """A random layout of 1..max_total tokens, by rejection.

    Draws prefix, frames, per_frame (only when frames > 0) and suffix, in
    that order, uniform from 0 (per_frame from 1) to their bounds, and redraws
    all four until the total fits. The draw order is part of the contract:
    a seeded stream gives the same layouts everywhere.
    """
    while True:
        prefix = int(rng.integers(0, max_prefix + 1))
        frames = int(rng.integers(0, max_frames + 1))
        per_frame = int(rng.integers(1, max_per_frame + 1)) if frames else 0
        suffix = int(rng.integers(0, max_suffix + 1))
        if 1 <= prefix + frames * per_frame + suffix <= max_total:
            return build_layout(prefix, frames, per_frame, suffix)


def temporal_id_literal(lay: SequenceLayout, n: int) -> int:
    """Temporal id of position n, from the three-branch definition token by token.

    Independent of layout.temporal_ids, which it checks here and in the tests.
    """
    if not lay.has_visual:
        return n
    v_s, v_e, m = lay.visual_start, lay.visual_end, lay.tokens_per_frame
    if n < v_s:
        return n
    if v_s <= n <= v_e:
        return v_s + (n - v_s) // m
    return n - (v_e - v_s + 1 - (v_e - v_s) // m)


def _check_temporal_ids():
    rng = make_rng(7001)
    for _ in range(60):
        lay = random_layout(rng, 24, 4, 4, 4, 4)
        ids = temporal_ids(lay)
        for n in range(lay.total_len):
            assert ids[n] == temporal_id_literal(lay, n), f"temporal id mismatch at {n} in {lay}"


def _check_rope_oracle():
    rng = make_rng(7002)
    for d_head in (2, 8, 64):
        freqs = frequencies(RopeConfig(d_head=d_head))
        mat = rng.standard_normal((60, d_head))
        positions = rng.uniform(-500, 500, 60)
        fast = rotate_rows(mat, positions, freqs)
        for v, pos, row in zip(mat, positions, fast):
            ref = rotary_oracle(v, pos, freqs)
            assert np.max(np.abs(row - ref)) < 1e-12, "rotary oracle disagreement"
            assert abs(np.linalg.norm(row) - np.linalg.norm(v)) < 1e-12, "norm not preserved"


def _check_rope_shift():
    rng = make_rng(7003)
    freqs = frequencies(RopeConfig(d_head=8))
    for _ in range(50):
        q, k = rng.standard_normal(8), rng.standard_normal(8)
        pq, pk, s = rng.uniform(-50, 50, 3)
        a = pair_score(q, k, pq, pk, freqs)
        b = pair_score(q, k, pq + s, pk + s, freqs)
        assert abs(a - b) < 1e-9, "pair score not shift invariant"


def _check_masks():
    rng = make_rng(7004)
    for _ in range(20):
        lay = random_layout(rng, 24, 4, 4, 4, 4)
        built = {kind: build_mask(kind, lay) for kind in MaskKind}
        for kind, mask in built.items():
            for i in range(lay.total_len):
                for j in range(lay.total_len):
                    want = 0.0 if allowed(kind, lay, i, j) else -math.inf
                    assert mask.values[i, j] == want, f"{kind.value} mask/predicate mismatch"
        causal = built[MaskKind.CAUSAL].values == 0
        fwbc = built[MaskKind.FW_BLOCK_CAUSAL].values == 0
        full = built[MaskKind.FULL_VISUAL].values == 0
        assert np.all(fwbc[causal]), "causal not subset of fw_block_causal"
        assert np.all(full[fwbc]), "fw_block_causal not subset of full_visual"
        assert all(built[k].values[i, i] == 0 for k in MaskKind for i in range(lay.total_len)), (
            "diagonal must be allowed"
        )
    lay = build_layout(3, 0, 0, 2)
    ref = build_mask(MaskKind.CAUSAL, lay).values
    for kind in MaskKind:
        assert np.array_equal(build_mask(kind, lay).values, ref), "zero-frame masks must equal causal"


def _check_softmax():
    rng = make_rng(7005)
    for _ in range(40):
        t = int(rng.integers(1, 9))
        scores = rng.standard_normal((t, t))
        mask = np.where(rng.random((t, t)) < 0.4, -np.inf, 0.0)
        w = masked_row_softmax(scores, mask)
        assert np.all(w[np.isneginf(mask)] == 0.0), "masked weights must be exactly zero"
        sums = w.sum(axis=1)
        open_rows = np.isfinite(mask).any(axis=1)
        assert np.all(np.abs(sums[open_rows] - 1.0) < 1e-12), "rows must sum to one"
        assert np.all(sums[~open_rows] == 0.0), "fully masked rows must be zero"
        shifted = masked_row_softmax(scores + rng.standard_normal((t, 1)), mask)
        assert np.max(np.abs(shifted - w)) < 1e-12, "softmax must be shift invariant"


def _check_degeneracy():
    rng = make_rng(7006)
    lay = build_layout(1, 2, 3, 2)
    t = lay.total_len
    base = AttentionConfig(
        rope=RopeConfig(d_head=4, gamma=0.0),
        mask_kind=MaskKind.CAUSAL,
        pe_mode=PeMode.DUAL_ROPE,
    )
    q, k, v = (rng.standard_normal((2, t, 4)) for _ in range(3))
    dual = attention_forward(q, k, v, lay, base).output
    rope_only = attention_forward(q, k, v, lay, replace(base, pe_mode=PeMode.ROPE_ONLY)).output
    assert np.max(np.abs(dual - rope_only)) <= 1e-12, "dual_rope(gamma=0) must equal rope_only"
    one_frame = build_layout(1, 1, 3, 1)
    t1 = one_frame.total_len
    q1, k1, v1 = (rng.standard_normal((2, t1, 4)) for _ in range(3))
    cfg_fwbc = replace(base, mask_kind=MaskKind.FW_BLOCK_CAUSAL)
    cfg_full = replace(base, mask_kind=MaskKind.FULL_VISUAL)
    a = attention_forward(q1, k1, v1, one_frame, cfg_fwbc).output
    b = attention_forward(q1, k1, v1, one_frame, cfg_full).output
    assert np.array_equal(a, b), "single-frame fw_block_causal must equal full_visual"


def _check_attention_oracle():
    rng = make_rng(7007)
    for case in range(12):
        lay = random_layout(rng, 10, 4, 4, 4, 4)
        t = lay.total_len
        pe = list(PeMode)[case % len(PeMode)]
        mk = list(MaskKind)[case % len(MaskKind)]
        cfg = AttentionConfig(
            rope=RopeConfig(d_head=4, gamma=float(rng.uniform(0, 2))),
            mask_kind=mk,
            pe_mode=pe,
        )
        q, k, v = (rng.standard_normal((2, t, 4)) for _ in range(3))
        bias = 0.3 * rng.standard_normal(5) if pe is PeMode.TIME_RPE else None
        fast = attention_forward(q, k, v, lay, cfg, plan=plan_attention(lay, cfg, bias)).output
        slow = attention_brute_oracle(q, k, v, lay, cfg, rpe_bias=bias)
        assert np.max(np.abs(fast - slow)) < 1e-10, "attention oracle disagreement"
    # T=70 runs two query tiles, with frame 4 straddling the tile boundary.
    lay = build_layout(2, 5, 13, 3)
    cfg = AttentionConfig(rope=RopeConfig(d_head=4, gamma=0.7), mask_kind=MaskKind.FW_BLOCK_CAUSAL)
    q, k, v = (rng.standard_normal((1, lay.total_len, 4)) for _ in range(3))
    fast = attention_forward(q, k, v, lay, cfg).output
    slow = attention_brute_oracle(q, k, v, lay, cfg)
    assert np.max(np.abs(fast - slow)) < 1e-10, "tiled attention oracle disagreement"
    # The last 9 query rows alone: rows 61..69, so tile 0 is clipped to its last 3 rows.
    fast = attention_forward(q[:, -9:], k, v, lay, cfg).output
    assert np.max(np.abs(fast - slow[:, -9:])) < 1e-10, "last-rows attention oracle disagreement"


def _check_gradients():
    for i, pe in enumerate(PeMode):
        mk = list(MaskKind)[i % len(MaskKind)]
        err = attention_fd_error(pe, mk, seed=7100 + i)
        assert err < 1e-4, f"attention gradient error {err:.2e} for {pe.value}/{mk.value}"
    err = model_fd_error(seed=7200)
    assert err < 1e-3, f"model gradient error {err:.2e}"


def _check_task_determinism():
    lay = build_layout(2, 4, 4, 2)
    for task in Task:
        a = gen_task(task, lay, 42, 16)
        b = gen_task(task, lay, 42, 16)
        assert a.to_bytes() == b.to_bytes(), f"{task.value} dataset not deterministic"
    counts = gen_task(Task.MOVING_COUNT, lay, 5, 32)
    from .tasks import TOKEN_MARKER

    for row, label in zip(counts.tokens, counts.labels):
        marked = sum(
            1
            for f in range(lay.num_frames)
            if TOKEN_MARKER in row[lay.frame_slice(f)]
        )
        assert marked == label, "moving_count label must equal marked-frame count"


def _check_trial_determinism():
    cfg = TrialConfig(
        task=Task.LAST_FRAME_RECALL,
        layout=build_layout(1, 2, 2, 1),
        steps=5,
        train_size=8,
        eval_size=8,
        batch_size=4,
        num_symbols=4,
    )
    a = train_trial(cfg)
    b = train_trial(cfg)
    assert a.to_json() == b.to_json(), "trial report not deterministic"


CHECKS = [
    ("temporal_ids_vs_literal_branches", _check_temporal_ids),
    ("rotary_vs_complex_oracle", _check_rope_oracle),
    ("pair_score_shift_invariance", _check_rope_shift),
    ("masks_vs_predicate_and_supersets", _check_masks),
    ("masked_softmax_properties", _check_softmax),
    ("mode_and_mask_degeneracies", _check_degeneracy),
    ("attention_vs_brute_oracle", _check_attention_oracle),
    ("gradients_vs_finite_differences", _check_gradients),
    ("task_generation_determinism", _check_task_determinism),
    ("trial_determinism", _check_trial_determinism),
]


def run_selftest() -> tuple[bool, list[str]]:
    """Run every check; returns (all passed, printable report lines)."""
    lines = []
    for name, check in CHECKS:
        try:
            check()
        except AssertionError as exc:
            lines.append(f"FAIL {name}: {exc}")
            return False, lines
        lines.append(f"ok {name}")
    lines.append(f"selftest passed ({len(CHECKS)} checks)")
    return True, lines
