"""Acceptance suite: ten numbered criteria, each with its tolerance pinned.

Run with `pytest tests/test_acceptance.py -s` to see one PASS line per
criterion; a failing criterion is reported by pytest itself.
"""

import statistics
import time
from dataclasses import replace

import numpy as np
import pytest

from frameattn.attention import (
    AttentionConfig,
    PeMode,
    attention_brute_oracle,
    attention_forward,
    plan_attention,
)
from frameattn.cli import main
from frameattn.gradcheck import attention_fd_error, default_micro_cases, model_fd_error
from frameattn.harness import TrialConfig, gamma_sweep, train_trial
from frameattn.layout import build_layout, temporal_ids
from frameattn.masks import MaskKind, allowed, build_mask
from frameattn.numerics import make_rng
from frameattn.rope import RopeConfig, frequencies, pair_score, rotary_oracle, rotate_rows
from frameattn.selftest import random_layout, temporal_id_literal
from frameattn.tasks import Task

PAPER_GAMMAS = [0.1, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0]


def announce(n: int, text: str) -> None:
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_temporal_id_oracle():
    start = time.perf_counter()
    rng = make_rng(101)
    for _ in range(1000):
        lay = random_layout(rng, 256, 40, 20, 10, 40)
        ids = temporal_ids(lay)
        for n in range(lay.total_len):
            assert int(ids[n]) == temporal_id_literal(lay, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    announce(1, f"temporal ids match the three-branch oracle on 1000 layouts ({elapsed:.2f}s)")


def test_criterion_02_rope_oracle_equivalence():
    start = time.perf_counter()
    rng = make_rng(102)
    worst = 0.0
    for d_head in (2, 8, 64, 128):
        freqs = frequencies(RopeConfig(d_head=d_head))
        mat = rng.standard_normal((250, d_head))
        positions = rng.uniform(-1000, 1000, 250)
        fast = rotate_rows(mat, positions, freqs)
        for vec, pos, row in zip(mat, positions, fast):
            err = np.abs(row - rotary_oracle(vec, pos, freqs)).max()
            worst = max(worst, float(err))
    assert worst < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    announce(2, f"rotation vs complex oracle max abs err {worst:.2e} over 1000 pairs ({elapsed:.2f}s)")


def test_criterion_03_relative_position_property():
    rng = make_rng(103)
    worst_pair = 0.0
    worst_attn = 0.0
    for _ in range(100):
        d_head = int(rng.choice([2, 4, 8]))
        freqs = frequencies(RopeConfig(d_head=d_head))
        q, k = rng.standard_normal(d_head), rng.standard_normal(d_head)
        pq, pk = rng.uniform(-100, 100, 2)
        s = float(rng.uniform(-100, 100))
        base = pair_score(q, k, pq, pk, freqs)
        shifted = pair_score(q, k, pq + s, pk + s, freqs)
        worst_pair = max(worst_pair, abs(base - shifted))

        lay = random_layout(rng, max_total=10, max_prefix=3, max_frames=3, max_per_frame=3, max_suffix=3)
        gamma = float(rng.uniform(0, 2))
        cfg = AttentionConfig(
            rope=RopeConfig(d_head=d_head, gamma=gamma),
            mask_kind=MaskKind(rng.choice([m.value for m in MaskKind])),
            pe_mode=PeMode.DUAL_ROPE,
        )
        t = lay.total_len
        shape = (2, t, d_head)
        qt, kt, vt = rng.standard_normal(shape), rng.standard_normal(shape), rng.standard_normal(shape)
        out = attention_forward(qt, kt, vt, lay, cfg).output
        shift_s = float(rng.uniform(-100, 100))
        shift_c = float(rng.uniform(-10, 10))
        pos = plan_attention(lay, cfg).positions + (shift_s + gamma * shift_c)
        out_shifted = attention_forward(qt, kt, vt, lay, cfg, plan=plan_attention(lay, cfg, positions=pos)).output
        worst_attn = max(worst_attn, float(np.abs(out - out_shifted).max()))
    assert worst_pair < 1e-9
    assert worst_attn < 1e-9
    announce(3, f"joint shifts change pair scores by {worst_pair:.2e}, outputs by {worst_attn:.2e}")


def test_criterion_04_mask_correctness():
    rng = make_rng(104)
    for _ in range(100):
        lay = random_layout(rng, max_total=32, max_prefix=8, max_frames=5, max_per_frame=5, max_suffix=8)
        t = lay.total_len
        masks = {kind: build_mask(kind, lay).values for kind in MaskKind}
        for kind, values in masks.items():
            for i in range(t):
                for j in range(t):
                    expected = 0.0 if allowed(kind, lay, i, j) else -np.inf
                    assert values[i, j] == expected
        causal = masks[MaskKind.CAUSAL] == 0.0
        fwbc = masks[MaskKind.FW_BLOCK_CAUSAL] == 0.0
        full = masks[MaskKind.FULL_VISUAL] == 0.0
        assert np.all(fwbc[causal]) and np.all(full[fwbc])
    announce(4, "mask builders match the predicate and the causal/fwbc/full chain on 100 layouts")


def test_criterion_05_degeneracies():
    rng = make_rng(105)
    worst = 0.0
    for _ in range(20):
        lay = random_layout(rng, max_total=12, max_prefix=4, max_frames=3, max_per_frame=3, max_suffix=4)
        t = lay.total_len
        shape = (2, t, 4)
        q, k, v = rng.standard_normal(shape), rng.standard_normal(shape), rng.standard_normal(shape)
        dual = AttentionConfig(
            rope=RopeConfig(d_head=4, gamma=0.0),
            mask_kind=MaskKind.FW_BLOCK_CAUSAL,
            pe_mode=PeMode.DUAL_ROPE,
        )
        rope_only = replace(dual, pe_mode=PeMode.ROPE_ONLY)
        a = attention_forward(q, k, v, lay, dual).output
        b = attention_forward(q, k, v, lay, rope_only).output
        worst = max(worst, float(np.abs(a - b).max()))
    assert worst <= 1e-12
    for prefix, suffix in ((1, 0), (3, 2), (0, 5)):
        lay = build_layout(prefix, 0, 0, suffix)
        ref = build_mask(MaskKind.CAUSAL, lay).values
        for kind in MaskKind:
            assert np.array_equal(build_mask(kind, lay).values, ref)
    announce(5, f"dual(gamma=0) vs rope_only max abs err {worst:.2e}; zero-frame masks equal causal")


def test_criterion_06_gradient_checks():
    start = time.perf_counter()
    cases = default_micro_cases()
    assert len(cases) >= 20
    worst = 0.0
    for i, (pe, mk) in enumerate(cases):
        err = attention_fd_error(pe, mk, seed=600 + i)  # T=7, d_head=4 micro case
        worst = max(worst, err)
    assert worst < 1e-4
    model_err = model_fd_error(seed=606)
    assert model_err < 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    announce(
        6,
        f"attention grads max rel err {worst:.2e} over {len(cases)} cases, "
        f"model {model_err:.2e} ({elapsed:.1f}s)",
    )


def test_criterion_07_brute_force_attention_oracle():
    rng = make_rng(107)
    worst = 0.0
    pe_modes = list(PeMode)
    kinds = list(MaskKind)
    for case in range(200):
        lay = random_layout(rng, max_total=16, max_prefix=4, max_frames=4, max_per_frame=4, max_suffix=4)
        t = lay.total_len
        pe = pe_modes[case % len(pe_modes)]
        cfg = AttentionConfig(
            rope=RopeConfig(d_head=4, gamma=float(rng.uniform(0, 2))),
            mask_kind=kinds[case % len(kinds)],
            pe_mode=pe,
        )
        shape = (2, t, 4)
        q, k, v = rng.standard_normal(shape), rng.standard_normal(shape), rng.standard_normal(shape)
        bias = 0.3 * rng.standard_normal(7) if pe is PeMode.TIME_RPE else None
        fast = attention_forward(q, k, v, lay, cfg, plan=plan_attention(lay, cfg, bias)).output
        slow = attention_brute_oracle(q, k, v, lay, cfg, rpe_bias=bias)
        worst = max(worst, float(np.abs(fast - slow).max()))
    assert worst < 1e-10
    announce(7, f"attention vs scalar-loop oracle max abs err {worst:.2e} over 200 cases")


def test_criterion_08_direction_of_effect():
    start = time.perf_counter()
    base = TrialConfig(task=Task.FRAME_ORDER, layout=build_layout(2, 4, 4, 2), steps=600)
    seeds = [0, 1, 2, 3, 4]
    baseline = [
        train_trial(replace(base, pe_mode=PeMode.ROPE_ONLY, mask_kind=MaskKind.CAUSAL, seed=s)).accuracy
        for s in seeds
    ]
    variant = [
        train_trial(
            replace(base, pe_mode=PeMode.DUAL_ROPE, mask_kind=MaskKind.FW_BLOCK_CAUSAL, gamma=1.0, seed=s)
        ).accuracy
        for s in seeds
    ]
    med_base = statistics.median(baseline)
    med_var = statistics.median(variant)
    elapsed = time.perf_counter() - start
    assert med_var >= med_base
    assert elapsed < 600.0
    announce(
        8,
        f"frame_order median accuracy: dual+fwbc {med_var:.3f} >= rope_only+causal {med_base:.3f} "
        f"(5 seeds, {elapsed:.0f}s)",
    )


SWEEP_BASE = TrialConfig(
    task=Task.FRAME_ORDER,
    layout=build_layout(1, 2, 2, 1),
    steps=25,
    train_size=32,
    eval_size=32,
    batch_size=8,
    num_symbols=4,
    d_head=4,
    layers=1,
)


@pytest.fixture(scope="module")
def sweep_csv_runs(tmp_path_factory):
    """Run the full-grid sweep twice through the CLI; yield both output dirs."""
    dirs = []
    for name in ("first", "second"):
        out = tmp_path_factory.mktemp(f"sweep_{name}")
        code = main(
            [
                "sweep",
                "--config",
                SWEEP_BASE.to_json(),
                "--gammas",
                ",".join(str(g) for g in PAPER_GAMMAS),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        dirs.append(out)
    return dirs


def test_criterion_09_gamma_sweep_shape(sweep_csv_runs):
    csv = (sweep_csv_runs[0] / "sweep.csv").read_text()
    lines = csv.strip().splitlines()
    data = lines[2:]  # header comment + column names
    assert len(data) == 7
    assert [row.split(",")[0] for row in data] == [str(g) for g in PAPER_GAMMAS]

    zero_row = gamma_sweep(SWEEP_BASE, [0.0])[0]
    baseline = train_trial(replace(SWEEP_BASE, pe_mode=PeMode.ROPE_ONLY, gamma=0.0))
    assert zero_row.loss_curve == baseline.loss_curve
    assert zero_row.accuracy == baseline.accuracy
    announce(9, "sweep emits 7 rows over the standard gamma grid; gamma=0 row equals rope_only bitwise")


def test_criterion_10_determinism(sweep_csv_runs, capsys):
    first, second = sweep_csv_runs
    for name in ("sweep.csv", "reports.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()

    outputs = []
    for _ in range(2):
        assert main(["selftest"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    announce(10, "selftest stdout and sweep outputs byte-identical across consecutive runs")
