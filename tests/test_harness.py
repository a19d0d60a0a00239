import concurrent.futures
import json
import math
import multiprocessing
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frameattn.harness as harness
import frameattn.model as model
from frameattn.attention import AttentionConfig, PeMode
from frameattn.harness import (
    GRID_COLUMNS,
    REPORT_HEADER,
    SWEEP_COLUMNS,
    TrialConfig,
    ablation_grid,
    gamma_sweep,
    grid_summary,
    run_trials,
    train_trial,
    trials_csv,
)
from frameattn.layout import SequenceLayout, build_layout
from frameattn.masks import MaskKind
from frameattn.numerics import NonFiniteError
from frameattn.tasks import Task, num_classes, vocab_size

TINY = TrialConfig(
    task=Task.LAST_FRAME_RECALL,
    layout=build_layout(1, 2, 2, 1),
    steps=6,
    train_size=12,
    eval_size=12,
    batch_size=4,
    num_symbols=4,
    d_head=4,
    layers=1,
)


def test_attention_defaults_agree_with_trial_config_defaults():
    # The heatmap config takes AttentionConfig's defaults, a trial config its
    # own: one default trial and one default attention config must agree.
    assert AttentionConfig() == TrialConfig(task=Task.FRAME_ORDER, layout=build_layout(1, 2, 2, 1)).attention_config()


def test_attention_and_model_configs_are_derived_field_by_field():
    # Every attention and model field away from its default, so a value dropped or crossed shows.
    cfg = TrialConfig(
        task=Task.FRAME_ORDER,
        layout=build_layout(1, 3, 2, 1),
        pe_mode=PeMode.TIME_RPE,
        mask_kind=MaskKind.FW_BLOCK,
        gamma=0.5,
        layers=3,
        num_heads=3,
        d_head=6,
        ff_hidden=7,
        num_symbols=9,
        rope_base=500.0,
        strict_monotonic_suffix=True,
        fw_block_causal_within_frame=True,
    )
    # Every other field is passed by name, so it must be a trial field too.
    derived = {"base", "vocab_size", "num_classes"}
    shared = (AttentionConfig.__dataclass_fields__.keys() | model.ModelConfig.__dataclass_fields__.keys()) - derived
    assert shared <= TrialConfig.__dataclass_fields__.keys()
    for name in shared | {"rope_base"}:
        assert getattr(cfg, name) != TrialConfig.__dataclass_fields__[name].default, name
    assert cfg.attention_config() == AttentionConfig(
        d_head=6,
        base=500.0,
        gamma=0.5,
        mask_kind=MaskKind.FW_BLOCK,
        pe_mode=PeMode.TIME_RPE,
        strict_monotonic_suffix=True,
        fw_block_causal_within_frame=True,
    )
    assert cfg.model_config() == model.ModelConfig(
        layers=3,
        num_heads=3,
        d_head=6,
        vocab_size=vocab_size(9),
        num_classes=num_classes(Task.FRAME_ORDER, cfg.layout, 9),
        ff_hidden=7,
    )


ENUM_REFUSALS = {
    "pe_mode": "unknown PeMode {!r}; valid values: rope_only, time_rope_only, dual_rope, time_ape, time_rpe",
    "mask_kind": "unknown MaskKind {!r}; valid values: causal, full_visual, fw_block, fw_block_causal",
}


@pytest.mark.parametrize("field", list(ENUM_REFUSALS))
@pytest.mark.parametrize("bad", ["bogus", 3, None])
def test_config_refuses_an_enum_field_that_names_no_member(field, bad):
    obj = {**json.loads(TINY.to_json()), field: bad}
    with pytest.raises(ValueError) as info:
        TrialConfig.from_dict(obj)
    assert str(info.value) == ENUM_REFUSALS[field].format(bad)


def test_config_refuses_the_first_bad_enum_field_in_field_order():
    obj = {**json.loads(TINY.to_json()), "mask_kind": "bogus", "pe_mode": 3}
    with pytest.raises(ValueError) as info:
        TrialConfig.from_dict(obj)
    assert str(info.value) == ENUM_REFUSALS["pe_mode"].format(3)


def test_config_rejects_zero_steps():
    with pytest.raises(ValueError):
        replace(TINY, steps=0)


def test_config_json_round_trip():
    cfg = replace(TINY, pe_mode=PeMode.TIME_RPE, mask_kind=MaskKind.FW_BLOCK, gamma=0.5)
    again = TrialConfig.from_json(cfg.to_json())
    assert again == cfg


def test_config_json_rejects_unknown_fields():
    obj = json.loads(TINY.to_json())
    obj["optimizer"] = "adam"
    with pytest.raises(ValueError):
        TrialConfig.from_dict(obj)


finite = st.floats(-1e6, 1e6, allow_nan=False)
small = st.integers(1, 10_000)
trial_configs = st.builds(
    TrialConfig,
    task=st.sampled_from(Task),
    layout=st.builds(build_layout, st.integers(0, 5), st.integers(1, 5), st.integers(1, 5), st.integers(0, 5)),
    pe_mode=st.sampled_from(PeMode),
    mask_kind=st.sampled_from(MaskKind),
    gamma=finite,
    seed=st.integers(0, 2**63 - 1),
    steps=small,
    lr=finite,
    momentum=finite,
    layers=st.integers(1, 4),
    num_heads=small,
    d_head=st.integers(1, 64).map(lambda h: 2 * h),
    ff_hidden=st.integers(0, 10_000),
    num_symbols=st.integers(5, 10_000),  # frame_order needs a symbol per frame, up to 5 frames
    rope_base=st.floats(1.5, 1e6),
    train_size=small,
    eval_size=small,
    batch_size=small,
    converge_threshold=finite,
    rpe_radius=small,
    rpe_scale=st.floats(0, 1e6),
    strict_monotonic_suffix=st.booleans(),
    fw_block_causal_within_frame=st.booleans(),
)


@given(trial_configs)
@settings(max_examples=100, deadline=None)
def test_config_json_round_trip_property(cfg):
    assert TrialConfig.from_json(cfg.to_json()) == cfg


@pytest.mark.parametrize("field", ["seed", "steps", "batch_size"])
@pytest.mark.parametrize("bad", [1.5, 2.0, "1", True])
def test_config_rejects_non_integer_fields(field, bad):
    obj = {**json.loads(TINY.to_json()), field: bad}
    with pytest.raises(ValueError, match=field):
        TrialConfig.from_dict(obj)


@pytest.mark.parametrize("field", ["gamma", "lr", "momentum", "rope_base", "converge_threshold", "rpe_scale"])
@pytest.mark.parametrize("bad", ["1.5", True, None, math.nan, math.inf])
def test_config_rejects_non_number_float_fields(field, bad):
    obj = {**json.loads(TINY.to_json()), field: bad}
    with pytest.raises(ValueError, match=field):
        TrialConfig.from_dict(obj)


@pytest.mark.parametrize("bad", ["false", 0, None])
def test_config_rejects_non_bool_flags(bad):
    obj = {**json.loads(TINY.to_json()), "strict_monotonic_suffix": bad}
    with pytest.raises(ValueError, match="strict_monotonic_suffix"):
        TrialConfig.from_dict(obj)


@pytest.mark.parametrize(
    "field, bad, match",
    [
        ("layers", 5, "layers"),
        ("d_head", 3, "d_head"),
        ("rope_base", 1.0, "base"),
        ("gamma", 1e308, "gamma"),  # rotation positions overflow
        ("rpe_scale", 1e308, "rpe_scale"),  # the bias draw's range overflows
        ("rpe_scale", -1, "rpe_scale"),
        ("num_symbols", 1, "num_symbols"),  # last_frame_recall needs a distinct last-frame symbol
    ],
)
def test_config_rejects_configs_that_cannot_run(field, bad, match):
    # A config that could never run is rejected at parse time, not in the first trial.
    obj = {**json.loads(TINY.to_json()), field: bad}
    with pytest.raises(ValueError, match=match):
        TrialConfig.from_dict(obj)
    with pytest.raises(ValueError, match=match):
        replace(TINY, **{field: bad})


def test_config_rejects_too_few_symbols_for_frame_order():
    # One identifying symbol per frame: 2 symbols cannot name 4 frames.
    cfg = replace(TINY, task=Task.FRAME_ORDER, layout=build_layout(1, 4, 2, 1), num_symbols=4)
    with pytest.raises(ValueError, match=r"num_symbols >= num_frames \(2 < 4\)"):
        replace(cfg, num_symbols=2)
    with pytest.raises(ValueError, match="num_symbols"):
        TrialConfig.from_dict({**json.loads(cfg.to_json()), "num_symbols": 3})


@pytest.mark.parametrize("task", list(Task))
def test_config_rejects_layout_without_frames(task):
    with pytest.raises(ValueError, match=f"{task.value} needs at least one frame"):
        replace(TINY, task=task, layout=build_layout(2, 0, 0, 2))


def test_unknown_layout_field_named_on_both_paths():
    layout = {**json.loads(TINY.layout.to_json()), "fps": 30}
    with pytest.raises(ValueError, match="fps"):
        SequenceLayout.from_dict(layout)
    with pytest.raises(ValueError, match="fps"):
        TrialConfig.from_dict({**json.loads(TINY.to_json()), "layout": layout})


def test_single_step_trial():
    report = train_trial(replace(TINY, steps=1))
    assert len(report.loss_curve) == 1
    assert math.isfinite(report.loss_curve[0])
    assert 0.0 <= report.accuracy <= 1.0
    assert report.wall_ms > 0


def test_trial_determinism():
    a = train_trial(TINY)
    b = train_trial(TINY)
    assert a.to_json() == b.to_json()
    assert a.wall_ms != 0  # measured, but excluded from the comparison payload
    assert "wall_ms" not in a.result_dict()


def test_trial_seed_changes_results():
    a = train_trial(TINY)
    b = train_trial(replace(TINY, seed=1))
    assert a.loss_curve != b.loss_curve


@pytest.mark.parametrize("task", list(Task))
def test_baseline_loss_decreases_over_first_50_steps(task):
    # Per-batch losses are stochastic, so compare the mean of the first and
    # last ten steps rather than two single samples.
    layout = build_layout(2, 4, 4, 2)
    drops = []
    for seed in (0, 1, 2, 3, 4):
        cfg = TrialConfig(
            task=task,
            layout=layout,
            pe_mode=PeMode.ROPE_ONLY,
            mask_kind=MaskKind.CAUSAL,
            seed=seed,
            steps=50,
            eval_size=8,
        )
        curve = train_trial(cfg).loss_curve
        drops.append(sum(curve[:10]) / 10 - sum(curve[-10:]) / 10)
    assert statistics.median(drops) > 0


def test_golden_baseline_last_frame_recall():
    # Frozen reference run: plain causal + global rotary on last_frame_recall
    # at T=30. Chance is 1/8; the exact accuracy is pinned because trials
    # are deterministic.
    cfg = TrialConfig(
        task=Task.LAST_FRAME_RECALL,
        layout=build_layout(3, 4, 6, 3),
        pe_mode=PeMode.ROPE_ONLY,
        mask_kind=MaskKind.CAUSAL,
        seed=0,
        steps=500,
    )
    report = train_trial(cfg)
    assert report.accuracy > 1.0 / 8.0
    assert report.accuracy == 0.9765625
    assert report.converged


def test_configs_holding_numpy_scalars_serialise_as_python_values():
    cfg = TrialConfig(task=Task.FRAME_ORDER, layout=build_layout(*np.array([1, 2, 2, 1])), seed=np.int64(3),
                      gamma=np.float32(0.5), lr=np.float64(0.01), strict_monotonic_suffix=np.bool_(True))
    assert cfg.to_json() == replace(cfg, layout=build_layout(1, 2, 2, 1), seed=3, gamma=0.5, lr=0.01,
                                    strict_monotonic_suffix=True).to_json()
    assert type(cfg.seed) is int and type(cfg.layout.num_frames) is int and type(cfg.gamma) is float
    assert TrialConfig.from_json(cfg.to_json()) == cfg
    base = replace(TINY, steps=2)
    numpy_seeds = ablation_grid(base, [Task.FRAME_ORDER], [MaskKind.CAUSAL], [PeMode.ROPE_ONLY], np.arange(2))
    int_seeds = ablation_grid(base, [Task.FRAME_ORDER], [MaskKind.CAUSAL], [PeMode.ROPE_ONLY], [0, 1])
    assert [r.to_json() for r in numpy_seeds] == [r.to_json() for r in int_seeds]


def test_divergent_trial_reports_without_crashing():
    report = train_trial(replace(TINY, lr=1e9, steps=8))
    assert not report.converged
    assert len(report.loss_curve) == 8
    assert any(not math.isfinite(x) for x in report.loss_curve)
    assert 0.0 <= report.accuracy <= 1.0


def test_kernel_errors_are_not_divergence(monkeypatch):
    # Only non-finite values mean divergence; any other kernel error is a bug and propagates,
    # numpy's own float errors included: a trial never lets numpy raise them.
    def failing(error):
        def fail(*args, **kwargs):
            raise error("kernel failure")

        return fail

    for error in (ValueError, FloatingPointError, OverflowError):
        monkeypatch.setattr(model, "attention_forward", failing(error))
        with pytest.raises(error, match="kernel failure"):
            train_trial(replace(TINY, steps=2))
    monkeypatch.setattr(model, "attention_forward", failing(NonFiniteError))
    report = train_trial(replace(TINY, steps=2))
    assert not report.converged
    assert all(math.isnan(x) for x in report.loss_curve)
    # A non-finite eval scores every sample as wrong and keeps the trained curve.
    monkeypatch.undo()
    trained = train_trial(replace(TINY, steps=3))
    for error in (ValueError, FloatingPointError, OverflowError):
        monkeypatch.setattr(model.TinyModel, "predict", failing(error))
        with pytest.raises(error, match="kernel failure"):
            train_trial(replace(TINY, steps=3))
    monkeypatch.setattr(model.TinyModel, "predict", failing(NonFiniteError))
    report = train_trial(replace(TINY, steps=3))
    assert report.accuracy == 0.0 < trained.accuracy
    assert report.loss_curve == trained.loss_curve
    assert all(math.isfinite(x) for x in report.loss_curve)


# The grid_t6 benchmark's config at learning rates high enough that softmax
# rows underflow and training diverges part way through 60 steps.
HIGH_LR = TrialConfig(
    task=Task.FRAME_ORDER, layout=build_layout(1, 2, 2, 1), steps=60, train_size=32, eval_size=32,
    batch_size=8, num_symbols=4, d_head=4, layers=1, lr=1.0,
)


def test_numpy_error_settings_do_not_change_a_report():
    default = train_trial(HIGH_LR)
    assert not default.converged  # it diverges, so its steps meet float errors np.seterr could raise
    with np.errstate(all="raise"):
        assert train_trial(HIGH_LR).to_json() == default.to_json()


def test_numpy_error_settings_do_not_split_serial_from_parallel(monkeypatch):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    configs = [replace(HIGH_LR, lr=lr, seed=s) for lr, s in ((1.0, 0), (3.0, 1), (0.5, 2))]
    # The kept pool's workers are forked under the default settings, so the raise below never reaches them.
    default = [r.to_json() for r in run_trials(configs, 2)]
    with np.errstate(all="raise"):
        assert [r.to_json() for r in run_trials(configs, 1)] == default
        assert [r.to_json() for r in run_trials(configs, 2)] == default


@pytest.mark.parametrize("name,index", [("embed", 0), ("w_out", -1)])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_one_non_finite_gradient_entry_stops_the_trial(monkeypatch, name, index, bad):
    # One NaN or inf in a single slot of the flat gradient, at either end of the
    # buffer, stops the trial at that step before any parameter is updated with it.
    real = model.TinyModel.loss_and_grads
    seen = []

    def poisoned(self, tokens_batch, labels, plan):
        loss, grad = real(self, tokens_batch, labels, plan)
        seen.append(self)
        if len(seen) == 3:
            self.views(grad)[name].flat[index] = bad
        return loss, grad

    monkeypatch.setattr(model.TinyModel, "loss_and_grads", poisoned)
    report = train_trial(TINY)
    assert len(seen) == 3
    assert all(math.isfinite(x) for x in report.loss_curve[:3])
    assert all(math.isnan(x) for x in report.loss_curve[3:])
    assert len(report.loss_curve) == TINY.steps
    assert not report.converged
    assert np.isfinite(seen[-1].flat).all()


def test_gamma_sweep_seven_values():
    gammas = [0.1, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0]
    reports = gamma_sweep(TINY, gammas)
    assert [r.config.gamma for r in reports] == gammas
    csv = trials_csv(reports, SWEEP_COLUMNS)
    assert csv.startswith(REPORT_HEADER)
    assert len(csv.strip().splitlines()) == 2 + 7  # header comment + column row + 7 rows


def test_gamma_zero_row_matches_rope_only_bitwise():
    swept = gamma_sweep(replace(TINY, pe_mode=PeMode.DUAL_ROPE), [0.0])[0]
    baseline = train_trial(replace(TINY, pe_mode=PeMode.ROPE_ONLY, gamma=0.0))
    assert swept.loss_curve == baseline.loss_curve
    assert swept.accuracy == baseline.accuracy


def test_sweep_parallel_matches_serial():
    serial = gamma_sweep(TINY, [0.0, 1.0], workers=1)
    parallel = gamma_sweep(TINY, [0.0, 1.0], workers=2)
    assert [r.to_json() for r in serial] == [r.to_json() for r in parallel]


def test_ablation_grid_cardinality_and_marking():
    reports = ablation_grid(
        TINY,
        tasks=[Task.LAST_FRAME_RECALL],
        mask_kinds=list(MaskKind),
        pe_modes=[PeMode.DUAL_ROPE],
        seeds=[0, 1, 2],
    )
    assert len(reports) == 12
    summary = grid_summary(reports)
    assert summary.startswith(REPORT_HEADER)
    # six-step trials cannot converge, so every cell is flagged
    assert summary.count("UNCONVERGED 3/3") == 4
    csv = trials_csv(reports, GRID_COLUMNS)
    assert len(csv.strip().splitlines()) == 2 + 12


def test_grid_summary_lists_each_tasks_own_cells_ranked_by_median_accuracy():
    tasks = [Task.LAST_FRAME_RECALL, Task.FRAME_ORDER]
    base = replace(TINY, steps=15, lr=0.5, train_size=24, eval_size=24)
    reports = ablation_grid(base, tasks, [MaskKind.CAUSAL, MaskKind.FULL_VISUAL], [PeMode.TIME_APE, PeMode.ROPE_ONLY],
                            seeds=[0, 1])
    lines = grid_summary(reports).splitlines()
    assert lines[0] == REPORT_HEADER
    blocks: dict[str, list[str]] = {}
    for line in lines[1:]:
        if line.startswith("task "):
            rows = blocks[line.removeprefix("task ")] = []
        else:
            rows.append(line)
    assert list(blocks) == ["frame_order", "last_frame_recall"]
    orders = []
    for task in tasks:
        cells: dict[tuple[str, str], list[float]] = {}
        for r in reports:
            if r.config.task is task:
                cells.setdefault((r.config.mask_kind.value, r.config.pe_mode.value), []).append(r.accuracy)
        order = sorted(cells, key=lambda cell: (-statistics.median(cells[cell]), cell))
        assert [tuple(row.split()[:2]) for row in blocks[task.value]] == order
        assert [row.split()[2] for row in blocks[task.value]] == [
            f"median_acc={statistics.median(cells[cell])!r}" for cell in order
        ]
        orders.append(order)
    assert orders[0] != orders[1]  # each block is ranked by its own accuracies


def test_ablation_grid_covers_time_ape_and_time_rpe():
    reports = ablation_grid(
        TINY,
        tasks=[Task.LAST_FRAME_RECALL],
        mask_kinds=[MaskKind.CAUSAL],
        pe_modes=[PeMode.TIME_APE, PeMode.TIME_RPE],
        seeds=[0],
    )
    modes = {r.config.pe_mode for r in reports}
    assert modes == {PeMode.TIME_APE, PeMode.TIME_RPE}
    assert all(math.isfinite(r.loss_curve[-1]) for r in reports)


def test_ablation_grid_rejects_empty_axis():
    with pytest.raises(ValueError):
        ablation_grid(TINY, tasks=[], mask_kinds=[MaskKind.CAUSAL], pe_modes=[PeMode.DUAL_ROPE], seeds=[0])


def test_time_rpe_trial_runs():
    report = train_trial(replace(TINY, pe_mode=PeMode.TIME_RPE))
    assert len(report.loss_curve) == TINY.steps
    assert math.isfinite(report.loss_curve[-1])


def test_trials_csv_rows_follow_the_column_list():
    report = train_trial(replace(TINY, steps=1))
    c = report.config
    lines = trials_csv([report], ("seed", "gamma", "task", "converged", "final_loss")).splitlines()
    assert lines[1] == "seed,gamma,task,converged,final_loss"
    assert lines[2] == f"{c.seed},{c.gamma!r},{c.task.value},{int(report.converged)},{report.loss_curve[-1]!r}"


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("cpus,workers,pool_size", [(2, 64, 2), (4, 3, 3), (1, 8, None), (None, 8, None)])
def test_run_trials_clamps_workers_to_cpu_count(monkeypatch, cpus, workers, pool_size):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(harness, "train_trial", lambda cfg: cfg.seed)
    # No pool kept from an earlier test; the real one comes back when the test ends.
    monkeypatch.setattr(harness, "_pool", None)
    _RecordingPool.sizes = []
    for _ in range(2):
        assert run_trials([replace(TINY, seed=s) for s in range(5)], workers) == [0, 1, 2, 3, 4]
    # One pool, made by the first call and kept by the second.
    assert _RecordingPool.sizes == ([] if pool_size is None else [pool_size])


def _worker_pids() -> list[int]:
    return sorted(p.pid for p in multiprocessing.active_children())


def _stall(config):
    """Stands in for train_trial in forked workers: a trial that only ends when its worker is killed."""
    time.sleep(60)


def test_parallel_calls_reuse_the_same_workers(monkeypatch):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    configs = [replace(TINY, seed=s) for s in range(4)]
    run_trials(configs, 2)
    pids = _worker_pids()
    run_trials(configs, 2)
    assert len(pids) == 2 and _worker_pids() == pids


def test_a_call_with_another_worker_count_replaces_the_pool(monkeypatch):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    configs = [replace(TINY, seed=s) for s in range(4)]
    serial = [r.to_json() for r in run_trials(configs, 1)]
    assert [r.to_json() for r in run_trials(configs, 2)] == serial
    first = _worker_pids()
    assert [r.to_json() for r in run_trials(configs, 3)] == serial
    second = _worker_pids()
    assert len(first) == 2 and len(second) == 3 and not set(first) & set(second)
    for pid in first:  # the two-worker pool was shut down and its workers joined
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_parallel_matches_serial_over_consecutive_calls(monkeypatch):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    calls = [
        [replace(TINY, seed=s) for s in range(3)],
        [replace(TINY, pe_mode=pm, mask_kind=mk) for pm in PeMode for mk in (MaskKind.CAUSAL, MaskKind.FW_BLOCK)],
        [replace(TINY, task=Task.FRAME_ORDER, gamma=g) for g in (0.0, 0.5)],
    ]
    for configs in calls:
        parallel = run_trials(configs, 2)
        assert [r.to_json() for r in parallel] == [r.to_json() for r in run_trials(configs, 1)]


def test_a_worker_killed_mid_call_breaks_that_call_and_the_next_forks_a_new_pool(monkeypatch):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    harness._drop_pool()
    real_trial = harness.train_trial
    # Workers forked now run _stall, so the call below cannot finish before the kill.
    monkeypatch.setattr(harness, "train_trial", _stall)
    with concurrent.futures.ThreadPoolExecutor(1) as caller:
        call = caller.submit(run_trials, [TINY] * 4, 2)
        deadline = time.monotonic() + 30
        while len(pids := _worker_pids()) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(pids) == 2
        os.kill(pids[0], signal.SIGKILL)
        assert isinstance(call.exception(timeout=60), concurrent.futures.BrokenExecutor)
    assert harness._pool is None
    monkeypatch.setattr(harness, "train_trial", real_trial)
    configs = [replace(TINY, seed=s) for s in range(3)]
    again = run_trials(configs, 2)
    assert [r.to_json() for r in again] == [r.to_json() for r in run_trials(configs, 1)]
    assert len(_worker_pids()) == 2 and not set(_worker_pids()) & set(pids)


def test_a_forked_child_forks_its_own_pool(monkeypatch):
    # The child's copy of the parent's pool has no thread to hand it results: using it would hang.
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    configs = [replace(TINY, seed=s) for s in range(2)]
    want = [r.to_json() for r in run_trials(configs, 2)]  # the parent now keeps a pool
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if [r.to_json() for r in run_trials(configs, 2)] == want else 1
            harness._drop_pool()  # os._exit skips the atexit hook that would join the child's workers
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while not (done := os.waitpid(pid, os.WNOHANG))[0] and time.monotonic() < deadline:
        time.sleep(0.02)
    if not done[0]:
        os.kill(pid, signal.SIGKILL)
        done = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(done[1]) == 0
    assert [r.to_json() for r in run_trials(configs, 2)] == want


_GRID_SCRIPT = """
import multiprocessing
from frameattn.harness import TrialConfig, ablation_grid
from frameattn.layout import build_layout
from frameattn.masks import MaskKind
from frameattn.attention import PeMode
from frameattn.tasks import Task

base = TrialConfig(task=Task.LAST_FRAME_RECALL, layout=build_layout(1, 2, 2, 1), steps=2, train_size=4,
                   eval_size=4, batch_size=2, num_symbols=4, d_head=4, layers=1)
reports = ablation_grid(base, [base.task], [MaskKind.CAUSAL, MaskKind.FW_BLOCK], [PeMode.DUAL_ROPE], [0, 1], workers=2)
assert len(reports) == 4
print(" ".join(str(p.pid) for p in multiprocessing.active_children()))
"""


def test_a_process_that_ran_a_parallel_grid_exits_cleanly():
    src = str(Path(harness.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-c", _GRID_SCRIPT], env=env, capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    pids = [int(p) for p in proc.stdout.split()]
    assert len(pids) == (2 if (os.cpu_count() or 1) > 1 else 0)
    for pid in pids:  # every worker was joined before the process exited
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


@pytest.mark.parametrize("workers", [0, -1, 1.5, True])
def test_run_trials_rejects_bad_worker_counts(workers):
    with pytest.raises(ValueError, match="workers"):
        run_trials([TINY], workers)
