import gc
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

import frameattn.attention
import frameattn.harness
import frameattn.model
from frameattn.attention import AttentionConfig, PeMode, attention_forward, plan_attention
from frameattn.gradcheck import model_fd_error, relative_error
from frameattn.harness import TrialConfig, setup_trial, train_trial
from frameattn.layout import build_layout
from frameattn.masks import MaskKind
from frameattn.model import ModelConfig, TinyModel
from frameattn.numerics import make_rng
from frameattn.tasks import Task, gen_task

LAYOUT = build_layout(1, 2, 2, 3)  # T=8
MODEL_CFG = ModelConfig(layers=1, num_heads=1, d_head=4, vocab_size=7, num_classes=4)
ATTN_CFG = AttentionConfig(
    d_head=4,
    gamma=1.0,
    mask_kind=MaskKind.FW_BLOCK_CAUSAL,
    pe_mode=PeMode.DUAL_ROPE,
)
PLAN = plan_attention(LAYOUT, ATTN_CFG)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(layers=0, num_heads=1, d_head=4, vocab_size=4, num_classes=2)
    with pytest.raises(ValueError):
        ModelConfig(layers=5, num_heads=1, d_head=4, vocab_size=4, num_classes=2)
    fields = dict(layers=1, num_heads=1, d_head=4, vocab_size=4, num_classes=2, ff_hidden=0)
    for name in fields:
        for bad in (2.5, True, "2"):
            with pytest.raises(ValueError, match=name):
                ModelConfig(**dict(fields, **{name: bad}))
    cfg = ModelConfig(layers=2, num_heads=3, d_head=4, vocab_size=4, num_classes=2)
    assert cfg.embed_dim == 12
    assert cfg.ff_hidden == 24


def test_init_is_seed_deterministic():
    a = TinyModel(MODEL_CFG, seed=5)
    b = TinyModel(MODEL_CFG, seed=5)
    c = TinyModel(MODEL_CFG, seed=6)
    assert set(a.params) == set(b.params)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])
    assert any(not np.array_equal(a.params[n], c.params[n]) for n in a.params)


def test_init_bounds_follow_fan_in():
    model = TinyModel(MODEL_CFG, seed=1)
    d = MODEL_CFG.embed_dim
    for name, param in model.params.items():
        fan_in = MODEL_CFG.ff_hidden if name.endswith("w_ff2") else d
        assert np.abs(param).max() <= 1.0 / math.sqrt(fan_in)


def test_params_are_views_that_tile_the_flat_buffer_in_init_order():
    cfg = ModelConfig(layers=2, num_heads=2, d_head=4, vocab_size=7, num_classes=3)
    tiny = TinyModel(cfg, seed=11)
    names = ["embed"]
    names += [f"layer{i}.{n}" for i in range(2) for n in ("w_q", "w_k", "w_v", "w_o", "w_ff1", "w_ff2")]
    assert list(tiny.params) == names + ["w_out"]
    assert tiny.flat.dtype == np.float64 and tiny.flat.ndim == 1 and tiny.flat.flags.c_contiguous
    rng = make_rng(11, 0)  # the init draws: one stream, in the order above
    offset, offsets = 0, {}
    for name, view in tiny.params.items():
        assert np.shares_memory(view, tiny.flat)
        assert view.flags.c_contiguous
        assert view.ctypes.data - tiny.flat.ctypes.data == offset * tiny.flat.itemsize  # no gap, no overlap
        offsets[name] = offset
        offset += view.size
        bound = 1.0 / math.sqrt(cfg.ff_hidden if name.endswith("w_ff2") else cfg.embed_dim)
        assert np.array_equal(view, rng.uniform(-bound, bound, size=view.shape))
    assert offset == tiny.flat.size
    before = tiny.flat.copy()
    tiny.params["layer1.w_ff2"][2, 3] = 123.0
    tiny.params["embed"][0] *= 2.0
    changed = np.flatnonzero(tiny.flat != before).tolist()
    assert changed == list(range(cfg.embed_dim)) + [offsets["layer1.w_ff2"] + 2 * cfg.embed_dim + 3]
    assert tiny.flat[changed[-1]] == 123.0
    grad = np.arange(tiny.flat.size, dtype=np.float64)
    for name, view in tiny.views(grad).items():
        assert np.array_equal(view, grad[offsets[name] : offsets[name] + view.size].reshape(view.shape))
    with pytest.raises(ValueError, match="flat vector"):
        tiny.views(grad[:-1])


def test_flat_momentum_update_matches_the_per_parameter_rule(monkeypatch):
    # train_trial's flat update gives bitwise the parameters of the literal
    # per-parameter momentum loop it replaced, after 5 steps.
    cfg = TrialConfig(
        task=Task.FRAME_ORDER, layout=LAYOUT, steps=5, train_size=8, eval_size=4, batch_size=3, num_symbols=4, d_head=4
    )
    trained = []

    class Recorded(TinyModel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            trained.append(self)

    monkeypatch.setattr(frameattn.harness, "TinyModel", Recorded)
    report = train_trial(cfg)
    train, _, ref, plan = setup_trial(cfg)
    batch_rng = make_rng(cfg.seed, 3)
    velocity = {k: np.zeros_like(v) for k, v in ref.params.items()}
    curve = []
    for _ in range(cfg.steps):
        idx = batch_rng.integers(0, len(train), size=cfg.batch_size)
        loss, grad = ref.loss_and_grads(train.tokens[idx], train.labels[idx], plan)
        curve.append(loss)
        for k, g in ref.views(grad).items():
            velocity[k] = cfg.momentum * velocity[k] + g
            ref.params[k] -= cfg.lr * velocity[k]
    assert report.loss_curve == curve
    assert trained[0].flat.tobytes() == ref.flat.tobytes()
    assert not np.array_equal(ref.flat, setup_trial(cfg)[2].flat)


def test_forward_loss_is_finite():
    model = TinyModel(MODEL_CFG, seed=2)
    data = gen_task(Task.FRAME_ORDER, LAYOUT, 3, 4, num_symbols=4)
    loss, grad = model.loss_and_grads(data.tokens, data.labels, PLAN)
    assert math.isfinite(loss)
    assert loss > 0
    assert grad.shape == model.flat.shape
    assert np.isfinite(grad).all()


def test_gradients_average_over_batch():
    model = TinyModel(MODEL_CFG, seed=3)
    data = gen_task(Task.FRAME_ORDER, LAYOUT, 4, 2, num_symbols=4)
    loss_a, grad_a = model.loss_and_grads(data.tokens[:1], data.labels[:1], PLAN)
    loss_b, grad_b = model.loss_and_grads(data.tokens[1:], data.labels[1:], PLAN)
    loss_ab, grad_ab = model.loss_and_grads(data.tokens, data.labels, PLAN)
    assert abs(loss_ab - (loss_a + loss_b) / 2) < 1e-12
    assert relative_error(grad_ab, (grad_a + grad_b) / 2) < 1e-12


def test_predict_returns_class_index():
    model = TinyModel(MODEL_CFG, seed=4)
    data = gen_task(Task.FRAME_ORDER, LAYOUT, 5, 3, num_symbols=4)
    predictions = model.predict(data.tokens, PLAN)
    assert predictions.shape == (3,)
    assert np.all((0 <= predictions) & (predictions < MODEL_CFG.num_classes))


def test_chunks_do_not_change_results(monkeypatch):
    # Splitting the batch into one-sequence chunks must give the whole-batch
    # loss, gradients and predictions.
    layout = build_layout(1, 2, 2, 1)
    cfg = ModelConfig(layers=2, num_heads=2, d_head=4, vocab_size=7, num_classes=4)
    attn_cfg = AttentionConfig(
        d_head=4, gamma=1.0, mask_kind=MaskKind.FW_BLOCK_CAUSAL, pe_mode=PeMode.TIME_RPE
    )
    plan = plan_attention(layout, attn_cfg, np.linspace(-0.1, 0.1, 5))
    tiny = TinyModel(cfg, seed=8)
    rng = np.random.default_rng(0)  # random final tokens, so the predicted classes differ
    tokens = rng.integers(0, cfg.vocab_size, size=(6, layout.total_len))
    labels = rng.integers(0, cfg.num_classes, size=6)
    assert len(tiny._chunks(tokens)) == 1
    loss, grad = tiny.loss_and_grads(tokens, labels, plan)
    predictions = tiny.predict(tokens, plan)
    assert len(set(predictions.tolist())) > 1
    monkeypatch.setattr("frameattn.model._SCORE_BUDGET", 1)
    assert len(tiny._chunks(tokens)) == 6
    loss_c, grad_c = tiny.loss_and_grads(tokens, labels, plan)
    assert loss_c == pytest.approx(loss, rel=1e-12, abs=0)
    assert relative_error(grad_c, grad) < 1e-12
    assert np.array_equal(tiny.predict(tokens, plan), predictions)


def test_last_layer_query_rows_do_not_change_results(monkeypatch):
    # The last layer computes only its final _QUERY_ROWS rows; computing all T
    # must give the same loss, gradients and predictions.
    layout = build_layout(1, 2, 2, 3)
    cfg = ModelConfig(layers=2, num_heads=2, d_head=4, vocab_size=7, num_classes=4)
    attn_cfg = AttentionConfig(
        d_head=4, gamma=1.0, mask_kind=MaskKind.FW_BLOCK_CAUSAL, pe_mode=PeMode.TIME_APE
    )
    plan = plan_attention(layout, attn_cfg)
    tiny = TinyModel(cfg, seed=9)
    rng = np.random.default_rng(1)
    tokens = rng.integers(0, cfg.vocab_size, size=(6, layout.total_len))
    labels = rng.integers(0, cfg.num_classes, size=6)
    query_rows = []
    real_forward = frameattn.model.attention_forward

    def recorded(q, *args, **kwargs):
        query_rows.append(q.shape[1])
        return real_forward(q, *args, **kwargs)

    monkeypatch.setattr("frameattn.model.attention_forward", recorded)
    results = {}
    for rows in (layout.total_len, 2):
        monkeypatch.setattr("frameattn.model._QUERY_ROWS", rows)
        query_rows.clear()
        loss, grad = tiny.loss_and_grads(tokens, labels, plan)
        results[rows] = loss, grad, tiny.predict(tokens, plan)
        assert query_rows == [layout.total_len, rows] * 2
    (loss, grad, predictions), (loss_r, grad_r, predictions_r) = results.values()
    assert len(set(predictions.tolist())) > 1
    assert relative_error(loss_r, loss) < 1e-12
    assert relative_error(grad_r, grad) < 1e-12
    assert np.array_equal(predictions_r, predictions)


def test_model_gradient_check_micro_config():
    # Full-model analytic gradients vs central differences on the default
    # micro configuration (T=8, one layer, d_head=4).
    err = model_fd_error(seed=123)
    assert err < 1e-3


def test_relative_error_of_a_non_finite_entry_is_inf():
    a = np.array([1.0, 2.0, 3.0])
    for bad in (np.nan, np.inf, -np.inf):
        b = a.copy()
        b[1] = bad
        assert relative_error(b, a) == math.inf
        assert relative_error(a, b) == math.inf
    assert relative_error(np.full(3, np.inf), np.full(3, np.inf)) == math.inf
    assert relative_error(a, a) == 0.0


def test_relative_error_of_empty_arrays_is_zero():
    assert relative_error(np.empty(0), np.empty(0)) == 0.0


def test_model_gradient_check_runs_on_the_trials_own_rpe_bias(monkeypatch):
    # Under time_rpe the check's plan carries the trial's bias table.
    biases = []
    real = frameattn.harness.plan_attention

    def recorded(layout, config, rpe_bias=None):
        biases.append(rpe_bias)
        return real(layout, config, rpe_bias)

    monkeypatch.setattr(frameattn.harness, "plan_attention", recorded)
    assert model_fd_error(seed=3, pe_mode=PeMode.TIME_RPE) < 1e-3
    assert len(biases) == 1 and biases[0] is not None and biases[0].shape == (17,)


def test_model_gradient_check_two_layers_multi_head():
    err = model_fd_error(seed=7, layers=2, num_heads=2, mask_kind=MaskKind.CAUSAL, pe_mode=PeMode.ROPE_ONLY)
    assert err < 1e-3


def test_one_plan_per_trial(monkeypatch):
    # A trial builds one plan, which every step, layer, chunk and the eval
    # share, so the mask and the positions are built once per trial.
    calls = {"build_mask": 0, "adjusted_positions": 0}

    def counted(name):
        real = getattr(frameattn.attention, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(frameattn.attention, name, wrapper)

    counted("build_mask")
    counted("adjusted_positions")
    monkeypatch.setattr("frameattn.model._SCORE_BUDGET", 1)
    cfg = TrialConfig(
        task=Task.FRAME_ORDER, layout=LAYOUT, steps=3, train_size=6, eval_size=4, batch_size=3, num_symbols=4, d_head=4
    )
    assert cfg.layers == 2 and cfg.batch_size > 1  # every step runs in several chunks
    report = train_trial(cfg)
    assert all(math.isfinite(x) for x in report.loss_curve)
    assert calls == {"build_mask": 1, "adjusted_positions": 1}


def test_train_trial_starts_from_setup_trial(monkeypatch):
    # The initial model, plan (time_rpe bias included) and datasets a trial
    # trains and evaluates on are bitwise those setup_trial returns.
    cfg = TrialConfig(
        task=Task.FRAME_ORDER, layout=LAYOUT, pe_mode=PeMode.TIME_RPE, steps=3, train_size=8, eval_size=4,
        batch_size=3, num_symbols=4, d_head=4,
    )
    initial, plans, datasets = [], [], []

    class Recorded(TinyModel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            initial.append(self.flat.copy())

        def loss_and_grads(self, tokens, labels, plan):
            plans.append(plan)
            return super().loss_and_grads(tokens, labels, plan)

        def predict(self, tokens, plan):
            plans.append(plan)
            return super().predict(tokens, plan)

    def recorded_gen_task(*args):
        datasets.append(gen_task(*args))
        return datasets[-1]

    monkeypatch.setattr(frameattn.harness, "TinyModel", Recorded)
    monkeypatch.setattr(frameattn.harness, "gen_task", recorded_gen_task)
    train_trial(cfg)
    monkeypatch.undo()
    train, eval_set, model, plan = setup_trial(cfg)
    assert len(initial) == 1 and initial[0].tobytes() == model.flat.tobytes()
    assert [d.to_bytes() for d in datasets] == [train.to_bytes(), eval_set.to_bytes()]
    assert len(plans) == cfg.steps + 1 and all(p is plans[0] for p in plans)
    used = plans[0]
    assert (used.layout, used.config) == (plan.layout, plan.config)
    assert used.rotation.cos.tobytes() == plan.rotation.cos.tobytes()
    assert used.rotation.sin.tobytes() == plan.rotation.sin.tobytes()
    assert len(used.tiles) == len(plan.tiles)
    columns = np.arange(LAYOUT.total_len)
    for got, want in zip(used.tiles, plan.tiles):
        assert got[:2] == want[:2] and columns[got[2]].tobytes() == columns[want[2]].tobytes()
        assert got[3].tobytes() == want[3].tobytes()
        assert got[4] is not None and got[4].tobytes() == want[4].tobytes()


def test_plan_must_match_layout_and_config():
    rng = np.random.default_rng(10)
    q = rng.standard_normal((1, LAYOUT.total_len, 4))
    assert np.array_equal(
        attention_forward(q, q, q, LAYOUT, ATTN_CFG, plan=PLAN).output,
        attention_forward(q, q, q, LAYOUT, ATTN_CFG).output,
    )
    with pytest.raises(ValueError, match="plan"):
        attention_forward(q, q, q, LAYOUT, ATTN_CFG, plan=plan_attention(build_layout(2, 2, 1, 2), ATTN_CFG))
    with pytest.raises(ValueError, match="plan"):
        attention_forward(q, q, q, LAYOUT, replace(ATTN_CFG, mask_kind=MaskKind.CAUSAL), plan=PLAN)


# The grid_t6 benchmark's trials (T=6, one layer, batch 8) and the
# criterion-08 dual_rope + fw_block_causal arm (T=20, two layers, batch 16).
GRID_T6 = TrialConfig(
    task=Task.FRAME_ORDER, layout=build_layout(1, 2, 2, 1), steps=25, train_size=32, eval_size=32,
    batch_size=8, num_symbols=4, d_head=4, layers=1,
)
CRITERION_08 = TrialConfig(task=Task.FRAME_ORDER, layout=build_layout(2, 4, 4, 2), steps=600)


@pytest.mark.parametrize("mask", list(MaskKind))
def test_training_and_prediction_never_build_dense_weights(monkeypatch, mask):
    # T=70 in tiles of 16 rows, two sequences per chunk: every layer-0 call
    # runs five tiles, and the batch runs in two chunks.
    monkeypatch.setattr(frameattn.attention, "_TILE_ROWS", 16)
    monkeypatch.setattr(frameattn.model, "_SCORE_BUDGET", 2 * 2 * 70 * 70)
    cfg = TrialConfig(task=Task.FRAME_ORDER, layout=build_layout(2, 4, 16, 4), mask_kind=mask, steps=1,
                      train_size=4, eval_size=4, batch_size=4)
    train, eval_set, model, plan = setup_trial(cfg)
    results = []

    def recording(*args, **kwargs):
        results.append(attention_forward(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(frameattn.model, "attention_forward", recording)
    model.loss_and_grads(train.tokens, train.labels, plan)
    model.predict(eval_set.tokens, plan)
    assert len(results) == 8  # two layers, two chunks, twice
    assert sorted({len(res.tile_weights) for res in results}) == [1, 5]
    assert not any("weights" in vars(res) for res in results)


# Before reductions called ufunc methods and the model, layout and plan
# lookups were built once, a step made 169 calls on GRID_T6 and 304 on
# CRITERION_08; now 48 and 85 (numpy 2.4). A time_ape step made one call
# more than dual_rope while it built its APE rows per call; now 48 too, as
# does a time_rpe step with its trial's bias. A lockstep step of GRID_T6's
# five pe modes made 81 calls while it rotated each cell's heads in its own
# rotate_rows call; with one call over a stacked table it makes 48, as does
# a stack of all 20 mask x pe mode cells, against 20 * 48 one by one.
@pytest.mark.parametrize(
    ("cfgs", "bound"),
    [
        ([GRID_T6], 55),
        ([replace(GRID_T6, pe_mode=PeMode.TIME_APE)], 55),
        ([replace(GRID_T6, pe_mode=PeMode.TIME_RPE)], 55),
        ([CRITERION_08], 95),
        ([replace(GRID_T6, pe_mode=pm) for pm in PeMode], 48),
        ([replace(GRID_T6, mask_kind=mk, pe_mode=pm) for mk in MaskKind for pm in PeMode], 48),
    ],
    ids=["grid_t6", "grid_t6_time_ape", "grid_t6_time_rpe", "criterion_08", "grid_t6_lockstep_5", "grid_t6_lockstep_20"],
)
def test_python_calls_per_training_step(cfgs, bound):
    # A deterministic count of Python-level calls in one loss_and_grads step
    # gates per-call overhead, which timing noise hides at these sizes.
    assert len(cfgs) in (5, 20) or cfgs[0].pe_mode in (PeMode.DUAL_ROPE, PeMode.TIME_APE, PeMode.TIME_RPE)
    assert len(cfgs) == 20 or all(cfg.mask_kind is MaskKind.FW_BLOCK_CAUSAL for cfg in cfgs)
    parts = [setup_trial(cfg) for cfg in cfgs]
    train, _, model, plan = parts[0]
    if len(cfgs) > 1:  # the stacked step of a lockstep group
        model = model.with_params(np.repeat(model.flat[None], len(cfgs), axis=0))
        plan = tuple(part[3] for part in parts)
    tokens, labels = train.tokens[: cfgs[0].batch_size], train.labels[: cfgs[0].batch_size]
    model.loss_and_grads(tokens, labels, plan)  # the first step fills what later steps reuse
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    gc.disable()  # no finalizer may run inside the count
    sys.setprofile(count)
    try:
        model.loss_and_grads(tokens, labels, plan)
    finally:
        sys.setprofile(None)
        gc.enable()
    assert 0 < calls <= bound


def test_a_stack_of_cells_gives_each_cell_its_own_results_bitwise():
    # Two layers, time_rpe with its trial's bias and time_ape among the cells, and a stack
    # that is not the identity: every cell starts from other parameters.
    base = replace(CRITERION_08, batch_size=6)
    cfgs = [replace(base, pe_mode=pm, gamma=g) for pm in PeMode for g in (0.5, 2.0)]
    parts = [setup_trial(cfg) for cfg in cfgs]
    train, eval_set, model, _ = parts[0]
    rng = np.random.default_rng(0)
    stack = model.flat + rng.uniform(-0.01, 0.01, (len(cfgs), len(model.flat)))
    plans = tuple(part[3] for part in parts)
    stacked = model.with_params(stack)
    tokens, labels = train.tokens[:6], train.labels[:6]
    losses, grads = stacked.loss_and_grads(tokens, labels, plans)
    predictions = stacked.predict(eval_set.tokens, plans)
    assert losses.shape == (len(cfgs),) and grads.shape == stack.shape and predictions.shape == (len(cfgs), len(eval_set))
    for row, cell_plan, loss, grad, predicted in zip(stack, plans, losses, grads, predictions):
        alone = model.with_params(row.copy())
        want_loss, want_grad = alone.loss_and_grads(tokens, labels, cell_plan)
        assert loss.item() == want_loss and grad.tobytes() == want_grad.tobytes()
        assert np.array_equal(predicted, alone.predict(eval_set.tokens, cell_plan))


def test_a_stack_takes_one_plan_per_cell():
    train, _, model, plan = setup_trial(GRID_T6)
    stacked = model.with_params(np.repeat(model.flat[None], 2, axis=0))
    tokens, labels = train.tokens[:2], train.labels[:2]
    for bad in (plan, (plan,), (plan, plan, plan)):
        with pytest.raises(ValueError, match="a stack of 2 cells takes a tuple of 2 plans"):
            stacked.loss_and_grads(tokens, labels, bad)
    # At T=6 the one tile spans every key column under any mask, so cells may differ in mask.
    causal = setup_trial(replace(GRID_T6, mask_kind=MaskKind.CAUSAL))[3]
    losses, _ = stacked.loss_and_grads(tokens, labels, (plan, causal))
    assert losses.tolist() == [model.loss_and_grads(tokens, labels, p)[0] for p in (plan, causal)]
    # Cells of another layout or d_head, or whose tiles differ in key columns, do not stack: at T=68 the
    # first tile, which two layers' layer 0 runs, spans 66 columns under fw_block_causal and 64 under causal.
    long = replace(GRID_T6, layout=build_layout(2, 4, 16, 2), layers=2, batch_size=2)
    long_train, _, long_model, long_plan = setup_trial(long)
    long_causal = frameattn.harness._plan(replace(long, mask_kind=MaskKind.CAUSAL))
    assert (long_plan.tiles[0][2], long_causal.tiles[0][2]) == (slice(0, 66), slice(0, 64))
    others = [
        (stacked, train, (plan, frameattn.harness._plan(replace(GRID_T6, layout=build_layout(1, 2, 2, 2))))),
        (stacked, train, (plan, frameattn.harness._plan(replace(GRID_T6, d_head=6)))),
        (long_model.with_params(np.repeat(long_model.flat[None], 2, axis=0)), long_train, (long_plan, long_causal)),
    ]
    for bad_model, data, plans in others:
        with pytest.raises(ValueError, match="plan was built for another layout or config"):
            bad_model.loss_and_grads(data.tokens[:2], data.labels[:2], plans)
    for bad in (model.flat[:-1], model.flat.astype(np.float32), model.flat.reshape(1, 1, -1), model.flat.tolist()):
        with pytest.raises(ValueError, match="float64 vector"):
            model.with_params(bad)
