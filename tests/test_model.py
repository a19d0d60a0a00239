import math
from dataclasses import replace

import numpy as np
import pytest

import frameattn.attention
import frameattn.model
from frameattn.attention import AttentionConfig, PeMode, attention_forward, plan_attention
from frameattn.gradcheck import model_fd_error, relative_error
from frameattn.harness import TrialConfig, train_trial
from frameattn.layout import build_layout
from frameattn.masks import MaskKind
from frameattn.model import ModelConfig, TinyModel
from frameattn.rope import RopeConfig
from frameattn.tasks import Task, gen_task

LAYOUT = build_layout(1, 2, 2, 3)  # T=8
MODEL_CFG = ModelConfig(layers=1, num_heads=1, d_head=4, vocab_size=7, num_classes=4)
ATTN_CFG = AttentionConfig(
    rope=RopeConfig(d_head=4, gamma=1.0),
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


def test_forward_loss_is_finite():
    model = TinyModel(MODEL_CFG, seed=2)
    data = gen_task(Task.FRAME_ORDER, LAYOUT, 3, 4, num_symbols=4)
    loss, grads = model.loss_and_grads(data.tokens, data.labels, PLAN)
    assert math.isfinite(loss)
    assert loss > 0
    assert all(np.all(np.isfinite(g)) for g in grads.values())


def test_gradients_average_over_batch():
    model = TinyModel(MODEL_CFG, seed=3)
    data = gen_task(Task.FRAME_ORDER, LAYOUT, 4, 2, num_symbols=4)
    loss_a, grads_a = model.loss_and_grads(data.tokens[:1], data.labels[:1], PLAN)
    loss_b, grads_b = model.loss_and_grads(data.tokens[1:], data.labels[1:], PLAN)
    loss_ab, grads_ab = model.loss_and_grads(data.tokens, data.labels, PLAN)
    assert abs(loss_ab - (loss_a + loss_b) / 2) < 1e-12
    for name in grads_ab:
        assert relative_error(grads_ab[name], (grads_a[name] + grads_b[name]) / 2) < 1e-12


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
        rope=RopeConfig(d_head=4, gamma=1.0), mask_kind=MaskKind.FW_BLOCK_CAUSAL, pe_mode=PeMode.TIME_RPE
    )
    plan = plan_attention(layout, attn_cfg, np.linspace(-0.1, 0.1, 5))
    tiny = TinyModel(cfg, seed=8)
    rng = np.random.default_rng(0)  # random final tokens, so the predicted classes differ
    tokens = rng.integers(0, cfg.vocab_size, size=(6, layout.total_len))
    labels = rng.integers(0, cfg.num_classes, size=6)
    assert len(tiny._chunks(tokens)) == 1
    loss, grads = tiny.loss_and_grads(tokens, labels, plan)
    predictions = tiny.predict(tokens, plan)
    assert len(set(predictions.tolist())) > 1
    monkeypatch.setattr("frameattn.model._SCORE_BUDGET", 1)
    assert len(tiny._chunks(tokens)) == 6
    loss_c, grads_c = tiny.loss_and_grads(tokens, labels, plan)
    assert loss_c == pytest.approx(loss, rel=1e-12, abs=0)
    for name in grads:
        assert relative_error(grads_c[name], grads[name]) < 1e-12
    assert np.array_equal(tiny.predict(tokens, plan), predictions)


def test_last_layer_query_rows_do_not_change_results(monkeypatch):
    # The last layer computes only its final _QUERY_ROWS rows; computing all T
    # must give the same loss, gradients and predictions.
    layout = build_layout(1, 2, 2, 3)
    cfg = ModelConfig(layers=2, num_heads=2, d_head=4, vocab_size=7, num_classes=4)
    attn_cfg = AttentionConfig(
        rope=RopeConfig(d_head=4, gamma=1.0), mask_kind=MaskKind.FW_BLOCK_CAUSAL, pe_mode=PeMode.TIME_APE
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
        loss, grads = tiny.loss_and_grads(tokens, labels, plan)
        results[rows] = loss, grads, tiny.predict(tokens, plan)
        assert query_rows == [layout.total_len, rows] * 2
    (loss, grads, predictions), (loss_r, grads_r, predictions_r) = results.values()
    assert len(set(predictions.tolist())) > 1
    assert relative_error(loss_r, loss) < 1e-12
    for name in grads:
        assert relative_error(grads_r[name], grads[name]) < 1e-12
    assert np.array_equal(predictions_r, predictions)


def test_model_gradient_check_micro_config():
    # Full-model analytic gradients vs central differences on the default
    # micro configuration (T=8, one layer, d_head=4).
    err = model_fd_error(seed=123)
    assert err < 1e-3


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
