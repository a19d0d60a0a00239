import math
from dataclasses import replace

import numpy as np
import pytest

import frameattn.attention
from frameattn.attention import AttentionConfig, PeMode, attention_forward, plan_attention
from frameattn.gradcheck import model_fd_error, relative_error
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
    loss, grads = model.loss_and_grads(data.tokens, data.labels, LAYOUT, ATTN_CFG)
    assert math.isfinite(loss)
    assert loss > 0
    assert all(np.all(np.isfinite(g)) for g in grads.values())


def test_gradients_average_over_batch():
    model = TinyModel(MODEL_CFG, seed=3)
    data = gen_task(Task.FRAME_ORDER, LAYOUT, 4, 2, num_symbols=4)
    loss_a, grads_a = model.loss_and_grads(data.tokens[:1], data.labels[:1], LAYOUT, ATTN_CFG)
    loss_b, grads_b = model.loss_and_grads(data.tokens[1:], data.labels[1:], LAYOUT, ATTN_CFG)
    loss_ab, grads_ab = model.loss_and_grads(data.tokens, data.labels, LAYOUT, ATTN_CFG)
    assert abs(loss_ab - (loss_a + loss_b) / 2) < 1e-12
    for name in grads_ab:
        assert relative_error(grads_ab[name], (grads_a[name] + grads_b[name]) / 2) < 1e-12


def test_predict_returns_class_index():
    model = TinyModel(MODEL_CFG, seed=4)
    data = gen_task(Task.FRAME_ORDER, LAYOUT, 5, 3, num_symbols=4)
    predictions = model.predict(data.tokens, LAYOUT, ATTN_CFG)
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
    bias = np.linspace(-0.1, 0.1, 5)
    tiny = TinyModel(cfg, seed=8)
    rng = np.random.default_rng(0)  # random final tokens, so the predicted classes differ
    tokens = rng.integers(0, cfg.vocab_size, size=(6, layout.total_len))
    labels = rng.integers(0, cfg.num_classes, size=6)
    assert len(tiny._chunks(tokens)) == 1
    loss, grads = tiny.loss_and_grads(tokens, labels, layout, attn_cfg, bias)
    predictions = tiny.predict(tokens, layout, attn_cfg, bias)
    assert len(set(predictions.tolist())) > 1
    monkeypatch.setattr("frameattn.model._SCORE_BUDGET", 1)
    assert len(tiny._chunks(tokens)) == 6
    loss_c, grads_c = tiny.loss_and_grads(tokens, labels, layout, attn_cfg, bias)
    assert loss_c == pytest.approx(loss, rel=1e-12, abs=0)
    for name in grads:
        assert relative_error(grads_c[name], grads[name]) < 1e-12
    assert np.array_equal(tiny.predict(tokens, layout, attn_cfg, bias), predictions)


def test_model_gradient_check_micro_config():
    # Full-model analytic gradients vs central differences on the default
    # micro configuration (T=8, one layer, d_head=4).
    err = model_fd_error(seed=123)
    assert err < 1e-3


def test_model_gradient_check_two_layers_multi_head():
    err = model_fd_error(seed=7, layers=2, num_heads=2, mask_kind=MaskKind.CAUSAL, pe_mode=PeMode.ROPE_ONLY)
    assert err < 1e-3


def test_one_plan_per_call(monkeypatch):
    # Every layer and chunk of one loss_and_grads call shares one plan, so the
    # mask is built once, however many chunks the batch runs in.
    calls = []
    real_build_mask = frameattn.attention.build_mask
    monkeypatch.setattr(frameattn.attention, "build_mask", lambda *a, **kw: calls.append(a) or real_build_mask(*a, **kw))
    monkeypatch.setattr("frameattn.model._SCORE_BUDGET", 1)
    cfg = ModelConfig(layers=2, num_heads=2, d_head=4, vocab_size=7, num_classes=4)
    tiny = TinyModel(cfg, seed=9)
    data = gen_task(Task.FRAME_ORDER, LAYOUT, 6, 3, num_symbols=4)
    assert len(tiny._chunks(data.tokens)) == 3
    tiny.loss_and_grads(data.tokens, data.labels, LAYOUT, ATTN_CFG)
    assert len(calls) == 1
    tiny.predict(data.tokens, LAYOUT, ATTN_CFG)
    assert len(calls) == 2


def test_plan_must_match_layout_and_config():
    rng = np.random.default_rng(10)
    q = rng.standard_normal((1, LAYOUT.total_len, 4))
    plan = plan_attention(LAYOUT, ATTN_CFG)
    assert np.array_equal(
        attention_forward(q, q, q, LAYOUT, ATTN_CFG, plan=plan).output,
        attention_forward(q, q, q, LAYOUT, ATTN_CFG).output,
    )
    with pytest.raises(ValueError, match="plan"):
        attention_forward(q, q, q, LAYOUT, ATTN_CFG, plan=plan_attention(build_layout(2, 2, 1, 2), ATTN_CFG))
    with pytest.raises(ValueError, match="plan"):
        attention_forward(q, q, q, LAYOUT, replace(ATTN_CFG, mask_kind=MaskKind.CAUSAL), plan=plan)
    with pytest.raises(ValueError, match="plan"):
        attention_forward(q, q, q, LAYOUT, ATTN_CFG, positions=np.zeros(LAYOUT.total_len), plan=plan)
