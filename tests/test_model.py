import math

import numpy as np
import pytest

from frameattn.attention import AttentionConfig, PeMode
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
    for row in data.tokens:
        assert 0 <= model.predict(row, LAYOUT, ATTN_CFG) < MODEL_CFG.num_classes


def test_model_gradient_check_micro_config():
    # Full-model analytic gradients vs central differences on the default
    # micro configuration (T=8, one layer, d_head=4).
    err = model_fd_error(seed=123)
    assert err < 1e-3


def test_model_gradient_check_two_layers_multi_head():
    err = model_fd_error(seed=7, layers=2, num_heads=2, mask_kind=MaskKind.CAUSAL, pe_mode=PeMode.ROPE_ONLY)
    assert err < 1e-3
