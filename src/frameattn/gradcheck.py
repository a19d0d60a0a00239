"""Central-difference gradient verification for the attention kernel and model.

The numeric side only ever calls the forward pass, so it stays independent
of attention_backward and of the hand-written model gradients it checks.

Relative error is |analytic - numeric| / max(|analytic|, |numeric|, floor)
with floor 1e-4: entries smaller than the floor are compared absolutely at
tolerance * floor, which keeps finite-difference noise on near-zero entries
from drowning the signal.
"""

from __future__ import annotations

import numpy as np

from .attention import (
    AttentionConfig,
    PeMode,
    attention_backward,
    attention_forward,
    plan_attention,
)
from .layout import SequenceLayout, build_layout
from .masks import MaskKind
from .model import ModelConfig, TinyModel
from .numerics import make_rng, real_array
from .rope import RopeConfig
from .tasks import Task, gen_task, num_classes, vocab_size

__all__ = [
    "relative_error",
    "default_micro_cases",
    "attention_fd_error",
    "model_fd_error",
]

ERROR_FLOOR = 1e-4


def relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = ERROR_FLOOR) -> float:
    a = real_array("analytic", analytic)
    n = real_array("numeric", numeric)
    if a.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom))


def default_micro_cases() -> list[tuple[PeMode, MaskKind]]:
    """Every pe mode crossed with every mask kind: 20 cases."""
    return [(pe, mk) for pe in PeMode for mk in MaskKind]


def _central_differences(param: np.ndarray, loss, h: float) -> np.ndarray:
    """Numeric d loss() / d param, perturbing each entry of the contiguous `param` in place."""
    flat = param.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = loss()
        flat[i] = orig - h
        down = loss()
        flat[i] = orig
        numeric[i] = (up - down) / (2.0 * h)
    return numeric.reshape(param.shape)


def attention_fd_error(
    pe_mode: PeMode,
    mask_kind: MaskKind,
    seed: int,
    layout: SequenceLayout = build_layout(1, 2, 2, 2),
    num_heads: int = 2,
    query_rows: int | None = None,
) -> float:
    """Max relative error of attention_backward vs central differences.

    Uses a scalar probe loss sum(output * G) for a fixed random G, so the
    backward pass is exercised with a dense upstream gradient. Heads are
    d_head=4 wide, gamma is 0.7, the step 1e-5; the default layout is T=7.
    Q holds the last `query_rows` query rows, all T by default.
    """
    d_head = 4
    config = AttentionConfig(
        rope=RopeConfig(d_head=d_head, gamma=0.7),
        mask_kind=mask_kind,
        pe_mode=pe_mode,
    )
    rng = make_rng(seed, 300)
    t = layout.total_len
    shape = (num_heads, t, d_head)
    q = rng.standard_normal((num_heads, t if query_rows is None else query_rows, d_head))
    k, v = rng.standard_normal(shape), rng.standard_normal(shape)
    rpe_bias = 0.3 * rng.standard_normal(2 * 3 + 1) if pe_mode is PeMode.TIME_RPE else None
    probe = rng.standard_normal(q.shape)
    plan = plan_attention(layout, config, rpe_bias)

    def loss() -> float:
        out = attention_forward(q, k, v, layout, config, plan=plan).output
        return float(np.sum(out * probe))

    grads = attention_backward(attention_forward(q, k, v, layout, config, plan=plan), probe)
    worst = 0.0
    for arr, analytic in ((q, grads.grad_q), (k, grads.grad_k), (v, grads.grad_v)):
        worst = max(worst, relative_error(analytic, _central_differences(arr, loss, 1e-5)))
    return worst


def model_fd_error(
    seed: int,
    pe_mode: PeMode = PeMode.DUAL_ROPE,
    mask_kind: MaskKind = MaskKind.FW_BLOCK_CAUSAL,
    layers: int = 1,
    num_heads: int = 1,
) -> float:
    """Max relative error of the full-model analytic gradient vs central differences.

    Micro configuration: frame_order on a T=8 layout, a batch of two
    sequences over four symbols, d_head=4, step 1e-5.
    """
    layout = build_layout(1, 2, 2, 3)
    model_cfg = ModelConfig(
        layers=layers,
        num_heads=num_heads,
        d_head=4,
        vocab_size=vocab_size(4),
        num_classes=num_classes(Task.FRAME_ORDER, layout, 4),
    )
    attn_cfg = AttentionConfig(
        rope=RopeConfig(d_head=4, gamma=1.0),
        mask_kind=mask_kind,
        pe_mode=pe_mode,
    )
    plan = plan_attention(layout, attn_cfg)
    model = TinyModel(model_cfg, seed=seed)
    data = gen_task(Task.FRAME_ORDER, layout, seed, 2, 4)

    def loss_only() -> float:
        loss, _ = model.loss_and_grads(data.tokens, data.labels, plan)
        return loss

    _, grad = model.loss_and_grads(data.tokens, data.labels, plan)
    return relative_error(grad, _central_differences(model.flat, loss_only, 1e-5))
