"""Every public entry point refuses input it would otherwise have to coerce.

Complex, bool and text arrays, a string where an enum member belongs, and a
float or bool count each raise a ValueError that names the field, before
any numpy conversion can warn or drop information.
"""

import warnings

import numpy as np
import pytest

from frameattn.attention import (
    AttentionConfig,
    PeMode,
    attention_backward,
    attention_forward,
    plan_attention,
    temporal_bias_matrix,
)
from frameattn.harness import TrialConfig
from frameattn.layout import build_layout
from frameattn.masks import MaskKind
from frameattn.numerics import NonFiniteError, masked_row_softmax, softmax_backward
from frameattn.rope import RopeConfig, frequencies, rotation_table
from frameattn.tasks import Task, gen_task, num_classes

LAYOUT = build_layout(1, 2, 2, 1)  # T=6
T = LAYOUT.total_len
ROPE = RopeConfig(d_head=4)


def attn(pe=PeMode.DUAL_ROPE, mask=MaskKind.FW_BLOCK_CAUSAL):
    return AttentionConfig(rope=ROPE, mask_kind=mask, pe_mode=pe)


def qkv():
    return [np.ones((2, T, 4)) for _ in range(3)]


def forward_with(i, bad):
    tensors = qkv()
    tensors[i] = bad(tensors[i].shape)
    return attention_forward(*tensors, LAYOUT, attn())


def backward_with(bad):
    state = attention_forward(*qkv(), LAYOUT, attn())
    return attention_backward(state, bad(state.output.shape))


BAD_ARRAYS = {
    "complex": lambda shape: np.full(shape, 1 + 1j),
    "bool": lambda shape: np.ones(shape, dtype=bool),
    "str": lambda shape: np.full(shape, "1"),
}

# (field, call taking a maker of bad arrays)
ARRAY_CASES = [
    ("positions", lambda bad: rotation_table(bad((T,)), frequencies(ROPE))),
    ("rpe_bias", lambda bad: temporal_bias_matrix(np.arange(T), bad((3,)))),
    ("rpe_bias", lambda bad: plan_attention(LAYOUT, attn(PeMode.TIME_RPE), rpe_bias=bad((3,)))),
    ("positions", lambda bad: plan_attention(LAYOUT, attn(), positions=bad((T,)))),
    ("Q", lambda bad: forward_with(0, bad)),
    ("K", lambda bad: forward_with(1, bad)),
    ("V", lambda bad: forward_with(2, bad)),
    ("grad_output", backward_with),
    ("scores", lambda bad: masked_row_softmax(bad((2, 3)), np.zeros((2, 3)))),
    ("mask", lambda bad: masked_row_softmax(np.zeros((2, 3)), bad((2, 3)))),
    ("weights", lambda bad: softmax_backward(bad((2, 3)), np.zeros((2, 3)))),
    ("grad_weights", lambda bad: softmax_backward(np.zeros((2, 3)), bad((2, 3)))),
]


def trial(**kw):
    return TrialConfig(**{"task": Task.FRAME_ORDER, "layout": LAYOUT, "num_symbols": 4, **kw})


# (field, call) with one bad scalar argument each
FIELD_CASES = [
    ("mask_kind", lambda: AttentionConfig(rope=ROPE, mask_kind="causal")),
    ("pe_mode", lambda: AttentionConfig(rope=ROPE, mask_kind=MaskKind.CAUSAL, pe_mode="dual_rope")),
    ("task", lambda: trial(task="frame_order")),
    ("pe_mode", lambda: trial(pe_mode="time_rpe")),
    ("mask_kind", lambda: trial(mask_kind="fw_block")),
    ("steps", lambda: trial(steps=2.5)),
    ("train_size", lambda: trial(train_size=True)),
    ("task", lambda: gen_task("frame_order", LAYOUT, 0, 4)),
    ("count", lambda: gen_task(Task.FRAME_ORDER, LAYOUT, 0, 2.5)),
    ("count", lambda: gen_task(Task.FRAME_ORDER, LAYOUT, 0, True)),
    ("count", lambda: gen_task(Task.FRAME_ORDER, LAYOUT, 0, "3")),
    ("task", lambda: num_classes("moving_count", LAYOUT, 4)),
]


def refuses(field, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a ComplexWarning on the way would fail the test
        with pytest.raises(ValueError, match=f"^{field} must") as info:
            call()
    assert not isinstance(info.value, NonFiniteError)  # a caller's error, never read as divergence


@pytest.mark.parametrize("kind", BAD_ARRAYS)
@pytest.mark.parametrize("field, call", ARRAY_CASES, ids=[f"{i}-{f}" for i, (f, _) in enumerate(ARRAY_CASES)])
def test_array_inputs_that_are_not_real_numbers_are_refused(field, call, kind):
    refuses(field, lambda: call(BAD_ARRAYS[kind]))


@pytest.mark.parametrize("field, call", FIELD_CASES, ids=[f"{i}-{f}" for i, (f, _) in enumerate(FIELD_CASES)])
def test_strings_for_enums_and_non_int_counts_are_refused(field, call):
    refuses(field, call)
