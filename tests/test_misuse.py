"""Every public entry point refuses input it would otherwise have to coerce.

Complex, bool, text and object arrays, float ids, ids out of range, a string
where an enum member belongs, a float or bool count, a flag that is not a
bool, and a model batch whose shape does not fit each raise a ValueError that
names the field, before any numpy conversion can warn, drop information,
broadcast or wrap a negative index around.
"""

import warnings

import numpy as np
import pytest

from frameattn.attention import (
    AttentionConfig,
    PeMode,
    attention_backward,
    attention_brute_oracle,
    attention_forward,
    plan_attention,
    time_ape_embedding,
)
from frameattn.harness import TrialConfig, gamma_sweep
from frameattn.layout import adjusted_positions, build_layout, temporal_ids
from frameattn.masks import MaskKind, allowed, build_mask
from frameattn.model import ModelConfig, TinyModel
from frameattn.numerics import NonFiniteError, masked_row_softmax, softmax_backward
from frameattn.rope import (
    FrequencyTable,
    RotationTable,
    frequencies,
    pair_score,
    rotary_oracle,
    rotate_rows,
    rotation_table,
)
from frameattn.tasks import Task, gen_task, num_classes

LAYOUT = build_layout(1, 2, 2, 1)  # T=6
T = LAYOUT.total_len
FREQS = frequencies(4)
TABLE = rotation_table(np.zeros(2), FREQS)


def attn(pe=PeMode.DUAL_ROPE, mask=MaskKind.FW_BLOCK_CAUSAL):
    return AttentionConfig(d_head=4, mask_kind=mask, pe_mode=pe)


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
    "object": lambda shape: np.full(shape, 1.0, dtype=object),
}

# (field, call taking a maker of bad arrays). Test ids number the cases; 3 is
# retired, so that each case keeps its test name.
ARRAY_CASES = [
    ("positions", lambda bad: rotation_table(bad((T,)), FREQS)),
    ("rpe_bias", lambda bad: attention_brute_oracle(*qkv(), LAYOUT, attn(PeMode.TIME_RPE), rpe_bias=bad((3,)))),
    ("rpe_bias", lambda bad: plan_attention(LAYOUT, attn(PeMode.TIME_RPE), rpe_bias=bad((3,)))),
    ("Q", lambda bad: forward_with(0, bad)),
    ("K", lambda bad: forward_with(1, bad)),
    ("V", lambda bad: forward_with(2, bad)),
    ("grad_output", backward_with),
    ("scores", lambda bad: masked_row_softmax(bad((2, 3)), np.zeros((2, 3)))),
    ("mask", lambda bad: masked_row_softmax(np.zeros((2, 3)), bad((2, 3)))),
    ("weights", lambda bad: softmax_backward(bad((2, 3)), np.zeros((2, 3)))),
    ("grad_weights", lambda bad: softmax_backward(np.zeros((2, 3)), bad((2, 3)))),
    ("mat", lambda bad: rotate_rows(bad((2, 4)), TABLE)),
    ("vec", lambda bad: rotary_oracle(bad((4,)), 0.0, FREQS)),
    ("q", lambda bad: pair_score(bad((4,)), np.ones(4), 0.0, 1.0, FREQS)),
    ("k", lambda bad: pair_score(np.ones(4), bad((4,)), 0.0, 1.0, FREQS)),
    ("thetas", lambda bad: FrequencyTable(thetas=bad((2,)))),
    ("cos", lambda bad: RotationTable(bad((2, 2)), np.ones((2, 2)))),
    ("sin", lambda bad: RotationTable(np.ones((2, 2)), bad((2, 2)))),
]

MODEL = TinyModel(ModelConfig(layers=1, num_heads=1, d_head=4, vocab_size=5, num_classes=3), seed=0)
PLAN = plan_attention(LAYOUT, attn())
TOKENS, LABELS = np.zeros((1, T), dtype=int), np.zeros(1, dtype=int)

# Ids and indices must be of integer kind: floats are refused as well.
BAD_IDS = {**BAD_ARRAYS, "float": lambda shape: np.full(shape, 1.5)}

# (field, call taking a maker of bad id arrays). Test ids number the cases; 0 is
# retired, so that each case keeps its test name.
ID_CASES = [
    ("tokens", lambda bad: MODEL.predict(bad((1, T)), PLAN)),
    ("tokens", lambda bad: MODEL.loss_and_grads(bad((1, T)), LABELS, PLAN)),
    ("labels", lambda bad: MODEL.loss_and_grads(TOKENS, bad((1,)), PLAN)),
    ("temporal", lambda bad: time_ape_embedding(bad((T,)), FREQS)),
]


def trial(**kw):
    return TrialConfig(**{"task": Task.FRAME_ORDER, "layout": LAYOUT, "num_symbols": 4, **kw})


# (field, call) with one bad scalar argument each
FIELD_CASES = [
    ("mask_kind", lambda: AttentionConfig(d_head=4, mask_kind="causal")),
    ("pe_mode", lambda: AttentionConfig(d_head=4, mask_kind=MaskKind.CAUSAL, pe_mode="dual_rope")),
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
    ("gamma", lambda: gamma_sweep(trial(), [0.5, True])),
    ("gamma", lambda: gamma_sweep(trial(), ["0.5"])),
    ("kind", lambda: build_mask("causal", LAYOUT)),
    ("kind", lambda: allowed("causal", LAYOUT, 1, 0)),
    # A layout's JSON object or its build_layout arguments are not a layout: only the JSON parser converts.
    ("layout", lambda: trial(layout={"prefix_len": 1, "num_frames": 2, "tokens_per_frame": 2, "suffix_len": 1})),
    ("layout", lambda: trial(layout=(1, 2, 2, 1))),
]

# (field, call) with a flag that is not a bool: "no" is truthy and would turn the flag on
FLAG_CASES = [
    ("fw_block_causal_within_frame", lambda: build_mask(MaskKind.FW_BLOCK, LAYOUT, "no")),
    ("fw_block_causal_within_frame", lambda: allowed(MaskKind.FW_BLOCK, LAYOUT, 1, 2, "no")),
    ("strict_monotonic_suffix", lambda: temporal_ids(LAYOUT, "no")),
    ("strict_monotonic_suffix", lambda: adjusted_positions(LAYOUT, 1.0, 0.0)),
]

# (field, call) with real thetas that no rotation can use
THETA_CASES = [
    ("thetas", lambda: FrequencyTable(thetas=np.array([np.nan, 0.5]))),
    ("thetas", lambda: FrequencyTable(thetas=np.ones((2, 2)))),
]

# (message, pe mode, rpe bias) that plan_attention and the brute-force oracle both refuse
BIAS_CASES = [
    ("rpe bias must be a 1-D odd-length table, got shape (4,)", PeMode.TIME_RPE, np.zeros(4)),
    ("rpe bias must be a 1-D odd-length table, got shape (3, 1)", PeMode.TIME_RPE, np.zeros((3, 1))),
    ("rpe_bias is only meaningful with pe_mode=time_rpe", PeMode.DUAL_ROPE, np.zeros(3)),
]

# (field, call) with ids out of range: numpy would read -1 as the last row or class
RANGE_CASES = [
    ("tokens", lambda: MODEL.predict(np.full((1, T), -1), PLAN)),
    ("tokens", lambda: MODEL.predict(np.full((1, T), 5), PLAN)),
    ("tokens", lambda: MODEL.loss_and_grads(np.full((1, T), -1), LABELS, PLAN)),
    ("labels", lambda: MODEL.loss_and_grads(TOKENS, np.array([-1]), PLAN)),
    ("labels", lambda: MODEL.loss_and_grads(TOKENS, np.array([3]), PLAN)),
]


# (field, call) with a batch that does not fit the plan's T or one label per sequence
BATCH_CASES = [
    ("labels", lambda: MODEL.loss_and_grads(np.zeros((2, T), dtype=int), np.zeros((2, 1), dtype=int), PLAN)),
    ("labels", lambda: MODEL.loss_and_grads(TOKENS, np.zeros(2, dtype=int), PLAN)),
    ("labels", lambda: MODEL.loss_and_grads(TOKENS, np.int64(0), PLAN)),
    ("tokens", lambda: MODEL.loss_and_grads(np.zeros((0, T), dtype=int), np.zeros(0, dtype=int), PLAN)),
    ("tokens", lambda: MODEL.predict(np.zeros((0, T), dtype=int), PLAN)),
    ("tokens", lambda: MODEL.predict(np.zeros((1, T - 1), dtype=int), PLAN)),
    ("tokens", lambda: MODEL.loss_and_grads(np.zeros((1, T + 1), dtype=int), LABELS, PLAN)),
    ("tokens", lambda: MODEL.predict(np.zeros(T, dtype=int), PLAN)),
]


def refuses(field, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a ComplexWarning on the way would fail the test
        with pytest.raises(ValueError, match=f"^{field} must") as info:
            call()
    assert not isinstance(info.value, NonFiniteError)  # a caller's error, never read as divergence


@pytest.mark.parametrize("kind", BAD_ARRAYS)
@pytest.mark.parametrize(
    "field, call", ARRAY_CASES, ids=[f"{i + (i >= 3)}-{f}" for i, (f, _) in enumerate(ARRAY_CASES)]
)
def test_array_inputs_that_are_not_real_numbers_are_refused(field, call, kind):
    refuses(field, lambda: call(BAD_ARRAYS[kind]))


@pytest.mark.parametrize("kind", BAD_IDS)
@pytest.mark.parametrize("field, call", ID_CASES, ids=[f"{i + 1}-{f}" for i, (f, _) in enumerate(ID_CASES)])
def test_id_arrays_that_are_not_integers_are_refused(field, call, kind):
    refuses(field, lambda: call(BAD_IDS[kind]))


@pytest.mark.parametrize("field, call", FIELD_CASES, ids=[f"{i}-{f}" for i, (f, _) in enumerate(FIELD_CASES)])
def test_strings_for_enums_and_non_int_counts_are_refused(field, call):
    refuses(field, call)


@pytest.mark.parametrize("field, call", RANGE_CASES, ids=[f"{i}-{f}" for i, (f, _) in enumerate(RANGE_CASES)])
def test_ids_out_of_range_are_refused(field, call):
    refuses(field, call)


@pytest.mark.parametrize("field, call", BATCH_CASES, ids=[f"{i}-{f}" for i, (f, _) in enumerate(BATCH_CASES)])
def test_batches_that_do_not_fit_the_plan_or_their_labels_are_refused(field, call):
    refuses(field, call)


@pytest.mark.parametrize("field, call", FLAG_CASES, ids=[f"{i}-{f}" for i, (f, _) in enumerate(FLAG_CASES)])
def test_flags_that_are_not_bools_are_refused(field, call):
    refuses(field, call)


@pytest.mark.parametrize("field, call", THETA_CASES, ids=[f"{i}-{f}" for i, (f, _) in enumerate(THETA_CASES)])
def test_thetas_that_are_not_finite_1d_are_refused(field, call):
    refuses(field, call)


@pytest.mark.parametrize("message, pe, bias", BIAS_CASES, ids=[f"{i}-{pe.value}" for i, (_, pe, _) in enumerate(BIAS_CASES)])
def test_plan_and_oracle_refuse_the_same_rpe_bias(message, pe, bias):
    for call in (
        lambda: plan_attention(LAYOUT, attn(pe), rpe_bias=bias),
        lambda: attention_brute_oracle(*qkv(), LAYOUT, attn(pe), rpe_bias=bias),
    ):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
