"""Full attention forward/backward with temporal position encoding modes.

K and V are one (heads, T, d_head) float64 stack of independent heads: the
head count comes from the tensors and the head width must equal
rope.d_head. Q holds the same heads' last R query rows, 1 <= R <= T, and
the output and weights hold those R rows: a caller that reads only the
final rows (the model's last layer) pays for R rows of scores, not T. R = T
is the whole sequence, the same path at row offset 0. The forward pass runs
on the whole stack at once: rotate Q and K rows at their mode-dependent
positions (one rotation over both), scores = scale * Q'K'^T plus the
additive mask (and, for time_rpe, a temporal-distance bias), masked row
softmax, then weights @ V. Rotation touches Q and K only, never V. One mask
and one position table are shared by all heads.

Everything that depends only on (layout, config, rpe bias, position
override) lives in an AttentionPlan: rotation positions and their cos/sin
rotation table, temporal ids, the frequency table, the mask, the APE table,
the RPE bias matrix and the query tiles. A call's own work is arithmetic on
Q, K and V: it copies its rows of the rotation table and takes views of the
mask, but computes no trigonometry and builds no mask. `plan_attention`
builds the plan, and is the only way to pass an rpe bias or a position
override into attention. A plan's arrays are read-only, so a
caller that runs many stacks over one layout builds it once and passes it to
every `attention_forward` call: a trial builds one plan, shared by every
step, layer and chunk.

Query rows are processed in tiles of _TILE_ROWS rows. Tile [lo, hi) scores,
normalises and mixes only key columns [0, end), where end is one past the
last column any row of the tile may attend to. Every column past end is
masked for every row of the tile, so its weight is exactly 0 and skipping it
is exact for every mask kind; under the frame-block masks about half of a
long sequence's columns are skipped. Every column before the tile's `free`
is allowed for every row of the tile, so the softmax gets only the mask's
columns [free, end), a view about one frame wide under causal,
fw_block_causal and full_visual, and treats the leading columns as allowed.
A sequence of at most _TILE_ROWS tokens is one tile over all T columns. With
R < T the tiles are clipped to the last R rows; a clipped tile keeps its free
and end, which stay exact. The returned weights
stay one dense (heads, R, T) array with exact zeros at masked entries.

Position-encoding modes:

  * rope_only       -- rotate at the global id n.
  * time_rope_only  -- rotate at gamma * temporal_id(n).
  * dual_rope       -- rotate at n + gamma * temporal_id(n); gamma=0 is
                       bit-identical to rope_only.
  * time_ape        -- rope_only rotation, plus a fixed sinusoidal embedding
                       of temporal_id(n) added to the Q/K inputs.
  * time_rpe        -- rope_only rotation, plus a bias table indexed by the
                       clipped temporal-id difference added to the scores.

time_ape and time_rpe exist to give the ablation harness representatives of
the absolute/relative encoding families; they are deliberately minimal and
not faithful to any particular published variant. With an empty visual span
the temporal ids equal the global ids, so the time modes are permitted but
collapse to functions of n alone (dual_rope, for instance, rotates at
(1 + gamma) * n).

The backward pass is the exact analytic gradient of this map, over the
same tiles; positions, masks, the APE table, and the RPE bias are treated
as constants. Rotations are orthonormal, so their backward is the inverse
table (cos, -sin), bitwise the rotation at the negated positions.

Array arguments go through `numerics.real_array`. Non-finite Q, K or V raise
NonFiniteError, which a trial reads as divergence; non-finite positions or
rpe_bias raise a plain ValueError at plan time. grad_output is not checked
for finiteness, so a diverged loss still reaches the harness as a loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .layout import NamedEnum, SequenceLayout, adjusted_positions, check_enum, check_flag
from .masks import AttentionMask, MaskKind, allowed, build_mask
from .numerics import NonFiniteError, masked_row_softmax, real_array, softmax_backward
from .rope import FrequencyTable, RopeConfig, RotationTable, frequencies, pair_score, rotate_rows, rotation_table

__all__ = [
    "PeMode",
    "AttentionConfig",
    "AttentionPlan",
    "AttentionResult",
    "AttentionGrads",
    "plan_attention",
    "time_ape_embedding",
    "temporal_bias_matrix",
    "attention_forward",
    "attention_backward",
    "attention_brute_oracle",
]

# Query rows per tile. A T=528 trial runs as fast with 32 rows as with 64 and
# ~10% slower with 16 or 128; 64 keeps every sequence of up to 64 tokens one tile.
_TILE_ROWS = 64


class PeMode(NamedEnum):
    ROPE_ONLY = "rope_only"
    TIME_ROPE_ONLY = "time_rope_only"
    DUAL_ROPE = "dual_rope"
    TIME_APE = "time_ape"
    TIME_RPE = "time_rpe"


@dataclass(frozen=True)
class AttentionConfig:
    """Per-layer attention settings; scores are scaled by `scale` = 1/sqrt(rope.d_head)."""

    rope: RopeConfig
    mask_kind: MaskKind
    pe_mode: PeMode = PeMode.DUAL_ROPE
    strict_monotonic_suffix: bool = False
    fw_block_causal_within_frame: bool = False

    def __post_init__(self):
        check_enum("mask_kind", self.mask_kind, MaskKind)
        check_enum("pe_mode", self.pe_mode, PeMode)
        check_flag("strict_monotonic_suffix", self.strict_monotonic_suffix)
        check_flag("fw_block_causal_within_frame", self.fw_block_causal_within_frame)

    @property
    def scale(self) -> float:
        return 1.0 / math.sqrt(self.rope.d_head)


@dataclass(frozen=True, eq=False)
class AttentionPlan:
    """Everything attention needs that depends only on plan_attention's inputs.

    `rotation` is the rotation table of `positions`. `tiles` holds one
    (lo, hi, free, end) per tile of query rows [lo, hi): every key column
    before `free` is allowed and every column at or past `end` is masked for
    every row of the tile. `ape` is set only under time_ape, `bias` only
    under time_rpe with a bias table.
    """

    layout: SequenceLayout
    config: AttentionConfig
    positions: np.ndarray = field(repr=False)
    temporal: np.ndarray = field(repr=False)
    freqs: FrequencyTable = field(repr=False)
    rotation: RotationTable = field(repr=False)
    mask: AttentionMask = field(repr=False)
    tiles: tuple[tuple[int, int, int, int], ...]
    ape: np.ndarray | None = field(default=None, repr=False)
    bias: np.ndarray | None = field(default=None, repr=False)


@dataclass
class AttentionResult:
    """Forward output plus everything the backward pass needs."""

    output: np.ndarray
    weights: np.ndarray
    plan: AttentionPlan = field(repr=False)
    q_rot: np.ndarray = field(repr=False)
    k_rot: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)


@dataclass
class AttentionGrads:
    grad_q: np.ndarray
    grad_k: np.ndarray
    grad_v: np.ndarray


def time_ape_embedding(temporal: np.ndarray, freqs: FrequencyTable) -> np.ndarray:
    """Sinusoidal embedding of temporal ids: (sin, cos) per frequency pair."""
    phi = real_array("temporal", temporal)[:, None] * freqs.thetas[None, :]
    emb = np.empty((len(phi), freqs.d_head), dtype=np.float64)
    emb[:, 0::2] = np.sin(phi)
    emb[:, 1::2] = np.cos(phi)
    return emb


def temporal_bias_matrix(temporal: np.ndarray, rpe_bias: np.ndarray) -> np.ndarray:
    """Bias[i, j] = rpe_bias[R + clip(temporal[i] - temporal[j], -R, R)].

    `rpe_bias` must be finite with odd length 2R + 1; its middle entry is
    the zero-distance bias.
    """
    b = real_array("rpe_bias", rpe_bias)
    if b.ndim != 1 or len(b) % 2 != 1:
        raise ValueError(f"rpe bias must be a 1-D odd-length table, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("rpe_bias must be finite")
    radius = len(b) // 2
    t = np.asarray(temporal, dtype=np.int64)
    delta = np.clip(t[:, None] - t[None, :], -radius, radius)
    return b[radius + delta]


def plan_attention(
    layout: SequenceLayout,
    config: AttentionConfig,
    rpe_bias: np.ndarray | None = None,
    positions: np.ndarray | None = None,
) -> AttentionPlan:
    """The AttentionPlan of `layout` under `config`, its arrays read-only.

    `positions` overrides the mode-derived rotation positions (used for
    shift-invariance experiments). `rpe_bias` is only accepted in time_rpe
    mode; omitting it there means a zero bias. Both must be finite integer
    or real floating numbers.
    """
    if rpe_bias is not None and config.pe_mode is not PeMode.TIME_RPE:
        raise ValueError("rpe_bias is only meaningful with pe_mode=time_rpe")
    t = layout.total_len
    table = adjusted_positions(
        layout, config.rope.gamma, strict_monotonic_suffix=config.strict_monotonic_suffix
    )
    if positions is not None:
        pos = real_array("positions", positions).copy()  # the plan's own, made read-only below
        if pos.shape != (t,):
            raise ValueError(f"positions must have shape ({t},), got {pos.shape}")
    elif config.pe_mode is PeMode.TIME_ROPE_ONLY:
        pos = config.rope.gamma * table.temporal_ids.astype(np.float64)
    elif config.pe_mode is PeMode.DUAL_ROPE:
        pos = table.adjusted
    else:
        pos = table.global_ids.astype(np.float64)
    freqs = frequencies(config.rope)
    rotation = rotation_table(pos, freqs)
    mask = build_mask(config.mask_kind, layout, config.fw_block_causal_within_frame)
    open_ = mask.values == 0.0
    # Each row's first masked column (t if none), and one past its last allowed
    # column (the diagonal is always allowed).
    row_frees = np.where(open_.all(axis=1), t, (~open_).argmax(axis=1))
    row_ends = t - open_[:, ::-1].argmax(axis=1)
    lows = range(0, t, _TILE_ROWS)
    frees = np.minimum.reduceat(row_frees, lows).tolist()
    ends = np.maximum.reduceat(row_ends, lows).tolist()
    tiles = tuple(zip(lows, [*lows[1:], t], frees, ends))
    ape = time_ape_embedding(table.temporal_ids, freqs) if config.pe_mode is PeMode.TIME_APE else None
    bias = None if rpe_bias is None else temporal_bias_matrix(table.temporal_ids, rpe_bias)
    for arr in (pos, table.temporal_ids, freqs.thetas, rotation.cos, rotation.sin, mask.values, ape, bias):
        if arr is not None:
            arr.flags.writeable = False
    return AttentionPlan(
        layout=layout,
        config=config,
        positions=pos,
        temporal=table.temporal_ids,
        freqs=freqs,
        rotation=rotation,
        mask=mask,
        tiles=tiles,
        ape=ape,
        bias=bias,
    )


def _check_tensors(layout: SequenceLayout, config: AttentionConfig, Q, K, V) -> list[np.ndarray]:
    """Q, K, V as float64 stacks: K and V (heads, T, d_head), Q the last 1..T of those rows."""
    arrays = [real_array(name, x) for name, x in zip("QKV", (Q, K, V))]
    t, d = layout.total_len, config.rope.d_head
    q_shape = arrays[0].shape
    if len(q_shape) != 3 or not 1 <= q_shape[1] <= t or q_shape[2] != d:
        raise ValueError(f"Q must have shape (heads, R, {d}) with 1 <= R <= {t}, got {q_shape}")
    for name, arr in zip("KV", arrays[1:]):
        if arr.shape != (q_shape[0], t, d):
            raise ValueError(f"{name} has shape {arr.shape}, expected {(q_shape[0], t, d)} for Q of shape {q_shape}")
    for name, arr in zip("QKV", arrays):
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError(f"{name} contains non-finite values")
    return arrays


def _rotate_qk(qk: np.ndarray, table: RotationTable, offset: int) -> np.ndarray:
    """Rotate an (N, R + T, D) stack of R query rows then T key rows per head as one matrix.

    Query row i turns by table row offset + i, key row j by table row j.
    """
    n, rows, d = qk.shape
    r = rows - len(table.cos)
    stacked = []
    for part in (table.cos, table.sin):  # filled by broadcast: faster than a gather
        out = np.empty((n, rows, d // 2))
        out[:, :r] = part[offset:]
        out[:, r:] = part
        stacked.append(out.reshape(n * rows, d // 2))
    return rotate_rows(qk.reshape(n * rows, d), RotationTable(*stacked)).reshape(qk.shape)


def _query_tiles(plan: AttentionPlan, offset: int) -> list[tuple[int, int, int, int]]:
    """The plan's (lo, hi, free, end) tiles clipped to query rows >= offset.

    A clipped tile keeps its `free` and `end`: a minimum and a maximum over a
    superset of its rows, so they still hold for every remaining row.
    """
    return [(max(lo, offset), hi, free, end) for lo, hi, free, end in plan.tiles if hi > offset]


def attention_forward(
    Q: np.ndarray,
    K: np.ndarray,
    V: np.ndarray,
    layout: SequenceLayout,
    config: AttentionConfig,
    plan: AttentionPlan | None = None,
) -> AttentionResult:
    """Rotate-score-softmax-mix over the whole head stack; returns output and the weights.

    Q holds the last R of the T query rows (R = T for all of them); output
    and weights hold the same R rows. Without `plan`, builds
    plan_attention(layout, config): no rpe bias and the mode's own
    positions. A given `plan` must have been built for this layout and
    config, and carries any rpe bias or position override.
    """
    Q, K, V = _check_tensors(layout, config, Q, K, V)
    if plan is None:
        plan = plan_attention(layout, config)
    elif (plan.layout, plan.config) != (layout, config):
        raise ValueError("plan was built for another layout or config")

    n, r, _ = Q.shape
    offset = layout.total_len - r
    qk = np.concatenate((Q, K), axis=1)  # each head's R query rows, then its T key rows
    if plan.ape is not None:
        qk += np.concatenate((plan.ape[offset:], plan.ape))
    qk = _rotate_qk(qk, plan.rotation, offset)
    q_rot, k_rot = qk[:, :r], qk[:, r:]

    weights = np.zeros((n, r, layout.total_len))
    output = np.empty(Q.shape)
    for lo, hi, free, end in _query_tiles(plan, offset):
        rows = slice(lo - offset, hi - offset)
        scores = q_rot[:, rows] @ k_rot[:, :end].transpose(0, 2, 1)
        scores *= config.scale
        if plan.bias is not None:
            scores += plan.bias[lo:hi, :end]
        w = masked_row_softmax(scores, plan.mask.values[lo:hi, free:end])
        weights[:, rows, :end] = w
        np.matmul(w, V[:, :end], out=output[:, rows])
    return AttentionResult(output=output, weights=weights, plan=plan, q_rot=q_rot, k_rot=k_rot, v=V)


def attention_backward(state: AttentionResult, grad_output: np.ndarray) -> AttentionGrads:
    """Exact gradients of attention_forward w.r.t. Q, K, V.

    Positions, mask, APE rows, and RPE bias are constants of the forward
    map, so additive encodings pass gradients straight through. grad_q has
    the R rows of Q, grad_k and grad_v all T rows. Each tile writes its
    grad_q rows and adds into the first `end` rows of grad_k and grad_v.
    """
    g = real_array("grad_output", grad_output)
    if g.shape != state.output.shape:
        raise ValueError(f"grad_output shape {g.shape} does not match output {state.output.shape}")
    plan = state.plan
    n, r, _ = g.shape
    offset = plan.layout.total_len - r
    grad_qk = np.zeros((n, r + plan.layout.total_len, g.shape[2]))  # grad of the rotated Q rows, then of K
    grad_qr, grad_kr = grad_qk[:, :r], grad_qk[:, r:]
    grad_v = np.zeros(state.v.shape)
    for lo, hi, _, end in _query_tiles(plan, offset):
        rows = slice(lo - offset, hi - offset)
        w = state.weights[:, rows, :end]
        g_tile = g[:, rows]
        grad_scores = softmax_backward(w, g_tile @ state.v[:, :end].transpose(0, 2, 1))
        np.matmul(grad_scores, state.k_rot[:, :end], out=grad_qr[:, rows])
        grad_kr[:, :end] += grad_scores.transpose(0, 2, 1) @ state.q_rot[:, rows]
        grad_v[:, :end] += w.transpose(0, 2, 1) @ g_tile
    grad_qk *= plan.config.scale
    grad_qk = _rotate_qk(grad_qk, plan.rotation.inverse(), offset)
    return AttentionGrads(grad_q=grad_qk[:, :r], grad_k=grad_qk[:, r:], grad_v=grad_v)


def attention_brute_oracle(
    Q: np.ndarray,
    K: np.ndarray,
    V: np.ndarray,
    layout: SequenceLayout,
    config: AttentionConfig,
    rpe_bias: np.ndarray | None = None,
) -> np.ndarray:
    """Scalar-loop re-implementation of the forward output.

    Walks every (head, query, key) triple with per-pair `pair_score` calls,
    uses the `allowed` predicate instead of a mask matrix, and normalises by
    hand. Kept deliberately independent of attention_forward so the two can
    check each other.
    """
    Q, K, V = _check_tensors(layout, config, Q, K, V)
    t = layout.total_len
    if Q.shape != K.shape:
        raise ValueError(f"the oracle takes all {t} query rows, got Q of shape {Q.shape}")
    freqs = frequencies(config.rope)
    plan = plan_attention(layout, config)
    pos, temporal = plan.positions, plan.temporal

    q_in, k_in = Q, K
    if config.pe_mode is PeMode.TIME_APE:
        ape = time_ape_embedding(temporal, freqs)
        q_in = Q + ape[None, :, :]
        k_in = K + ape[None, :, :]
    bias_table = None
    radius = 0
    if config.pe_mode is PeMode.TIME_RPE and rpe_bias is not None:
        bias_table = [float(b) for b in real_array("rpe_bias", rpe_bias)]
        radius = len(bias_table) // 2

    out = np.zeros_like(V)
    for h in range(len(Q)):
        for i in range(t):
            cols = [
                j
                for j in range(t)
                if allowed(config.mask_kind, layout, i, j, config.fw_block_causal_within_frame)
            ]
            if not cols:
                continue
            logits = []
            for j in cols:
                s = config.scale * pair_score(q_in[h, i], k_in[h, j], pos[i], pos[j], freqs)
                if bias_table is not None:
                    d = int(temporal[i]) - int(temporal[j])
                    d = max(-radius, min(radius, d))
                    s += bias_table[radius + d]
                logits.append(s)
            top = max(logits)
            exps = [math.exp(s - top) for s in logits]
            z = sum(exps)
            row = np.zeros(config.rope.d_head)
            for e, j in zip(exps, cols):
                row += (e / z) * V[h, j]
            out[h, i] = row
    return out
