"""Full attention forward/backward with temporal position encoding modes.

K and V are one (heads, T, d_head) float64 stack of independent heads: the
head count comes from the tensors and the head width must equal
config.d_head. Q holds the same heads' last R query rows, 1 <= R <= T, and
the output and weights hold those R rows: a caller that reads only the
final rows (the model's last layer) pays for R rows of scores, not T. R = T
is the whole sequence, the same path at row offset 0. The forward pass runs
on the whole stack at once: rotate Q and K rows at their mode-dependent
positions (one rotation over both), scores = scale * Q'K'^T plus the
additive mask (and, for time_rpe, a temporal-distance bias), masked row
softmax, then weights @ V. Rotation touches Q and K only, never V. One mask
and one position table are shared by all heads.

Everything that depends only on (layout, config, rpe bias) lives in an
AttentionPlan, which holds exactly what the kernels read: the cos/sin
rotation table of the mode's positions, the query tiles with their key
columns, mask slabs and RPE bias blocks, and the APE table. No plan array
is T x T: there is no dense mask or bias matrix. The first call with R
query rows adds to the plan an (R + T)-row table, which turns every head,
its inverse and the tiles clipped to those rows; every later call's own
work is arithmetic on Q, K and V. `plan_attention` builds the plan, and is
the only way to pass an rpe bias into attention. A plan's arrays are
read-only, so a caller that runs many stacks over one layout builds it once
and passes it to every `attention_forward` call: a trial builds one plan,
shared by every step, layer and chunk.

Query rows are processed in tiles of _TILE_ROWS rows. The plan derives each
tile [lo, hi) from the mask's per-row intervals as (lo, hi, cols, mask, bias):
`cols` holds every key column that any row of the tile may attend to, and
the tile scores, normalises and mixes only those. Every other column is
masked for every row of the tile, so its weight is exactly 0 and skipping
it is exact for every mask kind. Under causal, fw_block_causal and
full_visual the columns form a prefix and `cols` is slice(0, end); under
fw_block a tile of visual rows gathers the text prefix and its own frames,
an index array that skips every other frame. The columns of `cols` before
the tile's `free`, the first column masked for some row, are allowed for
every row, so the tile's `mask` is a small additive slab over the rest,
about one frame wide, and the softmax treats the leading columns as
allowed; a time_rpe `bias` covers the tile's rows and `cols`. A sequence
of at most _TILE_ROWS tokens is one tile over all T columns, since every
key is open to its own row. With R < T the tiles are clipped to the last R
rows; a clipped tile keeps its `cols`, which stay exact, and the remaining
rows of its mask and bias. A call keeps only the scored tiles: one buffer
holds every tile's (heads, rows, len(cols)) weights back to back, the tile's
scores are written into its slot and normalised there, and backward reads
the slots. `AttentionResult.tiles()` walks the slots with their rows and
key columns, and the heatmap command renders from it. The dense (heads, R,
T) weights, exact zeros at masked entries, are built on that walk only when
`AttentionResult.weights` is read: tests read it, nothing else does.

Cells. `plan` may be a tuple of plans, one per cell, for a stack that
holds the cells' equal shares of its heads in cell order: the lockstep
trials of a harness group. The cells share the layout, d_head and every
tile's rows and key columns, so they may differ in pe_mode and gamma, and
in mask wherever their tiles agree: always in a sequence of at most
_TILE_ROWS tokens, whose one tile spans all T columns under every mask.
One `rotate_rows` call turns the stack by a table that repeats each cell's
rows over its share, and one turns it back. Each share gets its own APE
rows and RPE bias, added to its share only. Cells that differ in mask give
each tile one softmax mask over the stack's flattened rows: each cell's
slab, padded on the left with allowed (zero) columns to the widest and
repeated over its share. The tiles, scores and softmax are shared, so each
cell's output and gradients are bitwise those of a call with its plan
alone. The stacked tables and masks are built on the first call with a
given tuple of cells, R and head count and kept in the first cell's
`by_rows`. How many cells a stack holds is the caller's: the model bounds
cells * chunk * heads * T * T by its _SCORE_BUDGET.

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

Array arguments go through `numerics.real_array`, temporal ids through
`numerics.int_array`. Non-finite Q, K or V raise NonFiniteError, which a
trial reads as divergence; a non-finite rpe_bias raises a plain ValueError
at plan time. grad_output is not checked
for finiteness, so a diverged loss still reaches the harness as a loss.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .layout import NamedEnum, SequenceLayout, adjusted_positions, check_enum, check_flag, check_float
from .masks import AttentionMask, MaskKind, allowed, build_mask
from .numerics import NonFiniteError, int_array, masked_row_softmax, real_array, softmax_backward
from .rope import FrequencyTable, RotationTable, frequencies, pair_score, rotate_rows, rotation_table

__all__ = [
    "PeMode",
    "AttentionConfig",
    "AttentionPlan",
    "AttentionResult",
    "AttentionGrads",
    "plan_attention",
    "time_ape_embedding",
    "attention_forward",
    "attention_backward",
    "temporal_id_literal",
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
    """Per-layer attention settings; scores are scaled by `scale` = 1/sqrt(d_head).

    `d_head` and `base` set the rotary frequencies, `gamma` the temporal
    weight in the positions n + gamma * temporal_id(n). The defaults are the
    heatmap config's, and TrialConfig reads its own from them.
    """

    d_head: int = 8
    base: float = 10000.0
    gamma: float = 1.0
    mask_kind: MaskKind = MaskKind.FW_BLOCK_CAUSAL
    pe_mode: PeMode = PeMode.DUAL_ROPE
    strict_monotonic_suffix: bool = False
    fw_block_causal_within_frame: bool = False

    def __post_init__(self):
        frequencies(self.d_head, self.base)
        check_float("gamma", self.gamma)
        check_enum("mask_kind", self.mask_kind, MaskKind)
        check_enum("pe_mode", self.pe_mode, PeMode)
        check_flag("strict_monotonic_suffix", self.strict_monotonic_suffix)
        check_flag("fw_block_causal_within_frame", self.fw_block_causal_within_frame)

    @functools.cached_property
    def scale(self) -> float:
        return 1.0 / math.sqrt(self.d_head)


@dataclass(frozen=True, eq=False)
class AttentionPlan:
    """Everything attention needs that depends only on plan_attention's inputs.

    `rotation` is the rotation table of the pe mode's positions. `tiles`
    holds one (lo, hi, cols, mask, bias) per tile of query rows [lo, hi):
    `cols` (a slice or a sorted index array) holds every key column any row
    of the tile may see, `mask` is the additive mask of those rows over the
    trailing columns of `cols`, and the columns of `cols` before it are
    allowed for every row. `bias`, the rows' RPE bias over `cols`, is set
    only under time_rpe with a bias table, and `ape` only under time_ape.
    `by_rows` maps R to what a call with the last R query rows reads,
    (rotation, inverse, tiles, ape), filled by `_build_rows` on the first such
    call; its tiles carry their slots in the call's packed weights buffer.
    On the first cell of a stack it also maps (R, heads, the other cells) to
    the stack's entry, filled by `_build_stack`.
    Every array a plan holds is read-only from construction on, in a plan
    made by dataclasses.replace too.
    """

    layout: SequenceLayout
    config: AttentionConfig
    rotation: RotationTable = field(repr=False)
    tiles: tuple[tuple[int, int, slice | np.ndarray, np.ndarray, np.ndarray | None], ...] = field(repr=False)
    ape: np.ndarray | None = field(default=None, repr=False)
    by_rows: dict[int | tuple, tuple] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for arr in (self.rotation.cos, self.rotation.sin, self.ape, *(x for tile in self.tiles for x in tile)):
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False


@dataclass
class AttentionResult:
    """Forward output plus everything the backward pass needs.

    `tile_weights` holds each tile's (heads, rows, len(cols)) softmax
    weights, in the order of the plan's tiles for R query rows: views into
    one buffer. `tiles()` pairs each with its rows and key columns; every
    weight outside them is exactly 0. `weights`, the dense (heads, R, T)
    array, is built from `tiles()` on first access and then cached; the
    heatmap command reads the tiles and never builds it.
    """

    output: np.ndarray
    tile_weights: tuple[np.ndarray, ...] = field(repr=False)
    plan: AttentionPlan = field(repr=False)
    q_rot: np.ndarray = field(repr=False)
    k_rot: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)

    def tiles(self) -> list[tuple[slice, slice | np.ndarray, np.ndarray]]:
        """(rows, cols, weights) per tile in row order: its slice of the R query rows, its ascending
        key columns (a slice or an index array) and its (heads, rows, len(cols)) weights."""
        tiles = _stack(self.plan, self.output.shape[1], len(self.output))[2]
        return [(rows, cols, w) for (rows, cols, *_), w in zip(tiles, self.tile_weights)]

    @functools.cached_property
    def weights(self) -> np.ndarray:
        n, r, _ = self.output.shape
        dense = np.zeros((n, r, self.k_rot.shape[1]))
        for rows, cols, w in self.tiles():
            dense[:, rows, cols] = w
        return dense


@dataclass
class AttentionGrads:
    grad_q: np.ndarray
    grad_k: np.ndarray
    grad_v: np.ndarray


def time_ape_embedding(temporal: np.ndarray, freqs: FrequencyTable) -> np.ndarray:
    """Sinusoidal embedding of temporal ids: (sin, cos) per frequency pair."""
    phi = int_array("temporal", temporal).astype(np.float64)[:, None] * freqs.thetas[None, :]
    emb = np.empty((len(phi), freqs.d_head), dtype=np.float64)
    emb[:, 0::2] = np.sin(phi)
    emb[:, 1::2] = np.cos(phi)
    return emb


def _checked_bias(config: AttentionConfig, rpe_bias) -> np.ndarray | None:
    """`rpe_bias` as float64, refused outside time_rpe or unless a finite 1-D odd-length table; None stays None."""
    if rpe_bias is None:
        return None
    if config.pe_mode is not PeMode.TIME_RPE:
        raise ValueError("rpe_bias is only meaningful with pe_mode=time_rpe")
    b = real_array("rpe_bias", rpe_bias)
    if b.ndim != 1 or len(b) % 2 != 1:
        raise ValueError(f"rpe bias must be a 1-D odd-length table, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("rpe_bias must be finite")
    return b


def plan_attention(
    layout: SequenceLayout,
    config: AttentionConfig,
    rpe_bias: np.ndarray | None = None,
) -> AttentionPlan:
    """The AttentionPlan of `layout` under `config`, its arrays read-only.

    `rpe_bias` is only accepted in time_rpe mode; omitting it there means a
    zero bias. It must hold finite integer or real floating numbers.
    """
    rpe_bias = _checked_bias(config, rpe_bias)
    t = layout.total_len
    table = adjusted_positions(layout, config.gamma, strict_monotonic_suffix=config.strict_monotonic_suffix)
    if config.pe_mode is PeMode.TIME_ROPE_ONLY:
        pos = config.gamma * table.temporal_ids.astype(np.float64)
    elif config.pe_mode is PeMode.DUAL_ROPE:
        pos = table.adjusted
    else:
        pos = table.global_ids.astype(np.float64)
    freqs = frequencies(config.d_head, config.base)
    rotation = rotation_table(pos, freqs)
    mask = build_mask(config.mask_kind, layout, config.fw_block_causal_within_frame)
    tiles = tuple(_tile(mask, lo, table.temporal_ids, rpe_bias) for lo in range(0, t, _TILE_ROWS))
    ape = time_ape_embedding(table.temporal_ids, freqs) if config.pe_mode is PeMode.TIME_APE else None
    return AttentionPlan(layout=layout, config=config, rotation=rotation, tiles=tiles, ape=ape)


def _tile(mask: AttentionMask, lo: int, temporal: np.ndarray, rpe_bias: np.ndarray | None) -> tuple:
    """The (lo, hi, cols, mask, bias) tile of query rows [lo, hi), hi = min(lo + _TILE_ROWS, T).

    `cols` is the union of the rows' intervals: slice(0, end) when it is a
    prefix, else its sorted index array. Every column before `free`, the
    first column masked for some row, is allowed for every row and so is
    among the first `free` entries of `cols`; the tile's mask covers the rest.
    `bias` is the rows' temporal bias over `cols`, None without a bias table.
    """
    hi = min(lo + _TILE_ROWS, mask.size)
    head, start, stop = mask.head[lo:hi], mask.lo[lo:hi], mask.hi[lo:hi]
    end = int(stop.max())  # head <= lo <= hi: one past the last allowed column
    # Columns inside some row's [lo, hi), plus the widest [0, head).
    seen = np.cumsum(np.bincount(start, minlength=end + 1) - np.bincount(stop, minlength=end + 1))[:end] > 0
    seen[: head.max()] = True
    cols = slice(0, end) if seen.all() else np.flatnonzero(seen)
    free = int(np.where(start == head, stop, head).min())
    keys = np.arange(end)[cols]
    slab = mask.dense(slice(lo, hi), keys[free:])
    bias = None
    if rpe_bias is not None:  # table[R + clip(t_i - t_j, -R, R)] for a table of length 2R + 1
        radius = len(rpe_bias) // 2
        bias = rpe_bias[radius + np.clip(temporal[lo:hi, None] - temporal[keys], -radius, radius)]
    return lo, hi, cols, slab, bias


def _check_tensors(layout: SequenceLayout, config: AttentionConfig, Q, K, V) -> list[np.ndarray]:
    """Q, K, V as float64 stacks: K and V (heads, T, d_head), Q the last 1..T of those rows."""
    arrays = [real_array(name, x) for name, x in zip("QKV", (Q, K, V))]
    t, d = layout.total_len, config.d_head
    q_shape = arrays[0].shape
    if len(q_shape) != 3 or not 1 <= q_shape[1] <= t or q_shape[2] != d:
        raise ValueError(f"Q must have shape (heads, R, {d}) with 1 <= R <= {t}, got {q_shape}")
    for name, arr in zip("KV", arrays[1:]):
        if arr.shape != (q_shape[0], t, d):
            raise ValueError(f"{name} has shape {arr.shape}, expected {(q_shape[0], t, d)} for Q of shape {q_shape}")
    for name, arr in zip("QKV", arrays):
        if not np.logical_and.reduce(np.isfinite(arr), axis=None):
            raise NonFiniteError(f"{name} contains non-finite values")
    return arrays


def _stack(plan, r: int, n: int) -> tuple[RotationTable, RotationTable, tuple, tuple]:
    """(rotation, inverse, tiles, shares): what a call with n heads and the last r query rows of `plan` reads.

    `plan` is an AttentionPlan or a tuple of cell plans. For one plan these
    are its `by_rows[r]` entry's tables and tiles, and `shares` pairs
    slice(None) with that entry. A stack of cells reads `cells[0].by_rows[(r,
    n, cells[1:])]`, built by `_build_stack` on the first such call.
    """
    if isinstance(plan, tuple) and len(plan) > 1:
        return plan[0].by_rows.get((r, n, plan[1:])) or _build_stack(plan, r, n)
    cell = plan[0] if isinstance(plan, tuple) else plan
    found = cell.by_rows.get(r) or _build_rows(cell, r)
    return found[0], found[1], found[2], ((slice(None), found),)


def _build_stack(cells: tuple[AttentionPlan, ...], r: int, n: int) -> tuple[RotationTable, RotationTable, tuple, tuple]:
    """`cells[0].by_rows[(r, n, cells[1:])]`, built here: a stack's (rotation, inverse, tiles, shares).

    Refuses cells that differ in layout, d_head or any tile's key columns.
    `rotation` repeats each cell's (r + T)-row table over its share of the n
    heads, and `inverse` is its (cos, -sin). The tiles are the first cell's;
    when the cells differ in mask, each tile's `mask` covers every head's
    rows, flattened: each cell's slab padded on the left with zero columns to
    the widest and repeated over its share. A zero added to a score leaves
    its weight bitwise as it was. `shares` pairs the head slice of each cell
    with APE rows or an RPE bias with its `by_rows[r]` entry.
    """
    found = [cell.by_rows.get(r) or _build_rows(cell, r) for cell in cells]
    first = found[0][2]
    for cell, (_, _, tiles, _) in zip(cells[1:], found[1:]):
        same_cols = all(_same_cols(a[1], b[1]) for a, b in zip(tiles, first))
        if (cell.layout, cell.config.d_head) != (cells[0].layout, cells[0].config.d_head) or not same_cols:
            raise ValueError("plan was built for another layout or config")
    size = n // len(cells)
    rotation = RotationTable(*(np.concatenate([np.tile(getattr(f[0], part), (size, 1)) for f in found])
                               for part in ("cos", "sin")))
    masks_differ = len({(c.config.mask_kind, c.config.fw_block_causal_within_frame) for c in cells}) > 1
    tiles = []
    for i, (rows, cols, mask, _, start, stop, width) in enumerate(first):
        if masks_differ:
            slabs = [f[2][i][2] for f in found]
            wide = max(slab.shape[1] for slab in slabs)
            mask = np.concatenate([np.tile(np.pad(slab, ((0, 0), (wide - slab.shape[1], 0))), (size, 1)) for slab in slabs])
        tiles.append((rows, cols, mask, None, start, stop, width))
    shares = tuple((slice(lo, lo + size), f) for lo, f in zip(range(0, n, size), found)
                   if f[3] is not None or f[2][0][3] is not None)
    stacked = cells[0].by_rows[(r, n, cells[1:])] = (rotation, rotation.inverse(), tuple(tiles), shares)
    for arr in (rotation.cos, rotation.sin, stacked[1].sin, *(tile[2] for tile in tiles)):
        arr.flags.writeable = False
    return stacked


def _same_cols(a: slice | np.ndarray, b: slice | np.ndarray) -> bool:
    return type(a) is type(b) and (a == b if isinstance(a, slice) else np.array_equal(a, b))


def _build_rows(plan: AttentionPlan, r: int) -> tuple[RotationTable, RotationTable, tuple, np.ndarray | None]:
    """`plan.by_rows[r]`, built here: (rotation, inverse, tiles, ape) of the last r query rows.

    The (r + T)-row `rotation` turns query row i by plan row T - r + i and key
    row j by row j, so one table serves each head's stacked Q and K rows;
    `inverse` is its (cos, -sin), and `ape` (time_ape only) the APE rows of
    the same stacked rows. `tiles` are the plan's tiles clipped to query
    rows >= T - r, as (rows, cols, mask, bias, start, stop, width): `rows`
    slices the r query rows, a clipped tile keeps its `cols`, a union over a
    superset of its rows, and the remaining rows of its mask and bias, and
    a call with n heads keeps the tile's (n, rows, width = len(cols))
    weights at [n * start, n * stop) of its one buffer. Two threads that
    miss at once build equal entries, and either may be kept.
    """
    offset = plan.layout.total_len - r
    cos, sin, ape = (None if part is None else np.concatenate((part[offset:], part))
                     for part in (plan.rotation.cos, plan.rotation.sin, plan.ape))
    tiles, stop = [], 0
    for lo, hi, cols, mask, bias in plan.tiles:
        if hi > offset:
            cut = max(offset - lo, 0)
            width = cols.stop if isinstance(cols, slice) else len(cols)
            start, stop = stop, stop + (hi - lo - cut) * width
            rows = slice(lo + cut - offset, hi - offset)
            tiles.append((rows, cols, mask[cut:], None if bias is None else bias[cut:], start, stop, width))
    table = RotationTable(cos, sin)
    found = plan.by_rows[r] = (table, table.inverse(), tuple(tiles), ape)
    for arr in (cos, sin, found[1].sin, ape):
        if arr is not None:
            arr.flags.writeable = False
    return found


def attention_forward(
    Q: np.ndarray,
    K: np.ndarray,
    V: np.ndarray,
    layout: SequenceLayout,
    config: AttentionConfig,
    plan: AttentionPlan | tuple[AttentionPlan, ...] | None = None,
) -> AttentionResult:
    """Rotate-score-softmax-mix over the whole head stack; returns output and the tile weights.

    Q holds the last R of the T query rows (R = T for all of them); output
    and weights hold the same R rows. Without `plan`, builds
    plan_attention(layout, config), with no rpe bias. A given `plan` must
    have been built for this layout and config, and carries any rpe bias.

    `plan` may also be a tuple of cells, one plan each, the first built for
    this layout and config and every other for the same layout and d_head,
    with the same rows and key columns in every tile of the call: the stack
    then holds the cells' equal shares of its heads in cell order, and each
    share is rotated, and gets its APE rows, RPE bias and mask, by its own
    plan. The tiles, scores and softmax are shared.
    """
    Q, K, V = _check_tensors(layout, config, Q, K, V)
    if plan is None:
        plan = plan_attention(layout, config)
    cells = plan if isinstance(plan, tuple) else (plan,)
    if (cells[0].layout, cells[0].config) != (layout, config):
        raise ValueError("plan was built for another layout or config")
    n, r, d = Q.shape
    if n % len(cells):
        raise ValueError(f"Q holds {n} heads, not an equal share for each of {len(cells)} plans")

    rotation, _, tiles, shares = _stack(plan, r, n)
    qk = np.concatenate((Q, K), axis=1)  # each head's R query rows, then its T key rows
    for heads, (_, _, _, ape) in shares:
        if ape is not None:  # this cell's heads only: adding zeros to another's would turn -0.0 into +0.0
            qk[heads] += ape
    qk = rotate_rows(qk.reshape(-1, d), rotation).reshape(qk.shape)
    q_rot, k_rot = qk[:, :r], qk[:, r:]

    # Each tile's scores land in its slot of one buffer and are normalised
    # there; the slots fill the first n * (last tile's stop) entries, and the
    # rest is never touched. The buffer is requested at the dense weights'
    # size because glibc sets its heap trim threshold from the largest block
    # freed: at the tiles' size, a T=528 training step's heap crossed it, was
    # returned to the OS and was faulted back each step.
    packed = np.empty(n * r * layout.total_len)
    blocks = []
    output = np.empty(Q.shape)
    for i, (rows, cols, mask, _, start, stop, width) in enumerate(tiles):
        w = packed[n * start : n * stop].reshape(n, -1, width)
        np.matmul(q_rot[:, rows], k_rot[:, cols].transpose(0, 2, 1), out=w)
        w *= config.scale
        for heads, (_, _, cell_tiles, _) in shares:
            if cell_tiles[i][3] is not None:
                w[heads] += cell_tiles[i][3]
        # A stack's mask of another row count covers every head's rows, flattened.
        scores = w if len(mask) == w.shape[1] else w.reshape(-1, width)
        masked_row_softmax(scores, mask, out=scores)
        np.matmul(w, V[:, cols], out=output[:, rows])
        blocks.append(w)
    return AttentionResult(output=output, tile_weights=tuple(blocks), plan=plan, q_rot=q_rot, k_rot=k_rot, v=V)


def attention_backward(state: AttentionResult, grad_output: np.ndarray) -> AttentionGrads:
    """Exact gradients of attention_forward w.r.t. Q, K, V.

    Positions, mask, APE rows, and RPE bias are constants of the forward
    map, so additive encodings pass gradients straight through. grad_q has
    the R rows of Q, grad_k and grad_v all T rows. Each tile reads its
    forward weights from `state.tile_weights`, writes its grad_q rows and
    adds into the `cols` rows of grad_k and grad_v; each cell's share of
    the heads is turned back by its own plan.
    """
    g = real_array("grad_output", grad_output)
    if g.shape != state.output.shape:
        raise ValueError(f"grad_output shape {g.shape} does not match output {state.output.shape}")
    n, r, d = g.shape
    _, inverse, tiles, _ = _stack(state.plan, r, n)
    grad_qk = np.zeros((n, r + state.k_rot.shape[1], d))  # grad of the rotated Q rows, then of K
    grad_qr, grad_kr = grad_qk[:, :r], grad_qk[:, r:]
    grad_v = np.zeros(state.v.shape)
    for (rows, cols, *_), w in zip(tiles, state.tile_weights):
        g_tile = g[:, rows]
        grad_scores = softmax_backward(w, g_tile @ state.v[:, cols].transpose(0, 2, 1))
        np.matmul(grad_scores, state.k_rot[:, cols], out=grad_qr[:, rows])
        grad_kr[:, cols] += grad_scores.transpose(0, 2, 1) @ state.q_rot[:, rows]
        grad_v[:, cols] += w.transpose(0, 2, 1) @ g_tile
    grad_qk *= (state.plan[0] if isinstance(state.plan, tuple) else state.plan).config.scale
    grad_qk = rotate_rows(grad_qk.reshape(-1, d), inverse).reshape(grad_qk.shape)
    return AttentionGrads(grad_q=grad_qk[:, :r], grad_k=grad_qk[:, r:], grad_v=grad_v)


def temporal_id_literal(lay: SequenceLayout, n: int, strict_monotonic_suffix: bool = False) -> int:
    """Temporal id of position n, from the three-branch definition token by token.

    `strict_monotonic_suffix` adds one on the suffix branch. Independent of
    layout.temporal_ids, which it checks.
    """
    if not lay.has_visual:
        return n
    v_s, v_e, m = lay.visual_start, lay.visual_end, lay.tokens_per_frame
    if n < v_s:
        return n
    if v_s <= n <= v_e:
        return v_s + (n - v_s) // m
    return n - (v_e - v_s + 1 - (v_e - v_s) // m) + (1 if strict_monotonic_suffix else 0)


def attention_brute_oracle(
    Q: np.ndarray,
    K: np.ndarray,
    V: np.ndarray,
    layout: SequenceLayout,
    config: AttentionConfig,
    rpe_bias: np.ndarray | None = None,
) -> np.ndarray:
    """Scalar-loop re-implementation of the forward output.

    Derives its own temporal ids (`temporal_id_literal`), per-mode positions,
    thetas and APE rows, walks every (head, query, key) triple with per-pair
    `pair_score` calls, uses the `allowed` predicate instead of a mask
    matrix, and normalises by hand. Kept deliberately independent of
    plan_attention and attention_forward so the two can check each other;
    only the rpe_bias checks are shared, so both refuse the same tables.
    """
    Q, K, V = _check_tensors(layout, config, Q, K, V)
    t = layout.total_len
    if Q.shape != K.shape:
        raise ValueError(f"the oracle takes all {t} query rows, got Q of shape {Q.shape}")
    half = config.d_head // 2
    thetas = [config.base ** (-p / half) for p in range(half)]
    freqs = FrequencyTable(np.array(thetas))
    temporal = [temporal_id_literal(layout, n, config.strict_monotonic_suffix) for n in range(t)]
    if config.pe_mode is PeMode.TIME_ROPE_ONLY:
        pos = [config.gamma * tid for tid in temporal]
    elif config.pe_mode is PeMode.DUAL_ROPE:
        pos = [n + config.gamma * tid for n, tid in enumerate(temporal)]
    else:
        pos = list(range(t))

    q_in, k_in = Q, K
    if config.pe_mode is PeMode.TIME_APE:
        ape = np.array([[f(tid * theta) for theta in thetas for f in (math.sin, math.cos)] for tid in temporal])
        q_in, k_in = Q + ape, K + ape
    checked = _checked_bias(config, rpe_bias)
    bias_table = None if checked is None else checked.tolist()
    radius = 0 if bias_table is None else len(bias_table) // 2

    out = np.zeros_like(V)
    for h in range(len(Q)):
        for i in range(t):
            cols = [
                j
                for j in range(t)
                if allowed(config.mask_kind, layout, i, j, config.fw_block_causal_within_frame)
            ]
            logits = []
            for j in cols:
                s = config.scale * pair_score(q_in[h, i], k_in[h, j], pos[i], pos[j], freqs)
                if bias_table is not None:
                    d = max(-radius, min(radius, temporal[i] - temporal[j]))
                    s += bias_table[radius + d]
                logits.append(s)
            top = max(logits)
            exps = [math.exp(s - top) for s in logits]
            z = sum(exps)
            row = np.zeros(config.d_head)
            for e, j in zip(exps, cols):
                row += (e / z) * V[h, j]
            out[h, i] = row
    return out
