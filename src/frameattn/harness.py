"""Desk-scale experiment harness: trials, gamma sweeps, ablation grids.

Every trial is fully determined by its TrialConfig: parameter init, data
generation, batch order, and the optional temporal-bias table all derive
from the trial seed through fixed substreams. Reports are byte-identical
across runs except for the wall-clock field, which is excluded from all
serialised tables.

run_trials trains configs that differ only in pe_mode and gamma (the
rest equal, the seed included) in lockstep, and, in a sequence of at most
attention._TILE_ROWS tokens, in mask_kind and fw_block_causal_within_frame
too: such configs share their datasets, batch order, initial parameters and
attention tiles (one tile over every key column, under any mask), so one
stacked model step serves the whole group, while each cell keeps its own
rotation, APE rows, RPE bias and mask. A group holds at most
model.max_cells configs, the most whose cells * batch * heads * T * T fits
the model's _SCORE_BUDGET, so the stacked batch is one chunk, as each
trial's own batch is: the 20 mask x pe mode trials of one grid_t6 seed are
one group, and a T=528 trial stays a group of one. Every report is bitwise
its own train_trial's; its wall_ms is the group's wall time divided by the
group size, so the sum of wall_ms over the reports stays the busy time.

All emitted tables carry REPORT_HEADER: these are synthetic direction-of-
effect experiments, and their absolute accuracies are not comparable to any
published video benchmark.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import json
import math
import os
import statistics
import threading
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import attention
from .attention import AttentionConfig, AttentionPlan, PeMode, plan_attention
from .layout import NamedEnum, SequenceLayout, adjusted_positions, check_fields, check_float, check_int, parse_enums
from .masks import MaskKind
from .model import ModelConfig, TinyModel, max_cells
from .numerics import NonFiniteError, make_rng
from .tasks import Dataset, Task, check_task, gen_task, num_classes, vocab_size

__all__ = [
    "REPORT_HEADER",
    "TrialConfig",
    "TrialReport",
    "PAPER_GAMMA_GRID",
    "setup_trial",
    "train_trial",
    "run_trials",
    "gamma_sweep",
    "ablation_grid",
    "SWEEP_COLUMNS",
    "GRID_COLUMNS",
    "trials_csv",
    "grid_summary",
]

REPORT_HEADER = (
    "# synthetic-task harness: direction-of-effect comparisons only; "
    "absolute numbers are not comparable to any published benchmark"
)

# The gamma grid the sweep defaults to.
PAPER_GAMMA_GRID = (0.1, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0)

# Smallest accepted value of each integer field the attention and model configs leave unchecked.
_INT_MINIMUMS = {
    "seed": 0,
    "steps": 1,
    "num_symbols": 1,
    "train_size": 1,
    "eval_size": 1,
    "batch_size": 1,
    "rpe_radius": 1,
}
_FLOAT_FIELDS = ("lr", "momentum", "rope_base", "converge_threshold", "rpe_scale")


@dataclass(frozen=True)
class TrialConfig:
    """One trial; its attention and model configs are derived from AttentionConfig's and ModelConfig's fields."""

    task: Task
    layout: SequenceLayout
    pe_mode: PeMode = AttentionConfig.pe_mode
    mask_kind: MaskKind = AttentionConfig.mask_kind
    gamma: float = AttentionConfig.gamma
    seed: int = 0
    steps: int = 500
    lr: float = 0.02
    momentum: float = 0.9
    layers: int = 2
    num_heads: int = 2
    d_head: int = AttentionConfig.d_head
    ff_hidden: int = ModelConfig.ff_hidden
    num_symbols: int = 8
    rope_base: float = AttentionConfig.base
    train_size: int = 256
    eval_size: int = 256
    batch_size: int = 16
    converge_threshold: float = 0.25
    rpe_radius: int = 8
    rpe_scale: float = 0.1
    strict_monotonic_suffix: bool = AttentionConfig.strict_monotonic_suffix
    fw_block_causal_within_frame: bool = AttentionConfig.fw_block_causal_within_frame

    def __post_init__(self):
        if not isinstance(self.layout, SequenceLayout):
            raise ValueError(f"layout must be a SequenceLayout, got {self.layout!r}")
        for name, minimum in _INT_MINIMUMS.items():
            check_int(name, getattr(self, name), minimum)
        for name in _FLOAT_FIELDS:
            check_float(name, getattr(self, name))
        # The attention and model configs check every other field, and reject what
        # could never run (layers=5, odd d_head, rope_base <= 1) before any trial.
        self.attention_config()
        # The trial's own rules: finite positions, data its task can generate.
        adjusted_positions(self.layout, self.gamma, self.strict_monotonic_suffix)
        check_task(self.task, self.layout, self.num_symbols)
        # The rpe bias is drawn from [-rpe_scale, rpe_scale].
        if not (self.rpe_scale >= 0 and math.isfinite(2.0 * self.rpe_scale)):
            raise ValueError(f"rpe_scale must be >= 0 with 2 * rpe_scale finite, got {self.rpe_scale!r}")
        self.model_config()
        # Numpy scalars pass the checks; keep the Python values they equal, so the config serialises.
        for name in self.__dataclass_fields__:
            if isinstance(getattr(self, name), np.generic):
                object.__setattr__(self, name, getattr(self, name).item())

    def _shared(self, cls) -> dict:
        """This config's values of the fields it shares with dataclass `cls`."""
        return {name: getattr(self, name) for name in cls.__dataclass_fields__ if name in self.__dataclass_fields__}

    def attention_config(self) -> AttentionConfig:
        return AttentionConfig(base=self.rope_base, **self._shared(AttentionConfig))

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            vocab_size=vocab_size(self.num_symbols),
            num_classes=num_classes(self.task, self.layout, self.num_symbols),
            **self._shared(ModelConfig),
        )

    def to_dict(self) -> dict:
        return {name: v.value if isinstance(v, NamedEnum) else v for name, v in asdict(self).items()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, obj: dict) -> "TrialConfig":
        check_fields("trial config", obj, cls.__dataclass_fields__, ("task", "layout"))
        data = dict(obj, task=Task.from_string(obj["task"]), layout=SequenceLayout.from_dict(obj["layout"]))
        return cls(**parse_enums(cls, data))

    @classmethod
    def from_json(cls, text: str) -> "TrialConfig":
        return cls.from_dict(json.loads(text))


@dataclass
class TrialReport:
    config: TrialConfig
    loss_curve: list[float]
    accuracy: float
    wall_ms: float
    converged: bool

    def result_dict(self) -> dict:
        """Everything except wall time; the unit of determinism comparisons."""
        return {
            "config": self.config.to_dict(),
            "loss_curve": self.loss_curve,
            "accuracy": self.accuracy,
            "converged": self.converged,
        }

    def to_json(self) -> str:
        return json.dumps(self.result_dict(), sort_keys=True)


def setup_trial(config: TrialConfig) -> tuple[Dataset, Dataset, TinyModel, AttentionPlan]:
    """A trial's training set, eval set, initial model and AttentionPlan.

    The one place a TrialConfig becomes its parts. The seed pins the training set and the model,
    seed + 1_000_003 the eval set, and substream 4 the fixed (not trained) time_rpe bias.
    """
    train = gen_task(config.task, config.layout, config.seed, config.train_size, config.num_symbols)
    eval_set = gen_task(config.task, config.layout, config.seed + 1_000_003, config.eval_size, config.num_symbols)
    return train, eval_set, TinyModel(config.model_config(), seed=config.seed), _plan(config)


def _plan(config: TrialConfig) -> AttentionPlan:
    rpe_bias = None
    if config.pe_mode is PeMode.TIME_RPE:
        rpe_bias = make_rng(config.seed, 4).uniform(-config.rpe_scale, config.rpe_scale, 2 * config.rpe_radius + 1)
    return plan_attention(config.layout, config.attention_config(), rpe_bias)


def train_trial(config: TrialConfig) -> TrialReport:
    """Run one deterministic SGD trial and report its curve and accuracy.

    setup_trial builds the trial's one AttentionPlan (rotation table, tiles,
    the rpe bias), which every training step and the eval share, so nothing
    that depends only on the layout and config is rebuilt per step.

    Each step is momentum SGD on the flat parameter vector: v = momentum * v
    + grad, then model.flat -= lr * v. One check before each update sees a
    non-finite loss, a kernel's NonFiniteError or a NaN or inf anywhere in
    the flat gradient; any of them stops the updates, the remaining curve is
    filled with NaN and the report comes back with converged=False rather
    than raising. The whole eval set is predicted in one call; if that call
    raises NonFiniteError, every eval sample scores as wrong (accuracy 0.0)
    and the loss curve is kept as trained. Any other error propagates, so a
    programming error is never reported as divergence. The trial runs under
    np.errstate(all="ignore"), so np.seterr cannot change its report.

    A trial is a lockstep group of one: `_train_group` runs it.
    """
    return _train_group([config])[0]


# The fields in which the trials of one lockstep group may differ: they change only the attention plan.
_CELL_FIELDS = ("pe_mode", "gamma")
# And, with at most attention._TILE_ROWS tokens, these: the one tile then spans every key column under any mask.
_MASK_FIELDS = ("mask_kind", "fw_block_causal_within_frame")


def _group_key(config: TrialConfig) -> tuple:
    cell_fields = _CELL_FIELDS + (_MASK_FIELDS if config.layout.total_len <= attention._TILE_ROWS else ())
    return tuple(getattr(config, name) for name in config.__dataclass_fields__ if name not in cell_fields)


def _step(model: TinyModel, plan, tokens: np.ndarray, labels: np.ndarray):
    """model.loss_and_grads, or (NaN, None) when a kernel raises NonFiniteError."""
    try:
        return model.loss_and_grads(tokens, labels, plan)
    except NonFiniteError:
        # Parameters blew up badly enough that a kernel rejected them.
        return float("nan"), None


def _finite(loss, grad) -> bool:
    """Whether a step's loss (each cell's, for a stack) and gradient are finite; grad None marks NonFiniteError."""
    if grad is None:
        return False
    return bool(np.logical_and.reduce(np.isfinite(loss), axis=None)) and bool(
        np.logical_and.reduce(np.isfinite(grad), axis=None)
    )


def _train_group(configs: list[TrialConfig]) -> list[TrialReport]:
    """train_trial of each of `configs`, which share a _group_key, trained in lockstep.

    The first config's setup serves every cell but the plan. While two or
    more cells train, a step is one stacked loss_and_grads; a step that
    raises NonFiniteError or leaves any cell non-finite runs again cell by
    cell, and a cell that diverges there leaves the group.
    """
    start = time.perf_counter()
    first = configs[0]
    with np.errstate(all="ignore"):
        train, eval_set, model, plan = setup_trial(first)
        plans = [plan] + [_plan(c) for c in configs[1:]]
        batch_rng = make_rng(first.seed, 3)
        curves: list[list[float]] = [[] for _ in configs]
        final: list[TinyModel | None] = [None] * len(configs)  # each cell's last parameters
        diverged = [False] * len(configs)
        live = list(range(len(configs)))
        # One row per live cell; a group of one trains its model's own vector.
        flat = model.flat[None] if len(configs) == 1 else np.repeat(model.flat[None], len(configs), axis=0)
        velocity = np.zeros_like(flat)
        stacked, cells, live_plans = model.with_params(flat), [model.with_params(row) for row in flat], tuple(plans)
        for _ in range(first.steps):
            idx = batch_rng.integers(0, len(train), size=first.batch_size)
            tokens, labels = train.tokens[idx], train.labels[idx]
            if len(live) > 1:
                loss, grad = _step(stacked, live_plans, tokens, labels)
                if _finite(loss, grad):
                    for c, value in zip(live, loss.tolist()):
                        curves[c].append(value)
                    velocity *= first.momentum
                    velocity += grad
                    flat -= first.lr * velocity
                    continue
            kept = []
            for row, (c, cell) in enumerate(zip(live, cells)):
                loss, grad = _step(cell, plans[c], tokens, labels)
                curves[c].append(float(loss))
                if not _finite(loss, grad):
                    final[c], diverged[c] = cell, True
                    continue
                kept.append(row)
                velocity[row] *= first.momentum
                velocity[row] += grad
                flat[row] -= first.lr * velocity[row]
            if len(kept) < len(live):
                live, flat, velocity = [live[row] for row in kept], flat[kept], velocity[kept]
                if not live:
                    break
                stacked, cells = model.with_params(flat), [model.with_params(row) for row in flat]
                live_plans = tuple(plans[c] for c in live)
        for c, cell in zip(live, cells):
            final[c] = cell
        predictions = []
        for cell, cell_plan in zip(final, plans):
            try:
                predictions.append(cell.predict(eval_set.tokens, cell_plan))
            except NonFiniteError:
                predictions.append(-1)  # no class: every eval sample scores as wrong
    wall_ms = (time.perf_counter() - start) * 1000.0 / len(configs)
    reports = []
    for config, curve, predicted, failed in zip(configs, curves, predictions, diverged):
        accuracy = int(np.count_nonzero(predicted == eval_set.labels)) / len(eval_set)
        curve += [float("nan")] * (config.steps - len(curve))
        # A trial that did not diverge recorded a finite loss at every step.
        converged = not failed and curve[-1] < config.converge_threshold
        reports.append(
            TrialReport(config=config, loss_curve=curve, accuracy=accuracy, wall_ms=wall_ms, converged=converged)
        )
    return reports


def _groups(configs: list[TrialConfig], workers: int) -> list[list[int]]:
    """Indices of `configs` in lockstep groups, in config order.

    A group holds configs of one _group_key: equal but for _CELL_FIELDS, and
    for _MASK_FIELDS too in a sequence of at most attention._TILE_ROWS
    tokens. It holds at most model.max_cells of them, so the stacked batch
    is one chunk. With fewer groups than workers, the largest groups are
    halved until each worker has one or no group has two cells.
    """
    by_key: dict[tuple, list[list[int]]] = {}
    for i, config in enumerate(configs):
        cap = max_cells(config.model_config(), config.batch_size, config.layout.total_len)
        groups = by_key.setdefault(_group_key(config), [[]])
        if len(groups[-1]) == cap:
            groups.append([])
        groups[-1].append(i)
    groups = [group for key_groups in by_key.values() for group in key_groups]
    while len(groups) < workers:
        k = max(range(len(groups)), key=lambda j: len(groups[j]))
        if len(groups[k]) == 1:
            break
        half = (len(groups[k]) + 1) // 2
        groups[k : k + 1] = [groups[k][:half], groups[k][half:]]
    return groups


# The process pool that run_trials keeps across calls, as (workers, executor).
_pool_lock = threading.Lock()
_pool: tuple[int, concurrent.futures.Executor] | None = None


def _drop_pool(pool: concurrent.futures.Executor | None = None) -> None:
    """Shut down the kept pool (only if it is `pool`, when given); the next parallel call forks a new one."""
    global _pool
    with _pool_lock:
        if _pool is not None and pool in (None, _pool[1]):
            _pool[1].shutdown()
            _pool = None


def _forget_pool() -> None:
    # A forked child, a pool worker included, gets no working copy of its parent's pool or lock.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


atexit.register(_drop_pool)
os.register_at_fork(after_in_child=_forget_pool)


def run_trials(configs, workers: int = 1) -> list[TrialReport]:
    """train_trial over `configs`, reports in config order.

    Configs that differ only in pe_mode and gamma, and at most
    attention._TILE_ROWS tokens long also in mask_kind and
    fw_block_causal_within_frame, train in lockstep groups (`_groups`,
    `_train_group`); each report is bitwise its own train_trial's but for
    wall_ms, which is its group's wall time divided by the group size.
    With workers > 1 the groups run in a process pool of at most
    os.cpu_count() workers; the reports are identical to a serial run. The
    pool is forked at the first parallel call and kept until the process
    exits, so later calls skip the workers' start-up. A call with another
    worker count replaces it. A worker that dies breaks the pool: the call
    that sees it raises concurrent.futures.BrokenExecutor, and the next call
    forks a new pool. Workers keep the module state of their fork, so state
    patched after the first parallel call does not reach them.
    """
    global _pool
    check_int("workers", workers, 1)
    configs = list(configs)
    if not configs:
        return []
    workers = min(workers, os.cpu_count() or 1)
    groups = _groups(configs, workers)
    tasks = [[configs[i] for i in group] for group in groups]
    if workers == 1:
        results = map(_train_group, tasks)
    else:
        try:
            with _pool_lock:
                if _pool is None or _pool[0] != workers:
                    if _pool is not None:
                        _pool[1].shutdown()
                    _pool = (workers, concurrent.futures.ProcessPoolExecutor(max_workers=workers))
                pool = _pool[1]
                # Every group is queued before the lock is let go, so no other call can shut this pool down first.
                results = pool.map(_train_group, tasks)
            results = list(results)
        except concurrent.futures.BrokenExecutor:
            _drop_pool(pool)
            raise
    reports: list[TrialReport] = [None] * len(configs)
    for group, group_reports in zip(groups, results):
        for i, report in zip(group, group_reports):
            reports[i] = report
    return reports


def gamma_sweep(base: TrialConfig, gammas, workers: int = 1) -> list[TrialReport]:
    """One trial per gamma, sharing everything else including the seed; each gamma must be a finite number."""
    configs = []
    for g in gammas:
        check_float("gamma", g)
        configs.append(replace(base, gamma=float(g)))
    return run_trials(configs, workers)


def ablation_grid(
    base: TrialConfig,
    tasks,
    mask_kinds,
    pe_modes,
    seeds,
    workers: int = 1,
) -> list[TrialReport]:
    """Full cross-product of trials over the given axes."""
    tasks, mask_kinds, pe_modes, seeds = list(tasks), list(mask_kinds), list(pe_modes), list(seeds)
    if not (tasks and mask_kinds and pe_modes and seeds):
        raise ValueError("all grid axes must be non-empty")
    configs = [
        replace(base, task=t, mask_kind=mk, pe_mode=pm, seed=s)
        for t in tasks
        for mk in mask_kinds
        for pm in pe_modes
        for s in seeds
    ]
    return run_trials(configs, workers)


# Column orders of the sweep and grid tables.
SWEEP_COLUMNS = ("gamma", "pe_mode", "mask_kind", "task", "seed", "steps", "final_loss", "accuracy", "converged")
GRID_COLUMNS = ("task", "mask_kind", "pe_mode", "seed", "gamma", "steps", "final_loss", "accuracy", "converged")


def trials_csv(reports: list[TrialReport], columns) -> str:
    """REPORT_HEADER, the column names, then one row per trial.

    Columns name TrialConfig fields or final_loss, accuracy and converged;
    enums print their value, floats their repr, converged prints 0 or 1.
    """
    lines = [REPORT_HEADER, ",".join(columns)]
    for r in reports:
        row = r.config.to_dict()
        row.update(final_loss=r.loss_curve[-1], accuracy=r.accuracy, converged=int(r.converged))
        lines.append(",".join(str(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def grid_summary(reports: list[TrialReport]) -> str:
    """Per task: cells (mask, pe) ranked by median accuracy over seeds.

    A cell with any unconverged trial is flagged with the unconverged count.
    """
    cells: dict[tuple[str, str, str], list[TrialReport]] = {}
    for r in reports:
        key = (r.config.task.value, r.config.mask_kind.value, r.config.pe_mode.value)
        cells.setdefault(key, []).append(r)
    lines = [REPORT_HEADER]
    for task in sorted({k[0] for k in cells}):
        lines.append(f"task {task}")
        rows = []
        for (t, mk, pm), rs in cells.items():
            if t != task:
                continue
            med = statistics.median(r.accuracy for r in rs)
            bad = sum(1 for r in rs if not r.converged)
            rows.append((med, mk, pm, bad, len(rs)))
        rows.sort(key=lambda row: (-row[0], row[1], row[2]))
        for med, mk, pm, bad, n in rows:
            flag = f"  UNCONVERGED {bad}/{n}" if bad else ""
            lines.append(f"  {mk:16s} {pm:16s} median_acc={med!r}{flag}")
    return "\n".join(lines) + "\n"
