"""Per-function tracing of frameattn from outside the package.

Each traced function is wrapped where its callers look it up: the wrapper
replaces the module attribute (or class attribute) at every call site, so
calls made inside the package go through it. Nothing under ``src/`` is
edited. A wrapper records calls, self time (wall time minus the time of
traced callees) and a few work counts taken from argument shapes.

The wrapper's own bookkeeping is charged to neither the function nor its
caller, so self times exclude it; it shows only in the traced-minus-untraced
operation time that the benchmark reports as ``trace.overhead_s``.

Calls made inside grid worker processes are not seen: the counters live in
the process that installed the wrappers.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

import frameattn.masks

TRIAL_WORKLOADS = ("frame_order_t20", "long_video_t528")
HEATMAP = ("heatmap_t1040",)
GRID = ("grid_t6",)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(tracer, args, kwargs, result):
    tracer.add("rope.rotate_rows.rows", np.shape(_arg(args, kwargs, 0, "mat"))[0])


def _seqs(tracer, args, kwargs, result):
    # args[0] is the TinyModel instance.
    tracer.add("model.loss_and_grads.seqs", len(_arg(args, kwargs, 1, "tokens_batch")))


def _softmax_entries(tracer, args, kwargs, result):
    tracer.add("attention.forward_entries", np.size(_arg(args, kwargs, 0, "scores")))


def _softmax_backward_entries(tracer, args, kwargs, result):
    tracer.add("attention.backward_entries", np.size(_arg(args, kwargs, 0, "weights")))


def _bytes_written(tracer, args, kwargs, result):
    tracer.add("pgmio.bytes_written", len(_arg(args, kwargs, 1, "text").encode()))


def _forward_allowed(tracer, args, kwargs, result):
    heads, t, d = np.shape(_arg(args, kwargs, 0, "Q"))
    layout = _arg(args, kwargs, 3, "layout")
    config = _arg(args, kwargs, 4, "config")
    tracer.add("attention.allowed_entries", heads * tracer.allowed_count(config, layout))
    tracer.add("attention.tensor_entries", 4 * heads * t * d)  # Q, K, V read; output written
    tracer.d_head = d


def _backward_tensors(tracer, args, kwargs, result):
    heads, t, d = np.shape(_arg(args, kwargs, 1, "grad_output"))
    tracer.add("attention.tensor_entries", 7 * heads * t * d)  # q_rot, k_rot, v, grad in; 3 grads out
    tracer.d_head = d


@dataclass(frozen=True)
class Traced:
    """One traced function: where it is defined and every site that calls it by name.

    ``name`` is ``<module>.<function>`` in frameattn's own terms and prefixes
    the metrics. ``sites`` are (module, attribute path) pairs whose value must
    be the defining function. ``workloads`` are the workloads on which the
    function must be called at least once per traced operation.
    """

    name: str
    module: str
    attr: str
    sites: tuple[tuple[str, str], ...]
    workloads: tuple[str, ...]
    work: Callable | None = None  # (tracer, args, kwargs, result) -> None, adds work counts


TRACED = (
    Traced("rope.rotate_rows", "frameattn.rope", "rotate_rows",
           (("frameattn.attention", "rotate_rows"),), TRIAL_WORKLOADS + HEATMAP, _rows),
    Traced("masks.build_mask", "frameattn.masks", "build_mask",
           (("frameattn.attention", "build_mask"), ("frameattn.cli", "build_mask")),
           TRIAL_WORKLOADS + HEATMAP),
    Traced("layout.adjusted_positions", "frameattn.layout", "adjusted_positions",
           (("frameattn.attention", "adjusted_positions"), ("frameattn.cli", "adjusted_positions")),
           TRIAL_WORKLOADS + HEATMAP),
    Traced("numerics.masked_row_softmax", "frameattn.numerics", "masked_row_softmax",
           (("frameattn.attention", "masked_row_softmax"),), TRIAL_WORKLOADS + HEATMAP, _softmax_entries),
    Traced("numerics.softmax_backward", "frameattn.numerics", "softmax_backward",
           (("frameattn.attention", "softmax_backward"),), TRIAL_WORKLOADS, _softmax_backward_entries),
    Traced("attention.attention_forward", "frameattn.attention", "attention_forward",
           (("frameattn.model", "attention_forward"), ("frameattn.cli", "attention_forward")),
           TRIAL_WORKLOADS + HEATMAP, _forward_allowed),
    Traced("attention.attention_backward", "frameattn.attention", "attention_backward",
           (("frameattn.model", "attention_backward"),), TRIAL_WORKLOADS, _backward_tensors),
    Traced("model.loss_and_grads", "frameattn.model", "TinyModel.loss_and_grads",
           (("frameattn.model", "TinyModel.loss_and_grads"),), TRIAL_WORKLOADS, _seqs),
    Traced("model.predict", "frameattn.model", "TinyModel.predict",
           (("frameattn.model", "TinyModel.predict"),), TRIAL_WORKLOADS),
    Traced("tasks.gen_task", "frameattn.tasks", "gen_task",
           (("frameattn.harness", "gen_task"),), TRIAL_WORKLOADS),
    Traced("harness.train_trial", "frameattn.harness", "train_trial",
           (("frameattn.harness", "train_trial"),), TRIAL_WORKLOADS),
    Traced("harness.ablation_grid", "frameattn.harness", "ablation_grid",
           (("frameattn.harness", "ablation_grid"), ("frameattn.cli", "ablation_grid")), GRID),
    Traced("pgmio.pgm_text", "frameattn.pgmio", "pgm_text",
           (("frameattn.cli", "pgm_text"), ("frameattn.masks", "pgm_text")), HEATMAP),
    Traced("pgmio.csv_text", "frameattn.pgmio", "csv_text",
           (("frameattn.cli", "csv_text"), ("frameattn.masks", "csv_text")), HEATMAP),
    Traced("pgmio.write_text_atomic", "frameattn.pgmio", "write_text_atomic",
           (("frameattn.cli", "write_text_atomic"),), HEATMAP, _bytes_written),
    Traced("cli.main", "frameattn.cli", "main", (("frameattn.cli", "main"),), HEATMAP),
)


class TraceError(RuntimeError):
    """A traced name no longer resolves, or a site no longer calls the traced function."""


def _resolve(module: str, path: str):
    """(owner object, attribute name, current value) for a dotted attribute path."""
    try:
        owner = importlib.import_module(module)
        *parents, leaf = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        return owner, leaf, getattr(owner, leaf)
    except (ImportError, AttributeError) as exc:
        raise TraceError(f"{module}.{path} does not resolve: {exc}") from exc


def check_sites() -> list[str]:
    """Problems with the traced names; empty when every site still calls its function."""
    problems = []
    for spec in TRACED:
        try:
            _, _, target = _resolve(spec.module, spec.attr)
            for module, path in spec.sites:
                _, _, value = _resolve(module, path)
                if value is not target:
                    problems.append(f"{module}.{path} is no longer {spec.module}.{spec.attr}")
        except TraceError as exc:
            problems.append(str(exc))
    return problems


@dataclass
class FunctionStats:
    calls: int = 0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Wraps every TRACED function while installed; counters cover the ops since reset()."""

    stats: dict[str, FunctionStats] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    d_head: int = 0
    _stack: list[float] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)
    _allowed: dict[tuple, int] = field(default_factory=dict)

    def __post_init__(self):
        self.reset()

    def reset(self) -> None:
        self.stats = {spec.name: FunctionStats() for spec in TRACED}
        self.counts = {}
        self.d_head = 0

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(amount)

    def allowed_count(self, config, layout) -> int:
        """Allowed entries of one head's mask, computed once per (mask, layout)."""
        key = (config.mask_kind, layout, config.fw_block_causal_within_frame)
        if key not in self._allowed:
            # The defining module's binding, which no wrapper replaces.
            mask = frameattn.masks.build_mask(*key)
            self._allowed[key] = int(np.count_nonzero(mask.values == 0.0))
        return self._allowed[key]

    def _wrap(self, spec: Traced, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            done = None
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
                done = time.perf_counter()
                if spec.work is not None:
                    spec.work(self, args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                elapsed = (done or end) - start
                st = self.stats[spec.name]
                st.calls += 1
                st.self_s += elapsed - stack.pop()
                if stack:  # the caller's child time includes this wrapper's bookkeeping
                    stack[-1] += end - start

        return wrapper

    def install(self) -> None:
        problems = check_sites()
        if problems:
            raise TraceError("; ".join(problems))
        for spec in TRACED:
            _, _, target = _resolve(spec.module, spec.attr)
            wrapper = self._wrap(spec, target)
            for module, path in spec.sites:
                owner, leaf, _ = _resolve(module, path)
                self._saved.append((owner, leaf, target))
                setattr(owner, leaf, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def snapshot(self) -> dict[str, float]:
        """Flat per-function and work-count figures since the last reset()."""
        out: dict[str, float] = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_s"] = st.self_s
        c = self.counts
        fwd = c.get("attention.forward_entries", 0)
        bwd = c.get("attention.backward_entries", 0)
        out["rope.rotate_rows.rows"] = c.get("rope.rotate_rows.rows", 0)
        out["model.loss_and_grads.seqs"] = c.get("model.loss_and_grads.seqs", 0)
        out["pgmio.bytes_written"] = c.get("pgmio.bytes_written", 0)
        out["attention.score_entries"] = fwd + bwd
        out["attention.allowed_fraction"] = c.get("attention.allowed_entries", 0) / fwd if fwd else 0.0
        # Products with a score-sized operand, 2 * d_head flops per score entry
        # each: two forward (QK^T, WV), four backward (grad_w, grad_v, grad_q, grad_k).
        out["attention.flops_computed"] = 2 * self.d_head * (2 * fwd + 4 * bwd)
        # float64 bytes: three score-sized arrays per softmax call (forward reads
        # scores and mask, writes weights; backward reads weights and their
        # gradient, writes score gradients) plus the (H, T, D) tensors.
        out["attention.bytes_computed"] = 8 * (3 * (fwd + bwd) + c.get("attention.tensor_entries", 0))
        return out


# Work counts and ratios, by the traced function whose calls produce them.
DERIVED = {
    "rope.rotate_rows.rows": "rope.rotate_rows",
    "model.loss_and_grads.seqs": "model.loss_and_grads",
    "pgmio.bytes_written": "pgmio.write_text_atomic",
    "attention.score_entries": "numerics.masked_row_softmax",
    "attention.allowed_fraction": "numerics.masked_row_softmax",
    "attention.flops_computed": "numerics.masked_row_softmax",
    "attention.bytes_computed": "numerics.masked_row_softmax",
}


def applicable(workload: str, metric: str) -> bool:
    """Whether the per-layer `metric` is measured on `workload` (it reads 0 where it is not)."""
    if metric == "trace.overhead_s":
        return True
    if metric == "harness.pool_efficiency":
        return workload in GRID
    owner = DERIVED.get(metric) or metric.rsplit(".", 1)[0]
    return workload in next(spec.workloads for spec in TRACED if spec.name == owner)


def coverage_problems(workload: str, snapshot: dict[str, float]) -> list[str]:
    """Traced functions the table assigns to `workload` that one traced operation never called."""
    return [
        f"{spec.name} was not called on {workload}"
        for spec in TRACED
        if workload in spec.workloads and snapshot[f"{spec.name}.calls"] == 0
    ]
