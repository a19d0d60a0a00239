"""Command-line front end.

Subcommands: render-mask, positions, heatmap, gradcheck, sweep, grid,
selftest. Exit statuses are a stable contract: 0 success, 1 check failure,
2 bad input, 3 I/O error. Everything is deterministic given flags and
seeds; files are written atomically (temp + rename).

JSON arguments (--layout, --config) accept either inline JSON text or a
path to a JSON file. When --out is omitted, the FRAMEATTN_OUT environment
variable supplies the default output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .attention import AttentionConfig, PeMode, attention_forward
from .gradcheck import attention_fd_error, default_micro_cases, model_fd_error
from .harness import (
    GRID_COLUMNS,
    PAPER_GAMMA_GRID,
    SWEEP_COLUMNS,
    TrialConfig,
    ablation_grid,
    gamma_sweep,
    grid_summary,
    trials_csv,
)
from .layout import SequenceLayout, adjusted_positions, check_fields, check_int
from .masks import MaskKind, build_mask, mask_stats, mask_to_csv, mask_to_pgm
from .numerics import make_rng
from .pgmio import csv_text, pgm_text, write_text_atomic
from .rope import RopeConfig
from .selftest import run_selftest
from .tasks import Task

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_IO_ERROR = 3

OUT_DIR_ENV = "FRAMEATTN_OUT"


def _load_json_arg(value: str) -> dict:
    """Inline JSON object or a path to a file containing one."""
    text = value
    if not value.lstrip().startswith("{"):
        try:
            with open(value) as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read {value!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc


def _resolve_out(path: str | None, default_name: str) -> str:
    if path:
        return path
    env = os.environ.get(OUT_DIR_ENV)
    if env:
        return os.path.join(env, default_name)
    raise ValueError(f"--out not given and {OUT_DIR_ENV} is not set")


ATTENTION_FIELDS = (
    "layout",
    "num_heads",
    "d_head",
    "mask_kind",
    "pe_mode",
    "gamma",
    "base",
    "strict_monotonic_suffix",
    "fw_block_causal_within_frame",
)


def _attention_setup(obj: dict) -> tuple[SequenceLayout, AttentionConfig, tuple[int, int, int]]:
    """Attention config JSON: layout, config and the (num_heads, T, d_head) shape of Q, K, V.

    Every field is checked by the config types, num_heads here.
    """
    check_fields("config", obj, ATTENTION_FIELDS, ("layout",))
    layout = SequenceLayout.from_dict(obj["layout"])
    num_heads = obj.get("num_heads", 2)
    check_int("num_heads", num_heads, 1)
    config = AttentionConfig(
        rope=RopeConfig(
            d_head=obj.get("d_head", 8),
            base=obj.get("base", 10000.0),
            gamma=obj.get("gamma", 1.0),
        ),
        mask_kind=MaskKind.from_string(obj.get("mask_kind", "fw_block_causal")),
        pe_mode=PeMode.from_string(obj.get("pe_mode", "dual_rope")),
        strict_monotonic_suffix=obj.get("strict_monotonic_suffix", False),
        fw_block_causal_within_frame=obj.get("fw_block_causal_within_frame", False),
    )
    return layout, config, (num_heads, layout.total_len, config.rope.d_head)


def cmd_render_mask(args) -> int:
    layout = SequenceLayout.from_dict(_load_json_arg(args.layout))
    kind = MaskKind.from_string(args.kind)
    mask = build_mask(kind, layout, fw_block_causal_within_frame=args.fw_block_causal_within_frame)
    out = _resolve_out(args.out, f"mask_{kind.value}.pgm")
    if out.endswith(".pgm"):
        text = mask_to_pgm(mask)
    elif out.endswith(".csv"):
        text = mask_to_csv(mask)
    else:
        raise ValueError(f"output path must end in .pgm or .csv, got {out!r}")
    write_text_atomic(out, text)
    print(f"allowed_count={mask_stats(mask)['allowed_count']}")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_positions(args) -> int:
    layout = SequenceLayout.from_dict(_load_json_arg(args.layout))
    table = adjusted_positions(layout, args.gamma, strict_monotonic_suffix=args.strict_monotonic_suffix)
    rows = [
        (
            int(n),
            layout.role_of(int(n)).value,
            int(table.temporal_ids[n]),
            repr(float(table.adjusted[n])),
        )
        for n in table.global_ids
    ]
    if args.csv:
        print("n,role,temporal_id,adjusted")
        for n, role, tid, adj in rows:
            print(f"{n},{role},{tid},{adj}")
    else:
        header = ("n", "role", "temporal_id", "adjusted")
        cells = [tuple(str(c) for c in row) for row in rows]
        widths = [max(len(header[i]), *(len(c[i]) for c in cells)) for i in range(4)]
        print("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
        for c in cells:
            print("  ".join(c[i].ljust(widths[i]) for i in range(4)))
    return EXIT_OK


def _heatmap_pixels(weights: np.ndarray) -> np.ndarray:
    peak = float(weights.max())
    if peak <= 0.0:
        return np.zeros(weights.shape, dtype=np.uint8)
    # One float64 scratch, rounded in place; the uint8 pixels are 1/8 of its size.
    scaled = np.multiply(weights, 255.0)
    scaled /= peak
    return np.rint(scaled, out=scaled).astype(np.uint8)


def cmd_heatmap(args) -> int:
    layout, config, shape = _attention_setup(_load_json_arg(args.config))
    if args.qkv:
        try:
            data = np.load(args.qkv)
        except OSError as exc:
            raise ValueError(f"cannot read tensors from {args.qkv!r}: {exc}") from exc
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError(f"{args.qkv!r} is not an .npz archive of arrays Q, K, V")
        with data:
            try:
                q, k, v = data["Q"], data["K"], data["V"]
            except KeyError as exc:
                raise ValueError(f"{args.qkv!r} must contain arrays Q, K, V") from exc
        for name, arr in zip("QKV", (q, k, v)):
            if arr.shape != shape:
                raise ValueError(f"{name} in {args.qkv!r} has shape {arr.shape}, the config gives {shape}")
    else:
        rng = make_rng(args.seed, 200)
        q, k, v = (rng.standard_normal(shape) for _ in range(3))
    result = attention_forward(q, k, v, layout, config)
    out_dir = _resolve_out(args.out, "heatmap")
    os.makedirs(out_dir, exist_ok=True)
    for h, weights in enumerate(result.weights):
        if args.format == "csv":
            path = os.path.join(out_dir, f"head_{h}.csv")
            write_text_atomic(path, csv_text(weights))
        else:
            path = os.path.join(out_dir, f"head_{h}.pgm")
            write_text_atomic(path, pgm_text(_heatmap_pixels(weights)))
        print(f"wrote {path}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    worst = 0.0
    worst_name = ""
    for pe, mk in default_micro_cases():
        err = attention_fd_error(pe, mk, seed=args.seed)
        if err > worst:
            worst, worst_name = err, f"{pe.value}/{mk.value}"
    print(f"attention max_rel_err={worst:.3e} ({worst_name})")
    model_err = model_fd_error(seed=args.seed)
    print(f"model max_rel_err={model_err:.3e}")
    if worst >= 1e-4 or model_err >= 1e-3:
        print("gradcheck FAILED")
        return EXIT_CHECK_FAILED
    print("gradcheck passed")
    return EXIT_OK


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"{flag} expects a comma-separated list of numbers: {exc}") from exc
    if not values:
        raise ValueError(f"{flag} must name at least one value")
    return values


def cmd_sweep(args) -> int:
    base = TrialConfig.from_dict(_load_json_arg(args.config))
    gammas = _parse_float_list(args.gammas, "--gammas") if args.gammas else list(PAPER_GAMMA_GRID)
    out_dir = _resolve_out(args.out, "sweep")
    reports = gamma_sweep(base, gammas, workers=args.workers)
    csv = trials_csv(reports, SWEEP_COLUMNS)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "sweep.csv")
    write_text_atomic(csv_path, csv)
    reports_path = os.path.join(out_dir, "reports.json")
    write_text_atomic(
        reports_path, json.dumps([r.result_dict() for r in reports], sort_keys=True) + "\n"
    )
    sys.stdout.write(csv)
    print(f"wrote {csv_path}")
    print(f"wrote {reports_path}")
    return EXIT_OK


def cmd_grid(args) -> int:
    base = TrialConfig.from_dict(_load_json_arg(args.config))
    tasks = [Task.from_string(t) for t in args.tasks.split(",") if t]
    masks = [MaskKind.from_string(m) for m in args.masks.split(",") if m]
    pe_modes = [PeMode.from_string(p) for p in args.pe_modes.split(",") if p]
    seeds = [int(s) for s in args.seeds.split(",") if s != ""]
    out_dir = _resolve_out(args.out, "grid")
    reports = ablation_grid(base, tasks, masks, pe_modes, seeds, workers=args.workers)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "grid.csv")
    write_text_atomic(csv_path, trials_csv(reports, GRID_COLUMNS))
    summary = grid_summary(reports)
    summary_path = os.path.join(out_dir, "summary.txt")
    write_text_atomic(summary_path, summary)
    sys.stdout.write(summary)
    print(f"wrote {csv_path}")
    print(f"wrote {summary_path}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    ok, lines = run_selftest()
    for line in lines:
        print(line)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frameattn",
        description="Temporal-aware rotary attention with frame-block masks: "
        "render masks and heatmaps, verify gradients, run experiment sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("render-mask", help="write an attention mask as PGM or CSV")
    p.add_argument("--layout", required=True, help="layout JSON (inline or file path)")
    p.add_argument("--kind", required=True, help="mask kind name")
    p.add_argument("--out", help="output path ending in .pgm or .csv")
    p.add_argument("--fw-block-causal-within-frame", action="store_true", dest="fw_block_causal_within_frame")
    p.set_defaults(func=cmd_render_mask)

    p = sub.add_parser("positions", help="print global/temporal/adjusted position ids")
    p.add_argument("--layout", required=True, help="layout JSON (inline or file path)")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--strict-monotonic-suffix", action="store_true", dest="strict_monotonic_suffix")
    p.set_defaults(func=cmd_positions)

    p = sub.add_parser("heatmap", help="write per-head attention weights as PGM images")
    p.add_argument("--config", required=True, help="attention config JSON (inline or file path)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output directory")
    p.add_argument("--qkv", help="optional .npz with arrays Q, K, V instead of seeded noise")
    p.add_argument("--format", choices=("pgm", "csv"), default="pgm", help="pgm grayscale or raw-weight csv")
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("sweep", help="run one trial per gamma value")
    p.add_argument("--config", required=True, help="trial config JSON (inline or file path)")
    p.add_argument("--gammas", help="comma-separated gamma list (default: the standard grid)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("grid", help="run the full mask/pe/task/seed cross product")
    p.add_argument("--config", required=True, help="base trial config JSON (inline or file path)")
    p.add_argument("--tasks", default="frame_order")
    p.add_argument("--masks", default=",".join(k.value for k in MaskKind))
    p.add_argument("--pe-modes", dest="pe_modes", default=",".join(m.value for m in PeMode))
    p.add_argument("--seeds", default="0,1,2")
    p.add_argument("--out", help="output directory")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("selftest", help="run the built-in property battery")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
