"""Command-line front end.

Subcommands: render-mask, positions, heatmap, gradcheck, sweep, grid,
selftest. Exit statuses are a stable contract: 0 success, 1 check failure,
2 bad input (a request too large for memory included), 3 I/O error.
Everything is deterministic given flags and seeds. Output locations are
checked before any work; files are written atomically (temp + rename),
into directories made once the work is done.

JSON arguments (--layout, --config) accept either inline JSON text or a
path to a JSON file. When --out is omitted, the FRAMEATTN_OUT environment
variable supplies the default output directory.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .attention import AttentionConfig, PeMode, attention_forward
from .gradcheck import ATTENTION_TOLERANCE, MODEL_TOLERANCE, attention_fd_error, default_micro_cases, model_fd_error
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
from .layout import SequenceLayout, adjusted_positions, check_fields, check_int, parse_enums
from .masks import MaskKind, build_mask, mask_stats, mask_to_csv, mask_to_pgm
from .numerics import make_rng
from .pgmio import csv_text, pgm_text, write_text_atomic
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


def _resolve_out(path: str | None, default_name: str, file: bool = False) -> str:
    """`path`, else `default_name` in $FRAMEATTN_OUT, once it is known to be writable; creates nothing."""
    if not path:
        env = os.environ.get(OUT_DIR_ENV)
        if not env:
            raise ValueError(f"--out not given and {OUT_DIR_ENV} is not set")
        path = os.path.join(env, default_name)
    if file and os.path.isdir(path):
        raise IsADirectoryError(f"is a directory: {path}")
    # The nearest existing ancestor of its directory (the parent of a `file`) must be a writable directory.
    ancestor = os.path.abspath(os.path.dirname(path) if file else path)
    while not os.path.lexists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not os.path.isdir(ancestor):
        raise NotADirectoryError(f"not a directory: {ancestor}")
    if not os.access(ancestor, os.W_OK | os.X_OK):
        raise PermissionError(f"cannot write in {ancestor}")
    return path


def _write(path: str, text: str) -> None:
    """Make the directory of `path`, write `text` to it atomically and report it."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    write_text_atomic(path, text)
    print(f"wrote {path}")


ATTENTION_FIELDS = ("layout", "num_heads", *AttentionConfig.__dataclass_fields__)


def _attention_setup(obj: dict) -> tuple[SequenceLayout, AttentionConfig, tuple[int, int, int]]:
    """Attention config JSON: layout, config and the (num_heads, T, d_head) shape of Q, K, V.

    Every field is checked by the config types, num_heads here; an absent
    attention field takes AttentionConfig's default, an absent num_heads TrialConfig's.
    """
    check_fields("config", obj, ATTENTION_FIELDS, ("layout",))
    fields = dict(obj)
    layout = SequenceLayout.from_dict(fields.pop("layout"))
    num_heads = fields.pop("num_heads", TrialConfig.num_heads)
    check_int("num_heads", num_heads, 1)
    config = AttentionConfig(**parse_enums(AttentionConfig, fields))
    return layout, config, (num_heads, layout.total_len, config.d_head)


def cmd_render_mask(args) -> int:
    layout = SequenceLayout.from_dict(_load_json_arg(args.layout))
    kind = MaskKind.from_string(args.kind)
    if args.out and not args.out.endswith((".pgm", ".csv")):
        raise ValueError(f"output path must end in .pgm or .csv, got {args.out!r}")
    out = _resolve_out(args.out, f"mask_{kind.value}.pgm", file=True)
    mask = build_mask(kind, layout, fw_block_causal_within_frame=args.fw_block_causal_within_frame)
    print(f"allowed_count={mask_stats(mask)['allowed_count']}")
    _write(out, mask_to_pgm(mask) if out.endswith(".pgm") else mask_to_csv(mask))
    return EXIT_OK


def cmd_positions(args) -> int:
    layout = SequenceLayout.from_dict(_load_json_arg(args.layout))
    table = adjusted_positions(layout, args.gamma, strict_monotonic_suffix=args.strict_monotonic_suffix)
    rows = [
        (int(n), layout.role_of(int(n)).value, int(table.temporal_ids[n]), repr(float(table.adjusted[n])))
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


def _heatmap_pixels(weights: np.ndarray, peak: float | None = None) -> np.ndarray:
    """`weights` scaled linearly from [0, peak] to 0..255 as uint8; `peak` defaults to their max."""
    if peak is None:
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
    out_dir = _resolve_out(args.out, "heatmap")
    result = attention_forward(q, k, v, layout, config)
    t = layout.total_len
    tiles = [(np.arange(t)[cols], w) for _, cols, w in result.tiles()]  # every weight outside them is 0
    for h in range(shape[0]):
        blocks = [(cols, w[h]) for cols, w in tiles]
        if args.format == "pgm":  # weights are >= 0, so the tiles' peak is the dense weights' peak
            peak = max(float(w.max()) for _, w in blocks)
            blocks = [(cols, _heatmap_pixels(w, peak)) for cols, w in blocks]
        text = (pgm_text if args.format == "pgm" else csv_text)(blocks, (t, t))
        _write(os.path.join(out_dir, f"head_{h}.{args.format}"), text)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    worst, worst_name = 0.0, ""
    for pe, mk in default_micro_cases():
        err = attention_fd_error(pe, mk, seed=args.seed)
        if err > worst:
            worst, worst_name = err, f"{pe.value}/{mk.value}"
    print(f"attention max_rel_err={worst:.3e} ({worst_name})")
    model_err = model_fd_error(seed=args.seed)
    print(f"model max_rel_err={model_err:.3e}")
    if worst >= ATTENTION_TOLERANCE or model_err >= MODEL_TOLERANCE:
        print("gradcheck FAILED")
        return EXIT_CHECK_FAILED
    print("gradcheck passed")
    return EXIT_OK


def _parse_list(text: str, flag: str, parse) -> list:
    try:
        values = [parse(x.strip()) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from exc
    if not values:
        raise ValueError(f"{flag} must name at least one value")
    return values


def cmd_sweep(args) -> int:
    base = TrialConfig.from_dict(_load_json_arg(args.config))
    gammas = _parse_list(args.gammas, "--gammas", float)
    out_dir = _resolve_out(args.out, "sweep")
    reports = gamma_sweep(base, gammas, workers=args.workers)
    csv = trials_csv(reports, SWEEP_COLUMNS)
    sys.stdout.write(csv)
    _write(os.path.join(out_dir, "sweep.csv"), csv)
    _write(os.path.join(out_dir, "reports.json"), json.dumps([r.result_dict() for r in reports], sort_keys=True) + "\n")
    return EXIT_OK


def cmd_grid(args) -> int:
    base = TrialConfig.from_dict(_load_json_arg(args.config))
    tasks = _parse_list(args.tasks, "--tasks", Task.from_string)
    masks = _parse_list(args.masks, "--masks", MaskKind.from_string)
    pe_modes = _parse_list(args.pe_modes, "--pe-modes", PeMode.from_string)
    seeds = _parse_list(args.seeds, "--seeds", int)
    out_dir = _resolve_out(args.out, "grid")
    reports = ablation_grid(base, tasks, masks, pe_modes, seeds, workers=args.workers)
    summary = grid_summary(reports)
    sys.stdout.write(summary)
    _write(os.path.join(out_dir, "grid.csv"), trials_csv(reports, GRID_COLUMNS))
    _write(os.path.join(out_dir, "summary.txt"), summary)
    return EXIT_OK


def cmd_selftest(args) -> int:
    ok, lines = run_selftest()
    print(*lines, sep="\n")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser, built on first use; nothing in it depends on the environment."""
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
    p.add_argument("--gamma", type=float, default=AttentionConfig.gamma)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--strict-monotonic-suffix", action="store_true", dest="strict_monotonic_suffix")
    p.set_defaults(func=cmd_positions)

    p = sub.add_parser("heatmap", help="write per-head attention weights as PGM images or CSV")
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
    p.add_argument("--gammas", default=",".join(map(str, PAPER_GAMMA_GRID)), help="gamma list (default: %(default)s)")
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
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
