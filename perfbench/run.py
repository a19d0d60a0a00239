"""frameattn benchmark: four workloads through the public API, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload long_video_t528 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

BENCHMARK.json gates long_video_t528, grid_t6 and heatmap_t1040.
frame_order_t20 (the criterion-08 trial at T=20) runs and is checked the same
way but is not gated: its time is Python call overhead, and on a shared
2-CPU host the interquartile range of its run medians over ten runs was
0.29-0.33 of the median in three of five sets, above any bound of 25% or
less, while the gated workloads stayed at 0.05-0.17. Its traced run still
gives the per-layer view of the T=20 training path.

One run builds the workload's inputs from ``--seed``, warms up, then cycles
through the workload's operations until the timed operations add up to
``--seconds``. Every output is checked after its operation, outside the
timed region (see workloads.py). ``--trace 0`` reports the end-to-end
metrics named in BENCHMARK.json; ``--trace 1`` alternates untraced and
traced cycles and reports the per-layer metrics (see tracing.py).

Every timing comes from one list of operation wall times. ``op_s``, the
gated time that every workload reports, is the median operation time, or,
where operations alternate (pgm and csv), the geometric mean of each
operation's median. The issue's named figures (``trial_s``,
``trials_per_s``, ``heatmap_{pgm,csv}_s`` and their tails) are printed
from the same list.

Human-readable lines come first: the environment, every metric with its
unit, and the path of a JSON record that holds every operation time in the
order it ran. The last line of standard output is the JSON result.

BLAS is pinned to one thread in this process and in every process it starts,
before numpy is imported.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60


def _clock() -> float:
    # CLOCK_MONOTONIC is system-wide, so a child's stamp compares with the parent's.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def median(values):
    return statistics.median(values) if values else None


def tail(values):
    """Highest percentile with at least ten samples beyond it, or None with ten or fewer samples."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return None
    return ordered[len(ordered) - 11]


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_id = "unknown"
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "frameattn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_id,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def build_workload(name: str, seed: int):
    from workloads import WORKLOADS, load_pins

    return WORKLOADS[name](seed, OUT_DIR, load_pins(name, seed))


def probe_setup(args) -> int:
    """Child side of a setup probe: build and warm up, then print the clock."""
    workload = build_workload(args.workload, args.seed)
    workload.warm_up()
    print(f"SETUP_DONE {_clock()!r}")
    return 0


def setup_seconds(workload: str, seed: int) -> float:
    """Process start to warmed-up workload, in a fresh process."""
    start = _clock()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    stamps = [ln for ln in proc.stdout.splitlines() if ln.startswith("SETUP_DONE ")]
    if proc.returncode != 0 or not stamps:
        raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return float(stamps[-1].split()[1]) - start


def measure(workload, seconds: float, trace: bool, setup_probes: int = 0) -> dict:
    """Cycle through the workload's operations until the timed ones add up to `seconds`.

    With `trace`, each untraced cycle is followed by a traced one, and
    per-layer figures are taken from the traced cycles. The `setup_probes`
    fresh-process set-up measurements run between cycles, spread evenly over
    the timed seconds, so that they meet the same changes in host load as
    the operations do.
    """
    from tracing import Tracer, coverage_problems

    tracer = Tracer() if trace else None
    samples, cycles, problems = [], [], []
    attempted = failed = 0
    timed = 0.0
    rep = 0
    setup: list[float] = []
    while timed < seconds or rep == 0:
        for traced in (False, True) if trace else (False,):
            cycle = {"rep": rep, "traced": traced, "ops": len(workload.labels), "extras": [], "ok": True}
            if traced:
                tracer.reset()
            for label in workload.labels:
                attempted += 1
                output, error = None, None
                start = time.perf_counter()
                try:
                    if traced:
                        tracer.install()
                    output = workload.run(label)
                except Exception:  # an operation that raised is a failed operation
                    error = traceback.format_exc()
                finally:
                    elapsed = time.perf_counter() - start
                    if traced:
                        tracer.uninstall()
                timed += elapsed
                if error is None:
                    try:
                        op_problems = workload.check(label, output)
                    except (OSError, ValueError) as exc:  # unreadable or malformed output files
                        op_problems = [f"output check could not read the output: {exc!r}"]
                    cycle["extras"].append(workload.extras(label, output, elapsed))
                else:
                    op_problems = [error]
                samples.append({"index": len(samples), "workload": workload.name, "rep": rep,
                                "op": label, "traced": traced, "seconds": elapsed,
                                "ok": not op_problems})
                if op_problems:
                    failed += 1
                    cycle["ok"] = False
                    problems += [f"rep {rep} {label}{' traced' if traced else ''}: {p}" for p in op_problems]
            if traced:
                cycle["trace"] = tracer.snapshot()
                missing = coverage_problems(workload.name, cycle["trace"])
                if missing and cycle["ok"]:
                    failed += len(workload.labels)
                problems += [f"rep {rep} traced: {p}" for p in missing]
            cycles.append(cycle)
        if rep == 0:
            # Read before any setup probe has run, so that the only children are pool workers.
            children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        while len(setup) < setup_probes and timed >= len(setup) * seconds / setup_probes:
            setup.append(setup_seconds(workload.name, workload.seed))
        rep += 1
    rss_kb = {resource.RUSAGE_SELF: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.RUSAGE_CHILDREN: children_kb}
    return {"samples": samples, "cycles": cycles, "attempted": attempted, "failed": failed,
            "problems": problems, "rss_kb": rss_kb, "setup": setup}


def op_times(samples, traced: bool) -> dict[str, list[float]]:
    """Operation wall times by label, in run order."""
    times: dict[str, list[float]] = {}
    for s in samples:
        if s["traced"] == traced:
            times.setdefault(s["op"], []).append(s["seconds"])
    return times


def op_seconds(times: dict[str, list[float]]) -> float:
    """Geometric mean over labels of each label's median time.

    With one label this is the median. With several, a change of x% in one
    label's time moves it by the same share whichever label is the slower.
    """
    return statistics.geometric_mean([median(v) for v in times.values()])


def end_to_end(workload, run: dict) -> tuple[dict, dict]:
    """(gated metrics for the JSON line, every named metric for the report), from one list of times."""
    times = op_times(run["samples"], traced=False)
    op_s = op_seconds(times)
    setup_s = median(run["setup"])
    rss_mb = run["rss_kb"][resource.RUSAGE_SELF] / 1024.0
    if workload.name == "grid_t6":
        from workloads import GRID_WORKERS

        # Parent plus every worker at the largest worker's peak. Workers are
        # forked, and a worker's peak includes the parent pages it still
        # shares, so those pages count once per worker: an upper bound on
        # the memory the grid holds, not the sum of private pages.
        rss_mb += GRID_WORKERS * run["rss_kb"][resource.RUSAGE_CHILDREN] / 1024.0
    gated = {"op_s": (op_s, "s"), "setup_s": (setup_s, "s"), "peak_rss_mb": (rss_mb, "MB")}
    named = dict(gated)
    if workload.name == "grid_t6":
        named["trials_per_s"] = (workload.trials / op_s, "1/s")
    elif workload.name == "heatmap_t1040":
        for label, values in times.items():
            named[f"heatmap_{label}_s"] = (median(values), "s")
            named[f"heatmap_{label}_s_tail"] = (tail(values), "s")
    else:
        trials = [t for values in times.values() for t in values]
        named["trial_s"] = (median(trials), "s")
        named["trial_s_tail"] = (tail(trials), "s")
    named["failed_frac"] = (run["failed"] / run["attempted"], "ratio")
    named["samples"] = (sum(len(v) for v in times.values()), "count")
    return gated, named


def per_layer(run: dict, names: list[tuple[str, str]]) -> dict:
    """Median over traced cycles of each per-operation figure."""
    traced = [c for c in run["cycles"] if c["traced"] and "trace" in c]
    metrics = {}
    for name, unit in names:
        if name == "trace.overhead_s":
            value = (op_seconds(op_times(run["samples"], traced=True))
                     - op_seconds(op_times(run["samples"], traced=False)))
        elif name == "harness.pool_efficiency":
            effs = [e["pool_efficiency"] for c in run["cycles"] if not c["traced"] for e in c["extras"]
                    if "pool_efficiency" in e]
            value = median(effs) or 0.0
        else:
            # Counts and times are per operation; ratios are already per cycle.
            value = median([c["trace"][name] / (1 if unit == "ratio" else c["ops"]) for c in traced])
        metrics[name] = (value, unit)
    return metrics


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def run_one(args) -> int:
    env = environment()
    workload = build_workload(args.workload, args.seed)
    workload.warm_up()
    run = measure(workload, args.seconds, bool(args.trace), 0 if args.trace else SETUP_PROBES)

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for key, value in env.items():
        print(f"  env {key}: {value}")
    if workload.pins is None:
        print(f"  checks: seed {args.seed} is not the pinned seed; determinism and oracle checks only")
    else:
        print("  checks: pins, determinism and oracle")
    if args.trace:
        from tracing import applicable

        definition = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [(m["name"], m["unit"]) for m in definition["per_layer"]]
        metrics = per_layer(run, names)
        report = {}
        for name, (value, unit) in metrics.items():
            ok = applicable(workload.name, name)
            note = "" if ok else "  (not applicable: not called in this process on this workload)"
            print(f"  {name:40s} {_fmt(value):>14s} {unit}{note}")
            report[name] = {"value": value, "unit": unit, "applicable": ok}
    else:
        metrics, named = end_to_end(workload, run)
        for name, (value, unit) in named.items():
            note = "  (needs more than 10 samples)" if value is None else ""
            print(f"  {name:40s} {_fmt(value):>14s} {unit}{note}")
        report = {name: {"value": v, "unit": u} for name, (v, u) in {**named, **metrics}.items()}
        report["setup_s"]["samples"] = run["setup"]
    for problem in run["problems"]:
        print(f"  FAILED {problem}", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / f"{workload.name}_seed{args.seed}_trace{args.trace}.json"
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "pinned": workload.pins is not None, "metrics": report,
              "problems": run["problems"], "samples": run["samples"]}
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"  record {record_path.relative_to(ROOT)}")

    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results, code = {}, 0
    from workloads import WORKLOADS

    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    if not (SRC / "frameattn" / "__init__.py").is_file():
        print(f"error: {SRC / 'frameattn'} not found; run from a frameattn checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        return probe_setup(args)
    shutil.rmtree(OUT_DIR / "heatmap", ignore_errors=True)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
