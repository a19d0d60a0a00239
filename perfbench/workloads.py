"""The four benchmark workloads: inputs from the workload seed, operations, checks.

Every workload cycles through a fixed list of distinct operations (its
labels). An operation calls frameattn's public API and returns its output;
checking that output happens afterwards, outside the timed region:

* determinism: every repeat of one label within a run, traced or not, gives
  byte-identical output;
* pins (pinned seed only): accuracies and PGM bytes equal the values
  recorded in pins.json, loss curves agree to LOSS_RTOL;
* oracle (heatmap): sampled rows of the CSV weights equal an independent
  recomputation from rope.rotary_oracle and masks.allowed.

Functions are looked up on their modules at call time (``harness.train_trial``,
``cli.main``), so the tracer's wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np

import frameattn.cli as cli
import frameattn.harness as harness
from frameattn.attention import PeMode
from frameattn.layout import build_layout
from frameattn.masks import MaskKind, allowed
from frameattn.numerics import make_rng
from frameattn.rope import FrequencyTable, rotary_oracle
from frameattn.tasks import Task

PINS_PATH = Path(__file__).with_name("pins.json")
PIN_SEED = 0
# Loss curves are compared with a relative tolerance, not bitwise: a kernel
# that reorders sums moves these losses by ~2e-16 relative, which must not
# count as a wrong result, while a 1e-3 relative error in the rotation moves
# them by ~1e-8. Accuracies and PGM bytes stay exact. The heatmap oracle
# checks the attention weights themselves, at rtol 1e-9.
LOSS_RTOL = 1e-10
GRID_WORKERS = 2


def _curve_problems(label: str, got: list[float], want: list[float]) -> list[str]:
    if len(got) != len(want):
        return [f"{label}: loss curve has {len(got)} steps, pinned {len(want)}"]
    for step, (g, w) in enumerate(zip(got, want)):
        if math.isnan(w) and math.isnan(g):
            continue
        if not abs(g - w) <= LOSS_RTOL * abs(w):
            return [f"{label}: loss at step {step} is {g!r}, pinned {w!r} (rtol {LOSS_RTOL})"]
    return []


def _report_problems(label: str, report, pin: dict) -> list[str]:
    problems = []
    if report.accuracy != pin["accuracy"]:
        problems.append(f"{label}: accuracy {report.accuracy!r}, pinned {pin['accuracy']!r}")
    return problems + _curve_problems(label, report.loss_curve, pin["loss_curve"])


def _report_pin(report) -> dict:
    return {"accuracy": report.accuracy, "loss_curve": report.loss_curve}


class Workload:
    """Base: labels cycle in order; outputs are checked against the first repeat and pins."""

    name = ""
    labels: tuple[str, ...] = ()

    def __init__(self, seed: int, out_dir: Path, pins: dict | None = None):
        self.seed = seed
        self.out_dir = out_dir
        self.pins = pins
        self._first: dict[str, tuple[bytes, list[str]]] = {}  # label -> (fingerprint, problems)

    def run(self, label: str):
        raise NotImplementedError

    def fingerprint(self, label: str, output) -> bytes:
        raise NotImplementedError

    def pin_problems(self, label: str, output) -> list[str]:
        return []

    def oracle_problems(self, label: str, output) -> list[str]:
        return []

    def extras(self, label: str, output, seconds: float) -> dict[str, float]:
        return {}

    def warm_up(self) -> None:
        raise NotImplementedError

    def check(self, label: str, output) -> list[str]:
        """Problems with one output; a repeat gets the verdict of the first output of its label."""
        fp = self.fingerprint(label, output)
        if label not in self._first:
            problems = self.oracle_problems(label, output)
            if self.pins is not None:
                problems += self.pin_problems(label, output)
            self._first[label] = (fp, problems)
        first_fp, problems = self._first[label]
        if fp != first_fp:
            return [f"{label}: output differs from the first run of the same input"]
        return problems

    def record_pins(self) -> dict:
        raise NotImplementedError


class TrialWorkload(Workload):
    """One harness.train_trial per operation, cycling over fixed configs."""

    configs: dict[str, harness.TrialConfig]

    def run(self, label):
        return harness.train_trial(self.configs[label])

    def fingerprint(self, label, report):
        return json.dumps(report.result_dict(), sort_keys=True).encode()

    def pin_problems(self, label, report):
        return _report_problems(label, report, self.pins[label])

    def warm_up(self):
        # Same layouts and attention configs, one step and one eval sequence.
        for cfg in self.configs.values():
            harness.train_trial(replace(cfg, steps=1, train_size=1, batch_size=1, eval_size=1))

    def record_pins(self):
        return {label: _report_pin(self.run(label)) for label in self.labels}


class FrameOrderT20(TrialWorkload):
    """Criterion-08 config at T=20; operations alternate the test's two arms."""

    name = "frame_order_t20"
    labels = ("rope_only+causal", "dual_rope+fw_block_causal")

    def __init__(self, seed, out_dir, pins=None):
        super().__init__(seed, out_dir, pins)
        base = harness.TrialConfig(
            task=Task.FRAME_ORDER, layout=build_layout(2, 4, 4, 2), steps=30, seed=seed
        )
        self.configs = {
            self.labels[0]: replace(base, pe_mode=PeMode.ROPE_ONLY, mask_kind=MaskKind.CAUSAL),
            self.labels[1]: replace(
                base, pe_mode=PeMode.DUAL_ROPE, mask_kind=MaskKind.FW_BLOCK_CAUSAL, gamma=1.0
            ),
        }


class LongVideoT528(TrialWorkload):
    """T=528 frame_order trial: few steps, small batch and eval, so T^2 work dominates."""

    name = "long_video_t528"
    labels = ("dual_rope+fw_block_causal",)

    def __init__(self, seed, out_dir, pins=None):
        super().__init__(seed, out_dir, pins)
        self.configs = {
            self.labels[0]: harness.TrialConfig(
                task=Task.FRAME_ORDER,
                layout=build_layout(8, 16, 32, 8),
                pe_mode=PeMode.DUAL_ROPE,
                mask_kind=MaskKind.FW_BLOCK_CAUSAL,
                gamma=1.0,
                num_symbols=16,
                steps=3,
                batch_size=4,
                train_size=16,
                eval_size=4,
                seed=seed,
            )
        }


class GridT6(Workload):
    """One harness.ablation_grid call: 4 masks x 5 pe modes, one trial seed, on the criterion-09 config."""

    name = "grid_t6"
    labels = ("grid",)

    def __init__(self, seed, out_dir, pins=None):
        super().__init__(seed, out_dir, pins)
        self.base = harness.TrialConfig(
            task=Task.FRAME_ORDER,
            layout=build_layout(1, 2, 2, 1),
            steps=25,
            train_size=32,
            eval_size=32,
            batch_size=8,
            num_symbols=4,
            d_head=4,
            layers=1,
        )
        self.seeds = [seed]
        self.trials = len(MaskKind) * len(PeMode) * len(self.seeds)

    def _grid(self, base):
        return harness.ablation_grid(
            base, [Task.FRAME_ORDER], list(MaskKind), list(PeMode), self.seeds, workers=GRID_WORKERS
        )

    def run(self, label):
        return self._grid(self.base)

    @staticmethod
    def _trial_label(report) -> str:
        c = report.config
        return f"{c.mask_kind.value}/{c.pe_mode.value}/{c.seed}"

    def fingerprint(self, label, reports):
        return json.dumps([r.result_dict() for r in reports], sort_keys=True).encode()

    def oracle_problems(self, label, reports):
        want = [f"{mk.value}/{pm.value}/{s}" for mk in MaskKind for pm in PeMode for s in self.seeds]
        got = [self._trial_label(r) for r in reports]
        return [] if got == want else [f"grid returned trials {got}, expected {want}"]

    def pin_problems(self, label, reports):
        pins = self.pins[label]
        if [p["trial"] for p in pins] != [self._trial_label(r) for r in reports]:
            return ["grid trials differ from the pinned trial list"]
        problems = []
        for report, pin in zip(reports, pins):
            problems += _report_problems(pin["trial"], report, pin)
        return problems

    def extras(self, label, reports, seconds):
        busy = sum(r.wall_ms for r in reports) / 1000.0
        return {"pool_efficiency": busy / (GRID_WORKERS * seconds)}

    def warm_up(self):
        # Starts a worker pool and runs every (mask, pe) cell for one step.
        self._grid(replace(self.base, steps=1, train_size=1, batch_size=1, eval_size=1))

    def record_pins(self):
        return {
            label: [{"trial": self._trial_label(r), **_report_pin(r)} for r in self.run(label)]
            for label in self.labels
        }


class HeatmapT1040(Workload):
    """In-process ``frameattn heatmap`` at T=1040, fw_block; operations alternate pgm and csv.

    One head keeps an operation under half a second, so a run holds enough
    samples of each format for a median and a tail.
    """

    name = "heatmap_t1040"
    labels = ("pgm", "csv")
    layout = build_layout(8, 32, 32, 8)
    num_heads = 1
    d_head = 16
    mask = MaskKind.FW_BLOCK
    gamma = 1.0
    base = 10000.0
    # Query rows recomputed by the oracle: prefix, first frame, frame
    # boundaries, a middle frame, the last frame and the suffix.
    oracle_rows = (0, 7, 8, 9, 39, 40, 300, 535, 1015, 1031, 1032, 1039)

    def __init__(self, seed, out_dir, pins=None):
        super().__init__(seed, out_dir, pins)
        self.config = json.dumps(
            {
                "layout": json.loads(self.layout.to_json()),
                "num_heads": self.num_heads,
                "d_head": self.d_head,
                "mask_kind": self.mask.value,
                "gamma": self.gamma,
                "base": self.base,
            }
        )

    def _dir(self, label: str) -> Path:
        return self.out_dir / "heatmap" / label

    def _command(self, config: str, label: str) -> int:
        out = self._dir(label)
        out.mkdir(parents=True, exist_ok=True)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            return cli.main(
                ["heatmap", "--config", config, "--seed", str(self.seed),
                 "--out", str(out), "--format", label]
            )

    def run(self, label):
        return self._command(self.config, label)

    def _path(self, label: str, head: int) -> Path:
        return self._dir(label) / f"head_{head}.{label}"

    def _sha256(self, label: str) -> list[str]:
        return [hashlib.sha256(self._path(label, h).read_bytes()).hexdigest() for h in range(self.num_heads)]

    def fingerprint(self, label, code):
        return "\n".join(self._sha256(label)).encode() if code == 0 else f"exit {code}".encode()

    def check(self, label, code):
        if code != 0:
            return [f"heatmap --format {label} exited with {code}"]
        return super().check(label, code)

    def pin_problems(self, label, code):
        if label == "pgm" and self._sha256(label) != self.pins["pgm_sha256"]:
            return ["heatmap PGM bytes differ from the pins"]
        return []

    def oracle_problems(self, label, code):
        return self._csv_problems() if label == "csv" else []

    # -- independent recomputation --------------------------------------------------

    def _positions(self) -> np.ndarray:
        """n + gamma * temporal_id(n), from the three-branch definition."""
        lay = self.layout
        v_s, v_e, m = lay.prefix_len, lay.prefix_len + lay.visual_len - 1, lay.tokens_per_frame
        out = []
        for n in range(lay.total_len):
            if n < v_s:
                tid = n
            elif n <= v_e:
                tid = v_s + (n - v_s) // m
            else:
                tid = n - (v_e - v_s + 1 - (v_e - v_s) // m)
            out.append(n + self.gamma * tid)
        return np.array(out)

    def _oracle_row(self, q, k, i, pos, freqs, allowed_cols) -> np.ndarray:
        qr = rotary_oracle(q[i], pos[i], freqs)
        logits = [float(np.dot(qr, k[j])) / math.sqrt(self.d_head) for j in allowed_cols]
        top = max(logits)
        exps = [math.exp(s - top) for s in logits]
        row = np.zeros(self.layout.total_len)
        row[allowed_cols] = np.array(exps) / sum(exps)
        return row

    def _matrix(self, label: str, head: int, skip: int, sep: str | None) -> np.ndarray:
        """One output file as a (T, T) array, parsed a row at a time to keep memory small."""
        t = self.layout.total_len
        lines = self._path(label, head).read_text().splitlines()[skip:]
        if len(lines) != t:
            raise ValueError(f"{label} head {head}: {len(lines)} rows, expected {t}")
        out = np.empty((t, t))
        for r, line in enumerate(lines):
            out[r] = np.array(line.split(sep), dtype=np.float64)
        return out

    def _csv_problems(self) -> list[str]:
        """Oracle rows, exact zeros, row sums, and the PGM written by the preceding pgm operation."""
        t = self.layout.total_len
        rng = make_rng(self.seed, 200)  # the heatmap command's seeded Q/K/V stream
        shape = (self.num_heads, t, self.d_head)
        q, k, _ = (rng.standard_normal(shape) for _ in range(3))
        half = self.d_head // 2
        freqs = FrequencyTable(thetas=self.base ** (-np.arange(half) / half))
        pos = self._positions()
        cols = {i: [j for j in range(t) if allowed(self.mask, self.layout, i, j)] for i in self.oracle_rows}
        problems = []
        for h in range(self.num_heads):
            w = self._matrix("csv", h, 0, ",")
            sums = w.sum(axis=1)
            if np.any(w < 0) or not np.allclose(sums, 1.0, rtol=0, atol=1e-12):
                problems.append(f"head {h}: weights negative or a row does not sum to 1")
            k_rot = np.array([rotary_oracle(k[h, j], pos[j], freqs) for j in range(t)])
            for i, allowed_cols in cols.items():
                masked = np.ones(t, dtype=bool)
                masked[allowed_cols] = False
                if np.any(w[i, masked] != 0.0):
                    problems.append(f"head {h} row {i}: a masked weight is not exactly 0")
                want = self._oracle_row(q[h], k_rot, i, pos, freqs, allowed_cols)
                if not np.allclose(w[i], want, rtol=1e-9, atol=1e-12):
                    problems.append(f"head {h} row {i}: weights differ from the oracle")
            px = self._matrix("pgm", h, 3, None)  # after the P2, size and maxval lines
            if not np.array_equal(px, np.rint(255.0 * w / w.max())):
                problems.append(f"head {h}: PGM pixels are not the quantised CSV weights")
        return problems

    def warm_up(self):
        # Both formats through the same command on a small layout.
        small = json.loads(self.config)
        small["layout"] = json.loads(build_layout(1, 2, 2, 1).to_json())
        for label in self.labels:
            self._command(json.dumps(small), label)

    def record_pins(self):
        code = self.run("pgm")
        if code != 0:
            raise RuntimeError(f"heatmap --format pgm exited with {code}")
        return {"pgm_sha256": self._sha256("pgm")}


def load_pins(name: str, seed: int) -> dict | None:
    """The pinned outputs of workload `name`, or None for any seed but PIN_SEED."""
    return json.loads(PINS_PATH.read_text())[name] if seed == PIN_SEED else None


WORKLOADS = {w.name: w for w in (FrameOrderT20, LongVideoT528, GridT6, HeatmapT1040)}
