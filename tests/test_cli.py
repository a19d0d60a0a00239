import json
from pathlib import Path

import numpy as np
import pytest

from frameattn.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

LAYOUT_1_2x2_1 = '{"prefix_len":1,"num_frames":2,"tokens_per_frame":2,"suffix_len":1}'
LAYOUT_T3_TEXT = '{"prefix_len":3,"num_frames":0,"tokens_per_frame":0,"suffix_len":0}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_render_mask_pure_text_causal(tmp_path, capsys):
    out = tmp_path / "mask.pgm"
    code, stdout, _ = run(capsys, "render-mask", "--layout", LAYOUT_T3_TEXT, "--kind", "causal", "--out", str(out))
    assert code == 0
    assert "allowed_count=6" in stdout
    text = out.read_text()
    assert text.count("255") == 6 + 1  # six allowed cells plus the maxval line
    assert text.startswith("P2\n3 3\n255\n")


def test_render_mask_matches_golden_fixture(tmp_path, capsys):
    out = tmp_path / "mask.pgm"
    code, _, _ = run(
        capsys, "render-mask", "--layout", LAYOUT_1_2x2_1, "--kind", "fw_block_causal", "--out", str(out)
    )
    assert code == 0
    assert out.read_bytes() == (FIXTURES / "mask_fwbc_1_2x2_1.pgm").read_bytes()


def test_render_mask_csv(tmp_path, capsys):
    out = tmp_path / "mask.csv"
    code, stdout, _ = run(capsys, "render-mask", "--layout", LAYOUT_T3_TEXT, "--kind", "causal", "--out", str(out))
    assert code == 0
    assert out.read_text() == "1,0,0\n1,1,0\n1,1,1\n"


def test_render_mask_accepts_layout_file(tmp_path, capsys):
    layout_file = tmp_path / "layout.json"
    layout_file.write_text(LAYOUT_T3_TEXT)
    out = tmp_path / "m.csv"
    code, _, _ = run(capsys, "render-mask", "--layout", str(layout_file), "--kind", "causal", "--out", str(out))
    assert code == 0


def test_render_mask_unknown_kind_exits_2(tmp_path, capsys):
    code, _, err = run(
        capsys, "render-mask", "--layout", LAYOUT_T3_TEXT, "--kind", "fancy", "--out", str(tmp_path / "m.pgm")
    )
    assert code == 2
    assert "causal" in err and "fw_block_causal" in err  # message lists the valid kinds


def test_render_mask_bad_json_exits_2(tmp_path, capsys):
    code, _, _ = run(capsys, "render-mask", "--layout", "{not json", "--kind", "causal", "--out", str(tmp_path / "m.pgm"))
    assert code == 2


def test_render_mask_unwritable_path_exits_3(capsys):
    code, _, _ = run(
        capsys, "render-mask", "--layout", LAYOUT_T3_TEXT, "--kind", "causal", "--out", "/nonexistent-dir/m.pgm"
    )
    assert code == 3


def test_render_mask_bad_extension_exits_2(tmp_path, capsys):
    code, _, _ = run(capsys, "render-mask", "--layout", LAYOUT_T3_TEXT, "--kind", "causal", "--out", str(tmp_path / "m.txt"))
    assert code == 2


def test_out_defaults_to_env_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FRAMEATTN_OUT", str(tmp_path))
    code, _, _ = run(capsys, "render-mask", "--layout", LAYOUT_T3_TEXT, "--kind", "causal")
    assert code == 0
    assert (tmp_path / "mask_causal.pgm").exists()


def test_out_missing_without_env_exits_2(capsys, monkeypatch):
    monkeypatch.delenv("FRAMEATTN_OUT", raising=False)
    code, _, _ = run(capsys, "render-mask", "--layout", LAYOUT_T3_TEXT, "--kind", "causal")
    assert code == 2


def test_positions_gamma_zero_adjusted_equals_n(capsys):
    code, stdout, _ = run(capsys, "positions", "--layout", LAYOUT_1_2x2_1, "--gamma", "0", "--csv")
    assert code == 0
    rows = stdout.strip().splitlines()[1:]
    for row in rows:
        n, _, _, adjusted = row.split(",")
        assert float(adjusted) == float(n)


def test_positions_worked_layout(capsys):
    layout = '{"prefix_len":4,"num_frames":2,"tokens_per_frame":4,"suffix_len":2}'
    code, stdout, _ = run(capsys, "positions", "--layout", layout, "--gamma", "1", "--csv")
    assert code == 0
    rows = [r.split(",") for r in stdout.strip().splitlines()[1:]]
    table = {int(r[0]): (r[1], int(r[2]), float(r[3])) for r in rows}
    assert table[3] == ("text_prefix", 3, 6.0)
    assert table[7] == ("visual", 4, 11.0)
    assert table[8] == ("visual", 5, 13.0)
    assert table[12] == ("text_suffix", 5, 17.0)


def test_positions_empty_visual_span_identity(capsys):
    code, stdout, _ = run(capsys, "positions", "--layout", LAYOUT_T3_TEXT, "--gamma", "2.0", "--csv")
    assert code == 0
    for row in stdout.strip().splitlines()[1:]:
        n, role, tid, _ = row.split(",")
        assert int(tid) == int(n)
        assert role == "text_prefix"


def test_positions_bad_gamma_exits_2(capsys):
    assert run(capsys, "positions", "--layout", LAYOUT_T3_TEXT, "--gamma", "abc")[0] == 2
    assert run(capsys, "positions", "--layout", LAYOUT_T3_TEXT, "--gamma", "inf")[0] == 2
    # Finite, but the adjusted positions overflow: one error line naming gamma, no table.
    code, stdout, stderr = run(capsys, "positions", "--layout", LAYOUT_T3_TEXT, "--gamma", "1e308")
    assert code == 2
    assert stdout == "" and "gamma" in stderr and len(stderr.strip().splitlines()) == 1


def test_positions_aligned_table(capsys):
    code, stdout, _ = run(capsys, "positions", "--layout", LAYOUT_T3_TEXT, "--gamma", "0")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0].split() == ["n", "role", "temporal_id", "adjusted"]
    assert len(lines) == 4


HEATMAP_CONFIG = json.dumps(
    {
        "layout": json.loads(LAYOUT_1_2x2_1),
        "num_heads": 2,
        "d_head": 4,
        "mask_kind": "causal",
        "pe_mode": "dual_rope",
        "gamma": 1.0,
    }
)


def test_heatmap_single_token_is_white_pixel(tmp_path, capsys):
    config = json.dumps(
        {"layout": {"prefix_len": 1, "num_frames": 0, "tokens_per_frame": 0, "suffix_len": 0}, "num_heads": 1, "d_head": 4}
    )
    code, _, _ = run(capsys, "heatmap", "--config", config, "--seed", "3", "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "head_0.pgm").read_text() == "P2\n1 1\n255\n255\n"


def test_heatmap_masked_cells_exactly_black(tmp_path, capsys):
    code, _, _ = run(capsys, "heatmap", "--config", HEATMAP_CONFIG, "--seed", "5", "--out", str(tmp_path))
    assert code == 0
    for h in range(2):
        lines = (tmp_path / f"head_{h}.pgm").read_text().splitlines()
        pixels = np.array([[int(v) for v in row.split()] for row in lines[3:]])
        assert pixels.shape == (6, 6)
        upper = np.triu_indices(6, k=1)
        assert np.all(pixels[upper] == 0)
        assert pixels.max() == 255  # linear scale tops out at the peak weight


def test_heatmap_deterministic_across_runs(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, "heatmap", "--config", HEATMAP_CONFIG, "--seed", "9", "--out", str(a))[0] == 0
    assert run(capsys, "heatmap", "--config", HEATMAP_CONFIG, "--seed", "9", "--out", str(b))[0] == 0
    for h in range(2):
        assert (a / f"head_{h}.pgm").read_bytes() == (b / f"head_{h}.pgm").read_bytes()


def test_heatmap_from_npz_tensors(tmp_path, capsys):
    rng = np.random.default_rng(0)
    path = tmp_path / "qkv.npz"
    np.savez(path, Q=rng.standard_normal((2, 6, 4)), K=rng.standard_normal((2, 6, 4)), V=rng.standard_normal((2, 6, 4)))
    code, _, _ = run(capsys, "heatmap", "--config", HEATMAP_CONFIG, "--out", str(tmp_path / "hm"), "--qkv", str(path))
    assert code == 0
    assert (tmp_path / "hm" / "head_1.pgm").exists()
    # Every tensor must have the config's (num_heads, T, d_head) shape.
    np.savez(path, Q=np.zeros((2, 6, 4)), K=np.zeros((2, 6, 6)), V=np.zeros((2, 6, 4)))
    code, _, err = run(capsys, "heatmap", "--config", HEATMAP_CONFIG, "--out", str(tmp_path / "bad"), "--qkv", str(path))
    assert code == 2
    assert "K" in err and "(2, 6, 6)" in err
    assert not (tmp_path / "bad").exists()


def test_heatmap_csv_holds_raw_weights(tmp_path, capsys):
    from frameattn.attention import AttentionConfig, PeMode, attention_forward
    from frameattn.layout import SequenceLayout
    from frameattn.masks import MaskKind
    from frameattn.numerics import make_rng
    from frameattn.rope import RopeConfig

    code, _, _ = run(
        capsys, "heatmap", "--config", HEATMAP_CONFIG, "--seed", "5", "--out", str(tmp_path), "--format", "csv"
    )
    assert code == 0
    layout = SequenceLayout.from_json(LAYOUT_1_2x2_1)
    cfg = AttentionConfig(
        rope=RopeConfig(d_head=4, gamma=1.0),
        mask_kind=MaskKind.CAUSAL,
        pe_mode=PeMode.DUAL_ROPE,
    )
    rng = make_rng(5, 200)
    q, k, v = (rng.standard_normal((2, 6, 4)) for _ in range(3))
    expected = attention_forward(q, k, v, layout, cfg).weights
    for h in range(2):
        rows = (tmp_path / f"head_{h}.csv").read_text().strip().splitlines()
        got = np.array([[float(x) for x in row.split(",")] for row in rows])
        assert np.array_equal(got, expected[h])


@pytest.mark.parametrize(
    "field,value",
    [
        ("strict_monotonic_suffix", "false"),
        ("fw_block_causal_within_frame", 1),
        ("num_heads", 2.9),
        ("d_head", 4.0),
        ("gamma", "1.5"),
        ("gamma", 1e308),  # finite, but the adjusted positions overflow
        ("base", True),
        ("base", 10**400),
        ("scale", "0.5"),
    ],
)
def test_heatmap_mistyped_config_exits_2(tmp_path, capsys, field, value):
    config = json.dumps({**json.loads(HEATMAP_CONFIG), field: value})
    code, _, err = run(capsys, "heatmap", "--config", config, "--out", str(tmp_path))
    assert code == 2
    assert field in err
    assert not (tmp_path / "head_0.pgm").exists()


def test_layout_float_field_exits_2(tmp_path, capsys):
    layout = LAYOUT_T3_TEXT.replace('"prefix_len":3', '"prefix_len":2.7')
    code, _, err = run(capsys, "render-mask", "--layout", layout, "--kind", "causal", "--out", str(tmp_path / "m.pgm"))
    assert code == 2
    assert "prefix_len" in err and "2.7" in err


def test_heatmap_bad_config_exits_2(tmp_path, capsys):
    code, _, _ = run(capsys, "heatmap", "--config", '{"num_heads": 2}', "--out", str(tmp_path))
    assert code == 2
    code, _, _ = run(capsys, "heatmap", "--config", HEATMAP_CONFIG.replace('"causal"', '"bogus"'), "--out", str(tmp_path))
    assert code == 2


TRIAL_CONFIG = json.dumps(
    {
        "task": "last_frame_recall",
        "layout": {"prefix_len": 1, "num_frames": 2, "tokens_per_frame": 2, "suffix_len": 1},
        "steps": 5,
        "train_size": 8,
        "eval_size": 8,
        "batch_size": 4,
        "num_symbols": 4,
        "d_head": 4,
        "layers": 1,
    }
)


def test_sweep_two_gammas_two_rows(tmp_path, capsys):
    code, stdout, _ = run(capsys, "sweep", "--config", TRIAL_CONFIG, "--gammas", "0,1", "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 2 + 2  # header comment, column names, two data rows
    assert lines[2].startswith("0.0,") and lines[3].startswith("1.0,")
    reports = json.loads((tmp_path / "reports.json").read_text())
    assert len(reports) == 2 and "wall_ms" not in reports[0]


def test_sweep_bad_gammas_exits_2(tmp_path, capsys):
    assert run(capsys, "sweep", "--config", TRIAL_CONFIG, "--gammas", "0,abc", "--out", str(tmp_path))[0] == 2


def test_sweep_float_seed_exits_2(tmp_path, capsys):
    config = json.dumps({**json.loads(TRIAL_CONFIG), "seed": 1.5})
    code, _, err = run(capsys, "sweep", "--config", config, "--gammas", "1", "--out", str(tmp_path))
    assert code == 2
    assert "seed" in err and "1.5" in err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("field,value", [("lr", True), ("gamma", "1.5"), ("momentum", None)])
def test_sweep_non_number_float_field_exits_2(tmp_path, capsys, field, value):
    config = json.dumps({**json.loads(TRIAL_CONFIG), field: value})
    code, _, err = run(capsys, "sweep", "--config", config, "--gammas", "1", "--out", str(tmp_path))
    assert code == 2
    assert field in err and repr(value) in err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("command", ["sweep", "grid"])
@pytest.mark.parametrize("workers", ["0", "-2"])
def test_non_positive_workers_exits_2(tmp_path, capsys, command, workers):
    code, _, err = run(capsys, command, "--config", TRIAL_CONFIG, "--workers", workers, "--out", str(tmp_path))
    assert code == 2
    assert "workers" in err
    assert not list(tmp_path.iterdir())


def test_grid_writes_summary_and_csv(tmp_path, capsys):
    code, stdout, _ = run(
        capsys,
        "grid",
        "--config",
        TRIAL_CONFIG,
        "--tasks",
        "last_frame_recall",
        "--masks",
        "causal,fw_block_causal",
        "--pe-modes",
        "rope_only,dual_rope",
        "--seeds",
        "0",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    csv_lines = (tmp_path / "grid.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 2 + 4
    assert "task last_frame_recall" in (tmp_path / "summary.txt").read_text()


def test_grid_bad_axis_exits_2(tmp_path, capsys):
    assert run(capsys, "grid", "--config", TRIAL_CONFIG, "--tasks", "bogus", "--out", str(tmp_path))[0] == 2


@pytest.mark.parametrize("command", ["sweep", "grid"])
def test_config_that_cannot_run_exits_2_before_any_trial(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr("frameattn.harness.train_trial", lambda cfg: pytest.fail("a trial ran"))
    for field, bad in (("d_head", 3), ("num_symbols", 1), ("gamma", 1e308)):
        config = json.dumps({**json.loads(TRIAL_CONFIG), field: bad})
        code, _, stderr = run(capsys, command, "--config", config, "--out", str(tmp_path / "out"))
        assert code == 2
        assert field in stderr
        assert not (tmp_path / "out").exists()


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_unknown_flag_exits_2(capsys):
    assert main(["positions", "--layout", LAYOUT_T3_TEXT, "--wat"]) == 2


def test_selftest_passes(capsys):
    code, stdout, _ = run(capsys, "selftest")
    assert code == 0
    assert "selftest passed" in stdout
    assert stdout.count("ok ") >= 10
