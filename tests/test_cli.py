import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from frameattn import gradcheck, selftest
from frameattn.attention import PeMode
from frameattn.cli import build_parser, main
from frameattn.harness import PAPER_GAMMA_GRID
from frameattn.masks import MaskKind
from frameattn.tasks import Task

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


def test_render_mask_unwritable_path_exits_3(tmp_path, capsys):
    # A path under a regular file can never be created.
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "m.pgm"
    code, _, _ = run(capsys, "render-mask", "--layout", LAYOUT_T3_TEXT, "--kind", "causal", "--out", str(out))
    assert code == 3


def test_render_mask_onto_a_directory_exits_3_before_the_mask_is_built(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("frameattn.cli.build_mask", lambda *a, **kw: pytest.fail("the mask was built"))
    out = tmp_path / "m.pgm"
    out.mkdir()
    code, stdout, err = run(capsys, "render-mask", "--layout", LAYOUT_T3_TEXT, "--kind", "causal", "--out", str(out))
    assert code == 3
    assert stdout == "" and err == f"i/o error: is a directory: {out}\n"
    assert not list(out.iterdir())


def test_render_mask_into_a_directory_it_cannot_write_exits_3(tmp_path, capsys, monkeypatch):
    # Root may write anywhere, so the refusal is simulated where the check asks for it.
    monkeypatch.setattr("frameattn.cli.os.access", lambda path, mode: False)
    out = tmp_path / "new" / "m.pgm"
    code, stdout, err = run(capsys, "render-mask", "--layout", LAYOUT_T3_TEXT, "--kind", "causal", "--out", str(out))
    assert code == 3
    assert stdout == "" and err == f"i/o error: cannot write in {tmp_path}\n"
    assert not list(tmp_path.iterdir())


def test_render_mask_bad_extension_exits_2(tmp_path, capsys):
    code, _, _ = run(capsys, "render-mask", "--layout", LAYOUT_T3_TEXT, "--kind", "causal", "--out", str(tmp_path / "m.txt"))
    assert code == 2


def test_out_defaults_to_env_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FRAMEATTN_OUT", str(tmp_path))
    code, _, _ = run(capsys, "render-mask", "--layout", LAYOUT_T3_TEXT, "--kind", "causal")
    assert code == 0
    assert (tmp_path / "mask_causal.pgm").exists()


def test_env_dir_that_does_not_exist_yet_is_made(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FRAMEATTN_OUT", str(tmp_path / "new" / "dir"))
    code, stdout, _ = run(capsys, "render-mask", "--layout", LAYOUT_T3_TEXT, "--kind", "fw_block")
    assert code == 0
    out = tmp_path / "new" / "dir" / "mask_fw_block.pgm"
    assert out.read_text().startswith("P2\n3 3\n255\n")
    assert stdout == f"allowed_count=6\nwrote {out}\n"


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


@pytest.mark.parametrize("fmt", ["pgm", "csv"])
def test_heatmap_defaults_match_the_spelled_out_schema_defaults(tmp_path, capsys, fmt):
    layout = json.loads(LAYOUT_1_2x2_1)
    spelled = {
        "layout": layout,
        "num_heads": 2,
        "d_head": 8,
        "base": 10000.0,
        "gamma": 1.0,
        "mask_kind": "fw_block_causal",
        "pe_mode": "dual_rope",
        "strict_monotonic_suffix": False,
        "fw_block_causal_within_frame": False,
    }
    for name, config in (("bare", {"layout": layout}), ("spelled", spelled)):
        code, _, _ = run(
            capsys, "heatmap", "--config", json.dumps(config), "--format", fmt, "--out", str(tmp_path / name)
        )
        assert code == 0
    for h in range(2):
        bare = (tmp_path / "bare" / f"head_{h}.{fmt}").read_bytes()
        assert bare == (tmp_path / "spelled" / f"head_{h}.{fmt}").read_bytes()


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


def test_heatmap_rejects_a_file_that_is_not_an_npz_archive(tmp_path, capsys):
    # np.load returns a bare array for .npy, which has no Q, K, V to read.
    path = tmp_path / "q.npy"
    np.save(path, np.zeros((2, 6, 4)))
    code, _, err = run(capsys, "heatmap", "--config", HEATMAP_CONFIG, "--out", str(tmp_path / "hm"), "--qkv", str(path))
    assert code == 2
    assert "not an .npz archive" in err
    assert not (tmp_path / "hm").exists()


@pytest.mark.parametrize("dtype", [np.complex128, np.bool_, np.str_])
def test_heatmap_rejects_tensors_that_are_not_real_numbers(tmp_path, capsys, dtype):
    path = tmp_path / "qkv.npz"
    good = np.ones((2, 6, 4))
    np.savez(path, Q=good, K=good.astype(dtype), V=good)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning on the way to the refusal
        code, _, err = run(capsys, "heatmap", "--config", HEATMAP_CONFIG, "--out", str(tmp_path / "hm"), "--qkv", str(path))
    assert code == 2
    assert "K must hold integer or real floating numbers" in err
    assert not (tmp_path / "hm").exists()


# Inputs that cannot be read: case -> (heatmap arguments under tmp_path, what the error says).
UNREADABLE_INPUTS = {
    "config": (lambda tmp: ["--config", str(tmp / "missing.json")], "cannot read"),
    "qkv": (lambda tmp: ["--config", HEATMAP_CONFIG, "--qkv", str(tmp / "missing.npz")], "cannot read tensors"),
    "qkv_without_v": (lambda tmp: ["--config", HEATMAP_CONFIG, "--qkv", str(tmp / "qk.npz")], "must contain arrays Q, K, V"),
}


@pytest.mark.parametrize("case", UNREADABLE_INPUTS)
def test_heatmap_input_that_cannot_be_read_exits_2_and_writes_nothing(tmp_path, capsys, case):
    argv, says = UNREADABLE_INPUTS[case]
    np.savez(tmp_path / "qk.npz", Q=np.zeros((2, 6, 4)), K=np.zeros((2, 6, 4)))
    code, stdout, err = run(capsys, "heatmap", *argv(tmp_path), "--out", str(tmp_path / "hm"))
    assert code == 2
    assert stdout == "" and err.startswith("error: ") and says in err
    assert [p.name for p in tmp_path.iterdir()] == ["qk.npz"]


def test_heatmap_pixels_match_direct_quantisation():
    from frameattn.cli import _heatmap_pixels

    rng = np.random.default_rng(0)
    for weights in (rng.random((9, 9)), np.tril(rng.random((7, 7))), np.full((3, 3), 1 / 3), np.eye(4) * 1e-300):
        expected = np.rint(255.0 * weights / weights.max()).astype(np.int64)
        got = _heatmap_pixels(weights)
        assert got.dtype == np.uint8
        assert np.array_equal(got, expected)
    assert np.array_equal(_heatmap_pixels(np.zeros((2, 3))), np.zeros((2, 3), dtype=np.uint8))


def test_heatmap_csv_holds_raw_weights(tmp_path, capsys):
    from frameattn.attention import AttentionConfig, attention_forward
    from frameattn.layout import SequenceLayout
    from frameattn.numerics import make_rng

    code, _, _ = run(
        capsys, "heatmap", "--config", HEATMAP_CONFIG, "--seed", "5", "--out", str(tmp_path), "--format", "csv"
    )
    assert code == 0
    layout = SequenceLayout.from_json(LAYOUT_1_2x2_1)
    cfg = AttentionConfig(
        d_head=4,
        gamma=1.0,
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


# T = 6 is one tile; T = 72 is a full tile of 64 rows and a short one of 8.
HEATMAP_LAYOUTS = {"t6": (1, 2, 2, 1), "t72": (3, 5, 13, 4)}


@pytest.mark.parametrize("within", [False, True], ids=["default", "causal_within_frame"])
@pytest.mark.parametrize("kind", list(MaskKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("lay", list(HEATMAP_LAYOUTS))
def test_heatmap_bytes_equal_the_dense_reference(tmp_path, capsys, lay, kind, within):
    # The command encodes each head from the attention tiles; the reference
    # encodes the dense weights, AttentionResult.weights.
    from frameattn.attention import AttentionConfig, attention_forward
    from frameattn.cli import _heatmap_pixels
    from frameattn.layout import build_layout
    from frameattn.numerics import make_rng
    from frameattn.pgmio import csv_text, pgm_text

    layout = build_layout(*HEATMAP_LAYOUTS[lay])
    t = layout.total_len
    config = json.dumps({"layout": json.loads(layout.to_json()), "num_heads": 2, "mask_kind": kind.value,
                         "fw_block_causal_within_frame": within})
    for fmt in ("pgm", "csv"):
        assert run(capsys, "heatmap", "--config", config, "--seed", "3", "--out", str(tmp_path), "--format", fmt)[0] == 0
    cfg = AttentionConfig(mask_kind=kind, fw_block_causal_within_frame=within)
    rng = make_rng(3, 200)
    q, k, v = (rng.standard_normal((2, t, cfg.d_head)) for _ in range(3))
    result = attention_forward(q, k, v, layout, cfg)
    faint = False  # a non-zero weight that quantises to pixel 0
    for h in range(2):
        weights = result.weights[h]
        pixels = _heatmap_pixels(weights)
        assert (tmp_path / f"head_{h}.pgm").read_bytes() == pgm_text(pixels).encode()
        assert (tmp_path / f"head_{h}.csv").read_bytes() == csv_text(weights).encode()
        faint |= bool(np.any((weights > 0) & (pixels == 0)))
    tiles = result.tiles()
    assert [w.shape[1] for _, _, w in tiles] == ([64, 8] if t == 72 else [t])
    if t > 64:
        assert min(np.arange(t)[cols][-1] for _, cols, _ in tiles) < t - 1  # a tile without column T-1
        assert faint


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


ENUM_REFUSALS = {
    "pe_mode": "unknown PeMode {!r}; valid values: rope_only, time_rope_only, dual_rope, time_ape, time_rpe",
    "mask_kind": "unknown MaskKind {!r}; valid values: causal, full_visual, fw_block, fw_block_causal",
}


@pytest.mark.parametrize("field", list(ENUM_REFUSALS))
@pytest.mark.parametrize("bad", ["bogus", 3, None])
def test_heatmap_enum_field_that_names_no_member_exits_2(tmp_path, capsys, field, bad):
    config = json.dumps({**json.loads(HEATMAP_CONFIG), field: bad})
    code, stdout, err = run(capsys, "heatmap", "--config", config, "--out", str(tmp_path / "out"))
    assert code == 2
    assert stdout == "" and err == f"error: {ENUM_REFUSALS[field].format(bad)}\n"
    assert not list(tmp_path.iterdir())


def test_heatmap_refuses_the_first_bad_enum_field_in_field_order(tmp_path, capsys):
    config = json.dumps({**json.loads(HEATMAP_CONFIG), "pe_mode": 3, "mask_kind": "bogus"})
    code, _, err = run(capsys, "heatmap", "--config", config, "--out", str(tmp_path / "out"))
    assert code == 2
    assert err == f"error: {ENUM_REFUSALS['mask_kind'].format('bogus')}\n"


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


# (command, flag, bad value, what the error says after the flag)
BAD_LISTS = [
    ("sweep", "--gammas", "", "must name at least one value"),
    ("sweep", "--gammas", ",", "must name at least one value"),
    ("sweep", "--gammas", "0,abc", "could not convert"),
    ("grid", "--tasks", "", "must name at least one value"),
    ("grid", "--tasks", "bogus", "unknown Task"),
    ("grid", "--masks", " , ", "must name at least one value"),
    ("grid", "--masks", "causal,fancy", "unknown MaskKind"),
    ("grid", "--pe-modes", "", "must name at least one value"),
    ("grid", "--pe-modes", "dual", "unknown PeMode"),
    ("grid", "--seeds", "", "must name at least one value"),
    ("grid", "--seeds", "1.5", "invalid literal"),
]


@pytest.mark.parametrize("command, flag, value, says", BAD_LISTS)
def test_bad_list_flag_exits_2_naming_the_flag(tmp_path, capsys, monkeypatch, command, flag, value, says):
    monkeypatch.setattr("frameattn.harness.train_trial", lambda cfg: pytest.fail("a trial ran"))
    code, _, err = run(capsys, command, "--config", TRIAL_CONFIG, flag, value, "--out", str(tmp_path / "out"))
    assert code == 2
    assert err.startswith(f"error: {flag}") and says in err
    assert not (tmp_path / "out").exists()


def test_list_flags_skip_empty_entries_and_sweep_defaults_to_the_paper_grid(tmp_path, capsys, monkeypatch):
    seen = {}
    monkeypatch.setattr("frameattn.cli.gamma_sweep", lambda base, gammas, workers: seen.update(gammas=gammas) or [])
    monkeypatch.setattr("frameattn.cli.ablation_grid", lambda base, *axes, workers: seen.update(axes=axes) or [])
    monkeypatch.setattr("frameattn.cli.grid_summary", lambda reports: "")
    out = ["--config", TRIAL_CONFIG, "--out", str(tmp_path)]
    assert run(capsys, "sweep", *out)[0] == 0
    assert seen["gammas"] == list(PAPER_GAMMA_GRID)
    assert run(capsys, "sweep", *out, "--gammas", "0.5,,2")[0] == 0
    assert seen["gammas"] == [0.5, 2.0]
    axes = ["--tasks", "frame_order,", "--masks", ", causal", "--pe-modes", "rope_only, ,dual_rope ", "--seeds", "3, 4"]
    assert run(capsys, "grid", *out, *axes)[0] == 0
    assert seen["axes"] == ([Task.FRAME_ORDER], [MaskKind.CAUSAL], [PeMode.ROPE_ONLY, PeMode.DUAL_ROPE], [3, 4])


@pytest.mark.parametrize("command", ["sweep", "grid"])
def test_config_that_cannot_run_exits_2_before_any_trial(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr("frameattn.harness.train_trial", lambda cfg: pytest.fail("a trial ran"))
    for field, bad in (("d_head", 3), ("num_symbols", 1), ("gamma", 1e308)):
        config = json.dumps({**json.loads(TRIAL_CONFIG), field: bad})
        code, _, stderr = run(capsys, command, "--config", config, "--out", str(tmp_path / "out"))
        assert code == 2
        assert field in stderr
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["sweep", "grid", "heatmap"])
@pytest.mark.parametrize("under", [False, True])
def test_out_that_cannot_be_a_directory_exits_3_before_any_work(tmp_path, capsys, monkeypatch, command, under):
    # --out names a regular file, or a directory under one: no trial (or attention) may run first.
    monkeypatch.setattr("frameattn.harness.train_trial", lambda cfg: pytest.fail("a trial ran"))
    monkeypatch.setattr("frameattn.cli.attention_forward", lambda *a: pytest.fail("attention ran"))
    (tmp_path / "file").write_text("kept")
    out = tmp_path / "file" / "out" if under else tmp_path / "file"
    config = HEATMAP_CONFIG if command == "heatmap" else TRIAL_CONFIG
    code, stdout, err = run(capsys, command, "--config", config, "--out", str(out))
    assert code == 3
    assert stdout == "" and err == f"i/o error: not a directory: {tmp_path / 'file'}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
    assert (tmp_path / "file").read_text() == "kept"


# Values that parse but that the run refuses: (command, flag, value, what the error says).
BAD_RUN_VALUES = [("grid", "--seeds", "-1", "seed"), ("sweep", "--gammas", "1e308", "overflows")]


@pytest.mark.parametrize("command, flag, value, says", BAD_RUN_VALUES)
def test_bad_run_value_exits_2_and_makes_no_directory(tmp_path, capsys, command, flag, value, says):
    code, stdout, err = run(capsys, command, "--config", TRIAL_CONFIG, flag, value, "--out", str(tmp_path / "a" / "b"))
    assert code == 2
    assert stdout == "" and err.startswith("error: ") and says in err
    assert not list(tmp_path.iterdir())


# Requests of about 1 EiB: past any 64-bit address space, so the allocator refuses them whatever the
# overcommit setting, and below the 8 EiB above which numpy raises ValueError instead.
HUGE_LAYOUT = {"prefix_len": 1, "num_frames": 1, "tokens_per_frame": 2 * 10**17, "suffix_len": 1}
HUGE_HEATMAP = json.dumps({"layout": {**HUGE_LAYOUT, "tokens_per_frame": 10**16}})
HUGE_TRIAL = json.dumps({**json.loads(TRIAL_CONFIG), "train_size": 25 * 10**15})
TOO_LARGE_FOR_MEMORY = {
    "render-mask": ("render-mask", "--layout", json.dumps(HUGE_LAYOUT), "--kind", "causal", "--out", "{out}.pgm"),
    "positions": ("positions", "--layout", json.dumps(HUGE_LAYOUT)),
    "heatmap": ("heatmap", "--config", HUGE_HEATMAP, "--out", "{out}"),
    "sweep-1-worker": ("sweep", "--config", HUGE_TRIAL, "--gammas", "0,1", "--workers", "1", "--out", "{out}"),
    "sweep-2-workers": ("sweep", "--config", HUGE_TRIAL, "--gammas", "0,1", "--workers", "2", "--out", "{out}"),
    "grid": ("grid", "--config", HUGE_TRIAL, "--masks", "causal", "--pe-modes", "rope_only", "--out", "{out}"),
}


@pytest.mark.parametrize("case", list(TOO_LARGE_FOR_MEMORY))
def test_request_too_large_for_memory_exits_2_with_one_line(tmp_path, capsys, case):
    argv = [a.replace("{out}", str(tmp_path / "out")) for a in TOO_LARGE_FOR_MEMORY[case]]
    code, stdout, err = run(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: Unable to allocate ") and " EiB " in err and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_unknown_flag_exits_2(capsys):
    assert main(["positions", "--layout", LAYOUT_T3_TEXT, "--wat"]) == 2


def test_selftest_passes(capsys):
    code, stdout, _ = run(capsys, "selftest")
    assert code == 0
    assert "selftest passed" in stdout
    assert stdout.count("ok ") >= 10


def test_gradcheck_passes_at_seed_0(capsys):
    code, stdout, _ = run(capsys, "gradcheck", "--seed", "0")
    assert code == 0
    lines = stdout.splitlines()
    assert [line.split(" max_rel_err=")[0] for line in lines[:2]] == ["attention", "model"]
    assert lines[2:] == ["gradcheck passed"]


def test_gradcheck_fails_when_an_error_reaches_the_tolerance(capsys, monkeypatch):
    monkeypatch.setattr("frameattn.cli.attention_fd_error", lambda pe, mk, seed: 1.0)
    code, stdout, _ = run(capsys, "gradcheck")
    assert code == 1
    assert stdout.splitlines()[0].startswith("attention max_rel_err=1.000e+00 (")
    assert stdout.endswith("gradcheck FAILED\n")


def test_gradcheck_fails_on_a_nan_gradient(capsys, monkeypatch):
    # A NaN gradient is an infinite error, never one that a max or a > comparison drops.
    real = gradcheck.attention_backward

    def nan_grad_q(result, grad_out):
        grads = real(result, grad_out)
        grads.grad_q.fill(np.nan)
        return grads

    monkeypatch.setattr(gradcheck, "attention_backward", nan_grad_q)
    code, stdout, _ = run(capsys, "gradcheck", "--seed", "0")
    assert code == 1
    assert stdout.splitlines()[0].startswith("attention max_rel_err=inf (")
    assert stdout.endswith("gradcheck FAILED\n")


def test_selftest_stops_at_the_first_failing_check(capsys, monkeypatch):
    # The first check runs as it is, the second fails, and the rest only record that they ran.
    def broken():
        raise AssertionError("planted failure")

    ran = []
    checks = list(selftest.CHECKS)
    first, second = checks[0][0], checks[1][0]
    checks[1] = (second, broken)
    checks[2:] = [(name, lambda name=name: ran.append(name)) for name, _ in checks[2:]]
    monkeypatch.setattr(selftest, "CHECKS", checks)
    report = [f"ok {first}", f"FAIL {second}: planted failure"]
    assert selftest.run_selftest() == (False, report)
    code, stdout, _ = run(capsys, "selftest")
    assert code == 1
    assert stdout.splitlines() == report
    assert ran == []


def test_back_to_back_calls_share_one_parser_and_behave_as_fresh_ones(tmp_path, capsys):
    calls = [
        ("heatmap", "--config", HEATMAP_CONFIG, "--seed", "4", "--format", "csv", "--out", "OUT/heat"),
        ("render-mask", "--layout", LAYOUT_1_2x2_1, "--kind", "fw_block", "--out", "OUT/mask.pgm"),
        ("render-mask", "--layout", LAYOUT_1_2x2_1, "--kind", "fancy", "--out", "OUT/bad.pgm"),
    ]

    def run_all(out, fresh):
        results = []
        for argv in calls:
            if fresh:
                build_parser.cache_clear()
            code, stdout, err = run(capsys, *(arg.replace("OUT", str(out)) for arg in argv))
            results.append((code, stdout.replace(str(out), "OUT"), err))
        files = {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        return results, files

    fresh = run_all(tmp_path / "fresh", fresh=True)
    assert build_parser() is build_parser()
    assert run_all(tmp_path / "shared", fresh=False) == fresh
    assert [code for code, _, _ in fresh[0]] == [0, 0, 2]
    assert sorted(fresh[1]) == ["heat/head_0.csv", "heat/head_1.csv", "mask.pgm"]
