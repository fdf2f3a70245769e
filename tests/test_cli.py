"""End-to-end command line checks, run in-process through main()."""

import json
import os
import pathlib
import struct
import subprocess
import sys

import pytest

import ssam
from ssam.bench.cli import main

TINY_SPEC = {
    "num_classes": 2,
    "images_per_class": 4,
    "image_shape": [3, 4, 4],
    "sample_noise": 0.05,
    "seed": 3,
}


@pytest.fixture
def tiny_spec_file(tmp_path):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(TINY_SPEC))
    return p


@pytest.fixture
def tiny_data(tmp_path, tiny_spec_file):
    out = tmp_path / "tiny.ssamds"
    assert main(["gen-data", "--spec", str(tiny_spec_file), "--out", str(out)]) == 0
    return out


def test_gen_data_writes_dataset_and_companions(tmp_path, tiny_spec_file, capsys):
    out = tmp_path / "d.ssamds"
    rc = main(["gen-data", "--spec", str(tiny_spec_file), "--out", str(out)])
    assert rc == 0
    assert out.exists()
    assert (tmp_path / "d.ssamds.vit.emb").exists()
    assert (tmp_path / "d.ssamds.conv.emb").exists()
    text = capsys.readouterr().out
    assert "probe accuracy" in text


def test_gen_data_is_byte_deterministic(tmp_path, tiny_spec_file):
    a, b = tmp_path / "a.ssamds", tmp_path / "b.ssamds"
    assert main(["gen-data", "--spec", str(tiny_spec_file), "--out", str(a)]) == 0
    assert main(["gen-data", "--spec", str(tiny_spec_file), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    for fam in ("vit", "conv"):
        pa = tmp_path / f"a.ssamds.{fam}.emb"
        pb = tmp_path / f"b.ssamds.{fam}.emb"
        assert pa.read_bytes() == pb.read_bytes()


def test_gen_data_seed_override_changes_data(tmp_path, tiny_spec_file):
    a, b = tmp_path / "a.ssamds", tmp_path / "b.ssamds"
    assert main(["gen-data", "--spec", str(tiny_spec_file), "--out", str(a)]) == 0
    assert main(["gen-data", "--spec", str(tiny_spec_file), "--seed", "9", "--out", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_gen_data_default_spec(tmp_path, capsys):
    out = tmp_path / "default.ssamds"
    assert main(["gen-data", "--out", str(out)]) == 0
    assert "160 images" in capsys.readouterr().out


def test_gen_data_rejects_bad_spec_json(tmp_path):
    p = tmp_path / "spec.json"
    p.write_text("{not json")
    assert main(["gen-data", "--spec", str(p), "--out", str(tmp_path / "x")]) == 1


def _adapt_args(data, report=None, **over):
    args = [
        "adapt",
        "--data",
        str(data),
        "--batch",
        "8",
        "--steps",
        "2",
        "--lr",
        "1e-3",
        "--seed",
        "1",
    ]
    for k, v in over.items():
        args += [f"--{k.replace('_', '-')}", str(v)]
    if report is not None:
        args += ["--report", str(report)]
    return args


EXPECTED_REPORT_FILES = [
    "summary.csv",
    "loss_curve.csv",
    "heatmap_pre.csv",
    "heatmap_post.csv",
    "projection_pre.csv",
    "projection_post.csv",
]


def test_adapt_writes_report(tmp_path, tiny_data, capsys):
    report = tmp_path / "report"
    assert main(_adapt_args(tiny_data, report)) == 0
    for name in EXPECTED_REPORT_FILES:
        assert (report / name).exists(), name
    out = capsys.readouterr().out
    assert "post_accuracy=" in out and "pre_accuracy=" in out


def test_adapt_reports_are_byte_identical_across_runs(tmp_path, tiny_data):
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    assert main(_adapt_args(tiny_data, r1)) == 0
    assert main(_adapt_args(tiny_data, r2)) == 0
    for name in EXPECTED_REPORT_FILES:
        assert (r1 / name).read_bytes() == (r2 / name).read_bytes(), name


def test_adapt_per_image_flag_adds_association_rows(tmp_path, tiny_data):
    report = tmp_path / "report"
    rc = main(_adapt_args(tiny_data, report) + ["--per-image"])
    assert rc == 0
    text = (report / "association_pre.csv").read_text()
    assert text.splitlines()[0] == "index,label,category_0,category_1"
    assert len(text.splitlines()) == 1 + 8  # header + one row per image
    assert (report / "association_post.csv").exists()


def test_adapt_vit_with_insertion_layer(tmp_path, tiny_data):
    assert main(_adapt_args(tiny_data, encoder="vit", insertion_layer=3)) == 0


def test_adapt_episodic_mode(tiny_data):
    assert main(_adapt_args(tiny_data, mode="episodic")) == 0


def test_adapt_missing_data_is_exit_1(tmp_path, capsys):
    rc = main(_adapt_args(tmp_path / "absent.ssamds"))
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_adapt_missing_companion_is_exit_1(tmp_path, tiny_data, capsys):
    (tmp_path / "tiny.ssamds.conv.emb").unlink()
    rc = main(_adapt_args(tiny_data, encoder="conv"))
    assert rc == 1
    assert "gen-data" in capsys.readouterr().err


def test_adapt_corrupted_data_is_exit_1(tmp_path, tiny_data, capsys):
    tiny_data.write_bytes(tiny_data.read_bytes()[:40])
    rc = main(_adapt_args(tiny_data))
    assert rc == 1
    assert "byte" in capsys.readouterr().err


def test_adapt_zero_norm_category_row_is_exit_1(tmp_path, tiny_data, capsys):
    emb = tmp_path / "tiny.ssamds.conv.emb"
    blob = bytearray(emb.read_bytes())
    (d,) = struct.unpack_from("<I", blob, 12)
    row = 1
    blob[16 + 4 * row * d : 16 + 4 * (row + 1) * d] = bytes(4 * d)
    emb.write_bytes(bytes(blob))
    rc = main(_adapt_args(tiny_data, encoder="conv"))
    assert rc == 1
    assert f"row {row} has near-zero norm at byte {16 + 4 * row * d}" in capsys.readouterr().err


def test_adapt_zero_image_dimension_is_exit_1(tmp_path, tiny_data, capsys):
    # two 0x4x4 images: the file length matches its header
    zero = tmp_path / "zero.ssamds"
    header = bytearray(tiny_data.read_bytes()[:32])
    struct.pack_into("<IIIII", header, 12, 2, 0, 4, 4, 2)
    zero.write_bytes(bytes(header) + struct.pack("<II", 0, 1))
    for fam in ("vit", "conv"):
        (tmp_path / f"zero.ssamds.{fam}.emb").write_bytes(
            (tmp_path / f"tiny.ssamds.{fam}.emb").read_bytes()
        )
    rc = main(_adapt_args(zero, encoder="vit"))
    assert rc == 1
    assert "at byte 16" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_adapt_numeric_blowup_is_exit_2(tiny_data, capsys):
    # the attention family squares scores, so a huge first step overflows
    # on the next forward pass; conv would only saturate its tanh
    rc = main(_adapt_args(tiny_data, lr="1e200", encoder="vit"))
    assert rc == 2
    assert "numeric failure" in capsys.readouterr().err


def test_ablate_writes_csv_and_is_deterministic(tmp_path, tiny_data):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"alpha": [0.5], "beta": [0.5]}))
    r1, r2 = tmp_path / "ab1", tmp_path / "ab2"
    base = ["ablate", "--data", str(tiny_data), "--grid", str(grid), "--seeds", "1",
            "--batch", "8", "--steps", "1", "--lr", "1e-3"]
    assert main(base + ["--report", str(r1)]) == 0
    assert main(base + ["--report", str(r2)]) == 0
    a, b = (r1 / "ablation.csv").read_text(), (r2 / "ablation.csv").read_text()
    assert a == b
    lines = a.splitlines()
    assert lines[0] == "mask,alpha,beta,seed,pre_accuracy,post_accuracy,online_accuracy"
    masks = {ln.split(",")[0] for ln in lines[1:]}
    assert masks == {"ent-only", "ent+pir", "ent+ca", "full", "grid"}
    assert len(lines) == 1 + 4 + 1  # header, mask rows, one grid cell


def test_ablate_rejects_unknown_grid_key(tmp_path, tiny_data, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"gamma": [1.0]}))
    rc = main(["ablate", "--data", str(tiny_data), "--grid", str(grid)])
    assert rc == 1
    assert "gamma" in capsys.readouterr().err


def test_gradcheck_cli_pass(capsys):
    rc = main(["gradcheck", "--seed", "0", "--batch", "2", "--m", "2", "--d", "4", "--n", "4"])
    assert rc == 0
    assert "gradcheck pass" in capsys.readouterr().out


def test_gradcheck_cli_corrupt_negative_control(capsys):
    rc = main(["gradcheck", "--batch", "2", "--m", "2", "--d", "4", "--n", "4", "--corrupt", "pir"])
    assert rc == 3
    out = capsys.readouterr().out
    assert "offending component(s): pir" in out


def test_gradcheck_cli_bad_sizes(capsys):
    assert main(["gradcheck", "--batch", "99"]) == 1
    assert "batch" in capsys.readouterr().err
    assert main(["gradcheck", "--n", "-4"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_ablate_bad_thread_env_is_exit_1(tiny_data, monkeypatch, capsys):
    monkeypatch.setenv("SSAM_THREADS", "abc")
    assert main(["ablate", "--data", str(tiny_data), "--seeds", "1", "--steps", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "SSAM_THREADS" in err


@pytest.mark.parametrize(
    "flag, content",
    [
        ("--grid", []),
        ("--grid", {"alpha": ["x"]}),
        ("--grid", {"alpha": 0.5}),
        ("--spec", {"num_classes": "4"}),
    ],
    ids=["grid-not-object", "grid-non-numeric", "grid-not-list", "spec-non-numeric"],
)
def test_malformed_json_config_is_exit_1(tmp_path, tiny_data, capsys, flag, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(content))
    if flag == "--grid":
        argv = ["ablate", "--data", str(tiny_data), "--grid", str(cfg)]
    else:
        argv = ["gen-data", "--spec", str(cfg), "--out", str(tmp_path / "x.ssamds")]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bad_usage_is_exit_1(capsys):
    assert main(["no-such-command"]) == 1
    assert main(["adapt", "--mode", "sideways", "--data", "x"]) == 1
    assert main(["gen-data"]) == 1  # --out is required
    capsys.readouterr()


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_module_entry_point_runs():
    # the child must import the package under test, which need not be
    # installed: pytest may have put src/ on the path itself
    src = str(pathlib.Path(ssam.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "ssam.bench.cli", "--help"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert "gen-data" in proc.stdout
