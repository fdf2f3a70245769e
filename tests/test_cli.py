"""End-to-end command line checks, run in-process through main()."""

import argparse
import dataclasses
import json
import os
import pathlib
import re
import struct
import subprocess
import sys

import pytest

import ssam
from conftest import truncations_and_bit_flips
from ssam.adaptation import AdaptConfig
from ssam.bench import cli, reports
from ssam.bench.cli import main
from ssam.bench.synthetic import DEFAULT_FAMILY, SyntheticShiftSpec, save_embeddings
from ssam.encoders import embed_categories
from ssam.errors import ConfigError, NumericError

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


@pytest.mark.parametrize("command", ["gen-data", "adapt", "gradcheck"])
def test_negative_seed_is_exit_1(tmp_path, tiny_data, capsys, command):
    out = tmp_path / "neg.ssamds"
    argv = {
        "gen-data": ["gen-data", "--seed", "-1", "--out", str(out)],
        "adapt": _adapt_args(tiny_data, seed=-1),
        "gradcheck": ["gradcheck", "--seed", "-1"],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed must be >= 0, got -1" in err
    assert not out.exists()


def test_gen_data_rejects_negative_spec_seed(tmp_path, capsys):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(dict(TINY_SPEC, seed=-2)))
    assert main(["gen-data", "--spec", str(p), "--out", str(tmp_path / "x")]) == 1
    assert "seed must be >= 0, got -2" in capsys.readouterr().err


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


@pytest.mark.parametrize("layer", [7, -3])
def test_adapt_conv_with_insertion_layer_is_exit_1(tiny_data, capsys, layer):
    assert main(_adapt_args(tiny_data, encoder="conv", insertion_layer=layer)) == 1
    assert "insertion layer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value", [("lr", "nan"), ("lr", "inf"), ("alpha", "nan"), ("beta", "inf")]
)
def test_adapt_nonfinite_setting_is_exit_1(tmp_path, tiny_data, capsys, flag, value):
    report = tmp_path / "report"
    assert main(_adapt_args(tiny_data, report, **{flag: value})) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not report.exists()


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


def test_adapt_zero_image_count_is_exit_1(tmp_path, tiny_data, capsys):
    empty = tmp_path / "empty.ssamds"
    header = bytearray(tiny_data.read_bytes()[:32])
    struct.pack_into("<I", header, 12, 0)
    empty.write_bytes(bytes(header))
    for fam in ("vit", "conv"):
        (tmp_path / f"empty.ssamds.{fam}.emb").write_bytes(
            (tmp_path / f"tiny.ssamds.{fam}.emb").read_bytes()
        )
    assert main(_adapt_args(empty)) == 1
    assert "image count 0 at byte 12" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_adapt_numeric_blowup_is_exit_2(tiny_data, capsys):
    # the attention family squares scores, so a huge first step overflows
    # on the next forward pass; conv would only saturate its tanh. The
    # check that names matmul reports it, and numpy does not warn first
    capsys.readouterr()
    rc = main(_adapt_args(tiny_data, lr="1e200", encoder="vit"))
    assert rc == 2
    assert capsys.readouterr().err == "numeric failure: matmul produced a non-finite value\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ablate_numeric_blowup_is_exit_2(tiny_data, capsys):
    # the same overflow in every stream of the pool, whose threads start
    # with numpy's default error state, not the caller's
    grid = tiny_data.parent / "grid.json"
    grid.write_text(json.dumps({"alpha": [0.5], "beta": [0.5]}))
    argv = ["ablate", "--data", str(tiny_data), "--grid", str(grid), "--seeds", "1",
            "--encoder", "vit", "--batch", "8", "--steps", "2", "--lr", "1e200"]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "numeric failure: ablation cell ent-only alpha=0.0 beta=0.0 seed=0: "
        "matmul produced a non-finite value\n"
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("encoder", ["conv", "vit"])
def test_adapt_second_moment_overflow_is_exit_2(tiny_data, encoder, capsys):
    # finite gradients of ~1e300 square past the float range in Adam
    rc = main(_adapt_args(tiny_data, alpha="1e300", encoder=encoder))
    assert rc == 2
    assert "numeric failure: optimizer produced a non-finite second moment" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_adapt_update_overflow_is_exit_2(tiny_data, capsys):
    # the first step moves every conv token to ~1.7e308, the tanh after the
    # adapter saturates, and the second Adam update overflows the float range
    capsys.readouterr()
    rc = main(_adapt_args(tiny_data, lr="1.7e308", encoder="conv"))
    assert rc == 2
    assert capsys.readouterr().err == "numeric failure: optimizer produced non-finite adapter tokens\n"


@pytest.mark.parametrize(
    "argv",
    [["adapt", "--encoder", "conv"], ["adapt", "--encoder", "vit"], ["ablate", "--seeds", "1"]],
    ids=["adapt-conv", "adapt-vit", "ablate"],
)
def test_all_zero_image_is_exit_2(tmp_path, tiny_data, capsys, argv):
    # a valid file whose one image is all zeros: both families map it to a
    # zero feature row, which has no cosine direction
    zero = tmp_path / "zero.ssamds"
    header = bytearray(tiny_data.read_bytes()[:32])
    struct.pack_into("<I", header, 12, 1)
    zero.write_bytes(bytes(header) + bytes(4 * 3 * 4 * 4) + struct.pack("<I", 0))
    for fam in ("vit", "conv"):
        (tmp_path / f"zero.ssamds.{fam}.emb").write_bytes(
            (tmp_path / f"tiny.ssamds.{fam}.emb").read_bytes()
        )
    assert main(argv + ["--data", str(zero), "--steps", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:") and "near-zero norm" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("family", ["conv", "vit"])
def test_adapt_report_on_one_image_is_exit_0(tmp_path, tiny_data, family):
    # one image has no second principal component; the projection pads it
    one = tmp_path / "one.ssamds"
    blob = tiny_data.read_bytes()
    header = bytearray(blob[:32])
    struct.pack_into("<I", header, 12, 1)
    one.write_bytes(bytes(header) + blob[32 : 32 + 4 * 3 * 4 * 4] + struct.pack("<I", 0))
    (tmp_path / f"one.ssamds.{family}.emb").write_bytes(
        (tmp_path / f"tiny.ssamds.{family}.emb").read_bytes()
    )
    report = tmp_path / "rep"
    assert main(_adapt_args(one, report=report, encoder=family)) == 0
    for name in ("projection_pre.csv", "projection_post.csv"):
        assert (report / name).read_text().splitlines() == ["index,label,pc1,pc2", "0,0,0.0,0.0"]


@pytest.mark.parametrize(
    "over",
    [
        {"shift_magnitude": 1e39},
        {"sample_noise": 1e39},
        {"shift_kind": "pixel-noise", "shift_magnitude": 1e39},
    ],
    ids=["shift-magnitude", "sample-noise", "pixel-noise"],
)
def test_gen_data_float32_overflow_is_exit_1(tmp_path, capsys, over):
    # finite as float64 but infinite as the file's float32: the loader
    # would reject the file, so none is written
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(dict(TINY_SPEC, **over)))
    out = tmp_path / "x.ssamds"
    assert main(["gen-data", "--spec", str(spec), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not finite as float32" in err
    assert list(tmp_path.iterdir()) == [spec]


@pytest.mark.parametrize(
    "command, fields",
    [
        ("adapt", {"alpha", "beta", "learning_rate", "batch_size", "steps_per_batch", "seed"}),
        ("ablate", {"learning_rate", "batch_size", "steps_per_batch"}),
    ],
)
def test_run_flag_defaults_are_the_recipe(command, fields):
    args = cli._build_parser().parse_args([command, "--data", "x"])
    recipe = dataclasses.asdict(AdaptConfig())
    assert {k: v for k, v in vars(args).items() if k in recipe} == {k: recipe[k] for k in fields}
    assert args.encoder == DEFAULT_FAMILY


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


@pytest.mark.parametrize("command", ["adapt", "ablate"])
@pytest.mark.parametrize(
    "m, d, message",
    [(3, 16, "embeddings have 3 categories, dataset has 2"), (2, 8, "embeddings have dim 8")],
    ids=["categories", "dim"],
)
def test_mismatched_embeddings_are_exit_1(tmp_path, tiny_data, capsys, command, m, d, message):
    save_embeddings(embed_categories(m, d, seed=1), tmp_path / "tiny.ssamds.conv.emb")
    report = tmp_path / "report"
    argv = [command, "--data", str(tiny_data), "--encoder", "conv", "--steps", "1",
            "--report", str(report)]
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert not report.exists()


def test_gradcheck_cli_pass(small_gradcheck, capsys):
    rc = main(["gradcheck", "--seed", "0"])
    assert rc == 0
    assert "gradcheck pass" in capsys.readouterr().out


def test_gradcheck_cli_corrupt_negative_control(small_gradcheck, broken_log_vjp, capsys):
    rc = main(["gradcheck"])
    assert rc == 3
    out = capsys.readouterr().out
    assert "offending component(s): ca, total" in out


def test_gradcheck_cli_bad_sizes(capsys):
    # gradcheck runs at one size, so any size flag is an unknown argument
    for flag, value in (("--n", "4"), ("--n", "4096"), ("--batch", "99"), ("--d", "1")):
        assert main(["gradcheck", flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"unrecognized arguments: {flag} {value}" in err


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


@pytest.mark.parametrize(
    "flag, text",
    [
        ("--grid", '{"alpha": [NaN]}'),
        ("--grid", '{"beta": [0.5, Infinity]}'),
        ("--spec", '{"shift_magnitude": NaN}'),
        ("--spec", '{"sample_noise": Infinity}'),
    ],
    ids=["grid-nan", "grid-inf", "spec-nan", "spec-inf"],
)
def test_nonfinite_json_config_is_exit_1(tmp_path, tiny_data, capsys, flag, text):
    # Python's json reads NaN and Infinity; they must fail before any work
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    out.mkdir()
    if flag == "--grid":
        argv = ["ablate", "--data", str(tiny_data), "--grid", str(cfg), "--seeds", "1",
                "--batch", "8", "--steps", "1", "--report", str(out)]
    else:
        argv = ["gen-data", "--spec", str(cfg), "--out", str(out / "x.ssamds")]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("flag", ["--spec", "--grid"])
@pytest.mark.parametrize(
    "blob, message",
    [
        (b"\xff\xfe{}", "is not UTF-8 at byte 0"),
        (b'{"alpha": [1,]}', "Expecting value at byte 13 (line 1 column 14)"),
        ('{"\u00e9": x}'.encode(), "Expecting value at byte 7 (line 1 column 7)"),
    ],
    ids=["not-utf8", "syntax", "syntax-after-a-two-byte-char"],
)
def test_undecodable_json_config_names_the_file_and_byte(tmp_path, tiny_data, capsys, flag, blob, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(blob)
    if flag == "--grid":
        argv = ["ablate", "--data", str(tiny_data), "--grid", str(cfg)]
    else:
        argv = ["gen-data", "--spec", str(cfg), "--out", str(tmp_path / "x.ssamds")]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "read, text",
    [
        (SyntheticShiftSpec.from_json, '{"num_classes": 2, "shift_kind": "pixel-noise", "seed": 3}'),
        (cli._load_grid, '{"alpha": [0.5, 1], "beta": [2.0]}'),
    ],
    ids=["spec", "grid"],
)
def test_json_config_every_truncation_and_bit_flip_is_read_or_named(tmp_path, read, text):
    p = tmp_path / "damaged.json"
    p.write_text(text)
    read(p)  # the undamaged file reads
    accepted = 0
    for what, blob in truncations_and_bit_flips(text.encode()):
        p.write_bytes(blob)
        try:
            json.loads(blob.decode("utf-8"))
            parses = True
        except ValueError:
            parses = False
        try:
            read(p)
        except ConfigError as exc:
            assert str(p) in str(exc), (what, str(exc))
            if not parses:
                at = re.search(r"\bbyte (\d+)", str(exc))
                assert at and int(at.group(1)) <= len(blob), (what, str(exc))
            continue
        assert parses, what
        accepted += 1
    assert accepted > 0  # flips inside a number or a string value stay valid


@pytest.mark.parametrize("read", [SyntheticShiftSpec.from_json, cli._load_grid], ids=["spec", "grid"])
@pytest.mark.parametrize(
    "text", ['{"seed": ' + "1" * 5000 + "}", "[" * 100_000], ids=["long-integer", "deep-nesting"]
)
def test_json_past_pythons_limits_names_the_file(tmp_path, read, text):
    p = tmp_path / "cfg.json"
    p.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(str(p))):
        read(p)


def test_failing_ablate_cell_names_itself(tiny_data, monkeypatch, capsys):
    run_stream = reports.run_stream

    def fail_one_cell(encoder, dataset, emb, cfg):
        if (cfg.alpha, cfg.beta, cfg.seed) == (0.5, 1.0, 1):
            raise NumericError("boom")
        return run_stream(encoder, dataset, emb, cfg)

    monkeypatch.setattr(reports, "run_stream", fail_one_cell)
    grid = tiny_data.parent / "grid.json"
    grid.write_text(json.dumps({"alpha": [1.0, 0.5], "beta": [1.0]}))
    argv = ["ablate", "--data", str(tiny_data), "--grid", str(grid), "--seeds", "2",
            "--batch", "8", "--steps", "1"]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "numeric failure: ablation cell grid alpha=0.5 beta=1.0 seed=1: boom\n"
    )


def test_bad_usage_is_exit_1(capsys):
    assert main(["no-such-command"]) == 1
    assert main(["adapt", "--encoder", "sideways", "--data", "x"]) == 1
    assert main(["gen-data"]) == 1  # --out is required
    capsys.readouterr()


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def _child_env():
    # the child must import the package under test, which need not be
    # installed: pytest may have put src/ on the path itself
    src = str(pathlib.Path(ssam.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ssam.bench.cli", "--help"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "gen-data" in proc.stdout


@pytest.fixture(scope="module")
def default_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("default") / "data.ssamds"
    assert main(["gen-data", "--out", str(out)]) == 0
    return out


_UNPINNED = (
    "import sys; from ssam.bench import cli; "
    "cli._pin_heap_thresholds = lambda: None; sys.exit(cli.main(sys.argv[1:]))"
)


@pytest.mark.parametrize("family", ["conv", "vit"])
def test_heap_pin_leaves_reports_byte_identical(tmp_path, default_data, family):
    # fresh processes on the default dataset, whose batches are large
    # enough for the allocator thresholds to decide where temporaries live
    reports = {}
    for name, entry in (("pinned", ["-m", "ssam.bench.cli"]), ("unpinned", ["-c", _UNPINNED])):
        argv = ["adapt", "--encoder", family, "--steps", "2", "--per-image",
                "--data", str(default_data), "--report", str(tmp_path / name)]
        proc = subprocess.run(
            [sys.executable, *entry, *argv], capture_output=True, text=True, env=_child_env()
        )
        assert proc.returncode == 0, proc.stderr
        reports[name] = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
    assert set(EXPECTED_REPORT_FILES) <= set(reports["pinned"])
    assert reports["pinned"] == reports["unpinned"]


def _fake_libc(monkeypatch, names, answer):
    def confstr(name):
        if isinstance(answer, Exception):
            raise answer
        return answer

    monkeypatch.setattr(os, "confstr_names", names)
    monkeypatch.setattr(os, "confstr", confstr)


@pytest.mark.parametrize(
    "names,answer",
    [
        ({}, "glibc 2.36"),  # macOS has no such name
        ({"CS_GNU_LIBC_VERSION": 2}, None),
        ({"CS_GNU_LIBC_VERSION": 2}, OSError(22, "Invalid argument")),
        ({"CS_GNU_LIBC_VERSION": 2}, "musl 1.2.5"),
    ],
)
def test_heap_pin_leaves_other_libcs_alone(monkeypatch, names, answer):
    import ctypes

    def no_cdll(*args, **kwargs):
        raise AssertionError("ctypes.CDLL called off glibc")

    _fake_libc(monkeypatch, names, answer)
    monkeypatch.setattr(ctypes, "CDLL", no_cdll)
    cli._pin_heap_thresholds()


def test_heap_pin_sets_mmap_then_trim_threshold_on_glibc(monkeypatch):
    import ctypes

    calls = []

    class FakeLibc:
        def __init__(self, name):
            self.mallopt = lambda param, value: calls.append((param, value)) or 1

    _fake_libc(monkeypatch, {"CS_GNU_LIBC_VERSION": 2}, "glibc 2.36")
    monkeypatch.setattr(ctypes, "CDLL", FakeLibc)
    cli._pin_heap_thresholds()
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD


def _fake_blas(monkeypatch, names):
    """Make ``ctypes.CDLL`` open a library exporting ``names``, each a
    setter that records its calls; returns the call list."""
    import ctypes

    calls = []

    class FakeBlas:
        def __init__(self, path, mode=0):
            assert mode == os.RTLD_NOLOAD  # never loads a library of its own
            for name in names:
                setattr(self, name, lambda n, name=name: calls.append((name, n)))

    monkeypatch.setattr(ctypes, "CDLL", FakeBlas)
    return calls


@pytest.mark.parametrize(
    "names, first",
    [
        (("openblas_set_num_threads", "scipy_openblas_set_num_threads64_"),
         "scipy_openblas_set_num_threads64_"),
        (("openblas_set_num_threads", "openblas_set_num_threads64_"), "openblas_set_num_threads64_"),
        (("openblas_set_num_threads",), "openblas_set_num_threads"),
    ],
)
def test_blas_pin_calls_the_first_setter_found_once_with_1(monkeypatch, names, first):
    calls = _fake_blas(monkeypatch, names)
    cli._pin_blas_threads()
    assert calls == [(first, 1)]


def test_blas_pin_leaves_a_library_without_a_setter_alone(monkeypatch):
    calls = _fake_blas(monkeypatch, ("openblas_get_num_threads", "goto_set_num_threads"))
    cli._pin_blas_threads()
    assert calls == []


def test_cli_starts_without_the_unix_only_os_names(monkeypatch, capsys):
    # os.confstr, os.confstr_names and os.RTLD_NOLOAD are Unix-only: where
    # they are missing there is no glibc to pin and no BLAS setter to reach
    import ctypes

    def no_cdll(*args, **kwargs):
        raise AssertionError("ctypes.CDLL called without the Unix-only os names")

    for name in ("confstr", "confstr_names", "RTLD_NOLOAD"):
        monkeypatch.delattr(os, name)
    monkeypatch.setattr(ctypes, "CDLL", no_cdll)
    cli._pin_heap_thresholds()
    cli._pin_blas_threads()
    assert main(["gradcheck", "--seed", "-1"]) == 1
    assert "seed" in capsys.readouterr().err


def test_reports_do_not_depend_on_the_inherited_blas_threads(tmp_path):
    # a conv block of 5 positions x 63 images is not a multiple of 8
    # columns, so OpenBLAS's own threading would move columns between its
    # kernels and change last bits; the CLI runs it on one thread whatever
    # the process inherits
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"image_shape": [3, 10, 10]}))
    data = tmp_path / "data.ssamds"
    assert main(["gen-data", "--spec", str(spec), "--out", str(data)]) == 0
    base = {k: v for k, v in _child_env().items() if not k.endswith("_NUM_THREADS")}
    for family in ("conv", "vit"):
        reports = {}
        for blas in (None, "1", "2"):
            out = tmp_path / f"{family}-{blas}"
            env = base if blas is None else dict(base, OPENBLAS_NUM_THREADS=blas)
            argv = ["adapt", "--encoder", family, "--batch", "63", "--steps", "3", "--per-image",
                    "--data", str(data), "--report", str(out)]
            proc = subprocess.run([sys.executable, "-m", "ssam.bench.cli", *argv],
                                  capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            reports[blas] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert set(EXPECTED_REPORT_FILES) <= set(reports["1"])
        assert reports[None] == reports["1"] == reports["2"], family


def test_every_cli_flag_is_documented_in_the_readme():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    (subparsers,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    missing = [
        f"{name} {flag}"
        for name, parser in subparsers.choices.items()
        for action in parser._actions
        for flag in action.option_strings
        if flag not in ("-h", "--help") and not re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", readme)
    ]
    assert missing == []


def test_readme_adapt_recipe_is_at_the_defaults():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("Adapt on the stream", 1)[1].split("```\n")[1]
    prog, *argv = block.replace("\\\n", " ").split()
    assert prog == "ssam" and argv[0] == "adapt"
    shown = cli._build_parser().parse_args(argv)
    # the two paths have no default; every other flag shown must be at it
    assert shown == cli._build_parser().parse_args(
        ["adapt", "--data", shown.data, "--report", shown.report]
    )
