"""End-to-end command-line flows, driven through main() for speed."""

import csv
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import pipeboost
from pipeboost.cli import build_parser, main
from pipeboost.mcts import MctsConfig


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_cut_points(capsys):
    code, out, _ = run(capsys, "count", "--layers", "84", "--cuts", "3")
    assert code == 0
    assert out.strip() == "95284"


def test_count_assignment_space(capsys):
    # 2 layers, 3 units, <=2 stages: 3 single-unit + 6 split = 9
    code, out, _ = run(
        capsys, "count", "--layers", "2", "--units", "3", "--max-stages", "2"
    )
    assert code == 0
    assert out.strip() == "9"


@pytest.mark.parametrize("argv", [
    ["schedule", "--profile", "p.json", "--mix", "net00", "--out", "m.json"],
    ["compare", "--profile", "p.json"],
])
def test_search_flags_default_to_the_mcts_config(argv):
    args = build_parser().parse_args(argv)
    want = MctsConfig()
    assert (args.budget, args.depth, args.stage_limit, args.seed) == (
        want.budget, want.max_depth, want.stage_limit, want.seed
    )
    assert (args.weights, args.evaluator) == (None, "estimator")


def test_unknown_method_exits_2(tmp_path, capsys):
    prof = tmp_path / "p.json"
    assert run(capsys, "genprofile", "--models", "3", "--seed", "1", "--out", str(prof))[0] == 0
    with pytest.raises(SystemExit) as exc:
        main([
            "compare", "--profile", str(prof), "--methods", "gpu,warp",
            "--random-mixes", "1", "--mix-size", "2", "--evaluator", "simulator",
        ])
    assert exc.value.code == 2


@pytest.mark.parametrize("factor", ["nan", "inf", "1e308"])  # 1e308 overflows to inf
def test_genprofile_with_non_finite_kernel_times_is_a_clean_error(capsys, tmp_path, factor):
    out = tmp_path / "p.json"
    code, _, err = run(
        capsys, "genprofile", "--models", "3", "--factors", f"{factor},3,8", "--out", str(out)
    )
    assert code == 1
    assert err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("text", ["5,2", "3", "0,4", "-2,3", "1,2,3", "a,b", ""])
def test_genprofile_with_a_bad_layer_range_is_a_clean_error(capsys, tmp_path, text):
    out = tmp_path / "p.json"
    code, _, err = run(capsys, "genprofile", f"--layer-range={text}", "--out", str(out))
    assert code == 1
    assert err.startswith("error: --layer-range")
    assert not out.exists()


def test_genprofile_layer_range_bounds_every_model(capsys, tmp_path):
    out = tmp_path / "p.json"
    code, _, _ = run(capsys, "genprofile", "--layer-range", "2,2", "--out", str(out))
    assert code == 0
    assert {m.num_layers for m in pipeboost.load_profile(out).models} == {2}


@pytest.mark.parametrize("count", ["0", "-3"])
def test_dataset_count_below_one_is_a_clean_error(capsys, tmp_path, count):
    prof, out = tmp_path / "p.json", tmp_path / "d.json"
    assert run(capsys, "genprofile", "--models", "5", "--out", str(prof))[0] == 0
    code, _, err = run(
        capsys, "dataset", "--profile", str(prof), "--count", count, "--out", str(out)
    )
    assert code == 1
    assert err.startswith("error:") and "count" in err
    assert not out.exists()


def test_missing_file_is_a_clean_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "simulate", "--profile", str(tmp_path / "nope.json"),
        "--mapping", str(tmp_path / "m.json"),
    )
    assert code == 1
    assert "error:" in err


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """genprofile -> dataset -> (3-epoch) train, shared by the flow tests."""
    root = tmp_path_factory.mktemp("cli")
    prof = root / "profile.json"
    ds = root / "dataset.json"
    weights = root / "weights.bin"
    hist = root / "history.csv"
    assert main([
        "genprofile", "--models", "6", "--layer-range", "4,7",
        "--seed", "23", "--out", str(prof),
    ]) == 0
    assert main([
        "dataset", "--profile", str(prof), "--count", "60",
        "--mix-max", "4", "--seed", "7", "--out", str(ds),
    ]) == 0
    assert main([
        "train", "--profile", str(prof), "--dataset", str(ds),
        "--epochs", "3", "--train-size", "48", "--val-size", "12",
        "--seed", "0", "--out", str(weights), "--history", str(hist),
    ]) == 0
    return root


def test_train_outputs(cli_workspace):
    assert (cli_workspace / "weights.bin").stat().st_size == 16 + (20003 + 12) * 8
    with open(cli_workspace / "history.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "train_l1", "val_l1"]
    assert len(rows) == 4  # header + 3 epochs
    assert float(rows[3][1]) < float(rows[1][1])  # loss went down


def test_schedule_and_simulate_flow(cli_workspace, capsys):
    prof = cli_workspace / "profile.json"
    out_map = cli_workspace / "mapping.json"
    code, out, _ = run(
        capsys, "schedule", "--profile", str(prof), "--mix", "net00,net03",
        "--weights", str(cli_workspace / "weights.bin"),
        "--budget", "120", "--seed", "4", "--out", str(out_map),
    )
    assert code == 0
    stats = json.loads(out)
    assert stats["iterations"] == 120
    assert stats["scored"] >= stats["iterations"]  # guesses that missed are scored too

    mapping = json.loads(out_map.read_text())
    assert mapping["workload"] == ["net00", "net03"]

    code, out, _ = run(capsys, "simulate", "--profile", str(prof), "--mapping", str(out_map))
    assert code == 0
    report = json.loads(out)
    assert report["avg_throughput"] > 0
    assert len(report["per_unit_inf_s"]) == 3


def test_schedule_simulator_evaluator_needs_no_weights(cli_workspace, capsys):
    prof = cli_workspace / "profile.json"
    out_map = cli_workspace / "map2.json"
    code, out, _ = run(
        capsys, "schedule", "--profile", str(prof), "--mix", "net01,net02",
        "--evaluator", "simulator", "--budget", "100", "--seed", "1",
        "--out", str(out_map),
    )
    assert code == 0
    stats = json.loads(out)
    assert stats["scored"] == stats["iterations"] == 100  # one mapping a call


def test_schedule_estimator_without_weights_errors(cli_workspace, capsys):
    code, _, err = run(
        capsys, "schedule", "--profile", str(cli_workspace / "profile.json"),
        "--mix", "net00", "--budget", "10", "--out", str(cli_workspace / "x.json"),
    )
    assert code == 1
    assert "weights" in err


def test_schedule_deterministic_mapping_files(cli_workspace, capsys):
    prof = cli_workspace / "profile.json"
    a = cli_workspace / "det_a.json"
    b = cli_workspace / "det_b.json"
    for out in (a, b):
        code, _, _ = run(
            capsys, "schedule", "--profile", str(prof), "--mix", "net02,net04",
            "--evaluator", "simulator", "--budget", "150", "--seed", "11",
            "--out", str(out),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_compare_csv_output(cli_workspace, capsys):
    prof = cli_workspace / "profile.json"
    out_csv = cli_workspace / "cmp.csv"
    code, _, _ = run(
        capsys, "compare", "--profile", str(prof),
        "--evaluator", "simulator", "--methods", "gpu,random-best,mcts",
        "--random-mixes", "2", "--mix-size", "2", "--budget", "100",
        "--random-n", "40", "--seed", "3", "--out", str(out_csv),
    )
    assert code == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["mix_id", "method", "avg_throughput", "normalized", "decision_ms"]
    assert len(rows) == 1 + 2 * 3
    # rows are grouped by mix and keep the method order given
    assert [r[1] for r in rows[1:4]] == ["gpu", "random-best", "mcts"]
    # gpu rows are normalized against themselves
    gpu_rows = [r for r in rows[1:] if r[1] == "gpu"]
    assert all(float(r[3]) == pytest.approx(1.0) for r in gpu_rows)
    # every other method at least matched the baseline here
    assert all(float(r[3]) > 0 for r in rows[1:])


@pytest.mark.parametrize("method", ["mosaic", "ga"])
def test_compare_stage_limit_below_one_is_a_clean_error(cli_workspace, capsys, method):
    code, _, err = run(
        capsys, "compare", "--profile", str(cli_workspace / "profile.json"),
        "--evaluator", "simulator", "--methods", f"gpu,{method}",
        "--random-mixes", "1", "--mix-size", "2", "--stage-limit", "0",
    )
    assert code == 1
    assert "error:" in err and "stage" in err


@pytest.mark.parametrize("size", [0, 7])
def test_compare_mix_size_outside_the_profile_is_a_clean_error(cli_workspace, capsys, size):
    # the workspace profile has 6 models
    code, _, err = run(
        capsys, "compare", "--profile", str(cli_workspace / "profile.json"),
        "--evaluator", "simulator", "--methods", "gpu",
        "--random-mixes", "1", "--mix-size", str(size),
    )
    assert code == 1
    assert err == (
        f"error: --mix-size must be in 1..6, the profile's model count; got {size}\n"
    )


def test_compare_json_output(cli_workspace, capsys):
    prof = cli_workspace / "profile.json"
    code, out, _ = run(
        capsys, "compare", "--profile", str(prof), "--evaluator", "simulator",
        "--methods", "gpu,mcts", "--random-mixes", "2", "--mix-size", "2",
        "--budget", "60", "--seed", "9", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(r["mix_id"], r["method"]) for r in rows] == [
        (0, "gpu"), (0, "mcts"), (1, "gpu"), (1, "mcts"),
    ]
    for gpu, mcts in (rows[0:2], rows[2:4]):
        assert gpu["normalized"] == 1.0
        assert mcts["normalized"] == pytest.approx(
            mcts["avg_throughput"] / gpu["avg_throughput"], rel=1e-12
        )


def test_compare_on_a_one_unit_profile(cli_workspace, capsys, tmp_path):
    # a profile of only its GPU unit is valid; random-best and the GA drew a
    # second stage there and raised IndexError from Random.choice
    profile = json.loads((cli_workspace / "profile.json").read_text())
    profile["units"] = [u for u in profile["units"] if u["kind"] == "gpu"]
    gpu = str(profile["units"][0]["id"])
    for model in profile["models"]:
        for layer in model["layers"]:
            for kernel in layer["kernels"]:
                kernel["time_ms"] = {gpu: kernel["time_ms"][gpu]}
    one = tmp_path / "profile.json"
    one.write_text(json.dumps(profile))
    code, out, err = run(
        capsys, "compare", "--profile", str(one), "--evaluator", "simulator",
        "--random-mixes", "2", "--mix-size", "3", "--budget", "60", "--seed", "4",
        "--format", "json",
    )
    assert (code, err) == (0, "")
    rows = json.loads(out)["rows"]
    assert [r["method"] for r in rows] == ["gpu", "random-best", "mosaic", "ga", "mcts"] * 2
    assert all(r["normalized"] == 1.0 for r in rows)


@pytest.mark.parametrize(
    "key,value",
    [
        pytest.param("assignments", None, id="assignments"),  # None: key missing
        pytest.param("workload", None, id="workload"),
        pytest.param("assignments", 5, id="assignments-int"),
        pytest.param("assignments", [5], id="assignments-flat"),
        pytest.param("assignments", [[0, 0.5, 0, 0, 0, 0]], id="assignments-float"),
        pytest.param("workload", "net00", id="workload-string"),
    ],
)
def test_mapping_with_missing_key_is_a_clean_error(cli_workspace, capsys, tmp_path, key, value):
    mapping = {"workload": ["net00"], "assignments": [[0, 0, 0, 0, 0, 0]]}  # valid
    if value is None:
        del mapping[key]
    else:
        mapping[key] = value
    bad = tmp_path / "mapping.json"
    bad.write_text(json.dumps(mapping))
    code, _, err = run(
        capsys, "simulate", "--profile", str(cli_workspace / "profile.json"),
        "--mapping", str(bad),
    )
    assert code == 1
    assert err.startswith("error:") and key in err


def test_mapping_of_an_empty_workload_is_a_clean_error(cli_workspace, capsys, tmp_path):
    bad = tmp_path / "mapping.json"
    bad.write_text(json.dumps({"workload": [], "assignments": []}))
    code, _, err = run(
        capsys, "simulate", "--profile", str(cli_workspace / "profile.json"),
        "--mapping", str(bad),
    )
    assert code == 1
    assert err == "error: workload has no models\n"


def _set(path, value):
    """A profile edit: put `value` at the key path `path` of the profile dict."""
    def edit(profile):
        obj = profile
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
    return edit


_KERNEL = ("models", 0, "layers", 0, "kernels", 0)


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(_set(("units",), 5), id="units-int"),
        pytest.param(_set(("models", 0, "layers"), 7), id="layers-int"),
        pytest.param(_set(_KERNEL + ("time_ms",), [1.0, 2.0, 3.0]), id="time_ms-list"),
        pytest.param(_set(("models", 0, "layers", 0, "features", "macs"), 2.7), id="macs-float"),
        pytest.param(_set(_KERNEL + ("time_ms", "0"), "1.5"), id="time-string"),
        pytest.param(_set(_KERNEL + ("time_ms", "0"), float("nan")), id="time-nan"),
        pytest.param(_set(("transfer_ms",), float("inf")), id="transfer-inf"),
        pytest.param(_set(("transfer_ms",), 10**400), id="transfer-huge-int"),
        pytest.param(_set(_KERNEL + ("time_ms", " 0"), 9.0), id="unit-id-spaced"),
    ],
)
def test_profile_with_bad_value_is_a_clean_error(cli_workspace, capsys, tmp_path, edit):
    profile = json.loads((cli_workspace / "profile.json").read_text())
    edit(profile)
    bad = tmp_path / "profile.json"
    bad.write_text(json.dumps(profile))
    mapping = tmp_path / "mapping.json"
    mapping.write_text(json.dumps({"workload": ["net00"], "assignments": [[0, 0, 0, 0, 0, 0]]}))
    code, _, err = run(capsys, "simulate", "--profile", str(bad), "--mapping", str(mapping))
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("text", [b"{not json", b"\xff{}"], ids=["not-json", "not-utf8"])
@pytest.mark.parametrize("loader", ["profile", "mapping", "dataset"])
def test_unreadable_json_names_the_file(cli_workspace, capsys, tmp_path, loader, text):
    files = {
        "profile": cli_workspace / "profile.json",
        "mapping": tmp_path / "mapping.json",
        "dataset": cli_workspace / "dataset.json",
    }
    files["mapping"].write_text(json.dumps({"workload": ["net00"], "assignments": [[0] * 6]}))
    bad = files[loader] = tmp_path / f"bad-{loader}.json"
    bad.write_bytes(text)
    if loader == "dataset":
        argv = ["train", "--dataset", str(bad), "--epochs", "1", "--out", str(tmp_path / "w.bin")]
    else:
        argv = ["simulate", "--mapping", str(files["mapping"])]
    code, _, err = run(capsys, *argv, "--profile", str(files["profile"]))
    assert code == 1
    assert err.startswith(f"error: {bad}: invalid JSON")


def test_non_finite_weights_are_a_clean_error(cli_workspace, capsys, tmp_path):
    # NaN weights would score every mapping NaN, so no search could pick one
    raw = bytearray((cli_workspace / "weights.bin").read_bytes())
    raw[16:24] = struct.pack("<d", float("nan"))  # the first parameter
    bad = tmp_path / "weights.bin"
    bad.write_bytes(bytes(raw))
    code, _, err = run(
        capsys, "schedule", "--profile", str(cli_workspace / "profile.json"),
        "--mix", "net00,net03", "--weights", str(bad), "--budget", "5",
        "--out", str(tmp_path / "mapping.json"),
    )
    assert code == 1
    assert err.startswith("error:") and "non-finite" in err


@pytest.mark.parametrize("offset, value, says", [
    (0, b"XXXX", "bad magic"),
    (4, struct.pack("<I", 9), "unsupported weights version 9"),
    (8, struct.pack("<Q", 5), "malformed weights file (5 params"),
])
def test_bad_weights_header_is_one_error_line(cli_workspace, capsys, tmp_path, offset, value, says):
    raw = bytearray((cli_workspace / "weights.bin").read_bytes())
    raw[offset:offset + len(value)] = value
    bad = tmp_path / "weights.bin"
    bad.write_bytes(bytes(raw))
    code, out, err = run(
        capsys, "schedule", "--profile", str(cli_workspace / "profile.json"),
        "--mix", "net00,net03", "--weights", str(bad), "--budget", "5",
        "--out", str(tmp_path / "mapping.json"),
    )
    assert code == 1 and out == ""
    assert err.startswith(f"error: {bad}: ") and says in err and err.count("\n") == 1
    assert not (tmp_path / "mapping.json").exists()


def test_dataset_without_samples_is_a_clean_error(cli_workspace, capsys, tmp_path):
    bad = tmp_path / "dataset.json"
    bad.write_text(json.dumps({"rows": []}))
    code, _, err = run(
        capsys, "train", "--profile", str(cli_workspace / "profile.json"),
        "--dataset", str(bad), "--epochs", "1", "--out", str(tmp_path / "w.bin"),
    )
    assert code == 1
    assert err.startswith("error:") and "samples" in err


def test_dataset_row_that_does_not_fit_its_model_names_the_row(cli_workspace, capsys, tmp_path):
    # net00 has 6 layers; the error must say which file and which row
    bad = tmp_path / "dataset.json"
    row = {"workload": ["net00"], "assignments": [[0]], "target_raw": [1, 1, 1]}
    bad.write_text(json.dumps({"samples": [row]}))
    code, _, err = run(
        capsys, "train", "--profile", str(cli_workspace / "profile.json"),
        "--dataset", str(bad), "--epochs", "1", "--out", str(tmp_path / "w.bin"),
    )
    assert code == 1
    assert err.startswith(f"error: {bad}: samples[0]: model 'net00': 1 assignments")


def test_dataset_row_of_an_empty_workload_is_a_clean_error(cli_workspace, capsys, tmp_path):
    bad = tmp_path / "dataset.json"
    row = {"workload": [], "assignments": [], "target_raw": [1, 1, 1]}
    bad.write_text(json.dumps({"samples": [row]}))
    code, _, err = run(
        capsys, "train", "--profile", str(cli_workspace / "profile.json"),
        "--dataset", str(bad), "--epochs", "1", "--out", str(tmp_path / "w.bin"),
    )
    assert code == 1
    assert err == f"error: {bad}: samples[0]: workload has no models\n"


def test_console_script_entrypoint():
    # the installed entry point must answer the counting question too; the
    # child imports pipeboost from where this process did (pytest's
    # `pythonpath` setting does not reach subprocesses)
    src = str(Path(pipeboost.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "pipeboost.cli", "count", "--layers", "84", "--cuts", "3"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "95284"


def test_python_dash_m_pipeboost_runs_the_cli():
    # `python -m pipeboost` from a checkout, with src/ on PYTHONPATH
    src = str(Path(pipeboost.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "pipeboost", "--help"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: pipeboost ")
    assert "genprofile" in proc.stdout
