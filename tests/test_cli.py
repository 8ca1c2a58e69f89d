"""Command-line interface: happy paths, wiring between stages, error exits."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eegid import pipeline, signal_io
from eegid.cli import main
from eegid.features import load_feature_table, save_feature_table
from eegid.pipeline import load_model


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Dataset + features + trained model produced through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    ds_dir = root / "ds"
    feat = root / "features.csv"
    model = root / "model.txt"
    assert main(["synth", "--subjects", "2", "--duration", "12",
                 "--seed", "5", "--out", str(ds_dir)]) == 0
    assert main(["extract", "--in", str(ds_dir), "--out", str(feat)]) == 0
    assert main(["train", "--features", str(feat), "--model", str(model),
                 "--kernel", "rbf", "--c", "100", "--gamma", "0.01",
                 "--pca", "0.95"]) == 0
    return root, ds_dir, feat, model


def test_synth_writes_loadable_dataset(world):
    _, ds_dir, _, _ = world
    ds = signal_io.load_dataset(ds_dir)
    assert ds.subject_ids == [0, 1]
    assert ds.fs == 250.0
    assert ds.entries[0][1].data.shape == (8, 3000)


def test_synth_seed_changes_data(tmp_path):
    assert main(["synth", "--subjects", "2", "--duration", "6",
                 "--seed", "1", "--out", str(tmp_path / "a")]) == 0
    assert main(["synth", "--subjects", "2", "--duration", "6",
                 "--seed", "2", "--out", str(tmp_path / "b")]) == 0
    a = signal_io.load_dataset(tmp_path / "a").entries[0][1].data
    b = signal_io.load_dataset(tmp_path / "b").entries[0][1].data
    assert not np.array_equal(a, b)


def test_extract_features_file(world):
    _, _, feat, _ = world
    X, y, starts, meta = load_feature_table(feat)
    assert X.shape[1] == 80
    assert set(y.tolist()) == {0, 1}
    assert meta["asr"] == "1"
    assert "notch_f0" in meta and "fs" in meta
    # 12 s at 250 Hz -> (3000 - 200) // 100 + 1 windows per subject
    assert X.shape[0] == 2 * 29


def test_train_writes_model(world):
    _, _, _, model = world
    p = load_model(model)
    assert p.svm.classes == (0, 1)
    assert p.svm.kernel.kind == "rbf"
    assert p.flags.asr is True


def test_evaluate_prints_report(world, capsys):
    _, _, feat, model = world
    assert main(["evaluate", "--features", str(feat),
                 "--model", str(model)]) == 0
    out = capsys.readouterr().out
    assert "accuracy:" in out
    assert "confusion" in out
    assert "chronological" in out


def test_identify_recovers_subject(world, capsys, tmp_path):
    _, ds_dir, _, model = world
    ds = signal_io.load_dataset(ds_dir)
    rec_csv = tmp_path / "rec.csv"
    signal_io.save_recording_csv(ds.entries[1][1], rec_csv)
    assert main(["identify", "--model", str(model),
                 "--in", str(rec_csv)]) == 0
    out = capsys.readouterr().out
    assert "label: 1" in out
    assert "majority:" in out


def test_identify_too_short_names_window_minimum(world, tmp_path, capsys):
    _, ds_dir, _, _ = world
    feat = tmp_path / "features.csv"
    model = tmp_path / "model.txt"
    assert main(["extract", "--in", str(ds_dir), "--out", str(feat), "--no-asr"]) == 0
    assert main(["train", "--features", str(feat), "--model", str(model),
                 "--kernel", "linear", "--c", "1"]) == 0
    rec = signal_io.load_dataset(ds_dir).entries[0][1]
    rec_csv = tmp_path / "rec.csv"
    signal_io.save_recording_csv(
        signal_io.Recording(channels=rec.channels, fs=rec.fs, data=rec.data[:, :150]),
        rec_csv)
    capsys.readouterr()
    assert main(["identify", "--model", str(model), "--in", str(rec_csv)]) == 2
    assert ("[window] need >= 0.8 s at 250 Hz (200 samples, one window), got 150"
            in capsys.readouterr().err)


def test_preprocess_roundtrip(world, tmp_path):
    _, ds_dir, _, _ = world
    out_dir = tmp_path / "clean"
    assert main(["preprocess", "--in", str(ds_dir),
                 "--out", str(out_dir)]) == 0
    cleaned = signal_io.load_dataset(out_dir)
    original = signal_io.load_dataset(ds_dir)
    assert cleaned.subject_ids == original.subject_ids
    for (_, a), (_, b) in zip(cleaned.entries, original.entries):
        assert a.data.shape == b.data.shape
        assert not np.array_equal(a.data, b.data)  # filtering changed samples


def test_grid_writes_results(world, tmp_path, capsys):
    _, _, feat, _ = world
    out = tmp_path / "results.csv"
    assert main(["grid", "--features", str(feat), "--kernels", "linear",
                 "--out", str(out), "--max-passes", "5000"]) == 0
    text = out.read_text().splitlines()
    assert text[0] == "kind,c,gamma,degree,coef0,accuracy,error"
    assert len(text) == 5  # four linear cells
    printed = capsys.readouterr().out
    assert "best linear:" in printed


def test_grid_rejects_bad_solver_arguments(world, tmp_path, capsys):
    _, _, feat, _ = world
    out = tmp_path / "results.csv"
    assert main(["grid", "--features", str(feat), "--kernels", "linear",
                 "--out", str(out), "--max-passes", "0"]) == 2
    err = capsys.readouterr().err
    assert "max_passes >= 1" in err and "pair" not in err
    assert not out.exists()


def test_grid_rejects_unknown_kernel(world, capsys):
    _, _, feat, _ = world
    assert main(["grid", "--features", str(feat),
                 "--kernels", "sigmoid"]) == 2
    assert "sigmoid" in capsys.readouterr().err


def test_grid_reports_each_cell_that_fails_and_exits_0(world, capsys):
    _, _, feat, _ = world
    capsys.readouterr()
    assert main(["grid", "--features", str(feat), "--max-passes", "1",
                 "--tol", "1e-9"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 22  # every cell of the default grids, and no best line
    assert all(" failed: pair (0,1): SMO did not converge in 1 sweeps" in row
               for row in rows)


def test_grid_out_holds_each_error_as_printed(world, tmp_path, capsys):
    _, _, feat, _ = world
    out = tmp_path / "results.csv"
    capsys.readouterr()
    assert main(["grid", "--features", str(feat), "--max-passes", "1", "--tol", "1e-9",
                 "--out", str(out)]) == 0
    printed = [row.split(" failed: ", 1)[1] for row in capsys.readouterr().out.splitlines()
               if " failed: " in row]
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][-1] == "error" and len(rows) == 1 + len(printed) == 23
    assert [row[-1] for row in rows[1:]] == printed
    assert all("pair (0,1)" in error and ", KKT violation" in error for error in printed)


@pytest.mark.parametrize("extra, message", [
    (["--kernel", "linear", "--gamma", "0.5"], "--gamma applies only to the poly and rbf kernels"),
    (["--kernel", "linear", "--degree", "4"], "--degree applies only to the poly kernel"),
    (["--kernel", "rbf", "--gamma", "0.1", "--degree", "2"],
     "--degree applies only to the poly kernel"),
], ids=["linear with gamma", "linear with degree", "rbf with degree"])
def test_train_refuses_a_parameter_its_kernel_ignores(world, tmp_path, capsys, extra, message):
    _, _, feat, _ = world
    model = tmp_path / "model.txt"
    capsys.readouterr()
    assert main(["train", "--features", str(feat), "--model", str(model), *extra]) == 2
    assert capsys.readouterr().err.splitlines() == [f"eegid train: {message}"]
    assert not model.exists()


def test_random_split_uses_seed(world, capsys):
    _, _, feat, model = world
    assert main(["evaluate", "--features", str(feat), "--model", str(model),
                 "--split", "random", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "random" in out and "seed=3" in out


def _split_command_args(command, model, out_dir):
    return {"train": ["--model", str(out_dir / "m.txt"), "--kernel", "linear"],
            "evaluate": ["--model", str(model)],
            "grid": ["--kernels", "linear", "--out", str(out_dir / "grid.csv")]}[command]


@pytest.mark.parametrize("command", ["train", "evaluate", "grid"])
def test_seed_is_refused_without_random_split(world, tmp_path, capsys, command):
    _, _, feat, model = world
    rc = main([command, "--features", str(feat),
               *_split_command_args(command, model, tmp_path), "--seed", "1"])
    assert rc == 2
    assert ("--seed applies only with --split random"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["train", "evaluate", "grid"])
def test_seed_is_accepted_with_random_split(world, tmp_path, capsys, command):
    _, _, feat, model = world
    assert main([command, "--features", str(feat),
                 *_split_command_args(command, model, tmp_path),
                 "--split", "random", "--seed", "1"]) == 0
    if command != "grid":  # grid prints no split description
        assert "random 0.8/0.2 seed=1" in capsys.readouterr().out


def test_missing_features_file_exits_nonzero(tmp_path, capsys):
    rc = main(["train", "--features", str(tmp_path / "nope.csv"),
               "--model", str(tmp_path / "m.txt")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "eegid train:" in err
    assert "nope.csv" in err


def test_extract_refuses_non_numeric_rate(tmp_path, capsys):
    ds_dir = tmp_path / "ds"
    assert main(["synth", "--subjects", "2", "--duration", "6", "--out", str(ds_dir)]) == 0
    (ds_dir / "meta.txt").write_text("fs=abc\nchannels=" + ",".join(signal_io.EEG_CHANNELS) + "\n")
    capsys.readouterr()
    rc = main(["extract", "--in", str(ds_dir), "--out", str(tmp_path / "f.csv")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"eegid extract: {ds_dir / 'meta.txt'}: fs 'abc' is not a number"]


@pytest.mark.parametrize("fs", ["-5", "nan"])
def test_extract_refuses_a_rate_that_is_not_positive_and_finite(tmp_path, capsys, fs):
    ds_dir = tmp_path / "ds"
    assert main(["synth", "--subjects", "2", "--duration", "6", "--out", str(ds_dir)]) == 0
    (ds_dir / "meta.txt").write_text(f"fs={fs}\nchannels={','.join(signal_io.EEG_CHANNELS)}\n")
    capsys.readouterr()
    rc = main(["extract", "--in", str(ds_dir), "--out", str(tmp_path / "f.csv")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"eegid extract: {ds_dir / 'meta.txt'}: fs '{fs}' is not a positive, "
                   "finite number"]


def test_identify_undecodable_recording_exits_2_with_one_line(world, tmp_path):
    _, ds_dir, _, model = world
    data = (ds_dir / "subject_0" / "rec_000.csv").read_bytes().splitlines(keepends=True)
    data[5] = b"\xff" + data[5][1:]
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"".join(data))
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "eegid.cli", "identify", "--model", str(model), "--in", str(bad)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=300)
    assert done.returncode == 2
    err = done.stderr.splitlines()
    assert len(err) == 1 and "Traceback" not in done.stderr
    assert err[0].startswith(f"eegid identify: cannot read recording file {bad}: ")


def test_rbf_without_gamma_exits_nonzero(world, capsys):
    _, _, feat, _ = world
    rc = main(["train", "--features", str(feat),
               "--model", "/tmp/unused-model.txt", "--kernel", "rbf"])
    assert rc == 2
    assert "gamma" in capsys.readouterr().err


def test_identify_corrupt_model_exits_nonzero(world, tmp_path, capsys):
    _, ds_dir, _, model = world
    text = model.read_text()
    bad = tmp_path / "bad.txt"
    bad.write_text(text.replace(pipeline.MODEL_FORMAT, "eegid-model v9"))
    ds = signal_io.load_dataset(ds_dir)
    rec_csv = tmp_path / "rec.csv"
    signal_io.save_recording_csv(ds.entries[0][1], rec_csv)
    rc = main(["identify", "--model", str(bad), "--in", str(rec_csv)])
    assert rc == 2
    assert "v9" in capsys.readouterr().err


def test_identify_rejects_other_sampling_rate(world, tmp_path, capsys):
    _, ds_dir, _, model = world
    rec_csv = tmp_path / "rec.csv"
    signal_io.save_recording_csv(signal_io.load_dataset(ds_dir).entries[1][1], rec_csv)
    rc = main(["identify", "--model", str(model), "--in", str(rec_csv),
               "--fs", "220"])
    assert rc == 2
    assert ("[preprocess] recording sampled at 220 Hz, model trained at 250 Hz"
            in capsys.readouterr().err)


def test_evaluate_rejects_features_of_other_sampling_rate(world, tmp_path, capsys):
    _, _, feat, model = world
    X, y, starts, meta = load_feature_table(feat)
    relabelled = tmp_path / "features_500.csv"
    save_feature_table(relabelled, X, y, starts, meta={**meta, "fs": "500.0"})
    rc = main(["evaluate", "--features", str(relabelled), "--model", str(model)])
    assert rc == 2
    assert ("[preprocess] features sampled at 500 Hz, model trained at 250 Hz"
            in capsys.readouterr().err)


@pytest.mark.parametrize("header, message", [
    ({"win_s": "2.0", "hop_s": "1.0"},
     "features made with win_s=2.0, hop_s=1.0, model trained with win_s=0.8, hop_s=0.4"),
    ({"notch_q": "5.0", "asr": "0"},
     "features made with notch_q=5.0, asr=0, model trained with notch_q=30.0, asr=1"),
], ids=["window", "filters"])
def test_evaluate_rejects_features_of_other_preprocessing(world, tmp_path, capsys,
                                                          header, message):
    _, _, feat, model = world
    X, y, starts, meta = load_feature_table(feat)
    relabelled = tmp_path / "features_other.csv"
    save_feature_table(relabelled, X, y, starts, meta={**meta, **header})
    rc = main(["evaluate", "--features", str(relabelled), "--model", str(model)])
    assert rc == 2
    assert f"[preprocess] {message}" in capsys.readouterr().err


@pytest.mark.parametrize("header, message", [
    ({"fs": "\u0662\u0665\u0660"}, "PreprocessFlags fs '\u0662\u0665\u0660' is no float"),
    ({"win_s": "0_8"}, "PreprocessFlags win_s '0_8' is no float"),
    ({"bp_order": "4.5"}, "PreprocessFlags bp_order '4.5' is no int"),
    ({"asr": "2"}, "PreprocessFlags asr '2' is no bool"),
], ids=["non-ASCII fs", "digit separator", "fractional int", "bool neither 0 nor 1"])
def test_evaluate_refuses_a_header_setting_outside_the_grammar(world, tmp_path, capsys,
                                                               header, message):
    _, _, feat, model = world
    X, y, starts, meta = load_feature_table(feat)
    edited = tmp_path / "features_edited.csv"
    save_feature_table(edited, X, y, starts, meta={**meta, **header})
    rc = main(["evaluate", "--features", str(edited), "--model", str(model)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [f"eegid evaluate: {edited}: {message}"]


def test_evaluate_rejects_features_of_two_channels(world, tmp_path, capsys):
    _, _, feat, model = world
    X, y, starts, meta = load_feature_table(feat)
    two = tmp_path / "features_2ch.csv"
    save_feature_table(two, X[:, :20], y, starts, meta=meta)
    rc = main(["evaluate", "--features", str(two), "--model", str(model)])
    assert rc == 2
    assert ("[features] got 20 features, standardizer expects 80"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["preprocess", "extract", "identify"])
def test_seed_is_refused_where_nothing_is_random(tmp_path, capsys, command):
    args = {"preprocess": ["--in", "a", "--out", "b"],
            "extract": ["--in", "a", "--out", "b"],
            "identify": ["--model", "m.txt", "--in", "rec.csv"]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *args, "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_extract_refuses_non_finite_flag(world, tmp_path, capsys):
    _, ds_dir, _, _ = world
    rc = main(["extract", "--in", str(ds_dir), "--out", str(tmp_path / "f.csv"),
               "--asr-k", "nan"])
    assert rc == 2
    assert "PreprocessFlags asr_k must be finite, got nan" in capsys.readouterr().err


def test_evaluate_rejects_table_with_nan_cell(world, tmp_path, capsys):
    _, _, feat, model = world
    lines = feat.read_text().splitlines(keepends=True)
    head = sum(line.startswith("#") for line in lines) + 1
    cells = lines[head + 2].split(",")
    cells[4] = "nan"
    lines[head + 2] = ",".join(cells)
    damaged = tmp_path / "features_nan.csv"
    damaged.write_text("".join(lines))
    rc = main(["evaluate", "--features", str(damaged), "--model", str(model)])
    assert rc == 2
    assert "non-numeric sample at row 2, col 4: 'nan'" in capsys.readouterr().err


def test_sampling_rate_travels_from_extract_to_identify(tmp_path, capsys):
    ds_dir = tmp_path / "ds"
    feat = tmp_path / "features.csv"
    model = tmp_path / "model.txt"
    assert main(["synth", "--subjects", "2", "--duration", "12", "--fs", "500",
                 "--seed", "8", "--out", str(ds_dir)]) == 0
    assert main(["extract", "--in", str(ds_dir), "--out", str(feat)]) == 0
    assert main(["train", "--features", str(feat), "--model", str(model),
                 "--kernel", "linear", "--c", "1"]) == 0
    assert load_model(model).flags.fs == 500.0
    rec_csv = tmp_path / "rec.csv"
    signal_io.save_recording_csv(signal_io.load_dataset(ds_dir).entries[0][1], rec_csv)
    assert main(["identify", "--model", str(model), "--in", str(rec_csv)]) == 2
    capsys.readouterr()
    assert main(["identify", "--model", str(model), "--in", str(rec_csv),
                 "--fs", "500"]) == 0
    assert "label: 0" in capsys.readouterr().out


def test_synth_needs_two_subjects(tmp_path, capsys):
    rc = main(["synth", "--subjects", "1", "--out", str(tmp_path / "ds")])
    assert rc == 2
    assert "subjects" in capsys.readouterr().err.lower()


def test_window_geometry_travels_from_extract_to_identify(tmp_path, capsys):
    ds_dir = tmp_path / "ds"
    feat = tmp_path / "features.csv"
    model = tmp_path / "model.txt"
    assert main(["synth", "--subjects", "2", "--duration", "20",
                 "--seed", "8", "--out", str(ds_dir)]) == 0
    assert main(["extract", "--in", str(ds_dir), "--out", str(feat),
                 "--window", "2.0", "--hop", "1.0"]) == 0
    assert main(["train", "--features", str(feat), "--model", str(model),
                 "--kernel", "linear", "--c", "1"]) == 0
    flags = load_model(model).flags
    assert (flags.win_s, flags.hop_s) == (2.0, 1.0)
    capsys.readouterr()
    rec_csv = tmp_path / "rec.csv"
    signal_io.save_recording_csv(signal_io.load_dataset(ds_dir).entries[0][1], rec_csv)
    assert main(["identify", "--model", str(model), "--in", str(rec_csv)]) == 0
    # 20 s at 250 Hz in 2.0 s windows every 1.0 s: (5000 - 500) // 250 + 1
    assert "/19 windows)" in capsys.readouterr().out


def test_train_rejects_subject_with_too_few_windows(world, tmp_path, capsys):
    _, _, feat, _ = world
    X, y, starts, meta = load_feature_table(feat)
    keep = np.flatnonzero(y == 0).tolist() + np.flatnonzero(y == 1)[:4].tolist()
    small = tmp_path / "small.csv"
    save_feature_table(small, X[keep], y[keep], starts[keep], meta=meta)
    rc = main(["train", "--features", str(small), "--model", str(tmp_path / "m.txt"),
               "--kernel", "linear"])
    assert rc == 2
    assert "subject 1 has 4 windows" in capsys.readouterr().err


# Runs in a fresh interpreter: in this process the oracle tests have
# already imported scipy. Prints the scipy modules loaded after each command.
_FOOTPRINT_SCRIPT = """
import contextlib, io, json, sys
feat, tmp = sys.argv[1:]
import eegid
from eegid import dsp
from eegid.cli import main
steps = [
    ["synth", "--subjects", "2", "--duration", "6", "--out", tmp + "/ds"],
    ["preprocess", "--in", tmp + "/ds", "--out", tmp + "/clean"],
    ["extract", "--in", tmp + "/ds", "--out", tmp + "/f.csv"],
    ["train", "--features", feat, "--model", tmp + "/m.txt", "--kernel", "linear"],
    ["evaluate", "--features", feat, "--model", tmp + "/m.txt"],
    ["grid", "--features", feat, "--kernels", "linear"],
    ["identify", "--model", tmp + "/m.txt", "--in", tmp + "/ds/subject_0/rec_000.csv"],
]
codes, loaded = [], {"import": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}
with contextlib.redirect_stdout(io.StringIO()):
    for argv in steps:
        if argv[0] == "identify":
            dsp._section_operators.cache_clear()
        codes.append(main(argv))
        loaded[argv[0]] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "loaded": loaded,
                  "identify_sections": dsp._section_operators.cache_info().currsize}))
"""


def test_no_command_loads_scipy(world, tmp_path):
    _, _, feat, _ = world
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_SCRIPT, str(feat), str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0] * 7
    assert result["loaded"] == dict.fromkeys(
        ["import", "synth", "preprocess", "extract", "train", "evaluate", "grid",
         "identify"], [])
    # positive control: identify filtered (a notch and two bandpass biquads)
    assert result["identify_sections"] == 3
