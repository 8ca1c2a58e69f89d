"""Split protocol, end-to-end fit/evaluate/identify, and model persistence."""

import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from eegid import dsp, pipeline, signal_io
from eegid.dsp import Window
from eegid.errors import (
    ChannelMismatch,
    CorruptModel,
    DimensionMismatch,
    EmptyDataset,
    InconsistentSamplingRate,
    InvalidArgument,
    MissingFile,
    NonConvergence,
    NonFiniteInput,
    RecordingTooShort,
    SubjectTooSmall,
    TooShortForCalibration,
    UnknownLabel,
    VersionMismatch,
)
from eegid.features import extract_feature_matrix
from eegid.pipeline import (
    PreprocessFlags,
    SplitSpec,
    evaluate,
    evaluate_features,
    fit_pipeline,
    identify,
    load_model,
    prepare_windows,
    save_model,
    split_dataset,
)
from eegid.svm import KernelSpec, predict_batch


def make_windows(subject_id, n, fs=250.0, w=200, seed=0):
    rng = np.random.default_rng(seed + subject_id)
    return [
        Window(data=rng.normal(size=(2, w)), subject_id=subject_id,
               start_index=i * 100, fs=fs)
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def small_world():
    """3 subjects x 24 s, preprocessed, split, and fitted once."""
    ds = signal_io.generate_synthetic_dataset(n_subjects=3, duration_s=24.0,
                                              fs=250.0, master_seed=404)
    flags = PreprocessFlags()
    windows = prepare_windows(ds, flags)
    train, test = split_dataset(windows, SplitSpec())
    model = fit_pipeline(train, KernelSpec("rbf", c=100.0, gamma=0.01),
                         flags=flags)
    return ds, windows, train, test, model


# ---------------------------------------------------------------------------
# SplitSpec / split_dataset
# ---------------------------------------------------------------------------

def test_split_spec_validation():
    with pytest.raises(InvalidArgument):
        SplitSpec(train_fraction=0.0)
    with pytest.raises(InvalidArgument):
        SplitSpec(train_fraction=1.0)
    with pytest.raises(InvalidArgument):
        SplitSpec(mode="alphabetical", seed=None)
    with pytest.raises(InvalidArgument):
        SplitSpec(mode="random")  # random requires a seed
    with pytest.raises(InvalidArgument):
        SplitSpec(mode="chronological", seed=3)  # and chronological forbids one
    assert "chronological" in SplitSpec().describe()
    assert "seed=9" in SplitSpec(mode="random", seed=9).describe()


def test_chronological_split_counts_and_order():
    windows = make_windows(0, 10) + make_windows(1, 10)
    train, test = split_dataset(windows, SplitSpec(train_fraction=0.8))
    assert len(train) == 16 and len(test) == 4
    for sid in (0, 1):
        tr = [w.start_index for w in train if w.subject_id == sid]
        te = [w.start_index for w in test if w.subject_id == sid]
        assert len(tr) == 8 and len(te) == 2
        assert max(tr) < min(te)


def test_split_ceil_rounding():
    # 7 windows at 0.8 -> ceil(5.6) = 6 train, 1 test
    windows = make_windows(0, 7) + make_windows(1, 7)
    train, test = split_dataset(windows, SplitSpec(train_fraction=0.8))
    assert sum(w.subject_id == 0 for w in train) == 6
    assert sum(w.subject_id == 0 for w in test) == 1


def test_split_too_few_windows():
    windows = make_windows(0, 10) + make_windows(5, 4)
    with pytest.raises(SubjectTooSmall) as info:
        split_dataset(windows, SplitSpec())
    assert info.value.subject_id == 5
    assert info.value.count == 4
    assert info.value.minimum == 5


def test_random_split_deterministic_and_covering():
    windows = make_windows(0, 10) + make_windows(1, 10)
    spec = SplitSpec(mode="random", seed=7)
    tr1, te1 = split_dataset(windows, spec)
    tr2, te2 = split_dataset(windows, spec)
    assert [id(w) for w in tr1] == [id(w) for w in tr2]
    assert [id(w) for w in te1] == [id(w) for w in te2]
    # same per-subject counts as chronological, disjoint, covering
    assert len(tr1) == 16 and len(te1) == 4
    assert {id(w) for w in tr1} | {id(w) for w in te1} == {id(w) for w in windows}
    assert {id(w) for w in tr1} & {id(w) for w in te1} == set()
    # a different seed shuffles differently
    tr_other = split_dataset(windows, SplitSpec(mode="random", seed=8))[0]
    assert [id(w) for w in tr_other] != [id(w) for w in tr1]


def test_random_split_differs_from_chronological():
    windows = make_windows(0, 40)
    _, te = split_dataset(windows, SplitSpec(mode="random", seed=3))
    starts = sorted(w.start_index for w in te)
    chron = sorted(w.start_index for w in windows)[32:]
    assert starts != chron


# ---------------------------------------------------------------------------
# fit / evaluate
# ---------------------------------------------------------------------------

def test_fit_requires_two_subjects():
    windows = make_windows(0, 12)
    with pytest.raises(InvalidArgument, match=r"\[split\]"):
        fit_pipeline(windows, KernelSpec("linear", c=1.0))


def test_fit_stage_tag_on_nonconvergence():
    rng = np.random.default_rng(5)
    windows = [
        Window(data=rng.normal(size=(1, 64)), subject_id=i % 2, start_index=i,
               fs=250.0)
        for i in range(30)
    ]
    with pytest.raises(NonConvergence, match=r"\[svm\] pair \(0,1\)"):
        fit_pipeline(windows, KernelSpec("rbf", c=100.0, gamma=0.1),
                     tol=1e-12, max_passes=1, flags=PreprocessFlags(win_s=0.256))


def test_fit_records_sampling_rate_of_windows():
    windows = make_windows(0, 8, fs=500.0) + make_windows(1, 8, fs=500.0)
    model = fit_pipeline(windows, KernelSpec("rbf", c=1.0, gamma=0.1),
                         flags=PreprocessFlags(win_s=0.4))
    assert model.flags.fs == 500.0


def test_fit_rejects_windows_of_other_width():
    # 64-sample windows under the default 0.8 s flags: a model that refused
    # its own training windows at evaluate
    windows = make_windows(0, 8, w=64) + make_windows(1, 8, w=64)
    with pytest.raises(InvalidArgument,
                       match=r"^\[window\] windows are 64 samples wide, model "
                             r"trained on 200 \(0.8 s at 250 Hz\)"):
        fit_pipeline(windows, KernelSpec("linear", c=1.0))
    model = fit_pipeline(windows, KernelSpec("linear", c=1.0),
                         flags=PreprocessFlags(win_s=0.256))
    assert evaluate(model, windows).n_test == 16


def test_pipeline_dimension_chain(small_world):
    _, _, _, _, model = small_world
    assert model.standardizer.n_features == 80
    assert model.pca.n_features == 80
    assert model.svm.n_features == model.pca.n_components
    assert model.n_channels == 8


def test_evaluate_report_accounting(small_world):
    _, _, train, test, model = small_world
    rep = evaluate(model, test, split_description="chronological 0.8/0.2")
    k = len(rep.classes)
    assert rep.confusion.shape == (k, k)
    # row sums are the per-class test counts
    for i, c in enumerate(rep.classes):
        assert rep.confusion[i].sum() == sum(w.subject_id == c for w in test)
    assert rep.confusion.sum() == len(test)
    assert rep.accuracy == pytest.approx(np.trace(rep.confusion) / len(test))
    assert rep.n_test == len(test)
    assert rep.split_description == "chronological 0.8/0.2"
    assert rep.kernel.kind == "rbf"
    assert np.all(rep.precision >= 0) and np.all(rep.precision <= 1)
    assert np.all(rep.recall >= 0) and np.all(rep.recall <= 1)


def test_evaluate_separates_synthetic_subjects(small_world):
    _, _, _, test, model = small_world
    rep = evaluate(model, test)
    assert rep.accuracy >= 0.9


def test_perfect_prediction_metrics(small_world):
    # Evaluating on (a slice of) the training set of a near-separable
    # problem gives a diagonal confusion matrix and unit metrics.
    _, _, train, _, model = small_world
    rep = evaluate(model, train)
    if rep.accuracy == 1.0:
        assert np.all(rep.precision == 1.0) and np.all(rep.recall == 1.0)
        assert np.count_nonzero(rep.confusion - np.diag(np.diag(rep.confusion))) == 0


def test_evaluate_rejects_unknown_label(small_world):
    _, _, _, test, model = small_world
    rogue = dataclasses.replace(test[0], subject_id=99)
    with pytest.raises(UnknownLabel, match="99"):
        evaluate(model, test + [rogue])


def test_evaluate_rejects_windows_of_other_width(small_world):
    _, _, _, test, model = small_world
    narrow = [dataclasses.replace(w, data=w.data[:, :100]) for w in test]
    with pytest.raises(InvalidArgument,
                       match=r"^\[window\] windows are 100 samples wide, model "
                             r"trained on 200 \(0.8 s at 250 Hz\)"):
        evaluate(model, narrow)


def test_evaluate_rejects_empty(small_world):
    model = small_world[4]
    with pytest.raises(EmptyDataset):
        evaluate(model, [])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_evaluate_features_rejects_non_finite_rows(small_world, bad):
    _, _, _, test, model = small_world
    X, y, _ = extract_feature_matrix(test[:5])
    X[3, 7] = bad
    with pytest.raises(NonFiniteInput, match=r"^\[features\] test row 3 "):
        evaluate_features(model, X, y)


def test_refit_is_deterministic_and_ignores_test_set(tmp_path, small_world):
    _, windows, train, test, _ = small_world
    flags = PreprocessFlags()
    spec = KernelSpec("rbf", c=100.0, gamma=0.01)
    a = fit_pipeline(train, spec, flags=flags)
    b = fit_pipeline(train, spec, flags=flags)  # test windows never seen
    save_model(a, tmp_path / "a.txt")
    save_model(b, tmp_path / "b.txt")
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


# ---------------------------------------------------------------------------
# identify
# ---------------------------------------------------------------------------

def test_identify_recovers_each_subject(small_world):
    ds, _, _, _, model = small_world
    for sid, rec in ds.entries:
        res = identify(model, rec)
        assert res.label == sid
        assert res.majority_fraction >= 0.8
        assert res.shares[sid] == res.majority_fraction
        assert sum(res.shares.values()) == pytest.approx(1.0)


def test_identify_fresh_recording_from_known_profile(small_world):
    # New noise realization of subject 1's generating profile: the
    # majority of windows must still vote for subject 1.
    ds, _, _, _, model = small_world
    profile = signal_io._subject_profile(1, fs=ds.fs,
                                         seed=signal_io_seed_for(ds, 1))
    fresh = dataclasses.replace(profile, seed=987654)
    rec = signal_io.generate_synthetic_subject(fresh, duration_s=12.0, fs=ds.fs)
    res = identify(model, rec)
    assert res.label == 1
    assert res.majority_fraction >= 0.8


def signal_io_seed_for(ds, index):
    # regenerate the per-subject profile seed stream used by the dataset
    seq = np.random.SeedSequence(404)
    return int(seq.generate_state(len(ds.subject_ids), dtype=np.uint64)[index])


def test_identify_channel_mismatch(small_world):
    model = small_world[4]
    bad = signal_io.Recording(channels=("A", "B"), fs=250.0,
                              data=np.random.default_rng(0).normal(size=(2, 2000)))
    with pytest.raises(ChannelMismatch,
                       match=r"^\[preprocess\] recording has 2 channels, model expects 8"):
        identify(model, bad)


def test_evaluate_rejects_windows_of_other_channel_count(small_world):
    _, _, _, test, model = small_world
    two = [dataclasses.replace(w, data=w.data[:2]) for w in test]
    with pytest.raises(DimensionMismatch,
                       match=r"^\[features\] got 20 features, standardizer expects 80"):
        evaluate(model, two)


@pytest.fixture(scope="module")
def no_asr_model():
    ds = signal_io.generate_synthetic_dataset(n_subjects=2, duration_s=16.0,
                                              fs=250.0, master_seed=11)
    flags = PreprocessFlags(asr=False)
    windows = prepare_windows(ds, flags)
    train, _ = split_dataset(windows, SplitSpec())
    return fit_pipeline(train, KernelSpec("linear", c=1.0), flags=flags)


def test_identify_rejects_other_sampling_rate(small_world):
    # 12 s relabelled as 220 Hz would otherwise vote over 33 windows, not 29
    ds, _, _, _, model = small_world
    rec = ds.entries[1][1]
    relabelled = signal_io.Recording(channels=rec.channels, fs=220.0,
                                     data=rec.data[:, :3000])
    assert model.flags.fs == 250.0
    with pytest.raises(InconsistentSamplingRate,
                       match=r"^\[preprocess\] recording sampled at 220 Hz, "
                             r"model trained at 250 Hz"):
        identify(model, relabelled)


def test_evaluate_rejects_other_sampling_rate(small_world):
    _, _, _, test, model = small_world
    relabelled = [dataclasses.replace(w, fs=500.0) for w in test]
    with pytest.raises(InconsistentSamplingRate,
                       match=r"^\[preprocess\] windows sampled at 500 Hz, "
                             r"model trained at 250 Hz"):
        evaluate(model, relabelled)
    assert evaluate(model, test).n_test == len(test)


def test_identify_too_short(no_asr_model):
    rec = signal_io.Recording(
        channels=signal_io.EEG_CHANNELS, fs=250.0,
        data=np.random.default_rng(1).normal(size=(8, 150)))
    with pytest.raises(RecordingTooShort,
                       match=r"^\[window\] need >= 0.8 s at 250 Hz "
                             r"\(200 samples, one window\), got 150$"):
        identify(no_asr_model, rec)


def test_identify_short_recording_names_asr_minimum(small_world):
    rec = signal_io.Recording(
        channels=signal_io.EEG_CHANNELS, fs=250.0,
        data=np.random.default_rng(3).normal(size=(8, 1000)))  # 4 s
    with pytest.raises(TooShortForCalibration, match=r"^\[asr\] .*need >= 5 s at 250 Hz"):
        identify(small_world[4], rec)


def test_preprocess_filters_in_one_pass_as_notch_then_bandpass():
    rec = signal_io.generate_synthetic_dataset(n_subjects=2, duration_s=10.0,
                                               fs=250.0, master_seed=7).entries[0][1]
    notch = dsp.design_notch(60.0, dsp.DEFAULT_NOTCH_Q, 250.0)
    band = dsp.design_butterworth_bandpass(4, 0.1, 100.0, 250.0)
    one_pass = pipeline.preprocess_recording(rec, PreprocessFlags(asr=False)).data
    two_pass = dsp.apply_filter(band, dsp.apply_filter(notch, rec)).data
    assert np.array_equal(one_pass.view(np.uint64), two_pass.view(np.uint64))


def test_filter_cascade_is_designed_once_per_flags_and_rate(monkeypatch, no_asr_model):
    designs = []

    def counting_design(*args):
        designs.append(args)
        return design(*args)

    design = dsp.design_butterworth_bandpass
    monkeypatch.setattr(dsp, "design_butterworth_bandpass", counting_design)
    pipeline._filter_cascade.cache_clear()
    rec = signal_io.Recording(
        channels=signal_io.EEG_CHANNELS, fs=250.0,
        data=np.random.default_rng(4).normal(size=(8, 600)))
    first = identify(no_asr_model, rec)
    second = identify(no_asr_model, rec)
    assert len(designs) == 1
    assert np.array_equal(first.window_labels, second.window_labels)

    flags = no_asr_model.flags
    pipeline.preprocess_recording(rec, dataclasses.replace(flags, bp_hi=90.0))
    assert len(designs) == 2
    fast = signal_io.Recording(channels=rec.channels, fs=500.0, data=rec.data)
    pipeline.preprocess_recording(fast, flags)
    assert len(designs) == 3
    identify(no_asr_model, rec)
    assert len(designs) == 3

    sos = pipeline._filter_cascade(flags, 250.0)
    with pytest.raises(ValueError):
        sos[0, 0] = 0.0
    with pytest.raises(ValueError):
        sos.flags.writeable = True
    assert np.array_equal(sos, np.vstack([
        dsp.design_notch(flags.notch_f0, flags.notch_q, 250.0),
        design(flags.bp_order, flags.bp_lo, flags.bp_hi, 250.0)]))


def test_filter_operators_are_built_once_per_section(no_asr_model):
    dsp._section_operators.cache_clear()
    rec = signal_io.Recording(
        channels=signal_io.EEG_CHANNELS, fs=250.0,
        data=np.random.default_rng(5).normal(size=(8, 600)))
    identify(no_asr_model, rec)
    identify(no_asr_model, rec)
    sections = pipeline._filter_cascade(no_asr_model.flags, 250.0).shape[0]
    info = dsp._section_operators.cache_info()
    assert (info.misses, info.hits) == (sections, sections)
    response = dsp._section_operators(tuple(pipeline._filter_cascade(
        no_asr_model.flags, 250.0)[0].tolist()))[0]
    with pytest.raises(ValueError):
        response[0, 0] = 0.0


def test_identify_single_window_majority_is_unit(no_asr_model):
    rec = signal_io.Recording(
        channels=signal_io.EEG_CHANNELS, fs=250.0,
        data=np.random.default_rng(2).normal(size=(8, 200)))
    res = identify(no_asr_model, rec)
    assert res.majority_fraction == 1.0
    assert res.window_labels.shape == (1,)
    assert res.label in no_asr_model.svm.classes


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_save_load_round_trip_exact(tmp_path, small_world):
    _, _, _, _, model = small_world
    path = tmp_path / "model.txt"
    save_model(model, path)
    loaded = load_model(path)
    rng = np.random.default_rng(123)
    X = rng.normal(size=(100, model.standardizer.n_features))
    a = predict_batch(model.svm, model.transform(X))
    b = predict_batch(loaded.svm, loaded.transform(X))
    assert np.array_equal(a, b)
    # parameters themselves round-trip bit-exactly
    assert np.array_equal(model.standardizer.mean, loaded.standardizer.mean)
    assert np.array_equal(model.pca.components, loaded.pca.components)
    assert model.svm.kernel == loaded.svm.kernel
    assert model.flags == loaded.flags
    # saving the loaded model reproduces the file byte for byte
    save_model(loaded, tmp_path / "again.txt")
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


def test_load_model_without_window_lines_takes_defaults(tmp_path, small_world):
    """Model files written before the window geometry was stored still load."""
    model = small_world[4]
    flags = dataclasses.replace(model.flags, win_s=2.0, hop_s=1.0)
    path = tmp_path / "model.txt"
    save_model(dataclasses.replace(model, flags=flags), path)
    head, _, payload = path.read_text().split("\n", 2)
    lines = payload.splitlines(keepends=True)
    payload = "".join(ln for ln in lines if not ln.startswith(("win_s ", "hop_s ")))
    assert len(payload.splitlines()) == len(lines) - 2
    checksum = hashlib.sha256(payload.encode()).hexdigest()
    path.write_text(f"{head}\nchecksum {checksum}\n{payload}")
    loaded = load_model(path)
    assert loaded.flags == model.flags == PreprocessFlags()
    assert np.array_equal(loaded.pca.components, model.pca.components)


def _rewrite_payload(path, edit):
    """Replace the payload lines by edit(lines); re-sign the file."""
    head, _, payload = path.read_text().split("\n", 2)
    payload = "".join(edit(payload.splitlines(keepends=True)))
    checksum = hashlib.sha256(payload.encode()).hexdigest()
    path.write_text(f"{head}\nchecksum {checksum}\n{payload}")


def test_model_written_by_v2_writer_round_trips_byte_for_byte(tmp_path):
    """tests/data/tiny_model_v2.txt was written by save_model at commit
    10f5b31 from a tiny fit (3 subjects, 2 channels, 3 PCA components, a
    poly kernel, no ASR, 500 Hz). Loading and saving it again must give
    the same bytes: the round trip above only compares the writer of the
    day with itself."""
    pinned = Path(__file__).parent / "data" / "tiny_model_v2.txt"
    model = load_model(pinned)
    assert (model.n_channels, model.pca.n_components, model.svm.classes) == (2, 3, (0, 1, 2))
    assert model.svm.kernel == KernelSpec("poly", c=10.0, gamma=0.1, degree=2, coef0=1.0)
    assert model.flags == PreprocessFlags(asr=False, fs=500.0, win_s=1.0, hop_s=0.5)
    save_model(model, tmp_path / "again.txt")
    assert (tmp_path / "again.txt").read_bytes() == pinned.read_bytes()


@pytest.mark.parametrize("line, message", [
    ("feature_version 2", "feature contract '2' != '1'"),
    ("feature_names rms,std,skew", "feature name list differs from this build")])
def test_load_model_refuses_other_feature_contract(tmp_path, small_world, line, message):
    path = tmp_path / "model.txt"
    save_model(small_world[4], path)
    key = line.split()[0] + " "
    _rewrite_payload(path, lambda lines: [
        line + "\n" if ln.startswith(key) else ln for ln in lines])
    with pytest.raises(VersionMismatch, match=f"^{message}$"):
        load_model(path)


def _append_to_block(lines, block, line):
    """Add `line` as the last line of `block` in a model's payload lines."""
    start = lines.index(block + "\n")
    end = next(i for i in range(start + 1, len(lines)) if lines[i].startswith("["))
    return lines[:end] + [line + "\n"] + lines[end:]


@pytest.mark.parametrize("block, line", [
    ("[meta]", "fs 500.0"), ("[meta]", "n_channels 8"), ("[meta]", "asr 0"),
    ("[svm]", "gamma 0.5"), ("[svm]", "c 1.0"), ("[svm]", "classes 0 1 2")])
def test_load_model_refuses_a_key_twice_in_one_block(tmp_path, small_world, block, line):
    """A second line must not override the first."""
    path = tmp_path / "model.txt"
    save_model(small_world[4], path)
    _rewrite_payload(path, lambda lines: _append_to_block(lines, block, line))
    key = line.split()[0]
    with pytest.raises(CorruptModel, match=f"has more than one '{key}' line"):
        load_model(path)


def test_load_model_without_fs_line_is_250_hz(tmp_path, small_world):
    model = small_world[4]
    path = tmp_path / "model.txt"
    save_model(dataclasses.replace(
        model, flags=dataclasses.replace(model.flags, fs=500.0)), path)
    assert load_model(path).flags.fs == 500.0
    _rewrite_payload(path, lambda lines: [ln for ln in lines
                                          if not ln.startswith("fs ")])
    assert load_model(path).flags.fs == 250.0


@pytest.mark.parametrize("key", ["kind", "c", "gamma", "classes"])
def test_load_model_missing_svm_line_is_corrupt(tmp_path, small_world, key):
    path = tmp_path / "model.txt"
    save_model(small_world[4], path)
    _rewrite_payload(path, lambda lines: [ln for ln in lines
                                          if not ln.startswith(key + " ")])
    with pytest.raises(CorruptModel):
        load_model(path)


@pytest.mark.parametrize("key", ["feature_version", "feature_names", "n_channels"])
def test_load_model_missing_meta_line_is_corrupt(tmp_path, small_world, key):
    path = tmp_path / "model.txt"
    save_model(small_world[4], path)
    _rewrite_payload(path, lambda lines: [ln for ln in lines
                                          if not ln.startswith(key + " ")])
    with pytest.raises(CorruptModel, match=f"has no '{key}' line"):
        load_model(path)


def _edit_machines(lines, change):
    """Apply one change to the [machines] block of a model's payload lines."""
    bias = next(i for i, ln in enumerate(lines) if ln.startswith("bias "))
    dual = next(i for i, ln in enumerate(lines) if ln.startswith("dual_coef "))
    n_pairs, s = (int(tok) for tok in lines[dual].split()[1:])
    if change == "coefficient row missing":
        del lines[dual + 1]
    elif change == "coefficient row and its header count missing":
        lines[dual] = f"dual_coef {n_pairs - 1} {s}\n"
        del lines[dual + 1]
    elif change == "one bias too few":
        lines[bias] = lines[bias].rsplit(" ", 1)[0] + "\n"
    elif change == "comment in a coefficient row":
        lines[dual + 1] = lines[dual + 1].rstrip("\n") + " # x\n"
    else:  # a coefficient above C = 100
        lines[dual + 1] = "200.0 " + lines[dual + 1].split(" ", 1)[1]
    return lines


@pytest.mark.parametrize("change", [
    "coefficient row missing", "coefficient row and its header count missing",
    "one bias too few", "comment in a coefficient row", "coefficient above C"])
def test_load_model_rejects_bad_machines_block(tmp_path, small_world, change):
    path = tmp_path / "model.txt"
    save_model(small_world[4], path)
    assert small_world[4].svm.kernel.c == 100.0
    _rewrite_payload(path, lambda lines: _edit_machines(lines, change))
    with pytest.raises(CorruptModel):
        load_model(path)


def _poison(lines, block, value):
    """Replace the first number of a model line, or of a matrix block's
    first row, by `value`."""
    i = next(i for i, ln in enumerate(lines) if ln.startswith(block + " "))
    is_matrix = block in ("components", "vectors", "dual_coef")
    i += is_matrix
    tokens = lines[i].split()
    tokens[not is_matrix] = value
    lines[i] = " ".join(tokens) + "\n"
    return lines


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("block", [
    "mean", "std", "explained_variance", "explained_variance_ratio",
    "components", "bias", "vectors", "dual_coef"])
def test_load_model_refuses_non_finite_numbers(tmp_path, small_world, block, value):
    path = tmp_path / "model.txt"
    save_model(small_world[4], path)
    _rewrite_payload(path, lambda lines: _poison(lines, block, value))
    with pytest.raises(CorruptModel, match=f"^{block} contains NaN/Inf"):
        load_model(path)


@pytest.mark.parametrize("key, value", [
    ("fs", "nan"), ("notch_f0", "inf"), ("notch_q", "inf"), ("bp_lo", "nan"),
    ("bp_hi", "inf"), ("asr_k", "nan"), ("asr_win_s", "inf"), ("win_s", "nan"),
    ("hop_s", "nan"), ("coef0", "nan")])
def test_load_model_refuses_non_finite_settings(tmp_path, small_world, key, value):
    path = tmp_path / "model.txt"
    save_model(small_world[4], path)
    _rewrite_payload(path, lambda lines: [
        f"{key} {value}\n" if ln.startswith(key + " ") else ln for ln in lines])
    with pytest.raises(CorruptModel, match=f"{key} must be finite, got {value}"):
        load_model(path)


def test_settings_must_be_finite():
    with pytest.raises(InvalidArgument, match="PreprocessFlags notch_q must be finite"):
        PreprocessFlags(notch_q=float("inf"))
    with pytest.raises(InvalidArgument, match="coef0 must be finite"):
        KernelSpec("poly", 1.0, gamma=0.1, degree=2, coef0=float("nan"))


def test_load_model_refuses_n_channels_that_disagree_with_features(tmp_path, small_world):
    model = small_world[4]
    assert (model.n_channels, model.standardizer.n_features) == (8, 80)
    path = tmp_path / "model.txt"
    save_model(model, path)
    _rewrite_payload(path, lambda lines: [
        "n_channels 5\n" if ln == "n_channels 8\n" else ln for ln in lines])
    with pytest.raises(CorruptModel, match="n_channels 5 .* 80 features"):
        load_model(path)


def test_model_file_writes_shortest_exact_decimals(tmp_path, small_world):
    model = small_world[4]
    mean = np.zeros(model.standardizer.n_features)
    mean[:7] = [-0.0, 5e-324, 1e-300, 0.1, 3.0, 1e16, -2.5e-05]
    standardizer = dataclasses.replace(model.standardizer, mean=mean)
    path = tmp_path / "model.txt"
    save_model(dataclasses.replace(model, standardizer=standardizer), path)
    line = next(ln for ln in path.read_text().splitlines() if ln.startswith("mean "))
    assert line == ("mean -0.0 5e-324 1e-300 0.1 3.0 1e+16 -2.5e-05"
                    + " 0.0" * (mean.size - 7))


@pytest.mark.parametrize("spec, lines", [
    (KernelSpec("rbf", c=100.0, gamma=0.01),
     ["kind rbf", "c 100.0", "gamma 0.01", "degree -", "coef0 0.0"]),
    (KernelSpec("poly", c=1.0, gamma=0.1, degree=2, coef0=1.5),
     ["kind poly", "c 1.0", "gamma 0.1", "degree 2", "coef0 1.5"]),
    (KernelSpec("linear", c=1),
     ["kind linear", "c 1", "gamma -", "degree -", "coef0 0.0"]),
])
def test_svm_section_lines_round_trip(tmp_path, spec, lines):
    windows = make_windows(0, 8) + make_windows(1, 8)
    model = fit_pipeline(windows, spec)
    path = tmp_path / "model.txt"
    save_model(model, path)
    text = path.read_text().splitlines()
    start = text.index("[svm]") + 1
    assert text[start:start + 5] == lines
    assert text[start + 5] == "classes 0 1"
    assert load_model(path).svm.kernel == model.svm.kernel


def test_load_missing_file(tmp_path):
    with pytest.raises(MissingFile):
        load_model(tmp_path / "absent.txt")


def test_load_version_mismatch(tmp_path, small_world):
    """v1 (one [pair a b] section per machine) included: it must be retrained."""
    model = small_world[4]
    path = tmp_path / "model.txt"
    save_model(model, path)
    lines = path.read_text().splitlines()
    assert lines[0] == pipeline.MODEL_FORMAT == "eegid-model v2"
    for head in ("eegid-model v99", "eegid-model v1"):
        lines[0] = head
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(VersionMismatch, match=head):
            load_model(path)


def test_load_detects_corruption(tmp_path, small_world):
    model = small_world[4]
    path = tmp_path / "model.txt"
    save_model(model, path)
    text = path.read_text()
    # flip one digit inside the payload
    idx = text.index("[pca]")
    broken = text[:idx] + text[idx:].replace("0", "1", 1)
    path.write_text(broken)
    with pytest.raises(CorruptModel, match="checksum"):
        load_model(path)


def test_load_detects_truncation(tmp_path, small_world):
    model = small_world[4]
    path = tmp_path / "model.txt"
    save_model(model, path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[: len(lines) // 2]))
    with pytest.raises(CorruptModel):
        load_model(path)


def test_load_missing_checksum_line(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text(f"{pipeline.MODEL_FORMAT}\n[meta]\n")
    with pytest.raises(CorruptModel, match="checksum"):
        load_model(path)


def test_load_checksum_line_without_digest(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text(f"{pipeline.MODEL_FORMAT}\nchecksum \n[meta]\n")
    with pytest.raises(CorruptModel, match="checksum mismatch"):
        load_model(path)
