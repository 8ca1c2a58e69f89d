"""Recording CSV round trips, dataset layout, and synthetic generation."""

import warnings

import numpy as np
import pytest

from eegid import signal_io
from eegid.errors import (
    EmptyDataset,
    InconsistentChannels,
    InvalidArgument,
    InvalidProfile,
    InvalidRecording,
    MalformedHeader,
    MissingFile,
    NonNumericSample,
    RaggedRows,
)
from eegid.features import save_feature_table
from eegid.signal_io import (
    LabeledDataset,
    Recording,
    SynthProfile,
    generate_synthetic_dataset,
    generate_synthetic_subject,
    load_dataset,
    load_recording_csv,
    read_meta,
    save_dataset,
    save_recording_csv,
)


def test_csv_rows_transpose_to_channel_rows(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("ch:A,ch:B\n1,2\n3,4\n5,6\n")
    rec = load_recording_csv(p)
    assert rec.channels == ("A", "B")
    assert np.array_equal(rec.data, [[1, 3, 5], [2, 4, 6]])


def test_nan_cell_rejected(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("ch:A,ch:B\n1,NaN\n")
    with pytest.raises(NonNumericSample) as ei:
        load_recording_csv(p)
    assert ei.value.row == 0 and ei.value.col == 1


def test_text_cell_rejected_with_position(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("ch:A,ch:B\n1,2\n3,oops\n")
    with pytest.raises(NonNumericSample) as ei:
        load_recording_csv(p)
    assert (ei.value.row, ei.value.col) == (1, 1)


def test_ragged_rows_rejected(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("ch:A,ch:B\n1,2\n3\n")
    with pytest.raises(RaggedRows):
        load_recording_csv(p)


def test_blank_middle_line_rejected(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("ch:A,ch:B\n1,2\n\n3,4\n")
    with pytest.raises(RaggedRows, match="row 1 has 1 cells"):
        load_recording_csv(p)
    p.write_text("ch:A\n1\n\n3\n")
    with pytest.raises(NonNumericSample) as ei:
        load_recording_csv(p)
    assert (ei.value.row, ei.value.col) == (1, 0)


@pytest.mark.parametrize("token", ["inf", "1e400", "-Infinity"])
def test_infinite_cell_rejected_with_position(tmp_path, token):
    p = tmp_path / "r.csv"
    p.write_text(f"ch:A,ch:B\n1,2\n3,4\n5,{token}\n")
    with pytest.raises(NonNumericSample) as ei:
        load_recording_csv(p)
    assert (ei.value.row, ei.value.col) == (2, 1)


def test_bad_cell_after_the_first_rows_keeps_file_position(tmp_path):
    rows = [f"{i},{0.5 * i}" for i in range(3000)]
    p = tmp_path / "r.csv"
    p.write_text("ch:A,ch:B\n" + "\n".join(rows) + "\n")
    assert load_recording_csv(p).data[1, 2999] == 1499.5
    rows[2100] = "2100,x"
    p.write_text("ch:A,ch:B\n" + "\n".join(rows) + "\n")
    with pytest.raises(NonNumericSample) as ei:
        load_recording_csv(p)
    assert (ei.value.row, ei.value.col) == (2100, 1)


def test_rows_that_compensate_in_cell_count_still_ragged(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("ch:A,ch:B\n1,2,3\n4\n")  # 4 cells, 2 rows, 2 channels
    with pytest.raises(RaggedRows, match="row 0 has 3 cells"):
        load_recording_csv(p)


# body text, then the error and its message ({path} is the file), or the
# channel rows it loads as
_BODY_RULES = {
    "blank lines only": ("\n\n\n", RaggedRows, "{path}: row 0 has 1 cells, expected 2"),
    "whitespace-only line": ("1,2\n  \n3,4\n", RaggedRows,
                             "{path}: row 1 has 1 cells, expected 2"),
    "comment sign first": ("#1,2\n", NonNumericSample,
                           "{path}: non-numeric sample at row 0, col 0: '#1'"),
    "comment sign inside": ("1,2#3\n", NonNumericSample,
                            "{path}: non-numeric sample at row 0, col 1: '2#3'"),
    "quoted cell": ('"1",2\n', NonNumericSample,
                    "{path}: non-numeric sample at row 0, col 0: '\"1\"'"),
    "trailing comma": ("1,2,\n", RaggedRows, "{path}: row 0 has 3 cells, expected 2"),
    "digit separator": ("1_0,2\n", NonNumericSample,
                        "{path}: non-numeric sample at row 0, col 0: '1_0'"),
    "non-ASCII digit": ("\u0661,2\n", NonNumericSample,
                        "{path}: non-numeric sample at row 0, col 0: '\u0661'"),
    "blank line after the last row": ("1,2\n3,4\n\n", RaggedRows,
                                      "{path}: row 2 has 1 cells, expected 2"),
    "CRLF line ends": ("1,2\r\n3,4\r\n", None, [[1.0, 3.0], [2.0, 4.0]]),
    "no final newline": ("1,2\n3,4", None, [[1.0, 3.0], [2.0, 4.0]]),
}


@pytest.mark.parametrize("case", list(_BODY_RULES))
def test_body_rules_hold_without_warnings(tmp_path, case):
    body, error, expected = _BODY_RULES[case]
    p = tmp_path / "r.csv"
    p.write_text("ch:A,ch:B\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if error is None:
            assert load_recording_csv(p).data.tolist() == expected
            return
        with pytest.raises(error) as ei:
            load_recording_csv(p)
    assert str(ei.value) == expected.format(path=p)


def test_missing_file_and_bad_header(tmp_path):
    with pytest.raises(MissingFile):
        load_recording_csv(tmp_path / "absent.csv")
    p = tmp_path / "bad.csv"
    p.write_text("A,B\n1,2\n")
    with pytest.raises(MalformedHeader):
        load_recording_csv(p)


def test_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(7)
    rec = Recording(
        channels=("FP1", "FP2", "Cz"),
        fs=250.0,
        data=rng.standard_normal((3, 400)) * 37.5,
    )
    p = tmp_path / "rt.csv"
    save_recording_csv(rec, p)
    back = load_recording_csv(p, fs=rec.fs)
    assert back.channels == rec.channels
    assert back.fs == rec.fs
    # repr round-trip gives bit-exact floats, far inside the 1e-12 bound
    assert np.array_equal(back.data, rec.data)


def test_single_sample_recording_round_trips(tmp_path):
    rec = Recording(channels=("A",), fs=100.0, data=[[3.25]])
    p = tmp_path / "one.csv"
    save_recording_csv(rec, p)
    assert p.read_text() == "ch:A\n3.25\n"
    assert np.array_equal(load_recording_csv(p, fs=100.0).data, [[3.25]])


def test_recording_csv_writes_shortest_exact_decimals(tmp_path):
    values = [-0.0, 5e-324, 1e-300, 0.1, 3.0, 1e16, -2.5e-05]
    rec = Recording(channels=tuple("ABCDEFG"), fs=250.0, data=np.array([values]).T)
    p = tmp_path / "golden.csv"
    save_recording_csv(rec, p)
    assert p.read_text().splitlines()[1] == "-0.0,5e-324,1e-300,0.1,3.0,1e+16,-2.5e-05"


def test_degenerate_recordings_rejected():
    with pytest.raises(InvalidRecording):
        Recording(channels=(), fs=250.0, data=np.empty((0, 5)))
    with pytest.raises(InvalidRecording):
        Recording(channels=("A",), fs=250.0, data=np.empty((1, 0)))
    with pytest.raises(InvalidRecording):
        Recording(channels=("A", "B"), fs=250.0, data=np.zeros((1, 5)))
    with pytest.raises(InvalidRecording):
        Recording(channels=("A",), fs=-1.0, data=np.zeros((1, 5)))
    with pytest.raises(InvalidRecording):
        Recording(channels=("A",), fs=250.0, data=[[1.0, np.nan]])


def test_dataset_round_trip_two_subjects(tmp_path):
    rng = np.random.default_rng(0)
    entries = [
        (0, Recording(("A", "B"), 250.0, rng.standard_normal((2, 50)))),
        (1, Recording(("A", "B"), 250.0, rng.standard_normal((2, 50)))),
    ]
    root = tmp_path / "ds"
    save_dataset(LabeledDataset(entries), root, generator="numpy-pcg64", seed=0)
    back = load_dataset(root)
    assert len(back.entries) == 2
    assert back.subject_ids == [0, 1]
    for (sid_a, rec_a), (sid_b, rec_b) in zip(entries, back.entries):
        assert sid_a == sid_b
        assert np.array_equal(rec_a.data, rec_b.data)
    meta = read_meta(root)
    assert meta["generator"] == "numpy-pcg64"
    assert float(meta["fs"]) == 250.0


def test_meta_txt_and_feature_table_are_written_byte_for_byte(tmp_path):
    ds = LabeledDataset([(0, Recording(("A", "B"), 250.0, np.ones((2, 3))))])
    save_dataset(ds, tmp_path / "plain")
    assert (tmp_path / "plain" / "meta.txt").read_bytes() == b"fs=250.0\nchannels=A,B\n"
    save_dataset(ds, tmp_path / "seeded", generator="numpy-pcg64", seed=7)
    assert (tmp_path / "seeded" / "meta.txt").read_bytes() == (
        b"fs=250.0\nchannels=A,B\ngenerator=numpy-pcg64\nseed=7\n")
    table = tmp_path / "features.csv"
    save_feature_table(table, [np.arange(10) / 4], [2], [50], meta={"fs": "250.0"})
    assert table.read_bytes() == (
        b"# fs=250.0\n"
        b"subject_id,start_index,c0_rms,c0_std,c0_skew,c0_kurt,c0_hj_act,c0_hj_mob,"
        b"c0_hj_comp,c0_shan_ent,c0_spec_ent,c0_band_pow\n"
        b"2,50,0.0,0.25,0.5,0.75,1.0,1.25,1.5,1.75,2.0,2.25\n")


def test_dataset_meta_skips_blank_and_comment_lines(tmp_path):
    (tmp_path / "meta.txt").write_text("# written by hand\n\nfs=500\n   \n  # channels=X\n"
                                       "channels=A,B\n")
    assert read_meta(tmp_path) == {"fs": "500", "channels": "A,B"}


def test_dataset_meta_refuses_a_key_given_twice(tmp_path):
    root = tmp_path / "ds"
    save_dataset(LabeledDataset([(0, Recording(("A", "B"), 250.0, np.ones((2, 10))))]), root)
    with open(root / "meta.txt", "a") as fh:
        fh.write("fs=500\n")
    with pytest.raises(MalformedHeader, match="'fs' given twice") as ei:
        load_dataset(root)
    assert str(root / "meta.txt") in str(ei.value)


def test_dataset_meta_refuses_a_non_numeric_rate(tmp_path):
    root = tmp_path / "ds"
    save_dataset(LabeledDataset([(0, Recording(("A", "B"), 250.0, np.ones((2, 10))))]), root)
    (root / "meta.txt").write_text("fs=abc\nchannels=A,B\n")
    with pytest.raises(MalformedHeader, match="fs 'abc' is not a number") as ei:
        load_dataset(root)
    assert str(root / "meta.txt") in str(ei.value)


@pytest.mark.parametrize("fs", ["-5", "0", "nan", "inf"])
def test_dataset_meta_refuses_a_rate_that_is_not_positive_and_finite(tmp_path, fs):
    root = tmp_path / "ds"
    save_dataset(LabeledDataset([(0, Recording(("A", "B"), 250.0, np.ones((2, 10))))]), root)
    (root / "meta.txt").write_text(f"fs={fs}\nchannels=A,B\n")
    with pytest.raises(MalformedHeader) as ei:
        load_dataset(root)
    assert str(ei.value) == f"{root / 'meta.txt'}: fs '{fs}' is not a positive, finite number"


@pytest.mark.parametrize("text, message", [
    ("fs=250.0\nchannels\n", "expected key=value, got 'channels'"),
    ("fs=250.0\n", "missing required key 'channels'"),
    ("channels=A,B\n", "missing required key 'fs'"),
    ("fs=\u0662\u0665\u0660\nchannels=A,B\n", "fs '\u0662\u0665\u0660' is not a number"),
    ("fs=2_50\nchannels=A,B\n", "fs '2_50' is not a number"),
], ids=["no-equals", "no-channels", "no-fs", "non-ASCII digits in fs", "digit separator in fs"])
def test_dataset_meta_errors_name_the_file(tmp_path, text, message):
    root = tmp_path / "ds"
    save_dataset(LabeledDataset([(0, Recording(("A", "B"), 250.0, np.ones((2, 10))))]), root)
    (root / "meta.txt").write_text(text)
    with pytest.raises(MalformedHeader) as ei:
        load_dataset(root)
    assert str(ei.value) == f"{root / 'meta.txt'}: {message}"


def test_dataset_skips_a_subject_directory_without_ascii_digits(tmp_path):
    """subject_<k> counts only with ASCII digits: subject_\u0661 is no subject 1."""
    root = tmp_path / "ds"
    recording = Recording(("A", "B"), 250.0, np.ones((2, 10)))
    save_dataset(LabeledDataset([(1, recording)]), root)
    (root / "subject_\u0661").mkdir()
    save_recording_csv(recording, root / "subject_\u0661" / "rec_000.csv")
    (root / "subject_01").mkdir()
    save_recording_csv(recording, root / "subject_01" / "rec_000.csv")
    ds = load_dataset(root)
    assert [sid for sid, _ in ds.entries] == [1, 1]


def test_dataset_bad_cell_names_its_file(tmp_path):
    root = tmp_path / "ds"
    save_dataset(generate_synthetic_dataset(2, 1.0), root)
    bad = root / "subject_1" / "rec_000.csv"
    lines = bad.read_text().splitlines(keepends=True)
    cells = lines[3].split(",")
    cells[4] = "nan"
    lines[3] = ",".join(cells)
    bad.write_text("".join(lines))
    with pytest.raises(NonNumericSample) as ei:
        load_dataset(root)
    assert (ei.value.row, ei.value.col) == (2, 4)
    assert str(ei.value) == f"{bad}: non-numeric sample at row 2, col 4: 'nan'"


def test_dataset_channel_mismatch_rejected(tmp_path):
    root = tmp_path / "ds"
    save_dataset(
        LabeledDataset([(0, Recording(("A", "B"), 250.0, np.zeros((2, 10)) + 1))]),
        root,
    )
    # hand-write a second subject with a different montage
    sub = root / "subject_1"
    sub.mkdir()
    (sub / "rec_000.csv").write_text("ch:A\n1.0\n2.0\n")
    with pytest.raises(InconsistentChannels):
        load_dataset(root)


def test_dataset_channel_mismatch_names_the_subject(tmp_path):
    root = tmp_path / "ds"
    save_dataset(generate_synthetic_dataset(2, 1.0), root)
    bad = root / "subject_1" / "rec_000.csv"
    lines = bad.read_text().splitlines(keepends=True)
    lines[0] = lines[0].replace("ch:C4", "ch:XX")
    bad.write_text("".join(lines))
    with pytest.raises(InconsistentChannels, match=r"^subject_1[/\\]rec_000\.csv: channel names"):
        load_dataset(root)


def test_empty_dataset_directory_rejected(tmp_path):
    root = tmp_path / "ds"
    root.mkdir()
    (root / "meta.txt").write_text("fs=250.0\nchannels=A,B\n")
    with pytest.raises(EmptyDataset):
        load_dataset(root)


def test_synthetic_subject_peak_at_component_frequency():
    prof = SynthProfile(components=((10.0, 0.0, 5.0),), noise_floor=0.0, seed=3)
    rec = generate_synthetic_subject(prof, duration_s=4.0, fs=250.0)
    assert rec.data.shape == (8, 1000)
    freqs = np.fft.rfftfreq(rec.n_samples, d=1.0 / rec.fs)
    bin_hz = freqs[1] - freqs[0]
    for ch in rec.data:
        spec = np.abs(np.fft.rfft(ch - ch.mean())) ** 2
        peak = freqs[np.argmax(spec)]
        assert abs(peak - 10.0) <= bin_hz + 1e-9


def test_synthetic_subject_deterministic():
    prof = SynthProfile(components=((8.0, 1.5, 6.0),), noise_floor=4.0, seed=11)
    a = generate_synthetic_subject(prof, 2.0, 250.0)
    b = generate_synthetic_subject(prof, 2.0, 250.0)
    assert np.array_equal(a.data, b.data)


def test_invalid_profiles_rejected():
    with pytest.raises(InvalidProfile):
        SynthProfile(components=((10.0, 1.0, 0.0),), noise_floor=0.0, seed=0)
    with pytest.raises(InvalidProfile):
        SynthProfile(components=(), noise_floor=0.0, seed=0)
    with pytest.raises(InvalidProfile):
        SynthProfile(components=((10.0, 1.0, -2.0),), noise_floor=0.0, seed=0)
    with pytest.raises(InvalidProfile):
        SynthProfile(components=((10.0, 1.0, 1.0),), noise_floor=-1.0, seed=0)
    # frequency at/above Nyquist is caught at generation time (depends on fs)
    prof = SynthProfile(components=((130.0, 1.0, 1.0),), noise_floor=0.0, seed=0)
    with pytest.raises(InvalidProfile):
        generate_synthetic_subject(prof, 1.0, 250.0)


def test_synthetic_dataset_shape_and_labels(tmp_path):
    ds = generate_synthetic_dataset(12, 300.0, 250.0, master_seed=42)
    assert len(ds.entries) == 12
    assert ds.subject_ids == list(range(12))
    for _, rec in ds.entries:
        assert rec.n_samples == 75000
        assert rec.channels == signal_io.EEG_CHANNELS
    root = tmp_path / "ds12"
    save_dataset(ds, root, generator=signal_io.GENERATOR_NAME, seed=42)
    back = load_dataset(root)
    assert back.subject_ids == list(range(12))
    assert np.array_equal(back.entries[5][1].data, ds.entries[5][1].data)


def test_synthetic_dataset_seed_sensitivity():
    a = generate_synthetic_dataset(3, 1.0, 250.0, master_seed=1)
    b = generate_synthetic_dataset(3, 1.0, 250.0, master_seed=2)
    c = generate_synthetic_dataset(3, 1.0, 250.0, master_seed=1)
    assert not np.array_equal(a.entries[0][1].data, b.entries[0][1].data)
    assert np.array_equal(a.entries[0][1].data, c.entries[0][1].data)


def test_synthetic_dataset_distinct_profiles():
    ds = generate_synthetic_dataset(4, 1.0, 250.0, master_seed=0)
    flat = [rec.data for _, rec in ds.entries]
    for i in range(len(flat)):
        for j in range(i + 1, len(flat)):
            assert not np.array_equal(flat[i], flat[j])


def test_too_few_subjects_rejected():
    with pytest.raises(InvalidArgument):
        generate_synthetic_dataset(1, 1.0, 250.0, master_seed=0)
