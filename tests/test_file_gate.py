"""Every file eegid reads or writes reports its failures one way.

A path that is not a file is MissingFile naming what was asked for; an
OSError or undecodable bytes while a file is opened or in use are
IoFailure naming the path (also an OSError); the loaders' own parse errors
pass through unchanged.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from eegid import cli, signal_io
from eegid.errors import IoFailure, MissingFile
from eegid.features import (
    N_FEATURES,
    feature_column_names,
    load_feature_table,
    save_feature_table,
)
from eegid.pipeline import load_model, save_model
from eegid.signal_io import (
    generate_synthetic_dataset,
    load_dataset,
    load_recording_csv,
    read_meta,
    save_dataset,
    save_recording_csv,
)

_TINY_MODEL = Path(__file__).parent / "data" / "tiny_model_v2.txt"
_TABLE_HEAD = "subject_id,start_index," + ",".join(feature_column_names(1)) + "\n"

# loader, the file name it reads, the noun its MissingFile names, and file
# bytes that are well formed up to one 0xFF byte
_LOADERS = {
    "recording": (load_recording_csv, "r.csv", "recording file", b"ch:A,ch:B\n1,2\n3,\xff\n"),
    "meta.txt": (lambda path: read_meta(path.parent), "meta.txt", "dataset meta.txt",
                 b"fs=250.0\nchannels=A,B\nseed=\xff\n"),
    "features": (load_feature_table, "f.csv", "feature table",
                 _TABLE_HEAD.encode() + b"0,0" + b",1.0" * (N_FEATURES - 1) + b",\xff\n"),
    "model": (load_model, "m.txt", "model file", b"eegid-model v2\nchecksum \xff\n"),
}


@pytest.mark.parametrize("loader", list(_LOADERS))
def test_loader_refuses_a_path_that_is_not_a_file(tmp_path, loader):
    load, name, noun, _ = _LOADERS[loader]
    path = tmp_path / name
    with pytest.raises(MissingFile, match=f"^no such {noun}: "):
        load(path)
    path.mkdir()
    with pytest.raises(MissingFile, match=f"^no such {noun}: "):
        load(path)


@pytest.mark.parametrize("loader", list(_LOADERS))
def test_loader_reports_undecodable_bytes_as_io_failure(tmp_path, loader):
    load, name, noun, data = _LOADERS[loader]
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(IoFailure, match=f"^cannot read {noun} ") as ei:
        load(path)
    assert str(path) in str(ei.value)
    assert isinstance(ei.value, OSError)
    assert isinstance(ei.value.__cause__, UnicodeDecodeError)


def _grid_out(target):
    table = target.parent.parent / "grid_features.csv"
    rng = np.random.default_rng(0)
    save_feature_table(table, rng.normal(size=(20, N_FEATURES)) + np.repeat([0, 5], 10)[:, None],
                       np.repeat([0, 1], 10), np.tile(np.arange(10) * 100, 2))
    args = cli.build_parser().parse_args(
        ["grid", "--features", str(table), "--kernels", "linear", "--out", str(target)])
    cli.cmd_grid(args)


_DATASET = generate_synthetic_dataset(2, 1.0)
_RECORDING = _DATASET.entries[0][1]

# writer, and the noun its IoFailure names
_WRITERS = {
    "recording": (lambda path: save_recording_csv(_RECORDING, path), "recording file"),
    "dataset": (lambda path: save_dataset(_DATASET, path), "dataset directory"),
    "features": (lambda path: save_feature_table(path, np.ones((1, N_FEATURES)), [0], [0]),
                 "feature table"),
    "model": (lambda path: save_model(load_model(_TINY_MODEL), path), "model file"),
    "grid --out": (_grid_out, "results CSV"),
}


@pytest.mark.parametrize("writer", list(_WRITERS))
def test_writer_below_a_regular_file_raises_io_failure(tmp_path, writer):
    write, noun = _WRITERS[writer]
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    target = blocker / "out"
    with pytest.raises(IoFailure, match=f"^cannot write {noun} ") as ei:
        write(target)
    assert str(target) in str(ei.value)
    assert isinstance(ei.value, OSError)


def test_save_dataset_onto_a_regular_file_raises_io_failure(tmp_path):
    root = tmp_path / "ds"
    root.write_text("not a directory\n")
    with pytest.raises(IoFailure, match=f"^cannot write dataset directory {re.escape(str(root))}: "):
        save_dataset(_DATASET, root)


def test_unlistable_dataset_directory_raises_io_failure(tmp_path, monkeypatch):
    root = tmp_path / "ds"
    save_dataset(_DATASET, root)

    def refuse(path):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(signal_io.os, "listdir", refuse)
    with pytest.raises(IoFailure, match=f"^cannot list dataset directory {re.escape(str(root))}: ") as ei:
        load_dataset(root)
    assert isinstance(ei.value.__cause__, PermissionError)
