"""Recording/dataset I/O and seeded synthetic EEG generation.

File formats
------------
Recording CSV: header ``ch:<name>,ch:<name>,...``, then one sample per row
in plain decimal text at full ``repr`` precision, so save -> load is exact.
The CSV carries no sampling rate; that lives in the dataset sidecar
``meta.txt`` (``key=value`` lines: ``fs``, ``channels``, ``generator``,
``seed``) next to the ``subject_<k>/`` directories. ``fs`` is a positive,
finite number, and every recording's header lists the ``channels`` of
``meta.txt``, in order; load_dataset raises MalformedHeader naming
``meta.txt``, or InconsistentChannels naming the recording relative to
the dataset root, when they are not.

_read_lines reads every eegid text file once and whole, and its inverse
_write_lines writes them: a line ends at ``"\n"``, a final one included.

Recording CSVs and feature tables (``features.py``) share one body reader
and its rules: one cell per header column, each a finite number, and no
blank lines (a blank line is a row of one empty cell). parse_numbers, the
one converter of every number eegid reads from a file (bodies, matrices,
vectors, matrix sizes, settings, ``fs`` in ``meta.txt`` and the ``<k>``
of ``subject_<k>``, ASCII digits only), converts it; with ``integer`` it
applies the one integer rule, _bad_integers: integral and below 2**53.
A body it refuses is walked only to name the first bad cell, with the
same function. A bad cell raises ``NonNumericSample(path, row, col)``, a
bad row ``RaggedRows``; both name the file, and rows are numbered from 0
at the first line after the header.

All values are treated as immutable after construction and are safe to
share across threads.
"""

from __future__ import annotations

import contextlib
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    EegIdError,
    EmptyDataset,
    InconsistentChannels,
    InconsistentSamplingRate,
    InvalidArgument,
    InvalidProfile,
    InvalidRecording,
    IoFailure,
    MalformedHeader,
    MissingFile,
    NonNumericSample,
    RaggedRows,
)

# Montage and rate used throughout: 8 dry electrodes sampled at 250 Hz.
EEG_CHANNELS = ("FP2", "FP1", "C4", "C3", "P8", "P7", "O1", "O2")
DEFAULT_FS = 250.0

# Pseudo-random algorithm pinned for reproducibility and recorded in meta.txt.
GENERATOR_NAME = "numpy-pcg64"


@dataclass
class Recording:
    """Multi-channel signal: ``data[c]`` is channel ``channels[c]`` in microvolts."""

    channels: tuple[str, ...]
    fs: float
    data: np.ndarray  # shape (n_channels, n_samples), float64

    def __post_init__(self):
        self.channels = tuple(str(c) for c in self.channels)
        self.data = np.asarray(self.data, dtype=float)
        validate_recording(self)

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]

    @property
    def duration_s(self) -> float:
        return self.data.shape[1] / self.fs


def validate_recording(r: Recording) -> None:
    """Raise InvalidRecording unless r satisfies the Recording invariants."""
    if r.data.ndim != 2:
        raise InvalidRecording(f"data must be 2-D (channels x samples), got ndim={r.data.ndim}")
    n_ch, n_s = r.data.shape
    if n_ch < 1:
        raise InvalidRecording("recording has no channels")
    if n_s < 1:
        raise InvalidRecording("recording has no samples")
    if len(r.channels) != n_ch:
        raise InvalidRecording(
            f"{len(r.channels)} channel names for {n_ch} data rows"
        )
    if not (np.isfinite(r.fs) and r.fs > 0):
        raise InvalidRecording(f"sampling rate must be positive, got {r.fs}")
    if not np.isfinite(r.data).all():
        raise InvalidRecording("recording contains NaN or Inf samples")


def to_samples(seconds: float, fs: float) -> int:
    """The samples in `seconds` at fs Hz, rounded to the nearest: the one
    rule by which eegid turns a duration into a sample count."""
    return int(round(seconds * fs))


@dataclass
class LabeledDataset:
    """Entries of (subject_id, Recording), uniform fs and channel order."""

    entries: list[tuple[int, Recording]]

    @property
    def subject_ids(self) -> list[int]:
        return sorted({sid for sid, _ in self.entries})

    @property
    def fs(self) -> float:
        return self.entries[0][1].fs

    @property
    def channels(self) -> tuple[str, ...]:
        return self.entries[0][1].channels


@dataclass
class SynthProfile:
    """Spectral signature of one synthetic subject.

    components: (center_hz, bandwidth_hz, power_weight_uv) triples. Each
    component is an amplitude-modulated oscillation: carrier at center_hz
    with sidebands confined to +/- bandwidth/2, weight in microvolts.
    noise_floor: white-noise power in uV^2 added per channel.
    """

    components: tuple[tuple[float, float, float], ...]
    noise_floor: float
    seed: int

    def __post_init__(self):
        self.components = tuple(
            (float(f), float(bw), float(w)) for f, bw, w in self.components
        )
        if not self.components:
            raise InvalidProfile("profile needs at least one spectral component")
        weights = [w for _, _, w in self.components]
        if any(w < 0 for w in weights):
            raise InvalidProfile("power weights must be >= 0")
        if not any(w > 0 for w in weights):
            raise InvalidProfile("all power weights are zero")
        if any(bw < 0 for _, bw, _ in self.components):
            raise InvalidProfile("bandwidths must be >= 0")
        if self.noise_floor < 0:
            raise InvalidProfile("noise floor must be >= 0")


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

_HEADER_PREFIX = "ch:"


@contextlib.contextmanager
def _reported(path, what: str, verb: str):
    """Report an OSError or UnicodeError raised inside as IoFailure naming
    path; an EegIdError (a caller's parse error included) passes through."""
    try:
        yield
    except EegIdError:
        raise
    except (OSError, UnicodeError) as e:
        raise IoFailure(f"cannot {verb} {what} {path}: {e}") from e


@contextlib.contextmanager
def _open_text(path, what: str, mode: str = "r"):
    """Every file eegid reads or writes is opened here, so one place
    decides how a file failure is reported: reading a path that is not a
    file raises MissingFile naming `what`, and _reported covers the rest."""
    if mode == "r" and not os.path.isfile(path):
        raise MissingFile(f"no such {what}: {path}")
    with _reported(path, what, "read" if mode == "r" else "write"), open(path, mode) as fh:
        yield fh


def _split_lines(text: str) -> list[str]:
    """text cut at each "\n"; a final "\n" ends the last line."""
    return text.removesuffix("\n").split("\n") if text else []


def _read_lines(path, what: str) -> list[str]:
    """The lines of a text file, read once and whole."""
    with _open_text(path, what) as fh:
        return _split_lines(fh.read())


def _write_lines(path, what: str, *parts) -> None:
    """Write every line of the iterables in `parts`, in turn, each ending in "\n"."""
    with _open_text(path, what, "w") as fh:
        for part in parts:
            fh.writelines(line + "\n" for line in part)


def _format_row(row: np.ndarray, sep: str = ",") -> str:
    """Every float eegid writes as text, by repr, which reads back to the same bits."""
    return sep.join(map(repr, row.tolist()))


def save_recording_csv(recording: Recording, path) -> None:
    """Write a recording as CSV; load_recording_csv inverts it exactly."""
    validate_recording(recording)
    header = ",".join(_HEADER_PREFIX + name for name in recording.channels)
    _write_lines(path, "recording file", [header], map(_format_row, recording.data.T))


def load_recording_csv(path, fs: float = DEFAULT_FS) -> Recording:
    """Load a recording CSV written by save_recording_csv.

    The file stores no sampling rate; pass fs explicitly (the dataset
    loader passes the value from meta.txt).
    """
    header, *body = _read_lines(path, "recording file") or [""]
    names = header.split(",") if header else []
    if not names or not all(n.startswith(_HEADER_PREFIX) for n in names):
        raise MalformedHeader(f"{path}: header must be 'ch:<name>,...', got {header!r}")
    channels = tuple(n[len(_HEADER_PREFIX):] for n in names)
    if any(not c for c in channels):
        raise MalformedHeader(f"{path}: empty channel name in header")
    if not body:
        raise InvalidRecording(f"{path}: no data rows")
    return Recording(channels=channels, fs=fs, data=_read_body(path, body, len(channels)).T)


def parse_numbers(lines: list[str], n_cols=None, delimiter=None,
                  finite=False, integer=False) -> np.ndarray | None:
    """The lines, n_cols numbers each (any count if None), as an array of
    len(lines) rows, or None if they are anything else. NaN and Inf convert
    unless `finite`; an `integer` array is int and passes _bad_integers."""
    if lines and lines[0].strip():  # loadtxt warns when it skips every line
        with contextlib.suppress(ValueError):
            data = np.loadtxt(lines, delimiter=delimiter, comments=None, ndmin=2)
            if (data.shape[0] == len(lines) and n_cols in (None, data.shape[1])
                    and (not finite or np.isfinite(data).all())
                    and not (integer and _bad_integers(data).any())):
                return data.astype(int) if integer else data
    return None


def _bad_integers(a: np.ndarray) -> np.ndarray:
    """True where a is not an integer below 2**53: eegid's one integer rule."""
    return (a != np.trunc(a)) | (np.abs(a) >= 2.0 ** 53)


def _read_body(path, lines: list[str], n_cols: int) -> np.ndarray:
    """The CSV body lines, at least one, as a (rows, n_cols) array of finite
    values, converted by one parse_numbers call. A body it refuses is walked
    only to name the first bad row or cell (row 0 is the first body line):
    rows whole, then the cells of the first refused row."""
    data = parse_numbers(lines, n_cols, ",", finite=True)
    if data is not None:
        return data
    i, line = next((i, line) for i, line in enumerate(lines)
                   if parse_numbers([line], n_cols, ",", finite=True) is None)
    cells = line.split(",")
    if len(cells) != n_cols:
        raise RaggedRows(f"{path}: row {i} has {len(cells)} cells, expected {n_cols}")
    j = next(j for j, cell in enumerate(cells)
             if parse_numbers([cell], 1, ",", finite=True) is None)
    raise NonNumericSample(path, i, j, cells[j])


# ---------------------------------------------------------------------------
# Dataset layout: <root>/meta.txt + <root>/subject_<k>/*.csv
# ---------------------------------------------------------------------------

_SUBJECT_DIR = re.compile(r"^subject_([0-9]+)$")


def save_dataset(ds: LabeledDataset, root, generator: str | None = None,
                 seed: int | None = None) -> None:
    """Write a dataset directory (meta.txt sidecar plus per-subject CSVs)."""
    root = Path(root)
    if not ds.entries:
        raise EmptyDataset("dataset has no entries")
    fs = ds.fs
    channels = ds.channels
    for sid, rec in ds.entries:
        if rec.fs != fs:
            raise InconsistentSamplingRate(f"subject {sid}: fs {rec.fs} != {fs}")
        if rec.channels != channels:
            raise InconsistentChannels(f"subject {sid}: channel mismatch")
    with _reported(root, "dataset directory", "write"):
        root.mkdir(parents=True, exist_ok=True)
        for sid in ds.subject_ids:
            (root / f"subject_{sid}").mkdir(exist_ok=True)
    meta = {"fs": repr(fs), "channels": ",".join(channels), "generator": generator, "seed": seed}
    _write_lines(root / "meta.txt", "dataset meta.txt",
                 [f"{key}={value}" for key, value in meta.items() if value is not None])
    counters: dict[int, int] = {}
    for sid, rec in ds.entries:
        k = counters.get(sid, 0)
        counters[sid] = k + 1
        save_recording_csv(rec, root / f"subject_{sid}" / f"rec_{k:03d}.csv")


def read_meta(root) -> dict[str, str]:
    """The key=value lines of a dataset's meta.txt; blank lines and lines
    starting with # are skipped. A key given twice raises MalformedHeader."""
    path = Path(root) / "meta.txt"
    meta: dict[str, str] = {}
    for line in _read_lines(path, "dataset meta.txt"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise MalformedHeader(f"{path}: expected key=value, got {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in meta:
            raise MalformedHeader(f"{path}: key {key!r} given twice")
        meta[key] = val
    return meta


def load_dataset(root) -> LabeledDataset:
    """Load a dataset directory, validating uniform fs/channels from meta.txt."""
    root = Path(root)
    if not root.is_dir():
        raise MissingFile(f"no such dataset directory: {root}")
    meta, meta_file = read_meta(root), root / "meta.txt"
    try:
        fs = parse_numbers([meta["fs"]], 1)
        channels = tuple(meta["channels"].split(","))
    except KeyError as e:
        raise MalformedHeader(f"{meta_file}: missing required key {e}") from None
    if fs is None or not (np.isfinite(fs[0, 0]) and fs[0, 0] > 0):
        what = "a number" if fs is None else "a positive, finite number"
        raise MalformedHeader(f"{meta_file}: fs {meta['fs']!r} is not {what}")
    fs = float(fs[0, 0])
    with _reported(root, "dataset directory", "list"):
        subjects = sorted((int(k[0, 0]), root / name) for name in os.listdir(root)
                          if (m := _SUBJECT_DIR.match(name)) and (root / name).is_dir()
                          and (k := parse_numbers([m[1]], 1, integer=True)) is not None)
        files = [(sid, subdir / fname) for sid, subdir in subjects
                 for fname in sorted(os.listdir(subdir)) if fname.endswith(".csv")]
    entries: list[tuple[int, Recording]] = []
    for sid, path in files:
        rec = load_recording_csv(path, fs=fs)
        if rec.channels != channels:
            raise InconsistentChannels(f"{path.relative_to(root)}: channel names "
                                       f"{rec.channels} != meta {channels}")
        entries.append((sid, rec))
    if not entries:
        raise EmptyDataset(f"no subject_<k>/*.csv recordings under {root}")
    return LabeledDataset(entries=entries)


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------

def generate_synthetic_subject(profile: SynthProfile, duration_s: float,
                               fs: float = DEFAULT_FS,
                               channels: tuple[str, ...] = EEG_CHANNELS) -> Recording:
    """Deterministic multi-channel signal from a spectral profile.

    Each component contributes an amplitude-modulated sinusoid (carrier at
    its center frequency, sidebands at +/- bandwidth/2, modulation depth
    0.3) with a phase drawn from the seeded generator and a per-channel
    gain jitter of +/-25%. Seeded white noise with variance ``noise_floor``
    is added per channel. Identical inputs give bit-identical output.
    """
    n = to_samples(duration_s, fs)
    if n < 1:
        raise InvalidArgument(f"duration {duration_s}s at {fs} Hz yields no samples")
    for f0, _, _ in profile.components:
        if not (0 < f0 < fs / 2):
            raise InvalidProfile(f"component frequency {f0} Hz outside (0, {fs / 2})")
    rng = np.random.default_rng(profile.seed)
    n_ch = len(channels)
    t = np.arange(n) / fs
    data = np.zeros((n_ch, n))
    for f0, bw, w in profile.components:
        phase = rng.uniform(0.0, 2.0 * np.pi)
        env_phase = rng.uniform(0.0, 2.0 * np.pi)
        gains = 1.0 + 0.25 * rng.uniform(-1.0, 1.0, size=n_ch)
        carrier = np.sin(2.0 * np.pi * f0 * t + phase)
        if bw > 0:
            env = 1.0 + 0.3 * np.sin(2.0 * np.pi * (bw / 2.0) * t + env_phase)
        else:
            env = 1.0
        data += np.outer(w * gains, env * carrier)
    if profile.noise_floor > 0:
        data += np.sqrt(profile.noise_floor) * rng.standard_normal((n_ch, n))
    return Recording(channels=channels, fs=fs, data=data)


def _subject_profile(index: int, fs: float, seed: int) -> SynthProfile:
    # Two carriers per subject. f2 strictly increases with the index, so
    # center-frequency sets never repeat; carriers that would fall into the
    # powerline notch are shifted by +7 Hz (cannot collide: 7/1.1 is not an
    # integer subject offset).
    f1 = 4.0 + 1.9 * (index % 24)
    f2 = 26.0 + 1.1 * index
    if 57.0 <= f2 <= 63.0:
        f2 += 7.0
    w1 = 8.0 + 0.4 * (index % 5 - 2)
    w2 = 5.5 + 0.3 * ((index // 5) % 3 - 1)
    return SynthProfile(
        components=((f1, 1.5, w1), (f2, 2.5, w2)),
        noise_floor=20.0,
        seed=seed,
    )


def generate_synthetic_dataset(n_subjects: int, duration_s: float,
                               fs: float = DEFAULT_FS,
                               master_seed: int = 0) -> LabeledDataset:
    """Dataset of n_subjects with distinct spectral signatures, labels 0..n-1."""
    if n_subjects < 2:
        raise InvalidArgument(f"need at least 2 subjects, got {n_subjects}")
    seeds = np.random.SeedSequence(master_seed).generate_state(n_subjects, dtype=np.uint64)
    entries = []
    for i in range(n_subjects):
        profile = _subject_profile(i, fs, int(seeds[i]))
        entries.append((i, generate_synthetic_subject(profile, duration_s, fs)))
    return LabeledDataset(entries=entries)
