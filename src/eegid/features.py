"""Per-channel window features: seven time-domain statistics plus three
spectral features from a Hann periodogram, assembled channel-major into one
vector per window (8 channels x 10 features = 80 dimensions).

Feature order within a channel is a frozen public contract:

    index  name       quantity
    -----  ---------  ------------------------------------------
    0      rms        root mean square
    1      std        population standard deviation
    2      skew       m3 / m2^(3/2), biased central moments
    3      kurt       m4 / m2^2 (non-excess; Gaussian ~ 3)
    4      hj_act     Hjorth activity (variance)
    5      hj_mob     Hjorth mobility
    6      hj_comp    Hjorth complexity
    7      shan_ent   Shannon entropy, 16 equal-width bins, nat log
    8      spec_ent   spectral entropy of the periodogram, in [0, 1]
    9      band_pow   total band power, 0.1-100 Hz

so a flat vector indexes as channel*10 + feature_id. Degenerate (flat)
inputs return defined constants instead of NaN: skew 0, kurt 3, Hjorth
(0, 0, 0), entropies 0.

One batch kernel computes the features: `extract_feature_matrix` stacks
_CHUNK windows at a time into a (chunk, channels, W) array and computes all
ten features along the last axis, with one rfft for the spectra and one
bincount for the histograms; the chunking keeps its temporaries to a few MB
however many windows there are. The tests hold it bit for bit to a scalar
per-channel reference (tests/feature_reference.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import Window
from .errors import (
    EmptyBand,
    EmptyInput,
    InvalidArgument,
    MalformedHeader,
    NonNumericSample,
    TooFewSamples,
)
from .signal_io import _bad_integers, _format_row, _read_body, _read_lines, _write_lines

FEATURE_NAMES = (
    "rms", "std", "skew", "kurt", "hj_act",
    "hj_mob", "hj_comp", "shan_ent", "spec_ent", "band_pow",
)
N_FEATURES = len(FEATURE_NAMES)

ENTROPY_BINS = 16
BAND_LO = 0.1
BAND_HI = 100.0

# variance below this fraction of max|x|^2 counts as a flat window
_FLAT_EPS = 1e-24

# windows per _batch_features call; bounds the size of its temporaries
_CHUNK = 32


@dataclass(frozen=True)
class FeatureVector:
    """Channel-major feature values for one window, with its label."""

    values: np.ndarray
    subject_id: int
    start_index: int = 0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size == 0 or v.size % N_FEATURES != 0:
            raise InvalidArgument(
                f"feature vector length must be a multiple of {N_FEATURES}"
            )
        if not np.isfinite(v).all():
            raise InvalidArgument("feature vector contains NaN/Inf")


def extract_feature_vector(w: Window) -> FeatureVector:
    """All channels' features, channel-major, labeled with the window's subject."""
    X, _, _ = extract_feature_matrix([w])
    return FeatureVector(values=X[0], subject_id=w.subject_id,
                         start_index=w.start_index)


def extract_feature_matrix(windows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack window features: (X: n x 80, labels: n, start indices: n).

    All windows must share one shape and sampling rate. They are stacked
    _CHUNK at a time into a (chunk, channels, W) tensor for _batch_features.
    """
    windows = list(windows)
    if not windows:
        raise EmptyInput("no windows to extract features from")
    shape, fs = windows[0].data.shape, windows[0].fs
    if any(w.data.shape != shape or w.fs != fs for w in windows):
        raise InvalidArgument("windows differ in channel count, width or fs")
    n_ch, width = shape
    if width < 8:
        raise TooFewSamples(f"channel 0: need >= 8 samples, got {width}")
    if fs <= 0:
        raise InvalidArgument(f"channel 0: fs must be > 0, got {fs}")
    X = np.empty((len(windows), n_ch * N_FEATURES))
    for i in range(0, len(windows), _CHUNK):
        chunk = np.stack([w.data for w in windows[i:i + _CHUNK]])
        feats = _batch_features(chunk.reshape(-1, width), fs)
        X[i:i + len(chunk)] = feats.reshape(len(chunk), -1)
    if not np.isfinite(X).all():
        raise InvalidArgument("feature matrix contains NaN/Inf")
    y = np.array([w.subject_id for w in windows], dtype=int)
    starts = np.array([w.start_index for w in windows], dtype=int)
    return X, y, starts


def _batch_features(x: np.ndarray, fs: float) -> np.ndarray:
    """The ten features of every row of x (rows x W, W >= 8): rows x 10.

    Flat rows (variance at most _FLAT_EPS * max|x|^2) take the constants
    of the module docstring, selected with np.where; so do rows whose first
    difference is flat, for mobility and complexity.
    """
    n = x.shape[1]
    mean = np.mean(x, axis=1, keepdims=True)
    d = x - mean
    d2 = d * d
    m2 = np.mean(d2, axis=1)  # == np.var(x, axis=1)
    std = np.sqrt(m2)
    peak = np.max(np.abs(x), axis=1)
    flat = m2 <= _FLAT_EPS * peak * peak

    dx = np.diff(x, axis=1)
    var_dx = np.var(dx, axis=1)
    peak_dx = np.max(np.abs(dx), axis=1)
    flat_dx = var_dx <= _FLAT_EPS * peak_dx * peak_dx
    var_ddx = np.var(np.diff(dx, axis=1), axis=1)

    with np.errstate(divide="ignore", invalid="ignore"):
        skew = np.where(flat, 0.0, np.mean(d2 * d, axis=1) / (m2 * std))
        kurt = np.where(flat, 3.0, np.mean(d2 * d2, axis=1) / (m2 * m2))
        mobility = np.sqrt(var_dx / m2)
        complexity = np.sqrt(var_ddx / var_dx) / mobility
    smooth = ~flat & ~flat_dx
    activity = np.where(flat, 0.0, m2)
    mobility = np.where(smooth, mobility, 0.0)
    complexity = np.where(smooth, complexity, 0.0)

    w = np.hanning(n)
    power = np.abs(np.fft.rfft(d * w, axis=1)) ** 2 / (fs * np.sum(w * w))
    power[:, 1:(n + 1) // 2] *= 2.0  # all but DC and, for even n, Nyquist
    total = power.sum(axis=1)
    q = power / np.where(total > 0, total, 1.0)[:, None]
    spec_ent = np.where(total > 0,
                        _neg_plogp(q) / np.log(power.shape[1]), 0.0)
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)
    band = (freqs >= BAND_LO) & (freqs <= BAND_HI)
    if not band.any():
        raise EmptyBand(f"channel 0: no PSD bins inside [{BAND_LO}, {BAND_HI}] Hz")
    # row-major, so the trapezoid's sum along axis 1 is pairwise per row as
    # over a 1-D row (boolean column indexing returns column-major)
    band_pow = np.trapezoid(np.ascontiguousarray(power[:, band]), freqs[band],
                            axis=1)

    return np.stack([
        np.sqrt(np.mean(x * x, axis=1)),
        std,
        skew,
        kurt,
        activity,
        mobility,
        complexity,
        _shannon_rows(x),
        spec_ent,
        band_pow,
    ], axis=1)


def _shannon_rows(x: np.ndarray) -> np.ndarray:
    """Histogram entropy of every row over [min, max], natural log, 0 for a
    flat row: np.histogram's ENTROPY_BINS equal-width binning
    (edges by linspace, index from the scaled offset, then its one-step
    corrections against the edges, last bin closed) done with one
    bincount. Edge e of a row is e * step + lo, as linspace computes it;
    its last edge, hi, is never compared."""
    rows, n = x.shape
    lo = np.min(x, axis=1)
    hi = np.max(x, axis=1)
    flat = lo == hi
    span = np.where(flat, 1.0, hi - lo)[:, None]
    lo, step = lo[:, None], span / ENTROPY_BINS
    idx = ((x - lo) / span * ENTROPY_BINS).astype(np.intp)
    idx[idx == ENTROPY_BINS] -= 1
    idx[x < idx * step + lo] -= 1
    idx[(x >= (idx + 1) * step + lo) & (idx != ENTROPY_BINS - 1)] += 1
    row = np.arange(rows)[:, None]
    counts = np.bincount((idx + ENTROPY_BINS * row).ravel(),
                         minlength=rows * ENTROPY_BINS)
    p = counts.reshape(rows, ENTROPY_BINS) / n
    return np.where(flat, 0.0, _neg_plogp(p))


def _neg_plogp(p: np.ndarray) -> np.ndarray:
    """-sum(p * log p) over each row's positive entries.

    Rows are grouped by their number of positive entries k and summed as
    (m, k) arrays: a pairwise sum's grouping depends on its length, so this
    matches np.sum over the compacted 1-D row exactly.
    """
    keep = p > 0
    width = keep.sum(axis=1)
    out = np.zeros(len(p))
    for k in np.unique(width[width > 0]):
        rows = width == k
        q = p[rows][keep[rows]].reshape(-1, k)
        out[rows] = -np.sum(q * np.log(q), axis=1)
    return out


def feature_column_names(n_channels: int) -> list[str]:
    """Frozen CSV column names: c<ch>_<feat>, channel-major."""
    return [f"c{c}_{name}" for c in range(n_channels) for name in FEATURE_NAMES]


def save_feature_table(path, X, labels, starts, meta: dict | None = None) -> None:
    """Write a feature matrix as CSV: subject_id, start_index, then one
    column per feature (exact decimal text, so loading is lossless).

    Optional metadata (e.g. the preprocessing settings that produced the
    windows) goes into leading ``# key=value`` comment lines. Labels and
    starts must be integers below 2**53, as load_feature_table requires.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    labels, starts = np.asarray(labels), np.asarray(starts)
    for name, ids in (("subject_id", labels), ("start_index", starts)):
        if _bad_integers(ids).any():
            raise InvalidArgument(f"{name} must be integers below 2**53")
    labels, starts = labels.astype(int), starts.astype(int)
    if X.shape[1] % N_FEATURES != 0:
        raise InvalidArgument(
            f"feature count {X.shape[1]} is not a multiple of {N_FEATURES}"
        )
    if not (X.shape[0] == labels.shape[0] == starts.shape[0]):
        raise InvalidArgument("X, labels, and starts must have matching rows")
    if not np.isfinite(X).all():
        raise InvalidArgument("feature matrix contains NaN/Inf")
    names = feature_column_names(X.shape[1] // N_FEATURES)
    _write_lines(path, "feature table",
                 [f"# {key}={value}" for key, value in (meta or {}).items()],
                 ["subject_id,start_index," + ",".join(names)],
                 (f"{sid},{start},{_format_row(row)}" for sid, start, row in zip(labels, starts, X)))


def load_feature_table(path):
    """Load a CSV written by save_feature_table.

    Returns (X, labels, starts, meta), meta from the ``# key=value`` lines,
    each key at most once.
    The file is read once and whole (signal_io._read_lines), and the body
    follows the recording CSV rules: finite cells only, rows numbered from
    0 after the header, blank lines refused; the converter of every numeric
    body, matrix and vector, parse_numbers, converts it in one call, and a
    body it refuses is walked only to name the bad cell.
    subject_id and start_index must be integers below 2**53. Raises
    MissingFile, IoFailure, MalformedHeader, NonNumericSample or RaggedRows.
    """
    lines = _read_lines(path, "feature table")
    meta: dict[str, str] = {}
    k = 0
    while k < len(lines) and lines[k].startswith("#"):
        key, eq, value = (part.strip() for part in lines[k][1:].partition("="))
        if eq:
            if key in meta:
                raise MalformedHeader(f"{path}: header key {key!r} given twice")
            meta[key] = value
        k += 1
    header = lines[k].split(",") if k < len(lines) else []
    n_ch = (len(header) - 2) // N_FEATURES
    names = ["subject_id", "start_index", *feature_column_names(n_ch)]
    if n_ch < 1 or header != names:
        raise MalformedHeader(f"{path}: header must be subject_id,start_index "
                              "then the feature columns in the frozen order")
    if k + 1 == len(lines):
        raise MalformedHeader(f"{path}: feature table has no data rows")
    body = _read_body(path, lines[k + 1:], len(header))
    ids = body[:, :2]
    bad = np.flatnonzero(_bad_integers(ids))
    if bad.size:
        row, col = divmod(int(bad[0]), 2)
        raise NonNumericSample(path, row, col, repr(float(ids[row, col])))
    return (np.ascontiguousarray(body[:, 2:]), ids[:, 0].astype(int),
            ids[:, 1].astype(int), meta)
