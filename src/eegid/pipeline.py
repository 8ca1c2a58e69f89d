"""End-to-end identification pipeline: preprocess -> window -> features ->
standardize -> PCA -> one-vs-one SVM, plus splitting, evaluation,
recording-level identification, and model persistence.

The default split is chronological per subject: overlapping windows shared
between a random train/test split would leak near-duplicate samples, so
the first ceil(f*n) windows of each subject train and the rest test.
Random (seeded) splitting is available for comparison. `split_dataset`
applies the protocol of `svm.split_rows`, which the CLI uses on rows.
Feature tables and models store `PreprocessFlags`, window geometry and
sampling rate included, and models store their `KernelSpec`, through one
dataclass-fields codec (`flags_to_meta`/`flags_from_meta`).

Model files are a single versioned text container: a version line, a
checksum line (sha256 of the payload), then key/value and matrix blocks
in full-precision decimal text, so identical models save byte-identically
and reload bit-exactly; ``np.loadtxt`` converts each matrix block. Format
v2 holds the one-vs-one machines in one [machines] block (pair biases,
shared support vectors, pair x vector coefficients); a v1 file, one
[pair a b] section per machine, is refused.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dsp
from .errors import (
    ChannelMismatch,
    CorruptModel,
    EegIdError,
    EmptyDataset,
    InconsistentSamplingRate,
    InvalidArgument,
    IoFailure,
    MissingFile,
    NonFiniteInput,
    UnknownLabel,
    VersionMismatch,
)
from .features import FEATURE_NAMES, N_FEATURES, extract_feature_matrix
from .reduction import PcaModel, Standardizer, fit_pca, fit_standardizer, pca_transform
from .signal_io import DEFAULT_FS, LabeledDataset, Recording
from .svm import (
    DEFAULT_MAX_PASSES,
    DEFAULT_TOL,
    KernelSpec,
    MulticlassSvmModel,
    SplitSpec,
    predict_batch,
    split_rows,
    train_multiclass,
)

MODEL_FORMAT = "eegid-model v2"
FEATURE_ORDER_VERSION = "1"


@dataclass(frozen=True)
class PreprocessFlags:
    """Configuration of the filtering/cleaning chain and the windowing.

    fs is the sampling rate the chain ran at: fit_pipeline takes it from
    the training windows, and identify refuses recordings at another rate.
    """

    notch_f0: float = 60.0
    notch_q: float = dsp.DEFAULT_NOTCH_Q
    bp_order: int = 4
    bp_lo: float = 0.1
    bp_hi: float = 100.0
    asr: bool = True
    asr_k: float = dsp.DEFAULT_ASR_K
    asr_win_s: float = dsp.DEFAULT_ASR_WIN_S
    win_s: float = dsp.WINDOW_S
    hop_s: float = dsp.HOP_S
    fs: float = DEFAULT_FS

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not np.isfinite(value):
                raise InvalidArgument(f"PreprocessFlags {f.name} must be finite, got {value}")


def flags_to_meta(flags: PreprocessFlags) -> dict[str, str]:
    """Feature-table headers and model files store flags in this form."""
    return _fields_to_meta(flags)


def flags_from_meta(meta: dict[str, str]) -> PreprocessFlags:
    """Inverse of flags_to_meta; missing keys take their defaults."""
    return _fields_from_meta(PreprocessFlags, meta)


def _fields_to_meta(obj) -> dict[str, str]:
    """A dataclass's fields as strings, in field order: None as -, bools as
    0/1, strings as they are, the rest by repr."""
    meta = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if value is None:
            meta[f.name] = "-"
        elif isinstance(value, bool):
            meta[f.name] = str(int(value))
        elif isinstance(value, str):
            meta[f.name] = value
        else:
            meta[f.name] = repr(value)
    return meta


def _fields_from_meta(cls, meta: dict[str, str]):
    """Rebuild a dataclass from _fields_to_meta output, parsing each value
    by its annotated type. Missing keys take the field default (a field
    without one raises InvalidArgument); unknown keys are ignored."""
    hints = typing.get_type_hints(cls)
    values = {}
    for f in dataclasses.fields(cls):
        if f.name not in meta:
            if f.default is dataclasses.MISSING:
                raise InvalidArgument(f"{cls.__name__} needs {f.name!r}")
            continue
        text = meta[f.name]
        kinds = typing.get_args(hints[f.name]) or (hints[f.name],)
        try:
            if text == "-" and type(None) in kinds:
                values[f.name] = None
            elif kinds[0] is bool:
                values[f.name] = bool(int(text))
            else:
                values[f.name] = kinds[0](text)
        except ValueError as e:
            raise InvalidArgument(f"bad {cls.__name__} {f.name}: {e}") from e
    return cls(**values)


@functools.lru_cache(maxsize=16)
def _filter_cascade(flags: PreprocessFlags, fs: float) -> np.ndarray:
    """The notch + bandpass SOS cascade, designed once per (flags, fs) and
    shared read-only."""
    notch = dsp.design_notch(flags.notch_f0, flags.notch_q, fs)
    bandpass = dsp.design_butterworth_bandpass(flags.bp_order, flags.bp_lo, flags.bp_hi, fs)
    sos = np.vstack([notch, bandpass])
    sos.flags.writeable = False
    return sos.view()  # a view of a read-only array cannot be made writeable


def preprocess_recording(r: Recording, flags: PreprocessFlags = PreprocessFlags()) -> Recording:
    """Notch and bandpass as one SOS cascade, then (optionally) ASR cleaning.

    ASR calibrates on the filtered recording's own cleanest windows.
    """
    filtered = dsp.apply_filter(_filter_cascade(flags, r.fs), r)
    if not flags.asr:
        return filtered
    with _stage("asr"):
        model = dsp.asr_calibrate(filtered, k=flags.asr_k, win_s=flags.asr_win_s)
    return dsp.asr_clean(model, filtered)


def prepare_windows(ds: LabeledDataset,
                    flags: PreprocessFlags = PreprocessFlags()) -> list[dsp.Window]:
    """Preprocess every recording and slice it into labeled windows."""
    windows: list[dsp.Window] = []
    for sid, rec in ds.entries:
        cleaned = preprocess_recording(rec, flags)
        windows.extend(dsp.segment_windows(cleaned, sid, flags.win_s, flags.hop_s))
    return windows


def split_dataset(windows, s: SplitSpec = SplitSpec()) -> tuple[list, list]:
    """Per-subject split into (train, test); disjoint, covering all windows,
    each side in (subject, start) order."""
    windows = sorted(windows, key=lambda w: (w.subject_id, w.start_index))
    train, test = split_rows([w.subject_id for w in windows], s)
    return [windows[i] for i in train], [windows[i] for i in test]


@dataclass(frozen=True)
class TrainedPipeline:
    """Fitted feature scaling, PCA, and multiclass SVM, plus the
    preprocessing flags they were trained under."""

    standardizer: Standardizer
    pca: PcaModel
    svm: MulticlassSvmModel
    flags: PreprocessFlags
    feature_version: str = FEATURE_ORDER_VERSION

    def __post_init__(self):
        if self.standardizer.n_features != self.pca.n_features:
            raise InvalidArgument(
                f"standardizer ({self.standardizer.n_features}) and PCA "
                f"({self.pca.n_features}) disagree on feature count"
            )
        if self.svm.n_features != self.pca.n_components:
            raise InvalidArgument(
                f"SVM expects {self.svm.n_features} inputs, PCA yields "
                f"{self.pca.n_components}"
            )
        if self.standardizer.n_features % N_FEATURES != 0:
            raise InvalidArgument(
                f"feature count must be a multiple of {N_FEATURES}"
            )

    @property
    def n_channels(self) -> int:
        return self.standardizer.n_features // N_FEATURES

    def transform(self, X: np.ndarray) -> np.ndarray:
        return pca_transform(self.pca, self.standardizer, X)


@contextlib.contextmanager
def _stage(tag: str):
    """Prefix `[tag] ` to the message of an EegIdError raised inside; the
    error keeps its type, attributes and traceback."""
    try:
        yield
    except EegIdError as e:
        e.args = (f"[{tag}] {e}",)
        raise


def fit_from_features(X, y, kernel: KernelSpec, pca_target: float = 0.95,
                      tol: float = DEFAULT_TOL,
                      max_passes: int = DEFAULT_MAX_PASSES,
                      flags: PreprocessFlags = PreprocessFlags()) -> TrainedPipeline:
    """Fit standardizer -> PCA -> SVM on an already-extracted feature matrix.

    `flags` documents the preprocessing that produced the features; it is
    stored so identification can reproduce the same chain.
    """
    if np.unique(y).size < 2:
        raise InvalidArgument("[split] training windows cover fewer than 2 subjects")
    with _stage("standardize"):
        standardizer = fit_standardizer(X)
        Z = standardizer.transform(X)
    with _stage("pca"):
        pca = fit_pca(Z, pca_target)
    with _stage("svm"):
        svm_model = train_multiclass(Z @ pca.components.T, y, kernel, tol, max_passes)
    return TrainedPipeline(standardizer=standardizer, pca=pca, svm=svm_model,
                           flags=flags)


def fit_pipeline(train_windows, kernel: KernelSpec, pca_target: float = 0.95,
                 tol: float = DEFAULT_TOL, max_passes: int = DEFAULT_MAX_PASSES,
                 flags: PreprocessFlags = PreprocessFlags()) -> TrainedPipeline:
    """Fit every stage on training windows only; the model records the
    windows' sampling rate as flags.fs, and flags.win_s must match their width."""
    train_windows = list(train_windows)
    with _stage("features"):
        X, y, _ = extract_feature_matrix(train_windows)
    flags = dataclasses.replace(flags, fs=float(train_windows[0].fs))
    _check_width(flags, train_windows)
    return fit_from_features(X, y, kernel, pca_target, tol, max_passes, flags)


@dataclass(frozen=True)
class EvalReport:
    """Window-level evaluation: accuracy, confusion counts, per-class metrics."""

    accuracy: float
    classes: tuple[int, ...]
    confusion: np.ndarray  # rows true, columns predicted
    precision: np.ndarray
    recall: np.ndarray
    split_description: str
    kernel: KernelSpec

    @property
    def n_test(self) -> int:
        return int(self.confusion.sum())


def check_sampling_rate(p: TrainedPipeline, fs: float, what: str) -> None:
    """Raise InconsistentSamplingRate unless fs is the model's rate."""
    if fs != p.flags.fs:
        raise InconsistentSamplingRate(
            f"[preprocess] {what} sampled at {fs:g} Hz, model trained "
            f"at {p.flags.fs:g} Hz"
        )


def _check_width(flags: PreprocessFlags, windows) -> None:
    """Raise a [window] error unless the windows are round(win_s * fs) wide."""
    width = round(flags.win_s * flags.fs)
    if windows[0].data.shape[1] != width:
        raise InvalidArgument(
            f"[window] windows are {windows[0].data.shape[1]} samples wide, "
            f"model trained on {width} ({flags.win_s:g} s at {flags.fs:g} Hz)"
        )


def evaluate(p: TrainedPipeline, test_windows,
             split_description: str = "") -> EvalReport:
    """Predict every test window and tally the confusion matrix."""
    if not test_windows:
        raise EmptyDataset("no test windows")
    check_sampling_rate(p, test_windows[0].fs, "windows")
    _check_width(p.flags, test_windows)
    X, y, _ = extract_feature_matrix(test_windows)
    return evaluate_features(p, X, y, split_description)


def evaluate_features(p: TrainedPipeline, X, y,
                      split_description: str = "") -> EvalReport:
    """Evaluate on an already-extracted feature matrix."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=int)
    if X.shape[0] == 0:
        raise EmptyDataset("no test rows")
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise NonFiniteInput(f"[features] test row {bad[0]} contains NaN/Inf")
    classes = p.svm.classes
    unknown = sorted(set(int(v) for v in np.unique(y)) - set(classes))
    if unknown:
        raise UnknownLabel(f"test labels {unknown} never seen in training")
    with _stage("features"):
        Z = p.transform(X)
    preds = predict_batch(p.svm, Z)
    index = {c: i for i, c in enumerate(classes)}
    k = len(classes)
    confusion = np.zeros((k, k), dtype=int)
    for truth, pred in zip(y, preds):
        confusion[index[int(truth)], index[int(pred)]] += 1
    with np.errstate(invalid="ignore", divide="ignore"):
        col = confusion.sum(axis=0)
        row = confusion.sum(axis=1)
        diag = np.diag(confusion)
        precision = np.where(col > 0, diag / np.maximum(col, 1), 0.0)
        recall = np.where(row > 0, diag / np.maximum(row, 1), 0.0)
    return EvalReport(
        accuracy=float(np.trace(confusion) / confusion.sum()),
        classes=classes,
        confusion=confusion,
        precision=precision,
        recall=recall,
        split_description=split_description,
        kernel=p.svm.kernel,
    )


@dataclass(frozen=True)
class IdentificationResult:
    """Recording-level decision from per-window votes."""

    label: int
    window_labels: np.ndarray  # per-window predicted subject
    shares: dict[int, float]  # fraction of windows voting for each class
    majority_fraction: float


def identify(p: TrainedPipeline, r: Recording) -> IdentificationResult:
    """Preprocess with the training flags, window, vote over windows.

    The majority label wins; ties resolve to the lowest label.
    """
    if r.data.shape[0] != p.n_channels:
        raise ChannelMismatch(
            f"[preprocess] recording has {r.data.shape[0]} channels, "
            f"model expects {p.n_channels}"
        )
    check_sampling_rate(p, r.fs, "recording")
    cleaned = preprocess_recording(r, p.flags)
    with _stage("window"):
        windows = dsp.segment_windows(cleaned, -1, p.flags.win_s, p.flags.hop_s)
    X, _, _ = extract_feature_matrix(windows)
    preds = predict_batch(p.svm, p.transform(X))
    counts = {c: int(np.sum(preds == c)) for c in p.svm.classes}
    top = max(counts.values())
    label = min(c for c, n in counts.items() if n == top)
    return IdentificationResult(
        label=label,
        window_labels=preds,
        shares={c: n / len(preds) for c, n in counts.items()},
        majority_fraction=top / len(preds),
    )


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def _fmt_vector(v: np.ndarray) -> str:
    return " ".join(map(repr, v.tolist()))


def _matrix_lines(name: str, M: np.ndarray) -> list[str]:
    """A `name rows cols` header, then one line per row."""
    return [f"{name} {M.shape[0]} {M.shape[1]}"] + [_fmt_vector(row) for row in M]


def _payload_lines(p: TrainedPipeline) -> list[str]:
    lines = ["[meta]"]
    lines.append(f"feature_version {p.feature_version}")
    lines.append(f"feature_names {','.join(FEATURE_NAMES)}")
    lines.append(f"n_channels {p.n_channels}")
    lines += [f"{key} {value}" for key, value in flags_to_meta(p.flags).items()]
    lines.append("[standardizer]")
    lines.append(f"mean {_fmt_vector(p.standardizer.mean)}")
    lines.append(f"std {_fmt_vector(p.standardizer.std)}")
    lines.append("[pca]")
    lines.append(f"target_ratio {repr(p.pca.target_ratio)}")
    lines.append(f"explained_variance {_fmt_vector(p.pca.explained_variance)}")
    lines.append(f"explained_variance_ratio {_fmt_vector(p.pca.explained_variance_ratio)}")
    lines += _matrix_lines("components", p.pca.components)
    lines.append("[svm]")
    lines += [f"{key} {value}" for key, value in _fields_to_meta(p.svm.kernel).items()]
    lines.append(f"classes {' '.join(str(c) for c in p.svm.classes)}")
    lines.append("[machines]")
    lines.append(f"bias {_fmt_vector(p.svm.bias)}")
    lines += _matrix_lines("vectors", p.svm.support_vectors)
    lines += _matrix_lines("dual_coef", p.svm.dual_coef)
    lines.append("[end]")
    return lines


def save_model(p: TrainedPipeline, path) -> None:
    """Write the versioned, checksummed text container."""
    payload = "\n".join(_payload_lines(p)) + "\n"
    digest = hashlib.sha256(payload.encode()).hexdigest()
    try:
        with open(path, "w") as fh:
            fh.write(MODEL_FORMAT + "\n")
            fh.write(f"checksum {digest}\n")
            fh.write(payload)
    except OSError as e:
        raise IoFailure(f"cannot write {path}: {e}") from e


class _Reader:
    def __init__(self, lines: list[str]):
        self.lines = lines
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise CorruptModel("model file ended unexpectedly")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def section(self) -> dict[str, str]:
        """The `key value` lines up to the next [section] header."""
        out = {}
        while self.pos < len(self.lines) and not self.lines[self.pos].startswith("["):
            key, _, value = self.next().partition(" ")
            out[key] = value.strip()
        return out

    def expect(self, prefix: str) -> str:
        line = self.next()
        if not line.startswith(prefix + " ") and line != prefix:
            raise CorruptModel(f"expected {prefix!r}, found {line!r}")
        return line[len(prefix):].strip()

    def vector(self, name: str) -> np.ndarray:
        """A `name v1 v2 ...` line of finite numbers."""
        return _finite(name, np.array([float(tok) for tok in self.expect(name).split()]))

    def matrix(self, name: str) -> np.ndarray:
        """A _matrix_lines block of finite numbers, checked against its
        header's shape."""
        rows, cols = (int(tok) for tok in self.expect(name).split())
        lines = [self.next() for _ in range(rows)]
        # loadtxt skips blank lines, and warns when it skips every line
        M = (np.loadtxt(lines, comments=None, ndmin=2)
             if lines and lines[0].strip() else None)
        if M is None or M.shape != (rows, cols):
            raise CorruptModel(f"{name} block is not {rows} x {cols}")
        return _finite(name, M)


def _finite(name: str, a: np.ndarray) -> np.ndarray:
    if not np.isfinite(a).all():
        raise CorruptModel(f"{name} contains NaN/Inf")
    return a


def load_model(path) -> TrainedPipeline:
    """Read a model container, verifying version tag and checksum."""
    path = Path(path)
    if not path.is_file():
        raise MissingFile(f"no such model file: {path}")
    text = path.read_text()
    head, _, rest = text.partition("\n")
    if head != MODEL_FORMAT:
        raise VersionMismatch(
            f"model format {head!r} unsupported (expected {MODEL_FORMAT!r})"
        )
    checksum_line, _, payload = rest.partition("\n")
    if not checksum_line.startswith("checksum "):
        raise CorruptModel("missing checksum line")
    if hashlib.sha256(payload.encode()).hexdigest() != checksum_line.split()[1]:
        raise CorruptModel("checksum mismatch: model file is corrupted")
    r = _Reader(payload.splitlines())
    try:
        r.expect("[meta]")
        feature_version = r.expect("feature_version")
        if feature_version != FEATURE_ORDER_VERSION:
            raise VersionMismatch(
                f"feature contract {feature_version!r} != {FEATURE_ORDER_VERSION!r}"
            )
        names = r.expect("feature_names")
        if names != ",".join(FEATURE_NAMES):
            raise VersionMismatch("feature name list differs from this build")
        n_channels = int(r.expect("n_channels"))
        flags = flags_from_meta(r.section())
        r.expect("[standardizer]")
        standardizer = Standardizer(
            mean=r.vector("mean"),
            std=r.vector("std"),
        )
        if standardizer.n_features != n_channels * N_FEATURES:
            raise CorruptModel(
                f"n_channels {n_channels} does not match the standardizer's "
                f"{standardizer.n_features} features ({N_FEATURES} per channel)"
            )
        r.expect("[pca]")
        target = float(r.expect("target_ratio"))
        ev = r.vector("explained_variance")
        ratio = r.vector("explained_variance_ratio")
        pca = PcaModel(components=r.matrix("components"), explained_variance=ev,
                       explained_variance_ratio=ratio, target_ratio=target)
        r.expect("[svm]")
        svm_meta = r.section()
        kernel = _fields_from_meta(KernelSpec, svm_meta)
        if "classes" not in svm_meta:
            raise CorruptModel("[svm] section has no classes line")
        classes = tuple(int(tok) for tok in svm_meta["classes"].split())
        r.expect("[machines]")
        svm_model = MulticlassSvmModel(  # keywords in file order
            classes=classes, bias=r.vector("bias"),
            support_vectors=r.matrix("vectors"),
            dual_coef=r.matrix("dual_coef"), kernel=kernel)
        r.expect("[end]")
        return TrainedPipeline(standardizer=standardizer, pca=pca,
                               svm=svm_model, flags=flags,
                               feature_version=feature_version)
    except (VersionMismatch, CorruptModel):
        raise
    except (EegIdError, ValueError, IndexError) as e:
        raise CorruptModel(f"malformed model file: {e}") from e
