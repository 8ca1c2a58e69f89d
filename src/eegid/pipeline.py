"""End-to-end identification pipeline: preprocess -> window -> features ->
standardize -> PCA -> one-vs-one SVM, plus splitting, evaluation,
recording-level identification, and model persistence.

The default split is chronological per subject: overlapping windows shared
between a random train/test split would leak near-duplicate samples, so
the first ceil(f*n) windows of each subject train and the rest test.
Random (seeded) splitting is available for comparison. `split_dataset`
applies the protocol of `svm.split_rows`, which the CLI uses on rows.
Feature tables store `PreprocessFlags`, window geometry and sampling rate
included, through one dataclass-fields codec (`flags_to_meta`/
`flags_from_meta`), and model files write and read every block through the
same codec: each fitted stage is rebuilt by one `_fields_from_meta` call
and checked by its own `__post_init__`.

Model files are a single versioned text container: a version line, a
checksum line (sha256 of the payload), then key/value and matrix blocks
in full-precision decimal text, so identical models save byte-identically
and reload bit-exactly; ``np.loadtxt`` converts each matrix block, and a
key given twice in one block is refused. Format v2 holds the one-vs-one
machines in one [machines] block (pair biases, shared support vectors,
pair x vector coefficients); a v1 file, one [pair a b] section per
machine, is refused.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools
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


def _fields_to_meta(obj) -> dict:
    """A dataclass's fields as strings, in field order: None as -, bools as
    0/1, strings as they are, tuples and 1-D arrays as space-separated
    items, numbers by repr. A matrix or a nested dataclass stays as it is,
    for the caller to write."""
    meta = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if value is None:
            meta[f.name] = "-"
        elif isinstance(value, bool):
            meta[f.name] = str(int(value))
        elif isinstance(value, str):
            meta[f.name] = value
        elif isinstance(value, tuple):
            meta[f.name] = " ".join(map(str, value))
        elif isinstance(value, np.ndarray) and value.ndim == 1:
            meta[f.name] = _fmt_vector(value)
        elif isinstance(value, (int, float)):
            meta[f.name] = repr(value)
        else:
            meta[f.name] = value
    return meta


def _fields_from_meta(cls, meta: dict):
    """Rebuild a dataclass from _fields_to_meta output, parsing each string
    by its field's annotated type; a 1-D array must be finite, and a value
    that is not a string is already parsed. Missing keys take the field
    default (a field without one raises InvalidArgument); unknown keys are
    ignored."""
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
            if not isinstance(text, str):
                values[f.name] = text
            elif text == "-" and type(None) in kinds:
                values[f.name] = None
            elif kinds[0] is bool:
                values[f.name] = bool(int(text))
            elif kinds[0] is np.ndarray:
                values[f.name] = _finite(f.name, np.array([float(tok) for tok in text.split()]))
            elif typing.get_origin(hints[f.name]) is tuple:
                values[f.name] = tuple(kinds[0](tok) for tok in text.split())
            else:
                values[f.name] = kinds[0](text)
        except ValueError as e:
            raise InvalidArgument(f"bad {cls.__name__} {f.name}: {e}") from e
    return cls(**values)


def preprocess_recording(r: Recording, flags: PreprocessFlags = PreprocessFlags()) -> Recording:
    """Notch and bandpass as one SOS cascade, then (optionally) ASR cleaning.

    ASR calibrates on the filtered recording's own cleanest windows.
    """
    sos = np.vstack([
        dsp.design_notch(flags.notch_f0, flags.notch_q, r.fs),
        dsp.design_butterworth_bandpass(flags.bp_order, flags.bp_lo, flags.bp_hi, r.fs)])
    filtered = dsp.apply_filter(sos, r)
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
    confusion = np.zeros((len(classes), len(classes)), dtype=int)
    np.add.at(confusion, (np.searchsorted(classes, y), np.searchsorted(classes, preds)), 1)
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


# The blocks after [meta], each key in v2's order. A key in _MATRICES heads
# a `key rows cols` block of rows; "vectors" holds support_vectors.
_V2_KEYS = {
    "standardizer": ("mean", "std"),
    "pca": ("target_ratio", "explained_variance", "explained_variance_ratio", "components"),
    "svm": ("kind", "c", "gamma", "degree", "coef0", "classes"),
    "machines": ("bias", "vectors", "dual_coef"),
}
_MATRICES = ("components", "vectors", "dual_coef")
_FIELD = {"vectors": "support_vectors"}


def _payload_lines(p: TrainedPipeline) -> list[str]:
    fields = {**_fields_to_meta(p.standardizer), **_fields_to_meta(p.pca),
              **_fields_to_meta(p.svm.kernel), **_fields_to_meta(p.svm)}
    lines = ["[meta]", f"feature_version {FEATURE_ORDER_VERSION}",
             f"feature_names {','.join(FEATURE_NAMES)}", f"n_channels {p.n_channels}"]
    lines += [f"{key} {value}" for key, value in flags_to_meta(p.flags).items()]
    for block, keys in _V2_KEYS.items():
        lines.append(f"[{block}]")
        for key in keys:
            value = fields[_FIELD.get(key, key)]
            if key in _MATRICES:
                lines.append(f"{key} {value.shape[0]} {value.shape[1]}")
                lines += [_fmt_vector(row) for row in value]
            else:
                lines.append(f"{key} {value}")
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


def _blocks(lines: list[str]) -> dict[str, dict]:
    """Split payload lines into {block: {field: text, or a matrix block's
    finite array}}. The blocks must be v2's, in order, and no key may
    appear twice in one block."""
    names, blocks = [], []
    lines = iter(lines)
    for line in lines:
        key, _, text = line.partition(" ")
        if key.startswith("["):
            names.append(key)
            blocks.append({})
            continue
        if not blocks:
            raise CorruptModel(f"expected '[meta]', found {line!r}")
        value = text.strip()
        if key in _MATRICES:
            rows, cols = (int(tok) for tok in value.split())
            body = list(itertools.islice(lines, rows))
            # loadtxt skips blank lines, and warns when it skips every line
            value = (np.loadtxt(body, comments=None, ndmin=2)
                     if body and body[0].strip() else None)
            if value is None or value.shape != (rows, cols):
                raise CorruptModel(f"{key} block is not {rows} x {cols}")
            _finite(key, value)
        field = _FIELD.get(key, key)
        if field in blocks[-1]:
            raise CorruptModel(f"{names[-1]} has more than one {key!r} line")
        blocks[-1][field] = value
    expected = ["[meta]", *(f"[{block}]" for block in _V2_KEYS), "[end]"]
    if names != expected:
        raise CorruptModel(f"model blocks are {' '.join(names)}, not {' '.join(expected)}")
    return {name.strip("[]"): block for name, block in zip(names, blocks)}


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
    if checksum_line.split()[1:] != [hashlib.sha256(payload.encode()).hexdigest()]:
        raise CorruptModel("checksum mismatch: model file is corrupted")
    try:
        blocks = _blocks(payload.splitlines())
        meta = blocks["meta"]
        if meta["feature_version"] != FEATURE_ORDER_VERSION:
            raise VersionMismatch(
                f"feature contract {meta['feature_version']!r} != {FEATURE_ORDER_VERSION!r}"
            )
        if meta["feature_names"] != ",".join(FEATURE_NAMES):
            raise VersionMismatch("feature name list differs from this build")
        n_channels = int(meta["n_channels"])
        flags = flags_from_meta(meta)
        standardizer = _fields_from_meta(Standardizer, blocks["standardizer"])
        if standardizer.n_features != n_channels * N_FEATURES:
            raise CorruptModel(
                f"n_channels {n_channels} does not match the standardizer's "
                f"{standardizer.n_features} features ({N_FEATURES} per channel)"
            )
        pca = _fields_from_meta(PcaModel, blocks["pca"])
        kernel = _fields_from_meta(KernelSpec, blocks["svm"])
        svm_model = _fields_from_meta(
            MulticlassSvmModel, {**blocks["svm"], **blocks["machines"], "kernel": kernel})
        return TrainedPipeline(standardizer=standardizer, pca=pca,
                               svm=svm_model, flags=flags)
    except (VersionMismatch, CorruptModel):
        raise
    except KeyError as e:
        raise CorruptModel(f"model file has no {e} line") from e
    except (EegIdError, ValueError, IndexError) as e:
        raise CorruptModel(f"malformed model file: {e}") from e
