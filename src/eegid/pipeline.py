"""End-to-end identification pipeline: preprocess -> window -> features ->
standardize -> PCA -> one-vs-one SVM, plus splitting, evaluation,
recording-level identification, and model persistence.

The default split is chronological per subject: overlapping windows shared
between a random train/test split would leak near-duplicate samples, so
the first ceil(f*n) windows of each subject train and the rest test.
Random (seeded) splitting is available for comparison. `split_dataset`
applies the protocol of `svm.split_rows`, which the CLI uses on rows.
Feature tables and models store `PreprocessFlags`, window geometry
included, through one codec (`flags_to_meta`/`flags_from_meta`).

Model files are a single versioned text container: a version line, a
checksum line (sha256 of the payload), then key/value and matrix blocks
in full-precision decimal text, so identical models save byte-identically
and reload bit-exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dsp
from .errors import (
    ChannelMismatch,
    CorruptModel,
    EegIdError,
    EmptyDataset,
    InvalidArgument,
    IoFailure,
    MissingFile,
    NonConvergence,
    UnknownLabel,
    VersionMismatch,
)
from .features import FEATURE_NAMES, N_FEATURES, extract_feature_matrix
from .reduction import PcaModel, Standardizer, fit_pca, fit_standardizer, pca_transform
from .signal_io import LabeledDataset, Recording
from .svm import (
    DEFAULT_MAX_PASSES,
    DEFAULT_TOL,
    BinarySvm,
    KernelSpec,
    MulticlassSvmModel,
    SplitSpec,
    predict_batch,
    split_rows,
    train_multiclass,
)

MODEL_FORMAT = "eegid-model v1"
FEATURE_ORDER_VERSION = "1"


@dataclass(frozen=True)
class PreprocessFlags:
    """Configuration of the filtering/cleaning chain and the windowing."""

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


def flags_to_meta(flags: PreprocessFlags) -> dict[str, str]:
    """Flatten flags to strings, in field order: bools as 0/1, the rest by
    repr. Feature-table headers and model files both store this form."""
    meta = {}
    for f in dataclasses.fields(PreprocessFlags):
        value = getattr(flags, f.name)
        meta[f.name] = str(int(value)) if isinstance(value, bool) else repr(value)
    return meta


def flags_from_meta(meta: dict[str, str]) -> PreprocessFlags:
    """Rebuild flags from flags_to_meta output; missing keys take defaults
    and unknown keys are ignored."""
    values = {}
    try:
        for f in dataclasses.fields(PreprocessFlags):
            if f.name in meta:
                kind = type(f.default)
                text = meta[f.name]
                values[f.name] = bool(int(text)) if kind is bool else kind(text)
    except ValueError as e:
        raise InvalidArgument(f"bad preprocessing metadata: {e}") from e
    return PreprocessFlags(**values)


def preprocess_recording(r: Recording, flags: PreprocessFlags = PreprocessFlags()) -> Recording:
    """Notch, bandpass, then (optionally) ASR cleaning, in that order.

    ASR calibrates on the filtered recording's own cleanest windows.
    """
    notch = dsp.design_notch(flags.notch_f0, flags.notch_q, r.fs)
    bandpass = dsp.design_butterworth_bandpass(flags.bp_order, flags.bp_lo,
                                               flags.bp_hi, r.fs)
    filtered = dsp.apply_filter(bandpass, dsp.apply_filter(notch, r))
    if not flags.asr:
        return filtered
    try:
        model = dsp.asr_calibrate(filtered, k=flags.asr_k, win_s=flags.asr_win_s)
    except EegIdError as e:
        raise _stage("asr", e) from e
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


def _stage(tag: str, exc: EegIdError) -> EegIdError:
    if isinstance(exc, NonConvergence):
        return NonConvergence(f"[{tag}] {exc}", kkt_violation=exc.kkt_violation)
    try:
        return type(exc)(f"[{tag}] {exc}")
    except TypeError:  # multi-field error types keep their original message
        return exc


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
    try:
        standardizer = fit_standardizer(X)
        Z = standardizer.transform(X)
    except EegIdError as e:
        raise _stage("standardize", e) from e
    try:
        pca = fit_pca(Z, pca_target)
    except EegIdError as e:
        raise _stage("pca", e) from e
    try:
        svm_model = train_multiclass(Z @ pca.components.T, y, kernel, tol, max_passes)
    except EegIdError as e:
        raise _stage("svm", e) from e
    return TrainedPipeline(standardizer=standardizer, pca=pca, svm=svm_model,
                           flags=flags)


def fit_pipeline(train_windows, kernel: KernelSpec, pca_target: float = 0.95,
                 tol: float = DEFAULT_TOL, max_passes: int = DEFAULT_MAX_PASSES,
                 flags: PreprocessFlags = PreprocessFlags()) -> TrainedPipeline:
    """Fit every stage on training windows only."""
    try:
        X, y, _ = extract_feature_matrix(train_windows)
    except EegIdError as e:
        raise _stage("features", e) from e
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


def evaluate(p: TrainedPipeline, test_windows,
             split_description: str = "") -> EvalReport:
    """Predict every test window and tally the confusion matrix."""
    if not test_windows:
        raise EmptyDataset("no test windows")
    X, y, _ = extract_feature_matrix(test_windows)
    return evaluate_features(p, X, y, split_description)


def evaluate_features(p: TrainedPipeline, X, y,
                      split_description: str = "") -> EvalReport:
    """Evaluate on an already-extracted feature matrix."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=int)
    if X.shape[0] == 0:
        raise EmptyDataset("no test rows")
    classes = p.svm.classes
    unknown = sorted(set(int(v) for v in np.unique(y)) - set(classes))
    if unknown:
        raise UnknownLabel(f"test labels {unknown} never seen in training")
    preds = predict_batch(p.svm, p.transform(X))
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
            f"recording has {r.data.shape[0]} channels, model expects {p.n_channels}"
        )
    cleaned = preprocess_recording(r, p.flags)
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
    return " ".join(repr(float(x)) for x in v)


def _parse_vector(text: str) -> np.ndarray:
    return np.array([float(tok) for tok in text.split()]) if text.strip() else np.array([])


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
    lines.append(f"components {p.pca.n_components} {p.pca.n_features}")
    for row in p.pca.components:
        lines.append(_fmt_vector(row))
    k = p.svm.kernel
    lines.append("[svm]")
    lines.append(f"kind {k.kind}")
    lines.append(f"c {repr(k.c)}")
    lines.append(f"gamma {'-' if k.gamma is None else repr(k.gamma)}")
    lines.append(f"degree {'-' if k.degree is None else k.degree}")
    lines.append(f"coef0 {repr(k.coef0)}")
    lines.append(f"classes {' '.join(str(c) for c in p.svm.classes)}")
    for (a, b), machine in zip(p.svm.pairs, p.svm.machines):
        lines.append(f"[pair {a} {b}]")
        lines.append(f"bias {repr(machine.bias)}")
        lines.append(f"dual {_fmt_vector(machine.dual_coef)}")
        sv = machine.support_vectors
        lines.append(f"vectors {sv.shape[0]} {sv.shape[1]}")
        for row in sv:
            lines.append(_fmt_vector(row))
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
        int(r.expect("n_channels"))
        flags = flags_from_meta(r.section())
        r.expect("[standardizer]")
        standardizer = Standardizer(
            mean=_parse_vector(r.expect("mean")),
            std=_parse_vector(r.expect("std")),
        )
        r.expect("[pca]")
        target = float(r.expect("target_ratio"))
        ev = _parse_vector(r.expect("explained_variance"))
        ratio = _parse_vector(r.expect("explained_variance_ratio"))
        m, d = (int(tok) for tok in r.expect("components").split())
        components = np.array([_parse_vector(r.next()) for _ in range(m)])
        if components.shape != (m, d):
            raise CorruptModel("component block has wrong shape")
        pca = PcaModel(components=components, explained_variance=ev,
                       explained_variance_ratio=ratio, target_ratio=target)
        r.expect("[svm]")
        kind = r.expect("kind")
        c = float(r.expect("c"))
        gamma_s = r.expect("gamma")
        degree_s = r.expect("degree")
        coef0 = float(r.expect("coef0"))
        kernel = KernelSpec(
            kind=kind,
            c=c,
            gamma=None if gamma_s == "-" else float(gamma_s),
            degree=None if degree_s == "-" else int(degree_s),
            coef0=coef0,
        )
        classes = tuple(int(tok) for tok in r.expect("classes").split())
        pairs = []
        machines = []
        for ia, a in enumerate(classes):
            for b in classes[ia + 1:]:
                r.expect(f"[pair {a} {b}]")
                bias = float(r.expect("bias"))
                dual = _parse_vector(r.expect("dual"))
                ns, nd = (int(tok) for tok in r.expect("vectors").split())
                sv = np.array([_parse_vector(r.next()) for _ in range(ns)])
                if sv.shape != (ns, nd):
                    raise CorruptModel("support vector block has wrong shape")
                pairs.append((a, b))
                machines.append(BinarySvm(support_vectors=sv, dual_coef=dual,
                                          bias=bias, kernel=kernel))
        r.expect("[end]")
        svm_model = MulticlassSvmModel(classes=classes, pairs=tuple(pairs),
                                       machines=tuple(machines), kernel=kernel)
        return TrainedPipeline(standardizer=standardizer, pca=pca,
                               svm=svm_model, flags=flags,
                               feature_version=feature_version)
    except (VersionMismatch, CorruptModel):
        raise
    except (EegIdError, ValueError, IndexError) as e:
        raise CorruptModel(f"malformed model file: {e}") from e
