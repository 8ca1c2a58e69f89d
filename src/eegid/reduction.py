"""Z-score standardization and PCA by explained-variance target.

Both are fit on training data only and applied to everything else, so no
test-set statistics leak into the model. At 80 features a covariance
eigendecomposition with a symmetric solver is the whole job; component
signs are fixed (largest-magnitude entry positive) so persisted models are
identical across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, NonFiniteInput, TooFewRows

STD_FLOOR = 1e-12


@dataclass(frozen=True)
class Standardizer:
    """Per-feature location/scale; transform is (x - mean) / std."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mean, dtype=float)
        s = np.asarray(self.std, dtype=float)
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "std", s)
        if m.ndim != 1 or m.shape != s.shape:
            raise InvalidArgument("mean and std must be matching 1-D arrays")
        if np.any(s < STD_FLOOR):
            raise InvalidArgument(f"std entries must be >= {STD_FLOOR}")

    @property
    def n_features(self) -> int:
        return self.mean.size

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.shape[-1] != self.n_features:
            raise DimensionMismatch(
                f"got {X.shape[-1]} features, standardizer expects {self.n_features}"
            )
        return (X - self.mean) / self.std


@dataclass(frozen=True)
class PcaModel:
    """Retained principal axes (rows) with their variances and ratios."""

    components: np.ndarray  # m x d, orthonormal rows
    explained_variance: np.ndarray  # m, non-increasing
    explained_variance_ratio: np.ndarray  # m, sums to <= 1
    target_ratio: float

    def __post_init__(self):
        c = np.asarray(self.components, dtype=float)
        ev = np.asarray(self.explained_variance, dtype=float)
        ratio = np.asarray(self.explained_variance_ratio, dtype=float)
        object.__setattr__(self, "components", c)
        object.__setattr__(self, "explained_variance", ev)
        object.__setattr__(self, "explained_variance_ratio", ratio)
        if c.ndim != 2 or c.shape[0] < 1:
            raise InvalidArgument("components must be a nonempty m x d matrix")
        m = c.shape[0]
        if ev.shape != (m,) or ratio.shape != (m,):
            raise InvalidArgument("variance arrays must have one entry per component")
        gram = c @ c.T
        if np.max(np.abs(gram - np.eye(m))) > 1e-8:
            raise InvalidArgument("component rows must be orthonormal")
        if np.any(ev < 0) or np.any(np.diff(ev) > 1e-12 * max(ev[0], 1.0)):
            raise InvalidArgument("explained variance must be nonnegative, non-increasing")
        if ratio.sum() > 1.0 + 1e-9:
            raise InvalidArgument("variance ratios must sum to <= 1")
        if not (0.0 < self.target_ratio <= 1.0):
            raise InvalidArgument("target_ratio must lie in (0, 1]")

    @property
    def n_components(self) -> int:
        return self.components.shape[0]

    @property
    def n_features(self) -> int:
        return self.components.shape[1]


def _principal_axes(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of a symmetric matrix, descending, and unit eigenvector
    columns, each signed so that its largest-magnitude entry is positive."""
    evals, evecs = np.linalg.eigh(cov)
    evecs = evecs[:, ::-1]
    peak = evecs[np.argmax(np.abs(evecs), axis=0), np.arange(evecs.shape[1])]
    return evals[::-1], evecs * np.where(peak < 0, -1.0, 1.0)


def fit_standardizer(X: np.ndarray) -> Standardizer:
    """Column means and population stds; flat columns get the epsilon floor."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise TooFewRows("standardizer needs a matrix with >= 2 rows")
    if not np.isfinite(X).all():
        raise NonFiniteInput("feature matrix contains NaN/Inf")
    return Standardizer(
        mean=X.mean(axis=0),
        std=np.maximum(X.std(axis=0), STD_FLOOR),
    )


def fit_pca(Z: np.ndarray, target_ratio: float = 0.95) -> PcaModel:
    """Eigendecompose the sample covariance and keep the smallest leading
    set of components whose cumulative variance ratio reaches target_ratio.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[0] < 2 or Z.shape[1] < 1:
        raise TooFewRows("PCA needs >= 2 rows and >= 1 column")
    if not np.isfinite(Z).all():
        raise NonFiniteInput("matrix contains NaN/Inf")
    if not (0.0 < target_ratio <= 1.0):
        raise InvalidArgument("target_ratio must lie in (0, 1]")
    centered = Z - Z.mean(axis=0)
    cov = centered.T @ centered / (Z.shape[0] - 1)
    evals, evecs = _principal_axes(cov)
    evals = np.clip(evals, 0.0, None)  # no negative noise
    total = evals.sum()
    if total <= 0:
        raise InvalidArgument("data has zero total variance; nothing to retain")
    ratios = evals / total
    cumulative = np.cumsum(ratios)
    # first index whose cumulative ratio reaches the target (tiny tolerance
    # so 1.0 targets are reachable despite rounding)
    m = int(np.searchsorted(cumulative, target_ratio - 1e-12) + 1)
    m = min(m, evals.size)
    components = evecs[:, :m].T.copy()
    return PcaModel(
        components=components,
        explained_variance=evals[:m].copy(),
        explained_variance_ratio=ratios[:m].copy(),
        target_ratio=float(target_ratio),
    )


def pca_transform(model: PcaModel, standardizer: Standardizer,
                  X: np.ndarray) -> np.ndarray:
    """components @ ((x - mean) / std), for one vector or a matrix of rows.

    Standardizing with statistics fit on the training matrix centers that
    matrix exactly, so no separate centering step is needed here.
    """
    if model.n_features != standardizer.n_features:
        raise DimensionMismatch(
            f"PCA expects {model.n_features} features, standardizer has "
            f"{standardizer.n_features}"
        )
    return standardizer.transform(X) @ model.components.T


def explained_variance_curve(model: PcaModel) -> list[tuple[int, float, float]]:
    """(component index, ratio, cumulative ratio) for each retained component."""
    ratio = model.explained_variance_ratio
    return [(i, float(r), float(c)) for i, (r, c) in enumerate(zip(ratio, np.cumsum(ratio)))]
