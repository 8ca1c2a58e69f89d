"""Standardization and explained-variance-target PCA."""

import numpy as np
import pytest

from eegid.dsp import asr_calibrate
from eegid.errors import DimensionMismatch, NonFiniteInput, TooFewRows
from eegid.reduction import (
    STD_FLOOR,
    PcaModel,
    Standardizer,
    _principal_axes,
    explained_variance_curve,
    fit_pca,
    fit_standardizer,
    pca_transform,
)
from eegid.signal_io import Recording


def _standardized(X):
    s = fit_standardizer(X)
    return s.transform(X), s


def _peaks(columns):
    """Each column's largest-magnitude entry."""
    return columns[np.argmax(np.abs(columns), axis=0), np.arange(columns.shape[1])]


# ---------------------------------------------------------------------------
# Standardizer
# ---------------------------------------------------------------------------

def test_standardizer_column_stats_oracle():
    rng = np.random.default_rng(40)
    X = rng.standard_normal((120, 7)) * rng.uniform(0.5, 20, size=7) + \
        rng.uniform(-5, 5, size=7)
    s = fit_standardizer(X)
    for j in range(7):
        col = X[:, j]
        mean = sum(col) / len(col)
        var = sum((v - mean) ** 2 for v in col) / len(col)
        assert s.mean[j] == pytest.approx(mean, rel=1e-12, abs=1e-12)
        assert s.std[j] == pytest.approx(var ** 0.5, rel=1e-12)


def test_standardizer_idempotent_stats():
    rng = np.random.default_rng(41)
    X = rng.standard_normal((200, 5)) * 13.0 + 4.0
    Z, _ = _standardized(X)
    assert np.max(np.abs(Z.mean(axis=0))) <= 1e-12
    assert np.max(np.abs(Z.std(axis=0) - 1.0)) <= 1e-12


def test_standardizer_constant_column_floored():
    X = np.column_stack([np.full(50, 3.0), np.arange(50.0)])
    s = fit_standardizer(X)
    assert s.std[0] == STD_FLOOR
    Z = s.transform(X)
    assert np.all(Z[:, 0] == 0.0)


def test_standardizer_validation():
    with pytest.raises(TooFewRows):
        fit_standardizer(np.ones((1, 4)))
    with pytest.raises(NonFiniteInput):
        fit_standardizer(np.array([[1.0, np.nan], [2.0, 3.0]]))
    s = fit_standardizer(np.random.default_rng(0).standard_normal((5, 3)))
    with pytest.raises(DimensionMismatch):
        s.transform(np.ones(4))


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------

def test_rank3_subspace_needs_three_components():
    rng = np.random.default_rng(42)
    basis = np.linalg.qr(rng.standard_normal((80, 3)))[0].T  # orthonormal rows
    # balanced spectrum so the first two directions stay below the target
    coords = rng.standard_normal((400, 3)) * np.array([2.0, 1.5, 1.0])
    Z = coords @ basis
    model = fit_pca(Z, target_ratio=0.95)
    assert model.n_components == 3
    assert np.cumsum(model.explained_variance_ratio)[-1] == pytest.approx(1.0, abs=1e-9)


def test_full_target_keeps_full_spectrum():
    rng = np.random.default_rng(43)
    Z = rng.standard_normal((30, 6))
    model = fit_pca(Z, target_ratio=1.0)
    # n-1 centered rows span at most min(rows-1, d) directions
    assert model.n_components == min(30 - 1, 6)
    assert np.sum(model.explained_variance_ratio) == pytest.approx(1.0, abs=1e-9)


def test_components_orthonormal_and_reconstruction():
    rng = np.random.default_rng(44)
    Z, _ = _standardized(rng.standard_normal((150, 12)) * rng.uniform(1, 9, 12))
    model = fit_pca(Z, target_ratio=1.0)
    c = model.components
    assert np.max(np.abs(c @ c.T - np.eye(model.n_components))) <= 1e-8
    projected = Z @ c.T
    recon = projected @ c
    assert np.max(np.abs(recon - Z)) <= 1e-8


def test_projected_training_covariance_is_diagonal_eigenvalues():
    rng = np.random.default_rng(45)
    X = rng.standard_normal((300, 10)) @ rng.standard_normal((10, 10))
    Z, s = _standardized(X)
    model = fit_pca(Z, target_ratio=0.9)
    T = pca_transform(model, s, X)
    cov = np.cov(T, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    off = cov - np.diag(np.diag(cov))
    assert np.max(np.abs(off)) <= 1e-8
    assert np.max(np.abs(np.diag(cov) - model.explained_variance)) <= 1e-8


def test_training_mean_maps_to_zero():
    rng = np.random.default_rng(46)
    X = rng.standard_normal((80, 9)) + 3.0
    Z, s = _standardized(X)
    model = fit_pca(Z, target_ratio=0.95)
    t = pca_transform(model, s, X.mean(axis=0))
    assert np.max(np.abs(t)) <= 1e-10


def test_row_order_invariance():
    rng = np.random.default_rng(47)
    X = rng.standard_normal((60, 8)) * rng.uniform(1, 4, 8)
    perm = rng.permutation(60)
    Z1, s1 = _standardized(X)
    Z2, s2 = _standardized(X[perm])
    m1 = fit_pca(Z1, 0.9)
    m2 = fit_pca(Z2, 0.9)
    assert m1.n_components == m2.n_components
    assert np.max(np.abs(m1.components - m2.components)) <= 1e-9
    assert np.max(np.abs(s1.mean - s2.mean)) <= 1e-12


def test_truncation_monotone_reconstruction_error():
    rng = np.random.default_rng(48)
    Z, _ = _standardized(rng.standard_normal((100, 15)) * rng.uniform(1, 6, 15))
    model = fit_pca(Z, target_ratio=1.0)
    errors = []
    for m in range(1, model.n_components + 1):
        c = model.components[:m]
        recon = (Z @ c.T) @ c
        errors.append(np.sum((Z - recon) ** 2))
    assert all(a >= b - 1e-9 for a, b in zip(errors, errors[1:]))


def test_transform_is_affine():
    rng = np.random.default_rng(49)
    X = rng.standard_normal((40, 6)) * 3.0
    Z, s = _standardized(X)
    model = fit_pca(Z, 0.95)
    x, y = rng.standard_normal(6), rng.standard_normal(6)
    for alpha in (0.0, 0.3, 0.8, 1.0):
        blend = pca_transform(model, s, alpha * x + (1 - alpha) * y)
        parts = alpha * pca_transform(model, s, x) + \
            (1 - alpha) * pca_transform(model, s, y)
        assert np.max(np.abs(blend - parts)) <= 1e-9


def test_target_selects_smallest_sufficient_m():
    # spectrum 4,3,2,1 -> ratios .4,.3,.2,.1; cumulative .4,.7,.9,1.0
    rng = np.random.default_rng(50)
    n = 20000
    Z = rng.standard_normal((n, 4)) * np.sqrt(np.array([4.0, 3.0, 2.0, 1.0]))
    got = [fit_pca(Z, t).n_components for t in (0.35, 0.65, 0.88, 0.95, 1.0)]
    assert got == [1, 2, 3, 4, 4]


def test_variance_curve():
    rng = np.random.default_rng(51)
    Z, _ = _standardized(rng.standard_normal((90, 7)))
    model = fit_pca(Z, 1.0)
    curve = explained_variance_curve(model)
    assert [i for i, _, _ in curve] == list(range(model.n_components))
    cumul = [c for _, _, c in curve]
    assert all(a <= b + 1e-15 for a, b in zip(cumul, cumul[1:]))
    assert cumul[-1] >= model.target_ratio - 1e-9
    assert cumul[-1] == pytest.approx(1.0, abs=1e-9)
    one = fit_pca(Z, 0.05)
    assert explained_variance_curve(one) == [
        (0, one.explained_variance_ratio[0], one.explained_variance_ratio[0])
    ]


def test_pca_validation():
    with pytest.raises(TooFewRows):
        fit_pca(np.ones((1, 3)), 0.9)
    with pytest.raises(NonFiniteInput):
        fit_pca(np.array([[1.0, np.inf], [0.0, 1.0]]), 0.9)
    rng = np.random.default_rng(52)
    Z, s = _standardized(rng.standard_normal((20, 5)))
    model = fit_pca(Z, 0.9)
    with pytest.raises(DimensionMismatch):
        pca_transform(model, s, np.ones(6))


def test_principal_axes_descending_unit_and_signed():
    rng = np.random.default_rng(47)
    A = rng.standard_normal((60, 6)) @ rng.standard_normal((6, 6))
    cov = A.T @ A
    evals, vecs = _principal_axes(cov)
    assert np.all(np.diff(evals) <= 0)
    assert np.allclose(np.linalg.norm(vecs, axis=0), 1.0, atol=1e-12)
    assert np.all(_peaks(vecs) > 0)
    assert np.allclose(cov @ vecs, vecs * evals, atol=1e-9 * evals[0])


def test_asr_mixing_and_pca_components_share_the_sign_rule():
    rng = np.random.default_rng(48)
    data = (np.eye(8) + 0.3 * rng.standard_normal((8, 8))) @ rng.standard_normal((8, 5000))
    mixing = asr_calibrate(Recording(channels=tuple("abcdefgh"), fs=250.0, data=data)).mixing
    assert np.all(_peaks(mixing) > 0)
    Z, _ = _standardized(rng.standard_normal((100, 9)) @ rng.standard_normal((9, 9)))
    assert np.all(_peaks(fit_pca(Z, 1.0).components.T) > 0)


def test_model_invariant_enforcement():
    with pytest.raises(Exception):
        PcaModel(
            components=np.array([[1.0, 1.0]]),  # not unit norm
            explained_variance=np.array([1.0]),
            explained_variance_ratio=np.array([1.0]),
            target_ratio=0.9,
        )
    with pytest.raises(Exception):
        PcaModel(
            components=np.eye(2),
            explained_variance=np.array([1.0, 2.0]),  # increasing
            explained_variance_ratio=np.array([0.3, 0.7]),
            target_ratio=0.9,
        )
