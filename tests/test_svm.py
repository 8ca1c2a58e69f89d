"""SMO training, one-vs-one prediction, and grid search."""

import numpy as np
import pytest

from eegid.errors import (
    DimensionMismatch,
    InvalidArgument,
    NonConvergence,
    SingleClassInput,
)
from eegid.svm import (
    BinarySvm,
    GridCell,
    KernelSpec,
    SplitSpec,
    best_per_kind,
    decision_values,
    default_grids,
    dual_objective,
    gram,
    grid_search,
    kernel_eval,
    max_kkt_violation,
    predict,
    predict_batch,
    split_rows,
    train_binary_smo,
    train_multiclass,
)
from qp_oracle import reference_dual_objective, solve_dual_reference


def _blobs(rng, centers, n_per, spread=0.5):
    X, y = [], []
    for label, center in enumerate(centers):
        X.append(rng.standard_normal((n_per, len(center))) * spread + center)
        y.extend([label] * n_per)
    return np.vstack(X), np.array(y)


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

def test_kernel_eval_examples():
    rbf = KernelSpec("rbf", 1.0, gamma=0.3)
    x = np.array([0.4, -2.0, 7.0])
    assert kernel_eval(rbf, x, x) == pytest.approx(1.0, abs=1e-15)
    linear = KernelSpec("linear", 1.0)
    assert kernel_eval(linear, [1.0, 2.0], [3.0, 4.0]) == pytest.approx(11.0)
    poly = KernelSpec("poly", 1.0, gamma=1.0, degree=2, coef0=0.0)
    assert kernel_eval(poly, [1.0, 1.0], [1.0, 1.0]) == pytest.approx(4.0)
    with pytest.raises(DimensionMismatch):
        kernel_eval(linear, [1.0], [1.0, 2.0])


def test_kernel_spec_validation():
    with pytest.raises(InvalidArgument):
        KernelSpec("sigmoid", 1.0)
    with pytest.raises(InvalidArgument):
        KernelSpec("linear", 0.0)
    with pytest.raises(InvalidArgument):
        KernelSpec("rbf", 1.0)  # missing gamma
    with pytest.raises(InvalidArgument):
        KernelSpec("poly", 1.0, gamma=0.1)  # missing degree
    assert KernelSpec("polynomial", 1.0, gamma=0.1, degree=3).kind == "poly"


def test_rbf_gram_positive_semidefinite():
    rng = np.random.default_rng(60)
    for gamma in (0.01, 0.1, 1.0):
        X = rng.standard_normal((40, 6))
        K = gram(KernelSpec("rbf", 1.0, gamma=gamma), X, X)
        assert np.max(np.abs(K - K.T)) <= 1e-12
        assert np.linalg.eigvalsh(K).min() >= -1e-8


# ---------------------------------------------------------------------------
# Binary SMO
# ---------------------------------------------------------------------------

def test_two_point_problem():
    X = np.array([[-1.0], [1.0]])
    y = np.array([-1.0, 1.0])
    model = train_binary_smo(X, y, KernelSpec("linear", 1.0), tol=1e-6)
    assert model.decision(np.array([0.0])) == pytest.approx(0.0, abs=1e-6)
    assert model.decision(np.array([-1.0])) == pytest.approx(-1.0, abs=1e-6)
    assert model.decision(np.array([1.0])) == pytest.approx(1.0, abs=1e-6)


def test_separable_margins_with_large_c():
    rng = np.random.default_rng(61)
    X, labels = _blobs(rng, [(-3.0, 0.0), (3.0, 0.0)], 40, spread=0.6)
    y = np.where(labels == 1, 1.0, -1.0)
    model = train_binary_smo(X, y, KernelSpec("linear", 1000.0), tol=1e-3)
    margins = y * model.decision(X)
    assert np.min(margins) >= 1.0 - 1e-3


def test_kkt_conditions_at_convergence():
    rng = np.random.default_rng(62)
    X, labels = _blobs(rng, [(-1.0, 0.5), (1.2, -0.4)], 60, spread=1.0)
    y = np.where(labels == 1, 1.0, -1.0)
    for spec in (KernelSpec("linear", 1.0),
                 KernelSpec("rbf", 10.0, gamma=0.5),
                 KernelSpec("poly", 1.0, gamma=0.5, degree=2)):
        tol = 1e-3
        model = train_binary_smo(X, y, spec, tol=tol)
        # rebuild the full alpha vector by locating each SV's training row
        alpha = np.zeros(len(y))
        for sv, coef in zip(model.support_vectors, model.dual_coef):
            i = int(np.flatnonzero(np.all(X == sv, axis=1))[0])
            alpha[i] = abs(coef)
        assert max_kkt_violation(spec, X, y, alpha, model.bias) <= tol * 1.001


def test_dual_feasible_at_every_step():
    rng = np.random.default_rng(63)
    X, labels = _blobs(rng, [(-1.0, 0.0), (1.0, 0.0)], 30, spread=1.2)
    y = np.where(labels == 1, 1.0, -1.0)
    c = 5.0
    seen = []

    def hook(alpha, b):
        seen.append(True)
        assert np.all(alpha >= -1e-9)
        assert np.all(alpha <= c + 1e-9)
        assert abs(np.dot(alpha, y)) <= 1e-9

    train_binary_smo(X, y, KernelSpec("rbf", c, gamma=0.7), tol=1e-3,
                     step_hook=hook)
    assert len(seen) > 0


def _model_objective(model):
    sv, dual = model.support_vectors, model.dual_coef
    K = gram(model.kernel, sv, sv)
    return np.sum(np.abs(dual)) - 0.5 * dual @ K @ dual


def test_objective_invariant_under_row_permutation():
    rng = np.random.default_rng(64)
    X, labels = _blobs(rng, [(-1.0, 0.0), (0.8, 0.3)], 50, spread=1.0)
    y = np.where(labels == 1, 1.0, -1.0)
    spec = KernelSpec("rbf", 2.0, gamma=0.4)
    # tol=1e-5 converges slowly on this overlap; give the sweeps headroom
    w1 = _model_objective(
        train_binary_smo(X, y, spec, tol=1e-5, max_passes=5000))
    perm = rng.permutation(len(y))
    w2 = _model_objective(
        train_binary_smo(X[perm], y[perm], spec, tol=1e-5, max_passes=5000))
    assert abs(w1 - w2) <= 1e-4


def test_training_error_monotone_in_c():
    rng = np.random.default_rng(65)
    X, labels = _blobs(rng, [(-2.0, 0.0), (2.0, 0.0)], 40, spread=0.8)
    y = np.where(labels == 1, 1.0, -1.0)
    errs = []
    for c in (0.001, 0.01, 0.1, 1.0, 10.0):
        model = train_binary_smo(X, y, KernelSpec("linear", c), tol=1e-4)
        errs.append(int(np.sum(np.sign(model.decision(X)) != y)))
    assert all(a >= b for a, b in zip(errs, errs[1:]))


def test_smo_matches_reference_qp_on_small_instances():
    rng = np.random.default_rng(66)
    specs = [
        KernelSpec("linear", 0.5),
        KernelSpec("linear", 2.0),
        KernelSpec("linear", 10.0),
        KernelSpec("rbf", 1.0, gamma=0.5),
        KernelSpec("rbf", 5.0, gamma=0.1),
        KernelSpec("rbf", 10.0, gamma=1.0),
        KernelSpec("poly", 1.0, gamma=0.5, degree=2),
        KernelSpec("poly", 2.0, gamma=0.3, degree=3),
    ]
    checked = 0
    for spec in specs:
        for _ in range(3):
            n = int(rng.integers(4, 13))
            X = rng.standard_normal((n, int(rng.integers(2, 5)))) * 1.5
            y = np.ones(n)
            y[: n // 2] = -1.0
            rng.shuffle(y)
            if np.unique(y).size < 2:
                continue
            model = train_binary_smo(X, y, spec, tol=1e-8, max_passes=20000)
            alpha = np.zeros(n)
            for sv, coef in zip(model.support_vectors, model.dual_coef):
                i = int(np.flatnonzero(np.all(X == sv, axis=1))[0])
                alpha[i] = abs(coef)
            K = gram(spec, X, X)
            ref = solve_dual_reference(K, y, spec.c)
            w_smo = reference_dual_objective(K, y, alpha)
            w_ref = reference_dual_objective(K, y, ref)
            assert abs(w_smo - w_ref) <= 1e-4, spec.describe()
            assert w_smo == pytest.approx(dual_objective(spec, X, y, alpha),
                                          rel=1e-9, abs=1e-12)
            checked += 1
    assert checked >= 20


def test_single_class_rejected():
    X = np.ones((4, 2))
    with pytest.raises(SingleClassInput):
        train_binary_smo(X, np.ones(4), KernelSpec("linear", 1.0))
    with pytest.raises(InvalidArgument):
        train_binary_smo(X, np.array([0.0, 1.0, 1.0, 0.0]),
                         KernelSpec("linear", 1.0))


def test_nonconvergence_is_reported():
    rng = np.random.default_rng(67)
    X, labels = _blobs(rng, [(-0.2, 0.0), (0.2, 0.0)], 50, spread=2.0)
    y = np.where(labels == 1, 1.0, -1.0)
    with pytest.raises(NonConvergence) as ei:
        train_binary_smo(X, y, KernelSpec("rbf", 100.0, gamma=0.5),
                         tol=1e-9, max_passes=2)
    assert ei.value.kkt_violation is not None
    assert ei.value.kkt_violation > 0


# ---------------------------------------------------------------------------
# One-vs-one multiclass
# ---------------------------------------------------------------------------

def test_pair_counts():
    rng = np.random.default_rng(68)
    spec = KernelSpec("linear", 1.0)
    X2, y2 = _blobs(rng, [(-2.0, 0.0), (2.0, 0.0)], 10)
    assert len(train_multiclass(X2, y2, spec).machines) == 1
    centers = [(6.0 * np.cos(a), 6.0 * np.sin(a))
               for a in np.linspace(0, 2 * np.pi, 12, endpoint=False)]
    X12, y12 = _blobs(rng, centers, 4, spread=0.3)
    model = train_multiclass(X12, y12, spec)
    assert len(model.machines) == 66
    assert model.pairs == tuple(
        (a, b) for a in range(12) for b in range(a + 1, 12)
    )


def test_blobs_train_accuracy_and_vote_oracle():
    rng = np.random.default_rng(69)
    X, y = _blobs(rng, [(0.0, 0.0), (4.0, 4.0), (-4.0, 4.0)], 30, spread=0.5)
    model = train_multiclass(X, y, KernelSpec("rbf", 10.0, gamma=0.5))
    got = predict_batch(model, X)
    assert np.all(got == y)

    # independent vote recount from raw decision values
    holdout = rng.standard_normal((40, 2)) * 3.0 + [0.0, 2.0]
    decisions = decision_values(model, holdout)
    for row, want in zip(decisions, predict_batch(model, holdout)):
        votes = {c: 0 for c in model.classes}
        strength = {c: 0.0 for c in model.classes}
        for (a, b), f in zip(model.pairs, row):
            winner = b if f > 0 else a
            votes[winner] += 1
            strength[winner] += abs(f)
        top = max(votes.values())
        tied = [c for c in model.classes if votes[c] == top]
        best = max(strength[c] for c in tied)
        tied = [c for c in tied if strength[c] == best]
        assert min(tied) == want
        assert sum(votes.values()) == len(model.pairs)


def test_two_class_predict_matches_sign():
    rng = np.random.default_rng(70)
    X, y = _blobs(rng, [(-2.0, 0.0), (2.0, 0.0)], 25, spread=0.7)
    model = train_multiclass(X, y, KernelSpec("linear", 1.0))
    probes = rng.standard_normal((30, 2)) * 2.5
    f = decision_values(model, probes)[:, 0]
    want = np.where(f > 0, 1, 0)
    assert np.all(predict_batch(model, probes) == want)
    assert predict(model, probes[0]) == want[0]


def test_margin_support_vectors_sit_on_unit_margin():
    rng = np.random.default_rng(71)
    X, labels = _blobs(rng, [(-3.0, 0.0), (3.0, 0.0)], 30, spread=0.5)
    y = np.where(labels == 1, 1.0, -1.0)
    spec = KernelSpec("linear", 1000.0)
    tol = 1e-5
    model = train_binary_smo(X, y, spec, tol=tol)
    free = np.abs(model.dual_coef) < spec.c * (1 - 1e-9)
    assert free.any()
    f = model.decision(model.support_vectors[free])
    assert np.max(np.abs(np.abs(f) - 1.0)) <= 10 * tol


def test_decision_antisymmetry_under_label_flip():
    rng = np.random.default_rng(72)
    X, labels = _blobs(rng, [(-2.0, 0.0), (2.0, 0.0)], 20, spread=0.6)
    y = np.where(labels == 1, 1.0, -1.0)
    spec = KernelSpec("rbf", 5.0, gamma=0.3)
    m_fwd = train_binary_smo(X, y, spec, tol=1e-8)
    m_rev = train_binary_smo(X, -y, spec, tol=1e-8)
    probes = rng.standard_normal((25, 2)) * 2.0
    assert np.max(np.abs(m_fwd.decision(probes) + m_rev.decision(probes))) <= 1e-6


def test_symmetric_data_zero_decision_at_origin():
    rng = np.random.default_rng(73)
    half = rng.standard_normal((15, 3)) + np.array([2.0, 0.0, 0.0])
    X = np.vstack([half, -half])
    y = np.concatenate([np.ones(15), -np.ones(15)])
    model = train_binary_smo(X, y, KernelSpec("linear", 1.0), tol=1e-8)
    assert abs(model.decision(np.zeros(3))) <= 1e-6


def test_dimension_checks():
    rng = np.random.default_rng(74)
    X, y = _blobs(rng, [(-2.0, 0.0), (2.0, 0.0)], 10)
    model = train_multiclass(X, y, KernelSpec("linear", 1.0))
    with pytest.raises(DimensionMismatch):
        predict(model, np.ones(3))
    with pytest.raises(DimensionMismatch):
        decision_values(model, np.ones((4, 5)))


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------

def _grid_data(seed=75, n_per=30):
    rng = np.random.default_rng(seed)
    return _blobs(rng, [(0.0, 0.0), (3.5, 3.5), (-3.5, 3.5)], n_per, spread=0.6)


def test_single_cell_grid():
    X, y = _grid_data()
    cells = grid_search(X, y, {"rbf": [KernelSpec("rbf", 10.0, gamma=0.5)]},
                        SplitSpec(0.8))
    assert len(cells) == 1
    assert cells[0].error is None
    assert 0.0 <= cells[0].accuracy <= 1.0


def test_grid_ranking_and_best_per_kind():
    X, y = _grid_data()
    grids = {
        "linear": [KernelSpec("linear", c) for c in (0.1, 1.0)],
        "rbf": [KernelSpec("rbf", c, gamma=g)
                for c in (1.0, 10.0) for g in (0.5, 0.05)],
    }
    cells = grid_search(X, y, grids, SplitSpec(0.8))
    assert len(cells) == 6
    accs = [c.accuracy for c in cells]
    assert all(a >= b for a, b in zip(accs, accs[1:]))
    best = best_per_kind(cells)
    assert set(best) == {"linear", "rbf"}
    for cell in cells:
        assert best[cell.spec.kind].accuracy >= cell.accuracy


def test_grid_records_failures_without_raising():
    X, y = _grid_data(n_per=40)
    cells = grid_search(X, y, {"rbf": [KernelSpec("rbf", 100.0, gamma=0.5)]},
                        SplitSpec(0.8), tol=1e-12, max_passes=1)
    assert len(cells) == 1
    assert cells[0].accuracy is None
    assert "converge" in cells[0].error


def test_grid_kind_mismatch_rejected():
    X, y = _grid_data()
    with pytest.raises(InvalidArgument):
        grid_search(X, y, {"linear": [KernelSpec("rbf", 1.0, gamma=0.1)]},
                    SplitSpec(0.8))


def test_default_grids_cover_reference_settings():
    grids = default_grids()
    assert [s.c for s in grids["linear"]] == [0.1, 1.0, 10.0, 100.0]
    assert all(s.c == 1.0 for s in grids["poly"])
    assert sorted({s.degree for s in grids["poly"]}) == [2, 3, 4]
    assert any(s.c == 100.0 and s.gamma == 0.01 for s in grids["rbf"])


def test_split_rows_protocol():
    labels = np.array([0] * 10 + [1] * 5)
    train, test = split_rows(labels, SplitSpec(0.8))
    assert list(train) == list(range(8)) + list(range(10, 14))
    assert list(test) == [8, 9, 14]
    # random mode is deterministic per seed
    t1, _ = split_rows(labels, SplitSpec(0.8, mode="random", seed=5))
    t2, _ = split_rows(labels, SplitSpec(0.8, mode="random", seed=5))
    t3, _ = split_rows(labels, SplitSpec(0.8, mode="random", seed=6))
    assert np.array_equal(t1, t2)
    assert not np.array_equal(t1, t3)


def test_binary_svm_invariants():
    with pytest.raises(InvalidArgument):
        BinarySvm(
            support_vectors=np.ones((2, 2)),
            dual_coef=np.array([0.0, 1.0]),  # zero coefficient
            bias=0.0,
            kernel=KernelSpec("linear", 1.0),
        )
    with pytest.raises(InvalidArgument):
        BinarySvm(
            support_vectors=np.ones((1, 2)),
            dual_coef=np.array([5.0]),  # exceeds C
            bias=0.0,
            kernel=KernelSpec("linear", 1.0),
        )
