"""SMO training, one-vs-one prediction, and grid search."""

import numpy as np
import pytest

from eegid import svm
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
    MulticlassSvmModel,
    SplitSpec,
    best_per_kind,
    decision_values,
    default_grids,
    dual_objective,
    gram,
    grid_search,
    max_kkt_violation,
    predict,
    predict_batch,
    split_rows,
    train_binary_smo,
    train_multiclass,
)
from qp_oracle import kernel_eval, reference_dual_objective, scalar_wss2, solve_dual_reference


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
    for degree in (2.7, 0, float("nan")):
        with pytest.raises(InvalidArgument, match="integer degree"):
            KernelSpec("poly", 1.0, gamma=0.1, degree=degree)
    spec = KernelSpec("poly", 1.0, gamma=0.1, degree=2.0)
    assert spec.degree == 2 and type(spec.degree) is int


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


HOOK_SPECS = (KernelSpec("rbf", 5.0, gamma=0.7), KernelSpec("linear", 5.0),
              KernelSpec("poly", 5.0, gamma=0.5, degree=3))


def _dual_monitor(spec, X, y):
    """A step_hook that checks feasibility and a dual objective that never
    falls, for the pair problem (X, y); also returns the objective values
    seen, starting from 0 at alpha = 0."""
    seen = [0.0]

    def hook(alpha, b):
        assert np.all(alpha >= -1e-9)
        assert np.all(alpha <= spec.c + 1e-9)
        assert abs(np.dot(alpha, y)) <= 1e-9
        # no pair update may lower the dual objective
        w = dual_objective(spec, X, y, alpha)
        assert w >= seen[-1] - 1e-12 * abs(seen[-1]), (
            spec.describe(), len(seen), w, seen[-1])
        seen.append(w)

    return hook, seen


def test_dual_feasible_at_every_step():
    rng = np.random.default_rng(63)
    X, labels = _blobs(rng, [(-1.0, 0.0), (1.0, 0.0)], 30, spread=1.2)
    y = np.where(labels == 1, 1.0, -1.0)
    for spec in HOOK_SPECS:
        hook, seen = _dual_monitor(spec, X, y)
        train_binary_smo(X, y, spec, tol=1e-3, step_hook=hook)
        assert len(seen) > 1, spec.describe()


def test_multiclass_step_hook_fires_per_pair_update():
    rng = np.random.default_rng(63)
    # classes of 10, 13 and 17 rows make pairs of 23, 27 and 30 rows, so
    # the length of the alpha a hook call receives names its pair
    sizes = (10, 13, 17)
    X = np.vstack([rng.standard_normal((n, 2)) * 1.2 + center
                   for n, center in zip(sizes, [(-1.0, 0.0), (1.0, 0.0), (0.0, 1.0)])])
    labels = np.repeat([0, 1, 2], sizes)
    for spec in HOOK_SPECS:
        monitors, solo = {}, {}
        for a, b in ((0, 1), (0, 2), (1, 2)):
            mask = (labels == a) | (labels == b)
            y = np.where(labels[mask] == b, 1.0, -1.0)
            monitors[y.size] = _dual_monitor(spec, X[mask], y)
            solo[y.size] = []
            train_binary_smo(X[mask], y, spec, tol=1e-3,
                             step_hook=lambda alpha, b, n=y.size: solo[n].append(b))
        biases = {n: [] for n in solo}

        def hook(alpha, b):
            monitors[alpha.size][0](alpha, b)
            biases[alpha.size].append(b)

        train_multiclass(X, labels, spec, tol=1e-3, step_hook=hook)
        # one call per pair update, with the bias the pair alone reports
        assert biases == solo, spec.describe()
        assert all(len(seen) > 1 for _, seen in monitors.values())


def test_uncached_rows_match_cached_gram(monkeypatch):
    rng = np.random.default_rng(76)
    X, labels = _blobs(rng, [(-1.0, 0.0, 0.5), (1.0, 0.3, -0.5)], 40, spread=1.0)
    y = np.where(labels == 1, 1.0, -1.0)
    n = len(y)
    probes = rng.standard_normal((50, 3)) * 1.5
    specs = (KernelSpec("linear", 1.0), KernelSpec("poly", 2.0, gamma=0.5, degree=3),
             KernelSpec("rbf", 5.0, gamma=0.5))
    # a one-row gram may differ in the last bit from a row of the full
    # matrix, which can steer the solver down another path to the same
    # optimum; a tight tolerance pins both runs to that optimum
    tol = 1e-11
    cached = [train_binary_smo(X, y, spec, tol=tol) for spec in specs]
    shapes = []
    real_gram = svm.gram

    def counting_gram(k, A, B):
        shapes.append((np.atleast_2d(A).shape[0], np.atleast_2d(B).shape[0]))
        return real_gram(k, A, B)

    monkeypatch.setattr(svm, "KERNEL_CACHE_LIMIT", n - 1)
    monkeypatch.setattr(svm, "gram", counting_gram)
    for spec, want in zip(specs, cached):
        shapes.clear()
        steps = []
        got = train_binary_smo(X, y, spec, tol=tol,
                               step_hook=lambda alpha, b: steps.append(b))
        # two kernel rows per pair update and no other kernel call: no
        # n x n matrix and no per-element diagonal
        assert shapes == [(1, n)] * (2 * len(steps)), spec.describe()
        assert np.array_equal(got.support_vectors, want.support_vectors)
        assert np.max(np.abs(got.dual_coef - want.dual_coef)) <= 1e-9
        signs = np.sign(got.decision(probes))
        assert np.all(signs != 0)
        assert np.array_equal(signs, np.sign(want.decision(probes)))


LOCKSTEP_SPECS = (KernelSpec("linear", 1.0),
                  KernelSpec("poly", 1.0, gamma=0.5, degree=3),
                  KernelSpec("rbf", 10.0, gamma=0.5))


def test_binary_smo_follows_scalar_reference():
    rng = np.random.default_rng(79)
    X, labels = _blobs(rng, [(-1.0, 0.3), (1.0, -0.3)], 25, spread=1.1)
    y = np.where(labels == 1, 1.0, -1.0)
    for spec in LOCKSTEP_SPECS + (KernelSpec("rbf", 100.0, gamma=2.0),):
        got = train_binary_smo(X, y, spec, tol=1e-3)
        alpha, bias = scalar_wss2(gram(spec, X, X), y, spec.c, 1e-3, 1000 * y.size)
        keep = alpha > 0
        assert np.array_equal(got.support_vectors, X[keep]), spec.describe()
        assert np.array_equal(got.dual_coef, (alpha * y)[keep]), spec.describe()
        assert got.bias == bias, spec.describe()


@pytest.mark.parametrize("limit", [None, 40, 16])
def test_lockstep_machines_equal_solo(monkeypatch, limit):
    rng = np.random.default_rng(78)
    sizes = (6, 11, 8, 14, 9)  # unequal, so shorter pairs are padded
    X = np.vstack([rng.standard_normal((n, 3)) * 1.2 + rng.uniform(-2.0, 2.0, 3)
                   for n in sizes])
    labels = np.repeat(np.arange(5), sizes)
    pair_rows = [sizes[a] + sizes[b] for a in range(5) for b in range(a + 1, 5)]
    if limit is not None:
        # 40: runs of 2-4 cached pairs; 16: the pairs above 16 rows run
        # alone and uncached between single cached ones
        monkeypatch.setattr(svm, "KERNEL_CACHE_LIMIT", limit)
    assert (len(svm._cache_groups(pair_rows)) > 2) == (limit is not None)
    probes = rng.standard_normal((20, 3)) * 2.0
    for spec in LOCKSTEP_SPECS:
        model = train_multiclass(X, labels, spec, max_passes=5000)
        for (a, b), machine in zip(model.pairs, model.machines):
            mask = (labels == a) | (labels == b)
            y = np.where(labels[mask] == b, 1.0, -1.0)
            solo = train_binary_smo(X[mask], y, spec, max_passes=5000)
            assert np.array_equal(machine.support_vectors, solo.support_vectors)
            assert np.array_equal(machine.dual_coef, solo.dual_coef)
            assert machine.bias == solo.bias, (spec.describe(), a, b)
        # the shared support vectors are distinct rows of X in training
        # order, each used by some pair, and pair p's coefficients are 0
        # off its own rows
        hits = (model.support_vectors[:, None, :] == X[None, :, :]).all(axis=2)
        assert np.all(hits.sum(axis=1) == 1)
        assert np.all(np.diff(hits.argmax(axis=1)) > 0)
        assert model.dual_coef.any(axis=0).all()
        sv_labels = labels[hits.argmax(axis=1)]
        for (a, b), coef in zip(model.pairs, model.dual_coef):
            assert not coef[(sv_labels != a) & (sv_labels != b)].any()
        for rows in (X, probes):
            per_pair = np.column_stack([m.decision(rows) for m in model.machines])
            assert np.allclose(decision_values(model, rows), per_pair,
                               rtol=0.0, atol=1e-12)
            with monkeypatch.context() as patch:  # vote on the per-pair values
                patch.setattr(svm, "decision_values", lambda m, X: per_pair)
                want = predict_batch(model, rows)
            assert np.array_equal(predict_batch(model, rows), want)


def test_cache_groups_hold_at_most_limit_squared(monkeypatch):
    monkeypatch.setattr(svm, "KERNEL_CACHE_LIMIT", 100)
    sizes = [30, 40, 20, 60, 101, 50, 150, 10, 10, 10, 99, 10]
    groups = svm._cache_groups(sizes)
    assert sum(groups, []) == list(range(len(sizes)))  # consecutive, in order
    for group in groups:
        width = max(sizes[p] for p in group)
        if width > 100:
            assert len(group) == 1
        else:
            assert len(group) * width**2 <= 100**2
    # a run takes the next pair while its padded caches stay under the cap
    assert groups == [[0, 1, 2], [3], [4], [5], [6], [7, 8, 9], [10], [11]]


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


def test_multiclass_nonconvergence_names_first_failing_pair():
    rng = np.random.default_rng(67)
    # (0,1) is separable and converges; (0,2) and (1,2) overlap and both
    # run out of budget, (1,2) first, as it has fewer rows
    X = np.vstack([rng.standard_normal((20, 2)) * 0.3 + (-6.0, 0.0),
                   rng.standard_normal((12, 2)) * 0.3 + (6.0, 0.0),
                   rng.standard_normal((30, 2)) * 4.0])
    labels = np.repeat([0, 1, 2], [20, 12, 30])
    spec = KernelSpec("linear", 100.0)
    solo = {}
    for a, b in ((0, 1), (0, 2), (1, 2)):
        mask = (labels == a) | (labels == b)
        y = np.where(labels[mask] == b, 1.0, -1.0)
        try:
            train_binary_smo(X[mask], y, spec, tol=1e-6, max_passes=1)
            solo[a, b] = None
        except NonConvergence as e:
            solo[a, b] = e
    assert solo[0, 1] is None and solo[0, 2] and solo[1, 2]
    with pytest.raises(NonConvergence) as ei:
        train_multiclass(X, labels, spec, tol=1e-6, max_passes=1)
    assert str(ei.value) == f"pair (0,2): {solo[0, 2]}"
    assert ei.value.kkt_violation == solo[0, 2].kkt_violation


def test_nonconvergence_is_reported():
    rng = np.random.default_rng(67)
    X, labels = _blobs(rng, [(-0.2, 0.0), (0.2, 0.0)], 50, spread=2.0)
    y = np.where(labels == 1, 1.0, -1.0)
    steps = []
    with pytest.raises(NonConvergence) as ei:
        train_binary_smo(X, y, KernelSpec("rbf", 100.0, gamma=0.5),
                         tol=1e-9, max_passes=2,
                         step_hook=lambda alpha, b: steps.append(b))
    assert len(steps) == 2 * len(y)  # the whole budget, and not one more
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


def test_three_way_vote_ties():
    # linear machines with one unit support vector each, so the decision
    # value of pair j on a probe row is that row's column j
    spec = KernelSpec("linear", 1.0)
    eye = np.eye(3)
    model = MulticlassSvmModel(classes=(3, 5, 7), support_vectors=eye,
                               dual_coef=eye, bias=np.zeros(3), kernel=spec)
    # pairs (3,5), (3,7), (5,7); f > 0 votes for the second class
    rows = np.array([
        [-1.0, 2.0, -0.5],   # one vote each; 7 has the largest won |f|
        [-2.0, 2.0, -2.0],   # one vote each, equal strength: lowest label
        [-1.0, 2.0, -2.0],   # 5 and 7 tie on strength 2: the lower, 5
        [-0.1, -0.1, 5.0],   # 3 has two votes, whatever 7's strength
        [0.0, 0.0, 0.0],     # f = 0 votes for the first class: 3, 3, 5
        [1.0, -1.0, 1.0],    # one vote each, equal strength: lowest label
    ])
    want = [7, 3, 5, 3, 3, 3]
    assert list(predict_batch(model, rows)) == want
    assert [predict(model, r) for r in rows] == want


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


def _no_gram(*args):
    raise AssertionError("a Gram matrix was built")


def test_solver_arguments_rejected_before_any_kernel(monkeypatch):
    X, y = _grid_data()
    nan_X = X.copy()
    nan_X[3, 1] = np.nan
    spec = KernelSpec("linear", 1.0)
    monkeypatch.setattr(svm, "gram", _no_gram)
    for rows, kw, text in ((X, {"tol": 0.0}, "tol must be > 0"),
                           (X, {"max_passes": 0}, "max_passes >= 1"),
                           (nan_X, {}, "must be finite")):
        with pytest.raises(InvalidArgument, match=text) as ei:
            train_multiclass(rows, y, spec, **kw)
        assert "pair" not in str(ei.value)
        with pytest.raises(InvalidArgument, match=text) as ei:
            grid_search(rows, y, {"linear": [spec]}, SplitSpec(0.8), **kw)
        assert "pair" not in str(ei.value)


def test_grid_kind_mismatch_rejected(monkeypatch):
    X, y = _grid_data()
    linear = [KernelSpec("linear", c) for c in (0.1, 1.0)]
    rbf = [KernelSpec("rbf", 1.0, gamma=0.1)]
    stray = KernelSpec("poly", 1.0, gamma=0.1, degree=2)
    # the whole grid is checked before the first cell is fitted, wherever
    # the stray spec sits
    monkeypatch.setattr(svm, "gram", _no_gram)
    for grids in ({"linear": [stray]},
                  {"linear": [stray] + linear, "rbf": rbf},
                  {"linear": [linear[0], stray, linear[1]], "rbf": rbf},
                  {"linear": linear, "rbf": rbf + [stray]}):
        with pytest.raises(InvalidArgument, match="contains a 'poly' spec"):
            grid_search(X, y, grids, SplitSpec(0.8))


def _grid_models(monkeypatch, X, y, grids, **kw):
    """grid_search's cells, and the model it trained for each spec, taken
    from its predict_batch calls."""
    models, real = {}, svm.predict_batch

    def capture(model, rows):
        models[model.kernel] = model
        return real(model, rows)

    with monkeypatch.context() as patch:
        patch.setattr(svm, "predict_batch", capture)
        cells = grid_search(X, y, grids, SplitSpec(0.8), **kw)
    return cells, models


@pytest.mark.parametrize("limit", [None, 29])
def test_grid_cells_equal_solo_fits(monkeypatch, limit):
    rng = np.random.default_rng(81)
    # 6, 6, 24, 6, 6 training rows: with limit 29 the 30-row pairs of
    # subject 2 run alone and uncached, and the 12-row pairs share groups,
    # one of which joins the last pair of a cell to the first of the next
    sizes = (7, 7, 30, 7, 7)
    X = np.vstack([rng.standard_normal((n, 2)) * 1.2 + rng.uniform(-2.0, 2.0, 2)
                   for n in sizes])
    labels = np.repeat(np.arange(5), sizes)
    grids = {
        "linear": [KernelSpec("linear", c) for c in (0.1, 10.0)],
        "poly": [KernelSpec("poly", 1.0, gamma=0.5, degree=2),
                 KernelSpec("poly", 5.0, gamma=0.5, degree=3)],
        "rbf": [KernelSpec("rbf", c, gamma=g)
                for c, g in ((1.0, 0.5), (100.0, 0.5), (10.0, 2.0))],
    }
    train, test = split_rows(labels, SplitSpec(0.8))
    if limit is not None:
        monkeypatch.setattr(svm, "KERNEL_CACHE_LIMIT", limit)
        n = np.bincount(labels[train])
        pair_rows = [n[a] + n[b] for a in range(5) for b in range(a + 1, 5)] * 7
        groups = svm._cache_groups(pair_rows)
        assert [g for g in groups if pair_rows[g[0]] > limit] == \
            [[p] for p, rows in enumerate(pair_rows) if rows > limit] != []
        assert any(g[0] // 10 != g[-1] // 10 for g in groups)
    cells, models = _grid_models(monkeypatch, X, labels, grids, max_passes=5000)
    assert len(cells) == len(models) == 7
    for cell in cells:
        solo = train_multiclass(X[train], labels[train], cell.spec, max_passes=5000)
        got = models[cell.spec]
        assert got.classes == solo.classes
        assert np.array_equal(got.support_vectors, solo.support_vectors)
        assert np.array_equal(got.dual_coef, solo.dual_coef), cell.spec.describe()
        assert np.array_equal(got.bias, solo.bias), cell.spec.describe()
        want = float(np.mean(predict_batch(solo, X[test]) == labels[test]))
        assert cell.error is None and cell.accuracy == want


def test_grid_failure_stays_in_its_cell(monkeypatch):
    X, y = _grid_data(n_per=40)
    train, test = split_rows(y, SplitSpec(0.8))
    converges, fails = KernelSpec("linear", 1.0), KernelSpec("rbf", 100.0, gamma=0.5)
    kw = {"tol": 1e-12, "max_passes": 1}
    with pytest.raises(NonConvergence) as ei:
        train_multiclass(X[train], y[train], fails, **kw)
    solo = train_multiclass(X[train], y[train], converges, **kw)
    cells, models = _grid_models(monkeypatch, X, y,
                                 {"linear": [converges], "rbf": [fails]}, **kw)
    good, bad = cells
    assert bad.spec == fails and bad.accuracy is None
    assert bad.error == str(ei.value)
    assert good.spec == converges and good.error is None
    assert good.accuracy == float(np.mean(predict_batch(solo, X[test]) == y[test]))
    assert list(models) == [converges]


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


# ---------------------------------------------------------------------------
# C ladders: the pair problems of specs that differ only in C
# ---------------------------------------------------------------------------

def _ladder_data(spread, seed=90, n_per=12):
    rng = np.random.default_rng(seed)
    return _blobs(rng, [(0.0, 0.0), (3.5, 3.5), (-3.5, 3.5)], n_per, spread=spread)


def _grid_equals_solo(monkeypatch, X, labels, grids, **kw):
    """Check every grid cell against train_multiclass of its spec alone, bit
    for bit: the model it trained and its accuracy, or its NonConvergence
    text. Returns the solo models (None where the fit failed), in grid
    order, and the lane updates of the grid and of all solo fits."""
    fitted, updates, real_predict, real_lockstep = [], [], svm.predict_batch, svm._lockstep

    def capture(model, rows):
        fitted.append(model)
        return real_predict(model, rows)

    def lockstep(y, diag, rows, *rest):  # counts one lane update per row pick
        def counted(idx):
            updates.append(len(idx[0]) / 2)
            return rows(idx)
        return real_lockstep(y, diag, counted, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(svm, "predict_batch", capture)
        patch.setattr(svm, "_lockstep", lockstep)
        cells = grid_search(X, labels, grids, SplitSpec(0.8), **kw)
        grid_updates = sum(updates)
        updates.clear()
        train, test = split_rows(labels, SplitSpec(0.8))
        specs = [spec for kind in sorted(grids) for spec in grids[kind]]
        solos = []
        for spec in specs:
            try:
                solos.append(train_multiclass(X[train], labels[train], spec, **kw))
            except NonConvergence as e:
                solos.append(e)
    assert len(cells) == len(specs)
    fitted = iter(fitted)
    for spec, solo in zip(specs, solos):
        cell = next(c for c in cells if c.spec == spec)
        if isinstance(solo, NonConvergence):
            assert cell.accuracy is None and cell.error == str(solo), spec.describe()
            continue
        got = next(fitted)
        assert got.kernel == spec
        assert np.array_equal(got.support_vectors, solo.support_vectors)
        assert np.array_equal(got.dual_coef, solo.dual_coef), spec.describe()
        assert np.array_equal(got.bias, solo.bias), spec.describe()
        want = float(np.mean(predict_batch(solo, X[test]) == labels[test]))
        assert cell.error is None and cell.accuracy == want, spec.describe()
    assert next(fitted, None) is None
    return ([None if isinstance(m, NonConvergence) else m for m in solos],
            grid_updates, sum(updates))


def test_ladder_that_never_forks_runs_as_one_lane(monkeypatch):
    X, labels = _ladder_data(spread=0.6)
    ladder = [KernelSpec("linear", c) for c in (10.0, 1.0, 100.0)]
    solos, grid, solo = _grid_equals_solo(monkeypatch, X, labels, {"linear": ladder})
    # no alpha reaches the smallest C, so the three specs share every update
    assert all(np.abs(m.dual_coef).max() < 1.0 for m in solos)
    assert 0 < grid == solo / 3


def test_ladder_that_forks_equals_solo_fits(monkeypatch):
    X, labels = _ladder_data(spread=1.5)
    grids = {"linear": [KernelSpec("linear", c) for c in (100.0, 0.05, 1.0, 10.0, 0.01)],
             "rbf": [KernelSpec("rbf", c, gamma=0.5) for c in (0.1, 50.0)]}
    solos, grid, solo = _grid_equals_solo(monkeypatch, X, labels, grids)
    # every C binds, so every ladder forks, but after a shared prefix
    for spec, model in zip(grids["linear"] + grids["rbf"], solos):
        assert np.any(np.abs(model.dual_coef) == spec.c), spec.describe()
    assert 0 < grid < solo


def test_ladder_with_equal_cs_equals_solo_fits(monkeypatch):
    X, labels = _ladder_data(spread=1.5)
    ladder = [KernelSpec("linear", c) for c in (1.0, 0.05, 0.05, 1.0, 1.0)]
    poly = KernelSpec("poly", 0.5, gamma=0.5, degree=2)
    solos, _, _ = _grid_equals_solo(monkeypatch, X, labels,
                                    {"linear": ladder, "poly": [poly, poly]})
    assert all(np.any(np.abs(m.dual_coef) == 0.05) for m in solos[1:3])


def test_lone_uncached_ladder_equals_solo_fits(monkeypatch):
    X, labels = _ladder_data(spread=1.5, n_per=20)
    two = labels < 2
    X, labels = X[two], labels[two]
    n = len(split_rows(labels, SplitSpec(0.8))[0])
    monkeypatch.setattr(svm, "KERNEL_CACHE_LIMIT", n - 1)
    shapes, real_gram = [], svm.gram

    def counting_gram(k, A, B):
        shapes.append((np.atleast_2d(A).shape[0], np.atleast_2d(B).shape[0]))
        return real_gram(k, A, B)

    monkeypatch.setattr(svm, "gram", counting_gram)
    ladder = [KernelSpec("rbf", c, gamma=0.5) for c in (0.05, 1.0, 1.0, 20.0)]
    solos, grid, solo = _grid_equals_solo(monkeypatch, X, labels, {"rbf": ladder})
    assert np.any(np.abs(solos[0].dual_coef) == 0.05)
    # two one-row grams per lane update and no n x n matrix, grid and solo
    # fits alike; the grid's lanes share their rows among their members
    assert shapes.count((1, n)) == 2 * (grid + solo) and (n, n) not in shapes
    assert 0 < grid < solo


def test_ladder_member_out_of_budget_keeps_its_own_error(monkeypatch):
    kw = {"tol": 1e-6, "max_passes": 1}
    for spread, cs in ((1.5, (100.0, 0.01, 0.05)), (3.0, (0.01, 1.0, 0.05))):
        X, labels = _ladder_data(spread=spread)
        solos, _, _ = _grid_equals_solo(
            monkeypatch, X, labels, {"linear": [KernelSpec("linear", c) for c in cs]}, **kw)
        # one member converges while another exhausts its budget
        assert None in solos and any(m is not None for m in solos), spread


@pytest.mark.parametrize("separate", [False, True])
def test_grid_forms_each_pairs_dot_products_once_per_group(monkeypatch, separate):
    X, labels = _ladder_data(spread=1.5, n_per=10)  # three pairs of 16 training rows
    train, _ = split_rows(labels, SplitSpec(0.8))
    grids = {"linear": [KernelSpec("linear", c) for c in (0.1, 10.0)],
             "poly": [KernelSpec("poly", 1.0, gamma=0.5, degree=2)],
             "rbf": [KernelSpec("rbf", 10.0, gamma=g) for g in (0.5, 2.0)]}
    if separate:  # a cache group per ladder
        monkeypatch.setattr(svm, "KERNEL_CACHE_LIMIT", 16)
    calls, real_gram = [], svm.gram

    def counting_gram(k, A, B):
        if A is B:  # the training Gram of a pair row set
            calls.append((k.kind, A.copy()))
        return real_gram(k, A, B)

    monkeypatch.setattr(svm, "gram", counting_gram)
    with monkeypatch.context() as patch:
        patch.setattr(svm, "predict_batch", lambda model, rows: np.zeros(len(rows)))
        grid_search(X, labels, grids, SplitSpec(0.8))
    Xt, yt = X[train], labels[train]
    pair_rows = [Xt[(yt == a) | (yt == b)] for a, b in ((0, 1), (0, 2), (1, 2))]
    # ladders of 3 pairs x 4 kernels: one group, or one group each
    want = pair_rows * 4 if separate else pair_rows
    assert all(kind == "linear" for kind, _ in calls)
    assert len(calls) == len(want)
    assert all(np.array_equal(x, w) for (_, x), w in zip(calls, want))
    calls.clear()
    _grid_equals_solo(monkeypatch, X, labels, grids)  # the cells did not change


def test_step_hook_fires_once_per_ladder_member_update():
    X, labels = _ladder_data(spread=1.5, n_per=8)
    specs = [KernelSpec("linear", c) for c in (1.0, 0.05, 0.05, 10.0)] + \
        [KernelSpec("rbf", c, gamma=0.5) for c in (0.1, 5.0)]
    # every member's hook calls, compared as a multiset with the solo fits'
    seen, want = [], []
    svm._train_specs(X, labels, specs, 1e-3, 1000,
                     lambda alpha, b: seen.append((alpha.tobytes(), b)))
    for spec in specs:
        for a, b in ((0, 1), (0, 2), (1, 2)):
            mask = (labels == a) | (labels == b)
            y = np.where(labels[mask] == b, 1.0, -1.0)
            train_binary_smo(X[mask], y, spec,
                             step_hook=lambda alpha, b: want.append((alpha.tobytes(), b)))
    assert len(seen) == len(want) > 0
    assert sorted(seen) == sorted(want)
