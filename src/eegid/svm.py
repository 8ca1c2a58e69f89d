"""Kernel SVM trained from scratch with sequential minimal optimization,
a one-vs-one multiclass wrapper, the per-class train/test split, and
hyperparameter grid search.

The SMO solver updates one pair of alphas per iteration, chosen by WSS2,
the second-order working-set selection of Fan, Chen & Lin (JMLR 6, 2005)
that LIBSVM uses. With score_t = y_t - f(x_t) + b, the bias that would put
example t on its margin, i is the example of largest score among those
whose alpha may still move along y (I_up), and j the example of I_low
(alpha may move against y) with score below m = score_i that maximizes
the second-order gain (m - score_j)^2 / (K_ii + K_jj - 2 K_ij). The pair
step is clipped to the box so that bound alphas land exactly on 0 or C,
and the score vector is updated with the two kernel rows. Training stops
when m - M <= tol, M being the smallest score over I_low: every bias in
[M, m] then meets each example's KKT condition within tol. Each step is
a few O(n) numpy passes over the cached Gram matrix (one kernel row per
chosen example when the pair has more than KERNEL_CACHE_LIMIT rows);
both choices take the lowest index among ties, so training is
deterministic for fixed inputs.

Decision convention for a pair (a, b) with a < b: training labels are -1
for class a and +1 for class b, so f(x) > 0 votes for b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EegIdError,
    InvalidArgument,
    NonConvergence,
    SingleClassInput,
    SubjectTooSmall,
)

KERNEL_KINDS = ("linear", "poly", "rbf")

# pair problems up to this many rows precompute the full Gram matrix
KERNEL_CACHE_LIMIT = 4096

DEFAULT_TOL = 1e-3
DEFAULT_MAX_PASSES = 1000

# curvature used in place of a non-positive a_ij = K_ii + K_jj - 2 K_ij
_TAU = 1e-12

# alphas within this fraction of C of a box bound count as at-bound:
# floating-point update arithmetic leaves optimal coefficients a few ulps
# off 0 or C, which must not masquerade as free support vectors; kept at
# ulp scale so genuinely tiny coefficients are never rounded away
_BOUND_BAND = 1e-12


@dataclass(frozen=True)
class KernelSpec:
    """Kernel kind plus its hyperparameters (C always; gamma/degree as needed)."""

    kind: str
    c: float
    gamma: float | None = None
    degree: int | None = None
    coef0: float = 0.0

    def __post_init__(self):
        kind = "poly" if self.kind == "polynomial" else self.kind
        object.__setattr__(self, "kind", kind)
        if kind not in KERNEL_KINDS:
            raise InvalidArgument(f"unknown kernel kind {self.kind!r}")
        if not (np.isfinite(self.c) and self.c > 0):
            raise InvalidArgument(f"C must be > 0, got {self.c}")
        if kind in ("poly", "rbf"):
            if self.gamma is None or not (np.isfinite(self.gamma) and self.gamma > 0):
                raise InvalidArgument(f"{kind} kernel needs gamma > 0, got {self.gamma}")
        if kind == "poly":
            if self.degree is None or int(self.degree) < 1:
                raise InvalidArgument(f"poly kernel needs degree >= 1, got {self.degree}")
            object.__setattr__(self, "degree", int(self.degree))

    def describe(self) -> str:
        parts = [f"kind={self.kind}", f"C={self.c:g}"]
        if self.kind in ("poly", "rbf"):
            parts.append(f"gamma={self.gamma:g}")
        if self.kind == "poly":
            parts.append(f"degree={self.degree}")
            parts.append(f"coef0={self.coef0:g}")
        return " ".join(parts)


def gram(k: KernelSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kernel matrix K[i, j] = k(A[i], B[j])."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise DimensionMismatch(f"{A.shape[1]}-dim rows vs {B.shape[1]}-dim rows")
    if k.kind == "linear":
        return A @ B.T
    if k.kind == "poly":
        return (k.gamma * (A @ B.T) + k.coef0) ** k.degree
    sq = (
        np.sum(A * A, axis=1)[:, None]
        + np.sum(B * B, axis=1)[None, :]
        - 2.0 * (A @ B.T)
    )
    return np.exp(-k.gamma * np.clip(sq, 0.0, None))


def kernel_eval(k: KernelSpec, x, y) -> float:
    """Scalar kernel value for two vectors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionMismatch(f"vector shapes {x.shape} vs {y.shape}")
    return float(gram(k, x[None, :], y[None, :])[0, 0])


def dual_objective(k: KernelSpec, X: np.ndarray, y: np.ndarray,
                   alpha: np.ndarray) -> float:
    """Soft-margin dual value: sum(alpha) - 1/2 (alpha*y)' K (alpha*y)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    ay = alpha * y
    return float(alpha.sum() - 0.5 * ay @ gram(k, X, X) @ ay)


def _kkt_violation(alpha: np.ndarray, margins: np.ndarray, c: float) -> float:
    """Largest KKT violation given each example's margin y_i f(x_i)."""
    band = _BOUND_BAND * c
    gap = np.where(alpha <= band, 1.0 - margins,
                   np.where(alpha >= c - band, margins - 1.0, np.abs(margins - 1.0)))
    return float(np.max(gap, initial=0.0))


def max_kkt_violation(k: KernelSpec, X: np.ndarray, y: np.ndarray,
                      alpha: np.ndarray, b: float) -> float:
    """Largest KKT violation of (alpha, b) for the soft-margin problem."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    f = gram(k, X, X).T @ (alpha * y) + b
    return _kkt_violation(alpha, y * f, k.c)


@dataclass(frozen=True)
class BinarySvm:
    """Trained two-class machine: f(x) = sum(dual_i k(sv_i, x)) + bias."""

    support_vectors: np.ndarray  # s x d
    dual_coef: np.ndarray  # s, equal to alpha_i * y_i, nonzero
    bias: float
    kernel: KernelSpec

    def __post_init__(self):
        sv = np.atleast_2d(np.asarray(self.support_vectors, dtype=float))
        dc = np.asarray(self.dual_coef, dtype=float)
        object.__setattr__(self, "support_vectors", sv)
        object.__setattr__(self, "dual_coef", dc)
        if sv.shape[0] != dc.shape[0]:
            raise InvalidArgument("one dual coefficient per support vector")
        if np.any(np.abs(dc) > self.kernel.c * (1 + 1e-9)) or np.any(dc == 0):
            raise InvalidArgument("dual coefficients must be nonzero with |.| <= C")

    @property
    def n_features(self) -> int:
        return self.support_vectors.shape[1]

    def decision(self, X) -> np.ndarray:
        """f(x) for one vector (scalar array) or a matrix of rows."""
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        values = gram(self.kernel, np.atleast_2d(X), self.support_vectors) \
            @ self.dual_coef + self.bias
        return values[0] if single else values


def _gram_diag(k: KernelSpec, X: np.ndarray) -> np.ndarray:
    """k(x_i, x_i) for every row, without forming the Gram matrix."""
    if k.kind == "rbf":
        return np.ones(X.shape[0])
    dots = np.einsum("ij,ij->i", X, X)
    return dots if k.kind == "linear" else (k.gamma * dots + k.coef0) ** k.degree


def _bias(alpha: np.ndarray, score: np.ndarray, c: float, m: float,
          gap: float) -> float:
    """Mean score over free support vectors; with none, the middle of
    [m - gap, m], the interval the bound examples leave for the bias."""
    band = _BOUND_BAND * c
    free = (alpha > band) & (alpha < c - band)
    if free.any():
        return float(np.mean(score[free]))
    return m - 0.5 * gap


def train_binary_smo(X, y, k: KernelSpec, tol: float = DEFAULT_TOL,
                     max_passes: int = DEFAULT_MAX_PASSES,
                     step_hook=None) -> BinarySvm:
    """Solve the soft-margin dual by SMO with WSS2 pair selection.

    Stops when m - M <= tol (see the module docstring), which leaves
    every example within tol of its KKT condition, or raises
    NonConvergence after max_passes * n pair updates for n rows (one
    "sweep" is n updates). `step_hook(alpha, b)`, if given, is called
    once after every pair update with the middle of the current bias
    interval (used by invariant tests and the benchmark's step count).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    if X.shape[0] != y.shape[0]:
        raise InvalidArgument("one label per row")
    if not np.isfinite(X).all():
        raise InvalidArgument("training rows must be finite")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise InvalidArgument("labels must be -1/+1")
    if np.unique(y).size < 2:
        raise SingleClassInput("training data contains a single class")
    if tol <= 0 or max_passes < 1:
        raise InvalidArgument("tol must be > 0 and max_passes >= 1")

    n, c = X.shape[0], k.c
    if n <= KERNEL_CACHE_LIMIT:
        cache = gram(k, X, X)
        diag = np.diag(cache).copy()
        krow = cache.__getitem__
    else:
        diag = _gram_diag(k, X)

        def krow(t: int) -> np.ndarray:
            return gram(k, X[t][None, :], X)[0]

    pos = y > 0
    alpha = np.zeros(n)
    # score = -y * G for the gradient G = Q alpha - 1 of the pair problem
    # (Q_ij = y_i y_j K_ij): y_t minus f(x_t) without the bias, i.e. the
    # bias that would put example t exactly on its margin
    score = y.copy()
    up = pos.copy()  # alpha_t may move along y_t: score_t bounds b from below
    low = ~pos  # alpha_t may move against y_t: score_t bounds b from above
    steps, budget = 0, max_passes * n
    while True:
        s_up = np.where(up, score, -np.inf)
        i = int(s_up.argmax())
        m = float(s_up[i])
        gain = np.where(low, m - score, -np.inf)
        gap = float(gain.max())  # m - M
        if steps and step_hook is not None:
            step_hook(alpha, m - 0.5 * gap)
        if gap <= tol:
            break
        if steps == budget:
            b = _bias(alpha, score, c, m, gap)
            worst = _kkt_violation(alpha, y * (y - score + b), c)
            raise NonConvergence(
                f"SMO did not converge in {max_passes} sweeps of {n} pair "
                f"updates (m - M = {gap:.3e} > tol {tol:g}, KKT violation "
                f"{worst:.3e})",
                kkt_violation=worst,
            )
        row_i = krow(i)
        curv = (diag[i] + diag) - 2.0 * row_i
        curv = np.where(curv > 0.0, curv, _TAU)
        gain = np.maximum(gain, 0.0)
        j = int((gain * gain / curv).argmax())
        row_j = krow(j)
        # alpha_i += y_i t and alpha_j -= y_j t keep y'alpha; t is the
        # unconstrained optimum gain/curv clipped to the box, and a variable
        # that reaches its bound is set to exactly 0 or C
        room_i = c - alpha[i] if pos[i] else alpha[i]
        room_j = alpha[j] if pos[j] else c - alpha[j]
        t = min(gain[j] / curv[j], room_i, room_j)
        old_i, old_j = alpha[i], alpha[j]
        alpha[i] = (c if pos[i] else 0.0) if t == room_i else old_i + y[i] * t
        alpha[j] = (0.0 if pos[j] else c) if t == room_j else old_j - y[j] * t
        score -= (y[i] * (alpha[i] - old_i)) * row_i \
            + (y[j] * (alpha[j] - old_j)) * row_j
        for r in (i, j):
            below_c, above_0 = alpha[r] < c, alpha[r] > 0.0
            up[r] = below_c if pos[r] else above_0
            low[r] = above_0 if pos[r] else below_c
        steps += 1

    keep = alpha > 0
    return BinarySvm(
        support_vectors=X[keep].copy(),
        dual_coef=(alpha * y)[keep],
        bias=_bias(alpha, score, c, m, gap),
        kernel=k,
    )


# ---------------------------------------------------------------------------
# One-vs-one multiclass
# ---------------------------------------------------------------------------

TIE_BREAK_RULE = "won-pair decision-magnitude sum, then lowest label"


@dataclass(frozen=True)
class MulticlassSvmModel:
    """One binary machine per unordered class pair, vote-based prediction."""

    classes: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]
    machines: tuple[BinarySvm, ...]
    kernel: KernelSpec
    tie_break: str = TIE_BREAK_RULE

    def __post_init__(self):
        n = len(self.classes)
        if len(self.pairs) != n * (n - 1) // 2 or len(self.machines) != len(self.pairs):
            raise InvalidArgument("need one machine per unordered class pair")

    @property
    def n_features(self) -> int:
        return self.machines[0].n_features


def train_multiclass(X, labels, k: KernelSpec, tol: float = DEFAULT_TOL,
                     max_passes: int = DEFAULT_MAX_PASSES) -> MulticlassSvmModel:
    """Train a one-vs-one ensemble: a binary machine per class pair."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    labels = np.asarray(labels, dtype=int)
    if X.shape[0] != labels.shape[0]:
        raise InvalidArgument("one label per row")
    classes = tuple(int(c) for c in np.unique(labels))
    if len(classes) < 2:
        raise SingleClassInput(f"need >= 2 classes, got {classes}")
    pairs = []
    machines = []
    for ia, a in enumerate(classes):
        for b in classes[ia + 1:]:
            mask = (labels == a) | (labels == b)
            y = np.where(labels[mask] == b, 1.0, -1.0)
            try:
                machines.append(train_binary_smo(X[mask], y, k, tol, max_passes))
            except NonConvergence as e:
                raise NonConvergence(f"pair ({a},{b}): {e}",
                                     kkt_violation=e.kkt_violation) from e
            except EegIdError as e:
                raise type(e)(f"pair ({a},{b}): {e}") from e
            pairs.append((a, b))
    return MulticlassSvmModel(
        classes=classes,
        pairs=tuple(pairs),
        machines=tuple(machines),
        kernel=k,
    )


def decision_values(m: MulticlassSvmModel, X) -> np.ndarray:
    """Raw per-pair decision values, pairs ordered lexicographically.

    One vector gives shape (n_pairs,); a matrix of rows gives
    (n_rows, n_pairs).
    """
    X = np.asarray(X, dtype=float)
    single = X.ndim == 1
    rows = np.atleast_2d(X)
    if rows.shape[1] != m.n_features:
        raise DimensionMismatch(
            f"got {rows.shape[1]} features, model expects {m.n_features}"
        )
    values = np.column_stack([svm.decision(rows) for svm in m.machines])
    return values[0] if single else values


def _tally(m: MulticlassSvmModel, decisions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-class votes and won-pair |decision| sums for decision rows."""
    n_rows = decisions.shape[0]
    n_cls = len(m.classes)
    index = {c: i for i, c in enumerate(m.classes)}
    votes = np.zeros((n_rows, n_cls), dtype=int)
    strength = np.zeros((n_rows, n_cls))
    for j, (a, b) in enumerate(m.pairs):
        f = decisions[:, j]
        wins_b = f > 0
        ia, ib = index[a], index[b]
        votes[wins_b, ib] += 1
        votes[~wins_b, ia] += 1
        strength[wins_b, ib] += np.abs(f[wins_b])
        strength[~wins_b, ia] += np.abs(f[~wins_b])
    return votes, strength


def predict(m: MulticlassSvmModel, x) -> int:
    """Vote over all pairs; ties break by largest won-pair |f| sum, then
    lowest label."""
    return int(predict_batch(m, np.atleast_2d(np.asarray(x, dtype=float)))[0])


def predict_batch(m: MulticlassSvmModel, X) -> np.ndarray:
    """Vectorized predict over rows."""
    decisions = np.atleast_2d(decision_values(m, X))
    votes, strength = _tally(m, decisions)
    # strength only among the classes with most votes; argmax of the
    # boolean "best" mask takes the lowest such index, i.e. lowest label
    strength = np.where(votes == votes.max(axis=1, keepdims=True), strength, -np.inf)
    best = strength == strength.max(axis=1, keepdims=True)
    return np.array(m.classes)[np.argmax(best, axis=1)]


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridCell:
    """One evaluated hyperparameter combination."""

    spec: KernelSpec
    accuracy: float | None
    error: str | None = None


# smallest class (one subject's windows) that a split accepts
MIN_WINDOWS_PER_SUBJECT = 5


@dataclass(frozen=True)
class SplitSpec:
    """Per-class (per-subject) train/test protocol.

    chronological: the first ceil(f*n) rows of each class, in time order,
    train. random: seeded per-class shuffle, then the same counts; seed is
    required for (and only meaningful in) random mode.
    """

    train_fraction: float = 0.8
    mode: str = "chronological"
    seed: int | None = None

    def __post_init__(self):
        if not (0.0 < self.train_fraction < 1.0):
            raise InvalidArgument("train_fraction must lie in (0, 1)")
        if self.mode not in ("chronological", "random"):
            raise InvalidArgument(f"unknown split mode {self.mode!r}")
        if (self.seed is None) == (self.mode == "random"):
            raise InvalidArgument("seed must be given exactly when mode='random'")

    def describe(self) -> str:
        if self.mode == "random":
            return f"random {self.train_fraction:g}/{1 - self.train_fraction:g} seed={self.seed}"
        return f"chronological {self.train_fraction:g}/{1 - self.train_fraction:g}"


RowSplit = SplitSpec  # former name; the benchmark in bench/ still uses it


def split_rows(labels, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Sorted train/test row indices under the per-class split protocol.

    Rows of each class are assumed to be in time order. Raises
    SubjectTooSmall for a class with fewer than MIN_WINDOWS_PER_SUBJECT
    rows, InvalidArgument when no row is left to test on.
    """
    labels = np.asarray(labels)
    rng = np.random.default_rng(spec.seed) if spec.mode == "random" else None
    is_train = np.zeros(labels.size, dtype=bool)
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        if idx.size < MIN_WINDOWS_PER_SUBJECT:
            raise SubjectTooSmall(int(c), idx.size, MIN_WINDOWS_PER_SUBJECT)
        if rng is not None:
            idx = idx[rng.permutation(idx.size)]
        is_train[idx[:math.ceil(spec.train_fraction * idx.size)]] = True
    if is_train.all():
        raise InvalidArgument("split leaves no test rows")
    return np.flatnonzero(is_train), np.flatnonzero(~is_train)


def default_grids() -> dict[str, list[KernelSpec]]:
    """Parameter ladders covering the usual operating points per kernel."""
    linear = [KernelSpec("linear", c) for c in (0.1, 1.0, 10.0, 100.0)]
    poly = [
        KernelSpec("poly", 1.0, gamma=g, degree=d)
        for d in (2, 3, 4)
        for g in (1.0, 0.1, 0.01)
    ]
    rbf = [
        KernelSpec("rbf", c, gamma=g)
        for c in (1.0, 10.0, 100.0)
        for g in (0.1, 0.01, 0.001)
    ]
    return {"linear": linear, "poly": poly, "rbf": rbf}


def grid_search(X, labels, grids: dict[str, list[KernelSpec]], split: SplitSpec,
                tol: float = DEFAULT_TOL,
                max_passes: int = DEFAULT_MAX_PASSES) -> list[GridCell]:
    """Evaluate every combination under the split protocol.

    Returns cells ranked by accuracy (failed cells last); training
    failures are recorded in the cell, never raised.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    labels = np.asarray(labels, dtype=int)
    if not grids or not any(grids.values()):
        raise InvalidArgument("grid is empty")
    train, test = split_rows(labels, split)
    cells: list[GridCell] = []
    for kind in sorted(grids):
        for spec in grids[kind]:
            if spec.kind != kind:
                raise InvalidArgument(
                    f"grid for {kind!r} contains a {spec.kind!r} spec"
                )
            try:
                model = train_multiclass(X[train], labels[train], spec,
                                         tol, max_passes)
                acc = float(np.mean(predict_batch(model, X[test]) == labels[test]))
                cells.append(GridCell(spec=spec, accuracy=acc))
            except EegIdError as e:
                cells.append(GridCell(spec=spec, accuracy=None, error=str(e)))
    cells.sort(key=lambda cell: (
        -(cell.accuracy if cell.accuracy is not None else -1.0),
        cell.spec.kind,
        cell.spec.describe(),
    ))
    return cells


def best_per_kind(cells: list[GridCell]) -> dict[str, GridCell]:
    """Highest-accuracy successful cell for each kernel kind present."""
    best: dict[str, GridCell] = {}
    for cell in cells:
        if cell.accuracy is None:
            continue
        kind = cell.spec.kind
        if kind not in best or cell.accuracy > best[kind].accuracy:
            best[kind] = cell
    return best
