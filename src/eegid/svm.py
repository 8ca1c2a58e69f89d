"""Kernel SVM trained from scratch with sequential minimal optimization,
a one-vs-one multiclass wrapper, the per-class train/test split, and
hyperparameter grid search.

The SMO solver is the classic two-alpha working-set method: pick a
KKT-violating example by a first-order scan, pick its partner by the
second-choice heuristic (maximize |E1 - E2| over non-bound examples, with
deterministic fallback scans), update the pair analytically, and keep a
full error cache updated vectorially after every step. All scans run in
index order and ties resolve to the lowest index, so training is
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

# minimum meaningful alpha change, far below any useful tolerance
_STEP_EPS = 1e-12

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


class _Smo:
    """Working state of one SMO run."""

    def __init__(self, X, y, kernel, tol):
        self.X = X
        self.y = y.astype(float)
        self.k = kernel
        self.c = kernel.c
        self.tol = tol
        self.n = X.shape[0]
        self.alpha = np.zeros(self.n)
        self.b = 0.0
        # f = 0 everywhere at the start, so E = f - y = -y
        self.errors = -self.y.copy()
        self.cache = gram(kernel, X, X) if self.n <= KERNEL_CACHE_LIMIT else None

    def krow(self, i: int) -> np.ndarray:
        if self.cache is not None:
            return self.cache[i]
        return gram(self.k, self.X[i][None, :], self.X)[0]

    def take_step(self, i1: int, i2: int, row2: np.ndarray) -> bool:
        if i1 == i2:
            return False
        a1, a2 = self.alpha[i1], self.alpha[i2]
        y1, y2 = self.y[i1], self.y[i2]
        e1, e2 = self.errors[i1], self.errors[i2]
        s = y1 * y2
        if s < 0:
            lo, hi = max(0.0, a2 - a1), min(self.c, self.c + a2 - a1)
        else:
            lo, hi = max(0.0, a1 + a2 - self.c), min(self.c, a1 + a2)
        if lo >= hi:
            return False
        row1 = self.krow(i1)
        k11, k12, k22 = row1[i1], row1[i2], row2[i2]
        eta = k11 + k22 - 2.0 * k12
        if eta > 0:
            a2_new = a2 + y2 * (e1 - e2) / eta
            a2_new = min(max(a2_new, lo), hi)
        else:
            # flat or concave along the pair direction: best endpoint wins
            slope = y2 * (e2 - e1)
            obj_lo = slope * (lo - a2) + 0.5 * eta * (lo - a2) ** 2
            obj_hi = slope * (hi - a2) + 0.5 * eta * (hi - a2) ** 2
            if obj_lo < obj_hi - _STEP_EPS:
                a2_new = lo
            elif obj_hi < obj_lo - _STEP_EPS:
                a2_new = hi
            else:
                return False
        # land exactly on a reachable box bound when within rounding distance
        if a2_new < _BOUND_BAND * self.c and lo == 0.0:
            a2_new = 0.0
        elif a2_new > (1.0 - _BOUND_BAND) * self.c and hi == self.c:
            a2_new = self.c
        if abs(a2_new - a2) < _STEP_EPS * (a2_new + a2 + _STEP_EPS):
            return False
        a1_new = min(max(a1 + s * (a2 - a2_new), 0.0), self.c)
        d1 = y1 * (a1_new - a1)
        d2 = y2 * (a2_new - a2)
        b_old = self.b
        b1 = b_old - e1 - d1 * k11 - d2 * k12
        b2 = b_old - e2 - d1 * k12 - d2 * k22
        if 0.0 < a1_new < self.c:
            b_new = b1
        elif 0.0 < a2_new < self.c:
            b_new = b2
        else:
            b_new = 0.5 * (b1 + b2)
        self.alpha[i1] = a1_new
        self.alpha[i2] = a2_new
        self.errors += d1 * row1 + d2 * row2 + (b_new - b_old)
        self.b = b_new
        return True

    def examine(self, i2: int) -> bool:
        y2, a2 = self.y[i2], self.alpha[i2]
        e2 = self.errors[i2]
        r2 = e2 * y2
        if not ((r2 < -self.tol and a2 < self.c) or (r2 > self.tol and a2 > 0)):
            return False
        row2 = self.krow(i2)
        non_bound = np.flatnonzero((self.alpha > 0) & (self.alpha < self.c))
        if non_bound.size > 1:
            i1 = int(non_bound[np.argmax(np.abs(self.errors[non_bound] - e2))])
            if self.take_step(i1, i2, row2):
                return True
        for i1 in non_bound:
            if self.take_step(int(i1), i2, row2):
                return True
        for i1 in range(self.n):
            if self.take_step(i1, i2, row2):
                return True
        return False

    def final_bias(self) -> float:
        """Average over free support vectors; bound-constraint midpoint otherwise."""
        u = self.errors + self.y - self.b  # f without the bias term
        band = _BOUND_BAND * self.c
        free = (self.alpha > band) & (self.alpha < self.c - band)
        if free.any():
            return float(np.mean(self.y[free] - u[free]))
        lo, hi = -math.inf, math.inf
        for a_i, y_i, u_i in zip(self.alpha, self.y, u):
            bound = y_i - u_i  # b making this point sit on the margin
            if (a_i <= band and y_i > 0) or (a_i >= self.c - band and y_i < 0):
                lo = max(lo, bound)
            else:
                hi = min(hi, bound)
        if math.isinf(lo) or math.isinf(hi):
            return float(self.b)
        return float(0.5 * (lo + hi))


def train_binary_smo(X, y, k: KernelSpec, tol: float = DEFAULT_TOL,
                     max_passes: int = DEFAULT_MAX_PASSES,
                     step_hook=None) -> BinarySvm:
    """Solve the soft-margin dual by SMO.

    Runs until a full sweep finds every example satisfying its KKT
    condition within tol, or raises NonConvergence after max_passes
    sweeps. `step_hook(alpha, b)`, if given, is called after every
    successful pair update (used by invariant tests).
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

    state = _Smo(X, y, k, tol)
    examine_all = True
    num_changed = 0
    sweeps = 0
    while num_changed > 0 or examine_all:
        sweeps += 1
        if sweeps > max_passes:
            # E = f - y, so the margins y * f are y * (E + y)
            worst = _kkt_violation(state.alpha, y * (state.errors + y), state.c)
            raise NonConvergence(
                f"SMO did not converge in {max_passes} sweeps "
                f"(KKT violation {worst:.3e} > tol {tol:g})",
                kkt_violation=worst,
            )
        num_changed = 0
        if examine_all:
            candidates = range(state.n)
        else:
            candidates = np.flatnonzero((state.alpha > 0) & (state.alpha < state.c))
        for i in candidates:
            if state.examine(int(i)):
                num_changed += 1
                if step_hook is not None:
                    step_hook(state.alpha, state.b)
        if examine_all:
            examine_all = False
        elif num_changed == 0:
            examine_all = True

    bias = state.final_bias()
    keep = state.alpha > 0
    return BinarySvm(
        support_vectors=X[keep].copy(),
        dual_coef=(state.alpha * y)[keep],
        bias=bias,
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
    labels = np.empty(votes.shape[0], dtype=int)
    classes = np.array(m.classes)
    for r in range(votes.shape[0]):
        v = votes[r]
        tied = np.flatnonzero(v == v.max())
        if tied.size > 1:
            s = strength[r, tied]
            tied = tied[s == s.max()]
        labels[r] = classes[tied.min()]
    return labels


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
