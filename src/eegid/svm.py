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
[M, m] then meets each example's KKT condition within tol.

The one-vs-one pair problems run in lockstep: each loop iteration makes
one update in every lane still running, by numpy calls over (lanes,
rows) arrays padded to the largest pair. Each pair problem carries its
own kernel and C, so a grid search solves the pairs of all of its cells
in one loop, as train_multiclass solves the pairs of one model. Both
choices take a pair's lowest index among ties, so each pair follows
exactly its own deterministic path, and stops on its own test or budget
of max_passes * n updates.

The problems of one pair whose kernels differ only in C form a ladder.
It holds one Gram matrix and starts as one lane in the box of its
smallest C; while every |alpha| is below that C, any larger box selects
and clips the same steps (the shared start of the SVM regularization
path, Hastie et al., JMLR 5, 2004), so the lane is each member's own
path. Before a step that would bring an |alpha| to that C, the members
of larger C fork into a new lane from the state before the step.
Consecutive ladders share a loop while their padded Gram matrices hold
at most KERNEL_CACHE_LIMIT**2 entries, and such a cache group computes
each pair's dot products x @ x.T once for all of its ladders; a ladder
above KERNEL_CACHE_LIMIT rows runs alone, computing two kernel rows per
lane update. train_binary_smo is the same loop on one pair.

Decision convention for a pair (a, b) with a < b: training labels are -1
for class a and +1 for class b, so f(x) > 0 votes for b. As in LIBSVM, a
multiclass model stores each support vector once for all of its pairs.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (DimensionMismatch, InvalidArgument, NonConvergence,
                     SingleClassInput, SubjectTooSmall)
from .signal_io import _bad_integers

KERNEL_KINDS = ("linear", "poly", "rbf")

# ladders up to this many rows precompute their Gram matrix (one slice each)
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
        if not np.isfinite(self.coef0):
            raise InvalidArgument(f"coef0 must be finite, got {self.coef0}")
        if kind in ("poly", "rbf"):
            if self.gamma is None or not (np.isfinite(self.gamma) and self.gamma > 0):
                raise InvalidArgument(f"{kind} kernel needs gamma > 0, got {self.gamma}")
        if kind == "poly":
            d = self.degree
            if d is None or _bad_integers(d) or d < 1:
                raise InvalidArgument(f"poly kernel needs an integer degree >= 1, got {d}")
            object.__setattr__(self, "degree", int(d))

    def describe(self) -> str:
        parts = [f"kind={self.kind}", f"C={self.c:g}"]
        if self.kind in ("poly", "rbf"):
            parts.append(f"gamma={self.gamma:g}")
        if self.kind == "poly":
            parts += [f"degree={self.degree}", f"coef0={self.coef0:g}"]
        return " ".join(parts)


def gram(k: KernelSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kernel matrix K[i, j] = k(A[i], B[j])."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise DimensionMismatch(f"{A.shape[1]}-dim rows vs {B.shape[1]}-dim rows")
    norms = ((np.sum(A * A, axis=1), np.sum(B * B, axis=1)) if k.kind == "rbf"
             else (None, None))
    return _kernel(k, A @ B.T, *norms)


def _kernel(k: KernelSpec, dots: np.ndarray, a_sq, b_sq) -> np.ndarray:
    """k(A[i], B[j]) from the dot products A @ B.T and, for RBF only, the
    row norms of A and B: exp(-gamma |a - b|^2)."""
    if k.kind == "linear":
        return dots
    if k.kind == "poly":
        return (k.gamma * dots + k.coef0) ** k.degree
    sq = a_sq[:, None] + b_sq[None, :] - 2.0 * dots
    return np.exp(-k.gamma * np.clip(sq, 0.0, None))


# gram(_DOT, A, B) is A @ B.T, the dot products _kernel builds on
_DOT = KernelSpec("linear", 1.0)


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
    return _kernel(k, np.einsum("ij,ij->i", X, X), None, None)


def _bias(alpha: np.ndarray, score: np.ndarray, c: float, m: float,
          gap: float) -> float:
    """Mean score over free support vectors; with none, the middle of
    [m - gap, m], the interval the bound examples leave for the bias."""
    band = _BOUND_BAND * c
    free = (alpha > band) & (alpha < c - band)
    if free.any():
        return float(np.mean(score[free]))
    return m - 0.5 * gap


def _solver_input(X, labels, tol: float, max_passes: int) -> np.ndarray:
    """X as a float matrix, once the arguments every fit shares are valid."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] != len(labels):
        raise InvalidArgument("one label per row")
    if not np.isfinite(X).all():
        raise InvalidArgument("training rows must be finite")
    if tol <= 0 or max_passes < 1:
        raise InvalidArgument("tol must be > 0 and max_passes >= 1")
    return X


def _cache_groups(sizes) -> list[list[int]]:
    """Runs of consecutive ladders whose Gram slices, one per ladder padded
    to the run's largest, hold at most KERNEL_CACHE_LIMIT**2 entries; a
    ladder above KERNEL_CACHE_LIMIT rows runs alone, uncached."""
    groups: list[list[int]] = []
    width = 0  # the largest ladder of the current run
    for p, n in enumerate(sizes):
        width = max(width, n)
        if groups and (len(groups[-1]) + 1) * width**2 <= KERNEL_CACHE_LIMIT**2:
            groups[-1].append(p)
        else:
            groups.append([p])
            width = n
    return groups


def _lockstep(y, diag, rows, cs, tol, max_passes, step_hook):
    """WSS2 on the pair problems of L ladders at once. y (L, N) holds each
    ladder's labels and diag its kernel diagonal, both zero after its n
    rows; cs[l] lists the C of each member of ladder l, ascending;
    rows((l, t)) returns K_l[t], zero in the padding. As member k of
    ladder l stops, yields (l, k, v, score, m, m - M, converged), v =
    y * alpha and score cut to the n rows.

    A lane makes one update per iteration for members k0..k1 - 1 of a
    ladder, in the box of the smallest, C = cs[l][k0]. While every
    |alpha| stays below that C, a larger box selects and clips the same
    steps, so the lane follows each member's own path. Before a step that
    would bring an |alpha| to C, by clipping or by rounding, the members
    of a larger C fork: a new lane takes them on from the state before
    that step, one update behind, with their own budget.
    """
    n = np.count_nonzero(y, axis=1)

    def lanes(spans, lid, v, s, diag, budget):
        """The arrays of lanes (ladder, k0, k1) that start from the given
        state; cap is the |alpha| at which a lane forks: its C while a
        member has a larger one, else inf."""
        c = np.array([cs[l][k0] for l, k0, _ in spans])
        cap = np.where([cs[l][k1 - 1] > cs[l][k0] for l, k0, k1 in spans], c, np.inf)
        # alpha_t may move along y_t (t in I_up) while v_t < hi_t and
        # against y_t (t in I_low) while v_t > lo_t; padding has v = hi = lo = 0
        yl, c = y[lid], c[:, None]
        return [lid, v, s, np.where(yl > 0, c, 0.0), np.where(yl < 0, -c, 0.0),
                diag, budget, cap]

    spans = [(l, 0, len(c)) for l, c in enumerate(cs)]
    lid, v, s, hi, lo, diag, budget, cap = state = lanes(
        spans, np.arange(len(y)), np.zeros_like(y), y.copy(), diag, max_passes * n)
    no, tau, steps, moved = np.float64(-np.inf), np.float64(_TAU), 0, 0
    forks = cap.min() < np.inf  # a lane may fork, so each step is checked
    while True:
        ar = np.arange(len(spans))
        s_up = np.where(v < hi, s, no)
        i = s_up.argmax(axis=1)
        m = s_up[ar, i]
        gain = np.where(v > lo, m[:, None] - s, no)
        gap = gain[ar, gain.argmax(axis=1)]  # m - M
        if step_hook is not None:  # once per member of each lane that moved
            for q in range(moved):
                l, k0, k1 = spans[q]
                for _ in range(k0, k1):
                    step_hook(np.abs(v[q, :n[l]]), float(m[q] - 0.5 * gap[q]))
        done = gap <= tol
        stop = done | (budget == steps)
        if stop.any():
            for q in np.flatnonzero(stop):
                l, k0, k1 = spans[q]
                for k in range(k0, k1):
                    yield l, k, v[q, :n[l]].copy(), s[q, :n[l]].copy(), m[q], gap[q], done[q]
            keep = ~stop
            if not keep.any():
                return
            spans = [spans[q] for q in np.flatnonzero(keep)]  # the lanes still running
            lid, v, s, hi, lo, diag, budget, cap = state = [w[keep] for w in state]
            forks = cap.min() < np.inf
            ar, i, m, gain = ar[:len(spans)], i[keep], m[keep], gain[keep]
        row_i = rows((lid, i))
        curv = (diag[ar, i][:, None] + diag) - 2.0 * row_i
        curv = np.where(curv > 0.0, curv, tau)
        gain = np.maximum(gain, 0.0)
        j = (gain * gain / curv).argmax(axis=1)
        row_j = rows((lid, j))
        # alpha_i += y_i t and alpha_j -= y_j t keep y'alpha; t is the
        # unconstrained optimum gain/curv clipped to the box, and a
        # variable that reaches its bound is set to exactly 0 or C
        vi, vj, hi_i, lo_j = v[ar, i], v[ar, j], hi[ar, i], lo[ar, j]
        room_i, room_j = hi_i - vi, vj - lo_j
        t = np.minimum(np.minimum(gain[ar, j] / curv[ar, j], room_i), room_j)
        new_i = np.where(t == room_i, hi_i, vi + t)
        new_j = np.where(t == room_j, lo_j, vj - t)
        fork = np.flatnonzero(np.maximum(np.abs(new_i), np.abs(new_j)) >= cap) \
            if forks else ()
        if len(fork):  # lane q keeps the members of its C, a new lane the rest
            for q in fork:
                l, k0, k1 = spans[q]
                k = bisect.bisect_right(cs[l], cs[l][k0], k0, k1)
                spans[q] = (l, k0, k)
                spans.append((l, k, k1))
            cap[fork] = np.inf
            lid, v, s, hi, lo, diag, budget, cap = state = [
                np.concatenate(w) for w in zip(state, lanes(
                    spans[len(ar):], *(w[fork] for w in (lid, v, s, diag, budget + 1))))]
            forks = cap.min() < np.inf
        v[ar, i], v[ar, j] = new_i, new_j
        s[:len(ar)] -= (new_i - vi)[:, None] * row_i + (new_j - vj)[:, None] * row_j
        steps, moved = steps + 1, len(ar)


def _kernel_rows(k: KernelSpec, x: np.ndarray):
    """rows((l, t)) = K[t] over the rows of x, a one-row gram of dot
    products for each lane, as a lone lane computes it."""
    x_sq = np.sum(x * x, axis=1)

    def rows(idx):
        return np.concatenate([_kernel(k, gram(_DOT, a, x), np.sum(a * a, axis=1), x_sq)
                               for a in (x[[t]] for t in idx[1])])
    return rows


def _gram_slices(X, sub, N: int) -> np.ndarray:
    """The Gram matrix of each ladder of a cache group, padded to N. Each
    row set's dot products and row norms are computed once, and freed
    before the next row set's."""
    K = np.zeros((len(sub), N, N))
    row_sets: dict[int, tuple] = {}  # id(r) -> (r, its ladders' slices)
    for q, (r, *_) in enumerate(sub):
        row_sets.setdefault(id(r), (r, []))[1].append(q)
    for r, slices in row_sets.values():
        x = X[r]  # one array, so numpy forms A @ A.T symmetric (syrk)
        x_sq, dots = np.sum(x * x, axis=1), gram(_DOT, x, x)
        for q in slices:
            _, y, (k, *_), _ = sub[q]
            K[q, :len(y), :len(y)] = _kernel(k, dots, x_sq, x_sq)
        del dots
    return K


def _train_pairs(X, ladders, tol, max_passes, step_hook):
    """Solve the ladders (rows of X, -1/+1 labels, KernelSpecs equal up to
    C in ascending C, error prefix), each _cache_groups group in
    _lockstep. As member k of ladders[p] stops, yield (p, k, y * alpha,
    bias, error); error is the NonConvergence of a member that exhausts
    its budget, else None. The ladders of one pair share its row index
    array r, which a cache group keys its dot products by."""
    for group in _cache_groups([len(y) for _, y, _, _ in ladders]):
        sub = [ladders[p] for p in group]
        N = max(len(y) for _, y, _, _ in sub)
        Y = np.zeros((len(sub), N))
        for q, (_, y, _, _) in enumerate(sub):
            Y[q, :len(y)] = y
        if N <= KERNEL_CACHE_LIMIT:
            K = _gram_slices(X, sub, N)
            diag, rows = np.diagonal(K, axis1=1, axis2=2).copy(), K.__getitem__
        else:  # a lone ladder: two kernel rows per lane update
            (r, _, (k, *_), _), = sub
            x = X[r]
            diag, rows = _gram_diag(k, x)[None, :], _kernel_rows(k, x)
        for q, k, v, s, m, gap, converged in _lockstep(
                Y, diag, rows, [[k.c for k in specs] for _, _, specs, _ in sub],
                tol, max_passes, step_hook):
            _, y, specs, prefix = sub[q]
            c = specs[k].c
            b = _bias(np.abs(v), s, c, float(m), float(gap))
            error = None
            if not converged:
                worst = _kkt_violation(np.abs(v), y * (y - s + b), c)
                error = NonConvergence(
                    f"{prefix}SMO did not converge in {max_passes} sweeps of "
                    f"{len(y)} pair updates (m - M = {gap:.3e} > tol {tol:g}, "
                    f"KKT violation {worst:.3e})", kkt_violation=worst)
            yield group[q], k, v, b, error


def train_binary_smo(X, y, k: KernelSpec, tol: float = DEFAULT_TOL,
                     max_passes: int = DEFAULT_MAX_PASSES,
                     step_hook=None) -> BinarySvm:
    """Solve the soft-margin dual by SMO with WSS2 pair selection (module
    docstring): stop at m - M <= tol, or raise NonConvergence after
    max_passes * n pair updates for n rows (one "sweep" is n updates).
    `step_hook(alpha, b)`, if given, is called after every pair update
    with the middle of the current bias interval."""
    y = np.asarray(y, dtype=float)
    X = _solver_input(X, y, tol, max_passes)
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise InvalidArgument("labels must be -1/+1")
    if np.unique(y).size < 2:
        raise SingleClassInput("training data contains a single class")
    (_, _, v, b, error), = _train_pairs(X, [(slice(None), y, [k], "")], tol,
                                        max_passes, step_hook)
    if error is not None:
        raise error
    return BinarySvm(X[v != 0], v[v != 0], b, k)


# ---------------------------------------------------------------------------
# One-vs-one multiclass
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MulticlassSvmModel:
    """One machine per class pair, pairs in lexicographic order, sharing one
    support-vector matrix: f_p(x) = gram(x, support_vectors) @ dual_coef[p] + bias[p]."""

    classes: tuple[int, ...]
    support_vectors: np.ndarray  # s x d, each row once, in training order
    dual_coef: np.ndarray  # n_pairs x s, y * alpha; 0 off the pair's SVs
    bias: np.ndarray  # n_pairs
    kernel: KernelSpec

    def __post_init__(self):
        for name in ("support_vectors", "dual_coef", "bias"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if list(self.classes) != sorted(set(self.classes)):
            raise InvalidArgument(f"classes must be distinct and increasing, got {self.classes}")
        sv, dc, n_pairs = self.support_vectors, self.dual_coef, len(self.pairs)
        if sv.ndim != 2 or dc.shape != (n_pairs, len(sv)) or self.bias.shape != (n_pairs,):
            raise InvalidArgument("need a dual coefficient per pair and support "
                                  "vector, and a bias per pair")
        if np.any(np.abs(dc) > self.kernel.c * (1 + 1e-9)):
            raise InvalidArgument("dual coefficients must satisfy |.| <= C")

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((a, b) for ia, a in enumerate(self.classes)
                     for b in self.classes[ia + 1:])

    @property
    def machines(self) -> tuple[BinarySvm, ...]:
        """Each pair's own machine, as train_binary_smo returns it."""
        return tuple(BinarySvm(self.support_vectors[row != 0], row[row != 0],
                               float(b), self.kernel)
                     for row, b in zip(self.dual_coef, self.bias))

    @property
    def n_features(self) -> int:
        return self.support_vectors.shape[1]


def _train_specs(X, labels, specs, tol, max_passes, step_hook):
    """A one-vs-one model for each spec, or the NonConvergence of its first
    pair that exhausts its budget. The pair problems of every spec go
    through one _train_pairs call as ladders: for each set of specs equal
    up to C, in the order of its first spec, one ladder per pair, its
    members in ascending C."""
    classes = tuple(int(c) for c in np.unique(labels))
    if len(classes) < 2:
        raise SingleClassInput(f"need >= 2 classes, got {classes}")
    pairs = [(a, b) for ia, a in enumerate(classes) for b in classes[ia + 1:]]
    rows = [np.flatnonzero((labels == a) | (labels == b)) for a, b in pairs]
    ys = [np.where(labels[r] == b, 1.0, -1.0) for r, (a, b) in zip(rows, pairs)]
    ladders: dict[KernelSpec, list[int]] = {}  # kernel up to C -> its specs
    for s, k in enumerate(specs):
        ladders.setdefault(replace(k, c=1.0), []).append(s)
    ladders = [(sorted(members, key=lambda s: specs[s].c), p)
               for members in ladders.values() for p in range(len(pairs))]
    stops = [[] for _ in specs]  # spec -> (pair, y * alpha, bias, error) per pair
    # drained before any model is built, so that the last group's Gram
    # cache is freed first: kept alive while the models were built, it
    # raised the peak RSS of repeated fits by about one cache
    for l, k, *stop in _train_pairs(X, [
            (rows[p], ys[p], [specs[s] for s in members], "pair ({},{}): ".format(*pairs[p]))
            for members, p in ladders], tol, max_passes, step_hook):
        members, p = ladders[l]
        stops[members[k]].append((p, *stop))
    results: list[MulticlassSvmModel | NonConvergence] = []
    for spec, own in zip(specs, stops):
        coef, bias = np.zeros((len(pairs), len(X))), np.zeros(len(pairs))
        failed = None
        for p, v, b, error in sorted(own, key=lambda stop: stop[0]):
            coef[p, rows[p]], bias[p] = v, b
            failed = failed or error
        used = coef.any(axis=0)  # the training rows some pair keeps
        results.append(failed or MulticlassSvmModel(
            classes=classes, support_vectors=X[used], dual_coef=coef[:, used],
            bias=bias, kernel=spec))
    return results


def train_multiclass(X, labels, k: KernelSpec, tol: float = DEFAULT_TOL,
                     max_passes: int = DEFAULT_MAX_PASSES,
                     step_hook=None) -> MulticlassSvmModel:
    """Train a one-vs-one ensemble, a binary machine per class pair, all
    pairs in one lockstep SMO loop. `step_hook(alpha, b)` fires once per
    pair update, with that pair's alpha and bias as in train_binary_smo;
    NonConvergence names the first pair that exhausts its budget.
    """
    labels = np.asarray(labels, dtype=int)
    X = _solver_input(X, labels, tol, max_passes)
    model, = _train_specs(X, labels, [k], tol, max_passes, step_hook)
    if isinstance(model, NonConvergence):
        raise model
    return model


def decision_values(m: MulticlassSvmModel, X) -> np.ndarray:
    """Raw per-pair decision values, pairs in lexicographic order: shape
    (n_pairs,) for one vector, (n_rows, n_pairs) for a matrix of rows."""
    X = np.asarray(X, dtype=float)
    values = gram(m.kernel, np.atleast_2d(X), m.support_vectors) @ m.dual_coef.T + m.bias
    return values[0] if X.ndim == 1 else values


def predict(m: MulticlassSvmModel, x) -> int:
    """Vote over all pairs; ties break by largest won-pair |f| sum, then
    lowest label."""
    return int(predict_batch(m, np.atleast_2d(np.asarray(x, dtype=float)))[0])


def predict_batch(m: MulticlassSvmModel, X) -> np.ndarray:
    """Vectorized predict over rows."""
    f = np.atleast_2d(decision_values(m, X))
    # the class indices of each pair; np.add.at adds a class's won-pair |f|
    # in pair order
    a, b = np.triu_indices(len(m.classes), 1)
    won = (np.arange(len(f))[:, None], np.where(f > 0, b, a))
    votes, strength = np.zeros((2, len(f), len(m.classes)))
    np.add.at(votes, won, 1.0)
    np.add.at(strength, won, np.abs(f))
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
    return {
        "linear": [KernelSpec("linear", c) for c in (0.1, 1.0, 10.0, 100.0)],
        "poly": [KernelSpec("poly", 1.0, gamma=g, degree=d)
                 for d in (2, 3, 4) for g in (1.0, 0.1, 0.01)],
        "rbf": [KernelSpec("rbf", c, gamma=g)
                for c in (1.0, 10.0, 100.0) for g in (0.1, 0.01, 0.001)],
    }


def grid_search(X, labels, grids: dict[str, list[KernelSpec]], split: SplitSpec,
                tol: float = DEFAULT_TOL,
                max_passes: int = DEFAULT_MAX_PASSES) -> list[GridCell]:
    """Evaluate every combination under the split protocol, which needs
    the rows of each class in time order (split_rows). The pair
    problems of all cells, and so of all pairs of each cell, share one
    lockstep SMO loop per cache group (module docstring), each following
    the path it would follow alone; cells that differ only in C share
    each pair's Gram matrix and its SMO updates up to the fork of their
    C ladder.

    Returns cells ranked by accuracy (failed cells last). A cell whose
    training runs out of budget records the NonConvergence message;
    invalid tol, max_passes or rows, or a spec in the grid of another
    kind, raise InvalidArgument before any fit.
    """
    labels = np.asarray(labels, dtype=int)
    X = _solver_input(X, labels, tol, max_passes)
    if not grids or not any(grids.values()):
        raise InvalidArgument("grid is empty")
    specs: list[KernelSpec] = []
    for kind in sorted(grids):
        for spec in grids[kind]:
            if spec.kind != kind:
                raise InvalidArgument(
                    f"grid for {kind!r} contains a {spec.kind!r} spec"
                )
            specs.append(spec)
    train, test = split_rows(labels, split)
    cells: list[GridCell] = []
    for spec, model in zip(specs, _train_specs(X[train], labels[train], specs,
                                               tol, max_passes, None)):
        if isinstance(model, NonConvergence):
            cells.append(GridCell(spec=spec, accuracy=None, error=str(model)))
        else:
            acc = float(np.mean(predict_batch(model, X[test]) == labels[test]))
            cells.append(GridCell(spec=spec, accuracy=acc))
    cells.sort(key=lambda cell: (-(-1.0 if cell.accuracy is None else cell.accuracy),
                                 cell.spec.kind, cell.spec.describe()))
    return cells


def best_per_kind(cells: list[GridCell]) -> dict[str, GridCell]:
    """Highest-accuracy successful cell for each kernel kind present."""
    best: dict[str, GridCell] = {}
    for cell in cells:
        kind = cell.spec.kind
        if cell.accuracy is not None and (
                kind not in best or cell.accuracy > best[kind].accuracy):
            best[kind] = cell
    return best
