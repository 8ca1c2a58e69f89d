"""Independent reference solvers for the soft-margin SVM dual.

`solve_dual_reference`: accelerated projected gradient (FISTA with
adaptive restart) on

    minimize  g(a) = 1/2 a' Q a - sum(a),   Q = (y y') * K
    subject   0 <= a <= C,  y' a = 0

The projection onto the box-plus-hyperplane set is computed exactly from
the sorted breakpoints of the piecewise-linear multiplier equation.

`scalar_wss2`: the SMO trajectory reference, one scalar pair update at a
time. Both share no code with the SMO implementation under test.

`kernel_eval`: one kernel value for two vectors through `svm.gram`, for
checking the kernels on hand-computed examples.
"""

import numpy as np

from eegid.errors import DimensionMismatch
from eegid.svm import KernelSpec, gram


def kernel_eval(k: KernelSpec, x, y) -> float:
    """Scalar kernel value for two vectors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionMismatch(f"vector shapes {x.shape} vs {y.shape}")
    return float(gram(k, x[None, :], y[None, :])[0, 0])


def project_feasible(v: np.ndarray, y: np.ndarray, c: float) -> np.ndarray:
    """Euclidean projection of v onto {0 <= u <= C, y @ u = 0}, y in {-1,+1}.

    The projection has the form clip(v - lam*y, 0, C); h(lam) = y @ u(lam)
    is piecewise linear and non-increasing, so the root lies between two
    adjacent breakpoints and linear interpolation recovers it exactly.
    """
    breaks = np.sort(np.concatenate([v * y, (v - c) * y]))
    u_at = np.clip(v[None, :] - breaks[:, None] * y[None, :], 0.0, c)
    h = u_at @ y
    k = int(np.searchsorted(-h, 0.0))  # first index with h <= 0
    if k == len(breaks):
        lam = breaks[-1]
    elif h[k] == 0.0 or k == 0:
        lam = breaks[k]
    else:
        l1, l2 = breaks[k - 1], breaks[k]
        h1, h2 = h[k - 1], h[k]
        lam = l1 if h2 == h1 else l1 + (l2 - l1) * h1 / (h1 - h2)
    return np.clip(v - lam * y, 0.0, c)


def solve_dual_reference(K: np.ndarray, y: np.ndarray, c: float,
                         iterations: int = 5000) -> np.ndarray:
    """Near-exact dual solution for small instances (intended n <= 12)."""
    y = np.asarray(y, dtype=float)
    n = y.size
    Q = (y[:, None] * y[None, :]) * K

    def obj(a):
        return 0.5 * a @ Q @ a - a.sum()

    lipschitz = max(float(np.linalg.eigvalsh(Q).max()), 1e-12)
    x = project_feasible(np.zeros(n), y, c)
    z = x.copy()
    t = 1.0
    best = x.copy()
    best_obj = obj(x)
    for _ in range(iterations):
        x_new = project_feasible(z - (Q @ z - 1.0) / lipschitz, y, c)
        if obj(x_new) > obj(x):  # adaptive restart
            z = x.copy()
            t = 1.0
            x_new = project_feasible(z - (Q @ z - 1.0) / lipschitz, y, c)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x, t = x_new, t_new
        o = obj(x)
        if o < best_obj:
            best, best_obj = x.copy(), o
    return best


def reference_dual_objective(K: np.ndarray, y: np.ndarray,
                             alpha: np.ndarray) -> float:
    """W(alpha) = sum(alpha) - 1/2 (alpha*y)' K (alpha*y)."""
    ay = alpha * np.asarray(y, dtype=float)
    return float(alpha.sum() - 0.5 * ay @ K @ ay)


def scalar_wss2(K: np.ndarray, y: np.ndarray, c: float, tol: float,
                max_updates: int):
    """One pair problem solved by WSS2 one scalar update at a time, the
    per-pair loop that the solver under test ran before it batched its
    pair problems: same selection rules, clipping and tie-breaking, so
    its alphas and bias must match that solver bit for bit.

    Returns (alpha, bias), or None when max_updates updates end with
    m - M > tol. The bias is the mean score over alphas strictly inside
    (0, C) by more than 1e-12 C, else the middle of [M, m].
    """
    y = np.asarray(y, dtype=float)
    pos = y > 0
    alpha, score, diag = np.zeros(y.size), y.copy(), np.diag(K).copy()
    up, low = pos.copy(), ~pos
    for steps in range(max_updates + 1):
        s_up = np.where(up, score, -np.inf)
        i = int(s_up.argmax())
        m = float(s_up[i])
        gain = np.where(low, m - score, -np.inf)
        gap = float(gain.max())
        if gap <= tol:
            free = (alpha > 1e-12 * c) & (alpha < c - 1e-12 * c)
            return alpha, (float(np.mean(score[free])) if free.any()
                           else m - 0.5 * gap)
        if steps == max_updates:
            return None
        curv = (diag[i] + diag) - 2.0 * K[i]
        curv = np.where(curv > 0.0, curv, 1e-12)
        gain = np.maximum(gain, 0.0)
        j = int((gain * gain / curv).argmax())
        room_i = c - alpha[i] if pos[i] else alpha[i]
        room_j = alpha[j] if pos[j] else c - alpha[j]
        t = min(gain[j] / curv[j], room_i, room_j)
        old_i, old_j = alpha[i], alpha[j]
        alpha[i] = (c if pos[i] else 0.0) if t == room_i else old_i + y[i] * t
        alpha[j] = (0.0 if pos[j] else c) if t == room_j else old_j - y[j] * t
        score -= (y[i] * (alpha[i] - old_i)) * K[i] \
            + (y[j] * (alpha[j] - old_j)) * K[j]
        for r in (i, j):
            up[r] = alpha[r] < c if pos[r] else alpha[r] > 0.0
            low[r] = alpha[r] > 0.0 if pos[r] else alpha[r] < c
    return None
