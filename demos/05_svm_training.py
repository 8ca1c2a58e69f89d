"""
Kernel SVM training with sequential minimal optimization
========================================================

Trains a two-class machine on a toy problem where the answer is easy to
inspect, checks the optimality conditions, then runs a small kernel grid
on real feature vectors.
"""

import numpy as np

from eegid import (
    KernelSpec,
    best_per_kind,
    extract_feature_matrix,
    generate_synthetic_dataset,
    grid_search,
    predict_batch,
    prepare_windows,
    train_binary_smo,
    train_multiclass,
)
from eegid.svm import SplitSpec, max_kkt_violation, split_rows

# --- a toy two-class problem -------------------------------------------
# Two Gaussian blobs in the plane, labels -1 / +1.
rng = np.random.default_rng(42)
n = 40
X = np.vstack([rng.normal(loc=(-1.5, 0.0), scale=0.7, size=(n, 2)),
               rng.normal(loc=(+1.5, 0.0), scale=0.7, size=(n, 2))])
y = np.repeat([-1.0, 1.0], n)

spec = KernelSpec("rbf", c=10.0, gamma=0.5)
machine = train_binary_smo(X, y, spec)
print(f"kernel: {spec.describe()}")
print(f"support vectors: {machine.support_vectors.shape[0]} of {2 * n} points")
print(f"bias: {machine.bias:.4f}")

# Every training point should satisfy the margin conditions within the
# training tolerance; the KKT violation measures the worst offender.
alpha = np.zeros(2 * n)
for i, row in enumerate(X):
    hit = np.flatnonzero((machine.support_vectors == row).all(axis=1))
    if hit.size:
        alpha[i] = machine.dual_coef[hit[0]] * y[i]
kkt = max_kkt_violation(spec, X, y, alpha, machine.bias)
print(f"max KKT violation: {kkt:.2e}")

train_acc = np.mean(np.sign(machine.decision(X)) == y)
print(f"training accuracy: {train_acc:.3f}")

# --- multiclass on real features ---------------------------------------
# One-vs-one voting across all label pairs, trained on window features
# from three synthetic subjects.
ds = generate_synthetic_dataset(n_subjects=3, duration_s=24.0, fs=250.0,
                                master_seed=13)
F, labels, _ = extract_feature_matrix(prepare_windows(ds))
F = (F - F.mean(axis=0)) / F.std(axis=0)  # quick z-score for the demo

split = SplitSpec(train_fraction=0.8, mode="chronological")
train, test = split_rows(labels, split)
model = train_multiclass(F[train], labels[train], KernelSpec("rbf", 100.0, gamma=0.01))
acc = np.mean(predict_batch(model, F[test]) == labels[test])
print(f"\nmulticlass: {len(model.classes)} classes, "
      f"{len(model.machines)} pairwise machines, test accuracy {acc:.3f}")

# --- a small hyperparameter grid ----------------------------------------
grids = {
    "linear": [KernelSpec("linear", c) for c in (0.1, 1.0)],
    "rbf": [KernelSpec("rbf", 100.0, gamma=g) for g in (0.1, 0.01)],
}
cells = grid_search(F, labels, grids, split, max_passes=5000)
print("\ngrid results (best first):")
for cell in cells:
    print(f"  {cell.spec.describe():35s} accuracy {cell.accuracy:.3f}")
for kind, cell in sorted(best_per_kind(cells).items()):
    print(f"best {kind}: {cell.spec.describe()} ({cell.accuracy:.3f})")
