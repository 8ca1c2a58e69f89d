"""
End-to-end subject identification
=================================

The whole chain on a small cohort: filter, clean, window, extract,
reduce, train, evaluate on held-out windows, and finally identify a
fresh unlabeled recording. The fitted pipeline survives a round trip
through its on-disk format.
"""

import dataclasses
import tempfile
from pathlib import Path

from eegid import (
    KernelSpec,
    LabeledDataset,
    PreprocessFlags,
    SplitSpec,
    SynthProfile,
    evaluate,
    fit_pipeline,
    generate_synthetic_subject,
    identify,
    load_model,
    prepare_windows,
    save_model,
    split_dataset,
)

FS = 250.0

# Four subjects with hand-picked spectral signatures: each carries a slow
# and a fast narrowband component at subject-specific frequencies and
# amplitudes. The amplitudes are separated well beyond the generator's
# per-channel gain jitter, so a later session of the same subject (new
# seed, new jitter draw) still lands closest to its owner.
profiles = [
    SynthProfile(components=((5.0, 1.5, 4.0), (24.0, 2.5, 3.0)), noise_floor=20.0, seed=101),
    SynthProfile(components=((7.5, 1.5, 8.0), (29.0, 2.5, 6.0)), noise_floor=20.0, seed=102),
    SynthProfile(components=((10.0, 1.5, 14.0), (34.0, 2.5, 10.0)), noise_floor=20.0, seed=103),
    SynthProfile(components=((12.5, 1.5, 22.0), (39.0, 2.5, 16.0)), noise_floor=20.0, seed=104),
]
ds = LabeledDataset(entries=[
    (i, generate_synthetic_subject(p, duration_s=60.0, fs=FS))
    for i, p in enumerate(profiles)
])
flags = PreprocessFlags()  # notch + bandpass + subspace cleaning, defaults

# Windows from the preprocessed recordings, split per subject so the
# training windows of every subject precede its test windows in time.
windows = prepare_windows(ds, flags)
split = SplitSpec(train_fraction=0.8, mode="chronological")
train_w, test_w = split_dataset(windows, split)
print(f"{len(windows)} windows -> {len(train_w)} train / {len(test_w)} test")

# Standardize, reduce to 95% variance, train one-vs-one RBF machines.
pipe = fit_pipeline(train_w, KernelSpec("rbf", 100.0, gamma=0.01),
                    pca_target=0.95, flags=flags)
print(f"retained components: {pipe.pca.n_components} of "
      f"{pipe.standardizer.n_features} features")

report = evaluate(pipe, test_w, split_description=split.describe())
print(f"test accuracy: {report.accuracy:.4f} on {report.n_test} windows "
      f"({report.split_description})")
print("confusion matrix (rows = true subject):")
for sid, row in zip(report.classes, report.confusion):
    print(f"  subject {sid}: {row}")

# Identify a recording the pipeline has never seen: subject 2's spectral
# signature, brand-new noise realization -- a later session, in effect.
fresh_profile = dataclasses.replace(profiles[2], seed=555)
fresh = generate_synthetic_subject(fresh_profile, duration_s=12.0, fs=FS)
result = identify(pipe, fresh)
print(f"\nfresh recording identified as subject {result.label} "
      f"({result.majority_fraction:.0%} of windows agree)")
print(f"vote shares: { {c: round(s, 3) for c, s in result.shares.items()} }")

# Persist and reload: the reloaded pipeline makes identical predictions,
# and the file carries a checksum so corruption is caught at load time.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "cohort.model"
    save_model(pipe, path)
    again = load_model(path)
    same = identify(again, fresh)
    print(f"\nmodel file: {path.stat().st_size} bytes")
print(f"reloaded pipeline agrees: {same.label == result.label}")
