"""Benchmark inputs, made outside every timed region and cached on disk.

All three workloads draw on the same synthetic subjects: the spectral
profiles, channel gains and phases of the acceptance cohort (master seed
2026). The benchmark seed picks which stretch of their recordings a run
uses: stretch k = seed mod STRETCHES of a longer generated recording.
Drawing fresh subjects for every seed would also redraw the channel
gains, and with them how hard the SMO problems are. For the poly
gamma=0.01 degree=2 grid cell, six master seeds at 6 subjects x 60 s gave
0.37M-1.34M SMO take_step calls. Eight stretches of fixed subjects at
8 x 40 s gave 0.49M-0.75M.

Run as a script it writes one workload's inputs into a directory:

    python3 bench/inputs.py <workload> <seed> <size> <out_dir>

`prepare()` does that in a child process, so that generation never counts
towards the measuring process's peak memory, and reuses the result while
the library sources are unchanged.
"""

from __future__ import annotations

import hashlib
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CACHE = BENCH / "cache"
OUT = BENCH / "out"

MASTER_SEED = 2026
STRETCHES = 12
FS = 250.0
TRAIN_FRACTION = 0.8
RBF_C = 100.0
RBF_GAMMA = 0.01
MAX_PASSES = 20000  # the grid budget of `eegid grid` in the README
# Acceptance floor for held-out window accuracy (tests/test_acceptance.py).
ACCURACY_FLOOR = 0.85


@dataclass(frozen=True)
class Size:
    enroll_subjects: int
    enroll_s: float
    identify_subjects: int
    identify_train_s: float
    identify_segments: int  # request recordings per subject
    segment_s: float
    sweep_subjects: int
    sweep_s: float  # per feature table
    sweep_tables: int  # consecutive stretches, one table each
    min_requests: int  # identify requests per run, for >= 10 beyond p95
    setup_repeats: int  # load_model / load_feature_table
    import_repeats: int  # fresh interpreters, about 1.3 s each


SIZES = {
    "full": Size(enroll_subjects=12, enroll_s=30.0,
                 identify_subjects=12, identify_train_s=40.0,
                 identify_segments=3, segment_s=10.0,
                 sweep_subjects=8, sweep_s=10.0, sweep_tables=3,
                 min_requests=200, setup_repeats=9, import_repeats=3),
    # For the self-test: every code path, a few seconds per workload.
    "tiny": Size(enroll_subjects=3, enroll_s=12.0,
                 identify_subjects=3, identify_train_s=12.0,
                 identify_segments=1, segment_s=10.0,
                 sweep_subjects=3, sweep_s=15.0, sweep_tables=2,
                 min_requests=4, setup_repeats=2, import_repeats=2),
}


def use_source_tree() -> None:
    """Import eegid from this checkout's src/, never from an installed copy."""
    if not (SRC / "eegid" / "__init__.py").is_file():
        print(f"bench: no library sources at {SRC / 'eegid'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import eegid

    if Path(eegid.__file__).resolve().parent != (SRC / "eegid").resolve():
        print(f"bench: imported eegid from {eegid.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def rbf_kernel():
    from eegid import KernelSpec

    return KernelSpec("rbf", c=RBF_C, gamma=RBF_GAMMA)


def cohort(n_subjects: int, stretch_s: float, seed: int):
    """Stretch `seed mod STRETCHES` of the fixed subjects' recordings."""
    from eegid import LabeledDataset, Recording, generate_synthetic_dataset

    k = seed % STRETCHES
    full = generate_synthetic_dataset(n_subjects, (k + 1) * stretch_s, fs=FS,
                                      master_seed=MASTER_SEED)
    a = int(round(k * stretch_s * FS))
    b = a + int(round(stretch_s * FS))
    return LabeledDataset(entries=[
        (sid, Recording(channels=rec.channels, fs=rec.fs,
                        data=rec.data[:, a:b].copy()))
        for sid, rec in full.entries
    ])


def _write_enroll(size: Size, seed: int, out: Path) -> None:
    from eegid import save_dataset, signal_io

    ds = cohort(size.enroll_subjects, size.enroll_s, seed)
    save_dataset(ds, out / "dataset", generator=signal_io.GENERATOR_NAME,
                 seed=MASTER_SEED)


def _write_identify(size: Size, seed: int, out: Path) -> None:
    """Model trained on the head of each stretch; requests are the segments
    that follow it, so they come from the subjects the model has seen."""
    from eegid import (LabeledDataset, PreprocessFlags, Recording, fit_pipeline,
                       prepare_windows, save_model, save_recording_csv)

    span_s = size.identify_train_s + size.identify_segments * size.segment_s
    ds = cohort(size.identify_subjects, span_s, seed)
    n_train = int(round(size.identify_train_s * FS))
    n_seg = int(round(size.segment_s * FS))
    train = LabeledDataset(entries=[
        (sid, Recording(channels=r.channels, fs=r.fs, data=r.data[:, :n_train]))
        for sid, r in ds.entries
    ])
    flags = PreprocessFlags()
    model = fit_pipeline(prepare_windows(train, flags), rbf_kernel(), flags=flags)
    save_model(model, out / "model.txt")
    requests = out / "requests"
    requests.mkdir()
    for sid, r in ds.entries:
        for j in range(size.identify_segments):
            a = n_train + j * n_seg
            seg = Recording(channels=r.channels, fs=r.fs, data=r.data[:, a:a + n_seg])
            save_recording_csv(seg, requests / f"subject_{sid}_seg_{j}.csv")


def _write_sweep(size: Size, seed: int, out: Path) -> None:
    """Feature tables as `eegid extract` writes them, one per consecutive
    part of the stretch. SMO work on one table varies by about +-20% from
    stretch to stretch (poly gamma=0.01 degree=2: 0.17M-0.32M take_step
    calls over ten stretches at 8 x 20 s); a sweep over several tables
    averages that out."""
    from eegid import (LabeledDataset, PreprocessFlags, Recording,
                       extract_feature_matrix, prepare_windows, save_feature_table)
    from eegid.pipeline import flags_to_meta

    ds = cohort(size.sweep_subjects, size.sweep_tables * size.sweep_s, seed)
    flags = PreprocessFlags()
    meta = flags_to_meta(flags)
    meta["fs"] = repr(float(ds.fs))
    n = int(round(size.sweep_s * FS))
    for j in range(size.sweep_tables):
        part = LabeledDataset(entries=[
            (sid, Recording(channels=r.channels, fs=r.fs, data=r.data[:, j * n:(j + 1) * n]))
            for sid, r in ds.entries
        ])
        X, y, starts = extract_feature_matrix(prepare_windows(part, flags))
        save_feature_table(out / f"features_{j}.csv", X, y, starts, meta=meta)


WRITERS = {"enroll": _write_enroll, "identify": _write_identify,
           "sweep": _write_sweep}


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "eegid").glob("*.py")) + [Path(__file__)]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def prepare(workload: str, seed: int, size: str) -> Path:
    """Directory holding the workload's inputs, generating them if needed."""
    key = f"{workload}-{size}-seed{seed}-"
    target = CACHE / (key + _source_digest())
    if (target / "done").is_file():
        return target
    tmp = target.with_name(target.name + ".tmp")
    for stale in CACHE.glob(key + "*"):  # earlier sources, or an interrupted run
        shutil.rmtree(stale)
    tmp.mkdir(parents=True)
    subprocess.run([sys.executable, str(Path(__file__)), workload, str(seed),
                    size, str(tmp)], check=True, timeout=170)
    (tmp / "done").write_text("")
    tmp.rename(target)
    return target


if __name__ == "__main__":
    workload, seed, size, out = sys.argv[1:5]
    use_source_tree()
    WRITERS[workload](SIZES[size], int(seed), Path(out))
