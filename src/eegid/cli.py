"""Command-line front end.

Subcommands mirror the pipeline stages:

    synth       generate a synthetic labeled dataset directory
    preprocess  filter/clean every recording of a dataset into a new one
    extract     preprocess + window + feature-extract into a features CSV
    train       fit scaling/PCA/SVM from a features CSV, save a model file
    evaluate    score a saved model on the held-out rows of a features CSV
    grid        hyperparameter sweep over kernels on a features CSV
    identify    vote a single recording CSV against a saved model

The preprocessing flags and window geometry of `extract` travel in the
features CSV header into the model, and `identify` windows with them.
`train`/`evaluate`/`grid` split rows with `svm.split_rows`, as the library does.

Only `synth` and `--split random` are random, and only they take --seed:
`train`, `evaluate` and `grid` refuse it under the chronological split.
Errors exit nonzero with a one-line stage-tagged message on stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys

import numpy as np

from . import dsp, features, pipeline, signal_io, svm
from .errors import EegIdError, InvalidArgument
from .reduction import fit_pca, fit_standardizer, pca_transform


def _flag_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--no-asr", action="store_true",
                    help="skip artifact subspace reconstruction")
    sp.add_argument("--asr-k", type=float, default=dsp.DEFAULT_ASR_K,
                    help="ASR cutoff multiplier (default %(default)s)")
    sp.add_argument("--notch-q", type=float, default=dsp.DEFAULT_NOTCH_Q,
                    help="notch quality factor (default %(default)s)")


def _flags_from_args(args) -> pipeline.PreprocessFlags:
    return pipeline.PreprocessFlags(
        notch_q=args.notch_q, asr=not args.no_asr, asr_k=args.asr_k)


def _split_from_args(args) -> svm.SplitSpec:
    if args.seed is not None and args.split != "random":
        raise InvalidArgument("--seed applies only with --split random; "
                              "the chronological split takes no seed")
    seed = (args.seed or 0) if args.split == "random" else None
    return svm.SplitSpec(train_fraction=args.train_fraction,
                         mode=args.split, seed=seed)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="eegid",
        description="EEG-based person identification pipeline")
    sub = top.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="seed for any randomized step")

    split_opts = argparse.ArgumentParser(add_help=False)
    split_opts.add_argument("--split", choices=("chronological", "random"),
                            default="chronological",
                            help="train/test protocol (default %(default)s)")
    split_opts.add_argument("--train-fraction", type=float, default=0.8,
                            help="fraction of each subject's windows used "
                                 "for training (default %(default)s)")

    sp = sub.add_parser("synth", parents=[common],
                        help="generate a synthetic labeled dataset")
    sp.add_argument("--subjects", type=int, default=12)
    sp.add_argument("--duration", type=float, default=300.0,
                    help="seconds per subject (default %(default)s)")
    sp.add_argument("--fs", type=float, default=signal_io.DEFAULT_FS)
    sp.add_argument("--out", required=True, help="dataset directory to create")

    sp = sub.add_parser("preprocess", help="filter and clean a dataset into a new directory")
    sp.add_argument("--in", dest="inp", required=True)
    sp.add_argument("--out", required=True)
    _flag_options(sp)

    sp = sub.add_parser("extract", help="preprocess, window, and extract features")
    sp.add_argument("--in", dest="inp", required=True, help="dataset directory")
    sp.add_argument("--out", required=True, help="features CSV to write")
    sp.add_argument("--window", type=float, default=dsp.WINDOW_S,
                    help="window length in seconds (default %(default)s)")
    sp.add_argument("--hop", type=float, default=dsp.HOP_S,
                    help="hop in seconds (default %(default)s)")
    _flag_options(sp)

    sp = sub.add_parser("train", parents=[common, split_opts],
                        help="fit a model from a features CSV")
    sp.add_argument("--features", required=True)
    sp.add_argument("--model", required=True, help="model file to write")
    sp.add_argument("--kernel", choices=svm.KERNEL_KINDS, default="rbf")
    sp.add_argument("--c", type=float, default=1.0, help="soft-margin C")
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--degree", type=int, default=None,
                    help="polynomial degree (poly kernel only)")
    sp.add_argument("--pca", type=float, default=0.95,
                    help="explained-variance target (default %(default)s)")
    sp.add_argument("--tol", type=float, default=svm.DEFAULT_TOL)
    sp.add_argument("--max-passes", type=int, default=svm.DEFAULT_MAX_PASSES)

    sp = sub.add_parser("evaluate", parents=[common, split_opts],
                        help="score a model on the test rows of a features CSV")
    sp.add_argument("--features", required=True)
    sp.add_argument("--model", required=True)

    sp = sub.add_parser("grid", parents=[common, split_opts],
                        help="hyperparameter sweep on a features CSV")
    sp.add_argument("--features", required=True)
    sp.add_argument("--kernels", default="linear,poly,rbf",
                    help="comma-separated kernel kinds (default %(default)s)")
    sp.add_argument("--out", default=None, help="results CSV (optional)")
    sp.add_argument("--pca", type=float, default=0.95)
    sp.add_argument("--tol", type=float, default=svm.DEFAULT_TOL)
    sp.add_argument("--max-passes", type=int, default=svm.DEFAULT_MAX_PASSES)

    sp = sub.add_parser("identify", help="identify the subject of one recording CSV")
    sp.add_argument("--model", required=True)
    sp.add_argument("--in", dest="inp", required=True, help="recording CSV")
    sp.add_argument("--fs", type=float, default=signal_io.DEFAULT_FS,
                    help="sampling rate of the recording (default %(default)s)")
    return top


def cmd_synth(args) -> int:
    seed = 0 if args.seed is None else args.seed
    ds = signal_io.generate_synthetic_dataset(
        n_subjects=args.subjects, duration_s=args.duration, fs=args.fs,
        master_seed=seed)
    signal_io.save_dataset(ds, args.out, generator=signal_io.GENERATOR_NAME,
                           seed=seed)
    n = ds.entries[0][1].data.shape[1]
    print(f"wrote {len(ds.entries)} subjects x {n} samples at {args.fs:g} Hz "
          f"to {args.out}")
    return 0


def cmd_preprocess(args) -> int:
    ds = signal_io.load_dataset(args.inp)
    flags = _flags_from_args(args)
    cleaned = signal_io.LabeledDataset(entries=[
        (sid, pipeline.preprocess_recording(rec, flags))
        for sid, rec in ds.entries
    ])
    signal_io.save_dataset(cleaned, args.out)
    print(f"preprocessed {len(cleaned.entries)} recordings into {args.out}")
    return 0


def cmd_extract(args) -> int:
    ds = signal_io.load_dataset(args.inp)
    flags = dataclasses.replace(_flags_from_args(args), win_s=args.window,
                                hop_s=args.hop, fs=ds.fs)
    windows = pipeline.prepare_windows(ds, flags)
    X, y, starts = features.extract_feature_matrix(windows)
    features.save_feature_table(args.out, X, y, starts,
                                meta=pipeline.flags_to_meta(flags))
    print(f"extracted {X.shape[0]} windows x {X.shape[1]} features "
          f"from {len(ds.entries)} recordings to {args.out}")
    return 0


def _load_split_features(args):
    split = _split_from_args(args)
    X, y, starts, meta = features.load_feature_table(args.features)
    try:
        flags = pipeline.flags_from_meta(meta)
    except InvalidArgument as e:  # named after the table, as its body errors are
        raise InvalidArgument(f"{args.features}: {e}") from None
    order = np.lexsort((starts, y))
    X, y, starts = X[order], y[order], starts[order]
    train_idx, test_idx = svm.split_rows(y, split)
    return X, y, flags, split, train_idx, test_idx


def cmd_train(args) -> int:
    # a parameter the kernel ignores would still be written into the model
    if args.gamma is not None and args.kernel == "linear":
        raise InvalidArgument("--gamma applies only to the poly and rbf kernels")
    if args.degree is not None and args.kernel != "poly":
        raise InvalidArgument("--degree applies only to the poly kernel")
    X, y, flags, split, train_idx, _ = _load_split_features(args)
    kernel = svm.KernelSpec(
        kind=args.kernel, c=args.c, gamma=args.gamma,
        degree=(3 if args.kernel == "poly" and args.degree is None
                else args.degree))
    model = pipeline.fit_from_features(
        X[train_idx], y[train_idx], kernel, pca_target=args.pca,
        tol=args.tol, max_passes=args.max_passes, flags=flags)
    pipeline.save_model(model, args.model)
    print(f"trained {kernel.describe()} on {train_idx.size} windows "
          f"({split.describe()}), {model.pca.n_components} components "
          f"-> {args.model}")
    return 0


def _print_report(rep: pipeline.EvalReport) -> None:
    print(f"accuracy: {rep.accuracy:.4f} on {rep.n_test} windows "
          f"({rep.split_description})")
    print(f"kernel: {rep.kernel.describe()}")
    width = max(5, max(len(str(c)) for c in rep.classes) + 1)
    head = " " * 8 + "".join(f"{c:>{width}}" for c in rep.classes)
    print("confusion (rows true, cols predicted):")
    print(head)
    for i, c in enumerate(rep.classes):
        row = "".join(f"{int(v):>{width}}" for v in rep.confusion[i])
        print(f"  {c:>5} {row}")
    print("per-class precision / recall:")
    for i, c in enumerate(rep.classes):
        print(f"  {c:>5} {rep.precision[i]:.3f} / {rep.recall[i]:.3f}")


def cmd_evaluate(args) -> int:
    X, y, flags, split, _, test_idx = _load_split_features(args)
    model = pipeline.load_model(args.model)
    pipeline.check_sampling_rate(model, flags.fs, "features")
    made, trained = pipeline.flags_to_meta(flags), pipeline.flags_to_meta(model.flags)
    differ = [key for key in trained if made[key] != trained[key]]
    if differ:
        made, trained = (", ".join(f"{key}={m[key]}" for key in differ) for m in (made, trained))
        raise InvalidArgument(f"[preprocess] features made with {made}, "
                              f"model trained with {trained}")
    rep = pipeline.evaluate_features(model, X[test_idx], y[test_idx],
                                     split_description=split.describe())
    _print_report(rep)
    return 0


def cmd_grid(args) -> int:
    X, y, _, split, train_idx, test_idx = _load_split_features(args)
    kinds = [k.strip() for k in args.kernels.split(",") if k.strip()]
    all_grids = svm.default_grids()
    unknown = [k for k in kinds if k not in all_grids]
    if unknown:
        raise InvalidArgument(f"unknown kernel kinds: {', '.join(unknown)}")
    grids = {k: all_grids[k] for k in kinds}
    # fit scaling/projection on training rows only, then sweep in that space
    std = fit_standardizer(X[train_idx])
    pca = fit_pca(std.transform(X[train_idx]), args.pca)
    T = pca_transform(pca, std, X)
    cells = svm.grid_search(T, y, grids, split, tol=args.tol,
                            max_passes=args.max_passes)
    print(f"{'kernel':<40} accuracy")
    for cell in cells:
        label = cell.spec.describe()
        if cell.accuracy is None:
            print(f"{label:<40} failed: {cell.error}")
        else:
            print(f"{label:<40} {cell.accuracy:.4f}")
    best = svm.best_per_kind(cells)
    for kind in kinds:
        if kind in best:
            b = best[kind]
            print(f"best {kind}: {b.spec.describe()} -> {b.accuracy:.4f}")
    if args.out:
        with signal_io._open_text(args.out, "results CSV", "w") as fh:
            rows = csv.writer(fh, lineterminator="\n")
            rows.writerow(["kind", "c", "gamma", "degree", "coef0", "accuracy", "error"])
            for cell in cells:
                s = cell.spec
                acc = "" if cell.accuracy is None else repr(cell.accuracy)
                rows.writerow([*map(str, (s.kind, s.c, s.gamma, s.degree, s.coef0)),
                               acc, cell.error or ""])
        print(f"wrote {len(cells)} rows to {args.out}")
    return 0


def cmd_identify(args) -> int:
    model = pipeline.load_model(args.model)
    rec = signal_io.load_recording_csv(args.inp, fs=args.fs)
    res = pipeline.identify(model, rec)
    n = res.window_labels.size
    print(f"label: {res.label}")
    print(f"majority: {res.majority_fraction:.3f} "
          f"({int(round(res.majority_fraction * n))}/{n} windows)")
    shares = " ".join(f"{c}:{res.shares[c]:.3f}" for c in sorted(res.shares))
    print(f"shares: {shares}")
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "preprocess": cmd_preprocess,
    "extract": cmd_extract,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "grid": cmd_grid,
    "identify": cmd_identify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (EegIdError, OSError) as e:
        print(f"eegid {args.command}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
