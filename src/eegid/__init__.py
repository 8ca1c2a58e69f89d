"""EEG-based person identification: filtering, artifact removal, windowed
feature extraction, PCA, and a from-scratch SMO-trained one-vs-one SVM.

The usual flow is the one `eegid.pipeline` wires together:

    dataset -> preprocess_recording -> segment_windows -> features
            -> standardize -> PCA -> multiclass SVM -> evaluate/identify
"""

from . import errors
from .dsp import (
    HOP_S,
    WINDOW_S,
    AsrModel,
    Window,
    apply_filter,
    asr_calibrate,
    asr_clean,
    design_butterworth_bandpass,
    design_notch,
    frequency_response,
    segment_windows,
)
from .features import (
    FEATURE_NAMES,
    extract_feature_matrix,
    extract_feature_vector,
    feature_column_names,
    load_feature_table,
    save_feature_table,
)
from .pipeline import (
    EvalReport,
    IdentificationResult,
    PreprocessFlags,
    SplitSpec,
    TrainedPipeline,
    evaluate,
    evaluate_features,
    fit_from_features,
    fit_pipeline,
    identify,
    load_model,
    prepare_windows,
    preprocess_recording,
    save_model,
    split_dataset,
)
from .reduction import (
    PcaModel,
    Standardizer,
    explained_variance_curve,
    fit_pca,
    fit_standardizer,
    pca_transform,
)
from .signal_io import (
    DEFAULT_FS,
    EEG_CHANNELS,
    LabeledDataset,
    Recording,
    SynthProfile,
    generate_synthetic_dataset,
    generate_synthetic_subject,
    load_dataset,
    load_recording_csv,
    save_dataset,
    save_recording_csv,
)
from .svm import (
    KernelSpec,
    MulticlassSvmModel,
    best_per_kind,
    default_grids,
    grid_search,
    predict,
    predict_batch,
    train_binary_smo,
    train_multiclass,
)

__version__ = "0.1.0"

__all__ = [
    "AsrModel", "DEFAULT_FS", "EEG_CHANNELS", "EvalReport", "FEATURE_NAMES",
    "HOP_S", "IdentificationResult",
    "KernelSpec", "LabeledDataset", "MulticlassSvmModel", "PcaModel",
    "PreprocessFlags", "Recording", "SplitSpec", "Standardizer",
    "SynthProfile", "TrainedPipeline", "WINDOW_S", "Window", "apply_filter",
    "asr_calibrate", "asr_clean", "best_per_kind", "default_grids",
    "design_butterworth_bandpass", "design_notch", "errors", "evaluate",
    "evaluate_features", "explained_variance_curve", "extract_feature_matrix",
    "extract_feature_vector", "feature_column_names", "fit_from_features",
    "fit_pca", "fit_pipeline", "fit_standardizer", "frequency_response",
    "generate_synthetic_dataset", "generate_synthetic_subject", "grid_search",
    "identify", "load_dataset", "load_feature_table", "load_model",
    "load_recording_csv", "pca_transform", "predict", "predict_batch",
    "prepare_windows", "preprocess_recording", "save_dataset",
    "save_feature_table", "save_model", "save_recording_csv",
    "segment_windows", "split_dataset", "train_binary_smo",
    "train_multiclass",
]
