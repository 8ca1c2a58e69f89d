"""Preprocessing chain: notch + Butterworth bandpass IIR filters, a
simplified artifact subspace reconstruction, and overlapping windowing.

Filters are causal (forward-only, zero initial state), matching a
real-time acquisition pipeline; phase distortion is irrelevant to the
amplitude and entropy features computed downstream. The chain order used
by the pipeline is notch, then bandpass, then ASR, then windowing, on
whole recordings. Startup transients are not trimmed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.signal

from .errors import (
    ChannelMismatch,
    FrequencyOutOfRange,
    InvalidArgument,
    NonFiniteOutput,
    RankDeficientCovariance,
    RecordingTooShort,
    TooShortForCalibration,
    UnsupportedOrder,
)
from .signal_io import Recording

DEFAULT_NOTCH_Q = 30.0  # ~2 Hz wide at 60 Hz; powerline-notch sharpness
DEFAULT_ASR_K = 15.0
DEFAULT_ASR_WIN_S = 0.5
WINDOW_S = 0.8
HOP_S = 0.4


@dataclass(frozen=True)
class BiquadSection:
    """Second-order IIR section, a0 normalized to 1.

    H(z) = (b0 + b1 z^-1 + b2 z^-2) / (1 + a1 z^-1 + a2 z^-2)
    """

    b0: float
    b1: float
    b2: float
    a1: float
    a2: float

    def __post_init__(self):
        coeffs = (self.b0, self.b1, self.b2, self.a1, self.a2)
        if not all(np.isfinite(c) for c in coeffs):
            raise InvalidArgument("biquad coefficients must be finite")

    def poles(self) -> np.ndarray:
        return np.roots([1.0, self.a1, self.a2])


@dataclass(frozen=True)
class FilterCascade:
    """Ordered biquad sections; overall response is their product."""

    sections: tuple[BiquadSection, ...]

    def __post_init__(self):
        object.__setattr__(self, "sections", tuple(self.sections))
        if not self.sections:
            raise InvalidArgument("cascade needs at least one section")


def _as_sections(filt) -> tuple[BiquadSection, ...]:
    if isinstance(filt, BiquadSection):
        return (filt,)
    return filt.sections


def _sos_array(filt) -> np.ndarray:
    rows = [[s.b0, s.b1, s.b2, 1.0, s.a1, s.a2] for s in _as_sections(filt)]
    return np.array(rows)


def is_stable(filt) -> bool:
    """True iff every section's poles lie strictly inside the unit circle."""
    return all(np.all(np.abs(s.poles()) < 1.0) for s in _as_sections(filt))


def frequency_response(filt, freqs_hz, fs: float) -> np.ndarray:
    """Complex response at the given frequencies (Hz), product over sections."""
    freqs_hz = np.atleast_1d(np.asarray(freqs_hz, dtype=float))
    z = np.exp(2j * np.pi * freqs_hz / fs)
    zi1 = 1.0 / z
    zi2 = zi1 * zi1
    h = np.ones_like(z)
    for s in _as_sections(filt):
        h *= (s.b0 + s.b1 * zi1 + s.b2 * zi2) / (1.0 + s.a1 * zi1 + s.a2 * zi2)
    return h


def design_notch(f0: float, q: float = DEFAULT_NOTCH_Q, fs: float = 250.0) -> BiquadSection:
    """Constrained pole-zero notch: unit gain at DC and Nyquist, zero at f0.

    Standard cookbook design: zeros on the unit circle at +/-w0, poles at
    the same angles with radius set by the quality factor q.
    """
    if not (0.0 < f0 < fs / 2.0):
        raise FrequencyOutOfRange(f"notch frequency {f0} Hz outside (0, {fs / 2})")
    if q <= 0:
        raise InvalidArgument(f"quality factor must be > 0, got {q}")
    w0 = 2.0 * np.pi * f0 / fs
    alpha = np.sin(w0) / (2.0 * q)
    cw = np.cos(w0)
    a0 = 1.0 + alpha
    return BiquadSection(
        b0=1.0 / a0,
        b1=-2.0 * cw / a0,
        b2=1.0 / a0,
        a1=-2.0 * cw / a0,
        a2=(1.0 - alpha) / a0,
    )


def design_butterworth_bandpass(order: int, f_lo: float, f_hi: float,
                                fs: float) -> FilterCascade:
    """Bilinear-transform Butterworth bandpass as a biquad cascade.

    `order` is the overall filter order (must be even); the cascade holds
    order/2 sections. Edges are the usual -3 dB points.
    """
    if order < 2 or order % 2 != 0:
        raise UnsupportedOrder(f"bandpass order must be even and >= 2, got {order}")
    if not (0.0 < f_lo < f_hi < fs / 2.0):
        raise FrequencyOutOfRange(
            f"band edges ({f_lo}, {f_hi}) must satisfy 0 < lo < hi < {fs / 2}"
        )
    sos = scipy.signal.butter(order // 2, [f_lo, f_hi], btype="bandpass",
                              fs=fs, output="sos")
    sections = []
    for b0, b1, b2, a0, a1, a2 in sos:
        sections.append(BiquadSection(b0 / a0, b1 / a0, b2 / a0, a1 / a0, a2 / a0))
    return FilterCascade(sections=tuple(sections))


def apply_filter(filt, r: Recording) -> Recording:
    """Causal direct-form II transposed filtering, per channel, zero state."""
    sos = _sos_array(filt)
    out = scipy.signal.sosfilt(sos, r.data, axis=1)
    if not np.isfinite(out).all():
        raise NonFiniteOutput("filter output contains NaN/Inf (unstable filter?)")
    return Recording(channels=r.channels, fs=r.fs, data=out)


# ---------------------------------------------------------------------------
# Simplified artifact subspace reconstruction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AsrModel:
    """Component space and rejection thresholds from a calibration recording.

    mixing: channels x channels orthonormal eigenvector matrix (columns are
    components, descending variance). thresholds: per-component RMS ceiling
    in microvolts. k: threshold multiplier. win_s: processing window length.
    """

    mixing: np.ndarray
    thresholds: np.ndarray
    k: float
    win_s: float

    def __post_init__(self):
        v = np.asarray(self.mixing, dtype=float)
        t = np.asarray(self.thresholds, dtype=float)
        object.__setattr__(self, "mixing", v)
        object.__setattr__(self, "thresholds", t)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise InvalidArgument("mixing matrix must be square")
        gram = v.T @ v
        if np.max(np.abs(gram - np.eye(v.shape[0]))) > 1e-8:
            raise InvalidArgument("mixing matrix columns must be orthonormal")
        if t.shape != (v.shape[0],) or not np.all(t > 0):
            raise InvalidArgument("need one positive threshold per component")
        if self.k <= 0 or self.win_s <= 0:
            raise InvalidArgument("k and win_s must be > 0")

    @property
    def n_channels(self) -> int:
        return self.mixing.shape[0]


def _window_rms(data: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Non-overlapping windows: (windows array (n, C, W), per-channel RMS (n, C))."""
    n_ch, n = data.shape
    n_win = n // width
    wins = data[:, : n_win * width].reshape(n_ch, n_win, width).transpose(1, 0, 2)
    rms = np.sqrt(np.mean(wins ** 2, axis=2))
    return wins, rms


def _orient_columns(vecs: np.ndarray) -> np.ndarray:
    """Fix eigenvector signs: largest-magnitude entry of each column positive."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        i = np.argmax(np.abs(out[:, j]))
        if out[i, j] < 0:
            out[:, j] = -out[:, j]
    return out


def asr_calibrate(reference: Recording, k: float = DEFAULT_ASR_K,
                  win_s: float = DEFAULT_ASR_WIN_S) -> AsrModel:
    """Fit the component space and thresholds on a calibration recording.

    The covariance of the cleanest calibration windows (non-overlapping,
    all-channel RMS at or below the per-channel 75th percentile) is
    eigendecomposed; each component's threshold is mean + k*std of that
    component's windowed RMS over the calibration windows.
    """
    if k <= 0 or win_s <= 0:
        raise InvalidArgument("k and win_s must be > 0")
    width = int(round(win_s * reference.fs))
    if width < 2:
        raise InvalidArgument(f"window of {win_s}s at {reference.fs} Hz is too short")
    if reference.n_samples < 10 * width:
        raise TooShortForCalibration(
            f"need >= {10 * width / reference.fs:g} s at {reference.fs:g} Hz "
            f"({10 * width} samples, 10 windows), got {reference.n_samples}"
        )
    n_ch = reference.data.shape[0]
    wins, rms = _window_rms(reference.data, width)
    p75 = np.percentile(rms, 75, axis=0)
    clean = np.all(rms <= p75, axis=1)
    if not clean.any():  # pathological montages only; fall back to everything
        clean = np.ones(len(wins), dtype=bool)
    samples = wins[clean].transpose(1, 0, 2).reshape(n_ch, -1)
    if samples.shape[1] <= n_ch:
        raise RankDeficientCovariance(
            f"{samples.shape[1]} calibration samples for {n_ch} channels"
        )
    centered = samples - samples.mean(axis=1, keepdims=True)
    cov = centered @ centered.T / (samples.shape[1] - 1)
    evals, evecs = np.linalg.eigh(cov)
    if evals[-1] <= 0 or evals[0] <= evals[-1] * 1e-10:
        raise RankDeficientCovariance("calibration covariance is rank deficient")
    order = np.argsort(evals)[::-1]
    mixing = _orient_columns(evecs[:, order])
    # component-projected RMS over every calibration window
    comp = np.einsum("ck,wcs->wks", mixing, wins)  # (n_win, C, W), rows = components
    comp_rms = np.sqrt(np.mean(comp ** 2, axis=2))
    thresholds = comp_rms.mean(axis=0) + k * comp_rms.std(axis=0)
    return AsrModel(mixing=mixing, thresholds=thresholds, k=float(k), win_s=float(win_s))


def asr_clean(m: AsrModel, r: Recording) -> Recording:
    """Attenuate artifact components window-by-window and cross-fade.

    Sliding windows (model window length, 50% overlap) are projected into
    the component space; any component whose windowed RMS exceeds its
    threshold is scaled down to the threshold level. Windows are
    reconstructed and blended with a raised-cosine overlap-add
    (weight-normalized); samples no window covers pass through unchanged.
    """
    if r.data.shape[0] != m.n_channels:
        raise ChannelMismatch(
            f"recording has {r.data.shape[0]} channels, model expects {m.n_channels}"
        )
    width = int(round(m.win_s * r.fs))
    n = r.n_samples
    if n < width or width < 2:
        return Recording(channels=r.channels, fs=r.fs, data=r.data.copy())
    hop = max(1, width // 2)
    taper = np.hanning(width)
    acc = np.zeros_like(r.data)
    weight = np.zeros(n)
    v = m.mixing
    for start in range(0, n - width + 1, hop):
        seg = r.data[:, start:start + width]
        comp = v.T @ seg
        rms = np.sqrt(np.mean(comp ** 2, axis=1))
        over = rms > m.thresholds
        if over.any():
            comp = comp.copy()
            comp[over] *= (m.thresholds[over] / rms[over])[:, None]
            seg = v @ comp
        acc[:, start:start + width] += taper * seg
        weight[start:start + width] += taper
    covered = weight > 1e-12
    out = r.data.copy()
    out[:, covered] = acc[:, covered] / weight[covered]
    return Recording(channels=r.channels, fs=r.fs, data=out)


# ---------------------------------------------------------------------------
# Windowing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Window:
    """One fixed-length analysis slice of a labeled recording."""

    data: np.ndarray  # channels x W
    subject_id: int
    start_index: int
    fs: float

    def __post_init__(self):
        d = np.asarray(self.data, dtype=float)
        object.__setattr__(self, "data", d)
        if d.ndim != 2 or d.shape[1] < 1:
            raise InvalidArgument("window data must be channels x W with W >= 1")
        if not np.isfinite(d).all():
            raise InvalidArgument("window contains NaN/Inf")
        if self.start_index < 0:
            raise InvalidArgument("start_index must be >= 0")


def segment_windows(r: Recording, subject_id: int, win_s: float = WINDOW_S,
                    hop_s: float = HOP_S) -> list[Window]:
    """Slice a recording into floor((N - W)/H) + 1 overlapping windows.

    W = round(win_s * fs), H = round(hop_s * fs); the trailing partial
    window is discarded.
    """
    width = int(round(win_s * r.fs))
    hop = int(round(hop_s * r.fs))
    if width < 1 or hop < 1:
        raise InvalidArgument(f"window/hop of {win_s}/{hop_s}s at {r.fs} Hz is empty")
    n = r.n_samples
    if n < width:
        raise RecordingTooShort(f"{n} samples < one window of {width}")
    count = (n - width) // hop + 1
    return [
        Window(
            data=r.data[:, i * hop:i * hop + width].copy(),
            subject_id=subject_id,
            start_index=i * hop,
            fs=r.fs,
        )
        for i in range(count)
    ]
