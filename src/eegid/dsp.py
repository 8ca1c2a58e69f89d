"""Preprocessing chain: notch + Butterworth bandpass IIR filters, a
simplified artifact subspace reconstruction, and overlapping windowing.

A filter is a second-order-section (SOS) array of shape (sections, 6),
one [b0, b1, b2, 1, a1, a2] row per biquad. Design, response and
filtering use numpy alone. Filters are causal (forward-only, zero initial
state), matching a real-time acquisition pipeline; phase distortion is
irrelevant to the amplitude and entropy features computed downstream.
`apply_filter` runs the sections one after another, each as a block
recurrence (Burrus, "Block implementation of digital filters", IEEE
Trans. Circuit Theory 18(6), 1971): every block of samples is one
impulse-response matmul plus the response to the 2-element state carried
in, and the states at block boundaries follow from a doubling scan. The
chain order used by the pipeline is notch, then bandpass, then ASR, then
windowing, on whole recordings. Startup transients are not trimmed. One
strided (windows, channels, width) view of a recording cuts every window:
the ASR calibration windows, the ASR cleaning windows and the analysis
windows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

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
from .reduction import _principal_axes
from .signal_io import Recording, to_samples

DEFAULT_NOTCH_Q = 30.0  # ~2 Hz wide at 60 Hz; powerline-notch sharpness
DEFAULT_ASR_K = 15.0
DEFAULT_ASR_WIN_S = 0.5
WINDOW_S = 0.8
HOP_S = 0.4


def _checked_sos(sos) -> np.ndarray:
    """The filter as a float (sections, 6) array with a0 == 1 in every row."""
    try:
        a = np.asarray(sos, dtype=float)
    except (TypeError, ValueError) as e:
        raise InvalidArgument(f"filter is not a numeric SOS array: {e}") from e
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] != 6:
        raise InvalidArgument(f"filter must be a (sections, 6) SOS array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidArgument("filter coefficients must be finite")
    if not np.all(a[:, 3] == 1.0):
        raise InvalidArgument("every filter section needs a0 == 1")
    return a


def is_stable(sos) -> bool:
    """True iff every section's poles lie strictly inside the unit circle."""
    return all(np.all(np.abs(np.roots(row[3:])) < 1.0) for row in _checked_sos(sos))


def frequency_response(sos, freqs_hz, fs: float) -> np.ndarray:
    """Complex response at the given frequencies (Hz): the product over
    sections of (b0 + b1 z^-1 + b2 z^-2) / (1 + a1 z^-1 + a2 z^-2) at
    z = e^{j 2 pi f / fs}."""
    a = _checked_sos(sos)
    freqs_hz = np.atleast_1d(np.asarray(freqs_hz, dtype=float))
    z = np.exp(-2j * np.pi * freqs_hz / fs)[:, None] ** np.arange(3)
    return np.prod((z @ a[:, :3].T) / (z @ a[:, 3:].T), axis=1)


def design_notch(f0: float, q: float = DEFAULT_NOTCH_Q, fs: float = 250.0) -> np.ndarray:
    """Constrained pole-zero notch as a (1, 6) SOS array: unit gain at DC
    and Nyquist, zero at f0.

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
    return np.array([[1.0, -2.0 * cw, 1.0, a0, -2.0 * cw, 1.0 - alpha]]) / a0


def design_butterworth_bandpass(order: int, f_lo: float, f_hi: float,
                                fs: float) -> np.ndarray:
    """Bilinear-transform Butterworth bandpass as an (order/2, 6) SOS array.

    `order` is the overall filter order (must be even). Edges are the
    usual -3 dB points. The n = order/2 poles of the analog lowpass
    prototype become 2n bandpass poles around the geometric centre of the
    prewarped edges, and the bilinear transform maps them, with n zeros at
    DC and n at infinity, to the z-plane. Each section holds one conjugate
    pole pair (or the two real poles that a wide band gives an odd n), in
    order of increasing pole radius, and the sections take the zeros in
    the order -1, -1, ..., +1, +1; the first section carries the gain.
    """
    if order < 2 or order % 2 != 0:
        raise UnsupportedOrder(f"bandpass order must be even and >= 2, got {order}")
    if not (0.0 < f_lo < f_hi < fs / 2.0):
        raise FrequencyOutOfRange(
            f"band edges ({f_lo}, {f_hi}) must satisfy 0 < lo < hi < {fs / 2}"
        )
    n = order // 2
    prototype = -np.exp(1j * np.pi * np.arange(1 - n, n, 2) / (2 * n))
    # edges prewarped for the bilinear transform s = 4 (z - 1) / (z + 1),
    # i.e. at a normalised sampling rate of 2
    lo, hi = 4.0 * np.tan(np.pi * np.array([f_lo, f_hi]) / fs)
    width, centre = hi - lo, np.sqrt(lo * hi)
    half = prototype * width / 2
    root = np.sqrt(half * half - centre * centre)
    analog = np.concatenate([half + root, half - root])
    gain = (width ** n * 4.0 ** n / np.prod(4.0 - analog)).real
    poles = (4.0 + analog) / (4.0 - analog)
    # complex poles come in conjugate pairs; the only real ones, with an
    # imaginary part of exactly 0, are the two images of the real
    # prototype pole -1 of an odd n when the band is wide
    pairs = [(p, p.conjugate()) for p in poles[poles.imag > 0]]
    real = poles[poles.imag == 0].real
    if real.size:
        pairs.append(tuple(real))
    pairs.sort(key=lambda pair: max(abs(pair[0]), abs(pair[1])))
    zeros = np.repeat([-1.0, 1.0], n).reshape(n, 2)
    sos = np.array([[1.0, -(z1 + z2), z1 * z2, 1.0, -(p1 + p2).real, (p1 * p2).real]
                    for (z1, z2), (p1, p2) in zip(zeros, pairs)])
    sos[0, :3] *= gain
    return sos


# Samples per block: longer blocks make the per-block matmul dearer and
# the scan over block boundaries shorter; 24 to 48 ran the pipeline's
# cascade fastest on 10 s of 8 channels at 250 Hz. The scan covers up to
# 2**_SCAN_LEVELS blocks, more samples than a recording in memory holds.
_BLOCK = 32
_SCAN_LEVELS = 40


def _dot(p, q):
    """Matrix product of nested lists of Decimals, in the current context."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*q)] for row in p]


@functools.lru_cache(maxsize=64)
def _section_operators(row: tuple[float, ...]) -> tuple[np.ndarray, ...]:
    """Block operators of one biquad, shared read-only by every call.

    The section runs as y[t] = b0 x[t] + s1[t], s[t+1] = A s[t] + B x[t]
    with sigma = -a1/2, A = [[sigma, 1], [sigma^2 - a2, sigma]],
    u = (b1 - a1 b0, b2 - a2 b0) and B = (u1, sigma u1 + u2): the
    transposed direct form II with its second state replaced by
    s2 + sigma s1. That shear leaves A a diagonal scaling away from a
    normal matrix (a scaled rotation for complex poles, a symmetric one
    for real poles), which the direct form's [[-a1, 1], [-a2, 0]] is
    not: scanning with its powers lost up to 3e-10 of the peak output
    when two poles nearly coincide at radius 0.9999, against 1e-15 here.

    For a block of L = _BLOCK samples x entering with state s, the outputs
    are x @ response + s @ free and the state leaving is A^L s + x @ carry.
    Returns (response, carry, free, steps): response[j, i] = h[i - j] for
    i >= j, with h the impulse response; carry[j] = A^(L-1-j) B;
    free[:, i] = the first row of A^i; steps[d] = (A^L)^(2^d), transposed
    for row-vector states. Every entry is computed in 40-digit decimal
    arithmetic from the exact coefficients and rounded once, because
    squaring in float64 compounds the rounding of A^L.
    """
    import decimal  # loaded by the first filter run, not by `import eegid`

    b0, b1, b2, _, a1, a2 = (decimal.Decimal(c) for c in row)
    one, zero = decimal.Decimal(1), decimal.Decimal(0)
    wide = decimal.Context(prec=40, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)
    with decimal.localcontext(wide):
        sigma = -a1 / 2
        a = [[sigma, one], [sigma * sigma - a2, sigma]]
        u1, u2 = b1 - a1 * b0, b2 - a2 * b0
        walk = [[[one, zero, u1], [zero, one, sigma * u1 + u2]]]
        for _ in range(_BLOCK):
            walk.append(_dot(a, walk[-1]))  # A^k [I | B], k = 0 .. L
        squares = [[r[:2] for r in walk[_BLOCK]]]
        for _ in range(_SCAN_LEVELS - 1):
            squares.append(_dot(squares[-1], squares[-1]))
        walk = np.array(walk[:_BLOCK], dtype=float)
        steps = np.array(squares, dtype=float).transpose(0, 2, 1)
    h = np.concatenate([[float(row[0])], walk[:-1, 0, 2]])
    lag = np.arange(_BLOCK) - np.arange(_BLOCK)[:, None]
    response = np.where(lag >= 0, h[np.maximum(lag, 0)], 0.0)
    carry = walk[::-1, :, 2]
    free = walk[:, 0, :2].T.copy()
    ops = (response, carry, free, steps)
    for m in ops:
        m.flags.writeable = False
    return ops


def _run_section(ops, x: np.ndarray) -> np.ndarray:
    """One biquad over channels x samples data, zero initial state."""
    response, carry, free, steps = ops
    n_ch, n = x.shape
    blocks = -(-n // _BLOCK)
    padded = np.zeros((n_ch * blocks, _BLOCK))
    padded.reshape(n_ch, -1)[:, :n] = x  # trailing zeros touch no output before n
    y = (padded @ response).reshape(n_ch, blocks, _BLOCK)
    # state after block k: the sum over j <= k of (A^L)^(k-j) (x_j @ carry),
    # by a Hillis-Steele scan over the block boundaries of each channel
    state = padded @ carry
    by_channel = state.reshape(n_ch, blocks, 2)
    span = 1
    for step in steps[:max(blocks - 1, 0).bit_length()]:
        by_channel[:, span:] += (state @ step).reshape(n_ch, blocks, 2)[:, :-span]
        span *= 2
    y[:, 1:] += (state @ free).reshape(n_ch, blocks, _BLOCK)[:, :-1]
    return y.reshape(n_ch, -1)[:, :n]


def apply_filter(sos, r: Recording) -> Recording:
    """Causal filtering, per channel, zero state, sections in order.

    `sos` is a (sections, 6) array of [b0, b1, b2, 1, a1, a2] rows; stack
    designs with np.vstack to run them as one cascade. Each section runs
    on the previous section's output as a block recurrence (see
    `_section_operators`), so a cascade gives bit for bit what its
    sections give run one at a time.
    """
    out = r.data
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        for row in _checked_sos(sos):
            out = _run_section(_section_operators(tuple(row.tolist())), out)
    if not np.isfinite(out).all():
        raise NonFiniteOutput("filter output contains NaN/Inf (unstable filter?)")
    return Recording(channels=r.channels, fs=r.fs, data=np.ascontiguousarray(out))


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


def _frames(data: np.ndarray, width: int, hop: int) -> np.ndarray:
    """Read-only (windows, channels, width) view of channels x samples data:
    window i starts at sample i * hop, and a trailing partial window is
    dropped."""
    views = np.lib.stride_tricks.sliding_window_view(data, width, axis=1)
    return views[:, ::hop].transpose(1, 0, 2)


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
    width = to_samples(win_s, reference.fs)
    if width < 2:
        raise InvalidArgument(f"window of {win_s}s at {reference.fs} Hz is too short")
    if reference.n_samples < 10 * width:
        raise TooShortForCalibration(
            f"need >= {10 * width / reference.fs:g} s at {reference.fs:g} Hz "
            f"({10 * width} samples, 10 windows), got {reference.n_samples}"
        )
    n_ch = reference.data.shape[0]
    wins = _frames(reference.data, width, width)
    rms = np.sqrt(np.mean(wins ** 2, axis=2))
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
    evals, mixing = _principal_axes(cov)
    if evals[0] <= 0 or evals[-1] <= evals[0] * 1e-10:
        raise RankDeficientCovariance("calibration covariance is rank deficient")
    # component-projected RMS over every calibration window
    comp = np.einsum("ck,wcs->wks", mixing, wins)  # (n_win, C, W), rows = components
    comp_rms = np.sqrt(np.mean(comp ** 2, axis=2))
    thresholds = comp_rms.mean(axis=0) + k * comp_rms.std(axis=0)
    return AsrModel(mixing=mixing, thresholds=thresholds, k=float(k), win_s=float(win_s))


def asr_clean(m: AsrModel, r: Recording) -> Recording:
    """Attenuate artifact components window by window and cross-fade.

    Sliding windows (model window length, 50% overlap) are projected into
    the component space; any component whose windowed RMS exceeds its
    threshold is scaled down to the threshold level, and only those windows
    are rebuilt. A raised-cosine overlap-add (weight-normalized) sums each
    sample's windows in window order; samples no window covers pass through.
    """
    if r.data.shape[0] != m.n_channels:
        raise ChannelMismatch(
            f"recording has {r.data.shape[0]} channels, model expects {m.n_channels}"
        )
    width = to_samples(m.win_s, r.fs)
    n = r.n_samples
    if n < width or width < 2:
        return Recording(channels=r.channels, fs=r.fs, data=r.data.copy())
    hop = width // 2
    frames = _frames(r.data, width, hop)
    taper = np.hanning(width)
    v = m.mixing
    buf = v.T @ frames  # (windows, components, width)
    rms = np.sqrt(np.mean(np.square(buf, out=buf), axis=2))
    over = rms > m.thresholds
    rebuilt = np.flatnonzero(over.any(axis=1))
    np.multiply(taper, frames, out=buf)
    scale = np.where(over, m.thresholds / np.where(over, rms, 1.0), 1.0)[rebuilt, :, None]
    buf[rebuilt] = taper * (v @ (scale * (v.T @ frames[rebuilt])))
    # overlap-add per channel: bincount sums each sample's windows in window
    # order, starting from 0, as a loop over the windows would
    at = (hop * np.arange(len(frames))[:, None] + np.arange(width)).ravel()
    weight = np.bincount(at, np.tile(taper, len(frames)), n)
    out = np.stack([np.bincount(at, b.ravel(), n) for b in buf.transpose(1, 0, 2)])
    covered = weight > 1e-12
    out /= np.where(covered, weight, 1.0)
    out[:, ~covered] = r.data[:, ~covered]
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
    window is discarded. Each window's data is a read-only view into
    r.data, not a copy.
    """
    width = to_samples(win_s, r.fs)
    hop = to_samples(hop_s, r.fs)
    if width < 1 or hop < 1:
        raise InvalidArgument(f"window/hop of {win_s}/{hop_s}s at {r.fs} Hz is empty")
    n = r.n_samples
    if n < width:
        raise RecordingTooShort(f"need >= {width / r.fs:g} s at {r.fs:g} Hz "
                                f"({width} samples, one window), got {n}")
    return [
        Window(data=frame, subject_id=subject_id, start_index=i * hop, fs=r.fs)
        for i, frame in enumerate(_frames(r.data, width, hop))
    ]
