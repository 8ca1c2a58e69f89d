"""Scalar numpy reference for the ten per-channel features.

Each function computes one feature of one channel's samples, in the
order of `eegid.features.FEATURE_NAMES`; `channel_features` assembles
all ten. The batch kernel `eegid.features._batch_features` repeats this
arithmetic along the sample axis of a (rows, W) array, so the tests
compare the two with exact equality. Degenerate (flat) inputs return the
kernel's constants: skew 0, kurt 3, Hjorth (0, 0, 0), entropies 0.
"""

from dataclasses import dataclass

import numpy as np

from eegid.errors import EmptyBand, EmptyInput, InvalidArgument, TooFewSamples
from eegid.features import _FLAT_EPS, BAND_HI, BAND_LO, ENTROPY_BINS


@dataclass(frozen=True)
class PsdEstimate:
    """One-sided power spectral density: power[i] at frequencies[i], uV^2/Hz."""

    frequencies: np.ndarray
    power: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        p = np.asarray(self.power, dtype=float)
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "power", p)
        if f.shape != p.shape or f.ndim != 1:
            raise InvalidArgument("frequencies and power must be matching 1-D arrays")
        if np.any(np.diff(f) <= 0):
            raise InvalidArgument("frequencies must be strictly increasing")
        if np.any(p < 0):
            raise InvalidArgument("power must be nonnegative")


def _as_samples(x, min_len: int, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise InvalidArgument(f"{what} expects a 1-D sample sequence")
    if x.size == 0:
        raise EmptyInput(f"{what}: empty input")
    if x.size < min_len:
        raise TooFewSamples(f"{what}: need >= {min_len} samples, got {x.size}")
    return x


def _is_flat(m2: float, x: np.ndarray) -> bool:
    peak = np.max(np.abs(x))
    return m2 <= _FLAT_EPS * peak * peak


def rms(x) -> float:
    """Root mean square, sqrt(mean(x^2))."""
    x = _as_samples(x, 1, "rms")
    return float(np.sqrt(np.mean(x * x)))


def std_dev(x) -> float:
    """Population standard deviation (divide by n)."""
    x = _as_samples(x, 2, "std_dev")
    return float(np.std(x))


def skewness(x) -> float:
    """m3 / m2^(3/2) with biased central moments; 0 for flat input."""
    x = _as_samples(x, 3, "skewness")
    d = x - x.mean()
    m2 = np.mean(d * d)
    if _is_flat(m2, x):
        return 0.0
    return float(np.mean(d * d * d) / (m2 * np.sqrt(m2)))


def kurtosis(x) -> float:
    """m4 / m2^2, non-excess (Gaussian ~ 3); 3 for flat input."""
    x = _as_samples(x, 4, "kurtosis")
    d = x - x.mean()
    d2 = d * d
    m2 = np.mean(d2)
    if _is_flat(m2, x):
        return 3.0
    return float(np.mean(d2 * d2) / (m2 * m2))


def hjorth(x) -> tuple[float, float, float]:
    """Hjorth (activity, mobility, complexity) with population variances.

    activity = var(x); mobility = sqrt(var(dx)/var(x)); complexity =
    mobility(dx)/mobility(x), dx the first difference. Flat input gives
    (0, 0, 0); a flat derivative gives (activity, 0, 0).
    """
    x = _as_samples(x, 3, "hjorth")
    var_x = np.var(x)
    if _is_flat(var_x, x):
        return 0.0, 0.0, 0.0
    dx = np.diff(x)
    var_dx = np.var(dx)
    if _is_flat(var_dx, dx):
        return float(var_x), 0.0, 0.0
    var_ddx = np.var(np.diff(dx))
    mobility = np.sqrt(var_dx / var_x)
    complexity = np.sqrt(var_ddx / var_dx) / mobility
    return float(var_x), float(mobility), float(complexity)


def shannon_entropy(x, bins: int = ENTROPY_BINS) -> float:
    """Histogram entropy over [min, max] with equal-width bins, natural log.

    The edges are np.histogram's own (np.linspace(min, max, bins + 1)),
    passed explicitly: a range only a few ulps wide then repeats edges and
    leaves empty bins, where bins=int would refuse the range.
    """
    x = _as_samples(x, 2, "shannon_entropy")
    if bins < 1:
        raise InvalidArgument(f"bins must be >= 1, got {bins}")
    lo, hi = float(np.min(x)), float(np.max(x))
    if lo == hi:
        return 0.0
    counts, _ = np.histogram(x, bins=np.linspace(lo, hi, bins + 1))
    p = counts[counts > 0] / x.size
    return float(-np.sum(p * np.log(p)))


def periodogram(x, fs: float) -> PsdEstimate:
    """Hann-windowed single-segment periodogram, one-sided density.

    Mean-removed input is tapered by a Hann window; the magnitude-squared
    DFT is scaled by 1/(fs * sum(w^2)) and interior bins are doubled, so
    that sum(power) * df equals sum((x_detrended * w)^2) / sum(w^2).
    """
    x = _as_samples(x, 8, "periodogram")
    if fs <= 0:
        raise InvalidArgument(f"fs must be > 0, got {fs}")
    n = x.size
    w = np.hanning(n)
    yw = (x - x.mean()) * w
    power = np.abs(np.fft.rfft(yw)) ** 2 / (fs * np.sum(w * w))
    if n % 2 == 0:
        power[1:-1] *= 2.0  # all but DC and Nyquist
    else:
        power[1:] *= 2.0  # no Nyquist bin
    return PsdEstimate(frequencies=np.fft.rfftfreq(n, d=1.0 / fs), power=power)


def spectral_entropy(p: PsdEstimate) -> float:
    """Normalized entropy of the PSD as a distribution, in [0, 1]."""
    power = p.power
    if power.size < 2:
        raise TooFewSamples("spectral_entropy: need >= 2 bins")
    total = power.sum()
    if total <= 0:
        return 0.0
    q = power / total
    q = q[q > 0]
    return float(-np.sum(q * np.log(q)) / np.log(power.size))


def band_power(p: PsdEstimate, f_lo: float = BAND_LO, f_hi: float = BAND_HI) -> float:
    """Trapezoidal integral of the PSD over f_lo <= f <= f_hi (uV^2)."""
    if not f_lo < f_hi:
        raise InvalidArgument(f"need f_lo < f_hi, got ({f_lo}, {f_hi})")
    mask = (p.frequencies >= f_lo) & (p.frequencies <= f_hi)
    if not mask.any():
        raise EmptyBand(f"no PSD bins inside [{f_lo}, {f_hi}] Hz")
    return float(np.trapezoid(p.power[mask], p.frequencies[mask]))


def channel_features(x, fs: float) -> np.ndarray:
    """The 10 features of one channel's samples, in FEATURE_NAMES order."""
    x = np.asarray(x, dtype=float)
    act, mob, comp = hjorth(x)
    psd = periodogram(x, fs)
    return np.array([
        rms(x),
        std_dev(x),
        skewness(x),
        kurtosis(x),
        act,
        mob,
        comp,
        shannon_entropy(x),
        spectral_entropy(psd),
        band_power(psd),
    ])
