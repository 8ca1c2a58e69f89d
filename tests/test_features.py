"""Feature computations against independent straight-line oracles."""

import math

import numpy as np
import pytest

from eegid.dsp import Window
from eegid.errors import (
    EmptyBand,
    EmptyInput,
    InvalidArgument,
    IoFailure,
    MalformedHeader,
    NonNumericSample,
    RaggedRows,
    TooFewSamples,
)
from eegid.features import (
    _CHUNK,
    _shannon_rows,
    BAND_HI,
    BAND_LO,
    ENTROPY_BINS,
    FEATURE_NAMES,
    N_FEATURES,
    FeatureVector,
    extract_feature_matrix,
    extract_feature_vector,
    feature_column_names,
    load_feature_table,
    save_feature_table,
)
from feature_reference import (
    PsdEstimate,
    band_power,
    channel_features,
    hjorth,
    kurtosis,
    periodogram,
    rms,
    shannon_entropy,
    skewness,
    spectral_entropy,
    std_dev,
)

FS = 250.0


# ---------------------------------------------------------------------------
# Straight-line oracles (direct summation, manual histogram, matrix DFT)
# ---------------------------------------------------------------------------

def oracle_moments(x):
    n = len(x)
    mean = sum(x) / n
    d = [v - mean for v in x]
    m2 = sum(v * v for v in d) / n
    m3 = sum(v ** 3 for v in d) / n
    m4 = sum(v ** 4 for v in d) / n
    return m2, m3, m4


def oracle_rms(x):
    return math.sqrt(sum(v * v for v in x) / len(x))


def oracle_std(x):
    m2, _, _ = oracle_moments(x)
    return math.sqrt(m2)


def oracle_skew(x):
    m2, m3, _ = oracle_moments(x)
    return 0.0 if m2 == 0 else m3 / m2 ** 1.5


def oracle_kurt(x):
    m2, _, m4 = oracle_moments(x)
    return 3.0 if m2 == 0 else m4 / (m2 * m2)


def oracle_hjorth(x):
    def var(seq):
        m = sum(seq) / len(seq)
        return sum((v - m) ** 2 for v in seq) / len(seq)

    dx = [x[i + 1] - x[i] for i in range(len(x) - 1)]
    ddx = [dx[i + 1] - dx[i] for i in range(len(dx) - 1)]
    act = var(x)
    if act == 0:
        return 0.0, 0.0, 0.0
    mob = math.sqrt(var(dx) / act)
    comp = 0.0 if var(dx) == 0 else math.sqrt(var(ddx) / var(dx)) / mob
    return act, mob, comp


def oracle_shannon(x, bins=16):
    lo, hi = min(x), max(x)
    if lo == hi:
        return 0.0
    # numpy bins by interpolated edges; reproduce that to keep borderline
    # samples (exact-edge hits) in the same cell
    edges = [lo + (hi - lo) * i / bins for i in range(bins + 1)]
    counts = [0] * bins
    for v in x:
        j = bins - 1
        for b in range(bins):
            if edges[b] <= v < edges[b + 1]:
                j = b
                break
        counts[j] += 1
    h = 0.0
    for c in counts:
        if c:
            p = c / len(x)
            h -= p * math.log(p)
    return h


def oracle_psd(x, fs):
    n = len(x)
    k = np.arange(n)
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * k / (n - 1))  # Hann, symmetric
    y = (np.asarray(x) - np.mean(x)) * w
    n_bins = n // 2 + 1
    dft = np.exp(-2j * np.pi * np.outer(np.arange(n_bins), k) / n) @ y
    p = np.abs(dft) ** 2 / (fs * np.sum(w * w))
    if n % 2 == 0:
        p[1:-1] *= 2.0
    else:
        p[1:] *= 2.0
    freqs = np.arange(n_bins) * fs / n
    return freqs, p


def oracle_spec_entropy(p):
    total = sum(p)
    if total <= 0:
        return 0.0
    h = 0.0
    for v in p:
        if v > 0:
            q = v / total
            h -= q * math.log(q)
    return h / math.log(len(p))


def oracle_band_power(freqs, p, lo, hi):
    pairs = [(f, v) for f, v in zip(freqs, p) if lo <= f <= hi]
    total = 0.0
    for (f1, v1), (f2, v2) in zip(pairs, pairs[1:]):
        total += 0.5 * (v1 + v2) * (f2 - f1)
    return total


def oracle_channel(x, fs):
    freqs, p = oracle_psd(x, fs)
    act, mob, comp = oracle_hjorth(list(x))
    return [
        oracle_rms(list(x)),
        oracle_std(list(x)),
        oracle_skew(list(x)),
        oracle_kurt(list(x)),
        act,
        mob,
        comp,
        oracle_shannon(list(x)),
        oracle_spec_entropy(list(p)),
        oracle_band_power(freqs, p, BAND_LO, BAND_HI),
    ]


# ---------------------------------------------------------------------------
# Individual features
# ---------------------------------------------------------------------------

def test_rms_basics():
    assert rms([4.0] * 7) == pytest.approx(4.0, abs=1e-12)
    assert rms([-2.5] * 3) == pytest.approx(2.5, abs=1e-12)
    assert rms([3.0, -3.0, 3.0, -3.0]) == pytest.approx(3.0, abs=1e-12)


def test_std_basics():
    assert std_dev([5.0] * 10) == 0.0
    assert std_dev([0.0, 2.0]) == pytest.approx(1.0, abs=1e-12)


def test_rms_std_random_oracle():
    rng = np.random.default_rng(20)
    for _ in range(20):
        x = rng.standard_normal(rng.integers(5, 300)) * 12.0
        assert rms(x) == pytest.approx(oracle_rms(list(x)), rel=1e-12)
        assert std_dev(x) == pytest.approx(oracle_std(list(x)), rel=1e-12)


def test_skewness_symmetric_and_flat():
    assert skewness([-1.0, 0.0, 1.0]) == pytest.approx(0.0, abs=1e-12)
    assert skewness(np.concatenate([np.arange(10.0), -np.arange(10.0)])) == \
        pytest.approx(0.0, abs=1e-12)
    assert skewness([7.0, 7.0, 7.0]) == 0.0


def test_kurtosis_two_point_and_flat():
    assert kurtosis([-1.0, 1.0, -1.0, 1.0]) == pytest.approx(1.0, abs=1e-12)
    assert kurtosis([2.0] * 8) == 3.0


def test_kurtosis_gaussian_near_three():
    rng = np.random.default_rng(21)
    x = rng.standard_normal(100_000)
    assert abs(kurtosis(x) - 3.0) <= 0.2


def test_moment_random_oracle():
    rng = np.random.default_rng(22)
    for _ in range(20):
        x = rng.standard_normal(rng.integers(8, 250)) * 5.0 + rng.uniform(-3, 3)
        assert skewness(x) == pytest.approx(oracle_skew(list(x)), abs=1e-10)
        assert kurtosis(x) == pytest.approx(oracle_kurt(list(x)), abs=1e-10)


def test_hjorth_sinusoid_mobility():
    f = 5.0
    n = 5000  # 20 s: 100 full cycles
    t = np.arange(n) / FS
    x = np.sin(2 * np.pi * f * t)
    _, mob, _ = hjorth(x)
    predicted = 2.0 * math.sin(math.pi * f / FS)
    assert abs(mob - predicted) / predicted <= 0.01


def test_hjorth_scale_invariance():
    rng = np.random.default_rng(23)
    x = rng.standard_normal(400)
    act, mob, comp = hjorth(x)
    act2, mob2, comp2 = hjorth(2.5 * x)
    assert act2 == pytest.approx(2.5 ** 2 * act, rel=1e-12)
    assert mob2 == pytest.approx(mob, rel=1e-12)
    assert comp2 == pytest.approx(comp, rel=1e-12)


def test_hjorth_random_oracle():
    rng = np.random.default_rng(24)
    for _ in range(20):
        x = rng.standard_normal(rng.integers(10, 300))
        got = hjorth(x)
        want = oracle_hjorth(list(x))
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-10)


def test_shannon_entropy_flat_and_uniform():
    assert shannon_entropy(np.full(50, 3.3)) == 0.0
    assert shannon_entropy(np.arange(16.0)) == pytest.approx(math.log(16), rel=1e-12)


def test_shannon_entropy_random_oracle():
    rng = np.random.default_rng(25)
    for _ in range(20):
        x = rng.standard_normal(rng.integers(30, 400)) * 9.0
        assert shannon_entropy(x) == pytest.approx(
            oracle_shannon(list(x), ENTROPY_BINS), rel=1e-12)


def test_periodogram_parseval_identity():
    rng = np.random.default_rng(26)
    x = rng.standard_normal(1000)
    p = periodogram(x, FS)
    n = len(x)
    k = np.arange(n)
    w = 0.5 - 0.5 * np.cos(2 * np.pi * k / (n - 1))
    yw = (x - x.mean()) * w
    df = FS / n
    lhs = np.sum(p.power) * df
    rhs = np.sum(yw * yw) / np.sum(w * w)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_periodogram_total_power_matches_variance():
    t = np.arange(12500) / FS
    x = np.sin(2 * np.pi * 7.0 * t) + 0.5 * np.sin(2 * np.pi * 23.17 * t + 1.0)
    p = periodogram(x, FS)
    total = np.sum(p.power) * (FS / len(x))
    assert abs(total - np.var(x)) / np.var(x) <= 0.01


def test_periodogram_peak_bin():
    t = np.arange(200) / FS
    x = np.sin(2 * np.pi * 25.0 * t)
    p = periodogram(x, FS)
    assert p.frequencies[np.argmax(p.power)] == pytest.approx(25.0)


def test_periodogram_zero_signal():
    p = periodogram(np.zeros(64), FS)
    assert np.all(p.power == 0)


def test_spectral_entropy_extremes():
    freqs = np.arange(10.0)
    delta = np.zeros(10)
    delta[4] = 2.0
    assert spectral_entropy(PsdEstimate(freqs, delta)) == 0.0
    flat = np.full(10, 0.7)
    assert spectral_entropy(PsdEstimate(freqs, flat)) == pytest.approx(1.0, rel=1e-12)
    assert spectral_entropy(PsdEstimate(freqs, np.zeros(10))) == 0.0


def test_spectral_entropy_white_noise_high():
    # single-segment periodogram bins are ~exponential, which costs about
    # (1 - gamma)/ln(n_bins) of entropy; 1000-sample noise sits near 0.93
    rng = np.random.default_rng(27)
    for _ in range(10):
        x = rng.standard_normal(1000)
        assert spectral_entropy(periodogram(x, FS)) >= 0.9


def test_band_power_basics():
    p = periodogram(np.zeros(64), FS)
    assert band_power(p) == 0.0
    with pytest.raises(EmptyBand):
        band_power(p, 0.01, 0.02)


def test_band_power_recovers_variance_of_band_limited_signal():
    rng = np.random.default_rng(28)
    t = np.arange(5000) / FS
    x = np.zeros_like(t)
    for f in (5.0, 11.5, 24.0, 39.0):
        x += rng.uniform(0.5, 1.5) * np.sin(2 * np.pi * f * t + rng.uniform(0, 6))
    x /= np.std(x)
    got = band_power(periodogram(x, FS), 0.1, 100.0)
    assert abs(got - 1.0) <= 0.05


def test_band_power_additivity():
    rng = np.random.default_rng(29)
    x = rng.standard_normal(1000)
    p = periodogram(x, FS)  # df = 0.25 Hz, 50 Hz on the grid
    full = band_power(p, 0.1, 100.0)
    halves = band_power(p, 0.1, 50.0) + band_power(p, 50.0, 100.0)
    assert halves == pytest.approx(full, rel=1e-9)


# ---------------------------------------------------------------------------
# Vector assembly
# ---------------------------------------------------------------------------

def _window(data, subject=0, start=0, fs=FS):
    return Window(data=data, subject_id=subject, start_index=start, fs=fs)


def test_feature_order_contract():
    assert FEATURE_NAMES == ("rms", "std", "skew", "kurt", "hj_act",
                             "hj_mob", "hj_comp", "shan_ent", "spec_ent",
                             "band_pow")
    assert feature_column_names(2) == [
        "c0_rms", "c0_std", "c0_skew", "c0_kurt", "c0_hj_act",
        "c0_hj_mob", "c0_hj_comp", "c0_shan_ent", "c0_spec_ent", "c0_band_pow",
        "c1_rms", "c1_std", "c1_skew", "c1_kurt", "c1_hj_act",
        "c1_hj_mob", "c1_hj_comp", "c1_shan_ent", "c1_spec_ent", "c1_band_pow",
    ]


def test_eight_channel_window_gives_80():
    rng = np.random.default_rng(30)
    fv = extract_feature_vector(_window(rng.standard_normal((8, 200)), subject=4))
    assert fv.values.shape == (80,)
    assert fv.subject_id == 4


def test_duplicated_channel_duplicates_block():
    rng = np.random.default_rng(31)
    base = rng.standard_normal(200)
    fv = extract_feature_vector(_window(np.vstack([base, base])))
    assert np.array_equal(fv.values[:10], fv.values[10:])


def test_channel_index_maps_into_vector():
    rng = np.random.default_rng(32)
    data = rng.standard_normal((3, 200))
    fv = extract_feature_vector(_window(data))
    for c in range(3):
        block = channel_features(data[c], FS)
        assert np.array_equal(fv.values[c * 10:(c + 1) * 10], block)


def test_full_vector_against_monolithic_oracle():
    rng = np.random.default_rng(33)
    for _ in range(50):
        data = rng.standard_normal((2, 200)) * rng.uniform(1, 30)
        fv = extract_feature_vector(_window(data))
        want = np.array([v for ch in data for v in oracle_channel(ch, FS)])
        assert np.max(np.abs(fv.values - want) / np.maximum(1.0, np.abs(want))) \
            <= 1e-9


def test_scale_behavior_table():
    rng = np.random.default_rng(34)
    x = rng.standard_normal(200) * 4.0
    a = 3.7
    base = channel_features(x, FS)
    scaled = channel_features(a * x, FS)
    tol = dict(rel=1e-9, abs=1e-9)
    assert scaled[0] == pytest.approx(a * base[0], **tol)      # rms
    assert scaled[1] == pytest.approx(a * base[1], **tol)      # std
    assert scaled[2] == pytest.approx(base[2], **tol)          # skew
    assert scaled[3] == pytest.approx(base[3], **tol)          # kurt
    assert scaled[4] == pytest.approx(a * a * base[4], **tol)  # hj_act
    assert scaled[5] == pytest.approx(base[5], **tol)          # hj_mob
    assert scaled[6] == pytest.approx(base[6], **tol)          # hj_comp
    assert scaled[7] == pytest.approx(base[7], **tol)          # shan_ent
    assert scaled[8] == pytest.approx(base[8], **tol)          # spec_ent
    assert scaled[9] == pytest.approx(a * a * base[9], **tol)  # band_pow
    # sign flip negates skewness only
    flipped = channel_features(-x, FS)
    assert flipped[2] == pytest.approx(-base[2], **tol)
    assert flipped[3] == pytest.approx(base[3], **tol)


def test_shift_behavior_table():
    rng = np.random.default_rng(35)
    x = rng.standard_normal(200) * 4.0
    base = channel_features(x, FS)
    shifted = channel_features(x + 11.3, FS)
    for idx in (1, 2, 3, 4, 5, 6, 7):  # std..shan_ent shift-invariant
        assert shifted[idx] == pytest.approx(base[idx], rel=1e-9, abs=1e-9)
    assert shifted[0] != pytest.approx(base[0], rel=1e-3)  # rms moves


def test_entropy_ranges_on_random_windows():
    rng = np.random.default_rng(36)
    for _ in range(25):
        x = rng.standard_normal(200) * rng.uniform(0.1, 50)
        f = channel_features(x, FS)
        assert 0.0 <= f[7] <= math.log(ENTROPY_BINS) + 1e-12
        assert 0.0 <= f[8] <= 1.0


def test_flat_window_yields_defined_constants():
    f = channel_features(np.full(200, 5.5), FS)
    assert f[0] == pytest.approx(5.5)
    assert f[1] == 0.0 and f[2] == 0.0 and f[3] == 3.0
    assert f[4] == f[5] == f[6] == 0.0
    assert f[7] == 0.0 and f[8] == 0.0 and f[9] == 0.0
    assert np.isfinite(f).all()


def test_matrix_extraction_carries_labels():
    rng = np.random.default_rng(37)
    wins = [_window(rng.standard_normal((2, 200)), subject=s, start=s * 100)
            for s in (3, 1, 4)]
    X, y, starts = extract_feature_matrix(wins)
    assert X.shape == (3, 20)
    assert list(y) == [3, 1, 4]
    assert list(starts) == [300, 100, 400]


def test_input_validation():
    with pytest.raises(EmptyInput):
        rms([])
    with pytest.raises(TooFewSamples):
        std_dev([1.0])
    with pytest.raises(TooFewSamples):
        skewness([1.0, 2.0])
    with pytest.raises(TooFewSamples):
        kurtosis([1.0, 2.0, 3.0])
    with pytest.raises(TooFewSamples):
        hjorth([1.0, 2.0])
    with pytest.raises(TooFewSamples):
        shannon_entropy([1.0])
    with pytest.raises(TooFewSamples):
        periodogram(np.ones(7), FS)


def test_feature_vector_validation():
    with pytest.raises(Exception):
        FeatureVector(values=np.ones(7), subject_id=0)
    with pytest.raises(Exception):
        FeatureVector(values=np.array([np.nan] * 10), subject_id=0)


# ---------------------------------------------------------------------------
# Batch kernel against the scalar reference (feature_reference.py)
# ---------------------------------------------------------------------------

def _assert_matches_reference(windows):
    """extract_feature_matrix equals the reference channel_features per
    channel, bit for bit: the batch kernel repeats its arithmetic along an
    axis."""
    X, _, _ = extract_feature_matrix(windows)
    want = np.array([np.concatenate([channel_features(ch, w.fs) for ch in w.data])
                     for w in windows])
    assert X.shape == want.shape
    bad = np.argwhere(X != want)
    assert bad.size == 0, f"first mismatch at (window, column) {tuple(bad[0])}"


def test_batch_matches_reference_on_random_windows():
    rng = np.random.default_rng(40)
    data = (rng.standard_normal((40, 3, 200)) * rng.uniform(0.1, 50.0, (40, 1, 1))
            + rng.uniform(-20.0, 20.0, (40, 3, 1)))
    _assert_matches_reference([_window(d) for d in data])


def test_batch_matches_reference_on_flat_and_ramp_channels():
    rng = np.random.default_rng(41)
    data = np.stack([np.full(200, 5.5),             # flat window
                     np.arange(200.0) * 0.25 - 3.0,  # flat derivative
                     np.zeros(200),
                     rng.standard_normal(200),
                     # a range of one ulp: 16 bins repeat edges
                     np.array([1.0, np.nextafter(1.0, 2.0)] * 100)])
    X, _, _ = extract_feature_matrix([_window(data)])
    assert np.array_equal(X[0, :10], [5.5, 0, 0, 3, 0, 0, 0, 0, 0, 0])
    assert np.array_equal(X[0, 15:17], [0.0, 0.0])  # ramp: mobility, complexity
    assert X[0, 40 + FEATURE_NAMES.index("shan_ent")] == math.log(2.0)
    _assert_matches_reference([_window(data)])


def test_batch_histogram_agrees_on_bin_edges():
    # every sample sits on one of np.histogram's own bin edges or one ulp to
    # either side, where the scaled-offset bin index can be one off and its
    # corrections decide
    rng = np.random.default_rng(42)
    windows = []
    for _ in range(12):
        lo, hi = np.sort(rng.uniform(-30.0, 30.0, 2))
        edges = np.linspace(lo, hi, ENTROPY_BINS + 1)
        near = np.concatenate([edges, np.nextafter(edges, -np.inf),
                               np.nextafter(edges, np.inf)])
        data = rng.choice(np.clip(near, lo, hi), size=(2, 200))
        data[:, 0], data[:, 1] = lo, hi  # so the histogram range is [lo, hi]
        windows.append(_window(data))
    _assert_matches_reference(windows)


def test_batch_entropy_on_edges_ties_subnormal_and_flat_rows():
    # the batch histogram compares samples against e * step + lo; these
    # rows put samples on those edges and one ulp off, repeat values, span
    # only subnormals or one ulp, or are flat
    rng = np.random.default_rng(46)
    tiny = np.finfo(float).smallest_subnormal
    rows = []
    for _ in range(20):
        lo, hi = np.sort(rng.uniform(-1e3, 1e3, 2))
        edges = np.linspace(lo, hi, ENTROPY_BINS + 1)
        near = np.concatenate([edges, np.nextafter(edges, -np.inf),
                               np.nextafter(edges, np.inf)])
        row = rng.choice(np.clip(near, lo, hi), 200)
        row[:2] = lo, hi
        rows.append(row)
    rows += [rng.integers(0, k, 200) * rng.uniform(0.1, 10.0) for k in (2, 3, 5, 17)]
    rows += [rng.integers(-40, 40, 200) * tiny,          # subnormal samples
             np.where(rng.random(200) < 0.5, 0.0, tiny),  # two subnormal values
             rng.standard_normal(200) * 1e-300,
             np.array([1.0, np.nextafter(1.0, 2.0)] * 100),
             np.full(200, -7.25), np.zeros(200), np.full(200, tiny)]
    x = np.array(rows)
    got = _shannon_rows(x)
    want = [shannon_entropy(row) for row in x]
    assert np.array_equal(got, want), np.flatnonzero(got != want)


@pytest.mark.parametrize("width", [8, 9, 201])
def test_batch_matches_reference_at_odd_and_minimum_width(width):
    rng = np.random.default_rng(43)
    _assert_matches_reference(
        [_window(d) for d in rng.standard_normal((5, 2, width))])


@pytest.mark.parametrize("count", [1, _CHUNK, _CHUNK + 1])
def test_batch_matches_reference_across_chunk_boundary(count):
    rng = np.random.default_rng(44)
    wins = [_window(d, subject=i % 3, start=100 * i)
            for i, d in enumerate(rng.standard_normal((count, 2, 200)))]
    _assert_matches_reference(wins)
    _, y, starts = extract_feature_matrix(wins)
    assert list(y) == [i % 3 for i in range(count)]
    assert list(starts) == [100 * i for i in range(count)]


def test_batch_rejects_bad_window_sets():
    rng = np.random.default_rng(45)
    with pytest.raises(TooFewSamples, match="channel 0"):
        extract_feature_matrix([_window(rng.standard_normal((2, 7)))])
    with pytest.raises(EmptyInput):
        extract_feature_matrix([])
    mixed = [
        [_window(rng.standard_normal((2, 200))), _window(rng.standard_normal((2, 201)))],
        [_window(rng.standard_normal((2, 200))), _window(rng.standard_normal((3, 200)))],
        [_window(rng.standard_normal((2, 200))),
         _window(rng.standard_normal((2, 200)), fs=500.0)],
    ]
    for wins in mixed:
        with pytest.raises(InvalidArgument):
            extract_feature_matrix(wins)


# ---------------------------------------------------------------------------
# Feature table CSV
# ---------------------------------------------------------------------------

_TABLE_HEAD = "# fs=250.0\nsubject_id,start_index," + ",".join(feature_column_names(1)) + "\n"


def _table_row(sid="0", start="0", cell=None):
    cells = [sid, start] + [repr(0.5 * j) for j in range(N_FEATURES)]
    if cell is not None:
        cells[cell[0]] = cell[1]
    return ",".join(cells) + "\n"


# (file text, error, 0-based (row, col) of the bad cell or row, or None)
_BAD_TABLES = {
    "ragged row": (_TABLE_HEAD + _table_row() + _table_row().rsplit(",", 1)[0] + "\n",
                   RaggedRows, (1, None)),
    "text cell": (_TABLE_HEAD + _table_row() * 2 + _table_row(cell=(5, "oops")),
                  NonNumericSample, (2, 5)),
    "nan cell": (_TABLE_HEAD + _table_row(cell=(3, "nan")) + _table_row(),
                 NonNumericSample, (0, 3)),
    "inf cell": (_TABLE_HEAD + _table_row() + _table_row(cell=(11, "inf")),
                 NonNumericSample, (1, 11)),
    "comment sign": (_TABLE_HEAD + _table_row() + _table_row(cell=(4, "#1")),
                     NonNumericSample, (1, 4)),
    "blank line": (_TABLE_HEAD + _table_row() + "\n" + _table_row(),
                   RaggedRows, (1, None)),
    "fractional label": (_TABLE_HEAD + _table_row() + _table_row(sid="1.5"),
                         NonNumericSample, (1, 0)),
    "fractional start": (_TABLE_HEAD + _table_row(start="2.5"),
                         NonNumericSample, (0, 1)),
    # 2**53 + 1 parses to the float 2**53: refused, not silently changed
    "label beyond 2**53": (_TABLE_HEAD + _table_row(sid="9007199254740993"),
                           NonNumericSample, (0, 0)),
    "missing header": ("# fs=250.0\n", MalformedHeader, None),
    "header without rows": (_TABLE_HEAD, MalformedHeader, None),
}


@pytest.mark.parametrize("case", list(_BAD_TABLES))
def test_load_feature_table_rejects_damaged_files(tmp_path, case):
    text, error, where = _BAD_TABLES[case]
    path = tmp_path / "features.csv"
    path.write_text(text)
    with pytest.raises(error) as ei:
        load_feature_table(path)
    if error is NonNumericSample:
        assert (ei.value.row, ei.value.col) == where
    elif error is RaggedRows:
        assert f"row {where[0]} has" in str(ei.value)
        assert str(path) in str(ei.value)


def test_load_feature_table_refuses_a_header_key_given_twice(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text("# fs=500.0\n" + _TABLE_HEAD + _table_row())
    with pytest.raises(MalformedHeader, match="'fs' given twice") as ei:
        load_feature_table(path)
    assert str(path) in str(ei.value)


def test_load_feature_table_accepts_the_well_formed_table(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text(_TABLE_HEAD + _table_row() + _table_row(sid="3", start="100"))
    X, labels, starts, meta = load_feature_table(path)
    assert X.shape == (2, N_FEATURES)
    assert labels.tolist() == [0, 3] and starts.tolist() == [0, 100]
    assert meta == {"fs": "250.0"}


def test_feature_table_round_trip_across_blocks_is_bit_exact(tmp_path):
    # 1,500 rows of shortest-repr values across the whole double range
    rng = np.random.default_rng(46)
    n = 1500
    X = rng.standard_normal((n, 2 * N_FEATURES)) * 10.0 ** rng.integers(-300, 300, (n, 1))
    X[0, 0], X[1, 1], X[2, 2] = -0.0, 5e-324, np.finfo(float).max
    labels = rng.integers(0, 12, n)
    starts = np.arange(n) * 100
    meta = {"fs": "250.0", "win_s": "0.8", "asr": "1"}
    path = tmp_path / "features.csv"
    save_feature_table(path, X, labels, starts, meta=meta)
    X2, labels2, starts2, meta2 = load_feature_table(path)
    assert X2.dtype == X.dtype and np.array_equal(X2.view(np.uint64), X.view(np.uint64))
    assert np.array_equal(labels2, labels) and np.array_equal(starts2, starts)
    assert meta2 == meta


def test_feature_table_writes_shortest_exact_decimals(tmp_path):
    row = [-0.0, 5e-324, 1e-300, 0.1, 3.0, 1e16, -2.5e-05, 0.0, 0.0, 0.0]
    path = tmp_path / "golden.csv"
    save_feature_table(path, np.array([row]), [3], [40])
    assert path.read_text().splitlines()[1] == (
        "3,40,-0.0,5e-324,1e-300,0.1,3.0,1e+16,-2.5e-05,0.0,0.0,0.0")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_save_feature_table_refuses_non_finite_values(tmp_path, bad):
    X = np.ones((2, N_FEATURES))
    X[1, 4] = bad
    path = tmp_path / "features.csv"
    with pytest.raises(InvalidArgument, match="NaN/Inf"):
        save_feature_table(path, X, [0, 1], [0, 100])
    assert not path.exists()


def test_save_feature_table_wraps_os_errors(tmp_path):
    with pytest.raises(IoFailure, match="cannot write"):
        save_feature_table(tmp_path / "missing" / "features.csv",
                           np.ones((1, N_FEATURES)), [0], [0])


@pytest.mark.parametrize("labels, starts, bad", [
    ([0.7, 1.5], [0, 100], "subject_id"),
    ([0, 1], [0, 100.9], "start_index"),
    ([0, 2.0 ** 53], [0, 100], "subject_id"),
    ([0, 1], [0, np.nan], "start_index"),
])
def test_save_feature_table_refuses_non_integral_ids(tmp_path, labels, starts, bad):
    path = tmp_path / "features.csv"
    with pytest.raises(InvalidArgument, match=f"^{bad} must be integers below 2\\*\\*53"):
        save_feature_table(path, np.ones((2, N_FEATURES)), labels, starts)
    assert not path.exists()


def test_save_feature_table_writes_integral_float_ids_as_ints(tmp_path):
    X = np.ones((2, N_FEATURES))
    save_feature_table(tmp_path / "int.csv", X, [0, 3], [0, 100])
    save_feature_table(tmp_path / "float.csv", X, [0.0, 3.0], np.array([0.0, 100.0]))
    assert (tmp_path / "int.csv").read_bytes() == (tmp_path / "float.csv").read_bytes()
