"""Filter design/application, simplified ASR, and windowing."""

import numpy as np
import pytest

from eegid.dsp import (
    AsrModel,
    apply_filter,
    asr_calibrate,
    asr_clean,
    design_butterworth_bandpass,
    design_notch,
    frequency_response,
    is_stable,
    segment_windows,
)
from eegid.errors import (
    ChannelMismatch,
    FrequencyOutOfRange,
    InvalidArgument,
    NonFiniteOutput,
    RankDeficientCovariance,
    RecordingTooShort,
    TooShortForCalibration,
    UnsupportedOrder,
)
from eegid.signal_io import Recording

FS = 250.0


def _rec(data, fs=FS):
    data = np.atleast_2d(data)
    return Recording(channels=tuple(f"c{i}" for i in range(data.shape[0])),
                     fs=fs, data=data)


def _steady_rms(x, fs, settle_s=5.0):
    tail = x[int(settle_s * fs):]
    return np.sqrt(np.mean(tail ** 2))


# ---------------------------------------------------------------------------
# Notch
# ---------------------------------------------------------------------------

def test_notch_zero_at_center_unit_at_dc_and_nyquist():
    f = design_notch(60.0, 30.0, FS)
    assert abs(frequency_response(f, 60.0, FS)[0]) <= 1e-6
    assert abs(abs(frequency_response(f, 0.0, FS)[0]) - 1.0) <= 1e-9
    assert abs(abs(frequency_response(f, FS / 2, FS)[0]) - 1.0) <= 1e-9
    assert is_stable(f)


def test_notch_kills_60hz_sinusoid():
    f = design_notch(60.0, 30.0, FS)
    t = np.arange(int(10 * FS)) / FS
    x = np.sin(2 * np.pi * 60.0 * t)
    y = apply_filter(f, _rec(x)).data[0]
    assert _steady_rms(y, FS) / _steady_rms(x, FS) <= 0.01


def test_notch_frequency_validation():
    with pytest.raises(FrequencyOutOfRange):
        design_notch(125.0, 30.0, FS)
    with pytest.raises(FrequencyOutOfRange):
        design_notch(0.0, 30.0, FS)


# ---------------------------------------------------------------------------
# Butterworth bandpass
# ---------------------------------------------------------------------------

def test_bandpass_edges_at_minus_3db():
    f = design_butterworth_bandpass(4, 0.1, 100.0, FS)
    assert f.shape == (2, 6)
    for edge in (0.1, 100.0):
        mag_db = 20 * np.log10(abs(frequency_response(f, edge, FS)[0]))
        assert abs(mag_db - (-3.0)) <= 0.5
    assert is_stable(f)


def test_bandpass_center_near_unity():
    f = design_butterworth_bandpass(4, 0.1, 100.0, FS)
    center = np.sqrt(0.1 * 100.0)
    mag_db = 20 * np.log10(abs(frequency_response(f, center, FS)[0]))
    assert abs(mag_db) <= 0.1


def test_bandpass_stopband_below_edge_gain():
    f = design_butterworth_bandpass(4, 0.1, 100.0, FS)
    h120 = abs(frequency_response(f, 120.0, FS)[0])
    edge = abs(frequency_response(f, 100.0, FS)[0])
    assert h120 < edge


def test_bandpass_rejects_dc():
    f = design_butterworth_bandpass(4, 0.1, 100.0, FS)
    x = np.full(20000, 5.0)
    y = apply_filter(f, _rec(x)).data[0]
    assert np.max(np.abs(y[-100:])) < 1e-4


def test_bandpass_validation():
    with pytest.raises(UnsupportedOrder):
        design_butterworth_bandpass(3, 0.1, 100.0, FS)
    with pytest.raises(FrequencyOutOfRange):
        design_butterworth_bandpass(4, 100.0, 0.1, FS)
    with pytest.raises(FrequencyOutOfRange):
        design_butterworth_bandpass(4, 0.1, 125.0, FS)


def test_designed_filters_stable_across_parameters():
    for f0 in (1.0, 10.0, 60.0, 110.0):
        assert is_stable(design_notch(f0, 30.0, FS))
    for order in (2, 4, 6, 8):
        for lo, hi in ((0.1, 100.0), (1.0, 40.0), (8.0, 13.0)):
            f = design_butterworth_bandpass(order, lo, hi, FS)
            assert f.shape == (order // 2, 6)
            assert is_stable(f)


# ---------------------------------------------------------------------------
# apply_filter
# ---------------------------------------------------------------------------

def test_identity_cascade_passthrough():
    ident = np.array([[1.0, 0.0, 0.0, 1.0, 0.0, 0.0]])
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 500))
    y = apply_filter(ident, _rec(x)).data
    assert np.array_equal(y, x)


def test_filter_linearity():
    f = design_butterworth_bandpass(4, 0.1, 100.0, FS)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(1000)
    y = rng.standard_normal(1000)
    a, b = 2.5, -1.25
    lhs = apply_filter(f, _rec(a * x + b * y)).data[0]
    rhs = a * apply_filter(f, _rec(x)).data[0] + b * apply_filter(f, _rec(y)).data[0]
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_filter_time_invariance():
    f = design_notch(60.0, 30.0, FS)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(800)
    d = 37
    shifted = np.concatenate([np.zeros(d), x[:-d]])
    y = apply_filter(f, _rec(x)).data[0]
    y_shifted = apply_filter(f, _rec(shifted)).data[0]
    assert np.max(np.abs(y_shifted[d:] - y[:-d])) <= 1e-9
    assert np.max(np.abs(y_shifted[:d])) <= 1e-12


def test_impulse_response_matches_analytic_response():
    f = design_notch(60.0, 30.0, FS)
    n = 4096
    impulse = np.zeros(n)
    impulse[0] = 1.0
    h_t = apply_filter(f, _rec(impulse)).data[0]
    h_fft = np.fft.rfft(h_t)
    freqs = np.fft.rfftfreq(n, d=1.0 / FS)
    h_ref = frequency_response(f, freqs, FS)
    assert np.max(np.abs(h_fft - h_ref)) <= 1e-6


def test_unstable_filter_raises():
    bad = np.array([[1.0, 0.0, 0.0, 1.0, 0.0, -1.21]])  # poles at +/-1.1
    assert not is_stable(bad)
    x = np.ones(20000)
    with pytest.raises(NonFiniteOutput):
        apply_filter(bad, _rec(x))


@pytest.mark.parametrize("sos", [
    pytest.param(np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]), id="one-row-1d"),
    pytest.param(np.zeros((0, 6)), id="no-sections"),
    pytest.param(np.ones((1, 5)), id="five-columns"),
    pytest.param(np.array([[1.0, 0.0, 0.0, 1.0, np.nan, 0.0]]), id="nan"),
    pytest.param(np.array([[1.0, 0.0, 0.0, 2.0, 0.0, 0.0]]), id="a0-not-1"),
    pytest.param([[1.0, 0.0], [1.0]], id="ragged"),
])
def test_malformed_sos_rejected(sos):
    r = _rec(np.ones(100))
    for call in (lambda: apply_filter(sos, r), lambda: is_stable(sos),
                 lambda: frequency_response(sos, 10.0, FS)):
        with pytest.raises(InvalidArgument):
            call()


def test_notch_bandpass_chain_attenuation():
    notch = design_notch(60.0, 30.0, FS)
    bp = design_butterworth_bandpass(4, 0.1, 100.0, FS)
    t = np.arange(int(10 * FS)) / FS

    x60 = np.sin(2 * np.pi * 60.0 * t)
    y60 = apply_filter(bp, apply_filter(notch, _rec(x60))).data[0]
    atten_db = 20 * np.log10(_steady_rms(x60, FS) / _steady_rms(y60, FS))
    assert atten_db >= 40.0

    x10 = np.sin(2 * np.pi * 10.0 * t)
    y10 = apply_filter(bp, apply_filter(notch, _rec(x10))).data[0]
    gain_db = 20 * np.log10(_steady_rms(y10, FS) / _steady_rms(x10, FS))
    assert abs(gain_db) <= 1.0


# ---------------------------------------------------------------------------
# ASR
# ---------------------------------------------------------------------------

def _noise_recording(seed=0, n_ch=8, dur_s=30.0, fs=FS):
    rng = np.random.default_rng(seed)
    data = 10.0 * rng.standard_normal((n_ch, int(dur_s * fs)))
    # mild channel mixing so the covariance is not already diagonal
    mix = np.eye(n_ch) + 0.2 * rng.standard_normal((n_ch, n_ch))
    return _rec(mix @ data, fs)


def test_asr_calibrate_basic_properties():
    ref = _noise_recording(seed=3)
    m = asr_calibrate(ref, k=15.0, win_s=0.5)
    assert m.mixing.shape == (8, 8)
    assert np.all(np.isfinite(m.thresholds)) and np.all(m.thresholds > 0)
    gram = m.mixing.T @ m.mixing
    assert np.max(np.abs(gram - np.eye(8))) <= 1e-8


def test_asr_threshold_scaling():
    ref = _noise_recording(seed=4)
    m1 = asr_calibrate(ref, k=15.0, win_s=0.5)
    doubled = Recording(channels=ref.channels, fs=ref.fs, data=2.0 * ref.data)
    m2 = asr_calibrate(doubled, k=15.0, win_s=0.5)
    assert np.max(np.abs(m2.thresholds - 2.0 * m1.thresholds)
                  / m1.thresholds) <= 1e-9


def test_asr_calibration_validation():
    short = _noise_recording(seed=5, dur_s=1.0)
    with pytest.raises(TooShortForCalibration):
        asr_calibrate(short, win_s=0.5)
    # rank-1 data: one source copied to every channel
    t = np.arange(int(30 * FS)) / FS
    src = np.sin(2 * np.pi * 11.0 * t)
    flat = _rec(np.tile(src, (8, 1)))
    with pytest.raises(RankDeficientCovariance):
        asr_calibrate(flat, win_s=0.5)


def test_asr_clean_identity_on_calibration_data():
    ref = _noise_recording(seed=6)
    m = asr_calibrate(ref, k=15.0, win_s=0.5)
    out = asr_clean(m, ref)
    assert np.max(np.abs(out.data - ref.data)) <= 1e-6


def test_asr_clean_attenuates_burst():
    ref = _noise_recording(seed=7)
    m = asr_calibrate(ref, k=15.0, win_s=0.5)
    data = ref.data.copy()
    lo, hi = 2000, 2500
    data[:, lo:hi] *= 10.0
    noisy = Recording(channels=ref.channels, fs=ref.fs, data=data)
    out = asr_clean(m, noisy)
    rms_in = np.sqrt(np.mean(noisy.data[:, lo:hi] ** 2))
    rms_out = np.sqrt(np.mean(out.data[:, lo:hi] ** 2))
    assert rms_out < rms_in
    # post-hoc: component RMS on the analysis grid stays near thresholds.
    # Cross-fading two windows that were scaled by different factors can
    # locally exceed the ceiling (measured ~11% on 10x bursts), so the
    # bound is asserted with slack rather than exactly.
    width = int(round(m.win_s * ref.fs))
    for start in range(0, out.n_samples - width + 1, width // 2):
        comp = m.mixing.T @ out.data[:, start:start + width]
        rms = np.sqrt(np.mean(comp ** 2, axis=1))
        assert np.all(rms <= 1.15 * m.thresholds)


def test_asr_clean_idempotent_on_clean_data():
    ref = _noise_recording(seed=8)
    m = asr_calibrate(ref, k=15.0, win_s=0.5)
    once = asr_clean(m, ref)
    twice = asr_clean(m, once)
    assert np.max(np.abs(twice.data - once.data)) <= 1e-6


def test_asr_clean_channel_mismatch():
    ref = _noise_recording(seed=9)
    m = asr_calibrate(ref, win_s=0.5)
    other = _noise_recording(seed=9, n_ch=4)
    with pytest.raises(ChannelMismatch):
        asr_clean(m, other)


def test_asr_model_validation():
    with pytest.raises(Exception):
        AsrModel(mixing=np.eye(3) * 2.0, thresholds=np.ones(3), k=15.0, win_s=0.5)
    with pytest.raises(Exception):
        AsrModel(mixing=np.eye(3), thresholds=np.array([1.0, -1.0, 1.0]),
                 k=15.0, win_s=0.5)


# ---------------------------------------------------------------------------
# Windowing
# ---------------------------------------------------------------------------

def test_window_count_matches_formula():
    rng = np.random.default_rng(10)
    r = _rec(rng.standard_normal((8, 75000)))
    wins = segment_windows(r, subject_id=3, win_s=0.8, hop_s=0.4)
    assert len(wins) == 749  # floor((75000 - 200)/100) + 1
    assert all(w.data.shape == (8, 200) for w in wins)
    assert all(w.subject_id == 3 for w in wins)
    assert [w.start_index for w in wins[:3]] == [0, 100, 200]


def test_windows_are_read_only_views():
    r = _rec(np.random.default_rng(11).standard_normal((2, 1000)))
    wins = segment_windows(r, 0)
    assert np.array_equal(wins[1].data, r.data[:, 100:300])
    assert all(np.shares_memory(w.data, r.data) for w in wins)
    with pytest.raises(ValueError):
        wins[0].data[0, 0] = 1.0
    assert r.data.flags.writeable


def test_window_boundaries():
    r = _rec(np.arange(200.0)[None, :])
    wins = segment_windows(r, 0)
    assert len(wins) == 1
    with pytest.raises(RecordingTooShort):
        segment_windows(_rec(np.arange(199.0)[None, :]), 0)


def test_window_overlap_consistency():
    rng = np.random.default_rng(11)
    r = _rec(rng.standard_normal((2, 1000)))
    wins = segment_windows(r, 0)
    for a, b in zip(wins, wins[1:]):
        assert np.array_equal(a.data[:, 100:], b.data[:, :100])
        assert b.start_index - a.start_index == 100
