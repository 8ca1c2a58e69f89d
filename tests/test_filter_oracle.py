"""The numpy filter design, response and block filter against scipy.signal.

scipy is a test-only oracle here: `eegid` itself never imports it.
"""

import numpy as np
import pytest

from eegid import dsp
from eegid.signal_io import Recording

ss = pytest.importorskip("scipy.signal")

RTOL = 1e-12  # relative to the peak of the oracle's output or response
L = dsp._BLOCK


def _random_stable_sos(rng, sections):
    """Random biquads, poles up to radius 0.9999; the first section's
    poles sit at 0.9999 exactly."""
    rows = []
    for k in range(sections):
        radius = 0.9999 if k == 0 else rng.uniform(0.0, 0.9999)
        if rng.random() < 0.25:  # two real poles
            poles = np.array([radius * rng.choice([-1.0, 1.0]),
                              rng.uniform(-0.9999, 0.9999)])
            a = [1.0, -poles.sum(), poles.prod()]
        else:
            theta = rng.uniform(0.0, np.pi)
            a = [1.0, -2.0 * radius * np.cos(theta), radius * radius]
        rows.append(np.r_[rng.standard_normal(3), a])
    return np.array(rows)


def _filtered(sos, data):
    channels = tuple(f"c{i}" for i in range(data.shape[0]))
    return dsp.apply_filter(sos, Recording(channels=channels, fs=250.0, data=data)).data


def _assert_close(ours, ref, rtol=RTOL):
    err, peak = np.max(np.abs(ours - ref)), np.max(np.abs(ref))
    assert err <= rtol * peak, f"deviation {err:.3g} of peak {peak:.3g}"


@pytest.mark.parametrize("layout", ["c", "f"])
@pytest.mark.parametrize("channels", [1, 8])
@pytest.mark.parametrize("n", [1, L - 1, L, L + 1, 2500, 7500])
def test_apply_filter_matches_sosfilt(n, channels, layout):
    """Each section within RTOL of sosfilt on the same input, and a cascade
    bit for bit its sections run in order.

    Random cascades are compared section by section: after a section with
    poles at radius 0.9999, the float64 rounding of the intermediate
    signal, amplified by the later sections, already moves sosfilt's own
    cascade output by up to ~1e-12 of its peak from an 80-bit reference.
    The pipeline's notch + bandpass cascade is also compared whole.
    """
    rng = np.random.default_rng([n, channels, ord(layout)])
    if layout == "f":  # the samples x channels body transposed, as load_recording_csv returns it
        x = 40.0 * rng.standard_normal((n, channels)).T
    else:
        x = 40.0 * rng.standard_normal((channels, n))
    pipeline_cascade = np.vstack([dsp.design_notch(60.0, 30.0, 250.0),
                                  dsp.design_butterworth_bandpass(4, 0.1, 100.0, 250.0)])
    ours = _filtered(pipeline_cascade, x)
    assert ours.shape == x.shape and ours.flags.c_contiguous
    _assert_close(ours, ss.sosfilt(pipeline_cascade, x, axis=1))
    for sos in [_random_stable_sos(rng, sections) for sections in (1, 2, 3, 4)]:
        stage = x
        for row in sos:
            ref = ss.sosfilt(row[None, :], stage, axis=1)
            stage = _filtered(row[None, :], stage)
            _assert_close(stage, ref)
        assert np.array_equal(_filtered(sos, x).view(np.uint64), stage.view(np.uint64))


@pytest.mark.parametrize("order", [2, 4, 6, 8])
@pytest.mark.parametrize("f_lo, f_hi, fs", [
    (0.1, 100.0, 250.0), (1.0, 40.0, 250.0), (8.0, 13.0, 250.0),
    (30.0, 120.0, 250.0), (0.5, 200.0, 1000.0), (45.0, 55.0, 500.0),
])
def test_butterworth_design_matches_butter(order, f_lo, f_hi, fs):
    ours = dsp.design_butterworth_bandpass(order, f_lo, f_hi, fs)
    ref = ss.butter(order // 2, [f_lo, f_hi], btype="bandpass", fs=fs, output="sos")
    assert ours.shape == ref.shape == (order // 2, 6)
    assert np.all(ours[:, 3] == 1.0)
    assert dsp.is_stable(ours)
    freqs = np.concatenate([np.linspace(0.0, fs / 2, 1001), [f_lo, f_hi]])
    h_ours = ss.sosfreqz(ours, worN=freqs, fs=fs)[1]
    h_ref = ss.sosfreqz(ref, worN=freqs, fs=fs)[1]
    _assert_close(h_ours, h_ref)


@pytest.mark.parametrize("seed", range(5))
def test_frequency_response_matches_sosfreqz(seed):
    """Within 1e-11 of the peak response: sosfreqz's own Horner evaluation
    strays up to ~2e-12 of the peak from an 80-bit evaluation near the
    poles of an order-8 0.5-40 Hz bandpass, where this one stays within
    ~3e-13."""
    rng = np.random.default_rng(seed)
    fs = 250.0
    freqs = np.concatenate([np.linspace(0.0, fs / 2, 501), rng.uniform(0.0, fs / 2, 20)])
    for sos in (_random_stable_sos(rng, 1 + seed % 4),
                dsp.design_notch(60.0, 30.0, fs),
                dsp.design_butterworth_bandpass(2 + 2 * (seed % 4), 0.5, 40.0, fs)):
        ours = dsp.frequency_response(sos, freqs, fs)
        assert ours.shape == freqs.shape
        _assert_close(ours, ss.sosfreqz(sos, worN=freqs, fs=fs)[1], 1e-11)
    assert dsp.frequency_response(sos, 10.0, fs).shape == (1,)
