"""
Mains-notch, bandpass, and artifact subspace cleaning
=====================================================

Shows the attenuation of the fixed filter chain and how the
subspace-reconstruction stage flattens a large transient burst.
"""

import numpy as np

from eegid import (
    Recording,
    SynthProfile,
    apply_filter,
    asr_calibrate,
    asr_clean,
    design_butterworth_bandpass,
    design_notch,
    frequency_response,
    generate_synthetic_subject,
)
from eegid.dsp import is_stable

FS = 250.0

# The fixed chain: a 60 Hz notch (Q = 30) followed by a 4th-order
# Butterworth bandpass between 0.1 and 100 Hz.
notch = design_notch(60.0, q=30.0, fs=FS)
band = design_butterworth_bandpass(4, 0.1, 100.0, fs=FS)
print(f"notch stable: {is_stable(notch)}   bandpass stable: {is_stable(band)}")

# Inspect the gain of each stage at a few telling frequencies.
probe = np.array([0.1, 1.0, 10.0, 45.0, 60.0, 100.0])
gain_notch = 20 * np.log10(np.abs(frequency_response(notch, probe, FS)))
gain_band = 20 * np.log10(np.abs(frequency_response(band, probe, FS)))
print(f"{'freq (Hz)':>10} {'notch (dB)':>12} {'bandpass (dB)':>14}")
for f, gn, gb in zip(probe, gain_notch, gain_band):
    print(f"{f:>10.1f} {gn:>12.2f} {gb:>14.2f}")

# Make a clean recording, calibrate the cleaner on it, then blow up a
# half-second stretch of every channel -- the kind of amplitude excursion
# an eye blink or electrode pop leaves behind -- and reconstruct.
profile = SynthProfile(components=((6.0, 1.0, 9.0), (21.0, 2.0, 5.0)),
                       noise_floor=1.0, seed=21)
rec = generate_synthetic_subject(profile, duration_s=20.0, fs=FS)
# Both designs are (sections, 6) SOS arrays; stacked, they run as one cascade.
filtered = apply_filter(np.vstack([notch, band]), rec)
model = asr_calibrate(filtered, k=15.0, win_s=0.5)

burst = slice(2000, 2125)  # 0.5 s
corrupt = filtered.data.copy()
corrupt[:, burst] *= 12.0
dirty = Recording(channels=filtered.channels, fs=filtered.fs, data=corrupt)
cleaned = asr_clean(model, dirty)

rms = lambda x: float(np.sqrt(np.mean(x ** 2)))
print(f"\nburst RMS across all channels:")
print(f"  before cleaning: {rms(dirty.data[:, burst]):8.2f} uV")
print(f"  after cleaning:  {rms(cleaned.data[:, burst]):8.2f} uV")
print(f"  clean original:  {rms(filtered.data[:, burst]):8.2f} uV")

# Samples far away from the burst should pass through nearly unchanged.
quiet = slice(3000, 4000)
drift = np.abs(cleaned.data[0, quiet] - dirty.data[0, quiet]).max()
print(f"max change outside the burst: {drift:.3g} uV")
