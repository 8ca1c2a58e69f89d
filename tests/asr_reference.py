"""Per-window loop reference for `eegid.dsp.asr_clean`.

`asr_clean` projects, rebuilds and overlap-adds every window at once
through one strided view; this loop does the same one window at a time,
in window order, so the tests compare the two with exact equality.
"""

import numpy as np

from eegid.dsp import AsrModel
from eegid.errors import ChannelMismatch
from eegid.signal_io import Recording


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
