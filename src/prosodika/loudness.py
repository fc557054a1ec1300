"""Integrated loudness measurement (BS.1770-style, mono).

The signal is passed through the two-stage K-weighting cascade (high shelf +
high-pass), cut into 400 ms blocks with 75% overlap, and gated twice: blocks
below the -70 LUFS absolute gate are dropped, then blocks more than 10 LU
below the mean of the survivors are dropped. The result is

    L = -0.691 + 10 * log10(mean block power)

over the blocks that survive both gates.

Calibration note: the cascade here is normalized to exactly unity gain at
997 Hz, so a full-scale 997 Hz sine reads -0.691 + 10*log10(0.5) = -3.70 LUFS.
Reference meters that keep the shelf's +0.69 dB gain at 1 kHz read that much
higher on every signal; the offset is constant and cancels in all loudness
differences, which is the only way this toolkit consumes loudness.
"""

from __future__ import annotations

import numpy as np

from .audio import AudioBuffer, SegmentBounds, window_power

SILENCE = float("-inf")

ABSOLUTE_GATE_LUFS = -70.0
RELATIVE_GATE_LU = 10.0
BLOCK_S = 0.400
BLOCK_HOP_S = 0.100
_OFFSET = -0.691
_CAL_HZ = 997.0
_SHELF_HZ = 1681.9744509555319


class SegmentTooShortError(ValueError):
    """Segment shorter than one 400 ms gating block."""


def _shelf_and_highpass(sample_rate: int) -> np.ndarray:
    # Parametric redesign of the two K-weighting biquads for an arbitrary
    # sample rate (bilinear transform of the analog prototypes). With the
    # shelf at or above Nyquist the prewarp leaves tan's first branch and
    # the shelf's poles leave the unit circle.
    if sample_rate <= 2.0 * _SHELF_HZ:
        raise ValueError(f"sample rate {sample_rate} Hz too low for K-weighting, whose "
                         f"{_SHELF_HZ:.2f} Hz shelf must lie below Nyquist")
    f0, gain_db, q = _SHELF_HZ, 3.99984385397, 0.7071752369554193
    k = np.tan(np.pi * f0 / sample_rate)
    vh = 10.0 ** (gain_db / 20.0)
    vb = vh ** 0.499666774155
    a0 = 1.0 + k / q + k * k
    shelf = [
        (vh + vb * k / q + k * k) / a0,
        2.0 * (k * k - vh) / a0,
        (vh - vb * k / q + k * k) / a0,
        1.0,
        2.0 * (k * k - 1.0) / a0,
        (1.0 - k / q + k * k) / a0,
    ]
    f0, q = 38.13547087613982, 0.5003270373253953
    k = np.tan(np.pi * f0 / sample_rate)
    a0 = 1.0 + k / q + k * k
    highpass = [
        1.0,
        -2.0,
        1.0,
        1.0,
        2.0 * (k * k - 1.0) / a0,
        (1.0 - k / q + k * k) / a0,
    ]
    return np.array([shelf, highpass])


def _cascade_gain_at(sos: np.ndarray, freq_hz: float, sample_rate: int) -> float:
    z = np.exp(-2j * np.pi * freq_hz / sample_rate)
    h = 1.0 + 0.0j
    for b0, b1, b2, a0, a1, a2 in sos:
        h *= (b0 + b1 * z + b2 * z * z) / (a0 + a1 * z + a2 * z * z)
    return abs(h)


def k_weighting_sos(sample_rate: int) -> np.ndarray:
    """Second-order sections of the K-weighting cascade, unity gain at 997 Hz."""
    sos = _shelf_and_highpass(sample_rate)
    sos[0, :3] /= _cascade_gain_at(sos, _CAL_HZ, sample_rate)
    return sos


def integrated_loudness(buf: AudioBuffer, bounds: SegmentBounds | None = None) -> float:
    """Gated integrated loudness of a segment, in LUFS.

    Returns the SILENCE sentinel (-inf) when every gating block falls below
    the absolute gate. Raises SegmentTooShortError below one gating block,
    and ValueError at sample rates of 3363 Hz and below, where the
    K-weighting cascade is unstable.
    """
    samples = buf.samples if bounds is None else buf.slice_ms(bounds.start_ms, bounds.end_ms)
    block = int(round(BLOCK_S * buf.sample_rate))
    hop = int(round(BLOCK_HOP_S * buf.sample_rate))
    if len(samples) < block:
        raise SegmentTooShortError(
            f"segment of {len(samples)} samples is shorter than one "
            f"{BLOCK_S * 1000:.0f} ms gating block"
        )
    from scipy.signal import sosfilt  # slow to import; only annotate needs it

    power = window_power(sosfilt(k_weighting_sos(buf.sample_rate), samples), block, hop)
    with np.errstate(divide="ignore"):
        level = _OFFSET + 10.0 * np.log10(power)
    survivors = power[level > ABSOLUTE_GATE_LUFS]
    if survivors.size == 0:
        return SILENCE
    # never empty: the loudest survivor is at least their mean, above this gate
    relative_gate = _OFFSET + 10.0 * np.log10(np.mean(survivors)) - RELATIVE_GATE_LU
    kept = power[(level > ABSOLUTE_GATE_LUFS) & (level > relative_gate)]
    return float(_OFFSET + 10.0 * np.log10(np.mean(kept)))
