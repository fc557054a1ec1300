"""Fundamental frequency tracking.

The estimator is a difference-function autocorrelation with cumulative-mean
normalization (YIN-style): per frame, d(tau) is the energy of the residual
between the frame and its tau-shifted copy, normalized by its running mean.
A frame is voiced when the normalized difference dips below the confidence
threshold inside the [FMIN, FMAX] lag range (YIN's absolute-threshold step);
the dip location is refined by parabolic interpolation and converted to Hz.

A track is one read-only structured array with a ``time_ms`` field (frame
centers, ascending) and an ``f0_hz`` field that is NaN on unvoiced frames.
Given syntagm spans, a track holds only the frames inside them, the frames
``median_f0`` reads for those spans, and only those frames are computed.
Everything, dip picking included, is vectorized over frames, in batches of
``_BATCH_FRAMES`` frames that keep a batch's (frames x lags) arrays in a
core's L2 cache. Each frame's FFT and each energy group's running sum is
computed on its own, so a frame's f0 does not depend on the spans or on the
batch size.

Two rewrites of the textbook computation keep d(tau) exact while doing less
work. The cross-correlation of the w-sample window against lags 0..lag_max
reads only the frame's first w + lag_max samples, so only those are
transformed, with an FFT of frame_len points: circular correlation does not
wrap for any lag up to lag_max when nfft >= w + lag_max, and lag_max <= w
gives w + lag_max <= frame_len. The window energies are differences of a
running sum of squares rather than one cumulative sum per frame; the sum
restarts every ``_ENERGY_GROUP`` frames, so the rounding of a large running
total never reaches a quiet frame far into the signal. Against a per-frame
reference the effect is at most 3.5e-9 Hz on a 10-minute, near-full-scale
16 kHz signal; the tests bound it at 1e-8 Hz on the last frames of every
energy group there, and at 1e-9 Hz on every frame of shorter signals.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import AudioBuffer, SegmentBounds

FRAME_MS = 40
HOP_MS = 10
FMIN = 60
FMAX = 400
VOICING_THRESHOLD = 0.15
_BATCH_FRAMES = 256
_ENERGY_GROUP = 32
FRAME_DTYPE = np.dtype([("time_ms", np.float64), ("f0_hz", np.float64)])


@dataclass(frozen=True, eq=False)
class F0Track:
    """One record per tracked frame: ``time_ms`` ascending, ``f0_hz`` NaN when unvoiced."""

    frames: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.frames["time_ms"]) < 0):
            raise ValueError("frame times must be ascending")
        self.frames.setflags(write=False)

    @classmethod
    def from_arrays(cls, time_ms, f0_hz) -> "F0Track":
        frames = np.empty(len(time_ms), FRAME_DTYPE)
        frames["time_ms"], frames["f0_hz"] = time_ms, f0_hz
        return cls(frames)


def _cmndf_batch(samples: np.ndarray, rows: np.ndarray, frame_len: int, hop: int, w: int,
                 lag_max: int) -> np.ndarray:
    """Cumulative-mean-normalized difference function of the frames at
    ``rows`` (ascending) among those that start every ``hop`` samples of
    ``samples``; rows = those frames, columns = lags 0..lag_max."""
    reach = w + lag_max  # samples of a frame that some lag reads; <= frame_len
    frames = sliding_window_view(samples, reach)[rows * hop]
    # cross-correlation of the w-sample window against the frame's first
    # `reach` samples: with nfft >= reach no lag up to lag_max wraps around
    spec = np.fft.rfft(frames, frame_len, axis=1)
    spec_win = np.fft.rfft(frames[:, :w], frame_len, axis=1)
    np.conjugate(spec_win, out=spec_win)
    spec_win *= spec
    cross = np.fft.irfft(spec_win, frame_len, axis=1)[:, : lag_max + 1]
    # window energies e[i, tau] (lag 0 is e0) as differences of a running sum
    # of squares, restarted every _ENERGY_GROUP frames to keep its rounding
    # local; frames past the last row (zero padding) are dropped
    groups = -(-(rows[-1] + 1) // _ENERGY_GROUP)
    group_len = (_ENERGY_GROUP - 1) * hop + reach
    sq = np.zeros((groups * _ENERGY_GROUP - 1) * hop + reach)
    np.square(samples[: len(sq)], out=sq[: len(samples)])
    sums = np.zeros((groups, group_len + 1))
    np.cumsum(sliding_window_view(sq, group_len)[:: _ENERGY_GROUP * hop], axis=1,
              out=sums[:, 1:])
    energy = sums[:, w:] - sums[:, : group_len + 1 - w]
    e_tau = sliding_window_view(energy, lag_max + 1, axis=1)[:, ::hop]
    e_tau = e_tau[rows // _ENERGY_GROUP, rows % _ENERGY_GROUP]
    diff = e_tau + e_tau[:, :1]
    cross *= 2.0
    diff -= cross
    np.maximum(diff, 0.0, out=diff)
    running = np.cumsum(diff[:, 1:], axis=1)
    norm = diff[:, 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        norm *= np.arange(1, lag_max + 1, dtype=np.float64)
        norm /= running
    np.copyto(norm, 1.0, where=~(running > 0.0))
    diff[:, 0] = 1.0
    return diff


def _pick_f0(cmndf: np.ndarray, lag_min: int, sample_rate: int) -> np.ndarray:
    """f0 per CMNDF row (lags 0..lag_max); NaN where no lag >= lag_min dips
    below the threshold."""
    lag_max = cmndf.shape[1] - 1
    if lag_min > lag_max:
        return np.full(len(cmndf), np.nan)
    seg = cmndf[:, lag_min:]
    below = seg < VOICING_THRESHOLD
    # walk downhill from the first candidate to the first non-decreasing step
    stop = np.ones(seg.shape, dtype=bool)
    stop[:, :-1] = ~(seg[:, 1:] < seg[:, :-1])
    stop &= np.arange(seg.shape[1]) >= below.argmax(axis=1)[:, None]
    dip = lag_min + stop.argmax(axis=1)
    around = np.minimum(dip[:, None] + np.array([-1, 0, 1]), lag_max)
    a, b, c = np.take_along_axis(cmndf, around, axis=1).T
    denom = a - 2.0 * b + c
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = np.where(np.abs(denom) > 1e-12, 0.5 * (a - c) / denom, 0.0)
    delta = np.where(dip < lag_max, np.clip(delta, -0.5, 0.5), 0.0)
    f0 = np.minimum(np.maximum(sample_rate / (dip + delta), FMIN), FMAX)
    return np.where(below.any(axis=1), f0, np.nan)


def estimate_f0_track(buf: AudioBuffer,
                      spans: Sequence[tuple[float, float]] | None = None) -> F0Track:
    """Track f0 over the buffer, one ``FRAME_MS`` frame per ``HOP_MS`` hop.

    The frame spans at least two periods of ``FMIN``; frame times are frame
    centers. Unvoiced frames (no confident dip) carry NaN f0. Given
    ``spans``, (start_ms, end_ms) pairs, the track holds only the frames with
    start_ms <= time < end_ms for some span, the frames ``median_f0`` reads
    for them, each with the f0 the whole track gives it. Raises ValueError at
    rates of 50 Hz and below, where the hop rounds to no sample.
    """
    sr = buf.sample_rate
    frame_len = int(round(sr * FRAME_MS / 1000.0))
    hop = int(round(sr * HOP_MS / 1000.0))
    if hop == 0:
        raise ValueError(f"sample rate {sr} Hz too low for a {HOP_MS} ms f0 hop")
    w = frame_len // 2
    lag_max = min(w, int(np.ceil(sr / FMIN)))
    lag_min = max(2, int(sr // FMAX))
    n_frames = max(0, (len(buf.samples) - frame_len) // hop + 1)
    time_ms = (np.arange(n_frames) * hop + frame_len / 2.0) * 1000.0 / sr
    if spans is None:
        keep = np.arange(n_frames)
    else:
        inside = np.zeros(n_frames, dtype=bool)
        for lo, hi in np.searchsorted(time_ms, np.reshape(spans, (-1, 2))).tolist():
            inside[lo:hi] = True
        keep = np.flatnonzero(inside)

    # batches start at multiples of _BATCH_FRAMES, so at the same energy
    # groups whatever the spans; a batch with no kept frame is skipped
    f0 = np.full(len(keep), np.nan)
    bases = range(0, n_frames, _BATCH_FRAMES)
    cuts = np.searchsorted(keep, [*bases, n_frames]).tolist()
    for base, i, j in zip(bases, cuts, cuts[1:]):
        if i < j:
            rows = keep[i:j] - base
            samples = buf.samples[base * hop : (base + rows[-1]) * hop + frame_len]
            f0[i:j] = _pick_f0(_cmndf_batch(samples, rows, frame_len, hop, w, lag_max),
                               lag_min, sr)
    return F0Track.from_arrays(time_ms[keep], f0)


def median_f0(track: F0Track, bounds: SegmentBounds) -> float | None:
    """Median of voiced-frame f0 over frames with start_ms <= time < end_ms;
    None when none are voiced.

    Even counts use the midpoint of the two central values.
    """
    lo, hi = np.searchsorted(track.frames["time_ms"], [bounds.start_ms, bounds.end_ms])
    values = track.frames["f0_hz"][lo:hi]
    values = values[~np.isnan(values)]
    return float(np.median(values)) if values.size else None
