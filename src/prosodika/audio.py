"""Audio ingestion and preprocessing: WAV loading, resampling to 16 kHz,
peak normalization and RMS-gated speech segmentation.

All functions are pure: buffers are never modified in place, so they are safe
to hand to concurrent workers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from math import gcd
from pathlib import Path

import numpy as np


class AudioError(Exception):
    """Base class for audio I/O and format errors."""


class UnreadableFileError(AudioError, OSError):
    """File missing, truncated, or not a RIFF/WAVE container."""


class UnsupportedFormatError(AudioError, ValueError):
    """WAV codec or layout this reader does not handle."""


class UnsupportedRateError(AudioError, ValueError):
    """Source sample rate zero or below the supported minimum."""


TARGET_RATE = 16_000

# silence gate defaults (threshold relative to digital full scale)
SILENCE_THRESHOLD_DBFS = -35.0
MIN_GAP_MS = 300
RMS_WINDOW_MS = 25
RMS_HOP_MS = 10


@dataclass(frozen=True, eq=False)
class AudioBuffer:
    """Mono sampled signal. Samples are float64 in [-1, +1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        arr = np.asarray(self.samples, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_ms(self) -> int:
        return round(1000 * len(self.samples) / self.sample_rate)

    def slice_ms(self, start_ms: float, end_ms: float) -> np.ndarray:
        """View of the samples covering [start_ms, end_ms)."""
        a = max(0, int(round(start_ms * self.sample_rate / 1000.0)))
        b = min(len(self.samples), int(round(end_ms * self.sample_rate / 1000.0)))
        return self.samples[a:b]


@dataclass(frozen=True, order=True)
class SegmentBounds:
    """Half-open [start_ms, end_ms) span of detected speech."""

    start_ms: int
    end_ms: int

    def __post_init__(self):
        if self.start_ms < 0 or self.end_ms <= self.start_ms:
            raise ValueError(f"invalid bounds [{self.start_ms}, {self.end_ms})")


def _decode_pcm(path: Path, raw: memoryview, bits: int, audio_format: int) -> np.ndarray:
    if audio_format not in (1, 3):
        raise UnsupportedFormatError(f"{path}: WAV audio format tag {audio_format} not supported")
    if audio_format == 3 and bits != 32:
        raise UnsupportedFormatError(f"{path}: {bits}-bit float WAV not supported")
    if bits not in (8, 16, 24, 32):
        raise UnsupportedFormatError(f"{path}: {bits}-bit integer WAV not supported")
    raw = raw[: len(raw) - len(raw) % (bits // 8)]  # drop a partial last sample (a view)
    if audio_format == 3:  # IEEE float
        single = np.frombuffer(raw, dtype="<f4")
        # checked before the cast: casting a signalling NaN raises the FP invalid flag
        bad = np.flatnonzero(~np.isfinite(single))
        if bad.size:
            # one NaN would spread through peak normalization to every sample
            raise UnsupportedFormatError(f"{path}: non-finite float sample at index {bad[0]}")
        data = single.astype(np.float64)
        return np.clip(data, -1.0, 1.0, out=data)
    if bits == 8:
        data = np.frombuffer(raw, dtype=np.uint8).astype(np.float64)
        return (data - 128.0) / 128.0
    if bits == 16:
        return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    if bits == 24:
        # after one leading zero byte, each 3-byte sample is the top three
        # bytes of a little-endian int32 that starts one byte before it; an
        # arithmetic shift by 8 drops the byte below and extends the sign
        padded = bytearray(len(raw) + 1)
        padded[1:] = raw
        vals = np.ndarray((len(raw) // 3,), "<i4", buffer=padded, strides=(3,))
        return (vals >> 8) * (1.0 / (1 << 23))
    return np.frombuffer(raw, dtype="<i4").astype(np.float64) / float(1 << 31)


def load_wav(path: str | Path) -> AudioBuffer:
    """Read a PCM RIFF/WAVE file into a mono AudioBuffer.

    Accepts 1- or 2-channel files with 8/16/24/32-bit integer or 32-bit
    float samples. Stereo is downmixed by averaging the channels; samples
    are scaled to [-1, +1]. A partial last sample or frame is dropped. Every
    error is an AudioError that names the file.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise UnreadableFileError(f"cannot read {path}: {exc}") from exc
    if len(blob) < 12 or blob[0:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise UnreadableFileError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    view = memoryview(blob)  # chunk bodies are views: the decode makes the only copy
    while pos + 8 <= len(blob):
        chunk_id = blob[pos : pos + 4]
        (size,) = struct.unpack_from("<I", blob, pos + 4)
        body = view[pos + 8 : pos + 8 + size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise UnreadableFileError(f"{path}: truncated fmt chunk")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            data = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None or data is None:
        raise UnreadableFileError(f"{path}: missing fmt or data chunk")
    audio_format, n_channels, sample_rate, _, _, bits = fmt
    if audio_format == 0xFFFE:  # WAVE_FORMAT_EXTENSIBLE: sub-format GUID decides
        raise UnsupportedFormatError(f"{path}: extensible WAV not supported")
    if n_channels not in (1, 2):
        raise UnsupportedFormatError(f"{path}: {n_channels} channels not supported")
    if sample_rate == 0:
        raise UnsupportedRateError(f"{path}: sample rate 0 Hz")

    flat = _decode_pcm(path, data, bits, audio_format)
    if n_channels == 2:
        n = len(flat) // 2
        mixed = flat[0 : 2 * n : 2] + flat[1 : 2 * n : 2]
        if audio_format == 3:
            # a pair of negative zeros (only float samples hold them) averages
            # to +0.0, as numpy's mean gives: it sums from 0.0
            mixed += 0.0
        mixed *= 0.5  # exactly (a + b) / 2
        flat = mixed
    if not len(flat):
        raise UnsupportedFormatError(f"{path}: data chunk holds no whole sample")
    return AudioBuffer(flat, sample_rate)


def _sinc_kernel(up: int, down: int, taps_per_phase: int = 64, beta: float = 8.6) -> np.ndarray:
    # Kaiser-windowed sinc at the upsampled rate; odd length keeps the
    # group delay an integer so resample_poly centers the output exactly.
    n = taps_per_phase * up
    if n % 2 == 0:
        n += 1
    m = np.arange(n) - (n - 1) / 2.0
    cutoff = 1.0 / max(up, down)  # relative to upsampled Nyquist
    return cutoff * np.sinc(cutoff * m) * np.kaiser(n, beta)


def resample_to_16k(buf: AudioBuffer) -> AudioBuffer:
    """Band-limited resampling to 16 kHz (polyphase windowed sinc).

    Returns the input unchanged when it is already at 16 kHz. Rates below
    8 kHz are refused.
    """
    if buf.sample_rate == TARGET_RATE:
        return buf
    if buf.sample_rate < 8_000:
        raise UnsupportedRateError(f"source rate {buf.sample_rate} Hz below 8 kHz minimum")
    from scipy.signal import resample_poly  # slow to import; only annotate and segment need it

    g = gcd(buf.sample_rate, TARGET_RATE)
    up, down = TARGET_RATE // g, buf.sample_rate // g
    out = resample_poly(buf.samples, up, down, window=_sinc_kernel(up, down))
    return AudioBuffer(out, TARGET_RATE)


def peak_normalize(buf: AudioBuffer) -> AudioBuffer:
    """Scale so the absolute peak is exactly 1.0.

    Silent buffers come back unchanged so batch jobs survive silent files.
    """
    if len(buf.samples) == 0:
        raise ValueError("cannot normalize an empty buffer")
    peak = float(np.max(np.abs(buf.samples)))
    if peak == 0.0 or peak == 1.0:
        return buf
    return AudioBuffer(buf.samples / peak, buf.sample_rate)


def window_power(samples: np.ndarray, win: int, hop: int) -> np.ndarray:
    """Mean squared sample over each whole ``win``-sample window, one window
    every ``hop`` samples."""
    n_windows = (len(samples) - win) // hop + 1
    if n_windows <= 0:
        return np.empty(0)
    # the running sum of squares from 0, built in place in one array
    sq = np.empty(len(samples) + 1)
    sq[0] = 0.0
    np.multiply(samples, samples, out=sq[1:])
    np.cumsum(sq[1:], out=sq[1:])
    starts = np.arange(n_windows) * hop
    return (sq[starts + win] - sq[starts]) / win


def detect_speech_segments(
    buf: AudioBuffer,
    threshold_dbfs: float = SILENCE_THRESHOLD_DBFS,
    min_gap_ms: int = MIN_GAP_MS,
) -> list[SegmentBounds]:
    """Silence-gated segmentation: maximal runs of windows whose RMS exceeds
    the threshold, with sub-gap silences merged into the surrounding run.

    Windows are 25 ms with a 10 ms hop; a gap between two speech runs shorter
    than ``min_gap_ms`` does not split them. Digital silence yields an empty
    list. Raises ValueError at rates of 50 Hz and below, where the hop rounds
    to no sample.
    """
    win = int(round(buf.sample_rate * RMS_WINDOW_MS / 1000.0))
    hop = int(round(buf.sample_rate * RMS_HOP_MS / 1000.0))
    if hop == 0:
        raise ValueError(f"sample rate {buf.sample_rate} Hz too low for a {RMS_HOP_MS} ms RMS hop")
    with np.errstate(divide="ignore"):
        rms_db = 10.0 * np.log10(window_power(buf.samples, win, hop))
    speech = rms_db > threshold_dbfs
    merged: list[list[int]] = []  # [start_ms, end_ms] over window extents
    for i in np.flatnonzero(speech):
        start = int(i) * RMS_HOP_MS
        if merged and (start <= merged[-1][1] or start - merged[-1][1] < min_gap_ms):
            merged[-1][1] = start + RMS_WINDOW_MS
        else:
            merged.append([start, start + RMS_WINDOW_MS])
    return [SegmentBounds(a, b) for a, b in merged]
