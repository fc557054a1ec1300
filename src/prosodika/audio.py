"""Audio ingestion and preprocessing: WAV loading, resampling to 16 kHz,
peak normalization and RMS-gated speech segmentation.

The public functions are pure: buffers are never modified in place, so they
are safe to hand to concurrent workers.
"""

from __future__ import annotations

import functools
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
_TAPS_PER_PHASE = 64  # of the resampling kernel, per polyphase branch
_KAISER_BETA = 8.6  # the shape of the kernel's Kaiser window

# silence gate defaults (threshold relative to digital full scale)
SILENCE_THRESHOLD_DBFS = -35.0
MIN_GAP_MS = 300
RMS_WINDOW_MS = 25
RMS_HOP_MS = 10


class AudioBuffer:
    """Mono sampled signal: ``len(buf)`` finite float64 samples at
    ``sample_rate``, nominally in [-1, +1] (resampling may overshoot: a
    full-scale 440 Hz square wave at 44.1 kHz peaks at 1.18 after
    resample_to_16k).

    The samples are read through ``window(a, b)``. A buffer holds them either
    as a float64 array (``AudioBuffer(samples, rate)``, and resample_to_16k's
    output) or as the sample bytes of a WAV data chunk (load_wav's output),
    which each window decodes, so a 16-bit voice costs 2 bytes per sample
    rather than 8. peak_normalize adds a peak that every window is divided
    by. ``samples`` builds the whole signal, read-only, on each request.
    """

    __slots__ = ("sample_rate", "_len", "_source", "_layout", "_peak")

    def __init__(self, samples: np.ndarray, sample_rate: int):
        if sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {sample_rate}")
        arr = np.asarray(samples, dtype=np.float64)
        arr.setflags(write=False)
        self.sample_rate, self._len = sample_rate, len(arr)
        self._source, self._layout, self._peak = arr, None, 1.0

    @classmethod
    def _of(cls, sample_rate: int, n: int, source, layout: tuple[int, int, int] | None,
            peak: float = 1.0) -> AudioBuffer:
        """n samples held as ``source``: a float64 array (layout None) or a
        data chunk's whole frames of the (bits, audio format, channels)
        layout, each window divided by ``peak``."""
        buf = cls.__new__(cls)
        buf.sample_rate, buf._len = sample_rate, n
        buf._source, buf._layout, buf._peak = source, layout, peak
        return buf

    def __len__(self) -> int:
        return self._len

    def window(self, a: int, b: int) -> np.ndarray:
        """The samples from index ``a`` up to ``b``, a fresh array or a
        read-only view; a window that runs past either end is cut to the
        buffer."""
        a = max(a, 0)
        b = max(a, min(b, self._len))
        if self._layout is None:
            x = self._source[a:b]
            return x if self._peak == 1.0 else x / self._peak
        bits, audio_format, n_channels = self._layout
        frame = bits // 8 * n_channels
        x = _decode_pcm(self._source[a * frame : b * frame], bits, audio_format, n_channels)
        if self._peak != 1.0:
            x /= self._peak  # x is fresh: the bits of x / peak
        return x

    @property
    def samples(self) -> np.ndarray:
        x = self.window(0, self._len)
        x.setflags(write=False)
        return x

    @property
    def duration_ms(self) -> int:
        return round(1000 * self._len / self.sample_rate)

    def slice_ms(self, start_ms: float, end_ms: float) -> np.ndarray:
        """The window covering [start_ms, end_ms)."""
        return self.window(int(round(start_ms * self.sample_rate / 1000.0)),
                           int(round(end_ms * self.sample_rate / 1000.0)))


@dataclass(frozen=True, order=True)
class SegmentBounds:
    """Half-open [start_ms, end_ms) span of detected speech."""

    start_ms: int
    end_ms: int

    def __post_init__(self):
        if self.start_ms < 0 or self.end_ms <= self.start_ms:
            raise ValueError(f"invalid bounds [{self.start_ms}, {self.end_ms})")


def _decode_pcm(raw: memoryview, bits: int, audio_format: int, n_channels: int) -> np.ndarray:
    """A fresh array of the whole frames in ``raw`` (a layout load_wav
    accepts) scaled to [-1, +1], the two channels of a stereo file averaged."""
    if audio_format == 3:  # IEEE float, every sample finite (load_wav checks)
        data = np.frombuffer(raw, dtype="<f4").astype(np.float64)
        np.clip(data, -1.0, 1.0, out=data)
        if n_channels == 1:
            return data
        mixed = data[0::2] + data[1::2]
        # a pair of negative zeros (only float samples hold them) averages
        # to +0.0, as numpy's mean gives: it sums from 0.0
        mixed += 0.0
        mixed *= 0.5  # exactly (a + b) / 2
        return mixed
    if bits == 24:
        # after one leading zero byte, each 3-byte sample is the top three
        # bytes of a little-endian int32 that starts one byte before it; an
        # arithmetic shift by 8 (in _signed) drops the byte below and
        # extends the sign
        padded = bytearray(len(raw) + 1)
        padded[1:] = raw
        ints = np.ndarray((len(raw) // 3,), "<i4", buffer=padded, strides=(3,))
    else:
        ints = np.frombuffer(raw, dtype=np.uint8 if bits == 8 else f"<i{bits // 8}")
    # a power of two, so every scaled sample, and the average of two, is exact
    scale = 1.0 / (1 << (bits - 1)) / n_channels
    if n_channels == 1:
        return np.multiply(_signed(ints, bits), scale, dtype=np.float64)
    # the channels' sum is exact in an integer type wide enough to hold it,
    # and scaling it once gives the bits of averaging the scaled channels
    wide = {8: np.int16, 16: np.int32, 24: np.int32, 32: np.int64}[bits]
    total = _signed(ints[0::2], bits).astype(wide, copy=False)
    total += _signed(ints[1::2], bits)
    return np.multiply(total, scale, dtype=np.float64)


def _signed(ints: np.ndarray, bits: int) -> np.ndarray:
    """Sample values of one integer layout: 8-bit WAV is offset binary, and
    24-bit samples sit in the top three bytes of ``ints``."""
    if bits == 8:
        return np.subtract(ints, 128, dtype=np.int16)
    if bits == 24:
        return ints >> 8
    return ints


def load_wav(path: str | Path) -> AudioBuffer:
    """Read a PCM RIFF/WAVE file into a mono AudioBuffer.

    Accepts 1- or 2-channel files with 8/16/24/32-bit integer or 32-bit
    float samples. Stereo is downmixed by averaging the channels; samples
    are scaled to [-1, +1]. A partial last sample or frame is dropped. Every
    error is an AudioError that names the file, raised here: the buffer
    holds the file's sample bytes and decodes them a window at a time.
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
    view = memoryview(blob)  # chunk bodies are views: the buffer holds the file's bytes
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
    if audio_format not in (1, 3):
        raise UnsupportedFormatError(f"{path}: WAV audio format tag {audio_format} not supported")
    if audio_format == 3 and bits != 32:
        raise UnsupportedFormatError(f"{path}: {bits}-bit float WAV not supported")
    if bits not in (8, 16, 24, 32):
        raise UnsupportedFormatError(f"{path}: {bits}-bit integer WAV not supported")
    if audio_format == 3:
        # checked before any cast: casting a signalling NaN raises the FP invalid flag
        bad = np.flatnonzero(~np.isfinite(np.frombuffer(data[: len(data) & ~3], dtype="<f4")))
        if bad.size:
            # one NaN would spread through peak normalization to every sample
            raise UnsupportedFormatError(f"{path}: non-finite float sample at index {bad[0]}")
    frame = bits // 8 * n_channels
    n = len(data) // frame  # a partial last sample or frame is dropped
    if not n:
        raise UnsupportedFormatError(f"{path}: data chunk holds no whole sample")
    return AudioBuffer._of(sample_rate, n, data[: n * frame], (bits, audio_format, n_channels))


@functools.lru_cache(maxsize=4)  # a corpus has few source rates; a kernel has 64 * up taps
def _sinc_kernel(up: int, down: int) -> np.ndarray:
    # Kaiser-windowed sinc at the upsampled rate; odd length keeps the
    # group delay an integer so resample_poly centers the output exactly.
    # Read-only, as every caller shares it: resample_poly scales a copy.
    n = _TAPS_PER_PHASE * up | 1
    m = np.arange(n) - (n - 1) / 2.0
    cutoff = 1.0 / max(up, down)  # relative to upsampled Nyquist
    kernel = cutoff * np.sinc(cutoff * m) * np.kaiser(n, _KAISER_BETA)
    kernel.setflags(write=False)
    return kernel


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
    """Scale so the absolute peak is exactly 1.0: a buffer of the same
    samples whose windows are divided by their peak.

    Silent buffers come back unchanged so batch jobs survive silent files.
    """
    if len(buf) == 0:
        raise ValueError("cannot normalize an empty buffer")
    peak = max(peak_amplitude(buf.window(a, a + _RUN_CHUNK))
               for a in range(0, len(buf), _RUN_CHUNK))
    if peak == 0.0 or peak == 1.0:
        return buf
    # the same samples, each window divided by the peak: no copy. A divided
    # buffer's peak is exactly 1.0, so a second call returns it unchanged
    return AudioBuffer._of(buf.sample_rate, len(buf), buf._source, buf._layout, peak)


def peak_amplitude(samples: np.ndarray) -> float:
    """The largest absolute sample, ``max(abs(samples))`` without building
    ``abs(samples)``."""
    return float(max(samples.max(), -samples.min()))


# samples per block of window_power's running sum and of peak_normalize's scan
_RUN_CHUNK = 1 << 16


def window_power(samples: np.ndarray | AudioBuffer, win: int, hop: int) -> np.ndarray:
    """Mean squared sample over each whole ``win``-sample window, one window
    every ``hop`` samples, of an array or a buffer's windows. ValueError if
    a windowed sample is not finite or the sum of their squares overflows."""
    read = samples.window if isinstance(samples, AudioBuffer) else lambda a, b: samples[a:b]
    n_windows = (len(samples) - win) // hop + 1
    if n_windows <= 0:
        return np.empty(0)
    # window k's power is the difference of the running sum of squares at
    # its edges k * hop and k * hop + win. The sum is built a block at a
    # time, each block's cumsum starting from the sum before it, so it adds
    # in the order one cumsum over the whole input would (the same bits)
    # and no full-length array is held
    last = (n_windows - 1) * hop + win
    block = np.empty(min(last, _RUN_CHUNK) + 1)
    at_start, at_end = np.empty(n_windows), np.empty(n_windows)
    total = 0.0
    for a in range(0, last + 1, _RUN_CHUNK):
        x = read(a, min(a + _RUN_CHUNK, last))
        run = block[: len(x) + 1]  # run[j] is the running sum at index a + j
        run[0] = total
        with np.errstate(over="ignore", invalid="ignore"):  # the total is checked below
            np.multiply(x, x, out=run[1:])
            np.cumsum(run, out=run)
        for edge, offset in ((at_start, 0), (at_end, win)):
            # the windows whose edge k * hop + offset lies in [a, a + len(x)]
            k0 = max(0, -((offset - a) // hop))
            k1 = min(n_windows, (a + len(x) - offset) // hop + 1)
            if k1 > k0:
                j = k0 * hop + offset - a
                edge[k0:k1] = run[j : j + (k1 - k0 - 1) * hop + 1 : hop]
        total = run[-1]
    # the sum never decreases, so an inf or NaN anywhere leaves the total one
    if not np.isfinite(total):
        raise ValueError("samples must be finite, with squares that sum below the float range")
    return (at_end - at_start) / win


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
        rms_db = 10.0 * np.log10(window_power(buf, win, hop))
    speech = rms_db > threshold_dbfs
    merged: list[list[int]] = []  # [start_ms, end_ms] over window extents
    for i in np.flatnonzero(speech):
        start = int(i) * RMS_HOP_MS
        if merged and (start <= merged[-1][1] or start - merged[-1][1] < min_gap_ms):
            merged[-1][1] = start + RMS_WINDOW_MS
        else:
            merged.append([start, start + RMS_WINDOW_MS])
    return [SegmentBounds(a, b) for a, b in merged]
