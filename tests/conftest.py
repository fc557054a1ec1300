"""Shared fixture builders: WAV writers, TextGrid builders, and the
synthetic natural/synthetic corpus used by the end-to-end tests.

The corpus generator constructs a "natural" rendering by perturbing a
"synthetic" one with known offsets (+1.65 semitone pitch ratio, +3 dB
loudness, 0.8x word durations), so every expected delta is analytic.
"""

from __future__ import annotations

import io
import json
import struct
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SYN_F0 = 200.0
NAT_F0 = SYN_F0 * 2 ** (1.65 / 12)  # +1.65 semitones
SYN_DBFS = -23.0
NAT_DBFS = -20.0  # +3 dB
SYN_WORD_S = 0.5
NAT_WORD_S = 0.4  # 0.8x duration -> raw rate delta +25%
WORDS_PER_SYNTAGM = 3
NAT_PAUSE_MS = 400
SYN_PAUSE_MS = 300
LEAD_SILENCE_S = 0.7
CLICK_S = 0.02

EXPECTED_PITCH_PCT = (2 ** (1.5 / 12) - 1) * 100  # clipped at P=1.5 st
EXPECTED_RATE_PCT = 5.0  # +25% raw, x0.5 speedup gain, +0.5R ceiling
EXPECTED_VOLUME_PCT = 10.0  # +3 dB -> +41.25% clipped at V


@dataclass
class Result:
    exit_code: int
    output: str  # stdout and stderr, interleaved as written
    stdout: str
    stderr: str
    exception: BaseException | None  # the uncaught one, or a SystemExit with a code not 0


class _Tee(io.StringIO):
    """A text stream that also writes everything to ``both``."""

    def __init__(self, both: io.StringIO):
        super().__init__()
        self.both = both

    def write(self, text: str) -> int:
        self.both.write(text)
        return super().write(text)


class CliRunner:
    """Runs a command line in this process and captures its result."""

    def invoke(self, cli, args) -> Result:
        both = io.StringIO()
        out, err = _Tee(both), _Tee(both)
        code, exception = 0, None
        with redirect_stdout(out), redirect_stderr(err):
            try:
                cli(args=list(args), prog_name="prosodika")
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
                exception = exc if code else None
            except Exception as exc:  # noqa: BLE001 - a bug is part of the result
                code, exception = 1, exc
        return Result(code, both.getvalue(), out.getvalue(), err.getvalue(), exception)


def write_wav_int16(path: Path, samples: np.ndarray, rate: int, channels: int = 1):
    """Minimal RIFF writer, 16-bit PCM little-endian."""
    data = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2").tobytes()
    _write_riff(path, data, rate, channels, bits=16, audio_format=1)


def write_wav_raw(path: Path, data: bytes, rate: int, channels: int, bits: int,
                  audio_format: int = 1):
    _write_riff(path, data, rate, channels, bits, audio_format)


def _write_riff(path: Path, data: bytes, rate: int, channels: int, bits: int,
                audio_format: int):
    byte_rate = rate * channels * bits // 8
    block_align = channels * bits // 8
    fmt = struct.pack("<HHIIHH", audio_format, channels, rate, byte_rate, block_align, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(data)) + data + (b"\x00" if len(data) % 2 else b"")
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


def tone(freq: float, duration_s: float, rate: int, amplitude: float = 0.5,
         phase: float = 0.0) -> np.ndarray:
    t = np.arange(int(round(duration_s * rate))) / rate
    return amplitude * np.sin(2 * np.pi * freq * t + phase)


def traced_peak(fn, *args):
    """``fn(*args)`` and the most memory it held at once beyond what was
    held before the call, in bytes, as tracemalloc counts it (numpy arrays
    included)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def long_textgrid(intervals: list[tuple[float, float, str]], tier_name: str = "words") -> str:
    """Long-format TextGrid text for one interval tier."""
    xmin = intervals[0][0]
    xmax = intervals[-1][1]
    lines = [
        'File type = "ooTextFile"',
        'Object class = "TextGrid"',
        "",
        f"xmin = {xmin}",
        f"xmax = {xmax}",
        "tiers? <exists>",
        "size = 1",
        "item []:",
        "    item [1]:",
        '        class = "IntervalTier"',
        f'        name = "{tier_name}"',
        f"        xmin = {xmin}",
        f"        xmax = {xmax}",
        f"        intervals: size = {len(intervals)}",
    ]
    for i, (a, b, label) in enumerate(intervals, start=1):
        escaped = label.replace('"', '""')
        lines += [
            f"        intervals [{i}]:",
            f"            xmin = {a}",
            f"            xmax = {b}",
            f'            text = "{escaped}"',
        ]
    return "\n".join(lines) + "\n"


def short_textgrid(intervals: list[tuple[float, float, str]], tier_name: str = "words") -> str:
    xmin = intervals[0][0]
    xmax = intervals[-1][1]
    lines = [
        'File type = "ooTextFile"',
        'Object class = "TextGrid"',
        "",
        str(xmin),
        str(xmax),
        "<exists>",
        "1",
        '"IntervalTier"',
        f'"{tier_name}"',
        str(xmin),
        str(xmax),
        str(len(intervals)),
    ]
    for a, b, label in intervals:
        lines += [str(a), str(b), '"' + label.replace('"', '""') + '"']
    return "\n".join(lines) + "\n"


def build_voice_track(
    n_syntagms: int,
    f0: float,
    dbfs: float,
    word_s: float,
    pause_ms: int,
    rate: int = 16000,
) -> tuple[np.ndarray, list[tuple[float, float, str]]]:
    """Audio plus word-tier intervals for one voice.

    A full-scale click opens the file so peak normalization is an exact no-op
    and the loudness offset between the two voices survives preprocessing.
    Words are contiguous tone spans; syntagms are separated by true silence.
    """
    amp = 10.0 ** (dbfs / 20.0)
    pause_s = pause_ms / 1000.0
    chunks = [tone(3000.0, CLICK_S, rate, amplitude=1.0)]
    chunks.append(np.zeros(int(round((LEAD_SILENCE_S - CLICK_S) * rate))))
    intervals: list[tuple[float, float, str]] = [(0.0, LEAD_SILENCE_S, "")]
    cursor = LEAD_SILENCE_S
    word_id = 1
    for k in range(n_syntagms):
        for _ in range(WORDS_PER_SYNTAGM):
            intervals.append((cursor, cursor + word_s, f"mot{word_id}"))
            cursor += word_s
            word_id += 1
        chunks.append(tone(f0, WORDS_PER_SYNTAGM * word_s, rate, amplitude=amp))
        if k < n_syntagms - 1:
            intervals.append((cursor, cursor + pause_s, ""))
            chunks.append(np.zeros(int(round(pause_s * rate))))
            cursor += pause_s
    audio = np.concatenate(chunks)
    # keep the audio and the tier the same length
    total = int(round(cursor * rate))
    if len(audio) < total:
        audio = np.concatenate([audio, np.zeros(total - len(audio))])
    return audio[:total], intervals


def build_e2e_corpus(root: Path, n_syntagms: int = 6, rate: int = 16000,
                     name: str = "pair00") -> Path:
    """Write the perturbed-pair corpus and its job manifest; returns the
    manifest path."""
    root.mkdir(parents=True, exist_ok=True)
    nat_audio, nat_iv = build_voice_track(
        n_syntagms, NAT_F0, NAT_DBFS, NAT_WORD_S, NAT_PAUSE_MS, rate
    )
    syn_audio, syn_iv = build_voice_track(
        n_syntagms, SYN_F0, SYN_DBFS, SYN_WORD_S, SYN_PAUSE_MS, rate
    )
    write_wav_int16(root / "nat.wav", nat_audio, rate)
    write_wav_int16(root / "syn.wav", syn_audio, rate)
    (root / "nat.TextGrid").write_text(long_textgrid(nat_iv), encoding="utf-8")
    (root / "syn.TextGrid").write_text(long_textgrid(syn_iv), encoding="utf-8")
    manifest = {
        "output_dir": "out",
        "pairs": [
            {
                "name": name,
                "natural_wav": "nat.wav",
                "synthetic_wav": "syn.wav",
                "textgrid_nat": "nat.TextGrid",
                "textgrid_syn": "syn.TextGrid",
            }
        ],
    }
    manifest_path = root / "job.json"
    manifest_path.write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest_path
