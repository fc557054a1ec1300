"""Legal but hostile synthetic voices through ``annotate``, serially and in a
pool: every pair finishes, every number written is finite, and the pool
writes the bytes the serial run writes.

Two outcomes are pinned as they stand, not as settled behaviour:

- a 1-LSB square wave at Nyquist is peak-normalized to full scale and read
  as voiced at the f0 clamp, so every syntagm gets the lowest pitch and
  volume deltas and no flag;
- a DC offset is measured (the K-weighting's high-pass rings at each
  syntagm's start), so it reads as the loudest volume delta, not as
  ``no-loudness``.
"""

from __future__ import annotations

import json
import math
import shutil

import numpy as np
import pytest

from prosodika.cli import main
from prosodika.prosody import PipelineConfig

from conftest import (
    SYN_DBFS,
    SYN_F0,
    SYN_PAUSE_MS,
    SYN_WORD_S,
    CliRunner,
    build_e2e_corpus,
    build_voice_track,
    tone,
    write_wav_int16,
)

N_SYNTAGMS = 3


def hostile_voices(n: int, speech: np.ndarray) -> dict[str, np.ndarray]:
    """Signals of ``n`` samples at 16 kHz, each in [-1, +1]."""
    rng = np.random.default_rng(4)
    clicks = np.zeros(n)
    clicks[::1600] = 1.0  # one full-scale sample every 100 ms
    return {
        "silence": np.zeros(n),
        "dc": np.full(n, 0.3),
        "clipped": np.clip(50.0 * speech, -1.0, 1.0),
        "noise": rng.uniform(-0.5, 0.5, n),
        "clicks": clicks,
        "tone30": tone(30, n / 16000, 16000),
        "tone1500": tone(1500, n / 16000, 16000),
        # +1 and -1 in 16-bit codes
        "nyquist": np.tile([1.0, -1.0], n // 2 + 1)[:n] / 32768.0,
    }


@pytest.fixture(scope="module")
def annotated(tmp_path_factory):
    root = tmp_path_factory.mktemp("hostile")
    manifest_path = build_e2e_corpus(root, n_syntagms=N_SYNTAGMS)
    speech, _ = build_voice_track(N_SYNTAGMS, SYN_F0, SYN_DBFS, SYN_WORD_S, SYN_PAUSE_MS)
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    (pair,) = manifest["pairs"]
    manifest["pairs"] = []
    for name, signal in hostile_voices(len(speech), speech).items():
        write_wav_int16(root / f"{name}.wav", signal, 16000)
        manifest["pairs"].append({**pair, "name": name, "synthetic_wav": f"{name}.wav"})
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    runs = {}
    for jobs in ("1", "2"):
        shutil.rmtree(root / "out", ignore_errors=True)
        result = CliRunner().invoke(main, ["annotate", str(manifest_path), "--jobs", jobs])
        files = {p.name: p.read_bytes() for p in sorted((root / "out").iterdir())}
        runs[jobs] = result, files
    return root, runs


def records(files: dict[str, bytes], name: str) -> list[dict]:
    def refuse(constant):
        raise ValueError(f"{name}: non-finite number {constant}")

    text = files[f"{name}.deltas.jsonl"].decode("utf-8")
    return [json.loads(line, parse_constant=refuse) for line in text.splitlines()]


def test_every_pair_finishes(annotated):
    _, runs = annotated
    for result, _ in runs.values():
        assert result.exit_code == 0, result.output
        assert len(result.stdout.splitlines()) == len(hostile_voices(2, np.zeros(2)))


def test_pool_writes_the_serial_bytes(annotated):
    _, runs = annotated
    (serial_result, serial), (pooled_result, pooled) = runs["1"], runs["2"]
    assert pooled == serial
    assert sorted(pooled_result.stdout.splitlines()) == sorted(serial_result.stdout.splitlines())


def test_every_number_is_finite(annotated):
    _, runs = annotated
    files = runs["1"][1]
    for name in hostile_voices(2, np.zeros(2)):
        recs = records(files, name)
        assert len(recs) == N_SYNTAGMS
        for rec in recs:
            for key in ("pitch_pct", "rate_pct", "volume_pct", "break_ms"):
                assert math.isfinite(rec[key]), (name, key)


def test_validate_ssml_passes_every_file(annotated):
    root, _ = annotated
    paths = sorted(str(p) for p in (root / "out").glob("*.ssml"))
    result = CliRunner().invoke(main, ["validate-ssml", *paths])
    assert result.exit_code == 0, result.output


def test_pinned_outcomes(annotated):
    _, runs = annotated
    files = runs["1"][1]
    cfg = PipelineConfig()
    lowest_pitch = 100.0 * (2.0 ** (-0.7 * cfg.pitch_clip_semitones / 12.0) - 1.0)
    for rec in records(files, "nyquist"):
        assert rec["pitch_pct"] == round(lowest_pitch, 6) == -5.884777
        assert rec["volume_pct"] == -cfg.volume_clip_pct == -10.0
        assert rec["flags"] == []
    for rec in records(files, "dc"):
        assert rec["volume_pct"] == cfg.volume_clip_pct == 10.0
        assert "no-loudness" not in rec["flags"]
