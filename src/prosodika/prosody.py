"""Per-syntagm prosodic deltas against a baseline synthetic voice.

The four emitted quantities per syntagm:

  pitch:  s = 12*log2(f0_nat / f0_baseline), clipped to [-0.7*P, P] semitones,
          re-scaled to a percentage (2**(s/12) - 1) * 100. The baseline is the
          rolling median of the synthetic track's per-syntagm f0, so the delta
          tells the voice how far to move from its own typical pitch.
  volume: v = (10**(dL/20) - 1) * 100 with dL = natural loudness baseline
          minus the synthetic syntagm's loudness, clipped to [-V, +V].
  rate:   r = (n/d_nat - n/d_syn) / (n/d_syn) * 100; slow-downs on syntagms
          longer than 1 s are amplified, speed-ups attenuated, then clamped to
          [-R, +0.5*R].
  break:  the natural trailing pause, passed through raw.

Pitch and rate series are exponentially smoothed (alpha = 0.2) with an 8%
per-syntagm jump clamp; volume is not smoothed.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .syntagms import Syntagm
from .textgrid import split_lines

FLAG_NO_PITCH = "no-pitch"
FLAG_NO_LOUDNESS = "no-loudness"
FLAG_INJECTED_BREAK = "injected-break"


class PairingError(ValueError):
    """Two inputs that must line up do not: natural and synthetic syntagms,
    or predicted and gold segments, syntagms, break word counts or timings."""


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for delta computation. Field names double as config-file keys."""

    pitch_clip_semitones: float = 1.5
    volume_clip_pct: float = 10.0
    rate_clip_pct: float = 10.0
    smoothing_alpha: float = 0.2
    max_jump_pct: float = 8.0
    baseline_window: int = 10
    slowdown_gain: float = 1.5
    speedup_gain: float = 0.5
    long_syntagm_s: float = 1.0

    def __post_init__(self):
        if self.pitch_clip_semitones <= 0:
            raise ValueError("pitch_clip_semitones must be > 0")
        if self.volume_clip_pct <= 0 or self.rate_clip_pct <= 0:
            raise ValueError("volume/rate clip bounds must be > 0")
        if not (0 < self.smoothing_alpha <= 1):
            raise ValueError("smoothing_alpha must be in (0, 1]")
        if self.max_jump_pct <= 0:
            raise ValueError("max_jump_pct must be > 0")
        if self.baseline_window < 1:
            raise ValueError("baseline_window must be >= 1")
        for key in ("slowdown_gain", "speedup_gain", "long_syntagm_s"):
            if getattr(self, key) < 0:  # a negative gain turns a slow-down into a speed-up
                raise ValueError(f"{key} must be >= 0")
        try:
            finite = all(map(math.isfinite, self.pitch_bounds_pct()))
        except OverflowError:  # 2 ** (P / 12) past the largest float
            finite = False
        if not finite:
            raise ValueError("pitch_clip_semitones must give finite pitch bounds "
                             "(at most about 12208)")

    def clip_ranges(self) -> dict[str, tuple[float, float]]:
        """The (low, high) clip range of each emitted delta: pitch [-0.7*P, P]
        in semitones, rate [-R, 0.5*R] and volume [-V, V] in percent."""
        p, r, v = self.pitch_clip_semitones, self.rate_clip_pct, self.volume_clip_pct
        return {"pitch": (-0.7 * p, p), "rate": (-r, 0.5 * r), "volume": (-v, v)}

    def pitch_bounds_pct(self) -> tuple[float, float]:
        """Percent range implied by the semitone pitch clip."""
        lo, hi = self.clip_ranges()["pitch"]
        return (2.0 ** (lo / 12.0) - 1.0) * 100.0, (2.0 ** (hi / 12.0) - 1.0) * 100.0

    @classmethod
    def from_mapping(cls, mapping: dict) -> "PipelineConfig":
        known = {f.name: f.type for f in fields(cls)}
        kwargs = {}
        for key, value in mapping.items():
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            integer = known[key] == "int"
            if isinstance(value, str):  # the config file's syntax; a manifest holds JSON values
                try:
                    value = int(value) if integer else float(value)
                except ValueError:
                    raise ValueError(f"{key!r} needs a finite number, got {value!r:.40}") from None
            number = json_number(value, key, integer=integer)  # NaN would pass every range check
            kwargs[key] = number if integer else float(number)  # the run log echoes 12 as 12.0
        return cls(**kwargs)


@dataclass(frozen=True)
class SyntagmFeatures:
    """Measured per-syntagm features for one voice."""

    median_f0_hz: float | None
    loudness_lufs: float | None


@dataclass(frozen=True)
class ProsodyDelta:
    pitch_pct: float
    rate_pct: float
    volume_pct: float
    break_ms: int
    flags: tuple[str, ...] = ()


def rolling_baseline(values: list[float | None], w: int) -> list[float | None]:
    """Median over a sliding window of up to w values centered at each index.

    Windows are clamped into the list at the edges, so every window holds w
    entries when the list is long enough; with w covering the whole list the
    baseline is the global median everywhere. None entries are skipped; a
    window with no present values falls back to the global median. Every
    entry is None when no value is present.
    """
    present = sorted(v for v in values if v is not None)
    n = len(values)
    if not present:
        return [None] * n
    global_median = _median(present)
    if n <= w:
        return [global_median] * n
    out = []
    for i in range(n):
        start = min(max(i - w // 2, 0), n - w)
        window = sorted(v for v in values[start : start + w] if v is not None)
        out.append(_median(window) if window else global_median)
    return out


def _median(sorted_values: list[float]) -> float:
    n = len(sorted_values)
    mid = n // 2
    if n % 2:
        return float(sorted_values[mid])
    return (sorted_values[mid - 1] + sorted_values[mid]) / 2.0


def pitch_delta(f0: float, f0_baseline: float, cfg: PipelineConfig) -> float:
    """Semitone offset against the baseline, clipped, as a percent change."""
    if f0 <= 0 or f0_baseline <= 0:
        raise ValueError(f"frequencies must be positive, got {f0}, {f0_baseline}")
    lo, hi = cfg.clip_ranges()["pitch"]
    s = min(max(12.0 * math.log2(f0 / f0_baseline), lo), hi)
    return (2.0 ** (s / 12.0) - 1.0) * 100.0


def volume_delta(loudness_baseline: float, loudness_syn: float, cfg: PipelineConfig) -> float:
    """Loudness difference mapped to a linear gain percent, clipped to +-V."""
    if not (math.isfinite(loudness_baseline) and math.isfinite(loudness_syn)):
        raise ValueError("loudness values must be finite")
    dl = loudness_baseline - loudness_syn
    lo, hi = cfg.clip_ranges()["volume"]
    return min(max((10.0 ** (dl / 20.0) - 1.0) * 100.0, lo), hi)


def rate_delta(word_count: int, d_nat_s: float, d_syn_s: float, cfg: PipelineConfig) -> float:
    """Relative words-per-second change, shaped and clamped.

    Negative values (slow-downs) on syntagms longer than ``long_syntagm_s``
    are multiplied by ``slowdown_gain``; positive values by ``speedup_gain``.
    The result is clamped to [-R, +0.5*R]: accelerations get the tighter
    ceiling.
    """
    if word_count < 1:
        raise ValueError("word_count must be >= 1")
    if d_nat_s <= 0 or d_syn_s <= 0:
        raise ValueError(f"durations must be positive, got {d_nat_s}, {d_syn_s}")
    wps_nat = word_count / d_nat_s
    wps_syn = word_count / d_syn_s
    r = (wps_nat - wps_syn) / wps_syn * 100.0
    if r < 0 and d_nat_s > cfg.long_syntagm_s:
        r *= cfg.slowdown_gain
    elif r > 0:
        r *= cfg.speedup_gain
    lo, hi = cfg.clip_ranges()["rate"]
    return min(max(r, lo), hi)


def smooth_series(values: list[float], cfg: PipelineConfig) -> list[float]:
    """Exponential smoothing with a per-step jump clamp.

    x~[0] = x[0]; x~[i] = alpha*x[i] + (1-alpha)*x~[i-1], then any step larger
    than ``max_jump_pct`` is clamped to the previous value +- the jump, and the
    clamped value feeds the next step. An empty series smooths to [].
    """
    out = [float(x) for x in values[:1]]
    alpha, jump = cfg.smoothing_alpha, cfg.max_jump_pct
    for x in values[1:]:
        smoothed = alpha * x + (1.0 - alpha) * out[-1]
        step = smoothed - out[-1]
        if abs(step) > jump:
            smoothed = out[-1] + math.copysign(jump, step)
        out.append(smoothed)
    return out


def annotate_corpus(
    nat: list[tuple[Syntagm, SyntagmFeatures]],
    syn: list[tuple[Syntagm, SyntagmFeatures]],
    cfg: PipelineConfig = PipelineConfig(),
) -> list[ProsodyDelta]:
    """Compute the per-syntagm delta list for paired natural/synthetic tracks.

    The two streams must be the same transcript: equal length and matching
    word sequences (case-insensitive). A feature that is not measured (None:
    unvoiced pitch, or loudness of a silent or too short span) yields a delta
    of 0 and a flag, not an error, so one bad syntagm cannot abort a run.
    Only measured pitches are smoothed, so a flagged syntagm leaves its
    neighbours' pitch as if it were absent.
    """
    if len(nat) != len(syn):
        raise PairingError(
            f"natural has {len(nat)} syntagms, synthetic has {len(syn)}"
        )
    for i, ((s_nat, _), (s_syn, _)) in enumerate(zip(nat, syn)):
        nat_words = [w.text.casefold() for w in s_nat.words]
        syn_words = [w.text.casefold() for w in s_syn.words]
        if nat_words != syn_words:
            raise PairingError(
                f"word sequences diverge at syntagm {i}: "
                f"{s_nat.text!r} vs {s_syn.text!r}"
            )

    pitch_raw: list[float] = []  # measured pitches only
    rate_raw: list[float] = []
    volumes: list[float] = []
    flag_sets: list[tuple[str, ...]] = []
    f0_baseline = rolling_baseline([f.median_f0_hz for _, f in syn], cfg.baseline_window)
    loud_baseline = rolling_baseline([f.loudness_lufs for _, f in nat], cfg.baseline_window)
    for (s_nat, feats_nat), (s_syn, feats_syn), f0_base, loud_base in zip(
        nat, syn, f0_baseline, loud_baseline
    ):
        has_pitch = feats_nat.median_f0_hz is not None and f0_base is not None
        has_loud = feats_syn.loudness_lufs is not None and loud_base is not None
        if has_pitch:
            pitch_raw.append(pitch_delta(feats_nat.median_f0_hz, f0_base, cfg))
        volumes.append(volume_delta(loud_base, feats_syn.loudness_lufs, cfg) if has_loud else 0.0)
        rate_raw.append(
            rate_delta(s_nat.word_count, s_nat.net_duration_s, s_syn.net_duration_s, cfg)
        )
        flag_sets.append(tuple(flag for flag, raised in (
            (FLAG_NO_PITCH, not has_pitch),
            (FLAG_NO_LOUDNESS, not has_loud),
            (FLAG_INJECTED_BREAK, s_nat.pause_injected),
        ) if raised))

    smoothed = iter(smooth_series(pitch_raw, cfg))
    pitches = [0.0 if FLAG_NO_PITCH in flags else next(smoothed) for flags in flag_sets]
    return [
        ProsodyDelta(pitch, rate, volume, s_nat.trailing_pause_ms, flags)
        for pitch, rate, volume, (s_nat, _), flags in zip(
            pitches, smooth_series(rate_raw, cfg), volumes, nat, flag_sets
        )
    ]


def delta_record(text: str, delta: ProsodyDelta, **extra) -> dict:
    """JSON-safe record for one annotated syntagm (the training-data view)."""
    rec = dict(extra)
    rec.update(
        text=text,
        pitch_pct=round(delta.pitch_pct, 6),
        rate_pct=round(delta.rate_pct, 6),
        volume_pct=round(delta.volume_pct, 6),
        break_ms=delta.break_ms,
        flags=list(delta.flags),
    )
    return rec


def deltas_to_jsonl(records: list[dict]) -> str:
    lines = [json.dumps(rec, ensure_ascii=False, sort_keys=True) for rec in records]
    return "\n".join(lines) + ("\n" if lines else "")


def write_atomic(path: Path, content: str):
    """Write ``content`` as UTF-8 to ``path`` through a temporary file and a
    rename, so that no reader sees it half written. If either step fails,
    the temporary file is removed and the error raised as it was."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        tmp.write_text(content, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise


def load_json(text: str):
    """``json.loads``, with input nested too deep for it a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def json_number(value, key: str, integer: bool = False):
    """``value`` if it is a JSON number that a float can hold (an integer if
    ``integer``; bools are not numbers), else ValueError naming ``key``."""
    if (isinstance(value, bool) or not isinstance(value, int if integer else (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ValueError(f"{key!r} must be {'an integer' if integer else 'a number'}, "
                         f"got {value!r:.40}")
    return value


def read_delta_records(text: str) -> list[dict]:
    """Parse the JSONL that deltas_to_jsonl writes, checking the type of each
    key that stats reads. ValueError names the line and the key."""
    records = []
    for lineno, line in enumerate(split_lines(text), start=1):
        if not line.strip():
            continue
        try:
            rec = load_json(line)
            if not isinstance(rec, dict):
                raise ValueError("not a JSON object")
            for key in ("pitch_pct", "rate_pct", "volume_pct", "break_ms"):
                if key not in rec:
                    raise ValueError(f"missing {key!r}")
                json_number(rec[key], key, integer=key == "break_ms")
            if "word_count" in rec:
                json_number(rec["word_count"], "word_count", integer=True)
            if not all(isinstance(rec.get(key, ""), str) for key in ("text", "pair")):
                raise ValueError("'text' and 'pair' must be strings")
            flags = rec.get("flags", [])
            if not isinstance(flags, list) or not all(isinstance(f, str) for f in flags):
                raise ValueError("'flags' must be a list of strings")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad delta record: {exc}") from None
        records.append(rec)
    return records
