"""End-to-end annotation pipeline for one natural/synthetic pair.

Wiring: analyze each voice (load and preprocess its WAV, parse its TextGrid
into syntagms, measure per-syntagm features), silence-segment the natural
audio, derive deltas, and emit one SSML fragment per audio segment. All
steps are deterministic, so a pair can be processed on any worker and reruns
are byte-identical.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from pathlib import Path

from .audio import (
    AudioBuffer,
    SegmentBounds,
    UnsupportedRateError,
    detect_speech_segments,
    load_wav,
    peak_normalize,
    resample_to_16k,
)
from .loudness import integrated_loudness
from .pitch import F0Track, estimate_f0_track, median_f0
from .prosody import (
    PipelineConfig,
    SyntagmFeatures,
    annotate_corpus,
    delta_record,
    deltas_to_jsonl,
    load_json,
    write_atomic,
)
from .ssml import EmitOptions, emit
from .syntagms import (
    FunctionWordLexicon,
    Syntagm,
    filter_function_word_pauses,
    segment_syntagms,
    tokens_from_tier,
)
from .textgrid import TextGridTier, read_textgrid


class ManifestError(ValueError):
    """Malformed job manifest."""


@dataclass(frozen=True)
class PairSpec:
    name: str
    natural_wav: Path
    synthetic_wav: Path
    textgrid_nat: Path
    textgrid_syn: Path
    output_dir: Path
    words_tier: str | None = None


@dataclass(frozen=True)
class PairResult:
    name: str
    n_segments: int
    n_syntagms: int
    n_flagged: int
    records: list[dict]
    ssml_lines: list[str]
    log_lines: list[str]


_PAIR_FILES = ("natural_wav", "synthetic_wav", "textgrid_nat", "textgrid_syn")
_PAIR_KEY_TYPES = {"name": str, "output_dir": str, "words_tier": (str, type(None)),
                   **dict.fromkeys(_PAIR_FILES, str)}


def load_manifest(path: str | Path) -> tuple[list[PairSpec], dict]:
    """Read the job manifest: pair file lists plus optional config overrides.

    An unreadable file raises OSError; malformed content raises ManifestError
    naming the file."""
    path = Path(path)
    try:
        return _parse_manifest(path.read_text(encoding="utf-8"), path.parent)
    except ValueError as exc:  # bad UTF-8 and bad JSON too
        raise ManifestError(f"{path}: {exc}") from None


def _parse_manifest(text: str, root: Path) -> tuple[list[PairSpec], dict]:
    data = load_json(text)
    if not isinstance(data, dict) or not isinstance(data.get("pairs"), list):
        raise ValueError("manifest must be an object with a 'pairs' list")
    unknown = [k for k in data if k not in ("pairs", "output_dir", "config")]
    if unknown:
        raise ValueError(f"unknown manifest keys {unknown}")
    overrides = data.get("config", {})
    if not isinstance(overrides, dict):
        raise ValueError("'config' must be an object")
    PipelineConfig.from_mapping(overrides)  # a bad key or value is reported against the manifest
    pairs: list[PairSpec] = []
    seen: dict[str, int] = {}  # name -> pair index
    stems: dict[str, int] = {}  # normalized output path without suffix -> pair index
    for i, entry in enumerate(data["pairs"]):
        if not isinstance(entry, dict):
            raise ValueError(f"pair {i} is not an object")
        unknown = [k for k in entry if k not in _PAIR_KEY_TYPES]
        if unknown:
            raise ValueError(f"pair {i} has unknown keys {unknown}")
        missing = [k for k in _PAIR_FILES if k not in entry]
        if missing:
            raise ValueError(f"pair {i} missing {missing}")
        spec = {"name": f"pair{i:03d}", "output_dir": data.get("output_dir"),
                "words_tier": None, **entry}
        if spec["output_dir"] is None:
            raise ValueError(f"pair {i} has no output_dir (and no default)")
        wrong = [k for k, kind in _PAIR_KEY_TYPES.items() if not isinstance(spec[k], kind)]
        if wrong:
            raise ValueError(f"pair {i}: {wrong} must be strings")
        name, output_dir = spec["name"], root / spec["output_dir"]
        if name in seen:  # both pairs would write the same output files
            raise ValueError(f"pairs {seen[name]} and {i} share the name {name!r}")
        stem = os.path.normpath(output_dir / name)  # b, ./b and x/../b write one b.*
        if stem in stems:
            raise ValueError(f"pairs {stems[stem]} and {i} both write {stem}.*")
        seen[name] = stems[stem] = i
        pairs.append(PairSpec(name=name, output_dir=output_dir, words_tier=spec["words_tier"],
                              **{k: root / spec[k] for k in _PAIR_FILES}))
    return pairs, overrides


# how far a grid's last word may end past the end of its audio: aligners
# write times on 10 ms frames and a word's end is rounded to the ms, so two
# frames cover rounding; past them the grid describes speech the audio lacks
GRID_END_TOLERANCE_MS = 20


def prepare_audio(path: str | Path) -> AudioBuffer:
    """Load, resample to 16 kHz, and peak-normalize:
    ``peak_normalize(resample_to_16k(load_wav(path)))``."""
    return _prepare_audio(path)[0]


def _prepare_audio(path: str | Path) -> tuple[AudioBuffer, float]:
    """prepare_audio's buffer and the source WAV's duration in ms. Only
    ``buf`` holds the source, so each stage frees the one before it."""
    buf = load_wav(path)
    source_ms = 1000 * len(buf) / buf.sample_rate
    try:
        buf = resample_to_16k(buf)
    except UnsupportedRateError as exc:
        raise UnsupportedRateError(f"{path}: {exc}") from None
    return peak_normalize(buf), source_ms


def pick_words_tier(tiers: list[TextGridTier], name: str | None) -> TextGridTier:
    if not tiers:
        raise ValueError("TextGrid has no interval tiers")
    if name is not None:
        for tier in tiers:
            if tier.name == name:
                return tier
        raise ValueError(f"no tier named {name!r}")
    for tier in tiers:
        if tier.name.casefold() in ("words", "word", "mots"):
            return tier
    return tiers[0]


def syntagms_from_textgrid(
    path: str | Path, lexicon: FunctionWordLexicon, tier_name: str | None = None
) -> list[Syntagm]:
    tiers = read_textgrid(path)
    try:
        tier = pick_words_tier(tiers, tier_name)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    tokens = filter_function_word_pauses(tokens_from_tier(tier), lexicon)
    return segment_syntagms(tokens)


def measure_features(
    buf: AudioBuffer, track: F0Track, syntagms: list[Syntagm]
) -> list[SyntagmFeatures]:
    """Per-syntagm f0 median and loudness for one voice."""
    return [SyntagmFeatures(median_f0(track, b), integrated_loudness(buf, b))
            for b in (SegmentBounds(s.start_ms, s.end_ms) for s in syntagms)]


def analyze_voice(
    wav: str | Path, grid: str | Path, lexicon: FunctionWordLexicon, tier: str | None
) -> tuple[AudioBuffer, list[Syntagm], list[tuple[Syntagm, SyntagmFeatures]]]:
    """One voice's prepared audio, its syntagms, and each syntagm paired with
    its measured features, as annotate_corpus takes them. A grid whose last
    word ends more than GRID_END_TOLERANCE_MS past the end of the source WAV
    is a ValueError that names both ends."""
    buf, audio_ms = _prepare_audio(wav)
    syntagms = syntagms_from_textgrid(grid, lexicon, tier)
    if syntagms and syntagms[-1].end_ms - audio_ms > GRID_END_TOLERANCE_MS:
        raise ValueError(f"{grid}: the last word ends at {syntagms[-1].end_ms / 1000:.3f} s, "
                         f"past the end of {wav} at {audio_ms / 1000:.3f} s")
    track = estimate_f0_track(buf, [(s.start_ms, s.end_ms) for s in syntagms])
    features = measure_features(buf, track, syntagms)
    return buf, syntagms, list(zip(syntagms, features))


def assign_segments(syntagms: list[Syntagm], segments: list[SegmentBounds]) -> list[int]:
    """Index of the audio segment each syntagm belongs to: the first segment
    with the largest positive time overlap, else the nearest midpoint (first
    on ties), 0 when no segments were detected. Segments must be sorted and
    disjoint, as detect_speech_segments returns them."""
    if not segments:
        return [0] * len(syntagms)
    if any(a.end_ms > b.start_ms for a, b in zip(segments, segments[1:])):
        raise ValueError("segments must be sorted and disjoint")
    starts = [seg.start_ms for seg in segments]
    ends = [seg.end_ms for seg in segments]
    out = []
    for s in syntagms:
        # segments lo..hi-1 end after the syntagm starts and start before it ends
        lo, hi = bisect_right(ends, s.start_ms), bisect_left(starts, s.end_ms)
        best, best_overlap = None, 0
        for k in range(lo, hi):
            overlap = min(s.end_ms, ends[k]) - max(s.start_ms, starts[k])
            if overlap > best_overlap:
                best, best_overlap = k, overlap
        if best is None:
            # the syntagm lies in the gap before segment lo: only the segments
            # on either side of that gap can have the nearest midpoint
            mid = (s.start_ms + s.end_ms) / 2.0
            best = min(
                range(max(lo - 1, 0), min(lo + 1, len(segments))),
                key=lambda k: abs((starts[k] + ends[k]) / 2.0 - mid),
            )
        out.append(best)
    return out


def annotate_pair(
    pair: PairSpec,
    cfg: PipelineConfig,
    lexicon: FunctionWordLexicon,
    emit_options: EmitOptions,
) -> PairResult:
    nat_buf, nat_syntagms, nat = analyze_voice(
        pair.natural_wav, pair.textgrid_nat, lexicon, pair.words_tier)
    segments = detect_speech_segments(nat_buf)
    del nat_buf  # so the two voices' audio is never held at once
    _, _, syn = analyze_voice(pair.synthetic_wav, pair.textgrid_syn, lexicon, pair.words_tier)

    deltas = annotate_corpus(nat, syn, cfg)
    seg_of = assign_segments(nat_syntagms, segments)

    records, groups = [], {}
    for k, s, d in zip(seg_of, nat_syntagms, deltas):
        records.append(delta_record(s.text, d, pair=pair.name, segment=k, start_ms=s.start_ms,
                                    end_ms=s.end_ms, word_count=s.word_count))
        groups.setdefault(k, []).append((s.text, d))
    ssml_lines = [emit(groups[k], emit_options, cfg) for k in sorted(groups)]

    n_flagged = sum(1 for d in deltas if d.flags)
    log_lines = [
        f"pair: {pair.name}",
        f"natural_wav: {pair.natural_wav}",
        f"synthetic_wav: {pair.synthetic_wav}",
        f"textgrid_nat: {pair.textgrid_nat}",
        f"textgrid_syn: {pair.textgrid_syn}",
        "config:",
    ]
    log_lines += [f"  {f.name} = {getattr(cfg, f.name)}" for f in fields(cfg)]
    log_lines += [
        f"segments: {len(segments)}",
        f"syntagms: {len(deltas)}",
        f"flagged: {n_flagged}",
    ]
    return PairResult(
        name=pair.name,
        n_segments=len(segments),
        n_syntagms=len(deltas),
        n_flagged=n_flagged,
        records=records,
        ssml_lines=ssml_lines,
        log_lines=log_lines,
    )


def write_pair_result(result: PairResult, out_dir: Path):
    write_atomic(out_dir / f"{result.name}.deltas.jsonl", deltas_to_jsonl(result.records))
    write_atomic(out_dir / f"{result.name}.ssml", "\n".join(result.ssml_lines) + "\n")
    write_atomic(out_dir / f"{result.name}.log", "\n".join(result.log_lines) + "\n")
