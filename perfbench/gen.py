"""Seeded input generator for the benchmark workloads.

Writes WAVs, TextGrids, a job manifest, predicted and gold SSML corpora,
break JSON and word-timing JSON, plus ``expect.json``: every result the
program should produce, worked out from the generator's own parameters.
Nothing here imports prosodika.

The natural voice is the synthetic one perturbed by +1.65 semitones, +3 dB
and 0.8x word durations. Under the default clip ranges that gives, for every
syntagm, pitch +(2**(1.5/12) - 1) * 100 % (clipped at 1.5 st), volume +10 %
(+41 % clipped at 10), rate +5 % (+25 % raw, x0.5 speed-up gain, +0.5*R
ceiling) and a break equal to the natural pause after it (0 for the last).
"""

from __future__ import annotations

import json
import math
import os
import random
import struct
from pathlib import Path

import numpy as np

SYN_F0 = 200.0
NAT_F0 = SYN_F0 * 2 ** (1.65 / 12)
SYN_DBFS = -23.0
NAT_DBFS = -20.0
SYN_WORD_MS = 500
NAT_WORD_MS = 400
SYN_PAUSE_MS = 300
WORDS_PER_SYNTAGM = 3
LEAD_MS = 700
CLICK_MS = 20

EXPECTED_PITCH_PCT = (2 ** (1.5 / 12) - 1) * 100
EXPECTED_RATE_PCT = 5.0
EXPECTED_VOLUME_PCT = 10.0

SPEAK_OPEN = (
    '<speak version="1.0" xmlns="http://www.w3.org/2001/10/synthesis" '
    'xmlns:mstts="https://www.w3.org/2001/mstts" xml:lang="fr-FR">'
    '<voice name="fr-FR-HenriNeural">'
)
SPEAK_CLOSE = "</voice></speak>"
LEAD_SILENCE = '<mstts:silence type="leading-exact" value="0"/>'
TRAIL_SILENCE = '<mstts:silence type="trailing-exact" value="0"/>'

TAU_MS = 50.0
WINDOW_S = 15.0

# Pseudo-words: three consonant-vowel syllables never match an entry of the
# bundled function-word list, so no pause is folded into a word.
_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeioé"

# Predicted-SSML styles of the scored systems: plain fragments, fragments
# wrapped in mstts:silence directives, and full speak envelopes.
STYLES = ("plain", "silence", "speak")

# Sizes are fixed per workload; the seed changes words, offsets and break
# positions, never the amount of work. Each pair's predicted corpora are
# scored against its annotate output, one syntagm per line; ``long_lines``
# corpora of one ``long_line_syntagms``-syntagm line are scored against a
# generated gold. ``score_passes`` is the number of score passes per round:
# enough that scoring takes about as long as annotating, so both phases
# are sampled many times across the whole run.
WORKLOADS = {
    "long-pair-16k": {
        "pairs": 1, "syntagms": 100, "pause_ms": 400,
        "rate": 16000, "channels": 1, "bits": 16, "textgrid": "long", "jobs": 1,
        "systems": 30, "long_lines": 2, "long_line_syntagms": 1000, "score_passes": 3,
    },
    "many-pairs-44k": {
        "pairs": 8, "syntagms": 8, "pause_ms": 400,
        "rate": 44100, "channels": 2, "bits": 24, "textgrid": "short", "jobs": "nproc",
        "systems": 64, "long_lines": 0, "long_line_syntagms": 0, "score_passes": 1,
    },
}


def _word(rng: random.Random) -> str:
    return "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(3))


def _fmt_pct(value: float) -> str:
    return f"{value:+.2f}%"


GOLD_PITCH = round(EXPECTED_PITCH_PCT, 2)
GOLD_RATE = round(EXPECTED_RATE_PCT, 2)
GOLD_VOLUME = round(EXPECTED_VOLUME_PCT, 2)


def _tone(freq: float, n: int, rate: int, amplitude: float) -> np.ndarray:
    return amplitude * np.sin(2 * np.pi * freq * np.arange(n) / rate)


def _samples(ms: int, rate: int) -> int:
    return ms * rate // 1000


def voice_track(texts: list[list[str]], pauses_ms: list[int], f0: float, dbfs: float,
                word_ms: int, rate: int):
    """Audio and word-tier intervals for one voice. A full-scale click opens
    the file, so peak normalization keeps the loudness offset between the
    voices; syntagms are contiguous tone spans separated by true silence."""
    amp = 10.0 ** (dbfs / 20.0)
    chunks = [_tone(3000.0, _samples(CLICK_MS, rate), rate, 1.0),
              np.zeros(_samples(LEAD_MS - CLICK_MS, rate))]
    intervals = [(0, LEAD_MS, "")]
    cursor = LEAD_MS
    for k, words in enumerate(texts):
        for w in words:
            intervals.append((cursor, cursor + word_ms, w))
            cursor += word_ms
        chunks.append(_tone(f0, _samples(len(words) * word_ms, rate), rate, amp))
        if k < len(texts) - 1:
            intervals.append((cursor, cursor + pauses_ms[k], ""))
            chunks.append(np.zeros(_samples(pauses_ms[k], rate)))
            cursor += pauses_ms[k]
    return np.concatenate(chunks), intervals


def write_wav(path: Path, samples: np.ndarray, rate: int, channels: int, bits: int):
    scale = float(1 << (bits - 1))
    ints = np.clip(np.round(samples * scale), -scale, scale - 1).astype("<i4")
    if channels == 2:
        ints = np.stack([ints, ints], axis=1).reshape(-1)
    if bits == 16:
        data = ints.astype("<i2").tobytes()
    elif bits == 24:
        data = ints.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    else:
        raise ValueError(f"unsupported bit depth {bits}")
    fmt = struct.pack("<HHIIHH", 1, channels, rate, rate * channels * bits // 8,
                      channels * bits // 8, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(data)) + data + (b"\x00" if len(data) % 2 else b"")
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


def textgrid(intervals: list[tuple[int, int, str]], fmt: str) -> str:
    iv = [(a / 1000.0, b / 1000.0, label) for a, b, label in intervals]
    xmin, xmax = iv[0][0], iv[-1][1]
    if fmt == "short":
        lines = ['File type = "ooTextFile"', 'Object class = "TextGrid"', "",
                 str(xmin), str(xmax), "<exists>", "1", '"IntervalTier"', '"words"',
                 str(xmin), str(xmax), str(len(iv))]
        for a, b, label in iv:
            lines += [str(a), str(b), f'"{label}"']
        return "\n".join(lines) + "\n"
    lines = ['File type = "ooTextFile"', 'Object class = "TextGrid"', "",
             f"xmin = {xmin}", f"xmax = {xmax}", "tiers? <exists>", "size = 1",
             "item []:", "    item [1]:", '        class = "IntervalTier"',
             '        name = "words"', f"        xmin = {xmin}", f"        xmax = {xmax}",
             f"        intervals: size = {len(iv)}"]
    for i, (a, b, label) in enumerate(iv, start=1):
        lines += [f"        intervals [{i}]:", f"            xmin = {a}",
                  f"            xmax = {b}", f'            text = "{label}"']
    return "\n".join(lines) + "\n"


def syntagm_markup(text: str, pitch: float, rate: float, volume: float, break_ms: int,
                   silence: bool) -> str:
    body = (f'<prosody pitch="{_fmt_pct(pitch)}" rate="{_fmt_pct(rate)}" '
            f'volume="{_fmt_pct(volume)}">{text}</prosody>')
    if silence:
        body = LEAD_SILENCE + body + TRAIL_SILENCE
    return body + f'<break time="{break_ms}ms"/>'


def segment_line(parts: list[str], speak: bool) -> str:
    body = "".join(parts)
    return SPEAK_OPEN + body + SPEAK_CLOSE if speak else body


def _stats(diffs: list[float]) -> dict:
    n = len(diffs)
    return {"mae": sum(abs(d) for d in diffs) / n,
            "rmse": math.sqrt(sum(d * d for d in diffs) / n), "count": n}


def _census(lines: list[list[str]]) -> dict:
    """Census of a corpus given per line the texts of its syntagms; every
    syntagm carries one prosody tag and one break tag."""
    n_seg = len(lines)
    n_syn = sum(len(texts) for texts in lines)
    return {
        "segments": n_seg, "prosody_total": n_syn, "break_total": n_syn,
        "prosody_mean": n_syn / n_seg, "break_mean": n_syn / n_seg,
        "word_total": sum(len(t.split()) for texts in lines for t in texts),
        "char_total": sum(len(t) for texts in lines for t in texts),
    }


def scored_system(rng: random.Random, lines: list[list[str]], gold_breaks: list[list[int]],
                  word_starts: list[int], style: str, prefix: Path) -> dict:
    """Write one predicted corpus with its break and timing JSON next to
    ``prefix``; return the expected score report against the gold corpus."""
    silence = style == "silence"
    speak = style == "speak"
    diffs: dict[str, list[float]] = {"pitch_pct": [], "volume_pct": [], "rate_pct": [],
                                      "break_ms": []}
    out_lines = []
    for texts, breaks in zip(lines, gold_breaks):
        parts = []
        for text, gold_break in zip(texts, breaks):
            pitch = round(GOLD_PITCH + rng.randint(-300, 300) / 100, 2)
            rate = round(GOLD_RATE + rng.randint(-300, 300) / 100, 2)
            volume = round(GOLD_VOLUME + rng.randint(-300, 300) / 100, 2)
            brk = max(0, gold_break + rng.randint(-150, 150))
            parts.append(syntagm_markup(text, pitch, rate, volume, brk, silence))
            # the scorer reads the two-decimal strings back
            diffs["pitch_pct"].append(float(_fmt_pct(pitch)[:-1]) - GOLD_PITCH)
            diffs["volume_pct"].append(float(_fmt_pct(volume)[:-1]) - GOLD_VOLUME)
            diffs["rate_pct"].append(float(_fmt_pct(rate)[:-1]) - GOLD_RATE)
            diffs["break_ms"].append(float(brk - gold_break))
        out_lines.append(segment_line(parts, speak))
    prefix.with_suffix(".ssml").write_text("\n".join(out_lines) + "\n", encoding="utf-8")

    n_words = len(word_starts)
    gold_pos = set(gold_positions(lines, gold_breaks))
    pred_pos = {i for i in gold_pos if rng.random() >= 0.04}
    pred_pos |= {i for i in range(n_words) if rng.random() < 0.02}
    probs = [round(rng.uniform(0.55, 0.99), 4) if i in pred_pos else round(rng.uniform(0.01, 0.45), 4)
             for i in range(n_words)]
    tp = len(pred_pos & gold_pos)
    precision = tp / len(pred_pos) if pred_pos else 0.0
    recall = tp / len(gold_pos)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    nll = sum(-math.log(p if i in gold_pos else 1.0 - p) for i, p in enumerate(probs))
    breaks_pred = prefix.with_suffix(".breaks.json")
    breaks_pred.write_text(json.dumps({"word_count": n_words, "positions": sorted(pred_pos),
                                       "probabilities": probs}), encoding="utf-8")

    # timings: predicted word starts off by a seeded number of ms
    offsets = [rng.randint(-120, 120) for _ in word_starts]
    pred_starts = [g + o for g, o in zip(word_starts, offsets)]
    windows: dict[int, list[bool]] = {}
    for g, o in zip(word_starts, offsets):
        windows.setdefault(g // int(WINDOW_S * 1000), []).append(abs(o) <= TAU_MS)
    ratios = [sum(h) / len(h) for _, h in sorted(windows.items())]
    prefix.with_suffix(".timings.json").write_text(json.dumps(pred_starts), encoding="utf-8")

    census = _census(lines)
    return {
        "pred": str(prefix.with_suffix(".ssml")),
        "pred_breaks": str(breaks_pred),
        "pred_timings": str(prefix.with_suffix(".timings.json")),
        "report": str(prefix.with_suffix(".report.json")),
        "expected": {
            "attribute_errors": {k: _stats(v) for k, v in diffs.items()},
            "tag_census": {"pred": census, "gold": census},
            "break_prediction": {"precision": precision, "recall": recall, "f1": f1,
                                 "perplexity": math.exp(nll / n_words)},
            "arr": sum(ratios) / len(ratios),
        },
        "syntagms": sum(len(t) for t in lines),
    }


def gold_positions(lines: list[list[str]], gold_breaks: list[list[int]]) -> list[int]:
    """Word indices a gold break follows: the last word of every syntagm
    that has a pause after it."""
    positions, word = [], 0
    for texts, breaks in zip(lines, gold_breaks):
        for text, brk in zip(texts, breaks):
            word += len(text.split())
            if brk > 0:
                positions.append(word - 1)
    return positions


def _gold_side_files(lines: list[list[str]], gold_breaks: list[list[int]],
                     word_starts: list[int], prefix: Path) -> tuple[str, str]:
    breaks_path = prefix.with_suffix(".breaks.json")
    breaks_path.write_text(json.dumps({"word_count": len(word_starts),
                                       "positions": gold_positions(lines, gold_breaks)}),
                           encoding="utf-8")
    timings_path = prefix.with_suffix(".timings.json")
    timings_path.write_text(json.dumps(word_starts), encoding="utf-8")
    return str(breaks_path), str(timings_path)


def _pair(rng: random.Random, spec: dict, name: str, root: Path) -> tuple[dict, dict]:
    """Write one natural/synthetic pair; return its manifest entry and the
    expected annotate outputs."""
    n = spec["syntagms"]
    texts = [[_word(rng) for _ in range(WORDS_PER_SYNTAGM)] for _ in range(n)]
    nat_pauses = [spec["pause_ms"]] * (n - 1)
    rate, channels, bits = spec["rate"], spec["channels"], spec["bits"]
    nat, nat_iv = voice_track(texts, nat_pauses, NAT_F0, NAT_DBFS, NAT_WORD_MS, rate)
    syn, syn_iv = voice_track(texts, [SYN_PAUSE_MS] * (n - 1), SYN_F0, SYN_DBFS,
                              SYN_WORD_MS, rate)
    files = {}
    for voice, audio, iv in (("nat", nat, nat_iv), ("syn", syn, syn_iv)):
        wav = root / f"{name}_{voice}.wav"
        write_wav(wav, audio, rate, channels, bits)
        tg = root / f"{name}_{voice}.TextGrid"
        tg.write_text(textgrid(iv, spec["textgrid"]), encoding="utf-8")
        files[voice] = (wav.name, tg.name)
    entry = {"name": name, "natural_wav": files["nat"][0], "synthetic_wav": files["syn"][0],
             "textgrid_nat": files["nat"][1], "textgrid_syn": files["syn"][1],
             "words_tier": "words"}

    # every pause is a segment boundary, so each syntagm is a line of its own
    breaks = nat_pauses + [0]
    records, line_texts, line_breaks, starts = [], [], [], []
    cursor = LEAD_MS
    for k, words in enumerate(texts):
        text = " ".join(words)
        start = cursor
        for _ in words:
            starts.append(cursor)
            cursor += NAT_WORD_MS
        records.append({"text": text, "segment": k + 1, "start_ms": start, "end_ms": cursor,
                        "word_count": len(words), "break_ms": breaks[k], "pair": name,
                        "flags": []})
        cursor += breaks[k]
        line_texts.append([text])
        line_breaks.append([breaks[k]])
    ssml_lines = [syntagm_markup(t[0], GOLD_PITCH, GOLD_RATE, GOLD_VOLUME, b[0], False)
                  for t, b in zip(line_texts, line_breaks)]
    expected = {
        "name": name,
        "records": records,
        "ssml_lines": ssml_lines,
        "segments": 1 + len(ssml_lines),  # the opening click is a segment of its own
        "syntagms": n,
        "audio_s": len(nat) / rate + len(syn) / rate,
        "line_texts": line_texts,
        "line_breaks": line_breaks,
        "word_starts": starts,
    }
    return entry, expected


def generate(workload: str, seed: int, root: Path, jobs: int, sizes: dict | None = None) -> dict:
    """Write all inputs of one workload under ``root`` and return the
    expectations (also written to ``root/expect.json``). ``sizes`` overrides
    entries of the workload's spec (the self-test runs small versions)."""
    spec = {**WORKLOADS[workload], **(sizes or {})}
    rng = random.Random(f"{workload}:{seed}")
    root.mkdir(parents=True, exist_ok=True)
    entries, pairs = [], []
    for p in range(spec["pairs"]):
        entry, expected = _pair(rng, spec, f"pair{p:03d}", root)
        entries.append(entry)
        pairs.append(expected)
    manifest = root / "job.json"
    manifest.write_text(json.dumps({"output_dir": "out", "pairs": entries}, indent=1),
                        encoding="utf-8")

    scores = []
    sysdir = root / "systems"
    sysdir.mkdir(exist_ok=True)
    for pair in pairs:
        gold = root / "out" / f"{pair['name']}.ssml"
        gold_breaks, gold_timings = _gold_side_files(
            pair["line_texts"], pair["line_breaks"], pair["word_starts"],
            sysdir / f"{pair['name']}_gold")
        for s in range(spec["systems"]):
            job = scored_system(rng, pair["line_texts"], pair["line_breaks"],
                                pair["word_starts"], STYLES[s % len(STYLES)],
                                sysdir / f"{pair['name']}_sys{s:02d}")
            job.update(gold=str(gold), gold_breaks=gold_breaks, gold_timings=gold_timings)
            scores.append(job)
    if spec["long_lines"]:
        per_line = spec["long_line_syntagms"]
        lines = [[" ".join(_word(rng) for _ in range(WORDS_PER_SYNTAGM))
                  for _ in range(per_line)]]
        # a pause after most syntagms, none at the line end
        gold_breaks = [[0 if q == per_line - 1 else rng.choice((0, 150, 250, 400, 650))
                        for q in range(per_line)]]
        starts, cursor = [], 0
        for text, brk in zip(lines[0], gold_breaks[0]):
            for _ in text.split():
                starts.append(cursor)
                cursor += rng.randint(180, 420)
            cursor += brk
        gold = sysdir / "long_gold.ssml"
        gold.write_text(segment_line(
            [syntagm_markup(t, GOLD_PITCH, GOLD_RATE, GOLD_VOLUME, b, True)
             for t, b in zip(lines[0], gold_breaks[0])], True) + "\n", encoding="utf-8")
        gold_breaks_path, gold_timings = _gold_side_files(lines, gold_breaks, starts,
                                                          sysdir / "long_gold")
        for s in range(spec["long_lines"]):
            job = scored_system(rng, lines, gold_breaks, starts, "speak" if s % 2 else "silence",
                                sysdir / f"long_sys{s:02d}")
            job.update(gold=str(gold), gold_breaks=gold_breaks_path, gold_timings=gold_timings)
            scores.append(job)

    for pair in pairs:
        for key in ("line_texts", "line_breaks", "word_starts"):
            del pair[key]
    expect = {
        "workload": workload,
        "seed": seed,
        "manifest": str(manifest),
        "annotate_args": ["annotate", str(manifest), "--jobs", str(jobs)],
        "out_dir": str(root / "out"),
        "pairs": pairs,
        "scores": scores,
        "score_passes": spec["score_passes"],
        "tau_ms": TAU_MS,
        "window_s": WINDOW_S,
    }
    (root / "expect.json").write_text(json.dumps(expect, indent=1), encoding="utf-8")
    # flush the inputs now, so their write-back does not overlap the timing
    for path in root.rglob("*"):
        if path.is_file():
            with open(path, "rb") as f:
                os.fsync(f.fileno())
    return expect
