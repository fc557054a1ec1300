"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured figure (run pytest -s to see them). Expected values are frozen
from independent oracles: straight-line reimplementations and hand
arithmetic.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from prosodika.audio import AudioBuffer
from prosodika.cli import main as cli_main
from prosodika.loudness import integrated_loudness
from prosodika.metrics import (
    BreakPrediction,
    arr,
    attribute_errors,
    break_f1,
    perplexity,
)
from prosodika.pitch import estimate_f0_track, median_f0
from prosodika.prosody import (
    PipelineConfig,
    ProsodyDelta,
    pitch_delta,
    rate_delta,
    smooth_series,
    volume_delta,
)
from prosodika.ssml import EmitOptions, emit, parse, parse_corpus, validate
from prosodika.syntagms import PAUSE, WORD, Token, segment_syntagms
from prosodika.audio import SegmentBounds

from conftest import (
    EXPECTED_PITCH_PCT,
    EXPECTED_RATE_PCT,
    EXPECTED_VOLUME_PCT,
    NAT_PAUSE_MS,
    CliRunner,
    build_e2e_corpus,
    tone,
)
from test_ssml import random_document

CFG = PipelineConfig()


def report(criterion: int, message: str):
    print(f"PASS criterion {criterion}: {message}")


def test_criterion_1_formula_hand_checks():
    start = time.perf_counter()
    # [DERIVED] hand evaluations, within 1e-2 percentage points
    assert pitch_delta(220.0, 200.0, CFG) == pytest.approx(9.0508, abs=1e-2)
    assert pitch_delta(100.0, 200.0, CFG) == pytest.approx(-5.8848, abs=1e-2)
    assert volume_delta(-17.0, -20.0, CFG) == pytest.approx(10.0, abs=1e-2)
    assert volume_delta(-20.5, -20.0, CFG) == pytest.approx(-5.5939, abs=1e-2)
    assert rate_delta(10, 5.0, 4.0, CFG) == pytest.approx(-10.0, abs=1e-2)
    assert rate_delta(10, 4.0, 5.0, CFG) == pytest.approx(5.0, abs=1e-2)
    assert smooth_series([5.0, 5.0, 5.0], CFG) == pytest.approx([5.0, 5.0, 5.0], abs=1e-2)
    assert smooth_series([0.0, 10.0], CFG) == pytest.approx([0.0, 2.0], abs=1e-2)
    assert smooth_series([0.0, 100.0], CFG) == pytest.approx([0.0, 8.0], abs=1e-2)

    # pitch round-trip: percent back to semitones recovers the clipped offset
    rng = np.random.default_rng(11)
    f0s = rng.uniform(40.0, 600.0, 100_000)
    bases = rng.uniform(40.0, 600.0, 100_000)
    worst = 0.0
    p = CFG.pitch_clip_semitones
    for f0, base in zip(f0s, bases):
        pct = pitch_delta(f0, base, CFG)
        s_back = 12.0 * math.log2(1.0 + pct / 100.0)
        s_expected = min(max(12.0 * math.log2(f0 / base), -0.7 * p), p)
        worst = max(worst, abs(s_back - s_expected))
    assert worst < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(1, f"formula hand checks and 1e5 round-trips in {elapsed:.2f}s "
              f"(worst semitone error {worst:.2e})")


def test_criterion_2_clip_clamp_invariants():
    rng = np.random.default_rng(23)
    n = 100_000
    lo, hi = CFG.pitch_bounds_pct()
    violations = 0
    f0s = rng.uniform(20.0, 900.0, n)
    bases = rng.uniform(20.0, 900.0, n)
    for f0, base in zip(f0s, bases):
        v = pitch_delta(f0, base, CFG)
        if not (lo - 1e-12 <= v <= hi + 1e-12):
            violations += 1
    la = rng.uniform(-80.0, 0.0, n)
    lb = rng.uniform(-80.0, 0.0, n)
    for a, b in zip(la, lb):
        if abs(volume_delta(a, b, CFG)) > CFG.volume_clip_pct + 1e-12:
            violations += 1
    counts = rng.integers(1, 20, n)
    d_nats = rng.uniform(0.05, 20.0, n)
    d_syns = rng.uniform(0.05, 20.0, n)
    for c, dn, ds in zip(counts, d_nats, d_syns):
        r = rate_delta(int(c), dn, ds, CFG)
        if not (-CFG.rate_clip_pct - 1e-12 <= r <= 0.5 * CFG.rate_clip_pct + 1e-12):
            violations += 1
    smoothed = smooth_series(list(rng.uniform(-100.0, 100.0, n)), CFG)
    steps = np.abs(np.diff(smoothed))
    violations += int(np.sum(steps > CFG.max_jump_pct + 1e-12))
    assert violations == 0
    report(2, f"0 violations over 4x{n} random inputs "
              f"(max smoothed step {steps.max():.4f} <= {CFG.max_jump_pct})")


def test_criterion_3_dsp_oracles():
    start = time.perf_counter()
    for freq in (80, 120, 200, 300, 400):
        buf = AudioBuffer(tone(freq, 1.0, 16000, amplitude=0.8), 16000)
        track = estimate_f0_track(buf)
        med = median_f0(track, SegmentBounds(0, buf.duration_ms))
        assert med is not None
        assert abs(med - freq) <= 0.01 * freq, f"{freq} Hz off: {med}"
    sine = AudioBuffer(tone(997.0, 5.0, 16000, amplitude=1.0), 16000)
    ref = integrated_loudness(sine)
    assert ref == pytest.approx(-3.69, abs=0.1)
    for gain in (0.1, 0.5, 1.0):
        scaled = AudioBuffer(sine.samples * gain, 16000)
        expected = ref + 20.0 * math.log10(gain)
        assert integrated_loudness(scaled) == pytest.approx(expected, abs=0.05)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(3, f"f0 medians within 1% at 5 frequencies; 997 Hz sine at "
              f"{ref:.3f} LUFS with gain linearity, in {elapsed:.2f}s")


def test_criterion_4_segmentation_rules():
    def word(text, a, b):
        return Token(WORD, text, a, b)

    def pse(a, b):
        return Token(PAUSE, "", a, b)

    tokens = [
        pse(0, 250),                      # leading pause
        word("Bonjour", 250, 700),
        pse(700, 820),                    # plain boundary, kept as observed
        word("tout", 820, 1000),
        word("le", 1000, 1100),
        word("monde.", 1100, 1600),
        pse(1600, 1800),                  # 200 ms after '.': clamp to 500
        word("Vraiment", 1800, 2400),
        word("super!", 2400, 2900),       # '!' with no pause: inject 500
        word("Une", 2900, 3100),
        word("question?", 3100, 3600),
        pse(3600, 4400),                  # 800 ms after '?': stays 800
        word("Fin.", 4400, 4800),         # stream ends on '.': inject 500
    ]
    syntagms = segment_syntagms(tokens)
    texts = [s.text for s in syntagms]
    assert texts == [
        "Bonjour",
        "tout le monde.",
        "Vraiment super!",
        "Une question?",
        "Fin.",
    ]
    flattened = [w.text for s in syntagms for w in s.words]
    assert flattened == [t.text for t in tokens if t.kind == WORD]
    pauses = [s.trailing_pause_ms for s in syntagms]
    assert pauses == [120, 500, 500, 800, 500]
    for s in syntagms:
        if s.words[-1].text.rstrip()[-1:] in {".", "?", "!"}:
            assert s.trailing_pause_ms >= 500
    report(4, f"clamps/injections exact on the fixture: pauses {pauses}, "
              "word sequence preserved")


def test_criterion_5_ssml_round_trip():
    rng = random.Random(99)
    from prosodika.ssml import emit_document

    for _ in range(1000):
        doc = random_document(rng)
        text = emit_document(doc)
        back = parse_corpus(text)
        assert back == doc
        assert validate(back, CFG) == []
    wrapped = emit(
        [("bonjour", ProsodyDelta(2.0, -1.0, -10.0, 200))],
        EmitOptions(azure_silence_wrap=True),
    )
    assert '<mstts:silence type="leading-exact" value="0"/>' in wrapped
    assert '<mstts:silence type="trailing-exact" value="0"/>' in wrapped
    assert wrapped.index("leading-exact") < wrapped.index("<prosody")
    assert wrapped.index("</prosody>") < wrapped.index("trailing-exact")
    report(5, "1000 random documents round-trip structurally, emitter output "
              "validates clean, silence wrap form exact")


def test_criterion_6_metric_oracles():
    # each metric against a straight-line reimplementation, 1000 cases
    rng = random.Random(5)
    for _ in range(1000):
        n = rng.randint(1, 15)
        pred_set = frozenset(i for i in range(n) if rng.random() < 0.4)
        gold_set = frozenset(i for i in range(n) if rng.random() < 0.4)
        got = break_f1(BreakPrediction(n, pred_set), BreakPrediction(n, gold_set))
        if not pred_set and not gold_set:
            expected = (1.0, 1.0, 1.0)
        else:
            tp = len(pred_set & gold_set)
            prec = tp / len(pred_set) if pred_set else 0.0
            rec = tp / len(gold_set) if gold_set else 0.0
            f1 = (2 * prec * rec / (prec + rec)) if prec + rec > 0 else 0.0
            expected = (prec, rec, f1)
        assert all(abs(a - b) <= 1e-12 for a, b in zip(got, expected))

        probs = [rng.uniform(0.01, 1.0) for _ in range(rng.randint(1, 30))]
        expected_ppl = math.exp(sum(-math.log(p) for p in probs) / len(probs))
        assert abs(perplexity(probs) - expected_ppl) <= 1e-12

        k = rng.randint(1, 40)
        gold_starts = sorted(rng.uniform(0, 60_000) for _ in range(k))
        pred_starts = [g + rng.uniform(-120, 120) for g in gold_starts]
        got_arr = arr(pred_starts, gold_starts, tau_ms=50.0, window_s=15.0)
        ratios = []
        max_win = int(max(gold_starts) // 15_000)
        for w in range(max_win + 1):
            inside = [
                (p, g)
                for p, g in zip(pred_starts, gold_starts)
                if w * 15_000 <= g < (w + 1) * 15_000
            ]
            if inside:
                ratios.append(
                    sum(1 for p, g in inside if abs(p - g) <= 50.0) / len(inside)
                )
        assert abs(got_arr - sum(ratios) / len(ratios)) <= 1e-12

    # MAE/RMSE over emitted-and-parsed aligned documents, values 2dp-quantized
    for _ in range(1000):
        m = rng.randint(1, 8)
        texts = [f"mot{i}" for i in range(m)]
        pv = [
            (round(rng.uniform(-5.8, 9.0), 2), round(rng.uniform(-5, 5), 2),
             round(rng.uniform(-10, 10), 2), rng.randint(0, 900))
            for _ in range(m)
        ]
        gv = [
            (round(rng.uniform(-5.8, 9.0), 2), round(rng.uniform(-5, 5), 2),
             round(rng.uniform(-10, 10), 2), rng.randint(0, 900))
            for _ in range(m)
        ]
        pred_doc = parse(emit([(t, ProsodyDelta(*v)) for t, v in zip(texts, pv)]))
        gold_doc = parse(emit([(t, ProsodyDelta(*v)) for t, v in zip(texts, gv)]))
        got = attribute_errors(pred_doc, gold_doc)
        for idx, key in ((0, "pitch_pct"), (1, "rate_pct"), (2, "volume_pct"), (3, "break_ms")):
            diffs = [p[idx] - g[idx] for p, g in zip(pv, gv)]
            mae = sum(abs(d) for d in diffs) / m
            rmse = math.sqrt(sum(d * d for d in diffs) / m)
            assert abs(got[key].mae - mae) <= 1e-12
            assert abs(got[key].rmse - rmse) <= 1e-12

    report(6, "break_f1/perplexity/ARR/MAE/RMSE match straight-line oracles "
              "to 1e-12")


def test_criterion_7_end_to_end_synthetic_corpus(tmp_path):
    start = time.perf_counter()
    n = 334  # ~10 minutes of synthetic audio at 1.8 s per syntagm
    manifest = build_e2e_corpus(tmp_path, n_syntagms=n)
    runner = CliRunner()
    result = runner.invoke(cli_main, ["annotate", str(manifest), "--jobs", "1"])
    assert result.exit_code == 0, result.output

    records = [
        json.loads(line)
        for line in (tmp_path / "out" / "pair00.deltas.jsonl").read_text().splitlines()
    ]
    assert len(records) == n
    for rec in records:
        assert rec["pitch_pct"] == pytest.approx(EXPECTED_PITCH_PCT, abs=1e-6)
        assert rec["volume_pct"] == pytest.approx(EXPECTED_VOLUME_PCT, abs=1e-9)
        assert rec["rate_pct"] == pytest.approx(EXPECTED_RATE_PCT, abs=1e-9)
    breaks = [rec["break_ms"] for rec in records]
    assert breaks == [NAT_PAUSE_MS] * (n - 1) + [0]

    # analytically emitted gold, grouped one syntagm per segment line
    gold_lines = []
    word = 1
    for k in range(n):
        text = " ".join(f"mot{word + i}" for i in range(3))
        word += 3
        gold_lines.append(
            emit([(text, ProsodyDelta(EXPECTED_PITCH_PCT, EXPECTED_RATE_PCT,
                                      EXPECTED_VOLUME_PCT,
                                      NAT_PAUSE_MS if k < n - 1 else 0))])
        )
    gold_path = tmp_path / "gold.ssml"
    gold_path.write_text("\n".join(gold_lines) + "\n", encoding="utf-8")
    report_path = tmp_path / "report.json"
    result = runner.invoke(
        cli_main,
        ["score", str(tmp_path / "out" / "pair00.ssml"), str(gold_path),
         "-o", str(report_path)],
    )
    assert result.exit_code == 0, result.output
    scored = json.loads(report_path.read_text())
    for key, stats in scored["attribute_errors"].items():
        assert stats["mae"] == 0.0, f"{key} MAE nonzero"
        assert stats["rmse"] == 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(7, f"{n}-syntagm corpus annotated and scored all-zero MAE "
              f"in {elapsed:.1f}s")


def test_criterion_8_statistics_plumbing(tmp_path):
    rows = [
        {"pair": "p0", "text": "la pause", "pitch_pct": 0.0, "rate_pct": 0.0,
         "volume_pct": 0.0, "break_ms": b, "flags": []}
        for b in (250, 400, 500)
    ]
    deltas = tmp_path / "fixture.jsonl"
    deltas.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    out = tmp_path / "stats.json"
    result = CliRunner().invoke(cli_main, ["stats", str(deltas), "-o", str(out)])
    assert result.exit_code == 0, result.output
    data = json.loads(out.read_text())
    dist = data["distributions"]["break_ms"]
    assert dist["median"] == 400.0
    assert dist["q1"] == 250.0
    assert dist["q3"] == 500.0
    assert data["totals"]["break_tags"] == 3
    assert "median" in result.output or "break_ms" in result.output
    report(8, "break fixture {250,400,500} reports median 400 ms, "
              "IQR [250, 500], Table-style totals")
