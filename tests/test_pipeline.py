import json

import numpy as np
import pytest

from prosodika.audio import SegmentBounds
from prosodika.pipeline import (
    ManifestError,
    annotate_pair,
    assign_segments,
    load_manifest,
    pick_words_tier,
    syntagms_from_textgrid,
)
from prosodika.prosody import PipelineConfig
from prosodika.ssml import EmitOptions
from prosodika.syntagms import WORD, FunctionWordLexicon, Syntagm, Token
from prosodika.textgrid import TextGridInterval, TextGridTier

from conftest import (
    EXPECTED_PITCH_PCT,
    EXPECTED_RATE_PCT,
    EXPECTED_VOLUME_PCT,
    NAT_PAUSE_MS,
    build_e2e_corpus,
    long_textgrid,
)


def syntagm(words_ms):
    toks = tuple(Token(WORD, f"w{i}", a, b) for i, (a, b) in enumerate(words_ms))
    return Syntagm(toks, 0)


class TestAssignSegments:
    def test_overlap_wins(self):
        segs = [SegmentBounds(0, 1000), SegmentBounds(1500, 3000)]
        syn = [syntagm([(100, 800)]), syntagm([(1600, 2500)])]
        assert assign_segments(syn, segs) == [0, 1]

    def test_no_segments_all_zero(self):
        assert assign_segments([syntagm([(0, 100)])], []) == [0]

    def test_nearest_fallback(self):
        segs = [SegmentBounds(0, 100), SegmentBounds(5000, 6000)]
        syn = [syntagm([(4000, 4500)])]  # overlaps nothing, nearer to seg 1
        assert assign_segments(syn, segs) == [1]


def assign_segments_by_scan(syntagms, segments):
    """Reference: every syntagm against every segment."""
    if not segments:
        return [0] * len(syntagms)
    out = []
    for s in syntagms:
        best, best_overlap = None, 0
        for k, seg in enumerate(segments):
            overlap = min(s.end_ms, seg.end_ms) - max(s.start_ms, seg.start_ms)
            if overlap > best_overlap:
                best, best_overlap = k, overlap
        if best is None:
            mid = (s.start_ms + s.end_ms) / 2.0
            best = min(
                range(len(segments)),
                key=lambda k: abs((segments[k].start_ms + segments[k].end_ms) / 2.0 - mid),
            )
        out.append(best)
    return out


class TestAssignSegmentsMatchesScan:
    def test_random_sorted_layouts(self):
        rng = np.random.default_rng(11)
        for _ in range(400):
            # coarse 10 ms grid: touching segments, equal overlaps and
            # midpoint ties all come up often
            segs, t = [], int(rng.integers(0, 3)) * 10
            for _ in range(int(rng.integers(0, 8))):
                length = int(rng.integers(1, 6)) * 10
                segs.append(SegmentBounds(t, t + length))
                t += length + int(rng.integers(0, 4)) * 10
            syn = []
            for _ in range(int(rng.integers(1, 10))):
                a = int(rng.integers(0, 30)) * 10
                syn.append(syntagm([(a, a + int(rng.integers(1, 12)) * 10)]))
            assert assign_segments(syn, segs) == assign_segments_by_scan(syn, segs)

    def test_equal_overlap_takes_first(self):
        segs = [SegmentBounds(0, 100), SegmentBounds(100, 200)]
        assert assign_segments([syntagm([(50, 150)])], segs) == [0]

    def test_midpoint_tie_takes_first(self):
        segs = [SegmentBounds(0, 100), SegmentBounds(300, 400)]
        assert assign_segments([syntagm([(150, 250)])], segs) == [0]

    def test_rejects_overlapping_segments(self):
        segs = [SegmentBounds(0, 100), SegmentBounds(50, 200)]
        with pytest.raises(ValueError):
            assign_segments([syntagm([(0, 10)])], segs)


class TestManifest:
    def test_load(self, tmp_path):
        manifest = build_e2e_corpus(tmp_path, n_syntagms=2)
        pairs, overrides = load_manifest(manifest)
        assert len(pairs) == 1
        assert pairs[0].name == "pair00"
        assert pairs[0].natural_wav.exists()
        assert overrides == {}

    def test_missing_fields(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"pairs": [{"natural_wav": "x"}]}), encoding="utf-8")
        with pytest.raises(ManifestError):
            load_manifest(p)

    def test_not_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{", encoding="utf-8")
        with pytest.raises(ManifestError):
            load_manifest(p)

    def test_config_overrides_carried(self, tmp_path):
        manifest = build_e2e_corpus(tmp_path, n_syntagms=2)
        data = json.loads(manifest.read_text())
        data["config"] = {"volume_clip_pct": 12}
        manifest.write_text(json.dumps(data), encoding="utf-8")
        _, overrides = load_manifest(manifest)
        assert overrides == {"volume_clip_pct": 12}


class TestTierSelection:
    def test_prefers_words_tier(self):
        tiers = [
            TextGridTier("phones", 0, 1, (TextGridInterval(0, 1, "b"),)),
            TextGridTier("words", 0, 1, (TextGridInterval(0, 1, "bon"),)),
        ]
        assert pick_words_tier(tiers, None).name == "words"

    def test_explicit_name(self):
        tiers = [TextGridTier("custom", 0, 1, (TextGridInterval(0, 1, "x"),))]
        assert pick_words_tier(tiers, "custom").name == "custom"
        with pytest.raises(ValueError):
            pick_words_tier(tiers, "absent")

    def test_syntagms_from_textgrid(self, tmp_path):
        p = tmp_path / "t.TextGrid"
        p.write_text(
            long_textgrid([(0.0, 0.4, "le"), (0.4, 0.8, "chat"), (0.8, 1.2, ""), (1.2, 1.6, "dort")]),
            encoding="utf-8",
        )
        syn = syntagms_from_textgrid(p, FunctionWordLexicon.default())
        assert [s.text for s in syn] == ["le chat", "dort"]


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    root = tmp_path_factory.mktemp("e2e")
    manifest = build_e2e_corpus(root, n_syntagms=6)
    pairs, _ = load_manifest(manifest)
    return annotate_pair(
        pairs[0], PipelineConfig(), FunctionWordLexicon.default(), EmitOptions()
    )


class TestAnnotatePair:
    def test_recovers_constructed_deltas(self, result):
        assert result.n_syntagms == 6
        for rec in result.records:
            assert rec["pitch_pct"] == pytest.approx(EXPECTED_PITCH_PCT, abs=1e-6)
            assert rec["rate_pct"] == pytest.approx(EXPECTED_RATE_PCT, abs=1e-9)
            assert rec["volume_pct"] == pytest.approx(EXPECTED_VOLUME_PCT, abs=1e-9)
            assert rec["flags"] == []
        breaks = [rec["break_ms"] for rec in result.records]
        assert breaks == [NAT_PAUSE_MS] * 5 + [0]

    def test_one_ssml_line_per_speech_segment(self, result):
        # the opening click is its own audio segment with no syntagms
        assert result.n_segments == 7
        assert len(result.ssml_lines) == 6
        for line in result.ssml_lines:
            assert line.startswith("<prosody ")

    def test_log_echoes_config(self, result):
        text = "\n".join(result.log_lines)
        assert "smoothing_alpha = 0.2" in text
        assert "baseline_window = 10" in text


class TestMeasureFeatures:
    def test_short_syntagm_loudness_missing(self):
        from prosodika.audio import AudioBuffer
        from prosodika.pipeline import measure_features
        from prosodika.pitch import estimate_f0_track

        from conftest import tone

        buf = AudioBuffer(tone(200, 1.0, 16000, amplitude=0.3), 16000)
        track = estimate_f0_track(buf)
        short = syntagm([(100, 400)])  # 300 ms, below one gating block
        (features,) = measure_features(buf, track, [short])
        assert features.loudness_lufs is None
        assert features.median_f0_hz == pytest.approx(200, abs=2)

    def test_silent_span_loudness_missing(self):
        import numpy as np

        from prosodika.audio import AudioBuffer
        from prosodika.pipeline import measure_features
        from prosodika.pitch import estimate_f0_track

        buf = AudioBuffer(np.zeros(16000), 16000)
        track = estimate_f0_track(buf)
        span = syntagm([(0, 900)])
        (features,) = measure_features(buf, track, [span])
        assert features.loudness_lufs is None
        assert features.median_f0_hz is None
