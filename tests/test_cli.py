import json

import numpy as np
import pytest
from click.testing import CliRunner

from prosodika.cli import main
from prosodika.prosody import ProsodyDelta
from prosodika.ssml import EmitOptions, emit

from conftest import (
    EXPECTED_PITCH_PCT,
    EXPECTED_RATE_PCT,
    EXPECTED_VOLUME_PCT,
    NAT_PAUSE_MS,
    build_e2e_corpus,
    tone,
    write_wav_int16,
)


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def annotated(tmp_path_factory):
    """Corpus annotated once via the CLI, shared by score/stats tests."""
    root = tmp_path_factory.mktemp("cli_corpus")
    manifest = build_e2e_corpus(root, n_syntagms=6)
    result = CliRunner().invoke(main, ["annotate", str(manifest), "--jobs", "1"])
    assert result.exit_code == 0, result.output
    return root


def expected_gold_lines(n_syntagms=6):
    lines = []
    word = 1
    for k in range(n_syntagms):
        text = " ".join(f"mot{word + i}" for i in range(3))
        word += 3
        break_ms = NAT_PAUSE_MS if k < n_syntagms - 1 else 0
        delta = ProsodyDelta(EXPECTED_PITCH_PCT, EXPECTED_RATE_PCT,
                             EXPECTED_VOLUME_PCT, break_ms)
        lines.append(emit([(text, delta)], EmitOptions()))
    return lines


class TestSegment:
    def test_two_tone_fixture(self, runner, tmp_path):
        sig = np.concatenate(
            [tone(300, 1.0, 16000), np.zeros(8000), tone(300, 1.0, 16000)]
        )
        wav = tmp_path / "two.wav"
        write_wav_int16(wav, sig, 16000)
        out = tmp_path / "bounds.tsv"
        result = runner.invoke(main, ["segment", str(wav), "-o", str(out)])
        assert result.exit_code == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 2

    def test_silent_file_empty_output(self, runner, tmp_path):
        wav = tmp_path / "sil.wav"
        write_wav_int16(wav, np.zeros(16000), 16000)
        result = runner.invoke(main, ["segment", str(wav)])
        assert result.exit_code == 0
        assert result.output == ""

    def test_missing_file_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["segment", str(tmp_path / "none.wav")])
        assert result.exit_code == 2

    def test_truncated_container_exit_2(self, runner, tmp_path):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"RIFF\x00\x00\x00\x00WAVE")
        result = runner.invoke(main, ["segment", str(bad)])
        assert result.exit_code == 2

    def test_unsupported_codec_exit_3(self, runner, tmp_path):
        from conftest import write_wav_raw

        bad = tmp_path / "ulaw.wav"
        write_wav_raw(bad, b"\x00\x00", 16000, channels=1, bits=8, audio_format=7)
        result = runner.invoke(main, ["segment", str(bad)])
        assert result.exit_code == 3

    def test_non_finite_float_exit_3(self, runner, tmp_path):
        from conftest import write_wav_raw

        bad = tmp_path / "nan.wav"
        data = np.array([0.0, np.nan] * 8000, dtype="<f4").tobytes()
        write_wav_raw(bad, data, 16000, channels=1, bits=32, audio_format=3)
        result = runner.invoke(main, ["segment", str(bad)])
        assert result.exit_code == 3
        assert "nan.wav" in result.output


def two_pairs_one_bad_grid(root):
    """Manifest of two 5-syntagm pairs; the natural grid of 'bad' has a
    non-numeric interval end. Returns (manifest, bad grid line number)."""
    manifest_path = build_e2e_corpus(root, n_syntagms=5)
    data = json.loads(manifest_path.read_text())
    lines = (root / "nat.TextGrid").read_text(encoding="utf-8").splitlines()
    bad_line = max(i for i, line in enumerate(lines) if line.strip().startswith("xmax"))
    lines[bad_line] = "xmax = zz"
    (root / "broken.TextGrid").write_text("\n".join(lines) + "\n", encoding="utf-8")
    bad = dict(data["pairs"][0], name="bad", textgrid_nat="broken.TextGrid")
    data["pairs"].append(bad)
    manifest_path.write_text(json.dumps(data), encoding="utf-8")
    return manifest_path, bad_line + 1


class TestAnnotate:
    def test_outputs_exist(self, annotated):
        out = annotated / "out"
        assert (out / "pair00.deltas.jsonl").exists()
        assert (out / "pair00.ssml").exists()
        assert (out / "pair00.log").exists()

    def test_deltas_match_construction(self, annotated):
        recs = [
            json.loads(line)
            for line in (annotated / "out" / "pair00.deltas.jsonl").read_text().splitlines()
        ]
        assert len(recs) == 6
        for rec in recs:
            assert rec["pitch_pct"] == pytest.approx(EXPECTED_PITCH_PCT, abs=1e-6)
            assert rec["rate_pct"] == pytest.approx(EXPECTED_RATE_PCT, abs=1e-6)
            assert rec["volume_pct"] == pytest.approx(EXPECTED_VOLUME_PCT, abs=1e-6)

    def test_rerun_byte_identical(self, runner, tmp_path):
        manifest = build_e2e_corpus(tmp_path, n_syntagms=3)
        out = tmp_path / "out"
        result = runner.invoke(main, ["annotate", str(manifest), "--jobs", "1"])
        assert result.exit_code == 0, result.output
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        result = runner.invoke(main, ["annotate", str(manifest), "--jobs", "1"])
        assert result.exit_code == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_corrupt_pair_isolated(self, runner, tmp_path):
        manifest_path = build_e2e_corpus(tmp_path, n_syntagms=2)
        data = json.loads(manifest_path.read_text())
        # second pair with a corrupt TextGrid
        (tmp_path / "broken.TextGrid").write_text("File type = \"oops\"\n", encoding="utf-8")
        bad = dict(data["pairs"][0])
        bad.update(name="bad", textgrid_nat="broken.TextGrid")
        data["pairs"].append(bad)
        manifest_path.write_text(json.dumps(data), encoding="utf-8")
        result = runner.invoke(main, ["annotate", str(manifest_path), "--jobs", "1"])
        assert result.exit_code == 3
        assert (tmp_path / "out" / "pair00.ssml").exists()
        assert "bad: FAILED" in result.output

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_bad_grid_isolated_in_any_mode(self, runner, tmp_path, jobs):
        manifest, line = two_pairs_one_bad_grid(tmp_path)
        result = runner.invoke(main, ["annotate", str(manifest), "--jobs", jobs])
        assert result.exit_code == 3
        assert f"bad: FAILED (line {line}: " in result.output
        assert "pair00: 5 syntagms" in result.output
        for suffix in (".deltas.jsonl", ".ssml", ".log"):
            assert (tmp_path / "out" / f"pair00{suffix}").exists()
        assert not (tmp_path / "out" / "bad.ssml").exists()

    def test_unreadable_lexicon_fails_once_before_any_pair(self, runner, tmp_path):
        manifest_path = build_e2e_corpus(tmp_path, n_syntagms=2)
        data = json.loads(manifest_path.read_text())
        data["pairs"].append(dict(data["pairs"][0], name="pair01"))
        manifest_path.write_text(json.dumps(data), encoding="utf-8")
        missing = tmp_path / "no-such-lexicon.txt"
        result = runner.invoke(
            main, ["annotate", str(manifest_path), "--jobs", "1", "--lexicon", str(missing)]
        )
        assert result.exit_code == 2
        assert result.output.count("error: ") == 1
        assert "no-such-lexicon.txt" in result.output
        assert "FAILED" not in result.output
        assert not (tmp_path / "out").exists()

    def test_empty_manifest_exit_5(self, runner, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text(json.dumps({"output_dir": "out", "pairs": []}), encoding="utf-8")
        result = runner.invoke(main, ["annotate", str(p)])
        assert result.exit_code == 5

    def test_self_pair_yields_zero_deltas(self, runner, tmp_path):
        manifest_path = build_e2e_corpus(tmp_path, n_syntagms=3)
        data = json.loads(manifest_path.read_text())
        pair = data["pairs"][0]
        pair["synthetic_wav"] = pair["natural_wav"]
        pair["textgrid_syn"] = pair["textgrid_nat"]
        manifest_path.write_text(json.dumps(data), encoding="utf-8")
        result = runner.invoke(main, ["annotate", str(manifest_path), "--jobs", "1"])
        assert result.exit_code == 0, result.output
        recs = [
            json.loads(line)
            for line in (tmp_path / "out" / "pair00.deltas.jsonl").read_text().splitlines()
        ]
        for rec in recs:
            assert rec["pitch_pct"] == 0.0
            assert rec["rate_pct"] == 0.0
            assert rec["volume_pct"] == 0.0
        ssml_text = (tmp_path / "out" / "pair00.ssml").read_text()
        assert 'pitch="+0.00%" rate="+0.00%" volume="+0.00%"' in ssml_text

    def test_self_pair_suppress_neutral_gives_bare_text(self, runner, tmp_path):
        manifest_path = build_e2e_corpus(tmp_path, n_syntagms=2)
        data = json.loads(manifest_path.read_text())
        pair = data["pairs"][0]
        pair["synthetic_wav"] = pair["natural_wav"]
        pair["textgrid_syn"] = pair["textgrid_nat"]
        manifest_path.write_text(json.dumps(data), encoding="utf-8")
        result = runner.invoke(
            main, ["annotate", str(manifest_path), "--jobs", "1", "--suppress-neutral"]
        )
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "out" / "pair00.ssml").read_text().strip().splitlines()
        assert "<prosody" not in lines[-1]  # last syntagm: no markup at all

    def test_config_file_and_env(self, runner, tmp_path, monkeypatch):
        manifest = build_e2e_corpus(tmp_path, n_syntagms=2)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("volume_clip_pct = 7.5\n# comment\n", encoding="utf-8")
        monkeypatch.setenv("PROSODIKA_CONFIG", str(cfg))
        result = runner.invoke(main, ["annotate", str(manifest), "--jobs", "1"])
        assert result.exit_code == 0, result.output
        log = (tmp_path / "out" / "pair00.log").read_text()
        assert "volume_clip_pct = 7.5" in log

    def test_lexicon_override_merges_syntagms(self, runner, tmp_path):
        # a lexicon containing the pre-pause word folds that pause away,
        # collapsing the stream into a single syntagm on both tracks
        manifest = build_e2e_corpus(tmp_path, n_syntagms=2)
        lex = tmp_path / "lex.txt"
        lex.write_text("mot3\n", encoding="utf-8")
        result = runner.invoke(
            main, ["annotate", str(manifest), "--jobs", "1", "--lexicon", str(lex)]
        )
        assert result.exit_code == 0, result.output
        recs = (tmp_path / "out" / "pair00.deltas.jsonl").read_text().strip().splitlines()
        assert len(recs) == 1
        assert json.loads(recs[0])["word_count"] == 6


class TestScore:
    def test_self_score_zero(self, runner, annotated, tmp_path):
        ssml_path = annotated / "out" / "pair00.ssml"
        report = tmp_path / "report.json"
        result = runner.invoke(
            main, ["score", str(ssml_path), str(ssml_path), "-o", str(report)]
        )
        assert result.exit_code == 0, result.output
        data = json.loads(report.read_text())
        for stats in data["attribute_errors"].values():
            assert stats["mae"] == 0.0 and stats["rmse"] == 0.0

    def test_against_analytic_gold_zero_mae(self, runner, annotated, tmp_path):
        gold = tmp_path / "gold.ssml"
        gold.write_text("\n".join(expected_gold_lines(6)) + "\n", encoding="utf-8")
        pred = annotated / "out" / "pair00.ssml"
        report = tmp_path / "report.json"
        result = runner.invoke(main, ["score", str(pred), str(gold), "-o", str(report)])
        assert result.exit_code == 0, result.output
        data = json.loads(report.read_text())
        for stats in data["attribute_errors"].values():
            assert stats["mae"] == 0.0 and stats["rmse"] == 0.0

    def test_known_injected_errors(self, runner, tmp_path):
        base = [("un", ProsodyDelta(1.0, 0.0, 0.0, 100)), ("deux", ProsodyDelta(3.0, 0.0, 0.0, 200))]
        gold_lines = [emit([s]) for s in base]
        pred_lines = [
            emit([("un", ProsodyDelta(2.0, 0.0, 0.0, 150))]),
            emit([("deux", ProsodyDelta(2.0, 0.0, 0.0, 150))]),
        ]
        (tmp_path / "gold.ssml").write_text("\n".join(gold_lines), encoding="utf-8")
        (tmp_path / "pred.ssml").write_text("\n".join(pred_lines), encoding="utf-8")
        report = tmp_path / "r.json"
        result = runner.invoke(
            main,
            ["score", str(tmp_path / "pred.ssml"), str(tmp_path / "gold.ssml"), "-o", str(report)],
        )
        assert result.exit_code == 0, result.output
        data = json.loads(report.read_text())
        assert data["attribute_errors"]["pitch_pct"]["mae"] == pytest.approx(1.0)
        assert data["attribute_errors"]["break_ms"]["mae"] == pytest.approx(50.0)

    def test_missing_segment_exit_4(self, runner, annotated, tmp_path):
        pred = tmp_path / "pred.ssml"
        lines = (annotated / "out" / "pair00.ssml").read_text().strip().splitlines()
        pred.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        result = runner.invoke(
            main, ["score", str(pred), str(annotated / "out" / "pair00.ssml")]
        )
        assert result.exit_code == 4

    def test_break_prediction_scoring(self, runner, annotated, tmp_path):
        ssml_path = annotated / "out" / "pair00.ssml"
        pred_breaks = tmp_path / "pred.json"
        gold_breaks = tmp_path / "gold.json"
        pred_breaks.write_text(
            json.dumps(
                {"word_count": 6, "positions": [2, 4], "probabilities": [0.1, 0.2, 0.9, 0.1, 0.8, 0.2]}
            ),
            encoding="utf-8",
        )
        gold_breaks.write_text(
            json.dumps({"word_count": 6, "positions": [2, 5]}), encoding="utf-8"
        )
        result = runner.invoke(
            main,
            [
                "score", str(ssml_path), str(ssml_path),
                "--pred-breaks", str(pred_breaks), "--gold-breaks", str(gold_breaks),
            ],
        )
        assert result.exit_code == 0, result.output
        assert "break F1: 0.5000" in result.output
        assert "perplexity" in result.output

    def test_arr_scoring(self, runner, annotated, tmp_path):
        ssml_path = annotated / "out" / "pair00.ssml"
        pred_t = tmp_path / "pred_t.json"
        gold_t = tmp_path / "gold_t.json"
        gold_t.write_text(json.dumps([0.0, 500.0, 1200.0]), encoding="utf-8")
        pred_t.write_text(json.dumps([10.0, 620.0, 1210.0]), encoding="utf-8")
        result = runner.invoke(
            main,
            [
                "score", str(ssml_path), str(ssml_path),
                "--pred-timings", str(pred_t), "--gold-timings", str(gold_t),
                "--tau-ms", "50", "--window-s", "15",
            ],
        )
        assert result.exit_code == 0, result.output
        assert "ARR" in result.output
        assert "0.6667" in result.output


class TestStats:
    def test_stats_report(self, runner, annotated, tmp_path):
        deltas = annotated / "out" / "pair00.deltas.jsonl"
        out = tmp_path / "stats.json"
        csv = tmp_path / "hist.csv"
        result = runner.invoke(
            main, ["stats", str(deltas), "-o", str(out), "--histogram-csv", str(csv)]
        )
        assert result.exit_code == 0, result.output
        data = json.loads(out.read_text())
        assert data["totals"]["speakers"] == 1
        assert data["totals"]["prosody_tags"] == 6
        assert data["totals"]["break_tags"] == 5
        assert data["totals"]["total_words"] == 18
        assert data["distributions"]["break_ms"]["median"] == 400.0
        assert csv.read_text().startswith("attribute,bin_lo,bin_hi,count")

    def test_quartile_fixture(self, runner, tmp_path):
        rows = [
            {"text": "a", "pitch_pct": 0, "rate_pct": 0, "volume_pct": 0, "break_ms": b, "flags": []}
            for b in (250, 400, 500)
        ]
        p = tmp_path / "d.jsonl"
        p.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
        out = tmp_path / "s.json"
        result = runner.invoke(main, ["stats", str(p), "-o", str(out)])
        assert result.exit_code == 0, result.output
        dist = json.loads(out.read_text())["distributions"]["break_ms"]
        assert dist["median"] == 400.0
        assert dist["q1"] == 250.0 and dist["q3"] == 500.0

    def test_empty_exit_5(self, runner, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("", encoding="utf-8")
        result = runner.invoke(main, ["stats", str(p)])
        assert result.exit_code == 5

    def test_exclude_injected_breaks(self, runner, tmp_path):
        rows = [
            {"text": "a", "pitch_pct": 0, "rate_pct": 0, "volume_pct": 0,
             "break_ms": 250, "flags": []},
            {"text": "b.", "pitch_pct": 0, "rate_pct": 0, "volume_pct": 0,
             "break_ms": 500, "flags": ["injected-break"]},
            {"text": "c", "pitch_pct": 0, "rate_pct": 0, "volume_pct": 0,
             "break_ms": 350, "flags": []},
        ]
        p = tmp_path / "d.jsonl"
        p.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
        out = tmp_path / "s.json"
        result = runner.invoke(
            main, ["stats", str(p), "-o", str(out), "--exclude-injected-breaks"]
        )
        assert result.exit_code == 0, result.output
        dist = json.loads(out.read_text())["distributions"]["break_ms"]
        assert dist["max"] == 350.0  # the injected 500 ms pause is excluded


class TestCensusAndValidate:
    def test_census(self, runner, annotated):
        ssml_path = annotated / "out" / "pair00.ssml"
        result = runner.invoke(main, ["census", str(ssml_path)])
        assert result.exit_code == 0, result.output
        assert "segments: 6" in result.output
        assert "prosody tags: 6" in result.output

    def test_validate_clean(self, runner, annotated):
        ssml_path = annotated / "out" / "pair00.ssml"
        result = runner.invoke(main, ["validate-ssml", str(ssml_path)])
        assert result.exit_code == 0
        assert "ok" in result.output

    def test_validate_flags_violation(self, runner, tmp_path):
        p = tmp_path / "bad.ssml"
        p.write_text('<prosody volume="+40.00%">mot</prosody>\n', encoding="utf-8")
        result = runner.invoke(main, ["validate-ssml", str(p)])
        assert result.exit_code == 3
        assert "volume-out-of-range" in result.output

    def test_validate_parse_error(self, runner, tmp_path):
        p = tmp_path / "broken.ssml"
        p.write_text("<prosody>oops\n", encoding="utf-8")
        result = runner.invoke(main, ["validate-ssml", str(p)])
        assert result.exit_code == 3

    def test_validate_respects_config_bounds(self, runner, tmp_path):
        p = tmp_path / "wide.ssml"
        p.write_text('<prosody volume="+12.00%">mot</prosody>\n', encoding="utf-8")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("volume_clip_pct = 15\n", encoding="utf-8")
        assert runner.invoke(main, ["validate-ssml", str(p)]).exit_code == 3
        result = runner.invoke(main, ["validate-ssml", str(p), "--config", str(cfg)])
        assert result.exit_code == 0, result.output
