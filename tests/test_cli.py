import hashlib
import importlib
import json
import multiprocessing
import os
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import prosodika
from prosodika import cli, pipeline
from prosodika.cli import main
from prosodika.prosody import PipelineConfig, ProsodyDelta, delta_record, deltas_to_jsonl
from prosodika.ssml import EmitOptions, emit
from prosodika.syntagms import FunctionWordLexicon

from conftest import (
    EXPECTED_PITCH_PCT,
    EXPECTED_RATE_PCT,
    EXPECTED_VOLUME_PCT,
    NAT_DBFS,
    NAT_F0,
    NAT_PAUSE_MS,
    NAT_WORD_S,
    SYN_DBFS,
    SYN_F0,
    SYN_PAUSE_MS,
    SYN_WORD_S,
    CliRunner,
    build_e2e_corpus,
    build_voice_track,
    long_textgrid,
    tone,
    write_wav_int16,
    write_wav_raw,
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

    @pytest.mark.parametrize("flags,name", [([], '"fr-FR-HenriNeural"'),
                                            (["--voice", "a\tb"], '"a&#9;b"')])
    def test_full_document_wraps_each_line(self, runner, tmp_path, flags, name):
        manifest = build_e2e_corpus(tmp_path, n_syntagms=3)
        ssml_path = tmp_path / "out" / "pair00.ssml"
        assert runner.invoke(main, ["annotate", str(manifest)]).exit_code == 0
        bare = ssml_path.read_text(encoding="utf-8").splitlines()
        result = runner.invoke(main, ["annotate", str(manifest), "--full-document", *flags])
        assert result.exit_code == 0, result.output
        head = ('<speak version="1.0" xmlns="http://www.w3.org/2001/10/synthesis" '
                'xmlns:mstts="https://www.w3.org/2001/mstts" xml:lang="fr-FR">')
        assert ssml_path.read_text(encoding="utf-8").splitlines() == [
            f"{head}<voice name={name}>{line}</voice></speak>" for line in bare]

    def test_silent_natural_voice_is_flagged_not_failed(self, runner, tmp_path):
        # the natural WAV lasts as long as its grid, 6.7 s, but falls silent
        # after 0.5 s: every syntagm has no f0 frame and no loudness
        manifest = build_e2e_corpus(tmp_path, n_syntagms=4)
        audio, _ = build_voice_track(4, NAT_F0, NAT_DBFS, NAT_WORD_S, NAT_PAUSE_MS)
        audio[8000:] = 0.0
        write_wav_int16(tmp_path / "nat.wav", audio, 16000)
        result = runner.invoke(main, ["annotate", str(manifest), "--jobs", "1"])
        assert result.exit_code == 0, result.output
        assert result.output == "pair00: 4 syntagms in 1 segments (4 flagged)\n"
        recs = [json.loads(line)
                for line in (tmp_path / "out" / "pair00.deltas.jsonl").read_text().splitlines()]
        assert [(r["start_ms"], r["end_ms"], r["break_ms"]) for r in recs] == [
            (700, 1900, 400), (2300, 3500, 400), (3900, 5100, 400), (5500, 6700, 0)]
        for rec in recs:
            assert rec["flags"] == ["no-pitch", "no-loudness"]
            assert (rec["pitch_pct"], rec["rate_pct"], rec["volume_pct"]) == (0.0, 5.0, 0.0)
            assert rec["segment"] == 0
        neutral = '<prosody pitch="+0.00%" rate="+5.00%" volume="+0.00%">'
        assert (tmp_path / "out" / "pair00.ssml").read_text() == (
            f'{neutral}mot1 mot2 mot3</prosody><break time="400ms"/>'
            f'{neutral}mot4 mot5 mot6</prosody><break time="400ms"/>'
            f'{neutral}mot7 mot8 mot9</prosody><break time="400ms"/>'
            f'{neutral}mot10 mot11 mot12</prosody><break time="0ms"/>\n')

    @pytest.mark.parametrize("voice", ["nat", "syn"])
    def test_grid_past_its_audio_fails_the_pair(self, runner, tmp_path, voice):
        # the grid runs to 6.7 s (natural) or 8.1 s (synthetic), its WAV stops at 0.5 s
        manifest = build_e2e_corpus(tmp_path, n_syntagms=4)
        audio, intervals = (build_voice_track(4, NAT_F0, NAT_DBFS, NAT_WORD_S, NAT_PAUSE_MS)
                            if voice == "nat" else
                            build_voice_track(4, SYN_F0, SYN_DBFS, SYN_WORD_S, SYN_PAUSE_MS))
        write_wav_int16(tmp_path / f"{voice}.wav", audio[:8000], 16000)
        result = runner.invoke(main, ["annotate", str(manifest), "--jobs", "1"])
        assert result.exit_code == 3, result.output
        assert result.output == (
            f"pair00: FAILED ({tmp_path / f'{voice}.TextGrid'}: the last word ends at "
            f"{intervals[-1][1]:.3f} s, past the end of {tmp_path / f'{voice}.wav'} "
            f"at 0.500 s)\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cut, code", [(320, 0), (321, 3)])
    def test_grid_may_end_20_ms_past_its_audio(self, runner, tmp_path, cut, code):
        # at 16 kHz, 320 samples are 20 ms: the grid ends exactly that far past
        # the audio, then one sample (0.0625 ms) farther
        manifest = build_e2e_corpus(tmp_path, n_syntagms=2)
        audio, _ = build_voice_track(2, NAT_F0, NAT_DBFS, NAT_WORD_S, NAT_PAUSE_MS)
        write_wav_int16(tmp_path / "nat.wav", audio[:-cut], 16000)
        result = runner.invoke(main, ["annotate", str(manifest), "--jobs", "1"])
        assert result.exit_code == code, result.output

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

    def test_jobs_default_to_the_cpus_the_process_may_run_on(self, runner, tmp_path,
                                                             monkeypatch):
        manifest, _ = two_pairs_one_bad_grid(tmp_path)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(cli, "_make_pool", None)  # one CPU: no pool
        result = runner.invoke(main, ["annotate", str(manifest)])
        assert result.exit_code == 3, result.output
        assert "pair00: 5 syntagms" in result.output

    def test_pool_starts_workers_by_fork_where_the_platform_can(self):
        if "fork" in multiprocessing.get_all_start_methods():
            assert cli._pool_context().get_start_method() == "fork"
        else:
            assert cli._pool_context() is multiprocessing.get_context()

    @pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
    def test_bad_grid_isolated_under_every_start_method(self, runner, tmp_path, monkeypatch,
                                                         method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        manifest, line = two_pairs_one_bad_grid(tmp_path)
        monkeypatch.setattr(cli, "_pool_context", lambda: multiprocessing.get_context(method))
        runs = {}
        for jobs in ("1", "2"):  # one job runs the pairs in this process, two in a pool
            shutil.rmtree(tmp_path / "out", ignore_errors=True)
            result = runner.invoke(main, ["annotate", str(manifest), "--jobs", jobs])
            assert result.exit_code == 3, result.output
            (failed,) = [x for x in result.output.splitlines() if x.startswith("bad: FAILED")]
            assert failed.startswith(f"bad: FAILED (line {line}: ")
            assert not (tmp_path / "out" / "bad.ssml").exists()
            runs[jobs] = failed, {suffix: (tmp_path / "out" / f"pair00{suffix}").read_bytes()
                                  for suffix in (".deltas.jsonl", ".ssml", ".log")}
        assert runs["2"] == runs["1"]

    @pytest.mark.parametrize("affinity, count, expected",
                             [({0, 3}, 8, 2), (None, 8, 8), (None, None, 1)])
    def test_usable_cpus(self, monkeypatch, affinity, count, expected):
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        if affinity is None:  # a platform without affinity masks
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        assert cli._usable_cpus() == expected

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failures_name_the_file_at_fault(self, runner, tmp_path, jobs):
        manifest, line = two_pairs_one_bad_grid(tmp_path)
        data = json.loads(manifest.read_text())
        write_wav_int16(tmp_path / "low.wav", tone(200.0, 1.0, 4000), 4000)
        data["pairs"].append(dict(data["pairs"][0], name="low", synthetic_wav="low.wav"))
        manifest.write_text(json.dumps(data), encoding="utf-8")
        result = runner.invoke(main, ["annotate", str(manifest), "--jobs", jobs])
        assert result.exit_code == 3
        assert f"bad: FAILED (line {line}: {tmp_path / 'broken.TextGrid'}: " in result.output
        assert (f"low: FAILED ({tmp_path / 'low.wav'}: source rate 4000 Hz below 8 kHz minimum)"
                in result.output)
        assert "pair00: 5 syntagms" in result.output

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

    def test_report_path_that_is_a_directory_exits_2_and_leaves_nothing(
            self, runner, annotated, tmp_path):
        ssml_path = annotated / "out" / "pair00.ssml"
        report = tmp_path / "report.json"
        report.mkdir()
        result = runner.invoke(main, ["score", str(ssml_path), str(ssml_path), "-o", str(report)])
        assert result.exit_code == 2, result.output
        assert "report.json" in result.output
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_missing_segment_exit_4(self, runner, annotated, tmp_path):
        pred = tmp_path / "pred.ssml"
        lines = (annotated / "out" / "pair00.ssml").read_text().strip().splitlines()
        pred.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        result = runner.invoke(
            main, ["score", str(pred), str(annotated / "out" / "pair00.ssml")]
        )
        assert result.exit_code == 4
        # one segment each, whose syntagm counts differ
        pred.write_text(emit([("a", ProsodyDelta(0.0, 0.0, 0.0, 0))]) + "\n", encoding="utf-8")
        gold = _write(tmp_path / "gold.ssml", emit([("a", ProsodyDelta(0.0, 0.0, 0.0, 0)),
                                                    ("b", ProsodyDelta(0.0, 0.0, 0.0, 0))]))
        result = runner.invoke(main, ["score", str(pred), gold])
        assert result.exit_code == 4
        assert result.stderr == "error: segment 0: syntagm counts differ: 1 vs 2\n"

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

    def test_stats_outputs_are_pinned(self, runner, annotated, tmp_path):
        # sha256 of what stats wrote on this corpus when numpy computed the summaries
        deltas = annotated / "out" / "pair00.deltas.jsonl"
        out, csv = tmp_path / "stats.json", tmp_path / "hist.csv"
        result = runner.invoke(
            main, ["stats", str(deltas), "-o", str(out), "--histogram-csv", str(csv)]
        )
        assert result.exit_code == 0, result.output
        digests = [hashlib.sha256(b).hexdigest()[:16] for b in
                   (result.output.encode(), out.read_bytes(), csv.read_bytes())]
        assert digests == ["41a0225aa1eb715e", "0f22b0150915faa3", "cce440a6a2937146"]

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

        # every break injected: no break distribution at all
        p.write_text(json.dumps(rows[1]), encoding="utf-8")
        csv = tmp_path / "h.csv"
        result = runner.invoke(main, ["stats", str(p), "-o", str(out), "--histogram-csv",
                                      str(csv), "--exclude-injected-breaks"])
        assert result.exit_code == 0, result.output
        assert set(json.loads(out.read_text())["distributions"]) == {
            "pitch_pct", "rate_pct", "volume_pct"}
        assert "break_ms" not in csv.read_text()

    @pytest.mark.parametrize("values, message", [
        ([-1.7e308, 1.7e308],
         "Too many bins for data range. Cannot create 20 finite-sized bins."),
        ([0, 1.7e308, 1.7e308, 1.7e308],  # the two middle values' sum overflows
         "the median is inf, not a finite number"),
    ], ids=["span-overflows", "median-overflows"])
    def test_unsummarizable_distribution_names_its_key(self, runner, tmp_path, values, message):
        p = tmp_path / "d.jsonl"
        p.write_text(deltas_to_jsonl(
            [delta_record("a", ProsodyDelta(v, 0.0, 0.0, 0)) for v in values]), encoding="utf-8")
        out = tmp_path / "s.json"
        result = runner.invoke(main, ["stats", str(p), "-o", str(out)])
        assert result.exit_code == 3, result.output
        assert result.output.splitlines()[-1] == f"error: pitch_pct: {message}"
        assert not out.exists()

    def test_text_with_line_separator(self, runner, tmp_path):
        # only \n, \r\n and \r end a record: json.dumps keeps U+2028 as it is
        rec = delta_record("a\u2028b", ProsodyDelta(1.0, 2.0, 3.0, 250))
        p = tmp_path / "d.jsonl"
        p.write_text(deltas_to_jsonl([rec]), encoding="utf-8")
        out = tmp_path / "s.json"
        result = runner.invoke(main, ["stats", str(p), "-o", str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text())["totals"]["total_characters"] == 3


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

    def test_validate_reports_files_after_a_missing_one(self, runner, tmp_path):
        missing, good = tmp_path / "missing.ssml", tmp_path / "good.ssml"
        good.write_text('<prosody pitch="+1.00%">mot</prosody>\n', encoding="utf-8")
        result = runner.invoke(main, ["validate-ssml", str(missing), str(good)])
        assert result.exit_code == 2
        assert result.stdout == f"{good}: ok\n"
        errors = result.stderr.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: ")
        assert "missing.ssml" in errors[0]

    def test_validate_respects_config_bounds(self, runner, tmp_path):
        p = tmp_path / "wide.ssml"
        p.write_text('<prosody volume="+12.00%">mot</prosody>\n', encoding="utf-8")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("volume_clip_pct = 15\n", encoding="utf-8")
        assert runner.invoke(main, ["validate-ssml", str(p)]).exit_code == 3
        result = runner.invoke(main, ["validate-ssml", str(p), "--config", str(cfg)])
        assert result.exit_code == 0, result.output

    def test_validate_reads_config_env(self, runner, tmp_path, monkeypatch):
        p = tmp_path / "wide.ssml"
        p.write_text('<prosody volume="+12.00%">mot</prosody>\n', encoding="utf-8")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("volume_clip_pct = 15\n", encoding="utf-8")
        monkeypatch.setenv("PROSODIKA_CONFIG", str(cfg))
        assert runner.invoke(main, ["validate-ssml", str(p)]).exit_code == 0
        monkeypatch.setenv("PROSODIKA_CONFIG", "")  # reads as unset: the default clip range
        assert runner.invoke(main, ["validate-ssml", str(p)]).exit_code == 3
        monkeypatch.setenv("PROSODIKA_CONFIG", str(tmp_path / "missing.cfg"))
        assert runner.invoke(main, ["validate-ssml", str(p)]).exit_code == 2
        result = runner.invoke(main, ["validate-ssml", str(p), "--config", str(cfg)])
        assert result.exit_code == 0, result.output

    def test_config_comment_holding_line_separator(self, runner, tmp_path):
        p = tmp_path / "wide.ssml"
        p.write_text('<prosody volume="+12.00%">mot</prosody>\n', encoding="utf-8")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("volume_clip_pct = 15  # a\u2028b\n", encoding="utf-8")
        result = runner.invoke(main, ["validate-ssml", str(p), "--config", str(cfg)])
        assert result.exit_code == 0, result.output


def test_validate_into_a_closed_pipe_exits_2(tmp_path):
    """More than a pipe buffer of output, to a reader that has gone: one error
    line and exit 2, with no 'Exception ignored' as the interpreter exits."""
    doc = _ssml_doc(tmp_path)
    src = str(Path(prosodika.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.getenv("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        args = [sys.executable, "-m", "prosodika.cli", "validate-ssml"] + [doc] * 2000
        done = subprocess.run(args, stdout=write_end, stderr=subprocess.PIPE, timeout=120,
                              env=dict(os.environ, PYTHONPATH=path))
    finally:
        os.close(write_end)
    assert len(f"{doc}: ok\n") * 2000 > 65536
    assert done.returncode == 2
    assert done.stderr.decode().splitlines() == ["error: [Errno 32] Broken pipe"]


def _write(path, content):
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    return str(path)


def _ssml_doc(root):
    return _write(root / "doc.ssml", emit([("un deux", ProsodyDelta(1.0, 0.0, 0.0, 100))]) + "\n")


GOOD_SIDE = {"breaks": '{"word_count": 2, "positions": [1]}', "timings": "[0.0, 300.0]"}
NOT_UTF8 = b"<prosody>caf\xe9</prosody>\n"
DEEP_JSON = "[" * 100_000


def _score_side(kind, pred, gold=None):
    """score with a malformed predicted breaks or timings file."""
    def build(root):
        doc = _ssml_doc(root)
        bad = _write(root / f"pred-{kind}.json", pred)
        good = _write(root / f"gold-{kind}.json", GOOD_SIDE[kind] if gold is None else gold)
        return ["score", doc, doc, f"--pred-{kind}", bad, f"--gold-{kind}", good], bad
    return build


# bad JSON numbers, as the error shows them (a repr cut at 40 characters)
BAD_JSON_NUMBERS = [("true", "True"), ("NaN", "nan"), ("1e400", "inf"),
                    ("1" + "0" * 400, "1" + "0" * 39), ('"x"', "'x'")]


@pytest.mark.parametrize("raw,shown", BAD_JSON_NUMBERS, ids=[r[0][:5] for r in BAD_JSON_NUMBERS])
@pytest.mark.parametrize("kind,template,what", [
    ("timings", "[0.0, {bad}, NaN]", "'word start time' must be a number"),
    ("breaks", '{{"word_count": 2, "positions": [1, {bad}, "y"]}}',
     "'positions' must be an integer"),
    ("breaks", '{{"word_count": 2, "positions": [1], "probabilities": [0.5, {bad}]}}',
     "'probabilities' must be a number"),
], ids=["timings", "positions", "probabilities"])
def test_score_names_the_first_bad_json_number(runner, tmp_path, kind, template, what, raw,
                                               shown):
    args, bad = _score_side(kind, template.format(bad=raw))(tmp_path)
    result = runner.invoke(main, args)
    assert result.exit_code == 3
    assert result.output.splitlines()[-1] == f"error: {bad}: {what}, got {shown}"


@pytest.mark.parametrize("kind,text,message", [
    ("timings", "[0.0, -1]", None),
    ("breaks", '{"word_count": 2, "positions": [-1]}',
     "break positions must lie in [0, word_count)"),
    ("breaks", '{"word_count": 2, "positions": [1], "probabilities": [0.5, -1]}',
     "probabilities must lie in [0, 1]"),
])
def test_score_negative_json_numbers(runner, tmp_path, kind, text, message):
    args, bad = _score_side(kind, text)(tmp_path)
    result = runner.invoke(main, args)
    assert result.exit_code == (0 if message is None else 3), result.output
    if message is not None:
        assert result.output.splitlines()[-1] == f"error: {bad}: {message}"


def _stats(line):
    def build(root):
        good = json.dumps({"text": "a", "pitch_pct": 0, "rate_pct": 0, "volume_pct": 0,
                           "break_ms": 250, "flags": []})
        path = _write(root / "d.jsonl", f"{good}\n{line}\n")
        return ["stats", path], path
    return build


def _not_utf8(command):
    def build(root):
        path = _write(root / "latin1.ssml", NOT_UTF8)
        args = [path, path] if command == "score" else [path]
        return [command, *args], path
    return build


def _validate_missing_config(root):
    missing = str(root / "no-such.cfg")
    return ["validate-ssml", _ssml_doc(root), "--config", missing], missing


def _validate_config_without_equals(root):
    config = _write(root / "c.cfg", "# a comment\nvolume_clip_pct 10\n")
    return ["validate-ssml", _ssml_doc(root), "--config", config], config


def _validate_config(text, named):
    """validate-ssml with a config file holding ``text``; the error names ``named``."""
    def build(root):
        config = _write(root / "c.cfg", text)
        return ["validate-ssml", _ssml_doc(root), "--config", config], named
    return build


def _no_files(command):
    return lambda root: ([command], "no SSML files given")


def _manifest(pairs, corpus=False):
    def build(root):
        entries = pairs
        if corpus:
            base = json.loads(build_e2e_corpus(root, n_syntagms=2).read_text())["pairs"][0]
            entries = [dict(base, **p) for p in pairs]
        path = _write(root / "job.json", json.dumps({"output_dir": "out", "pairs": entries}))
        return ["annotate", path, "--jobs", "2"], path
    return build


def _manifest_config(config, named=None):
    """annotate with manifest config overrides; the error names ``named``, or else
    the manifest."""
    def build(root):
        data = json.loads(build_e2e_corpus(root, n_syntagms=2).read_text())
        path = _write(root / "job.json", json.dumps(dict(data, config=config)))
        return ["annotate", path, "--jobs", "1"], named or path
    return build


def _config_file(text, named):
    """annotate with a config file holding ``text``; the error names ``named``."""
    def build(root):
        config = _write(root / "c.cfg", text)
        return ["annotate", str(build_e2e_corpus(root, n_syntagms=2)), "--config", config], named
    return build


def _manifest_unknown_key(key, in_pair):
    """annotate a two-pair manifest that holds ``key`` at its top level or in
    its second pair; a typo such as 'word_tier' or 'confg' would otherwise run
    the default tier or config."""
    def build(root):
        data = json.loads(build_e2e_corpus(root, n_syntagms=2).read_text())
        data["pairs"].append(dict(data["pairs"][0], name="second"))
        (data["pairs"][1] if in_pair else data)[key] = "words"
        named = (f"pair 1 has unknown keys ['{key}']" if in_pair
                 else f"unknown manifest keys ['{key}']")
        return ["annotate", _write(root / "job.json", json.dumps(data))], named
    return build


def _voice_alone(root):
    return ["annotate", str(build_e2e_corpus(root, n_syntagms=2)), "--voice", "x"], \
        "--full-document"


def _bad_grid(content=None, words_tier=None):
    """annotate a pair whose natural TextGrid holds ``content`` (bytes) or
    whose manifest picks the tier ``words_tier``; the pair's FAILED line must
    name the grid."""
    def build(root):
        data = json.loads(build_e2e_corpus(root, n_syntagms=2).read_text())
        grid = root / "nat.TextGrid"
        if content is not None:
            grid.write_bytes(content)
        if words_tier is not None:
            data["pairs"][0]["words_tier"] = words_tier
        return ["annotate", _write(root / "job.json", json.dumps(data))], str(grid)
    return build


def _missing_manifest(root):
    missing = str(root / "no-such-job.json")
    return ["annotate", missing], missing


def _score_option(option, value):
    """score with a bad ARR option value, which the argument parser reports."""
    def build(root):
        doc = _ssml_doc(root)
        timings = _write(root / "timings.json", GOOD_SIDE["timings"])
        return ["score", doc, doc, "--pred-timings", timings, "--gold-timings", timings,
                option, value], option
    return build


def _score_unpaired(given, missing):
    """score with one option of a pred/gold pair, naming a file that does not exist."""
    def build(root):
        doc = _ssml_doc(root)
        return ["score", doc, doc, given, str(root / "no-such.json")], missing
    return build


def _deep_manifest(root):
    path = _write(root / "job.json", '{"output_dir": "out", "pairs": ' + DEEP_JSON)
    return ["annotate", path], path


def _deep_ssml(command):
    def build(root):
        path = _write(root / "deep.ssml", "<a>" * 5000 + "mot" + "</a>" * 5000 + "\n")
        return [command, path], path
    return build


def _bad_third_line(command):
    """An SSML corpus whose third line, after a blank one, does not parse."""
    def build(root):
        path = _write(root / "bad.ssml",
                      '<break time="1ms"/>\n\n<prosody pitch="x">mot</prosody>\n')
        args = [path, path] if command == "score" else [path]
        return [command, *args], f"{path}: line 3, offset 0: non-numeric pitch value 'x'"
    return build


def _huge_pitch(root):
    """score of a corpus whose pitch percent does not fit in a float."""
    raw = "9" * 400 + "%"
    path = _write(root / "huge.ssml", f'<prosody pitch="{raw}">mot</prosody>\n')
    return ["score", path, path], f"{path}: line 1, offset 0: pitch value '{raw}' is too large"


def _wav(data: bytes, rate=16000):
    """segment on a 16-bit mono WAV holding ``data``."""
    def build(root):
        path = root / "x.wav"
        write_wav_raw(path, data, rate, channels=1, bits=16)
        return ["segment", str(path)], str(path)
    return build


def _jobs(value, n_pairs):
    """annotate ``n_pairs`` pairs with a bad --jobs, which the argument parser reports."""
    def build(root):
        data = json.loads(build_e2e_corpus(root, n_syntagms=2).read_text())
        data["pairs"] = [dict(data["pairs"][0], name=f"p{i}") for i in range(n_pairs)]
        path = _write(root / "job.json", json.dumps(data))
        return ["annotate", path, "--jobs", value], "--jobs"
    return build


def _segment_option(option, value):
    """segment of a tone with a bad option value, which the argument parser reports."""
    def build(root):
        path = root / "x.wav"
        write_wav_int16(path, tone(200, 1.0, 16000), 16000)
        return ["segment", str(path), option, value], option
    return build


# (id, function of a tmp dir giving (argv, the file or option the error must name),
# exit code)
CONTRACT_ROWS = [
    ("breaks-without-word-count", _score_side("breaks", '{"positions": [1]}'), 3),
    ("breaks-positions-not-a-list", _score_side("breaks", '{"word_count": 2, "positions": 1}'),
     3),
    ("breaks-invalid-json", _score_side("breaks", '{"word_count": 2,'), 3),
    ("breaks-position-past-end", _score_side("breaks", '{"word_count": 2, "positions": [2]}'), 3),
    ("breaks-probability-count", _score_side(
        "breaks", '{"word_count": 2, "positions": [1], "probabilities": [0.5]}'), 3),
    ("timings-object", _score_side("timings", '{"a": 1}'), 3),
    ("timings-string-item", _score_side("timings", '[0.0, "x"]'), 3),
    ("timings-empty-lists", _score_side("timings", "[]", gold="[]"), 3),
    ("stats-pitch-string", _stats('{"pitch_pct": "x", "rate_pct": 0, "volume_pct": 0, '
                                  '"break_ms": 0}'), 3),
    ("stats-break-string", _stats('{"pitch_pct": 0, "rate_pct": 0, "volume_pct": 0, '
                                  '"break_ms": "zz"}'), 3),
    ("stats-bare-number", _stats("5"), 3),
    ("stats-missing-break", _stats('{"pitch_pct": 0, "rate_pct": 0, "volume_pct": 0}'), 3),
    ("census-no-files", _no_files("census"), 5),
    ("validate-no-files", _no_files("validate-ssml"), 5),
    ("census-not-utf8", _not_utf8("census"), 3),
    ("score-not-utf8", _not_utf8("score"), 3),
    ("validate-not-utf8", _not_utf8("validate-ssml"), 3),
    ("validate-missing-config", _validate_missing_config, 2),
    ("validate-config-without-equals", _validate_config_without_equals, 3),
    ("validate-config-pitch-clip-overflows",
     _validate_config("pitch_clip_semitones = 1e6\n", "pitch_clip_semitones"), 3),
    ("annotate-pair-not-object", _manifest([5]), 3),
    ("annotate-duplicate-names", _manifest([{"name": "p"}, {"name": "p"}], corpus=True), 3),
    ("annotate-names-one-path", _manifest([{"name": "b"}, {"name": "./b"}], corpus=True), 3),
    ("annotate-names-one-path-via-parent",
     _manifest([{"name": "b"}, {"name": "x/../b"}], corpus=True), 3),
    ("annotate-dirs-one-path",
     _manifest([{"name": "x/b"}, {"name": "b", "output_dir": "out/x"}], corpus=True), 3),
    ("annotate-missing-manifest", _missing_manifest, 2),
    ("annotate-path-not-string", _manifest([{"natural_wav": 5}], corpus=True), 3),
    ("annotate-config-value-null", _manifest_config({"volume_clip_pct": None}), 3),
    ("annotate-config-value-nan", _manifest_config({"volume_clip_pct": "nan"}), 3),
    ("annotate-config-int-given-float", _manifest_config({"baseline_window": 2.7},
                                                         "baseline_window"), 3),
    ("annotate-config-value-bool", _manifest_config({"smoothing_alpha": True},
                                                    "smoothing_alpha"), 3),
    ("annotate-config-negative-slowdown-gain", _manifest_config({"slowdown_gain": -1},
                                                               "slowdown_gain"), 3),
    ("annotate-config-negative-speedup-gain", _manifest_config({"speedup_gain": -0.5},
                                                              "speedup_gain"), 3),
    ("annotate-config-negative-long-syntagm", _manifest_config({"long_syntagm_s": -1e-9},
                                                              "long_syntagm_s"), 3),
    ("annotate-config-file-negative-slowdown-gain",
     _config_file("slowdown_gain = -1\n", "slowdown_gain"), 3),
    ("annotate-config-file-negative-speedup-gain",
     _config_file("speedup_gain = -0.5\n", "speedup_gain"), 3),
    ("annotate-config-file-negative-long-syntagm",
     _config_file("long_syntagm_s = -1\n", "long_syntagm_s"), 3),
    ("annotate-manifest-unknown-key", _manifest_unknown_key("confg", in_pair=False), 3),
    ("annotate-pair-unknown-key", _manifest_unknown_key("word_tier", in_pair=True), 3),
    ("annotate-voice-without-full-document", _voice_alone, 2),
    ("annotate-grid-bad-utf8-after-bom", _bad_grid(b"\xef\xbb\xbf" + long_textgrid(
        [(0.0, 1.0, "caf\xe9")]).encode("latin-1")), 3),
    ("annotate-grid-no-tiers", _bad_grid(long_textgrid([(0.0, 1.0, "a")])
                                         .split("    item [1]:")[0]
                                         .replace("size = 1", "size = 0").encode()), 3),
    ("annotate-grid-no-such-tier", _bad_grid(words_tier="nope"), 3),
    ("segment-odd-data-chunk", _wav(np.array([1000, -1000], "<i2").tobytes() + b"\x01"), 0),
    ("segment-rate-zero", _wav(b"\x00\x00" * 16, rate=0), 3),
    ("segment-empty-data", _wav(b""), 3),
    ("segment-rate-below-8k", _wav(b"\x00\x10" * 400, rate=4000), 3),
    ("score-window-zero", _score_option("--window-s", "0"), 2),
    ("score-window-negative", _score_option("--window-s", "-1"), 2),
    ("score-window-nan", _score_option("--window-s", "nan"), 2),
    ("score-window-inf", _score_option("--window-s", "inf"), 2),
    ("score-tau-negative", _score_option("--tau-ms", "-0.5"), 2),
    ("score-tau-nan", _score_option("--tau-ms", "nan"), 2),
    ("score-tau-inf", _score_option("--tau-ms", "inf"), 2),
    ("score-tau-not-a-number", _score_option("--tau-ms", "x"), 2),
    ("score-pred-breaks-alone", _score_unpaired("--pred-breaks", "--gold-breaks"), 2),
    ("score-gold-breaks-alone", _score_unpaired("--gold-breaks", "--pred-breaks"), 2),
    ("score-pred-timings-alone", _score_unpaired("--pred-timings", "--gold-timings"), 2),
    ("score-gold-timings-alone", _score_unpaired("--gold-timings", "--pred-timings"), 2),
    ("stats-deep-nesting", _stats(DEEP_JSON), 3),
    ("breaks-deep-nesting", _score_side("breaks", DEEP_JSON), 3),
    ("timings-deep-nesting", _score_side("timings", DEEP_JSON), 3),
    ("annotate-deep-manifest", _deep_manifest, 3),
    ("census-deep-ssml", _deep_ssml("census"), 3),
    ("validate-deep-ssml", _deep_ssml("validate-ssml"), 3),
    ("census-bad-third-line", _bad_third_line("census"), 3),
    ("score-bad-third-line", _bad_third_line("score"), 3),
    ("validate-bad-third-line", _bad_third_line("validate-ssml"), 3),
    ("score-pitch-too-large", _huge_pitch, 3),
    ("annotate-jobs-negative-one-pair", _jobs("-1", 1), 2),
    ("annotate-jobs-negative-two-pairs", _jobs("-1", 2), 2),
    ("annotate-jobs-zero", _jobs("0", 2), 2),
    ("annotate-jobs-fraction", _jobs("1.5", 2), 2),
    ("segment-threshold-nan", _segment_option("--threshold-dbfs", "nan"), 2),
    ("segment-threshold-inf", _segment_option("--threshold-dbfs", "inf"), 2),
    ("segment-min-gap-negative", _segment_option("--min-gap-ms", "-500"), 2),
    ("segment-min-gap-not-a-number", _segment_option("--min-gap-ms", "abc"), 2),
]


@pytest.mark.parametrize("build,code", [r[1:] for r in CONTRACT_ROWS],
                         ids=[r[0] for r in CONTRACT_ROWS])
def test_exit_code_contract(runner, tmp_path, build, code):
    args, named = build(tmp_path)
    result = runner.invoke(main, args)
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert "Traceback" not in result.output
    assert result.exit_code == code, result.output
    if code:
        # the argument parser reports a bad option value, naming the option; a pair
        # that fails in annotate is reported on its own FAILED line
        prefixes = (("Error: Invalid value for ",) if named.startswith("--")
                    else ("error: ", "pair00: FAILED ("))
        errors = [line for line in result.output.splitlines() if line.startswith(prefixes)]
        assert len(errors) == 1, result.output
        assert named in errors[0]


@pytest.mark.parametrize("args", [["score", "a.ssml"], ["census", "--no-such-option"],
                                  ["no-such-command"]],
                         ids=["missing-argument", "unknown-option", "unknown-command"])
def test_usage_error_is_one_line(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    errors = [line for line in result.stderr.splitlines() if line.startswith("Error: ")]
    assert len(errors) == 1 and "Error: " not in result.stdout, result.output


def test_files_before_and_after_an_option(runner, tmp_path):
    doc, config = _ssml_doc(tmp_path), _write(tmp_path / "c.cfg", "")
    result = runner.invoke(main, ["validate-ssml", doc, "--config", config, doc])
    assert result.exit_code == 0, result.output
    assert result.stdout == f"{doc}: ok\n" * 2


# each error class the package defines and can raise, with its exit code
ERROR_CODES = {
    "UnreadableFileError": cli.EXIT_IO,
    "UnsupportedFormatError": cli.EXIT_FORMAT,
    "UnsupportedRateError": cli.EXIT_FORMAT,
    "ManifestError": cli.EXIT_FORMAT,
    "PairingError": cli.EXIT_PAIRING,
    "SsmlParseError": cli.EXIT_FORMAT,
    "TextGridParseError": cli.EXIT_FORMAT,
    "SsmlValidationError": cli.EXIT_BUG,  # emit's refusal: only a caller's bug reaches it
}


def _error_classes() -> list[type]:
    """Every exception class defined in a prosodika module."""
    found = []
    for info in pkgutil.iter_modules(prosodika.__path__):
        module = importlib.import_module(f"prosodika.{info.name}")
        found += [v for v in vars(module).values() if isinstance(v, type)
                  and issubclass(v, BaseException) and v.__module__ == module.__name__]
    return found


def test_every_error_is_an_os_or_value_error():
    # a base class (AudioError) is raised only as one of its subclasses
    raised = [cls for cls in _error_classes() if not cls.__subclasses__()]
    assert sorted(cls.__name__ for cls in raised) == sorted(ERROR_CODES)
    for cls in raised:
        if cls.__name__ != "SsmlValidationError":
            assert issubclass(cls, (OSError, ValueError)), cls
        assert cli._classify(cls.__new__(cls)) == ERROR_CODES[cls.__name__], cls


def _die_on_bad(args):
    """Stands in for cli._annotate_one: the worker given pair 'bad' dies."""
    if args[0].name == "bad":
        os._exit(1)
    return 0, f"{args[0].name}: 1 syntagms in 1 segments (0 flagged)"


class TestPairOutcomes:
    def manifest(self, root, names):
        data = json.loads(build_e2e_corpus(root, n_syntagms=2).read_text())
        data["pairs"] = [dict(data["pairs"][0], name=n) for n in names]
        return _write(root / "job.json", json.dumps(data))

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_bug_in_one_pair_keeps_its_traceback(self, runner, tmp_path, monkeypatch, jobs):
        if jobs != "1" and "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("workers see the patched function only when forked")
        real = pipeline.annotate_pair

        def buggy(pair, *args):
            if pair.name == "bad":
                raise ZeroDivisionError("boom")
            return real(pair, *args)

        monkeypatch.setattr(pipeline, "annotate_pair", buggy)
        result = runner.invoke(main, ["annotate", self.manifest(tmp_path, ["bad", "good"]),
                                      "--jobs", jobs])
        assert result.exit_code == 1
        assert "bad: FAILED (Traceback (most recent call last):" in result.output
        assert "ZeroDivisionError: boom" in result.output
        assert "good: 2 syntagms in " in result.output

    def test_pool_has_at_most_one_worker_per_pair(self, runner, tmp_path, monkeypatch):
        sizes = []
        make_pool = cli._make_pool

        def spy(workers):
            pool = make_pool(workers)
            sizes.append(pool._max_workers)
            return pool

        monkeypatch.setattr(cli, "_make_pool", spy)
        result = runner.invoke(main, ["annotate", self.manifest(tmp_path, ["a", "b"]),
                                      "--jobs", "8"])
        assert result.exit_code == 0, result.output
        assert sizes == [2]

    def test_killed_worker_fails_its_pairs(self, runner, tmp_path, monkeypatch):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("workers see the patched function only when forked")
        monkeypatch.setattr(cli, "_annotate_one", _die_on_bad)
        result = runner.invoke(main, ["annotate", self.manifest(tmp_path, ["bad", "good"]),
                                      "--jobs", "2"])
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert "bad: FAILED (A process in the process pool was terminated abruptly" in result.output
        assert "good: " in result.output  # done or FAILED, depending on timing

    def test_pair_outcome_is_its_code_and_line(self, tmp_path):
        # all that crosses the pool: the exit code and the line annotate prints
        pairs, _ = pipeline.load_manifest(build_e2e_corpus(tmp_path))
        task = (pairs[0], PipelineConfig(), FunctionWordLexicon.default(), EmitOptions())
        assert cli._annotate_one(task) == (0, "pair00: 6 syntagms in 7 segments (0 flagged)")
        wav = tmp_path / "nat.wav"
        wav.unlink()
        missing = FileNotFoundError(2, os.strerror(2), str(wav))
        assert cli._annotate_one(task) == (2, f"pair00: FAILED (cannot read {wav}: {missing})")
