"""Batch front door: segment, annotate, score, stats, census, validate-ssml.

Exit codes are a stable contract for CI harnesses:
  0 success, 2 I/O error, 3 parse/format error, 4 pairing error,
  5 empty input.

Configuration is a key = value text file mirroring PipelineConfig field
names; --config (or the PROSODIKA_CONFIG environment variable) points at it,
manifest "config" entries override it, and command-line flags win over both.
The effective config is echoed into every run log.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import click

from . import metrics, pipeline, ssml
from .audio import AudioError, UnreadableFileError, detect_speech_segments
from .prosody import PairingError as ProsodyPairingError
from .prosody import (
    FLAG_INJECTED_BREAK,
    PipelineConfig,
    ProsodyDelta,
    read_delta_records,
)
from .syntagms import FunctionWordLexicon

EXIT_OK = 0
EXIT_IO = 2
EXIT_FORMAT = 3
EXIT_PAIRING = 4
EXIT_EMPTY = 5


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def load_config_file(path: str | Path) -> dict:
    """Parse the key = value config format (# starts a comment)."""
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UnreadableFileError(str(exc)) from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values


def build_config(config_path: str | None, overrides: dict | None = None) -> PipelineConfig:
    mapping: dict = {}
    if config_path:
        mapping.update(load_config_file(config_path))
    if overrides:
        mapping.update(overrides)
    return PipelineConfig.from_mapping(mapping)


@click.group()
def main():
    """Prosody annotation and SSML evaluation toolkit."""


@main.command()
@click.argument("audio", type=click.Path())
@click.option("-o", "--output", type=click.Path(), default=None,
              help="Bounds file (TSV start_ms/end_ms); stdout when omitted.")
@click.option("--threshold-dbfs", default=-35.0, show_default=True,
              help="RMS silence threshold relative to full scale.")
@click.option("--min-gap-ms", default=300, show_default=True,
              help="Silences shorter than this merge into speech.")
def segment(audio, output, threshold_dbfs, min_gap_ms):
    """Detect speech segments in a WAV file."""
    try:
        buf = pipeline.prepare_audio(audio)
    except UnreadableFileError as exc:
        _fail(EXIT_IO, str(exc))
    except AudioError as exc:
        _fail(EXIT_FORMAT, str(exc))
    bounds = detect_speech_segments(buf, threshold_dbfs, min_gap_ms)
    lines = "".join(f"{b.start_ms}\t{b.end_ms}\n" for b in bounds)
    if output:
        pipeline.write_atomic(Path(output), lines)
    else:
        click.echo(lines, nl=False)


def _annotate_one(args):
    pair, cfg, lexicon, emit_options = args
    result = pipeline.annotate_pair(pair, cfg, lexicon, emit_options)
    pipeline.write_pair_result(result, pair.output_dir)
    return result


@main.command()
@click.argument("manifest", type=click.Path())
@click.option("--config", envvar="PROSODIKA_CONFIG", type=click.Path(), default=None,
              help="Pipeline config file (key = value).")
@click.option("--lexicon", type=click.Path(), default=None,
              help="Function-word list overriding the bundled French one.")
@click.option("--azure-silence-wrap", is_flag=True,
              help="Bracket each prosody element with mstts:silence directives.")
@click.option("--full-document", is_flag=True,
              help="Wrap each segment in a complete speak envelope.")
@click.option("--suppress-neutral", is_flag=True,
              help="Drop markup for all-zero deltas and zero breaks.")
@click.option("--voice", default=ssml.DEFAULT_VOICE, show_default=True)
@click.option("--jobs", default=None, type=int,
              help="Parallel workers; defaults to the processor count.")
def annotate(manifest, config, lexicon, azure_silence_wrap, full_document,
             suppress_neutral, voice, jobs):
    """Annotate every pair in a job manifest: deltas, SSML, and a run log."""
    try:
        pairs, manifest_overrides = pipeline.load_manifest(manifest)
    except pipeline.ManifestError as exc:
        _fail(EXIT_FORMAT, str(exc))
    if not pairs:
        _fail(EXIT_EMPTY, "manifest contains no pairs")
    try:
        cfg = build_config(config, manifest_overrides)
        words = FunctionWordLexicon.from_file(lexicon) if lexicon else FunctionWordLexicon.default()
    except (UnreadableFileError, OSError, ValueError) as exc:
        _fail(_classify(exc), str(exc))
    emit_options = ssml.EmitOptions(
        azure_silence_wrap=azure_silence_wrap,
        full_document=full_document,
        suppress_neutral=suppress_neutral,
        voice=voice,
        config=cfg,
    )
    jobs = jobs or None
    worst = EXIT_OK
    tasks = [(pair, cfg, words, emit_options) for pair in pairs]
    results: list = []
    if jobs == 1 or len(pairs) == 1:
        for task in tasks:
            try:
                results.append(_annotate_one(task))
            except Exception as exc:  # noqa: BLE001 - per-pair isolation
                results.append(exc)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_annotate_one, t) for t in tasks]
            for fut in futures:
                try:
                    results.append(fut.result())
                except Exception as exc:  # noqa: BLE001 - per-pair isolation
                    results.append(exc)
    for pair, outcome in zip(pairs, results):
        if isinstance(outcome, Exception):
            code = _classify(outcome)
            worst = max(worst, code)
            click.echo(f"{pair.name}: FAILED ({outcome})", err=True)
        else:
            click.echo(
                f"{pair.name}: {outcome.n_syntagms} syntagms in "
                f"{outcome.n_segments} segments ({outcome.n_flagged} flagged)"
            )
    sys.exit(worst)


def _classify(exc: Exception) -> int:
    if isinstance(exc, (ProsodyPairingError, metrics.PairingError)):
        return EXIT_PAIRING
    if isinstance(exc, (UnreadableFileError, OSError)):
        return EXIT_IO
    return EXIT_FORMAT


def _read_text(path: str, code_on_missing: int = EXIT_IO) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        _fail(code_on_missing, str(exc))


def _load_breaks(path: str) -> metrics.BreakPrediction:
    data = json.loads(_read_text(path))
    probs = data.get("probabilities")
    return metrics.BreakPrediction(
        word_count=int(data["word_count"]),
        positions=frozenset(int(i) for i in data["positions"]),
        probabilities=tuple(float(p) for p in probs) if probs is not None else None,
    )


@main.command()
@click.argument("pred_ssml", type=click.Path())
@click.argument("gold_ssml", type=click.Path())
@click.option("--pred-breaks", type=click.Path(), default=None,
              help="Predicted break positions (JSON) for F1/perplexity.")
@click.option("--gold-breaks", type=click.Path(), default=None,
              help="Gold break positions (JSON).")
@click.option("--pred-timings", type=click.Path(), default=None,
              help="Predicted word start times in ms (JSON list) for ARR.")
@click.option("--gold-timings", type=click.Path(), default=None,
              help="Gold word start times in ms (JSON list).")
@click.option("--tau-ms", default=50.0, show_default=True,
              help="ARR temporal tolerance.")
@click.option("--window-s", default=15.0, show_default=True,
              help="ARR macro-averaging window.")
@click.option("--macro", is_flag=True, help="Average errors per segment first.")
@click.option("-o", "--output", type=click.Path(), default=None,
              help="Write the full report as JSON.")
def score(pred_ssml, gold_ssml, pred_breaks, gold_breaks, pred_timings,
          gold_timings, tau_ms, window_s, macro, output):
    """Score predicted SSML against gold SSML (MAE/RMSE, census, break F1,
    optional ARR over word timings)."""
    try:
        pred = ssml.parse_corpus(_read_text(pred_ssml))
        gold = ssml.parse_corpus(_read_text(gold_ssml))
    except ssml.SsmlParseError as exc:
        _fail(EXIT_FORMAT, str(exc))
    try:
        errors = metrics.attribute_errors(pred, gold, macro=macro)
    except metrics.PairingError as exc:
        _fail(EXIT_PAIRING, str(exc))

    precision = recall = f1 = ppl = None
    if pred_breaks and gold_breaks:
        bp, bg = _load_breaks(pred_breaks), _load_breaks(gold_breaks)
        try:
            precision, recall, f1 = metrics.break_f1(bp, bg)
        except metrics.PairingError as exc:
            _fail(EXIT_PAIRING, str(exc))
        if bp.probabilities is not None:
            ppl = metrics.perplexity(metrics.true_label_probabilities(bp, bg))
    arr_score = None
    if pred_timings and gold_timings:
        pred_starts = [float(v) for v in json.loads(_read_text(pred_timings))]
        gold_starts = [float(v) for v in json.loads(_read_text(gold_timings))]
        try:
            arr_score = metrics.arr(pred_starts, gold_starts, tau_ms, window_s)
        except metrics.PairingError as exc:
            _fail(EXIT_PAIRING, str(exc))

    report = metrics.MetricsReport(
        attribute_errors=errors,
        pred_census=metrics.tag_census([pred]),
        gold_census=metrics.tag_census([gold]),
        averaging="macro" if macro else "micro",
        break_precision=precision,
        break_recall=recall,
        break_f1_score=f1,
        break_perplexity=ppl,
        arr_score=arr_score,
    )
    click.echo(report.table(tau_ms, window_s))
    if output:
        pipeline.write_atomic(
            Path(output), json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        )


@main.command()
@click.argument("delta_files", type=click.Path(), nargs=-1)
@click.option("-o", "--output", type=click.Path(), default=None,
              help="Write the summary as JSON.")
@click.option("--histogram-csv", type=click.Path(), default=None,
              help="Write histogram bins as CSV for plotting.")
@click.option("--exclude-injected-breaks", is_flag=True,
              help="Drop synthesized sentence-final pauses from the break "
                   "distribution.")
def stats(delta_files, output, histogram_csv, exclude_injected_breaks):
    """Corpus statistics over annotated delta records."""
    records: list[dict] = []
    for path in delta_files:
        try:
            records.extend(read_delta_records(_read_text(path)))
        except ValueError as exc:
            _fail(EXIT_FORMAT, f"{path}: {exc}")
    if not records:
        _fail(EXIT_EMPTY, "no delta records given")
    deltas = [
        ProsodyDelta(
            pitch_pct=float(r["pitch_pct"]),
            rate_pct=float(r["rate_pct"]),
            volume_pct=float(r["volume_pct"]),
            break_ms=int(r["break_ms"]),
            flags=tuple(r.get("flags", ())),
        )
        for r in records
    ]
    summaries = metrics.corpus_stats(deltas)
    if exclude_injected_breaks:
        kept = [d.break_ms for d in deltas if FLAG_INJECTED_BREAK not in d.flags]
        if kept:
            summaries["break_ms"] = metrics.summarize([float(b) for b in kept])
        else:
            del summaries["break_ms"]
    speakers = sorted({r["pair"] for r in records if "pair" in r})
    totals = {
        "speakers": len(speakers),
        "total_words": sum(int(r.get("word_count", len(str(r.get("text", "")).split())))
                           for r in records),
        "total_characters": sum(len(str(r.get("text", ""))) for r in records),
        "prosody_tags": len(records),
        "break_tags": sum(1 for r in records if int(r["break_ms"]) > 0),
    }
    click.echo("corpus totals:")
    for key, value in totals.items():
        click.echo(f"  {key}: {value}")
    click.echo("distributions (min / q1 / median / q3 / max):")
    for name, summary in summaries.items():
        click.echo(
            f"  {name}: {summary.minimum:.2f} / {summary.q1:.2f} / "
            f"{summary.median:.2f} / {summary.q3:.2f} / {summary.maximum:.2f}"
        )
    if output:
        payload = {
            "totals": totals,
            "distributions": {k: v.to_dict() for k, v in summaries.items()},
        }
        pipeline.write_atomic(Path(output), json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if histogram_csv:
        pipeline.write_atomic(Path(histogram_csv), metrics.histogram_csv(summaries))


@main.command()
@click.argument("ssml_files", type=click.Path(), nargs=-1)
def census(ssml_files):
    """Tag census (prosody/break counts per segment) over SSML corpora."""
    if not ssml_files:
        _fail(EXIT_EMPTY, "no SSML files given")
    docs = []
    for path in ssml_files:
        try:
            docs.append(ssml.parse_corpus(_read_text(path)))
        except ssml.SsmlParseError as exc:
            _fail(EXIT_FORMAT, f"{path}: {exc}")
    result = metrics.tag_census(docs)
    click.echo(f"segments: {result.segments}")
    click.echo(f"prosody tags: {result.prosody_total} (mean {result.prosody_mean:.2f}/segment)")
    click.echo(f"break tags: {result.break_total} (mean {result.break_mean:.2f}/segment)")
    click.echo(f"words: {result.word_total}")
    click.echo(f"characters: {result.char_total}")


@main.command("validate-ssml")
@click.argument("ssml_files", type=click.Path(), nargs=-1)
@click.option("--config", envvar="PROSODIKA_CONFIG", type=click.Path(), default=None,
              help="Pipeline config for the clip-range checks.")
def validate_ssml(ssml_files, config):
    """Check SSML files against the subset invariants and clip ranges."""
    if not ssml_files:
        _fail(EXIT_EMPTY, "no SSML files given")
    try:
        cfg = build_config(config)
    except (UnreadableFileError, ValueError) as exc:
        _fail(EXIT_FORMAT, str(exc))
    bad = False
    for path in ssml_files:
        try:
            doc = ssml.parse_corpus(_read_text(path))
        except ssml.SsmlParseError as exc:
            click.echo(f"{path}: parse error: {exc}", err=True)
            bad = True
            continue
        violations = ssml.validate(doc, cfg)
        if violations:
            bad = True
            for v in violations:
                click.echo(f"{path}: {v}", err=True)
        else:
            click.echo(f"{path}: ok")
    sys.exit(EXIT_FORMAT if bad else EXIT_OK)


if __name__ == "__main__":
    main()
