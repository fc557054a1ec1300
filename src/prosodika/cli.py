"""Batch front door: segment, annotate, score, stats, census, validate-ssml.

Exit codes are a stable contract for CI harnesses:
  0 success, 2 I/O error, 3 parse/format error, 4 pairing error,
  5 empty input.
The command group's ``invoke`` maps the documented input errors to these
codes; any other exception is a bug and keeps its traceback.

Configuration is a key = value text file mirroring PipelineConfig field
names; --config (or the PROSODIKA_CONFIG environment variable) points at it,
and manifest "config" entries override it. The effective config is echoed
into every run log.
"""

from __future__ import annotations

import json
import math
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import click

from . import metrics, pipeline, ssml
from .audio import AudioError, UnreadableFileError, detect_speech_segments
from .prosody import (
    FLAG_INJECTED_BREAK,
    PairingError,
    PipelineConfig,
    ProsodyDelta,
    json_number,
    load_json,
    read_delta_records,
)
from .syntagms import FunctionWordLexicon
from .textgrid import TextGridParseError

EXIT_OK = 0
EXIT_BUG = 1  # an exception outside INPUT_ERRORS, as an uncaught one exits
EXIT_IO = 2
EXIT_FORMAT = 3
EXIT_PAIRING = 4
EXIT_EMPTY = 5

# everything missing or malformed input may raise; any other exception is a bug
INPUT_ERRORS = (OSError, ValueError, AudioError, TextGridParseError, ssml.SsmlParseError)


def _classify(exc: BaseException) -> int:
    """Exit code of an error: the only place that picks 2, 3 or 4."""
    if isinstance(exc, PairingError):
        return EXIT_PAIRING
    if isinstance(exc, (OSError, UnreadableFileError)):
        return EXIT_IO
    return EXIT_FORMAT if isinstance(exc, INPUT_ERRORS) else EXIT_BUG


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _read(path: str, parse):
    """``parse`` of the UTF-8 text of ``path``. An OSError passes through; a
    decoding or parse error becomes a ValueError that starts with the path."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except (ValueError, ssml.SsmlParseError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _parse_config(text: str) -> dict:
    """Parse the key = value config format (# starts a comment)."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    PipelineConfig.from_mapping(values)  # a bad key or value is reported against this file
    return values


def build_config(config_path: str | None, overrides: dict | None = None) -> PipelineConfig:
    mapping = _read(config_path, _parse_config) if config_path else {}
    return PipelineConfig.from_mapping({**mapping, **(overrides or {})})


def _parse_breaks(text: str) -> metrics.BreakPrediction:
    data = load_json(text)
    if not isinstance(data, dict) or not {"word_count", "positions"} <= data.keys():
        raise ValueError("expected an object with 'word_count' and 'positions'")
    positions, probs = data["positions"], data.get("probabilities")
    if not isinstance(positions, list) or not isinstance(probs, (list, type(None))):
        raise ValueError("'positions' and 'probabilities' must be lists")
    return metrics.BreakPrediction(
        word_count=json_number(data["word_count"], "word_count", integer=True),
        positions=frozenset(json_number(i, "positions", integer=True) for i in positions),
        probabilities=None if probs is None else tuple(
            float(json_number(p, "probabilities")) for p in probs),
    )


def _parse_timings(text: str) -> list[float]:
    starts = load_json(text)
    if not isinstance(starts, list) or not starts:
        raise ValueError("expected a non-empty list of word start times in ms")
    return [float(json_number(v, "word start time")) for v in starts]


def _finite(ctx, param, value: float) -> float:
    """Option callback: click's FloatRange lets nan and inf through."""
    if not math.isfinite(value):
        raise click.BadParameter(f"{value} is not a finite number")
    return value


def _paired(pred_option: str, pred, gold_option: str, gold):
    """Usage error unless both or neither of a pred/gold option pair is given."""
    if (pred is None) != (gold is None):
        given, missing = (pred_option, gold_option) if gold is None else (gold_option, pred_option)
        raise click.BadParameter(f"given without {missing}", param_hint=f"'{given}'")


class _Cli(click.Group):
    """Command group whose ``invoke`` turns a documented input error into a
    single ``error: ...`` line and its exit code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except INPUT_ERRORS as exc:
            _fail(_classify(exc), str(exc))


@click.group(cls=_Cli)
def main():
    """Prosody annotation and SSML evaluation toolkit."""


@main.command()
@click.argument("audio", type=click.Path())
@click.option("-o", "--output", type=click.Path(), default=None,
              help="Bounds file (TSV start_ms/end_ms); stdout when omitted.")
@click.option("--threshold-dbfs", default=-35.0, show_default=True, callback=_finite,
              help="RMS silence threshold relative to full scale.")
@click.option("--min-gap-ms", default=300, show_default=True, type=click.IntRange(min=0),
              help="Silences shorter than this merge into speech.")
def segment(audio, output, threshold_dbfs, min_gap_ms):
    """Detect speech segments in a WAV file."""
    bounds = detect_speech_segments(pipeline.prepare_audio(audio), threshold_dbfs, min_gap_ms)
    lines = "".join(f"{b.start_ms}\t{b.end_ms}\n" for b in bounds)
    if output:
        pipeline.write_atomic(Path(output), lines)
    else:
        click.echo(lines, nl=False)


def _annotate_one(args):
    """Annotate and write one pair: its PairResult, or the exit code and message
    of its failure, so no exception crosses the process pool (a bug's message
    is its traceback)."""
    pair, cfg, lexicon, emit_options = args
    try:
        result = pipeline.annotate_pair(pair, cfg, lexicon, emit_options)
        pipeline.write_pair_result(result, pair.output_dir)
    except Exception as exc:  # noqa: BLE001 - one pair's failure never fails the others
        code = _classify(exc)
        return code, traceback.format_exc().rstrip() if code == EXIT_BUG else str(exc)
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
@click.option("--jobs", default=None, type=click.IntRange(min=1),
              help="Parallel workers; defaults to the processor count.")
def annotate(manifest, config, lexicon, azure_silence_wrap, full_document,
             suppress_neutral, voice, jobs):
    """Annotate every pair in a job manifest: deltas, SSML, and a run log."""
    pairs, manifest_overrides = pipeline.load_manifest(manifest)
    if not pairs:
        _fail(EXIT_EMPTY, "manifest contains no pairs")
    cfg = build_config(config, manifest_overrides)
    words = (FunctionWordLexicon(_read(lexicon, str.splitlines)) if lexicon
             else FunctionWordLexicon.default())
    emit_options = ssml.EmitOptions(
        azure_silence_wrap=azure_silence_wrap,
        full_document=full_document,
        suppress_neutral=suppress_neutral,
        voice=voice,
    )
    tasks = [(pair, cfg, words, emit_options) for pair in pairs]
    if jobs == 1 or len(pairs) == 1:
        outcomes = [_annotate_one(task) for task in tasks]
    else:
        # imported once here, so that every fork-started worker inherits it
        import scipy.signal  # noqa: F401

        outcomes = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for fut in [pool.submit(_annotate_one, t) for t in tasks]:
                try:
                    outcomes.append(fut.result())
                except BrokenProcessPool as exc:  # a worker died, e.g. killed
                    outcomes.append((_classify(exc), str(exc)))
    worst = EXIT_OK
    for pair, outcome in zip(pairs, outcomes):
        if isinstance(outcome, tuple):
            code, message = outcome
            worst = max(worst, code)
            click.echo(f"{pair.name}: FAILED ({message})", err=True)
        else:
            click.echo(
                f"{pair.name}: {outcome.n_syntagms} syntagms in "
                f"{outcome.n_segments} segments ({outcome.n_flagged} flagged)"
            )
    sys.exit(worst)


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
@click.option("--tau-ms", default=50.0, show_default=True, type=click.FloatRange(min=0),
              callback=_finite, help="ARR temporal tolerance.")
@click.option("--window-s", default=15.0, show_default=True,
              type=click.FloatRange(min=0, min_open=True), callback=_finite,
              help="ARR macro-averaging window.")
@click.option("--macro", is_flag=True, help="Average errors per segment first.")
@click.option("-o", "--output", type=click.Path(), default=None,
              help="Write the full report as JSON.")
def score(pred_ssml, gold_ssml, pred_breaks, gold_breaks, pred_timings,
          gold_timings, tau_ms, window_s, macro, output):
    """Score predicted SSML against gold SSML (MAE/RMSE, census, break F1,
    optional ARR over word timings)."""
    _paired("--pred-breaks", pred_breaks, "--gold-breaks", gold_breaks)
    _paired("--pred-timings", pred_timings, "--gold-timings", gold_timings)
    pred, gold = _read(pred_ssml, ssml.parse_corpus), _read(gold_ssml, ssml.parse_corpus)
    errors = metrics.attribute_errors(pred, gold, macro=macro)

    precision = recall = f1 = ppl = None
    if pred_breaks is not None:
        bp, bg = _read(pred_breaks, _parse_breaks), _read(gold_breaks, _parse_breaks)
        precision, recall, f1 = metrics.break_f1(bp, bg)
        if bp.probabilities is not None:
            ppl = metrics.perplexity(metrics.true_label_probabilities(bp, bg))
    arr_score = None
    if pred_timings is not None:
        arr_score = metrics.arr(_read(pred_timings, _parse_timings),
                                _read(gold_timings, _parse_timings), tau_ms, window_s)

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
    records = [rec for path in delta_files for rec in _read(path, read_delta_records)]
    if not records:
        _fail(EXIT_EMPTY, "no delta records given")
    deltas = [
        ProsodyDelta(
            pitch_pct=float(r["pitch_pct"]),
            rate_pct=float(r["rate_pct"]),
            volume_pct=float(r["volume_pct"]),
            break_ms=r["break_ms"],
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
    totals = {  # read_delta_records has checked the type of every key used here
        "speakers": len({r["pair"] for r in records if "pair" in r}),
        "total_words": sum(r.get("word_count", len(r.get("text", "").split())) for r in records),
        "total_characters": sum(len(r.get("text", "")) for r in records),
        "prosody_tags": len(records),
        "break_tags": sum(1 for r in records if r["break_ms"] > 0),
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
    result = metrics.tag_census([_read(path, ssml.parse_corpus) for path in ssml_files])
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
    cfg = build_config(config)
    code = EXIT_OK
    for path in ssml_files:
        try:
            doc = _read(path, ssml.parse_corpus)
        except ValueError as exc:  # reported per file; the other files are still checked
            click.echo(f"error: {exc}", err=True)
            code = max(code, _classify(exc))
            continue
        violations = ssml.validate(doc, cfg)
        for v in violations:
            click.echo(f"{path}: {v}", err=True)
        if violations:
            code = max(code, EXIT_FORMAT)  # violations are a result, not an error
        else:
            click.echo(f"{path}: ok")
    sys.exit(code)


if __name__ == "__main__":
    main()
