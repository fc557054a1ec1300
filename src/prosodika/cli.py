"""Batch front door: segment, annotate, score, stats, census, validate-ssml.

Exit codes are a stable contract for CI harnesses:
  0 success, 2 I/O error or usage error, 3 parse/format error, 4 pairing
  error, 5 empty input.
Every documented input error is an OSError (2) or a ValueError (3, or 4 for
a PairingError); any other exception is a bug and keeps its traceback.

Configuration is a key = value text file mirroring PipelineConfig field
names; --config (or the PROSODIKA_CONFIG environment variable) points at it,
and manifest "config" entries override it. The effective config is echoed
into every run log.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

from . import metrics, ssml
from .prosody import (
    FLAG_INJECTED_BREAK,
    PairingError,
    PipelineConfig,
    json_number,
    load_json,
    read_delta_records,
    write_atomic,
)
from .syntagms import FunctionWordLexicon
from .textgrid import split_lines

EXIT_OK = 0
EXIT_BUG = 1  # an exception outside INPUT_ERRORS, as an uncaught one exits
EXIT_IO = 2
EXIT_USAGE = 2  # a command line that does not parse
EXIT_FORMAT = 3
EXIT_PAIRING = 4
EXIT_EMPTY = 5

# everything missing or malformed input may raise; any other exception is a bug
INPUT_ERRORS = (OSError, ValueError)


def _classify(exc: BaseException) -> int:
    """Exit code of an error: the only place that picks 1, 2, 3 or 4."""
    if isinstance(exc, PairingError):
        return EXIT_PAIRING
    if isinstance(exc, OSError):
        return EXIT_IO
    return EXIT_FORMAT if isinstance(exc, ValueError) else EXIT_BUG


def _fail(code: int, message: str):
    print(f"error: {message}", file=sys.stderr, flush=True)
    sys.exit(code)


def _usage_error(option: str | None, reason: str):
    """Exit 2 with one ``Error: ...`` line, which names the option at fault."""
    head = f"Invalid value for '{option}': " if option else ""
    print(f"Error: {head}{reason}", file=sys.stderr, flush=True)
    sys.exit(EXIT_USAGE)


def _read(path: str, parse):
    """``parse`` of the UTF-8 text of ``path``. An OSError passes through; a
    decoding or parse error becomes a ValueError that starts with the path."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _parse_config(text: str) -> dict:
    """Parse the key = value config format (# starts a comment)."""
    values = {}
    for lineno, line in enumerate(split_lines(text), start=1):
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
    """``overrides`` over the config file at ``config_path`` or, if None, PROSODIKA_CONFIG."""
    path = os.environ.get("PROSODIKA_CONFIG") if config_path is None else config_path
    mapping = _read(path, _parse_config) if path else {}
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
        positions=frozenset(_json_numbers(positions, "positions", integer=True)),
        probabilities=None if probs is None else tuple(
            map(float, _json_numbers(probs, "probabilities"))),
    )


def _parse_timings(text: str) -> list[float]:
    starts = load_json(text)
    if not isinstance(starts, list) or not starts:
        raise ValueError("expected a non-empty list of word start times in ms")
    return list(map(float, _json_numbers(starts, "word start time")))


def _json_numbers(values: list, key: str, integer: bool = False) -> list:
    """``values`` if json_number accepts each of them, else its ValueError for
    the first it rejects. One pass checks the whole list; json_number runs
    only to name the bad value."""
    kinds = {int} if integer else {int, float}
    if not ({type(v) for v in values} <= kinds
            and all(-sys.float_info.max <= v <= sys.float_info.max for v in values)):
        for v in values:
            json_number(v, key, integer)
    return values


def _number(kind: type, low: float = -math.inf, closed: bool = False):
    """argparse type: a finite ``kind`` above ``low``, or at least ``low`` if ``closed``."""
    def convert(text: str):
        value = kind(text)  # argparse reports a ValueError as an invalid value
        if not (low <= value if closed else low < value) or not value < math.inf:
            raise argparse.ArgumentTypeError(
                f"{text} is not in the range {'[' if closed else '('}{low:g}, inf)")
        return value
    convert.__name__ = kind.__name__  # the type argparse's message names
    return convert


def _paired(pred_option: str, pred, gold_option: str, gold):
    """Usage error unless both or neither of a pred/gold option pair is given."""
    if (pred is None) != (gold is None):
        given, missing = (pred_option, gold_option) if gold is None else (gold_option, pred_option)
        _usage_error(given, f"given without {missing}")


def segment(audio, output, threshold_dbfs, min_gap_ms):
    """Detect speech segments in a WAV file."""
    from . import pipeline
    from .audio import detect_speech_segments

    bounds = detect_speech_segments(pipeline.prepare_audio(audio), threshold_dbfs, min_gap_ms)
    lines = "".join(f"{b.start_ms}\t{b.end_ms}\n" for b in bounds)
    if output:
        write_atomic(Path(output), lines)
    else:
        print(lines, end="", flush=True)


def _annotate_one(args) -> tuple[int, str]:
    """Annotate and write one pair: its exit code and the line that reports
    it, so only two plain values cross the process pool (a bug's reason is
    its traceback)."""
    from . import pipeline

    pair, cfg, lexicon, emit_options = args
    try:
        result = pipeline.annotate_pair(pair, cfg, lexicon, emit_options)
        pipeline.write_pair_result(result, pair.output_dir)
    except Exception as exc:  # noqa: BLE001 - one pair's failure never fails the others
        code, reason = _classify(exc), str(exc)
        if code == EXIT_BUG:
            import traceback

            reason = traceback.format_exc().rstrip()
        return code, f"{pair.name}: FAILED ({reason})"
    return EXIT_OK, (f"{pair.name}: {result.n_syntagms} syntagms in "
                     f"{result.n_segments} segments ({result.n_flagged} flagged)")


def _pool_context():
    """The pool's start method: fork where the platform has it, so workers
    inherit the imports made before the pool starts; else its default."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _make_pool(workers: int):
    """The process pool of ``annotate --jobs N``. The pool machinery loads
    here, so the text commands and ``--jobs 1`` start without it."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers, mp_context=_pool_context())


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has
    one, else the processor count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def annotate(manifest, config, lexicon, azure_silence_wrap, full_document,
             suppress_neutral, voice, jobs):
    """Annotate every pair in a job manifest: deltas, SSML, and a run log."""
    if voice is not None and not full_document:
        _usage_error("--voice", "given without --full-document")
    if full_document and voice is None:
        voice = ssml.DEFAULT_VOICE
    # numpy loads with pipeline here, not with the CLI, so text commands start without it
    from . import pipeline

    pairs, manifest_overrides = pipeline.load_manifest(manifest)
    if not pairs:
        _fail(EXIT_EMPTY, "manifest contains no pairs")
    cfg = build_config(config, manifest_overrides)
    words = (FunctionWordLexicon(_read(lexicon, split_lines)) if lexicon
             else FunctionWordLexicon.default())
    emit_options = ssml.EmitOptions(azure_silence_wrap=azure_silence_wrap,
                                    suppress_neutral=suppress_neutral, voice=voice)
    tasks = [(pair, cfg, words, emit_options) for pair in pairs]
    workers = min(jobs or _usable_cpus(), len(pairs))  # a fork-started pool starts them all
    if workers == 1:
        outcomes = [_annotate_one(task) for task in tasks]
    else:
        from concurrent.futures.process import BrokenProcessPool

        # imported once here, so that every fork-started worker inherits it
        import scipy.signal  # noqa: F401

        outcomes = []
        with _make_pool(workers) as pool:
            futures = [pool.submit(_annotate_one, t) for t in tasks]
            for pair, fut in zip(pairs, futures):
                try:
                    outcomes.append(fut.result())
                except BrokenProcessPool as exc:  # a worker died, e.g. killed
                    outcomes.append((_classify(exc), f"{pair.name}: FAILED ({exc})"))
    for code, line in outcomes:
        print(line, file=sys.stderr if code else sys.stdout, flush=True)
    sys.exit(max(code for code, _ in outcomes))


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
    print(report.table(tau_ms, window_s), flush=True)
    if output:
        write_atomic(Path(output), json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")


def _summarize(key: str, values: list[float]) -> metrics.DistributionSummary:
    """metrics.summarize of finite ``values``; its error, or an infinite
    median, is a ValueError that starts with ``key``."""
    try:
        summary = metrics.summarize(values)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None
    if not math.isfinite(summary.median):  # the two middle values' sum overflowed
        raise ValueError(f"{key}: the median is {summary.median}, not a finite number")
    return summary


def stats(files, output, histogram_csv, exclude_injected_breaks):
    """Corpus statistics over annotated delta records."""
    records = [rec for path in files for rec in _read(path, read_delta_records)]
    if not records:
        _fail(EXIT_EMPTY, "no delta records given")
    summaries = {key: _summarize(key, [float(r[key]) for r in records])
                 for key in ("pitch_pct", "rate_pct", "volume_pct")}
    breaks = [float(r["break_ms"]) for r in records
              if not (exclude_injected_breaks and FLAG_INJECTED_BREAK in r.get("flags", ()))]
    if breaks:  # empty only when every break is injected and excluded
        summaries["break_ms"] = _summarize("break_ms", breaks)
    totals = {  # read_delta_records has checked the type of every key used here
        "speakers": len({r["pair"] for r in records if "pair" in r}),
        "total_words": sum(r.get("word_count", len(r.get("text", "").split())) for r in records),
        "total_characters": sum(len(r.get("text", "")) for r in records),
        "prosody_tags": len(records),
        "break_tags": sum(1 for r in records if r["break_ms"] > 0),
    }
    print("corpus totals:", flush=True)
    for key, value in totals.items():
        print(f"  {key}: {value}", flush=True)
    print("distributions (min / q1 / median / q3 / max):", flush=True)
    for name, summary in summaries.items():
        print(f"  {name}: {summary.minimum:.2f} / {summary.q1:.2f} / {summary.median:.2f} / "
              f"{summary.q3:.2f} / {summary.maximum:.2f}", flush=True)
    if output:
        payload = {
            "totals": totals,
            "distributions": {k: v.to_dict() for k, v in summaries.items()},
        }
        write_atomic(Path(output), json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if histogram_csv:
        write_atomic(Path(histogram_csv), metrics.histogram_csv(summaries))


def census(files):
    """Tag census (prosody/break counts per segment) over SSML corpora."""
    if not files:
        _fail(EXIT_EMPTY, "no SSML files given")
    result = metrics.tag_census([_read(path, ssml.parse_corpus) for path in files])
    print(f"segments: {result.segments}", flush=True)
    print(f"prosody tags: {result.prosody_total} (mean {result.prosody_mean:.2f}/segment)",
          flush=True)
    print(f"break tags: {result.break_total} (mean {result.break_mean:.2f}/segment)", flush=True)
    print(f"words: {result.word_total}", flush=True)
    print(f"characters: {result.char_total}", flush=True)


def validate_ssml(files, config):
    """Check SSML files against the subset invariants and clip ranges."""
    if not files:
        _fail(EXIT_EMPTY, "no SSML files given")
    cfg = build_config(config)
    code = EXIT_OK
    for path in files:
        try:
            doc = _read(path, ssml.parse_corpus)
        except INPUT_ERRORS as exc:  # reported per file; the rest are still checked
            print(f"error: {exc}", file=sys.stderr, flush=True)
            code = max(code, _classify(exc))
            continue
        violations = ssml.validate(doc, cfg)
        for v in violations:
            print(f"{path}: {v}", file=sys.stderr, flush=True)
        if violations:
            code = max(code, EXIT_FORMAT)  # violations are a result, not an error
        else:
            print(f"{path}: ok", flush=True)
    sys.exit(code)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser without ``-h`` or abbreviated options that raises its usage errors."""

    def __init__(self, **kwargs):
        super().__init__(add_help=False, allow_abbrev=False, exit_on_error=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message):
        raise argparse.ArgumentError(None, message)


@functools.cache
def _parser(prog: str | None) -> _Parser:
    """The command line's parser, built once per program name: building costs ten parses."""
    parser = _Parser(prog=prog, description="Prosody annotation and SSML evaluation toolkit.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(run, *positionals) -> _Parser:
        sub = commands.add_parser(run.__name__.replace("_", "-"), help=run.__doc__,
                                  description=run.__doc__)
        sub.set_defaults(run=run)
        for name in positionals:
            sub.add_argument(name)
        return sub

    sub = command(segment, "audio")
    sub.add_argument("-o", "--output",
                     help="Bounds file (TSV start_ms/end_ms); stdout when omitted.")
    sub.add_argument("--threshold-dbfs", type=_number(float), default=-35.0,
                     help="RMS silence threshold relative to full scale (default: %(default)s).")
    sub.add_argument("--min-gap-ms", type=_number(int, 0, closed=True), default=300,
                     help="Silences shorter than this merge into speech (default: %(default)s).")
    sub = command(annotate, "manifest")
    sub.add_argument("--config", help="Pipeline config file (key = value).")
    sub.add_argument("--lexicon", help="Function-word list overriding the bundled French one.")
    sub.add_argument("--azure-silence-wrap", action="store_true",
                     help="Bracket each prosody element with mstts:silence directives.")
    sub.add_argument("--full-document", action="store_true",
                     help="Wrap each segment in a complete speak envelope.")
    sub.add_argument("--suppress-neutral", action="store_true",
                     help="Drop markup for all-zero deltas and zero breaks.")
    sub.add_argument("--voice", help="Voice of the speak envelope; needs --full-document "
                                     f"(default: {ssml.DEFAULT_VOICE}).")
    sub.add_argument("--jobs", type=_number(int, 1, closed=True),
                     help="Parallel workers, at most one per pair; defaults to the CPUs this "
                          "process may run on.")
    sub = command(score, "pred_ssml", "gold_ssml")
    sub.add_argument("--pred-breaks", help="Predicted break positions (JSON) for F1/perplexity.")
    sub.add_argument("--gold-breaks", help="Gold break positions (JSON).")
    sub.add_argument("--pred-timings",
                     help="Predicted word start times in ms (JSON list) for ARR.")
    sub.add_argument("--gold-timings", help="Gold word start times in ms (JSON list).")
    sub.add_argument("--tau-ms", type=_number(float, 0, closed=True), default=metrics.ARR_TAU_MS,
                     help="ARR temporal tolerance (default: %(default)s).")
    sub.add_argument("--window-s", type=_number(float, 0), default=metrics.ARR_WINDOW_S,
                     help="ARR macro-averaging window (default: %(default)s).")
    sub.add_argument("--macro", action="store_true", help="Average errors per segment first.")
    sub.add_argument("-o", "--output", help="Write the full report as JSON.")
    sub = command(stats)
    sub.add_argument("files", nargs="*", metavar="DELTA_FILE")
    sub.add_argument("-o", "--output", help="Write the summary as JSON.")
    sub.add_argument("--histogram-csv", help="Write histogram bins as CSV for plotting.")
    sub.add_argument("--exclude-injected-breaks", action="store_true",
                     help="Drop synthesized sentence-final pauses from the break distribution.")
    command(census).add_argument("files", nargs="*", metavar="SSML_FILE")
    sub = command(validate_ssml)
    sub.add_argument("files", nargs="*", metavar="SSML_FILE")
    sub.add_argument("--config", help="Pipeline config for the clip-range checks.")
    return parser


def main(args: list[str] | None = None, prog_name: str | None = None):
    """Run the command that ``args`` (default: ``sys.argv[1:]``) names. It always
    ends in SystemExit: 0 on success, else the command's or a usage error's code."""
    parser = _parser(prog_name)
    try:
        namespace, extras = parser.parse_known_args(args)
        if extras:  # argparse leaves over the files given after an option
            if "files" not in namespace or any(a != "-" and a.startswith("-") for a in extras):
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
            namespace.files += extras
    except argparse.ArgumentError as exc:
        _usage_error(exc.argument_name, exc.message)
    run = vars(namespace).pop("run")
    try:
        run(**vars(namespace))
    except INPUT_ERRORS as exc:
        _fail(_classify(exc), str(exc))
    sys.exit(EXIT_OK)


main.main = main  # perfbench/runner.py calls cli.main.main(args=..., prog_name=...)


if __name__ == "__main__":
    main()
