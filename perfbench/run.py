"""Benchmark of prosodika's two batch jobs: annotate a manifest, then score
predicted SSML against gold.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that has ``src/prosodika``. Inputs are
generated from the seed under ``.perfbench-work/<workload>/``; the program
only receives those files. Every output is checked against expectations the
generator computed on its own. The last line of standard output is one JSON
object: correct, attempted, failed and metrics (end-to-end metrics with
--trace 0, per-layer metrics from a traced run with --trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check
import gen

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".perfbench-work")
SETUP_REPEATS = 3
RUNNER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30

# per-layer self times reported with --trace 1: metric name -> span name
LAYER_SPANS = {
    "audio.load_wav_s": "audio.load_wav",
    "audio.resample_to_16k_s": "audio.resample_to_16k",
    "audio.peak_normalize_s": "audio.peak_normalize",
    "audio.detect_speech_segments_s": "audio.detect_speech_segments",
    "textgrid.read_textgrid_s": "textgrid.read_textgrid",
    "syntagms.segment_s": "syntagms.segment",
    "syntagms.lexicon_load_s": "syntagms.lexicon_load",
    "pitch.estimate_f0_track_s": "pitch.estimate_f0_track",
    "pitch.median_f0_s": "pitch.median_f0",
    "loudness.integrated_loudness_s": "loudness.integrated_loudness",
    "pipeline.measure_features_s": "pipeline.measure_features",
    "prosody.annotate_corpus_s": "prosody.annotate_corpus",
    "pipeline.assign_segments_s": "pipeline.assign_segments",
    "ssml.emit_s": "ssml.emit",
    "pipeline.annotate_pair_self_s": "pipeline.annotate_pair",
    "pipeline.write_pair_result_s": "pipeline.write_pair_result",
    "cli.annotate_self_s": "cli.annotate",
    "ssml.parse_corpus_s": "ssml.parse_corpus",
    "metrics.attribute_errors_s": "metrics.attribute_errors",
    "metrics.tag_census_s": "metrics.tag_census",
    "metrics.break_f1_s": "metrics.break_f1",
    "metrics.perplexity_s": "metrics.perplexity",
    "metrics.arr_s": "metrics.arr",
    "cli.score_self_s": "cli.score",
}
# units of the per-layer figures that are not seconds
UNITS = {"pitch.frames": "count", "pitch.frames_per_s": "1/s",
         "ssml.parse_bytes_per_s": "B/s", "cli.annotate_parallel_efficiency": "ratio"}


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _kill_group(pgid: int):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_group(cmd: list[str], env: dict, timeout: float, stdout, stderr) -> int:
    """Run a command in its own process group and make sure the whole group
    is gone before returning. The wait blocks until the command exits (a
    timer kills the group on timeout), so the caller can time the command
    to the microsecond: ``Popen.wait(timeout=...)`` polls, at up to 50 ms
    intervals."""
    proc = subprocess.Popen(cmd, env=env, stdout=stdout, stderr=stderr, start_new_session=True)
    timer = threading.Timer(timeout, _kill_group, (proc.pid,))
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
        timer.join()
        _kill_group(proc.pid)
        proc.wait()
    return -1 if code == -signal.SIGKILL else code


def measure_setup(env: dict, work: Path) -> tuple[list[float], list[dict]]:
    walls, inner = [], []
    out_path = work / "setup.out"
    for _ in range(SETUP_REPEATS):
        with open(out_path, "wb") as out:
            start = time.perf_counter()
            code = run_group([sys.executable, str(ROOT / "perfbench" / "setup_probe.py")],
                             env, PROBE_TIMEOUT_S, out, subprocess.DEVNULL)
            walls.append(time.perf_counter() - start)
        if code != 0:
            fail(f"set-up probe exited {code}")
        inner.append(json.loads(out_path.read_text().splitlines()[-1]))
    return walls, inner


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Self time per span id: its duration minus the durations of its
    children in the same process."""
    duration = {s[0]: s[4] - s[3] for s in spans}
    own = dict(duration)
    for sid, parent, *_ in spans:
        if parent in own and parent.split(":")[0] == sid.split(":")[0]:
            own[parent] -= duration[sid]
    return own


def layer_metrics(result: dict, jobs: int) -> tuple[dict, list[str]]:
    """Per-layer figures, each the median over the traced rounds, plus a
    readable account of where each traced round's time went."""
    spans = [tuple(s) for s in result["spans"]]
    rounds = result["rounds"]
    per_round: dict[str, list[float]] = {}
    notes = []
    for r in (r for r in rounds if r["traced"]):
        mine = [s for s in spans if r["start"] <= s[3] <= r["end"]]
        own = self_times(mine)
        by_name: dict[str, float] = {}
        total: dict[str, float] = {}
        counts: dict[str, int] = {}
        for sid, _, name, start, end, n in mine:
            by_name[name] = by_name.get(name, 0.0) + own[sid]
            total[name] = total.get(name, 0.0) + (end - start)
            if n is not None:
                counts[name] = counts.get(name, 0) + n
        values = {metric: by_name.get(span, 0.0) for metric, span in LAYER_SPANS.items()}
        values["pitch.frames"] = counts.get("pitch.estimate_f0_track", 0)
        values["pitch.frames_per_s"] = (values["pitch.frames"] /
                                        by_name.get("pitch.estimate_f0_track", float("nan")))
        values["ssml.parse_bytes_per_s"] = (counts.get("ssml.parse_corpus", 0) /
                                            by_name.get("ssml.parse_corpus", float("nan")))
        values["cli.annotate_parallel_efficiency"] = (
            total.get("pipeline.annotate_pair", 0.0) / (jobs * total["cli.annotate"]))
        for metric, value in values.items():
            per_round.setdefault(metric, []).append(value)
        annotate_end = r["start"] + r["annotate_s"]
        phases = {"annotate": [s for s in mine if s[3] < annotate_end],
                  "score": [s for s in mine if s[3] >= annotate_end]}
        parts = []
        for phase, wall, slots in (("annotate", r["annotate_s"], jobs), ("score", r["score_s"], 1)):
            top = sum(own[s[0]] for s in phases[phase] if s[2] == f"cli.{phase}")
            layers = sum(own[s[0]] for s in phases[phase] if s[2] != f"cli.{phase}")
            parts.append(f"{phase} wall {wall:.3f} s x {slots} job(s): layers {layers:.3f} s"
                         f" ({100 * layers / (slots * wall):.1f}%), cli.{phase} own {top:.3f} s")
        notes.append("traced round: " + "; ".join(parts))
    metrics = {name: statistics.median(v) for name, v in per_round.items()}
    traced = [r["end"] - r["start"] for r in rounds if r["traced"]]
    plain = [r["end"] - r["start"] for r in rounds if not r["traced"]]
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = overhead
    notes.append(f"tracing overhead: {overhead:.3f} s per round "
                 f"({100 * overhead / statistics.median(plain):.2f}% of an untraced round)")
    return metrics, notes


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind through run_group's clean-up so no child outlives us
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    src = ROOT / "src"
    if not (src / "prosodika" / "cli.py").is_file():
        fail(f"no prosodika sources under {src}; run from a prosodika checkout")
    os.chdir(ROOT)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    jobs = len(os.sched_getaffinity(0))
    spec = gen.WORKLOADS[args.workload]
    annotate_jobs = jobs if spec["jobs"] == "nproc" else spec["jobs"]
    expect = gen.generate(args.workload, args.seed, work, annotate_jobs)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    setup_walls, setup_inner = measure_setup(env, work)

    result_path = work / "result.json"
    with open(work / "runner.out", "wb") as out, open(work / "runner.err", "wb") as err:
        code = run_group(
            [sys.executable, str(ROOT / "perfbench" / "runner.py"), "--expect",
             str(work / "expect.json"), "--seconds", str(args.seconds), "--trace",
             str(args.trace), "--result", str(result_path)],
            env, RUNNER_TIMEOUT_S, out, err)
    if code != 0 or not result_path.is_file():
        sys.stderr.write((work / "runner.err").read_text(errors="replace")[-4000:])
        fail(f"runner exited {code}")
    result = json.loads(result_path.read_text(encoding="utf-8"))

    problems = check.verify(expect, result)
    for line in problems[:20]:
        print(f"check failed: {line}")

    if args.trace:
        values, notes = layer_metrics(result, annotate_jobs)
        values["setup.import_cli_s"] = statistics.median(p["import_cli_s"] for p in setup_inner)
        values["setup.lexicon_s"] = statistics.median(p["lexicon_s"] for p in setup_inner)
        for note in notes:
            print(note)
        metrics = {name: {"value": v, "unit": UNITS.get(name, "s")}
                   for name, v in values.items()}
        (work / "trace.json").write_text(json.dumps(result["spans"]), encoding="utf-8")
    else:
        rounds = result["rounds"]
        metrics = {
            "annotate_audio_s_per_s": {
                "value": statistics.median(r["audio_s"] / r["annotate_s"] for r in rounds),
                "unit": "s/s"},
            "score_syntagms_per_s": {
                "value": statistics.median(r["syntagms_per_pass"] / t
                                           for r in rounds for t in r["score_passes_s"]),
                "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_walls), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
    print(f"{args.workload} seed {args.seed}: {len(result['rounds'])} rounds, "
          f"{result['attempted']} operations, {result['failed']} failed")
    for name, m in metrics.items():
        print(f"  {name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
