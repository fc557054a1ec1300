"""Runs the batch jobs of one workload in rounds, through the prosodika CLI.

Started by run.py in a fresh interpreter. A round is one ``prosodika
annotate`` of the manifest followed by ``score_passes`` score passes, each
one ``prosodika score`` per predicted corpus. The number of passes gives the
score phase about as much of every round as the annotate phase, so both
rates are medians over samples spread across the whole run. The CLI is
entered in-process (its import is timed separately as set-up), so each
phase times the work the command does. Garbage left by the previous phase
is collected before each timed phase, as a fresh process would start
without it. With --trace 1, traced rounds alternate with untraced ones.

Usage: runner.py --expect EXPECT.json --seconds S --trace 0|1 --result OUT.json
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import resource
import shutil
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from prosodika import cli

MIN_ROUNDS = 2  # the second round is the byte-identical rerun check


def invoke(args: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = 1
    with redirect_stdout(out), redirect_stderr(err):
        try:
            cli.main.main(args=args, prog_name="prosodika")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # noqa: BLE001 - an uncaught error is a failed operation
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def score_args(job: dict, expect: dict) -> list[str]:
    return ["score", job["pred"], job["gold"],
            "--pred-breaks", job["pred_breaks"], "--gold-breaks", job["gold_breaks"],
            "--pred-timings", job["pred_timings"], "--gold-timings", job["gold_timings"],
            "--tau-ms", str(expect["tau_ms"]), "--window-s", str(expect["window_s"]),
            "-o", job["report"]]


def output_digest(expect: dict) -> str:
    h = hashlib.sha256()
    out_dir = Path(expect["out_dir"])
    paths = sorted(out_dir.iterdir()) if out_dir.is_dir() else []
    for path in paths + [Path(j["report"]) for j in expect["scores"]]:
        h.update(path.name.encode())
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
    return h.hexdigest()


class Rounds:
    def __init__(self, expect: dict, tracer):
        self.expect = expect
        self.tracer = tracer
        self.rounds: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: set[str] = set()
        self.annotate_stdout = ""

    def call(self, phase: str, args: list[str], traced: bool):
        if traced:
            return self.tracer.span(f"cli.{phase}", invoke, args)
        return invoke(args)

    def run(self, traced: bool):
        expect = self.expect
        n_pairs = len(expect["pairs"])
        # each round writes into fresh output files, as a first run does
        shutil.rmtree(expect["out_dir"], ignore_errors=True)
        passes: list[float] = []
        if traced:
            self.tracer.install()
        try:
            gc.collect()
            t0 = time.perf_counter()
            code, out, err = self.call("annotate", expect["annotate_args"], traced)
            t1 = time.perf_counter()
            for _ in range(expect["score_passes"]):
                for job in expect["scores"]:
                    Path(job["report"]).unlink(missing_ok=True)
                gc.collect()
                start = time.perf_counter()
                for job in expect["scores"]:
                    s_code, _, s_err = self.call("score", score_args(job, expect), traced)
                    self.attempted += 1
                    if s_code != 0:
                        self.failed += 1
                        self.errors.append(f"score {job['pred']}: exit {s_code}: {s_err.strip()}")
                passes.append(time.perf_counter() - start)
                self.digests.add(output_digest(expect))
            t2 = time.perf_counter()
        finally:
            if traced:
                self.tracer.uninstall()
        failed_pairs = sum(1 for line in err.splitlines() if ": FAILED" in line)
        if code != 0 and not failed_pairs:
            failed_pairs = n_pairs  # the command failed as a whole
        self.attempted += n_pairs
        self.failed += failed_pairs
        if code != 0:
            self.errors.append(f"annotate: exit {code}: {err.strip()}")
        self.annotate_stdout = out
        self.rounds.append({
            "traced": traced, "start": t0, "end": t2,
            "annotate_s": t1 - t0, "score_s": sum(passes), "score_passes_s": passes,
            "audio_s": sum(p["audio_s"] for p in expect["pairs"]),
            "syntagms_per_pass": sum(j["syntagms"] for j in expect["scores"]),
        })


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--expect", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    expect = json.loads(Path(args.expect).read_text(encoding="utf-8"))

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(Path(args.result).parent / "spans")
    rounds = Rounds(expect, tracer)
    begin = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds.rounds) % 2 == 1
        rounds.run(traced)
        elapsed = time.perf_counter() - begin
        per_round = elapsed / len(rounds.rounds)
        if len(rounds.rounds) >= MIN_ROUNDS and elapsed + per_round > args.seconds:
            break

    v_code, v_out, v_err = invoke(
        ["validate-ssml", *sorted(str(p) for p in Path(expect["out_dir"]).glob("*.ssml"))])
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "rounds": rounds.rounds,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "errors": rounds.errors,
        "rerun_identical": len(rounds.digests) == 1,
        "annotate_stdout": rounds.annotate_stdout,
        "validate": {"code": v_code, "stdout": v_out, "stderr": v_err},
        "peak_rss_kb": max(self_rss, child_rss),
        "spans": tracer.collect() if tracer else [],
    }
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
