"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Runs a small version of each workload through the program, confirms that
check.verify passes on the real outputs, then alters one output at a time
(a delta off by 0.01, a dropped SSML line, a wrong MAE, ...) and confirms
that verify reports each alteration. Exits 1 if any check passes vacuously.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import check
import gen
from run import ROOT, WORK, fail, run_group

SMALL = {
    "long-pair-16k": {"syntagms": 6, "systems": 3, "long_line_syntagms": 30},
    "many-pairs-44k": {"pairs": 2, "syntagms": 3, "systems": 2},
}


def _edit(path: Path, change):
    def apply():
        path.write_text(change(path.read_text(encoding="utf-8")), encoding="utf-8")
    return apply


def _edit_json(path: Path, change):
    def apply():
        data = json.loads(path.read_text(encoding="utf-8"))
        change(data)
        path.write_text(json.dumps(data), encoding="utf-8")
    return apply


def _edit_record(field: str, change):
    def apply(text: str) -> str:
        lines = text.splitlines()
        rec = json.loads(lines[0])
        rec[field] = change(rec[field])
        lines[0] = json.dumps(rec, sort_keys=True)
        return "\n".join(lines) + "\n"
    return apply


def _scale(keys: tuple[str, ...], factor: float):
    def change(data):
        for key in keys[:-1]:
            data = data[key]
        data[keys[-1]] *= factor
    return change


def file_mutations(expect: dict) -> list[tuple[str, object]]:
    out = Path(expect["out_dir"])
    name = expect["pairs"][0]["name"]
    deltas, ssml, log = (out / f"{name}.deltas.jsonl", out / f"{name}.ssml", out / f"{name}.log")
    report = Path(expect["scores"][0]["report"])
    n = expect["pairs"][0]["syntagms"]
    return [
        ("pitch delta off by 0.01", _edit(deltas, _edit_record("pitch_pct", lambda v: v + 0.01))),
        ("volume delta off by 0.01", _edit(deltas, _edit_record("volume_pct", lambda v: v - 0.01))),
        ("break off by 1 ms", _edit(deltas, _edit_record("break_ms", lambda v: v + 1))),
        ("flag added", _edit(deltas, _edit_record("flags", lambda v: ["no-pitch"]))),
        ("segment index wrong", _edit(deltas, _edit_record("segment", lambda v: v + 1))),
        ("delta record dropped", _edit(deltas, lambda t: "".join(t.splitlines(True)[:-1]))),
        ("SSML line dropped", _edit(ssml, lambda t: "".join(t.splitlines(True)[1:]))),
        ("SSML value changed", _edit(ssml, lambda t: t.replace('rate="+5.00%"', 'rate="+5.01%"', 1))),
        ("SSML break changed", _edit(ssml, lambda t: t.replace('ms"/>', '1ms"/>', 1))),
        ("log syntagm count wrong", _edit(log, lambda t: t.replace(f"syntagms: {n}\n",
                                                                   f"syntagms: {n + 1}\n"))),
        ("MAE wrong", _edit_json(report, _scale(("attribute_errors", "pitch_pct", "mae"), 1.001))),
        ("RMSE wrong", _edit_json(report, _scale(("attribute_errors", "break_ms", "rmse"), 0.999))),
        ("census wrong", _edit_json(report, _scale(("tag_census", "gold", "break_total"), 2))),
        ("break F1 wrong", _edit_json(report, _scale(("break_prediction", "f1"), 0.999))),
        ("perplexity wrong", _edit_json(report, _scale(("break_prediction", "perplexity"), 1.001))),
        ("ARR wrong", _edit_json(report, _scale(("arr",), 0.999))),
        ("report missing", lambda: report.unlink()),
    ]


def result_mutations() -> list[tuple[str, object]]:
    def stdout(r):
        r["annotate_stdout"] = r["annotate_stdout"].replace(" syntagms", "0 syntagms", 1)

    def validate(r):
        r["validate"]["code"] = 3

    def rerun(r):
        r["rerun_identical"] = False

    def failed(r):
        r["errors"].append("score: exit 3")

    return [("annotate summary wrong", stdout), ("validate-ssml failed", validate),
            ("rerun not byte-identical", rerun), ("operation failed", failed)]


def selftest(workload: str, env: dict) -> list[str]:
    work = WORK / "selftest" / workload
    shutil.rmtree(work, ignore_errors=True)
    expect = gen.generate(workload, 7, work, 2, SMALL[workload])
    result_path = work / "result.json"
    with open(work / "runner.err", "wb") as err:
        code = run_group([sys.executable, str(ROOT / "perfbench" / "runner.py"), "--expect",
                          str(work / "expect.json"), "--seconds", "0", "--trace", "1",
                          "--result", str(result_path)], env, 120, subprocess.DEVNULL, err)
    if code != 0:
        fail(f"{workload}: runner exited {code}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if not expect["pairs"] or not expect["scores"] or not result["spans"]:
        return [f"{workload}: nothing to check"]
    baseline = check.verify(expect, result)
    if baseline:
        return [f"{workload}: checks fail on the real outputs: {baseline[:3]}"]
    missed = []
    for label, apply in file_mutations(expect):
        saved = {p: p.read_bytes() for p in Path(expect["out_dir"]).iterdir()}
        report = Path(expect["scores"][0]["report"])
        saved[report] = report.read_bytes()
        apply()
        problems = check.verify(expect, result)
        for path, data in saved.items():
            path.write_bytes(data)
        print(f"{workload}: {label}: {'caught' if problems else 'MISSED'}"
              + (f" ({problems[0]})" if problems else ""))
        if not problems:
            missed.append(f"{workload}: {label}")
    for label, change in result_mutations():
        altered = copy.deepcopy(result)
        change(altered)
        problems = check.verify(expect, altered)
        print(f"{workload}: {label}: {'caught' if problems else 'MISSED'}"
              + (f" ({problems[0]})" if problems else ""))
        if not problems:
            missed.append(f"{workload}: {label}")
    if check.verify(expect, result):
        missed.append(f"{workload}: outputs not restored")
    return missed


def main():
    if not (ROOT / "src" / "prosodika" / "cli.py").is_file():
        fail("no prosodika sources; run from a prosodika checkout")
    os.chdir(ROOT)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    missed = []
    for workload in gen.WORKLOADS:
        missed += selftest(workload, env)
    if missed:
        print("checks that passed on altered output:", *missed, sep="\n  ")
        sys.exit(1)
    print("every check caught its altered output")


if __name__ == "__main__":
    main()
