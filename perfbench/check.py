"""Checks a run's outputs against the generator's expectations.

``verify`` returns a list of problems; an empty list means every check
passed. Nothing here imports prosodika: the expected values come from
``expect.json`` and from the perturbation constants in gen.py.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from gen import EXPECTED_PITCH_PCT, EXPECTED_RATE_PCT, EXPECTED_VOLUME_PCT

DELTA_TOL = 1e-6  # deltas.jsonl keeps six decimals
REPORT_TOL = 1e-9  # summation order may differ from the generator's


def _compare(expected, actual, where: str, problems: list[str]):
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            problems.append(f"{where}: expected an object, got {actual!r}")
            return
        for key, value in expected.items():
            if key not in actual:
                problems.append(f"{where}.{key}: missing")
            else:
                _compare(value, actual[key], f"{where}.{key}", problems)
    elif isinstance(expected, int) and not isinstance(expected, bool):
        if actual != expected:
            problems.append(f"{where}: expected {expected}, got {actual!r}")
    elif isinstance(expected, float):
        if not isinstance(actual, (int, float)) or not math.isclose(
                actual, expected, rel_tol=REPORT_TOL, abs_tol=REPORT_TOL):
            problems.append(f"{where}: expected {expected!r}, got {actual!r}")
    elif actual != expected:
        problems.append(f"{where}: expected {expected!r}, got {actual!r}")


def _check_pair(pair: dict, out_dir: Path, problems: list[str]):
    name = pair["name"]
    deltas = out_dir / f"{name}.deltas.jsonl"
    try:
        records = [json.loads(line) for line in deltas.read_text(encoding="utf-8").splitlines()]
    except (OSError, json.JSONDecodeError) as exc:
        problems.append(f"{deltas}: unreadable: {exc}")
        records = []
    if len(records) != len(pair["records"]):
        problems.append(f"{deltas}: {len(records)} records, expected {len(pair['records'])}")
    targets = {"pitch_pct": EXPECTED_PITCH_PCT, "rate_pct": EXPECTED_RATE_PCT,
               "volume_pct": EXPECTED_VOLUME_PCT}
    for i, (rec, exp) in enumerate(zip(records, pair["records"])):
        where = f"{deltas}:{i + 1}"
        if set(rec) != set(exp) | set(targets):
            problems.append(f"{where}: keys {sorted(rec)}")
            continue
        for key, value in exp.items():
            if rec[key] != value:
                problems.append(f"{where}: {key} = {rec[key]!r}, expected {value!r}")
        for key, value in targets.items():
            if not isinstance(rec[key], (int, float)) or abs(rec[key] - value) > DELTA_TOL:
                problems.append(f"{where}: {key} = {rec[key]!r}, expected {value:.6f}")

    ssml_path = out_dir / f"{name}.ssml"
    try:
        lines = ssml_path.read_text(encoding="utf-8").split("\n")
    except OSError as exc:
        problems.append(f"{ssml_path}: unreadable: {exc}")
        lines = []
    expected_lines = pair["ssml_lines"] + [""]
    if len(lines) != len(expected_lines):
        problems.append(f"{ssml_path}: {len(lines) - 1} lines, expected {len(expected_lines) - 1}")
    for i, (got, want) in enumerate(zip(lines, expected_lines)):
        if got != want:
            problems.append(f"{ssml_path}:{i + 1}: differs from the expected markup")
            break

    log_path = out_dir / f"{name}.log"
    try:
        log = log_path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        problems.append(f"{log_path}: unreadable: {exc}")
        log = []
    for line in (f"segments: {pair['segments']}", f"syntagms: {pair['syntagms']}", "flagged: 0"):
        if line not in log:
            problems.append(f"{log_path}: no line {line!r}")


def verify(expect: dict, result: dict) -> list[str]:
    problems: list[str] = []
    problems += result["errors"]
    if not result["rerun_identical"]:
        problems.append("outputs differ between rounds: reruns are not byte-identical")

    validate = result["validate"]
    n_ssml = len(expect["pairs"])
    ok_lines = [line for line in validate["stdout"].splitlines() if line.endswith(": ok")]
    if validate["code"] != 0 or len(ok_lines) != n_ssml:
        problems.append(f"validate-ssml: exit {validate['code']}, {len(ok_lines)}/{n_ssml} ok: "
                        f"{validate['stderr'].strip()}")

    want_stdout = "".join(
        f"{p['name']}: {p['syntagms']} syntagms in {p['segments']} segments (0 flagged)\n"
        for p in expect["pairs"])
    if result["annotate_stdout"] != want_stdout:
        problems.append("annotate: summary lines differ from the expected pair counts")

    out_dir = Path(expect["out_dir"])
    for pair in expect["pairs"]:
        _check_pair(pair, out_dir, problems)

    for job in expect["scores"]:
        try:
            report = json.loads(Path(job["report"]).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"{job['report']}: unreadable: {exc}")
            continue
        _compare(job["expected"], report, job["report"], problems)
        if report.get("averaging") != "micro":
            problems.append(f"{job['report']}: averaging {report.get('averaging')!r}")
    return problems
