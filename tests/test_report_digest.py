"""Pinned digest of the text commands' outputs on a small seeded corpus.

``score`` (with ``--macro``, breaks, timings and ``-o``), ``stats`` (with
``-o`` and ``--histogram-csv``), ``census`` and ``validate-ssml`` run in
process on inputs drawn with ``random.Random``, whose draws are the same on
every Python version. Their exit codes, stdout, stderr and written files go
into one sha256, pinned below, so every Python the suite runs under must
write the bytes that Python 3.11 writes. The module needs only the standard
library and prosodika: run in an empty directory,
``PYTHONPATH=<repo>/src python <repo>/tests/test_report_digest.py`` prints
the digest.
"""

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from prosodika.cli import main

REPORT_DIGEST = "db9f8a87ca1708c11dc29ee5a60ec37c4501ff18747b45d273cc15469d955ea7"

WORDS = ["le", "chat", "dort", "été", "sur", "Paris", "a & b", "fin."]


def _line(rng: random.Random, texts: list[str], shift: float) -> str:
    """One SSML line: a prosody element per text, inside the default clip
    ranges, ``shift`` added to each pitch, and most followed by a break."""
    out = []
    for text in texts:
        pitch = round(rng.uniform(-5.0, 8.0) + shift, 2)
        rate, volume = round(rng.uniform(-9.5, 4.5), 2), round(rng.uniform(-9.5, 9.5), 2)
        out.append(f'<prosody pitch="{pitch:+.2f}%" rate="{rate:+.2f}%" '
                   f'volume="{volume:+.2f}%">{text.replace("&", "&amp;")}</prosody>')
        if rng.random() < 0.8:
            out.append(f'<break time="{rng.randrange(0, 900)}ms"/>')
    return "".join(out)


def _corpus(rng: random.Random, n_lines: int) -> tuple[str, str]:
    """Predicted and gold SSML over the same texts."""
    pred, gold = [], []
    for _ in range(n_lines):
        texts = [" ".join(rng.choices(WORDS, k=rng.randint(1, 3)))
                 for _ in range(rng.randint(1, 4))]
        pred.append(_line(rng, texts, 0.1))
        gold.append(_line(rng, texts, 0.0))
    return "\n".join(pred) + "\n", "\n".join(gold) + "\n"


def write_inputs(rng: random.Random):
    """The corpus's files, in the current directory."""
    pred, gold = _corpus(rng, 12)
    Path("pred.ssml").write_text(pred, encoding="utf-8")
    Path("gold.ssml").write_text(gold, encoding="utf-8")
    Path("bad.ssml").write_text('<prosody volume="+40.00%">fort</prosody>\n', encoding="utf-8")

    n_words = 40
    for side in ("pred", "gold"):
        breaks = {"word_count": n_words,
                  "positions": sorted(rng.sample(range(n_words), 9))}
        if side == "pred":
            breaks["probabilities"] = [round(rng.uniform(0.01, 0.99), 3) for _ in range(n_words)]
        Path(f"{side}-breaks.json").write_text(json.dumps(breaks), encoding="utf-8")

    starts, t = [], 0.0
    for _ in range(200):
        t += rng.randrange(100, 600)
        starts.append(t)
    Path("gold-timings.json").write_text(json.dumps(starts), encoding="utf-8")
    Path("pred-timings.json").write_text(
        json.dumps([round(s + rng.gauss(0.0, 45.0), 3) for s in starts]), encoding="utf-8")

    records = []
    for i in range(60):
        records.append({
            "text": " ".join(rng.choices(WORDS, k=rng.randint(1, 4))),
            "pair": f"p{i % 3}",
            "pitch_pct": rng.uniform(-5.0, 9.0),
            "rate_pct": rng.uniform(-10.0, 5.0),
            "volume_pct": rng.uniform(-10.0, 10.0),
            "break_ms": rng.choice([0, 0, 120, 250, 500, rng.randrange(1, 1500)]),
            "flags": ["injected-break"] if rng.random() < 0.1 else [],
        })
    Path("d.deltas.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records),
                                      encoding="utf-8")


COMMANDS = [
    (["score", "pred.ssml", "gold.ssml", "--macro", "--pred-breaks", "pred-breaks.json",
      "--gold-breaks", "gold-breaks.json", "--pred-timings", "pred-timings.json",
      "--gold-timings", "gold-timings.json", "-o", "macro.json"], ["macro.json"]),
    (["score", "pred.ssml", "gold.ssml", "--pred-timings", "pred-timings.json",
      "--gold-timings", "gold-timings.json", "--tau-ms", "30", "--window-s", "7.5",
      "-o", "micro.json"], ["micro.json"]),
    (["stats", "d.deltas.jsonl", "-o", "stats.json", "--histogram-csv", "hist.csv"],
     ["stats.json", "hist.csv"]),
    (["census", "pred.ssml", "gold.ssml"], []),
    (["validate-ssml", "pred.ssml", "gold.ssml", "bad.ssml"], []),
]


def report_digest() -> str:
    """sha256 of each command's arguments, exit code, stdout, stderr and
    written files, run on the seeded corpus in the current directory."""
    write_inputs(random.Random(20261021))
    digest = hashlib.sha256()
    for args, written in COMMANDS:
        out, err, code = io.StringIO(), io.StringIO(), None
        with redirect_stdout(out), redirect_stderr(err):
            try:
                main(args, prog_name="prosodika")
            except SystemExit as exc:
                code = exc.code
        for part in (" ".join(args), str(code), out.getvalue(), err.getvalue(),
                     *(Path(name).read_text(encoding="utf-8") for name in written)):
            digest.update(part.encode("utf-8") + b"\0")
    return digest.hexdigest()


def test_text_command_outputs_match_pinned_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert report_digest() == REPORT_DIGEST


if __name__ == "__main__":
    print(report_digest())
