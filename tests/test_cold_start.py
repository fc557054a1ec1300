"""Cold start: only annotate and segment load scipy, and annotate loads it
before it forks its process pool. Each case runs in a fresh interpreter,
since the test process has long since imported scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import prosodika
from prosodika.prosody import ProsodyDelta
from prosodika.ssml import emit

from conftest import build_e2e_corpus

SRC = Path(prosodika.__file__).resolve().parents[1]

# runs the CLI on argv[1:] (or only imports it, given no arguments) and
# prints the exit code and the scipy modules loaded
COMMAND_PROBE = """
import json, sys
from prosodika import cli
code = None
if sys.argv[1:]:
    try:
        cli.main.main(args=sys.argv[1:], prog_name="prosodika")
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"code": code, "scipy": [m for m in sys.modules if m.split(".")[0] == "scipy"]}))
"""

# runs annotate on argv[1:] with a spy on the process pool, and prints whether
# scipy.signal was loaded before annotate and at each pool creation
POOL_PROBE = """
import json, sys
from prosodika import cli
at_start = "scipy.signal" in sys.modules
at_pool = []

class Spy(cli.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        at_pool.append("scipy.signal" in sys.modules)
        super().__init__(*args, **kwargs)

cli.ProcessPoolExecutor = Spy
try:
    cli.main.main(args=sys.argv[1:], prog_name="prosodika")
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "at_start": at_start, "at_pool": at_pool}))
"""


def _probe(script: str, args: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _inputs(root: Path) -> dict[str, list[str]]:
    doc = root / "doc.ssml"
    doc.write_text(emit([("un deux", ProsodyDelta(1.0, 0.0, 0.0, 100))]) + "\n",
                   encoding="utf-8")
    timings = root / "timings.json"
    timings.write_text("[0.0, 300.0]", encoding="utf-8")
    deltas = root / "d.deltas.jsonl"
    deltas.write_text(json.dumps({"text": "un deux", "pitch_pct": 1.0, "rate_pct": 0.0,
                                  "volume_pct": 0.0, "break_ms": 100}) + "\n",
                      encoding="utf-8")
    return {
        "import": [],
        "score": ["score", str(doc), str(doc), "--pred-timings", str(timings),
                  "--gold-timings", str(timings)],
        "census": ["census", str(doc)],
        "stats": ["stats", str(deltas)],
        "validate-ssml": ["validate-ssml", str(doc)],
    }


@pytest.mark.parametrize("case", ["import", "score", "census", "stats", "validate-ssml"])
def test_command_does_not_load_scipy(tmp_path, case):
    args = _inputs(tmp_path)[case]
    seen = _probe(COMMAND_PROBE, args)
    assert seen["code"] == (0 if args else None)
    assert seen["scipy"] == []


def test_annotate_loads_scipy_signal_before_the_pool(tmp_path):
    manifest = build_e2e_corpus(tmp_path, n_syntagms=2)
    data = json.loads(manifest.read_text())
    data["pairs"].append(dict(data["pairs"][0], name="pair01"))
    manifest.write_text(json.dumps(data), encoding="utf-8")
    seen = _probe(POOL_PROBE, ["annotate", str(manifest), "--jobs", "2"])
    assert seen == {"code": 0, "at_start": False, "at_pool": [True]}
