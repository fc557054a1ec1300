"""Cold start: the package and the text commands load nothing outside the
standard library, and of it not the process-pool machinery
(multiprocessing, concurrent.futures);
only annotate and segment load scipy, and annotate loads numpy, the pipeline
and scipy.signal before it forks its process pool. Each case runs in a fresh
interpreter, since the test process has long since imported all of them."""

import importlib
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
# prints the exit code, the numpy, scipy and process-pool modules loaded, and
# the modules it loaded from outside the standard library and the package
# (site hooks may load some before it starts)
COMMAND_PROBE = """
import json, sys
before = set(sys.modules)
from prosodika import cli
code = None
if sys.argv[1:]:
    try:
        cli.main.main(args=sys.argv[1:], prog_name="prosodika")
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"code": code, **{top: [m for m in sys.modules if m.split(".")[0] == top]
                                   for top in ("numpy", "scipy", "multiprocessing",
                                               "concurrent")},
                  "outside": sorted(m for m in set(sys.modules) - before
                                    if m.split(".")[0] not in {*sys.stdlib_module_names,
                                                               "prosodika"})}))
"""

# reads the package attribute argv[1] and prints the numpy modules loaded
ATTRIBUTE_PROBE = """
import json, sys
import prosodika
getattr(prosodika, sys.argv[1])
print(json.dumps([m for m in sys.modules if m.split(".")[0] == "numpy"]))
"""

# reads the package's submodules argv[1:] as attributes and prints their names
SUBMODULE_PROBE = """
import json, sys
import prosodika
print(json.dumps([getattr(prosodika, m).__name__ for m in sys.argv[1:]]))
"""

# runs annotate on argv[1:] with a spy on the process pool, and prints which of
# the modules that its workers need were loaded before annotate and at each
# pool creation
POOL_PROBE = """
import json, sys
from prosodika import cli
MODULES = ("numpy", "prosodika.pipeline", "scipy.signal")
at_start = [m for m in MODULES if m in sys.modules]
at_pool = []

make_pool = cli._make_pool

def spy(workers):
    at_pool.append([m for m in MODULES if m in sys.modules])
    return make_pool(workers)

cli._make_pool = spy
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
    """Nor numpy, multiprocessing, concurrent.futures or anything else outside
    the standard library."""
    args = _inputs(tmp_path)[case]
    seen = _probe(COMMAND_PROBE, args)
    assert seen == {"code": 0 if args else None, "numpy": [], "scipy": [],
                    "multiprocessing": [], "concurrent": [], "outside": []}


@pytest.mark.parametrize("name, loads_numpy", [("parse_corpus", False), ("TextGridTier", False),
                                               ("AudioError", True), ("load_wav", True)])
def test_package_attribute_loads_only_its_module(name, loads_numpy):
    assert bool(_probe(ATTRIBUTE_PROBE, [name])) is loads_numpy


def test_annotate_loads_scipy_signal_before_the_pool(tmp_path):
    manifest = build_e2e_corpus(tmp_path, n_syntagms=2)
    data = json.loads(manifest.read_text())
    data["pairs"].append(dict(data["pairs"][0], name="pair01"))
    manifest.write_text(json.dumps(data), encoding="utf-8")
    seen = _probe(POOL_PROBE, ["annotate", str(manifest), "--jobs", "2"])
    needed = ["numpy", "prosodika.pipeline", "scipy.signal"]
    assert seen == {"code": 0, "at_start": [], "at_pool": [needed]}


def test_one_job_annotate_loads_no_pool_machinery(tmp_path):
    manifest = build_e2e_corpus(tmp_path, n_syntagms=2)
    seen = _probe(COMMAND_PROBE, ["annotate", str(manifest), "--jobs", "1"])
    assert seen["code"] == 0
    assert "scipy.signal" in seen["scipy"]  # annotate's own work still loads it
    assert seen["multiprocessing"] == []
    # scipy loads concurrent.futures itself, but never its process pool
    assert "concurrent.futures.process" not in seen["concurrent"]


# the package's public names, by the submodule that defines them
EXPORTS = {
    "audio": ["AudioBuffer", "AudioError", "SegmentBounds", "UnreadableFileError",
              "UnsupportedFormatError", "UnsupportedRateError", "detect_speech_segments",
              "load_wav", "peak_normalize", "resample_to_16k"],
    "loudness": ["integrated_loudness"],
    "metrics": ["BreakPrediction", "ErrorStats", "MetricsReport", "TagCensus", "arr",
                "attribute_errors", "break_f1", "perplexity", "tag_census"],
    "pitch": ["F0Track", "estimate_f0_track", "median_f0"],
    "prosody": ["PairingError", "PipelineConfig", "ProsodyDelta", "SyntagmFeatures",
                "annotate_corpus", "pitch_delta", "rate_delta", "rolling_baseline",
                "smooth_series", "volume_delta"],
    "ssml": ["BreakElement", "EmitOptions", "OpaqueElement", "ProsodyElement",
             "SilenceDirective", "SsmlDocument", "SsmlParseError", "SsmlValidationError",
             "TextNode", "Violation", "emit", "parse", "parse_corpus", "validate"],
    "syntagms": ["FunctionWordLexicon", "Syntagm", "Token", "filter_function_word_pauses",
                 "segment_syntagms", "tokens_from_tier"],
    "textgrid": ["TextGridParseError", "TextGridTier", "parse_textgrid", "read_textgrid"],
}


def test_every_public_name_is_its_submodules_object():
    assert sorted(prosodika.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    for module, names in EXPORTS.items():
        owner = importlib.import_module(f"prosodika.{module}")
        for name in names:
            assert getattr(prosodika, name) is getattr(owner, name), name
    assert set(prosodika.__all__) <= set(dir(prosodika))
    assert prosodika.__version__ == "0.1.0"


def test_audio_errors_are_one_set_of_classes():
    from prosodika import audio, cli

    assert audio.AudioError is prosodika.AudioError
    assert cli._classify(audio.UnreadableFileError("x")) == cli.EXIT_IO
    assert cli._classify(audio.UnsupportedRateError("x")) == cli.EXIT_FORMAT


def test_submodules_are_attributes_without_their_import():
    # as when the package imported every submodule that defines a public name
    assert _probe(SUBMODULE_PROBE, list(EXPORTS)) == [f"prosodika.{m}" for m in EXPORTS]


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        prosodika.no_such_name  # noqa: B018
    assert not hasattr(prosodika, "load_wavs")
