"""Fuzz the input parsers: each may raise only its documented error type.

Inputs start from valid files and are then mutated, so the examples reach
past the first header check. Examples are derandomized so that the suite
gives the same verdict on every run.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from prosodika import ssml
from prosodika.audio import AudioError, load_wav
from prosodika.metrics import tag_census
from prosodika.pipeline import ManifestError, load_manifest
from prosodika.prosody import read_delta_records
from prosodika.textgrid import TextGridParseError, parse_textgrid, read_textgrid

from conftest import long_textgrid, short_textgrid

FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _riff(fmt_fields, data, data_size=None):
    fmt = struct.pack("<HHIIHH", *fmt_fields)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    size = len(data) if data_size is None else data_size
    body += b"data" + struct.pack("<I", size) + data
    return b"RIFF" + struct.pack("<I", len(body)) + body


wav_bytes = st.one_of(
    st.builds(
        lambda fmt, ch, rate, bits, data, size, cut: _riff(
            (fmt, ch, rate, rate * max(ch, 1) * bits // 8, max(ch, 1) * bits // 8, bits),
            data, size)[:cut],
        st.sampled_from([1, 3, 7, 0xFFFE]),
        st.sampled_from([0, 1, 2, 3]),
        st.sampled_from([0, 1, 8000, 16000, 44100]),
        st.sampled_from([0, 8, 12, 16, 24, 32]),
        st.binary(max_size=48),
        st.none() | st.integers(0, 2**32 - 1),
        st.integers(0, 200),
    ),
    st.binary(max_size=80),
)


@FUZZ
@given(blob=wav_bytes)
def test_load_wav_raises_only_audio_errors(scratch, blob):
    path = scratch / "fuzz.wav"
    path.write_bytes(blob)
    try:
        buf = load_wav(path)
    except AudioError as exc:
        assert str(path) in str(exc)
    else:
        assert len(buf) > 0 and buf.sample_rate > 0
        assert np.all(np.isfinite(buf.samples))


TRICKY_LINES = ["", "inf", "nan", "-1", "1e309", "xmax = zz", "size = inf", '"', '"a""',
                "intervals: size = -3", '"TextTier"', "<exists>", "item []:"]
GRID = [(0.0, 0.4, ""), (0.4, 0.9, 'mot "un"'), (0.9, 1.2, "")]


def headerless_textgrid(intervals):
    """A long grid without its list headers ("item []:", "intervals [1]:", ...)."""
    return "".join(line for line in long_textgrid(intervals).splitlines(keepends=True)
                   if not line.rstrip().endswith("]:"))


@FUZZ
@given(
    make=st.sampled_from([long_textgrid, short_textgrid, headerless_textgrid]),
    edits=st.lists(st.tuples(st.integers(0, 40),
                             st.sampled_from(TRICKY_LINES) | st.text(max_size=8)), max_size=3),
    keep=st.integers(0, 40),
)
def test_parse_textgrid_raises_only_parse_errors(make, edits, keep):
    lines = make(GRID).splitlines()
    for index, replacement in edits:
        lines[index % len(lines)] = replacement
    try:
        parse_textgrid("\n".join(lines[: keep or None]))
    except TextGridParseError:
        pass


BOMS = [b"", b"\xef\xbb\xbf", b"\xff\xfe", b"\xfe\xff"]


@FUZZ
@given(bom=st.sampled_from(BOMS), blob=st.binary(max_size=64),
       grid=st.sampled_from([b"", long_textgrid(GRID).encode("utf-16-le"),
                             short_textgrid(GRID).encode("utf-8")]),
       at=st.integers(0, 400))
@example(bom=BOMS[1], blob=b"caf\xe9", grid=b"", at=0)
@example(bom=BOMS[2], blob=b"\x00", grid=long_textgrid(GRID).encode("utf-16-le"), at=400)
def test_read_textgrid_raises_only_parse_errors_naming_the_file(scratch, bom, blob, grid, at):
    path = scratch / "fuzz.TextGrid"
    path.write_bytes(bom + grid[:at] + blob + grid[at:])
    try:
        read_textgrid(path)
    except TextGridParseError as exc:
        assert str(path) in str(exc)


SSML_TOKENS = ['<prosody pitch="+1.00%" rate="-2.50%">', "</prosody>", '<break time="200ms"/>',
               '<break time="', '<prosody volume="', '"/>', '">', "mot", "é", " ", "\n",
               '<speak xml:lang="fr-FR">', "</speak>", '<voice name="v">', "</voice>",
               '<mstts:silence type="leading-exact" value="', "&amp;", "&", "<", ">", '"',
               "%", "ms", "s", "9" * 400, "-1", "0.5", "<emphasis>", "</emphasis>",
               '<?xml version="1.0"?>', "<break/>", '<break time="' + "9" * 400 + 'ms"/>',
               "\ud800"]  # st.text never draws a surrogate


@FUZZ
@given(text=st.lists(st.sampled_from(SSML_TOKENS) | st.text(max_size=4), max_size=30)
       .map("".join))
def test_parse_corpus_raises_only_parse_errors(text):
    try:
        doc = ssml.parse_corpus(text)
    except ssml.SsmlParseError:
        return
    ssml.validate(doc)  # what validate-ssml and census run next
    tag_census([doc])


NESTING_TAGS = ["prosody", "emphasis", "s", "mstts:express-as", "voice", "speak"]


@FUZZ
@given(depth=st.integers(1, 3 * ssml.MAX_DEPTH),
       tags=st.lists(st.sampled_from(NESTING_TAGS), min_size=1, max_size=6))
@example(depth=ssml.MAX_DEPTH, tags=["s"])
@example(depth=ssml.MAX_DEPTH + 1, tags=["s"])
@example(depth=5000, tags=["a"])
def test_deep_nesting_is_a_parse_error(depth, tags):
    opened = [tags[i % len(tags)] for i in range(depth)]
    text = ("mot " + "".join(f"<{t}>" for t in opened) + "mot"
            + "".join(f"</{t}>" for t in reversed(opened)))
    try:
        doc = ssml.parse_corpus(text)
    except ssml.SsmlParseError as exc:
        assert depth > ssml.MAX_DEPTH
        assert "nested more than" in str(exc)
        assert exc.line == 1
        # at the first element too deep
        assert exc.offset == len("mot ") + sum(len(f"<{t}>") for t in opened[:ssml.MAX_DEPTH])
        return
    assert depth <= ssml.MAX_DEPTH
    ssml.validate(doc)  # walks the whole tree, as tag_census does
    tag_census([doc])


PAIR_KEYS = ["name", "natural_wav", "synthetic_wav", "textgrid_nat", "textgrid_syn",
             "output_dir", "words_tier"]
pair_entries = st.builds(
    lambda changes: {**{k: f"{k}.x" for k in PAIR_KEYS[1:5]}, **changes},
    st.dictionaries(st.sampled_from(PAIR_KEYS), st.sampled_from(["a", "b"]) | json_values,
                    max_size=3),
)
manifests = st.fixed_dictionaries({}, optional={
    "pairs": st.lists(pair_entries | json_values, max_size=3) | json_values,
    "output_dir": st.just("out") | json_values,
    "config": st.dictionaries(st.sampled_from(["volume_clip_pct", "baseline_window", "nope"]),
                              st.sampled_from(["12", "nan", "4"]) | json_values,
                              max_size=2) | json_values,
})


@FUZZ
@given(content=manifests.map(lambda m: json.dumps(m).encode()) | st.binary(max_size=40))
def test_load_manifest_raises_only_manifest_errors(scratch, content):
    path = scratch / "job.json"
    path.write_bytes(content)
    try:
        pairs, _ = load_manifest(path)
    except ManifestError as exc:
        assert str(path) in str(exc)
    else:
        names = [p.name for p in pairs]
        assert len(set(names)) == len(names)
        assert all(isinstance(n, str) for n in names)


DELTA_KEYS = ["pitch_pct", "rate_pct", "volume_pct", "break_ms", "flags", "word_count",
              "text", "pair"]
delta_records = st.builds(
    lambda changes: {**dict.fromkeys(DELTA_KEYS[:4], 1), **changes},
    st.dictionaries(st.sampled_from(DELTA_KEYS), json_values, max_size=3),
)


@FUZZ
@given(lines=st.lists(delta_records.map(json.dumps) | st.text(max_size=10), max_size=4))
def test_read_delta_records_raises_only_value_errors(lines):
    try:
        records = read_delta_records("\n".join(lines))
    except ValueError as exc:
        assert str(exc).startswith("line ")
    else:
        for rec in records:
            float(rec["pitch_pct"]) + float(rec["rate_pct"]) + float(rec["volume_pct"])
            assert isinstance(rec["break_ms"], int)
            assert all(isinstance(f, str) for f in rec.get("flags", []))
