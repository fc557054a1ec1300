"""Differential check of the SSML and TextGrid parsers and of the delta
computation: seeded random inputs, one digest per layer.

Each input is drawn with ``random.Random``, whose draws are the same on
every Python version, and not with Hypothesis, whose draws are not. The
outcome of ``ssml.parse_corpus`` on an SSML corpus, and of ``ssml.parse`` on
the whole text, is the document's repr or the error's (type, message,
offset, line); the outcome of ``textgrid.parse_textgrid`` on a grid is the
tiers' repr or the error's (type, message, line); the outcome of
``prosody.annotate_corpus`` on a pair of measured voices is the records
``delta_record`` writes (rounded to 6 decimals) or the error's (type,
message). All outcomes of a layer go into one sha256, pinned below. A
change that alters any parsed value, delta or error changes the digest; one
that does so on purpose says why in CHANGES.md, with the changed cases
counted by kind.
"""

import dataclasses
import hashlib
import pyexpat
import random

from prosodika import ssml, textgrid
from prosodika.prosody import (
    PipelineConfig,
    SyntagmFeatures,
    annotate_corpus,
    delta_record,
    deltas_to_jsonl,
)
from prosodika.syntagms import WORD, Syntagm, Token

from test_fuzz import SSML_TOKENS

N_CORPORA = 4000
SSML_DIGEST = "3c35ed87ae2222bda6637be29a68c50bbfd8767176c848720824e65f3e50293a"

# few distinct numbers, so that a value (and a bad one) repeats within a corpus
NUMBERS = ["+1.00", "-2.50", "0", "12", "+0.5", "-0.00", "3.25", " 7 ", "+9.05", "-10.00"]
TIMES = ["0", "200", "12", "+0.5", "400", "1.25", " 7 ", "0.4"]
BAD_NUMBERS = ["1e400", "9" * 400, "abc", "", "+", "1.", "٣", "-5"]
PCT_SUFFIXES, BAD_PCT_SUFFIXES = ["%"], ["", "%%", " %", "px"]
# a bare time is a silence value in ms, but a break time needs its unit
MS_UNITS, BAD_MS_UNITS = ["ms", "s"], ["", "px", "MS", " ms"]
WORDS = ["mot", "é", "a &amp; b", "  ", "\t", "x  y", "&lt;", "&#233;", " ", "\u2028", "\u00a0"]
BAD_WORDS = ["\ud800", "&bogus;", "a < b", "\x01", "\x0c"]
EXTRAS = ['contour="(0%,+5%)"', 'xml:lang="fr"', "name='n'"]
OPAQUE = ["emphasis", "s", "sub", "mstts:express-as", "lang"]
MISC = ["<!-- note -->", "<![CDATA[ a <b> & ]]>", "<?pi data?>", "<!---->", "<![CDATA[]]>"]
SEPARATORS = ["\n", "\n", "\r\n", "\r", "\n\n", "\n  \n", "\r\n\r"]


class Draws:
    """One corpus's draws: a bad value replaces a good one at rate ``noise``."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.noise = rng.choice([0.0, 0.0, 0.01, 0.05, 0.2])

    def pick(self, good: list[str], bad: list[str]) -> str:
        return self.rng.choice(bad if self.rng.random() < self.noise else good)

    def attr(self, name: str, value: str) -> str:
        quote = self.rng.choice(['"', '"', "'"])
        return f"{name}={quote}{value}{quote}"

    def pct(self) -> str:
        return self.pick(NUMBERS, BAD_NUMBERS) + self.pick(PCT_SUFFIXES, BAD_PCT_SUFFIXES)

    def ms(self, units: list[str]) -> str:
        return self.pick(TIMES, BAD_NUMBERS) + self.pick(units, BAD_MS_UNITS)

    def content(self, depth: int) -> str:
        return "".join(self.item(depth) for _ in range(self.rng.randint(0, 3)))

    def item(self, depth: int) -> str:
        rng = self.rng
        kind = rng.randrange(10)
        if kind <= 1:
            return self.pick(WORDS, BAD_WORDS) + rng.choice(["", " "])
        if kind <= 3:
            names = rng.sample(["pitch", "rate", "volume"], rng.choice([0, 1, 2, 3, 3, 3]))
            attrs = [self.attr(n, self.pct()) for n in names]
            if rng.random() < 0.1:
                attrs.insert(rng.randint(0, len(attrs)), rng.choice(EXTRAS))
            head = " ".join(["<prosody", *attrs])
            return f"{head}>{self.pick(WORDS, BAD_WORDS)}{self.content(depth + 1)}</prosody>"
        if kind == 4:
            attrs = [self.attr("time", self.ms(MS_UNITS))] if rng.random() >= self.noise else []
            if rng.random() < 0.1:
                attrs.append('strength="weak"')
            return " ".join(["<break", *attrs]) + "/>"
        if kind == 5:
            attrs = []
            if rng.random() < 0.9:
                kinds = ["leading-exact", "trailing-exact", "Sentenceboundary-exact"]
                attrs.append(self.attr("type", rng.choice(kinds)))
            if rng.random() < 0.8:
                attrs.append(self.attr("value", self.ms(MS_UNITS + [""])))
            return " ".join(["<mstts:silence", *attrs]) + "/>"
        if kind == 6 and depth < 4:
            tag = rng.choice(OPAQUE)
            attr = rng.choice(["", ' alias="x"', ' level="strong"'])
            return f"<{tag}{attr}>{self.content(depth + 1)}</{tag}>"
        if kind == 7 and depth < 4:
            if rng.random() < 0.5:
                return f'<voice name="v{rng.randrange(3)}">{self.content(depth + 1)}</voice>'
            return f'<speak xml:lang="fr-{rng.randrange(3)}">{self.content(depth + 1)}</speak>'
        if kind == 8:
            return rng.choice(MISC)
        if rng.random() < self.noise:
            return rng.choice(SSML_TOKENS)  # most of these leave the line malformed
        return self.pick(WORDS, BAD_WORDS)

    def line(self) -> str:
        if self.rng.random() < 0.1:
            return self.rng.choice(["", " ", "\t"])
        decl = '<?xml version="1.0"?> ' if self.rng.random() < 0.05 else ""
        return decl + self.content(0) + self.item(0)


def corpus(rng: random.Random) -> str:
    draws = Draws(rng)
    text = "".join(draws.line() + rng.choice(SEPARATORS) for _ in range(rng.randint(1, 5)))
    return text if rng.random() < 0.7 else text.rstrip("\r\n")


def outcome(parse, text: str) -> str:
    try:
        return repr(parse(text))
    except ssml.SsmlParseError as exc:
        return repr((type(exc).__name__, str(exc), exc.offset, exc.line))


def test_parse_outcomes_match_pinned_digest():
    rng = random.Random(20240916)
    digest = hashlib.sha256()
    for _ in range(N_CORPORA):
        text = corpus(rng)
        for parse in (ssml.parse_corpus, ssml.parse):
            # repr escapes a lone surrogate, so every outcome encodes
            digest.update(outcome(parse, text).encode("utf-8") + b"\0")
    assert digest.hexdigest() == SSML_DIGEST, (
        f"SSML outcomes changed (expat {pyexpat.EXPAT_VERSION}): an expat version whose "
        "messages differ changes the digest without any change in the parser")


N_GRIDS = 8000
TEXTGRID_DIGEST = "d4aaa09e14e6651f8cf5ca9e3189e6f49ecc9d6a615884f2b9e1dabae3b5adaa"

TIER_NAMES = ["words", "phones", "Mots", "", 'a "b"', "tier 2"]
LABELS = ["", "", "mot", "le chat", 'un "deux"', "é", "fin.", "  ", '""', "a\nb", "x\r\ny",
          "item [1]:", "text = 1", "\u2028", "\x0c", "\u00a0"]
# values that may stand in a grid's line: numbers good and bad, stray strings,
# headers, flags and list headers
GRID_LINES = ["", " ", "inf", "nan", "-1", "1e309", "2.5", "2.0", "0", "zz", "xmax = zz",
              "size = inf", "size = 2.5", '"', '"a""', '"a" b', "intervals: size = -3",
              '"TextTier"', '"IntervalTier"', '"Foo"', "<exists>", "<absent>", "tiers? <exists>",
              "item []:", "intervals [1]:", "item[2]:", 'File type = "ooTextFile"', "1_0", "٣"]
GRID_SEPARATORS = ["\n", "\n", "\r\n", "\r"]


def _times(rng: random.Random, n: int) -> list[float]:
    """``n`` rising times in [0, 3], rounded as a grid writes them; now and
    then one out of order."""
    times = sorted(round(rng.uniform(0.0, 3.0), rng.choice([0, 1, 2, 3, 6])) for _ in range(n))
    if n > 1 and rng.random() < 0.05:
        i = rng.randrange(n - 1)
        times[i], times[i + 1] = times[i + 1], times[i]
    return times


def _quoted(label: str) -> str:
    return '"' + label.replace('"', '""') + '"'


def grid(rng: random.Random) -> str:
    """A long, headerless long or short grid of 0-3 interval and point tiers,
    then 0-3 line edits and maybe a cut."""
    form = rng.choice(["long", "long", "headerless", "short"])
    long = form != "short"

    def field(key: str, value) -> str:
        return f"{key} = {value}" if long else str(value)

    def header(text: str) -> list[str]:
        return [text] if form == "long" else []

    end = round(rng.uniform(0.0, 4.0), 2)
    n_tiers = rng.choice([0, 1, 1, 2, 3])
    lines = ['File type = "ooTextFile"', 'Object class = "TextGrid"', "",
             field("xmin", 0), field("xmax", end),
             "tiers? <exists>" if long else "<exists>", field("size", n_tiers),
             *header("item []:")]
    for k in range(1, n_tiers + 1):
        point = rng.random() < 0.25
        n = rng.choice([0, 1, 2, 3, 4])
        lines += [*header(f"    item [{k}]:"),
                  field("class", _quoted("TextTier" if point else "IntervalTier")),
                  field("name", _quoted(rng.choice(TIER_NAMES))),
                  field("xmin", 0), field("xmax", end)]
        if point:
            lines.append(f"points: size = {n}" if long else str(n))
            for i, t in enumerate(_times(rng, n), start=1):
                lines += [*header(f"        points [{i}]:"), field("number", t),
                          field("mark", _quoted(rng.choice(LABELS)))]
        else:
            lines.append(f"intervals: size = {n}" if long else str(n))
            times = _times(rng, 2 * n)
            for i in range(n):
                lines += [*header(f"        intervals [{i + 1}]:"),
                          field("xmin", times[2 * i]), field("xmax", times[2 * i + 1]),
                          field("text", _quoted(rng.choice(LABELS)))]
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        at = rng.randrange(len(lines))
        edit = rng.randrange(4)
        if edit == 0:
            lines[at] = rng.choice(GRID_LINES)
        elif edit == 1:
            del lines[at]
        elif edit == 2:
            lines.insert(at, rng.choice(GRID_LINES))
        else:
            lines.insert(at, lines[at])
    if rng.random() < 0.1:
        lines = lines[: rng.randrange(len(lines) + 1)]
    if rng.random() < 0.05:
        lines += rng.choice([[""], ["", "  "], ["zz"]])
    sep = rng.choice(GRID_SEPARATORS)
    return sep.join(lines) + (sep if rng.random() < 0.8 else "")


def grid_outcome(text: str) -> str:
    try:
        return repr(textgrid.parse_textgrid(text))
    except textgrid.TextGridParseError as exc:
        return repr((type(exc).__name__, exc.args[0], exc.line))


def test_textgrid_outcomes_match_pinned_digest():
    rng = random.Random(20261019)
    digest = hashlib.sha256()
    for _ in range(N_GRIDS):
        digest.update(grid_outcome(grid(rng)).encode("utf-8") + b"\0")
    assert digest.hexdigest() == TEXTGRID_DIGEST


N_PAIRS = 2000
CORPUS_DIGEST = "dbe64b6b45f16785d62d1e2523e20415a0d2042f7023c6da9b44557131b635e2"

PAIR_WORDS = ["le", "chat", "dort", "été", "Paris", "fin."]
F0_HZ = [80.0, 110.5, 150.0, 200.0, 220.0, 349.23, 500.0]
LOUDNESS_LUFS = [-60.0, -35.5, -23.0, -20.25, -14.0, -3.0]
PAUSES_MS = [0, 0, 40, 120, 300, 500, 900]
# word durations whose sums meet the configs' long-syntagm thresholds exactly
ROUND_MS = [100, 200, 250, 500]
CONFIGS = [
    PipelineConfig(),
    PipelineConfig(smoothing_alpha=1.0, max_jump_pct=100.0),
    PipelineConfig(pitch_clip_semitones=0.5, volume_clip_pct=3.0, rate_clip_pct=25.0),
    PipelineConfig(max_jump_pct=0.5, slowdown_gain=1.0, speedup_gain=2.0, long_syntagm_s=0.2),
]


def _voice(rng: random.Random, texts: list[list[str]], absent: float) -> list:
    """One voice's (syntagm, features) pairs: ``texts`` timed at random, and
    each feature None at rate ``absent``."""
    out, t = [], rng.randrange(0, 500)
    for words in texts:
        tokens = []
        for text in words:
            end = t + (rng.choice(ROUND_MS) if rng.random() < 0.5 else rng.randrange(40, 700))
            tokens.append(Token(WORD, text, t, end))
            t = end
        injected = rng.random() < 0.15
        pause = 500 if injected else rng.choice(PAUSES_MS)
        t += pause
        feats = SyntagmFeatures(
            None if rng.random() < absent else rng.choice(F0_HZ) * rng.uniform(0.9, 1.1),
            None if rng.random() < absent else rng.choice(LOUDNESS_LUFS) + rng.uniform(-2, 2))
        out.append((Syntagm(tuple(tokens), pause, injected), feats))
    return out


def pair_case(rng: random.Random) -> tuple[list, list, PipelineConfig]:
    """Two voices of one transcript, now and then with a syntagm too many or
    a diverging word, and a config with a baseline window of 1 to n + 1."""
    n = rng.choice([0, 1, 2, 3, 4, 6, 9, 14])
    texts = [[rng.choice(PAIR_WORDS) for _ in range(rng.randint(1, 4))] for _ in range(n)]
    syn_texts = [[w.upper() if rng.random() < 0.1 else w for w in ws] for ws in texts]
    edit = rng.random()
    if edit < 0.04:
        syn_texts.append(["encore"])
    elif edit < 0.08 and n:
        words = rng.choice(syn_texts)
        words[rng.randrange(len(words))] = "autre"
    nat = _voice(rng, texts, rng.choice([0.0, 0.0, 0.1, 0.5, 1.0]))
    syn = _voice(rng, syn_texts, rng.choice([0.0, 0.0, 0.1, 0.5, 1.0]))
    cfg = dataclasses.replace(rng.choice(CONFIGS), baseline_window=rng.randint(1, n + 1))
    return nat, syn, cfg


def corpus_outcome(nat: list, syn: list, cfg: PipelineConfig) -> str:
    try:
        deltas = annotate_corpus(nat, syn, cfg)
    except ValueError as exc:
        return repr((type(exc).__name__, str(exc)))
    return deltas_to_jsonl([delta_record(s.text, d) for (s, _), d in zip(nat, deltas)])


def test_annotate_corpus_outcomes_match_pinned_digest():
    rng = random.Random(20261020)
    digest = hashlib.sha256()
    for _ in range(N_PAIRS):
        digest.update(corpus_outcome(*pair_case(rng)).encode("utf-8") + b"\0")
    assert digest.hexdigest() == CORPUS_DIGEST
