"""Differential check of the SSML parser: seeded random corpora, one digest.

Each corpus is drawn with ``random.Random``, whose draws are the same on
every Python version, and not with Hypothesis, whose draws are not. The
outcome of ``ssml.parse_corpus`` on it, and of ``ssml.parse`` on the whole
text, is the document's repr or the error's (type, message, offset, line).
All outcomes go into one sha256, pinned below. A change that alters any
parsed document or error changes the digest; one that does so on purpose
says why in CHANGES.md, with the changed cases counted by kind.
"""

import hashlib
import pyexpat
import random

from prosodika import ssml

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
