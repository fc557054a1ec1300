"""Word/pause token streams and syntagm segmentation.

A TextGrid tier becomes a stream of word and pause tokens; pauses that trail
closed-class function words (Whisper timestamp artifacts) are folded back
into the word; the stream is then split into syntagms at the remaining
pauses, with sentence-final punctuation enforcing a minimum boundary pause
of 500 ms (clamped when a shorter pause was observed, injected when none
was).
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from importlib import resources
from typing import Iterable

from .textgrid import TextGridTier, split_lines

WORD = "word"
PAUSE = "pause"

SENTENCE_FINAL_PUNCT = frozenset({".", "?", "!"})
MIN_FINAL_PAUSE_MS = 500

# closing quotes/brackets stripped before inspecting the final character
_CLOSERS = "\"'»”’)]}"


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    start_ms: int
    end_ms: int

    def __post_init__(self):
        if self.kind not in (WORD, PAUSE):
            raise ValueError(f"unknown token kind {self.kind!r}")
        if self.end_ms <= self.start_ms:
            raise ValueError(f"empty token span [{self.start_ms}, {self.end_ms})")
        if self.kind == PAUSE and self.text:
            raise ValueError("pause tokens carry no text")

    @property
    def duration_ms(self) -> int:
        return self.end_ms - self.start_ms


@dataclass(frozen=True)
class Syntagm:
    """Prosodic unit: consecutive words plus the pause that closes it.

    ``pause_injected`` marks a boundary pause that was synthesized because a
    sentence-final word had no following silence; downstream statistics can
    exclude those.
    """

    words: tuple[Token, ...]
    trailing_pause_ms: int
    pause_injected: bool = False

    def __post_init__(self):
        if not self.words:
            raise ValueError("a syntagm needs at least one word")
        if self.trailing_pause_ms < 0:
            raise ValueError("negative trailing pause")

    @property
    def text(self) -> str:
        return " ".join(w.text for w in self.words)

    @property
    def start_ms(self) -> int:
        return self.words[0].start_ms

    @property
    def end_ms(self) -> int:
        return self.words[-1].end_ms

    @property
    def word_count(self) -> int:
        return len(self.words)

    @property
    def net_duration_s(self) -> float:
        return sum(w.duration_ms for w in self.words) / 1000.0


def _fold(word: str) -> str:
    decomposed = unicodedata.normalize("NFD", word.casefold().strip())
    return "".join(c for c in decomposed if not unicodedata.combining(c))


class FunctionWordLexicon:
    """Case- and accent-insensitive set of French closed-class forms."""

    def __init__(self, entries: Iterable[str]):
        self._entries = {_fold(e) for e in entries if e.strip() and not e.startswith("#")}

    def __contains__(self, word: str) -> bool:
        return _fold(word) in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @classmethod
    def default(cls) -> "FunctionWordLexicon":
        text = resources.files("prosodika.data").joinpath("function_words_fr.txt").read_text(
            encoding="utf-8"
        )
        return cls(split_lines(text))


def tokens_from_tier(tier: TextGridTier) -> list[Token]:
    """Turn tier intervals into word/pause tokens (milliseconds).

    Empty or whitespace-only labels become pauses; adjacent pauses merge.
    Word intervals that round to zero length are widened to 1 ms so no word
    is ever dropped.
    """
    tokens: list[Token] = []
    for iv in tier.intervals:
        start = round(iv.start_s * 1000.0)
        end = round(iv.end_s * 1000.0)
        if iv.label.strip():
            if end <= start:
                end = start + 1
            tokens.append(Token(WORD, iv.label.strip(), start, end))
        else:
            if end <= start:
                continue
            if tokens and tokens[-1].kind == PAUSE:
                prev = tokens.pop()
                tokens.append(Token(PAUSE, "", prev.start_ms, end))
            else:
                tokens.append(Token(PAUSE, "", start, end))
    return tokens


def filter_function_word_pauses(
    tokens: list[Token], lexicon: FunctionWordLexicon
) -> list[Token]:
    """Drop pauses that directly follow a function word.

    The removed pause time is appended to the preceding word so the total
    timeline length is preserved. Leading pauses (no preceding word) are
    kept.
    """
    out: list[Token] = []
    for tok in tokens:
        if (
            tok.kind == PAUSE
            and out
            and out[-1].kind == WORD
            and out[-1].text in lexicon
        ):
            prev = out.pop()
            out.append(Token(WORD, prev.text, prev.start_ms, tok.end_ms))
        else:
            out.append(tok)
    return out


def ends_sentence(word_text: str) -> bool:
    stripped = word_text.rstrip().rstrip(_CLOSERS)
    return bool(stripped) and stripped[-1] in SENTENCE_FINAL_PUNCT


def segment_syntagms(tokens: list[Token]) -> list[Syntagm]:
    """Split a token stream into syntagms at pause tokens.

    A pause after a word ending in sentence-final punctuation is raised to at
    least ``MIN_FINAL_PAUSE_MS``; when such a word has no following pause at
    all, a pause of that length is injected (virtually: surrounding timings
    are not shifted). The last syntagm's trailing pause is the stream's final
    pause under the same rules, or 0 when the stream ends mid-sentence with
    no pause.
    """
    syntagms: list[Syntagm] = []
    words: list[Token] = []

    def close(trailing_ms: int, injected: bool = False):
        nonlocal words
        if words:
            syntagms.append(Syntagm(tuple(words), trailing_ms, injected))
            words = []

    for i, tok in enumerate(tokens):
        if tok.kind == PAUSE:
            if not words:
                continue  # leading pause: nothing to close
            observed = tok.duration_ms
            if ends_sentence(words[-1].text):
                observed = max(observed, MIN_FINAL_PAUSE_MS)
            close(observed)
        else:
            words.append(tok)
            next_tok = tokens[i + 1] if i + 1 < len(tokens) else None
            if ends_sentence(tok.text) and (next_tok is None or next_tok.kind == WORD):
                close(MIN_FINAL_PAUSE_MS, injected=True)
    close(0)
    return syntagms
