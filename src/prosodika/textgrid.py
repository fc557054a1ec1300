"""Praat TextGrid reader for long and short text formats.

Only IntervalTiers are returned (point tiers are consumed and skipped).
Labels are preserved verbatim, including Praat's "" quote escapes, which are
unescaped. Parse failures raise TextGridParseError carrying the 1-based line
number of the offending input line, and the file's path when read_textgrid
read it.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass
from pathlib import Path


def split_lines(text: str) -> list[str]:
    """``text.splitlines()``, but breaking only at \\n, \\r\\n or \\r: form
    feed, U+0085, U+2028 and the like stay inside their line."""
    return [line.rstrip("\r\n") for line in io.StringIO(text, newline="").readlines()]


class TextGridParseError(Exception):
    def __init__(self, message: str, line: int, path: str | None = None):
        super().__init__(message, line, path)  # all in args, so the error survives pickling
        self.line = line
        self.path = path

    def __str__(self) -> str:
        where = f"{self.path}: " if self.path else ""
        return f"line {self.line}: {where}{self.args[0]}"


@dataclass(frozen=True)
class TextGridInterval:
    start_s: float
    end_s: float
    label: str


@dataclass(frozen=True)
class TextGridTier:
    name: str
    start_s: float
    end_s: float
    intervals: tuple[TextGridInterval, ...]


class _Cursor:
    """Line cursor shared by the long- and short-format branches."""

    def __init__(self, text: str):
        # each line keeps its own terminator, which read_string copies into a
        # label that spans lines
        self.lines = io.StringIO(text, newline="").readlines()
        self.pos = 0

    @property
    def lineno(self) -> int:
        return min(self.pos + 1, len(self.lines))

    def next_content_line(self, context: str) -> tuple[int, str]:
        while self.pos < len(self.lines):
            raw = self.lines[self.pos]
            self.pos += 1
            if raw.strip():
                return self.pos, raw
        raise TextGridParseError(f"unexpected end of file while reading {context}",
                                 max(1, len(self.lines)))

    def read_number(self, context: str) -> float:
        lineno, raw = self.next_content_line(context)
        value = raw.split("=", 1)[1] if "=" in raw else raw
        try:
            number = float(value.strip())
            if not math.isfinite(number):  # a count of inf or nan would not convert to int
                raise ValueError(number)
            return number
        except ValueError:
            raise TextGridParseError(f"expected a number for {context}, got {raw.strip()!r}",
                                     lineno) from None

    def read_string(self, context: str) -> str:
        lineno, raw = self.next_content_line(context)
        start = raw.find('"')
        if start < 0:
            raise TextGridParseError(f"expected a quoted string for {context}", lineno)
        chunk = raw[start + 1 :]
        parts: list[str] = []
        while True:
            i = 0
            while i < len(chunk):
                if chunk[i] == '"':
                    if i + 1 < len(chunk) and chunk[i + 1] == '"':
                        parts.append('"')
                        i += 2
                        continue
                    return "".join(parts)
                parts.append(chunk[i])
                i += 1
            # quote closes on a later line: the line break is already in parts
            if self.pos >= len(self.lines):
                raise TextGridParseError(f"unterminated string for {context}", lineno)
            chunk = self.lines[self.pos]
            self.pos += 1


_HEADER_RE = re.compile(r'^\s*(File type|Object class)\s*=\s*"(.*)"\s*$')


def parse_textgrid(text: str) -> list[TextGridTier]:
    """Parse TextGrid text into its IntervalTiers, intervals in file order."""
    cur = _Cursor(text)
    header = {}
    for _ in range(2):
        lineno, raw = cur.next_content_line("header")
        m = _HEADER_RE.match(raw)
        if not m:
            raise TextGridParseError(f"malformed header line {raw.strip()!r}", lineno)
        header[m.group(1)] = m.group(2)
    if header.get("File type") != "ooTextFile" or header.get("Object class") != "TextGrid":
        raise TextGridParseError(
            f"not a TextGrid: {header.get('File type')!r}/{header.get('Object class')!r}", 1
        )

    # Peek at the first grid line to pick the format: long files spell
    # "xmin = ...", short files carry the bare number.
    peek_pos = cur.pos
    _, raw = cur.next_content_line("grid start time")
    cur.pos = peek_pos
    long_format = "=" in raw or raw.strip().startswith("xmin")

    cur.read_number("grid start time")
    cur.read_number("grid end time")
    lineno, raw = cur.next_content_line("tier flag")
    if "<exists>" not in raw:
        if long_format or raw.strip().startswith("tiers?"):
            raise TextGridParseError("expected tiers? <exists> flag", lineno)
        raise TextGridParseError("tierless TextGrid has no interval tiers", lineno)
    n_tiers = int(cur.read_number("tier count"))
    if long_format:
        cur.next_content_line("item []:")  # the "item []:" list header

    tiers: list[TextGridTier] = []
    for _ in range(n_tiers):
        if long_format:
            cur.next_content_line("item [k]:")
        tier_class = cur.read_string("tier class")
        name = cur.read_string("tier name")
        tier_start = cur.read_number("tier start time")
        tier_end = cur.read_number("tier end time")
        if tier_class == "IntervalTier":
            count_line = cur.lineno
            n_items = int(cur.read_number("interval count"))
            if n_items < 0:
                raise TextGridParseError("negative interval count", count_line)
            intervals = []
            prev_end = None
            for _ in range(n_items):
                if long_format:
                    cur.next_content_line("intervals [i]:")
                lineno = cur.lineno
                xmin = cur.read_number("interval start")
                xmax = cur.read_number("interval end")
                label = cur.read_string("interval text")
                if xmax < xmin:
                    raise TextGridParseError(
                        f"interval end {xmax} precedes start {xmin}", lineno
                    )
                if prev_end is not None and xmin < prev_end - 1e-9:
                    raise TextGridParseError(
                        f"interval start {xmin} overlaps previous end {prev_end}", lineno
                    )
                prev_end = xmax
                intervals.append(TextGridInterval(xmin, xmax, label))
            tiers.append(TextGridTier(name, tier_start, tier_end, tuple(intervals)))
        elif tier_class == "TextTier":
            n_items = int(cur.read_number("point count"))
            for _ in range(n_items):
                if long_format:
                    cur.next_content_line("points [i]:")
                cur.read_number("point time")
                cur.read_string("point mark")
        else:
            raise TextGridParseError(f"unknown tier class {tier_class!r}", cur.lineno)
    return tiers


def read_textgrid(path: str | Path) -> list[TextGridTier]:
    """Read and parse a TextGrid file, handling UTF-8 and UTF-16 encodings."""
    blob = Path(path).read_bytes()
    if blob.startswith(b"\xff\xfe") or blob.startswith(b"\xfe\xff"):
        text = blob.decode("utf-16")
    elif blob.startswith(b"\xef\xbb\xbf"):
        text = blob.decode("utf-8-sig")
    else:
        try:
            text = blob.decode("utf-8")
        except UnicodeDecodeError:
            text = blob.decode("latin-1")
    try:
        return parse_textgrid(text)
    except TextGridParseError as exc:
        raise TextGridParseError(exc.args[0], exc.line, str(path)) from None
