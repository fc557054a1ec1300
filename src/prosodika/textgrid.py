"""Praat TextGrid reader for the long and short text formats.

One rule reads both formats, as in Praat: blank lines and list headers (a
line that is only ``name [k]:`` or ``name []:``, such as ``item [1]:``) are
skipped, a value is taken after its ``=`` when it has one, and only blank
lines may follow the last tier. Counts must be whole numbers. Only
IntervalTiers are returned (point tiers are read and skipped). Labels keep
their text verbatim, with Praat's "" quote escapes unescaped. A file is
UTF-16 after a UTF-16 BOM, UTF-8 with or without a BOM, and else Latin-1.
Failures raise TextGridParseError carrying the 1-based line number, and the
file's path when read_textgrid read it.
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


class TextGridParseError(ValueError):
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
    """Line cursor that skips blank lines and list headers. After each read,
    ``line`` is the line the value starts on and ``lead`` the line after the
    last non-blank line before it."""

    def __init__(self, text: str):
        # each line keeps its own terminator, which read_string copies into a
        # label that spans lines
        self.lines = io.StringIO(text, newline="").readlines()
        self.pos = 0

    def next_content_line(self, context: str) -> tuple[int, str]:
        self.lead = self.pos + 1
        while self.pos < len(self.lines):
            raw = self.lines[self.pos]
            self.pos += 1
            text = raw.strip()
            if text.endswith(":") and _LIST_HEADER_RE.fullmatch(text):
                self.lead = self.pos + 1
            elif text:
                self.line = self.pos
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

    def read_count(self, context: str) -> int:
        number = self.read_number(context)
        if not number.is_integer():
            raise TextGridParseError(f"expected a whole number for {context}, got {number!r}",
                                     self.line)
        return int(number)

    def read_string(self, context: str) -> str:
        lineno, raw = self.next_content_line(context)
        start = raw.find('"')
        if start < 0:
            raise TextGridParseError(f"expected a quoted string for {context}", lineno)
        chunk = raw[start + 1 :]
        parts: list[str] = []
        while True:
            end = _STRING_BODY_RE.match(chunk).end()
            parts.append(chunk[:end])
            if end < len(chunk):  # stopped at the closing quote
                return "".join(parts).replace('""', '"')
            # quote closes on a later line: the line break is already in parts
            if self.pos >= len(self.lines):
                raise TextGridParseError(f"unterminated string for {context}", lineno)
            chunk = self.lines[self.pos]
            self.pos += 1


# a quoted string's body up to its closing quote: runs of non-quotes joined by "" escapes
_STRING_BODY_RE = re.compile(r'[^"]*(?:""[^"]*)*')
_HEADER_RE = re.compile(r'^\s*(File type|Object class)\s*=\s*"(.*)"\s*$')
# a long-format list header, such as "item []:" or "intervals [2]:"
_LIST_HEADER_RE = re.compile(r"\w+ ?\[\d*\]:")


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

    cur.read_number("grid start time")
    cur.read_number("grid end time")
    lineno, raw = cur.next_content_line("tier flag")
    if "<exists>" not in raw:
        message = ("tierless TextGrid has no interval tiers" if "<absent>" in raw
                   else "expected tiers? <exists> flag")
        raise TextGridParseError(message, lineno)
    n_tiers = cur.read_count("tier count")

    tiers: list[TextGridTier] = []
    for _ in range(n_tiers):
        tier_class = cur.read_string("tier class")
        class_line = cur.line
        name = cur.read_string("tier name")
        tier_start = cur.read_number("tier start time")
        tier_end = cur.read_number("tier end time")
        if tier_class == "IntervalTier":
            n_items = cur.read_count("interval count")
            if n_items < 0:
                raise TextGridParseError("negative interval count", cur.lead)
            intervals = []
            prev_end = None
            for _ in range(n_items):
                xmin = cur.read_number("interval start")
                lineno = cur.lead  # just after the previous label or the list header
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
            n_items = cur.read_count("point count")
            for _ in range(n_items):
                cur.read_number("point time")
                cur.read_string("point mark")
        else:
            raise TextGridParseError(f"unknown tier class {tier_class!r}", class_line)
    for lineno, raw in enumerate(cur.lines[cur.pos :], start=cur.pos + 1):
        if raw.strip():
            raise TextGridParseError(f"unexpected {raw.strip()!r} after the last tier", lineno)
    return tiers


def read_textgrid(path: str | Path) -> list[TextGridTier]:
    """Read, decode and parse a TextGrid file; every error names the path."""
    blob = Path(path).read_bytes()
    encoding = "UTF-16" if blob.startswith((b"\xff\xfe", b"\xfe\xff")) else "UTF-8"
    try:
        text = blob.decode(encoding)
    except UnicodeDecodeError as exc:
        if encoding == "UTF-16" or blob.startswith(b"\xef\xbb\xbf"):
            # the line that holds the first byte that does not decode
            line = len(split_lines(blob[: exc.start].decode(encoding) + "?"))
            raise TextGridParseError(f"invalid {encoding} at byte {exc.start}: {exc.reason}",
                                     line, str(path)) from None
        text = blob.decode("latin-1")
    try:
        return parse_textgrid(text.removeprefix("\ufeff") if encoding == "UTF-8" else text)
    except TextGridParseError as exc:
        raise TextGridParseError(exc.args[0], exc.line, str(path)) from None
