"""SSML subset: document model, deterministic emitter, parser, validator.

The subset covers what the annotation pipeline emits and what scoring needs
to read back: prosody elements with signed percent attributes, self-closing
breaks with millisecond times, the mstts:silence directives that suppress
engine-inserted pauses, and text. Unknown elements are preserved as opaque
nodes so third-party SSML can still be scored. speak/voice envelopes are
unwrapped transparently; their language and voice attributes are kept on the
document, and they alone decide the envelope that emit_document writes.

Parsing reads each line with expat inside a __root__ wrapper element, and one
end handler builds the subset's nodes by tag; other elements stay opaque,
attributes in document order. Comments, CDATA sections and entity references
join the text around them; each run of text is one whitespace-normalized node.
parse_corpus reads all the lines of a corpus on one expat parser, each wrapped
line a child of one outer element. A line that does not read cleanly there is
read again alone, on a parser of its own as parse reads its text, so its error
(message, offset and line) is unchanged. Each parse or parse_corpus call
remembers each percentage's value and each break and silence node it has
parsed, for that call only; an error is never remembered.

Serialization is single-line and deterministic: percent attributes are signed
with two decimals, break times are integer milliseconds, text whitespace is
normalized. parse(emit(doc)) is structurally identical for documents whose
percent values are two-decimal quantized, and emit(parse(s)) is byte-identical
for canonical (emitter-produced) inputs.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterator
from dataclasses import dataclass
from xml.parsers import expat

from .prosody import PipelineConfig, ProsodyDelta
from .textgrid import split_lines

DEFAULT_LANG = "fr-FR"
DEFAULT_VOICE = "fr-FR-HenriNeural"

SPEAK_XMLNS = "http://www.w3.org/2001/10/synthesis"
MSTTS_XMLNS = "https://www.w3.org/2001/mstts"

LEADING_EXACT = "leading-exact"
TRAILING_EXACT = "trailing-exact"

# deepest element nesting the parser accepts; validate and tag_census walk
# the tree recursively, so a deeper one would exhaust the interpreter's stack
MAX_DEPTH = 100

# formatting quantization allowance on range checks: two-decimal rendering
# may round a value by up to half a unit in the last place
_QUANT_EPS = 0.005 + 1e-9


def _escape(text: str) -> str:
    """Text with ``& < > "`` as entities: ``xml.sax.saxutils.escape(text,
    {'"': "&quot;"})``, whose module would load urllib and email with it.
    Attribute values go through _quoteattr."""
    return (text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
            .replace('"', "&quot;"))


def _quoteattr(value: str) -> str:
    """``xml.sax.saxutils.quoteattr(value)``: an attribute value in quotes,
    double unless it holds ``"`` and no ``'``, with newlines and tabs as
    character references."""
    value = (value.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
             .replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;"))
    if '"' not in value:
        return f'"{value}"'
    if "'" not in value:
        return f"'{value}'"
    return '"' + value.replace('"', "&quot;") + '"'


class SsmlParseError(ValueError):
    """A parse error at character ``offset`` of its line; ``line`` (1-based)
    is set when the line came from a corpus."""

    def __init__(self, message: str, offset: int, line: int | None = None):
        super().__init__(message, offset, line)  # all in args, so the error survives pickling
        self.offset = offset
        self.line = line

    def __str__(self) -> str:
        where = "" if self.line is None else f"line {self.line}, "
        return f"{where}offset {self.offset}: {self.args[0]}"


class SsmlValidationError(Exception):
    """emit's refusal of deltas outside the clip ranges, which annotate_corpus
    never yields: a caller's bug, so neither an OSError nor a ValueError."""

    def __init__(self, violations: list["Violation"]):
        super().__init__("; ".join(str(v) for v in violations))
        self.violations = violations


@dataclass(frozen=True)
class TextNode:
    content: str

    def __post_init__(self):
        if not self.content.strip():
            raise ValueError("text nodes must be non-empty after trimming")


@dataclass(frozen=True)
class BreakElement:
    time_ms: int

    def __post_init__(self):
        if self.time_ms < 0:
            raise ValueError(f"negative break time {self.time_ms}")


@dataclass(frozen=True)
class SilenceDirective:
    position: str
    value_ms: int

    def __post_init__(self):
        if self.position not in (LEADING_EXACT, TRAILING_EXACT):
            raise ValueError(f"unknown silence position {self.position!r}")
        if self.value_ms < 0:
            raise ValueError(f"negative silence value {self.value_ms}")


@dataclass(frozen=True)
class ProsodyElement:
    pitch_pct: float | None = None
    rate_pct: float | None = None
    volume_pct: float | None = None
    children: tuple = ()
    extra_attrs: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class OpaqueElement:
    """Element outside the subset, kept verbatim for re-emission."""

    tag: str
    attrs: tuple[tuple[str, str], ...] = ()
    children: tuple = ()


Node = TextNode | BreakElement | SilenceDirective | ProsodyElement | OpaqueElement


@dataclass(frozen=True)
class SsmlDocument:
    segments: tuple[tuple[Node, ...], ...]
    lang: str | None = None
    voice: str | None = None


@dataclass(frozen=True)
class Violation:
    path: str
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: [{self.rule}] {self.message}"


@dataclass(frozen=True)
class EmitOptions:
    azure_silence_wrap: bool = False
    suppress_neutral: bool = False
    voice: str | None = None  # None: a bare fragment; else a speak document in this voice


def _quantize(value: float) -> float:
    q = round(value, 2)
    return 0.0 if q == 0.0 else q  # normalize -0.0


def _fmt_pct(value: float) -> str:
    return f"{value:+.2f}%"


def _norm_text(text: str) -> str:
    return " ".join(text.split())


def build_segment_nodes(
    syntagms: list[tuple[str, ProsodyDelta]], options: EmitOptions
) -> tuple[Node, ...]:
    """Node sequence for one segment: one prosody element per syntagm plus
    its trailing break, optionally bracketed by silence directives."""
    nodes: list[Node] = []
    for text, delta in syntagms:
        content = _norm_text(text)
        pitch = _quantize(delta.pitch_pct)
        rate = _quantize(delta.rate_pct)
        volume = _quantize(delta.volume_pct)
        neutral = pitch == 0.0 and rate == 0.0 and volume == 0.0
        if options.suppress_neutral and neutral:
            nodes.append(TextNode(content))
        else:
            if options.azure_silence_wrap:
                nodes.append(SilenceDirective(LEADING_EXACT, 0))
            nodes.append(
                ProsodyElement(pitch, rate, volume, children=(TextNode(content),))
            )
            if options.azure_silence_wrap:
                nodes.append(SilenceDirective(TRAILING_EXACT, 0))
        break_ms = int(delta.break_ms)
        if not (options.suppress_neutral and break_ms == 0):
            nodes.append(BreakElement(break_ms))
    return tuple(nodes)


def emit(syntagms: list[tuple[str, ProsodyDelta]], options: EmitOptions = EmitOptions(),
         cfg: PipelineConfig = PipelineConfig()) -> str:
    """Serialize annotated syntagms to SSML markup.

    Deltas outside the clip ranges of ``cfg`` make this refuse to emit with
    SsmlValidationError.
    """
    lang = None if options.voice is None else DEFAULT_LANG
    doc = SsmlDocument((build_segment_nodes(syntagms, options),), lang, options.voice)
    violations = validate(doc, cfg)
    if violations:
        raise SsmlValidationError(violations)
    return emit_document(doc)


def emit_document(doc: SsmlDocument) -> str:
    """Render a document, one segment per line. Each segment is wrapped in a
    speak envelope when the document has a language or a voice, with
    xml:lang only for a language and a voice element only for a voice."""
    return "\n".join(_render_segment(seg, doc.lang, doc.voice) for seg in doc.segments)


def _render_segment(nodes: tuple[Node, ...], lang: str | None, voice: str | None) -> str:
    body = "".join(_render_node(n) for n in nodes)
    if voice is not None:
        body = f"<voice name={_quoteattr(voice)}>{body}</voice>"
    if lang is None and voice is None:
        return body
    lang_attr = "" if lang is None else f" xml:lang={_quoteattr(lang)}"
    return (f'<speak version="1.0" xmlns="{SPEAK_XMLNS}" xmlns:mstts="{MSTTS_XMLNS}"'
            f"{lang_attr}>{body}</speak>")


def _render_node(node: Node) -> str:
    if isinstance(node, TextNode):
        return _escape(node.content)
    if isinstance(node, BreakElement):
        return f'<break time="{node.time_ms}ms"/>'
    if isinstance(node, SilenceDirective):
        return f'<mstts:silence type="{node.position}" value="{node.value_ms}"/>'
    if isinstance(node, ProsodyElement):
        attrs = []
        for name, value in (
            ("pitch", node.pitch_pct),
            ("rate", node.rate_pct),
            ("volume", node.volume_pct),
        ):
            if value is not None:
                attrs.append(f'{name}="{_fmt_pct(value)}"')
        attrs.extend(f"{k}={_quoteattr(v)}" for k, v in node.extra_attrs)
        inner = "".join(_render_node(c) for c in node.children)
        head = "<prosody " + " ".join(attrs) if attrs else "<prosody"
        return f"{head}>{inner}</prosody>"
    if isinstance(node, OpaqueElement):
        attrs = "".join(f" {k}={_quoteattr(v)}" for k, v in node.attrs)
        if not node.children:
            return f"<{node.tag}{attrs}/>"
        inner = "".join(_render_node(c) for c in node.children)
        return f"<{node.tag}{attrs}>{inner}</{node.tag}>"
    raise TypeError(f"not an SSML node: {node!r}")


_NUMBER = r"([+-]?\d+(?:\.\d+)?)"
_PCT_RE = re.compile(rf"^{_NUMBER}(%)?$")
_MS_RE = re.compile(rf"^{_NUMBER}(ms|s)?$")


def _parse_pct(name: str, raw: str) -> float:
    m = _PCT_RE.match(raw.strip())
    if not m:
        raise ValueError(f"non-numeric {name} value {raw!r}")
    if not m.group(2):
        raise ValueError(f"{name} value {raw!r} is missing the % suffix")
    value = float(m.group(1))
    if math.isinf(value):
        raise ValueError(f"{name} value {raw!r} is too large")
    return value


def _parse_ms(what: str, raw: str, unit_required: bool) -> int:
    """Milliseconds from a number with an optional ms/s unit (ms when bare)."""
    m = _MS_RE.match(raw.strip())
    if not m:
        raise ValueError(f"non-numeric {what} {raw!r}")
    if unit_required and not m.group(2):
        raise ValueError(f"{what} {raw!r} is missing its ms/s unit")
    ms = float(m.group(1)) * (1000.0 if m.group(2) == "s" else 1.0)
    if ms < 0:
        raise ValueError(f"negative {what} {raw!r}")
    if ms == math.inf:
        raise ValueError(f"{what} {raw!r} is too large")
    return int(round(ms))


_XML_DECL_RE = re.compile(r"^\s*<\?xml[^>]*\?>\s*")
_ROOT_TAG = "<__root__>"  # wraps each line so that a fragment is one XML element
_ROOT_END = "</__root__>"
_CORPUS_TAG = b"<__corpus__>"  # holds a corpus's wrapped lines on one parser
# envelopes: tag -> the attribute the document keeps; their children join the
# parent's, and the outermost envelope that has the attribute sets it
_ENVELOPES = {"__root__": None, "speak": "xml:lang", "voice": "name"}
_Line = tuple[tuple[Node, ...], str | None, str | None]  # a line's nodes, language and voice


def _wrap(text: str) -> tuple[bytes, int]:
    """A line's bytes inside the wrapper, and the character offset in the line
    where they start (past a leading XML declaration)."""
    decl = _XML_DECL_RE.match(text)
    base = decl.end() if decl else 0
    # a lone surrogate passes into the bytes, where expat rejects it as an invalid token
    return f"{_ROOT_TAG}{text[base:]}{_ROOT_END}".encode("utf-8", "surrogatepass"), base


def _offset(raw: bytes, base: int, byte_idx: int) -> int:
    """Character offset in the line of a byte index into its wrapped bytes (slow: errors only)."""
    prefix = raw[: max(0, byte_idx)].decode("utf-8", errors="ignore")
    return max(0, len(prefix) - len(_ROOT_TAG)) + base


def _reader():
    """The line reader of one parse or parse_corpus call, as ``(read, read_lines)``.

    ``read(raw, base)`` reads one wrapped line alone, on its own expat parser,
    and gives its nodes, language and voice. ``read_lines(lines)`` yields the
    same for each non-blank line, read on one shared parser, each wrapped line
    a child of one outer element. A line that raises there, or whose wrapper
    is not the one element that the wrapper's own end tag closes, is read
    again alone by ``read``, so its error (with its line number) or its nodes
    are the ones ``read`` gives, and the lines after it go on on a fresh
    shared parser. Both remember each
    percentage's value and each break and silence node they parsed, for this
    call only: a corpus repeats few distinct values, and an error is never
    remembered, so each bad value raises afresh."""
    pcts: dict[str, float] = {}  # raw percentage -> its value
    # ("break", raw time) or (silence position, raw value) -> its node, frozen and
    # so shared; the key's kind keeps the unit rule: a bare number is a silence
    # value but no break time
    timed: dict[tuple[str, str], BreakElement | SilenceDirective] = {}
    # open elements: (attrs, children, byte index), above one frame that holds the lines
    stack: list = []
    # (nodes, lang, voice, byte index of its end tag) of each line whose wrapper has closed
    closed: list = []
    found: dict[str, str | None] = {"xml:lang": None, "name": None}  # the open line's
    parser = None

    def pct(name: str, raw: str) -> float:
        value = pcts.get(raw)
        if value is None:
            value = pcts[raw] = _parse_pct(name, raw)
        return value

    def start(tag: str, attrs: dict[str, str]):
        # the stack holds the lines' frame and the wrapper before any element
        if len(stack) > MAX_DEPTH + 1:
            # its offset a byte index until read() turns it into the line's
            raise SsmlParseError(f"elements nested more than {MAX_DEPTH} deep",
                                 parser.CurrentByteIndex)
        stack.append((attrs, [], parser.CurrentByteIndex))

    def chars(data: str):
        norm = _norm_text(data)
        if norm:
            stack[-1][1].append(TextNode(norm))

    def end(tag: str):
        attrs, children, byte_idx = stack.pop()
        if len(stack) == 1:  # a line's wrapper
            closed.append((tuple(children), found["xml:lang"], found["name"],
                           parser.CurrentByteIndex))
            found["xml:lang"] = found["name"] = None
            return
        parent = stack[-1][1]
        try:
            if tag == "prosody":
                # in document order, so that the first bad value raises
                pitch = rate = volume = None
                extra = []
                for k, v in attrs.items():
                    if k == "pitch":
                        pitch = pct(k, v)
                    elif k == "rate":
                        rate = pct(k, v)
                    elif k == "volume":
                        volume = pct(k, v)
                    else:
                        extra.append((k, v))
                parent.append(ProsodyElement(pitch, rate, volume, tuple(children), tuple(extra)))
            elif tag == "break":
                key = (tag, attrs.get("time"))
                node = timed.get(key)
                if node is None:
                    if key[1] is None:
                        raise ValueError("break element is missing its time attribute")
                    node = timed[key] = BreakElement(_parse_ms("break time", key[1], True))
                parent.append(node)
            elif tag == "mstts:silence" and attrs.get("type") in (LEADING_EXACT, TRAILING_EXACT):
                key = (attrs["type"], attrs.get("value", "0"))
                node = timed.get(key)
                if node is None:
                    node = timed[key] = SilenceDirective(
                        key[0], _parse_ms("silence value", key[1], False))
                parent.append(node)
            elif tag in _ENVELOPES:
                key = _ENVELOPES[tag]
                if key in attrs:
                    found[key] = attrs[key]
                parent.extend(children)
            else:  # outside the subset
                parent.append(OpaqueElement(tag, tuple(attrs.items()), tuple(children)))
        except ValueError as exc:
            raise SsmlParseError(str(exc), byte_idx) from None  # as start() raises

    def new_parser(buffer_size: int):
        nonlocal parser
        parser = expat.ParserCreate()
        # one CharacterDataHandler call per run of text: pyexpat flushes its
        # buffer before each element handler, and no run outgrows a line
        parser.buffer_size = buffer_size
        parser.buffer_text = True
        parser.StartElementHandler = start
        parser.EndElementHandler = end
        parser.CharacterDataHandler = chars
        found["xml:lang"] = found["name"] = None
        closed.clear()
        return parser

    def read(raw: bytes, base: int) -> _Line:
        stack[:] = [({}, [], 0)]
        line_parser = new_parser(len(raw))
        try:
            line_parser.Parse(raw, True)
        except expat.ExpatError as exc:
            raise SsmlParseError(f"malformed XML: {expat.errors.messages[exc.code]}",
                                 _offset(raw, base, line_parser.ErrorByteIndex)) from None
        except SsmlParseError as exc:  # a handler's, at a byte index
            raise SsmlParseError(exc.args[0], _offset(raw, base, exc.offset)) from None
        return closed.pop()[:3]

    def read_lines(lines: list[str]) -> Iterator[_Line]:
        shared = None
        for lineno, text in enumerate(lines, start=1):
            if not text.strip():
                continue
            raw, base = _wrap(text)
            if shared is None:
                stack.clear()
                shared = new_parser(len(raw))
                shared.Parse(_CORPUS_TAG, False)  # its start handler pushes the lines' frame
                fed = len(_CORPUS_TAG)
            elif len(raw) > shared.buffer_size:
                shared.buffer_size = len(raw)
            fed += len(raw)
            try:
                shared.Parse(raw, False)
                # one wrapper closed, by the end tag that ends the chunk: a line that
                # closes its own, then opens a comment, has it swallow that end tag
                clean = (len(stack) == 1 and len(closed) == 1
                         and closed[0][3] == fed - len(_ROOT_END))
            except Exception:  # noqa: BLE001 - the line is read again alone below
                clean = False
            if clean:
                yield closed.pop()[:3]
                continue
            shared = None
            try:
                yield read(raw, base)
            except SsmlParseError as exc:
                raise SsmlParseError(exc.args[0], exc.offset, lineno) from None

    return read, read_lines


def parse(text: str) -> SsmlDocument:
    """Parse one SSML fragment or document into a single-segment document."""
    read, _ = _reader()
    nodes, lang, voice = read(*_wrap(text))
    return SsmlDocument(segments=(nodes,), lang=lang, voice=voice)


def parse_corpus(text: str) -> SsmlDocument:
    """Parse a corpus file: one SSML fragment or document per non-blank line,
    each line becoming one segment. An error names its line, counting blank
    lines."""
    _, read_lines = _reader()
    segments: list[tuple[Node, ...]] = []
    lang = voice = None
    for nodes, seg_lang, seg_voice in read_lines(split_lines(text)):
        segments.append(nodes)
        lang = lang or seg_lang
        voice = voice or seg_voice
    return SsmlDocument(segments=tuple(segments), lang=lang, voice=voice)


def validate(doc: SsmlDocument, cfg: PipelineConfig = PipelineConfig()) -> list[Violation]:
    """Structural and range checks; empty list means the document is clean.

    Range checks allow half a formatting quantum (0.005) past the configured
    clip bounds so two-decimal serialized values never flag falsely.
    """
    violations: list[Violation] = []
    ranges = dict(cfg.clip_ranges(), pitch=cfg.pitch_bounds_pct())

    def check_prosody(node: ProsodyElement, path: str):
        for name, value in (("pitch", node.pitch_pct), ("rate", node.rate_pct),
                            ("volume", node.volume_pct)):
            if value is None:
                continue
            lo, hi = ranges[name]
            if not (lo - _QUANT_EPS <= value <= hi + _QUANT_EPS):
                violations.append(
                    Violation(
                        path,
                        f"{name}-out-of-range",
                        f"{name}={value:+.2f}% outside [{lo:.2f}, {hi:.2f}]",
                    )
                )

    def walk(nodes: tuple[Node, ...], path: str, inside_prosody: bool):
        # text, break and silence nodes need no check: their constructors
        # already reject blank text and negative times
        for i, node in enumerate(nodes):
            if isinstance(node, ProsodyElement):
                sub = f"{path}/prosody[{i}]"
                if inside_prosody:
                    violations.append(Violation(sub, "nested-prosody",
                                                "prosody element inside prosody"))
                check_prosody(node, sub)
                walk(node.children, sub, True)
            elif isinstance(node, OpaqueElement):
                walk(node.children, f"{path}/{node.tag}[{i}]", inside_prosody)

    for si, seg in enumerate(doc.segments):
        walk(seg, f"segments[{si}]", False)
    return violations
