"""SSML subset: document model, deterministic emitter, parser, validator.

The subset covers what the annotation pipeline emits and what scoring needs
to read back: prosody elements with signed percent attributes, self-closing
breaks with millisecond times, the mstts:silence directives that suppress
engine-inserted pauses, and text. Unknown elements are preserved as opaque
nodes so third-party SSML can still be scored. speak/voice envelopes are
unwrapped transparently; their language and voice attributes are kept on the
document, and they alone decide the envelope that emit_document writes.

Serialization is single-line and deterministic: percent attributes are signed
with two decimals, break times are integer milliseconds, text whitespace is
normalized. parse(emit(doc)) is structurally identical for documents whose
percent values are two-decimal quantized, and emit(parse(s)) is byte-identical
for canonical (emitter-produced) inputs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from xml.parsers import expat
from xml.sax.saxutils import escape, quoteattr

from .prosody import PipelineConfig, ProsodyDelta

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

# escape() entities for text and for double-quoted attribute values
_QUOT = {'"': "&quot;"}


class SsmlParseError(Exception):
    def __init__(self, message: str, offset: int):
        super().__init__(message, offset)  # both in args, so the error survives pickling
        self.offset = offset

    def __str__(self) -> str:
        return f"offset {self.offset}: {self.args[0]}"


class SsmlValidationError(Exception):
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
    full_document: bool = False
    suppress_neutral: bool = False
    voice: str = DEFAULT_VOICE


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
        if not content:
            raise ValueError("syntagm text must be non-empty")
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
    doc = SsmlDocument(
        segments=(build_segment_nodes(syntagms, options),),
        lang=DEFAULT_LANG if options.full_document else None,
        voice=options.voice if options.full_document else None,
    )
    violations = validate(doc, cfg)
    if violations:
        raise SsmlValidationError(violations)
    return emit_document(doc)


def emit_document(doc: SsmlDocument) -> str:
    """Render a document, one segment per line. Each segment is wrapped in a
    speak/voice envelope when the document has a language or a voice."""
    return "\n".join(_render_segment(seg, doc.lang, doc.voice) for seg in doc.segments)


def _render_segment(nodes: tuple[Node, ...], lang: str | None, voice: str | None) -> str:
    body = "".join(_render_node(n) for n in nodes)
    if lang is None and voice is None:
        return body
    lang = escape(DEFAULT_LANG if lang is None else lang, _QUOT)
    voice = escape(DEFAULT_VOICE if voice is None else voice, _QUOT)
    return (
        f'<speak version="1.0" xmlns="{SPEAK_XMLNS}" xmlns:mstts="{MSTTS_XMLNS}" '
        f'xml:lang="{lang}"><voice name="{voice}">{body}</voice></speak>'
    )


def _render_node(node: Node) -> str:
    if isinstance(node, TextNode):
        return escape(node.content, _QUOT)
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
        attrs.extend(f"{k}={quoteattr(v)}" for k, v in node.extra_attrs)
        inner = "".join(_render_node(c) for c in node.children)
        head = "<prosody " + " ".join(attrs) if attrs else "<prosody"
        return f"{head}>{inner}</prosody>"
    if isinstance(node, OpaqueElement):
        attrs = "".join(f" {k}={quoteattr(v)}" for k, v in node.attrs)
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
    return float(m.group(1))


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


class _Frame:
    __slots__ = ("tag", "attrs", "children", "byte_idx")

    def __init__(self, tag: str, attrs: list[str], byte_idx: int):
        self.tag = tag
        self.attrs = attrs  # expat ordered list [k1, v1, k2, v2, ...]
        self.children: list[Node] = []
        self.byte_idx = byte_idx  # start of the element in _Parser.raw_bytes


_XML_DECL_RE = re.compile(r"^\s*<\?xml[^>]*\?>\s*")


class _Parser:
    def __init__(self, text: str):
        decl = _XML_DECL_RE.match(text)
        self.base = decl.end() if decl else 0
        self.body = text[self.base :]
        self.wrapper = "<__root__>"
        self.raw = f"{self.wrapper}{self.body}</__root__>"
        self.raw_bytes = self.raw.encode("utf-8")
        self.stack = [_Frame("__root__", [], 0)]
        self.closing = self.stack[0]  # the element _end handles last
        self.text_buf: list[str] = []
        self.lang: str | None = None
        self.voice: str | None = None
        self.parser = expat.ParserCreate()
        self.parser.ordered_attributes = True
        self.parser.StartElementHandler = self._start
        self.parser.EndElementHandler = self._end
        self.parser.CharacterDataHandler = self._cdata

    def _offset(self, byte_idx: int) -> int:
        """Character offset of a byte index into raw_bytes (slow: errors only)."""
        prefix = self.raw_bytes[: max(0, byte_idx)].decode("utf-8", errors="ignore")
        return max(0, len(prefix) - len(self.wrapper)) + self.base

    def _flush_text(self):
        if not self.text_buf:
            return
        joined = "".join(self.text_buf)
        self.text_buf = []
        norm = _norm_text(joined)
        if norm:
            self.stack[-1].children.append(TextNode(norm))

    def _start(self, tag: str, attrs: list[str]):
        # the stack holds a base frame and the wrapper before any element
        if len(self.stack) > MAX_DEPTH + 1:
            raise SsmlParseError(f"elements nested more than {MAX_DEPTH} deep",
                                 self._offset(self.parser.CurrentByteIndex))
        self._flush_text()
        self.stack.append(_Frame(tag, attrs, self.parser.CurrentByteIndex))

    def _cdata(self, data: str):
        self.text_buf.append(data)

    def _end(self, tag: str):
        self._flush_text()
        frame = self.closing = self.stack.pop()
        pairs = [(frame.attrs[i], frame.attrs[i + 1]) for i in range(0, len(frame.attrs), 2)]
        attrs = dict(pairs)
        node: Node | None = None
        if tag == "__root__":
            self.stack[-1].children.extend(frame.children)
        elif tag == "speak":
            self.lang = attrs.get("xml:lang", self.lang)
            self.stack[-1].children.extend(frame.children)
        elif tag == "voice":
            self.voice = attrs.get("name", self.voice)
            self.stack[-1].children.extend(frame.children)
        elif tag == "prosody":
            known = {}
            extras = []
            for key, value in pairs:
                if key in ("pitch", "rate", "volume"):
                    known[key] = _parse_pct(key, value)
                else:
                    extras.append((key, value))
            node = ProsodyElement(
                pitch_pct=known.get("pitch"),
                rate_pct=known.get("rate"),
                volume_pct=known.get("volume"),
                children=tuple(frame.children),
                extra_attrs=tuple(extras),
            )
        elif tag == "break":
            if "time" not in attrs:
                raise ValueError("break element is missing its time attribute")
            node = BreakElement(_parse_ms("break time", attrs["time"], unit_required=True))
        elif tag == "mstts:silence" and attrs.get("type") in (LEADING_EXACT, TRAILING_EXACT):
            node = SilenceDirective(
                attrs["type"], _parse_ms("silence value", attrs.get("value", "0"), False)
            )
        else:
            node = OpaqueElement(tag, tuple(pairs), tuple(frame.children))
        if node is not None:
            self.stack[-1].children.append(node)

    def run(self) -> tuple[tuple[Node, ...], str | None, str | None]:
        try:
            self.parser.Parse(self.raw_bytes, True)
        except expat.ExpatError as exc:
            raise SsmlParseError(f"malformed XML: {expat.errors.messages[exc.code]}",
                                 self._offset(self.parser.ErrorByteIndex)) from None
        except ValueError as exc:  # a bad value in the element _end was closing
            raise SsmlParseError(str(exc), self._offset(self.closing.byte_idx)) from None
        self._flush_text()
        return tuple(self.stack[0].children), self.lang, self.voice


def parse(text: str) -> SsmlDocument:
    """Parse one SSML fragment or document into a single-segment document."""
    nodes, lang, voice = _Parser(text).run()
    return SsmlDocument(segments=(nodes,), lang=lang, voice=voice)


def parse_corpus(text: str) -> SsmlDocument:
    """Parse a corpus file: one SSML fragment or document per non-blank line,
    each line becoming one segment."""
    segments: list[tuple[Node, ...]] = []
    lang = voice = None
    for line in text.splitlines():
        if not line.strip():
            continue
        nodes, seg_lang, seg_voice = _Parser(line).run()
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
