import pickle
import random
from xml.sax import saxutils

import pytest

from prosodika import ssml
from prosodika.prosody import PipelineConfig, ProsodyDelta
from prosodika.ssml import (
    BreakElement,
    EmitOptions,
    OpaqueElement,
    ProsodyElement,
    SilenceDirective,
    SsmlDocument,
    SsmlParseError,
    SsmlValidationError,
    TextNode,
    emit,
    emit_document,
    parse,
    parse_corpus,
    validate,
)


def delta(pitch=0.0, rate=0.0, volume=0.0, break_ms=0, flags=()):
    return ProsodyDelta(pitch, rate, volume, break_ms, tuple(flags))


class TestEmit:
    def test_reference_form(self):
        out = emit([("bonjour", delta(2.0, -1.0, -10.0, 200))])
        assert out == (
            '<prosody pitch="+2.00%" rate="-1.00%" volume="-10.00%">bonjour</prosody>'
            '<break time="200ms"/>'
        )

    def test_neutral_suppressed(self):
        out = emit([("bonjour", delta())], EmitOptions(suppress_neutral=True))
        assert out == "bonjour"

    def test_neutral_not_suppressed_by_default(self):
        out = emit([("bonjour", delta())])
        assert out == (
            '<prosody pitch="+0.00%" rate="+0.00%" volume="+0.00%">bonjour</prosody>'
            '<break time="0ms"/>'
        )

    def test_azure_silence_wrap(self):
        out = emit([("bonjour", delta(2.0, -1.0, -10.0, 200))],
                   EmitOptions(azure_silence_wrap=True))
        assert out == (
            '<mstts:silence type="leading-exact" value="0"/>'
            '<prosody pitch="+2.00%" rate="-1.00%" volume="-10.00%">bonjour</prosody>'
            '<mstts:silence type="trailing-exact" value="0"/>'
            '<break time="200ms"/>'
        )

    def test_full_document_envelope(self):
        out = emit([("salut", delta(1.0, 0.0, 0.0, 100))],
                   EmitOptions(voice=ssml.DEFAULT_VOICE))
        assert out.startswith('<speak version="1.0" xmlns="http://www.w3.org/2001/10/synthesis"')
        assert 'xml:lang="fr-FR"' in out
        assert '<voice name="fr-FR-HenriNeural">' in out
        assert out.endswith("</voice></speak>")
        # a voice is an attribute value like any other, and stays on its line
        out = emit([("salut", delta())], EmitOptions(voice='a\nb\r"c\td'))
        assert "<voice name='a&#10;b&#13;\"c&#9;d'>" in out
        assert parse_corpus(out).voice == 'a\nb\r"c\td'

    def test_escaping(self):
        out = emit([('a & b < c > "d"', delta(break_ms=50))])
        assert "a &amp; b &lt; c &gt; &quot;d&quot;" in out

    def test_refuses_out_of_range(self):
        with pytest.raises(SsmlValidationError):
            emit([("trop", delta(volume=40.0))])

    def test_refuses_empty_text(self):
        with pytest.raises(ValueError):
            emit([("   ", delta())])

    def test_deterministic(self):
        syntagms = [("un deux", delta(1.23, -0.5, 3.0, 340)), ("trois", delta(0.0, 0.0, 0.0, 0))]
        assert emit(syntagms) == emit(syntagms)

    def test_negative_zero_normalized(self):
        out = emit([("mot", delta(pitch=-0.0001))])
        assert 'pitch="+0.00%"' in out


class TestEscape:
    """The emitter's own escapes give xml.sax.saxutils' output; the package
    does not import that module, which loads urllib and email with it."""

    PIECES = ["&", "<", ">", '"', "'", "\n", "\r", "\t", "a", "é", " ", "&amp;", "]]>",
              "\U0001f600", "\U00010348", "\u2028"]

    def test_match_saxutils_on_seeded_strings(self):
        rng = random.Random(1017)
        for _ in range(5000):
            text = "".join(rng.choice(self.PIECES) for _ in range(rng.randint(0, 12)))
            assert ssml._escape(text) == saxutils.escape(text, {'"': "&quot;"})
            assert ssml._quoteattr(text) == saxutils.quoteattr(text)


class TestParse:
    def test_round_trip_reference(self):
        s = emit([("bonjour", delta(2.0, -1.0, -10.0, 200))])
        doc = parse(s)
        assert doc == SsmlDocument(
            segments=(
                (
                    ProsodyElement(2.0, -1.0, -10.0, children=(TextNode("bonjour"),)),
                    BreakElement(200),
                ),
            )
        )

    def test_break_seconds_converted(self):
        doc = parse('<break time="0.5s"/>')
        assert doc.segments[0][0] == BreakElement(500)

    def test_non_numeric_pitch_reports_offset(self):
        with pytest.raises(SsmlParseError) as err:
            parse('<prosody pitch="high">mot</prosody>')
        assert "non-numeric pitch" in str(err.value)
        assert err.value.offset == 0

    def test_error_survives_pickling(self):
        bad = 'mot <prosody pitch="high">mot</prosody>'
        for parser, text, where in (
            (parse, bad, "offset 4"),
            # a corpus error counts lines from 1, blank ones included
            (parse_corpus, f'<break time="1ms"/>\n\n{bad}', "line 3, offset 4"),
        ):
            with pytest.raises(SsmlParseError) as err:
                parser(text)
            copy = pickle.loads(pickle.dumps(err.value))
            assert (copy.line, copy.offset, str(copy)) == (
                err.value.line, err.value.offset, str(err.value))
            assert str(copy) == f"{where}: non-numeric pitch value 'high'"

    def test_missing_percent_suffix(self):
        with pytest.raises(SsmlParseError) as err:
            parse('<prosody pitch="2.0">mot</prosody>')
        assert "missing the % suffix" in str(err.value)

    def test_negative_break(self):
        with pytest.raises(SsmlParseError) as err:
            parse('<break time="-200ms"/>')
        assert "negative break" in str(err.value)

    def test_break_missing_unit(self):
        with pytest.raises(SsmlParseError) as err:
            parse('<break time="200"/>')
        assert "unit" in str(err.value)

    def test_malformed_xml_offset(self):
        with pytest.raises(SsmlParseError) as err:
            parse("<prosody>mot")
        assert "malformed XML" in str(err.value)

    def test_offsets_count_characters_on_a_long_line(self):
        head = emit([(f"été {i}", delta(pitch=1.0, break_ms=10)) for i in range(500)])
        text = head + '<prosody pitch="high">fin</prosody>'
        with pytest.raises(SsmlParseError) as err:
            parse_corpus(text)
        assert err.value.offset == text.index('<prosody pitch="high"')
        text = head + "<b>&zz;</b>"
        with pytest.raises(SsmlParseError) as err:
            parse_corpus(text)
        assert "malformed XML" in str(err.value)
        assert err.value.offset == text.index("&zz;")

    def test_break_time_too_large(self):
        with pytest.raises(SsmlParseError) as err:
            parse('<break time="' + "9" * 400 + 'ms"/>')
        assert "too large" in str(err.value)

    @pytest.mark.parametrize("name", ["pitch", "rate", "volume"])
    @pytest.mark.parametrize("sign", ["", "-"])
    def test_percent_too_large(self, name, sign):
        raw = sign + "9" * 400 + "%"
        with pytest.raises(SsmlParseError) as err:
            parse(f'mot <prosody {name}="{raw}">mot</prosody>')
        assert err.value.args[0] == f"{name} value {raw!r} is too large"
        assert err.value.offset == 4

    def test_text_run_longer_than_expat_buffer_is_one_node(self):
        # expat's default text buffer is 8 KiB; entities, character references,
        # comments and CDATA sections all join the surrounding text
        words = " ".join(f"mot{i}" for i in range(2000))
        text = f"<prosody>{words} &amp; &#233;<!-- c --> {words}<![CDATA[ <x> ]]>fin</prosody>"
        assert len(text.encode("utf-8")) > 3 * 8192
        (node,) = parse(text).segments[0]
        assert node.children == (TextNode(f"{words} & é {words} <x> fin"),)

    def test_attributes_keep_document_order(self):
        doc = parse('<emphasis z="1" level="strong" a="2">mot</emphasis>'
                    '<prosody y="1" pitch="+1.00%" b="2" rate="-1.00%" a="3">mot</prosody>')
        opaque, prosody = doc.segments[0]
        assert opaque.attrs == (("z", "1"), ("level", "strong"), ("a", "2"))
        assert prosody.extra_attrs == (("y", "1"), ("b", "2"), ("a", "3"))
        assert (prosody.pitch_pct, prosody.rate_pct) == (1.0, -1.0)

    def test_multiline_offsets_count_characters_from_the_start(self):
        head = '<?xml version="1.0"?>\n<s>\U0001D11E été\n</s>\n'
        text = head + '<prosody pitch="high">mot</prosody>'
        with pytest.raises(SsmlParseError) as err:
            parse(text)
        assert (err.value.offset, err.value.line) == (len(head), None)
        text = head + "<b>&zz;</b>"
        with pytest.raises(SsmlParseError, match="malformed XML") as err:
            parse(text)
        assert err.value.offset == text.index("&zz;")

    @pytest.mark.parametrize(
        "text", ["mot \ud800 x", '<prosody rate="+1.00%" a="x\udfff">mot</prosody>'],
        ids=["text", "attribute"])
    def test_lone_surrogate_is_a_parse_error(self, text):
        # UTF-8 cannot encode a lone surrogate; expat rejects the bytes in its place
        offset = min(i for i, c in enumerate(text) if "\ud800" <= c <= "\udfff")
        message = "malformed XML: not well-formed (invalid token)"
        with pytest.raises(SsmlParseError) as err:
            parse(text)
        assert err.value.args == (message, offset, None)
        with pytest.raises(SsmlParseError) as err:
            parse_corpus(f'<break time="1ms"/>\n\n{text}')
        assert err.value.args == (message, offset, 3)

    def test_unknown_elements_opaque(self):
        doc = parse('<emphasis level="strong">mot</emphasis>')
        node = doc.segments[0][0]
        assert node == OpaqueElement(
            "emphasis", (("level", "strong"),), (TextNode("mot"),)
        )

    def test_envelope_unwrapped(self):
        s = emit([("mot", delta(break_ms=10))], EmitOptions(voice="fr-FR-HenriNeural"))
        doc = parse(s)
        assert doc.lang == "fr-FR"
        assert doc.voice == "fr-FR-HenriNeural"
        assert isinstance(doc.segments[0][0], ProsodyElement)

    def test_silence_directive(self):
        doc = parse('<mstts:silence type="leading-exact" value="0"/>')
        assert doc.segments[0][0] == SilenceDirective("leading-exact", 0)

    def test_entity_in_text(self):
        doc = parse("<prosody>a &amp; b</prosody>")
        assert doc.segments[0][0].children == (TextNode("a & b"),)

    def test_whitespace_normalized(self):
        doc = parse("<prosody>  deux   mots  </prosody>")
        assert doc.segments[0][0].children == (TextNode("deux mots"),)

    def test_xml_declaration_accepted(self):
        doc = parse('<?xml version="1.0"?><break time="5ms"/>')
        assert doc.segments[0][0] == BreakElement(5)


class TestParseCorpus:
    def test_one_segment_per_line(self):
        lines = [
            emit([("un", delta(break_ms=100))]),
            "",
            emit([("deux", delta(break_ms=200))]),
        ]
        doc = parse_corpus("\n".join(lines))
        assert len(doc.segments) == 2

    def test_emit_document_round_trip(self):
        for corpus in (
            emit([("un", delta(break_ms=100))]) + "\n" + emit([("deux", delta())]),
            # the envelope's attributes are quoted like any other attribute
            "<speak xml:lang='fr\"x'><voice name='a\"b'>mot</voice></speak>",
            '<speak xml:lang="fr&#9;x"><voice name="a&#10;b&#13;c">mot</voice></speak>',
            # opaque elements, with and without children
            '<p><emphasis level="strong">mot</emphasis><audio src="x.wav"/></p>',
            # only the attributes the document has are written back
            '<speak xml:lang="fr">mot</speak>',
            '<voice name="x">mot</voice>',
        ):
            doc = parse_corpus(corpus)
            text = emit_document(doc)
            assert parse_corpus(text) == doc

    @pytest.mark.parametrize("sep", ["\u2028", "\x85"])
    def test_only_newlines_break_lines(self, sep):
        doc = parse_corpus(f'<break time="1ms"/>mot{sep}deux<break time="2ms"/>\r\nmot\r')
        assert doc.segments[0] == (BreakElement(1), TextNode("mot deux"), BreakElement(2))
        assert len(doc.segments) == 2

    def test_form_feed_stays_in_its_line(self):
        # XML forbids the character, so the line is malformed rather than split in two
        with pytest.raises(SsmlParseError, match="line 1, offset 22"):
            parse_corpus('<break time="1ms"/>mot\x0cdeux<break time="2ms"/>')

    @pytest.mark.parametrize("bad,message", [
        ('<prosody pitch="+1.00%"/><prosody pitch="+1.00">b</prosody>',
         "pitch value '+1.00' is missing the % suffix"),
        ('<break time="2ms"/><break time="2 s"/>', "non-numeric break time '2 s'"),
    ])
    def test_a_bad_value_on_two_lines_names_the_first(self, bad, message):
        # the good value before it is a remembered parse; the bad one is parsed afresh
        offset = bad.index("/>") + 2
        with pytest.raises(SsmlParseError) as err:
            parse_corpus(f"mot\n\n{bad}\n{bad}\n")
        assert (err.value.args[0], err.value.offset, err.value.line) == (message, offset, 3)
        with pytest.raises(SsmlParseError) as alone:
            parse(bad)
        assert (alone.value.args[0], alone.value.offset) == (message, offset)

    def test_remembered_numbers_keep_their_unit_rule(self):
        # a bare number is a silence value in ms but not a break time
        with pytest.raises(SsmlParseError) as err:
            parse_corpus('<mstts:silence type="leading-exact" value="200"/>\n'
                         '<break time="200"/>')
        assert (err.value.args[0], err.value.line) == (
            "break time '200' is missing its ms/s unit", 2)

    @pytest.mark.parametrize("parser", [parse, parse_corpus])
    def test_calls_share_no_number_memo(self, monkeypatch, parser):
        seen = []

        def parse_pct(name, raw):
            seen.append(raw)
            return real(name, raw)

        real = ssml._parse_pct
        monkeypatch.setattr(ssml, "_parse_pct", parse_pct)
        text = '<prosody pitch="+1.00%">a</prosody>\n<prosody pitch="+1.00%">b</prosody>'
        assert parser(text) == parser(text)
        assert seen == ["+1.00%", "+1.00%"]  # once in each call


class TestValidate:
    def test_emitter_output_clean(self):
        s = emit([("bonjour", delta(2.0, -1.0, -10.0, 200))],
                 EmitOptions(azure_silence_wrap=True))
        assert validate(parse(s)) == []

    def test_nested_prosody(self):
        doc = SsmlDocument(
            segments=(
                (
                    ProsodyElement(
                        1.0, None, None,
                        children=(ProsodyElement(2.0, None, None,
                                                 children=(TextNode("x"),)),),
                    ),
                ),
            )
        )
        violations = validate(doc)
        assert any(v.rule == "nested-prosody" for v in violations)

    def test_volume_out_of_range(self):
        doc = SsmlDocument(segments=(((ProsodyElement(None, None, 40.0)),),))
        violations = validate(doc, PipelineConfig())
        assert any(v.rule == "volume-out-of-range" for v in violations)

    def test_rate_ceiling_is_half_r(self):
        doc = SsmlDocument(segments=((ProsodyElement(None, 7.0, None),),))
        violations = validate(doc, PipelineConfig())  # ceiling 0.5*10 = 5
        assert any(v.rule == "rate-out-of-range" for v in violations)

    def test_violation_carries_path(self):
        doc = SsmlDocument(segments=((ProsodyElement(None, None, 40.0),),))
        (violation,) = validate(doc)
        assert violation.path.startswith("segments[0]/prosody[0]")

    def test_two_decimal_quantization_tolerated(self):
        lo, hi = PipelineConfig().pitch_bounds_pct()  # hi = 9.0508
        doc = SsmlDocument(segments=((ProsodyElement(round(hi, 2), None, None),),))
        assert validate(doc) == []


def random_document(rng: random.Random) -> SsmlDocument:
    cfg = PipelineConfig()
    lo, hi = cfg.pitch_bounds_pct()
    words = ["bonjour", "chat", "déjà", "l'été", "voix", "aujourd'hui", "rêve"]

    def q(value):
        return round(value, 2)

    segments = []
    for _ in range(rng.randint(1, 3)):
        nodes = []
        for _ in range(rng.randint(1, 5)):
            kind = rng.random()
            if kind < 0.15 and not (nodes and isinstance(nodes[-1], TextNode)):
                # adjacent text nodes are not canonical: XML merges them
                nodes.append(TextNode(" ".join(rng.sample(words, rng.randint(1, 3)))))
            elif kind < 0.3:
                nodes.append(BreakElement(rng.randrange(0, 1500)))
            elif kind < 0.4:
                nodes.append(
                    SilenceDirective(
                        rng.choice(["leading-exact", "trailing-exact"]),
                        rng.randrange(0, 500),
                    )
                )
            else:
                nodes.append(
                    ProsodyElement(
                        q(rng.uniform(lo, hi)),
                        q(rng.uniform(-cfg.rate_clip_pct, 0.5 * cfg.rate_clip_pct)),
                        q(rng.uniform(-cfg.volume_clip_pct, cfg.volume_clip_pct)),
                        children=(TextNode(rng.choice(words)),),
                    )
                )
                if rng.random() < 0.7:
                    nodes.append(BreakElement(rng.randrange(0, 1200)))
        segments.append(tuple(nodes))
    return SsmlDocument(segments=tuple(segments))


class TestRoundTripProperty:
    def test_thousand_random_documents(self):
        rng = random.Random(20240817)
        for _ in range(1000):
            doc = random_document(rng)
            text = emit_document(doc)
            back = parse_corpus(text)
            assert back == doc
            assert validate(back) == []
            assert emit_document(back) == text
