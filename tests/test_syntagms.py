import pytest
from hypothesis import given, strategies as st

from prosodika.syntagms import (
    PAUSE,
    WORD,
    FunctionWordLexicon,
    Token,
    filter_function_word_pauses,
    segment_syntagms,
    tokens_from_tier,
)
from prosodika.textgrid import TextGridInterval, TextGridTier


def tier(intervals):
    ivs = tuple(TextGridInterval(a, b, label) for a, b, label in intervals)
    return TextGridTier("words", ivs[0].start_s, ivs[-1].end_s, ivs)


def word(text, start, end):
    return Token(WORD, text, start, end)


def pause(start, end):
    return Token(PAUSE, "", start, end)


@pytest.fixture(scope="module")
def lexicon():
    return FunctionWordLexicon.default()


class TestTokensFromTier:
    def test_word_pause_word(self):
        toks = tokens_from_tier(tier([(0, 0.2, "le"), (0.2, 0.5, ""), (0.5, 0.9, "chat")]))
        assert [t.kind for t in toks] == [WORD, PAUSE, WORD]
        assert toks[1].duration_ms == 300

    def test_adjacent_pauses_merge(self):
        toks = tokens_from_tier(
            tier([(0, 0.2, "a"), (0.2, 0.4, ""), (0.4, 0.6, "  "), (0.6, 0.8, "b")])
        )
        assert [t.kind for t in toks] == [WORD, PAUSE, WORD]
        assert toks[1].start_ms == 200 and toks[1].end_ms == 600

    def test_no_empty_intervals(self):
        toks = tokens_from_tier(tier([(0, 0.2, "a"), (0.2, 0.4, "b")]))
        assert all(t.kind == WORD for t in toks)
        # intervals that round to zero length: a word widens to 1 ms, a pause goes
        toks = tokens_from_tier(tier([(0, 0.2, "a"), (0.2, 0.2002, "b"), (0.2002, 0.2004, ""),
                                      (0.2004, 0.4, "c")]))
        assert toks == [word("a", 0, 200), word("b", 200, 201), word("c", 200, 400)]


class TestLexicon:
    def test_accent_and_case_insensitive(self, lexicon):
        assert "de" in lexicon
        assert "De" in lexicon
        assert "À" in lexicon
        assert "a" in lexicon  # accent-folded à
        assert "maison" not in lexicon

    def test_size_is_substantial(self, lexicon):
        assert len(lexicon) >= 150

    def test_custom_file(self, tmp_path):
        p = tmp_path / "lex.txt"
        p.write_text("# comment\nfoo\nBAR\n", encoding="utf-8")
        lex = FunctionWordLexicon(p.read_text(encoding="utf-8").splitlines())
        assert "foo" in lex and "bar" in lex and "baz" not in lex


class TestFilterFunctionWordPauses:
    def test_removes_after_function_word(self, lexicon):
        toks = [word("de", 0, 200), pause(200, 320), word("Paris", 320, 800)]
        out = filter_function_word_pauses(toks, lexicon)
        assert [t.kind for t in out] == [WORD, WORD]
        assert out[0].end_ms == 320  # pause time reattached

    def test_keeps_after_content_word(self, lexicon):
        toks = [word("maison", 0, 400), pause(400, 520), word("bleue", 520, 900)]
        out = filter_function_word_pauses(toks, lexicon)
        assert [t.kind for t in out] == [WORD, PAUSE, WORD]

    def test_keeps_leading_pause(self, lexicon):
        toks = [pause(0, 300), word("bonjour", 300, 700)]
        out = filter_function_word_pauses(toks, lexicon)
        assert [t.kind for t in out] == [PAUSE, WORD]

    def test_preserves_word_count_and_stream_end(self, lexicon):
        toks = [
            word("le", 0, 150),
            pause(150, 250),
            word("chat", 250, 600),
            pause(600, 1000),
            word("dort", 1000, 1400),
            pause(1400, 1600),
        ]
        out = filter_function_word_pauses(toks, lexicon)
        assert sum(1 for t in out if t.kind == WORD) == 3
        assert out[-1].end_ms == toks[-1].end_ms


class TestSegmentSyntagms:
    def test_pause_boundaries(self):
        toks = [
            word("le", 0, 150),
            word("chat", 150, 500),
            pause(500, 800),
            word("dort", 800, 1200),
        ]
        syn = segment_syntagms(toks)
        assert [s.text for s in syn] == ["le chat", "dort"]
        assert syn[0].trailing_pause_ms == 300
        assert syn[1].trailing_pause_ms == 0

    def test_sentence_final_pause_clamped(self):
        toks = [word("fin.", 0, 400), pause(400, 600), word("Alors", 600, 1000)]
        syn = segment_syntagms(toks)
        assert syn[0].trailing_pause_ms == 500  # clamped from 200

    def test_long_final_pause_not_shortened(self):
        toks = [word("fin.", 0, 400), pause(400, 1200), word("Alors", 1200, 1500)]
        syn = segment_syntagms(toks)
        assert syn[0].trailing_pause_ms == 800

    def test_injected_pause_when_missing(self):
        toks = [word("fin.", 0, 400), word("Alors", 400, 800)]
        syn = segment_syntagms(toks)
        assert len(syn) == 2
        assert syn[0].trailing_pause_ms == 500
        assert syn[0].pause_injected

    def test_clamped_pause_not_marked_injected(self):
        toks = [word("fin.", 0, 400), pause(400, 600), word("Alors", 600, 1000)]
        syn = segment_syntagms(toks)
        assert syn[0].trailing_pause_ms == 500
        assert not syn[0].pause_injected

    def test_ten_words_no_triggers_single_syntagm(self):
        toks = [word(f"mot{i}", i * 100, (i + 1) * 100) for i in range(10)]
        syn = segment_syntagms(toks)
        assert len(syn) == 1
        assert syn[0].word_count == 10
        assert syn[0].trailing_pause_ms == 0

    def test_final_sentence_word_gets_injected_pause(self):
        toks = [word("voila.", 0, 500)]
        syn = segment_syntagms(toks)
        assert syn[0].trailing_pause_ms == 500

    def test_punctuation_behind_closing_quote(self):
        toks = [word('oui.»', 0, 300), word("Et", 300, 500)]
        syn = segment_syntagms(toks)
        assert len(syn) == 2
        assert syn[0].trailing_pause_ms == 500

    def test_question_and_exclamation(self):
        toks = [
            word("quoi?", 0, 300),
            pause(300, 400),
            word("non!", 400, 700),
            pause(700, 790),
            word("bon", 790, 1000),
        ]
        syn = segment_syntagms(toks)
        assert [s.trailing_pause_ms for s in syn] == [500, 500, 0]

    def test_net_duration_and_times(self):
        toks = [word("a", 100, 300), word("b", 300, 600), pause(600, 900)]
        syn = segment_syntagms(toks)
        s = syn[0]
        assert s.start_ms == 100 and s.end_ms == 600
        assert s.net_duration_s == pytest.approx(0.5)

    def test_empty_stream(self):
        assert segment_syntagms([]) == []


words_strategy = st.lists(
    st.tuples(
        st.sampled_from(["mot", "chose", "fin.", "quoi?", "de", "table"]),
        st.integers(80, 600),  # word duration ms
        st.integers(0, 700),   # following pause ms (0 = none)
    ),
    min_size=1,
    max_size=20,
)


@given(words_strategy)
def test_word_sequence_preserved(spec):
    toks = []
    cursor = 0
    for text, dur, gap in spec:
        toks.append(word(text, cursor, cursor + dur))
        cursor += dur
        if gap:
            toks.append(pause(cursor, cursor + gap))
            cursor += gap
    syn = segment_syntagms(toks)
    flattened = [w.text for s in syn for w in s.words]
    assert flattened == [t.text for t in toks if t.kind == WORD]
    # clamp invariant: boundary pauses after sentence punctuation are >= 500
    for s in syn:
        if s.words[-1].text.rstrip().rstrip("\"'»”’)]}")[-1:] in {".", "?", "!"}:
            assert s.trailing_pause_ms >= 500


@given(words_strategy)
def test_segmentation_deterministic(spec):
    toks = []
    cursor = 0
    for text, dur, gap in spec:
        toks.append(word(text, cursor, cursor + dur))
        cursor += dur
        if gap:
            toks.append(pause(cursor, cursor + gap))
            cursor += gap
    assert segment_syntagms(list(toks)) == segment_syntagms(list(toks))
