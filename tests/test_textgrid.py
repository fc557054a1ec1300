import pickle

import pytest

from prosodika.textgrid import TextGridParseError, parse_textgrid, read_textgrid

from conftest import long_textgrid, short_textgrid

MINIMAL = [(0.0, 1.0, "bonjour"), (1.0, 1.5, "")]


class TestLongFormat:
    def test_minimal(self):
        tiers = parse_textgrid(long_textgrid(MINIMAL))
        assert len(tiers) == 1
        tier = tiers[0]
        assert tier.name == "words"
        assert len(tier.intervals) == 2
        assert tier.intervals[0].label == "bonjour"
        assert tier.intervals[1].label == ""
        assert tier.intervals[0].end_s == 1.0

    def test_labels_verbatim(self):
        tiers = parse_textgrid(long_textgrid([(0.0, 1.0, "  il a dit \"oui\" ")]))
        assert tiers[0].intervals[0].label == '  il a dit "oui" '

    def test_multiple_tiers(self):
        a = long_textgrid(MINIMAL)
        # append a second tier by building a two-tier file manually
        text = a.replace("size = 1", "size = 2").rstrip("\n") + "\n" + "\n".join(
            [
                "    item [2]:",
                '        class = "IntervalTier"',
                '        name = "phones"',
                "        xmin = 0",
                "        xmax = 1.5",
                "        intervals: size = 1",
                "        intervals [1]:",
                "            xmin = 0",
                "            xmax = 1.5",
                '            text = "b"',
            ]
        ) + "\n"
        tiers = parse_textgrid(text)
        assert [t.name for t in tiers] == ["words", "phones"]

    def test_point_tier_skipped(self):
        text = long_textgrid(MINIMAL).replace("size = 1", "size = 2").rstrip("\n")
        text += "\n" + "\n".join(
            [
                "    item [2]:",
                '        class = "TextTier"',
                '        name = "events"',
                "        xmin = 0",
                "        xmax = 1.5",
                "        points: size = 1",
                "        points [1]:",
                "            number = 0.7",
                '            mark = "click"',
            ]
        ) + "\n"
        tiers = parse_textgrid(text)
        assert [t.name for t in tiers] == ["words"]


class TestShortFormat:
    def test_equivalent_to_long(self):
        long_tiers = parse_textgrid(long_textgrid(MINIMAL))
        short_tiers = parse_textgrid(short_textgrid(MINIMAL))
        assert long_tiers == short_tiers

    def test_escaped_quotes(self):
        tiers = parse_textgrid(short_textgrid([(0.0, 1.0, 'dit ""oui""'.replace('""', '"'))]))
        assert tiers[0].intervals[0].label == 'dit "oui"'


class TestErrors:
    def test_xmax_before_xmin_names_line(self):
        bad = long_textgrid([(0.0, 1.0, "a"), (1.0, 0.5, "b")])
        with pytest.raises(TextGridParseError) as err:
            parse_textgrid(bad)
        # offending interval starts at a concrete line carried by the error
        assert err.value.line > 0
        assert "precedes" in str(err.value)

    def test_error_survives_pickling(self):
        with pytest.raises(TextGridParseError) as err:
            parse_textgrid(long_textgrid([(0.0, 1.0, "a"), (1.0, 0.5, "b")]))
        copy = pickle.loads(pickle.dumps(err.value))
        assert (copy.line, str(copy)) == (err.value.line, str(err.value))

    def test_malformed_header(self):
        with pytest.raises(TextGridParseError):
            parse_textgrid("this is not\na textgrid\n0\n1\n")

    def test_wrong_object_class(self):
        text = long_textgrid(MINIMAL).replace('"TextGrid"', '"Pitch"')
        with pytest.raises(TextGridParseError):
            parse_textgrid(text)

    def test_truncated_file(self):
        text = long_textgrid(MINIMAL)
        truncated = "\n".join(text.splitlines()[:-2])
        with pytest.raises(TextGridParseError) as err:
            parse_textgrid(truncated)
        assert "end of file" in str(err.value) or "unterminated" in str(err.value)

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_number(self, value):
        text = long_textgrid(MINIMAL).replace("size = 1", f"size = {value}")
        with pytest.raises(TextGridParseError) as err:
            parse_textgrid(text)
        assert err.value.line == 7

    def test_overlapping_intervals(self):
        bad = long_textgrid([(0.0, 1.0, "a"), (0.5, 2.0, "b")])
        with pytest.raises(TextGridParseError) as err:
            parse_textgrid(bad)
        assert "overlap" in str(err.value)


class TestEncodings:
    def test_utf8_file(self, tmp_path):
        p = tmp_path / "g.TextGrid"
        p.write_text(long_textgrid([(0.0, 1.0, "déjà")]), encoding="utf-8")
        tiers = read_textgrid(p)
        assert tiers[0].intervals[0].label == "déjà"

    def test_utf16_file(self, tmp_path):
        p = tmp_path / "g16.TextGrid"
        p.write_bytes(long_textgrid([(0.0, 1.0, "déjà")]).encode("utf-16"))
        tiers = read_textgrid(p)
        assert tiers[0].intervals[0].label == "déjà"

    def test_utf8_bom(self, tmp_path):
        p = tmp_path / "gbom.TextGrid"
        p.write_bytes(b"\xef\xbb\xbf" + long_textgrid([(0.0, 1.0, "ete")]).encode("utf-8"))
        tiers = read_textgrid(p)
        assert tiers[0].intervals[0].label == "ete"

    @pytest.mark.parametrize("label", ["a\u2028b", "a\x85b", "a\x0cb", "a\x1eb", "\u2028"])
    def test_only_newlines_break_lines(self, tmp_path, label):
        p = tmp_path / "g.TextGrid"
        p.write_text(long_textgrid([(0.0, 1.0, label)]), encoding="utf-8")
        assert read_textgrid(p)[0].intervals[0].label == label

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_label_spanning_lines_keeps_the_file_line_break(self, tmp_path, newline):
        p = tmp_path / "g.TextGrid"
        text = long_textgrid([(0.0, 1.0, "a\nb"), (1.0, 2.0, "c")]).replace("\n", newline)
        p.write_bytes(text.encode("utf-8"))
        labels = [i.label for i in read_textgrid(p)[0].intervals]
        assert labels == [f"a{newline}b", "c"]
